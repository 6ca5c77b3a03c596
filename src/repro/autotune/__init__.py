"""Automatic DOP tuning (paper Section 5).

The runtime info collector and the estimates read from it are
:class:`repro.obs.throughput.Sampler`; this package holds the tuner that
checks and applies requests, the DOP planning module, and the per-query
handle that ties the two together: :mod:`.planner`, :mod:`.tuner` and
:mod:`.service`, each imported by name, so planning DOPs does not load the
tuner.
"""
