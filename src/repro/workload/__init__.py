"""repro.workload: multi-tenant concurrent-query layer.

Sessions + admission control (``engine.session(...).submit(...)``),
cluster-wide resource arbitration of tuning bids (grant / trim / defer /
revoke), and workload drivers with per-tenant metrics.  See DESIGN.md
§11 for the policies and the determinism contract.  Each module is
imported by name: driving a :class:`~repro.workload.runner.Workload`
loads the session layer only once the workload opens its first session.
"""
