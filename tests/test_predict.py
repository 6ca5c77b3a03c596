"""repro.predict: learned demand profiles, pre-grants, SLO admission.

The contracts under test (DESIGN.md §16):

- Template fingerprints group literal variants of one query and separate
  everything structural (tables, columns, IN-list cardinality, options).
- History accumulation is deterministic: same seed, same submissions ->
  byte-identical serialized history.
- Prediction is **inert until it has history**: an enabled engine with
  an empty store is bit-identical to a prediction-free engine, under
  fault injection and a seeded tuning schedule included.
- The reprovision trigger fires exactly once per bound breach.
- Admission rejects a guaranteed deadline miss with a structured error
  carrying the prediction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import TEST_SEED, norm_rows

from repro import (
    AccordionEngine,
    Catalog,
    CostModel,
    EngineConfig,
    Plan,
    NodeCrash,
    PoissonArrivals,
    QueryOptions,
    QueryRejectedError,
    Workload,
)
from repro.errors import ExecutionError, TuningRejected
from repro.data.tpch.queries import QUERIES
import repro.predict.service as predictor
from repro.predict import template_fingerprint

MAX_EVENTS = 5_000_000
TEMPLATE_GOLDEN = Path(__file__).with_name("template_golden.json")
TUNING_TIMES = (0.5, 1.0, 1.8)

AGG_SQL = (
    "select l_returnflag, count(*), sum(l_quantity) from lineitem "
    "where l_quantity > {lit} group by l_returnflag order by l_returnflag"
)


@pytest.fixture(scope="module")
def catalog():
    return Catalog.tpch(scale=0.005, seed=TEST_SEED)


def predict_engine(catalog, **kwargs) -> AccordionEngine:
    config = EngineConfig(cost=CostModel().scaled(500.0)).with_prediction(
        **kwargs
    )
    return AccordionEngine(catalog, config=config)


# -- template fingerprints --------------------------------------------------
class TestTemplateFingerprint:
    def test_literal_variants_share_a_template(self, catalog):
        options = QueryOptions()
        base = template_fingerprint(
            catalog, AGG_SQL.format(lit=10), options
        )
        assert template_fingerprint(
            catalog, AGG_SQL.format(lit=20), options
        ) == base
        # Predicate order and direction are canonicalised too.
        assert template_fingerprint(
            catalog,
            "select l_returnflag, count(*), sum(l_quantity) from lineitem "
            "where 30 < l_quantity group by l_returnflag "
            "order by l_returnflag",
            options,
        ) == base

    def test_in_set_values_parameterize_but_cardinality_does_not(
        self, catalog
    ):
        options = QueryOptions()
        sql = (
            "select count(*) from lineitem where l_returnflag in ({opts})"
        )
        two_a = template_fingerprint(
            catalog, sql.format(opts="'A', 'N'"), options
        )
        two_b = template_fingerprint(
            catalog, sql.format(opts="'N', 'R'"), options
        )
        three = template_fingerprint(
            catalog, sql.format(opts="'A', 'N', 'R'"), options
        )
        assert two_a == two_b
        assert three != two_a

    def test_structure_and_options_do_not_collide(self, catalog):
        """The literal-parameterization regression: stripping literals
        must never merge queries that differ in schema or options."""
        options = QueryOptions()
        base = template_fingerprint(
            catalog, AGG_SQL.format(lit=10), options
        )
        # Different grouped column set -> different template.
        other_schema = template_fingerprint(
            catalog,
            "select l_linestatus, count(*), sum(l_quantity) from lineitem "
            "where l_quantity > 10 group by l_linestatus "
            "order by l_linestatus",
            options,
        )
        assert other_schema != base
        # Different table -> different template.
        other_table = template_fingerprint(
            catalog,
            "select count(*) from orders where o_totalprice > 10",
            options,
        )
        assert other_table != base
        # Plan-shaping option change -> different template.
        assert template_fingerprint(
            catalog, AGG_SQL.format(lit=10),
            QueryOptions(partial_pushdown=False),
        ) != base
        # DOP hints are *not* part of the identity: a pre-granted re-run
        # must record into the template its prediction came from.
        assert template_fingerprint(
            catalog, AGG_SQL.format(lit=10),
            QueryOptions(initial_stage_dop=4, stage_dops={1: 3}),
        ) == base

    def test_template_ids_match_the_recorded_golden(self, tiny_catalog):
        """Template ids key persisted history, so they must not move when
        the plan-shaping options are refactored: a reordered, missing or
        extra plan-shaping name changes every id here."""
        golden = json.loads(TEMPLATE_GOLDEN.read_text())
        assert template_ids(tiny_catalog) == golden


#: The 19 numbered TPC-H texts, under three plan-shaping option sets.
TEMPLATE_OPTIONS = {
    "default": QueryOptions(),
    "no_pushdown": QueryOptions(partial_pushdown=False),
    "partitioned": QueryOptions(join_distribution="partitioned"),
}


def template_ids(catalog) -> dict:
    names = [name for name in QUERIES if name[1:].isdigit()]
    return {
        label: {name: template_fingerprint(catalog, QUERIES[name], options)
                for name in names}
        for label, options in TEMPLATE_OPTIONS.items()
    }


# -- history accumulation ---------------------------------------------------
def accumulate_history(catalog) -> str:
    engine = predict_engine(catalog)
    for lit in (10, 20, 30, 40):
        engine.submit(AGG_SQL.format(lit=lit)).result()
    return engine.predict_service.store.to_json()


class TestHistory:
    def test_same_seed_accumulation_is_byte_identical(self, catalog):
        assert accumulate_history(catalog) == accumulate_history(catalog)

    def test_prediction_aggregates_samples(self, catalog):
        engine = predict_engine(catalog)
        for lit in (10, 20, 30):
            engine.submit(AGG_SQL.format(lit=lit)).result()
        prediction = engine.predict(AGG_SQL.format(lit=25))
        assert prediction is not None
        assert prediction.samples == 3
        assert prediction.runtime > 0
        assert prediction.variance >= 0
        assert prediction.stages, "per-stage demand series must exist"
        demand = prediction.stages[-1]
        assert demand.cpu_seconds > 0
        assert demand.end > demand.start

    def test_predict_requires_enabled_engine(self, catalog):
        engine = AccordionEngine(catalog)
        assert engine.predict_service is None
        with pytest.raises(ExecutionError, match="prediction is not enabled"):
            engine.predict("select count(*) from lineitem")

    def test_miss_probability_shapes(self, catalog):
        engine = predict_engine(catalog)
        engine.submit(AGG_SQL.format(lit=10)).result()
        prediction = engine.predict(AGG_SQL.format(lit=20))
        # One sample -> zero variance -> step function at the estimate.
        assert prediction.miss_probability(prediction.runtime * 2) == 0.0
        assert prediction.miss_probability(prediction.runtime / 2) == 1.0
        assert prediction.miss_probability(-1.0) == 1.0


# -- inertness with empty history -------------------------------------------
def run_instrumented(catalog, predictive: bool):
    """One crash + seeded-tuning run; returns everything the simulation
    determines.  The predictive engine starts with an *empty* history —
    the contract is that it must not perturb the run at all."""
    config = EngineConfig(
        cost=CostModel().scaled(1000.0), page_row_limit=256
    ).with_tracing()
    if predictive:
        config = config.with_prediction()
    engine = AccordionEngine(catalog, config=config)
    engine.apply(
        Plan(seed=11, events=(NodeCrash(at=2.2, node="compute1"),))
    )
    handle = engine.submit(
        "select l_orderkey, sum(l_extendedprice) from lineitem "
        "where l_quantity > 5 group by l_orderkey"
    )
    rng = np.random.default_rng(99)
    actions = []
    for at in TUNING_TIMES:
        engine.run_until(at)
        stage = int(rng.integers(1, 4))
        dop = int(rng.integers(1, 6))
        try:
            outcome = handle.tuning.ap(stage, dop).accepted
        except TuningRejected as rejected:
            outcome = f"rejected: {rejected}"
        actions.append((at, stage, dop, outcome))
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    return {
        "rows": norm_rows(handle.result().rows),
        "virtual_time": engine.now,
        "events": engine.kernel.events_processed,
        "actions": actions,
        "faults": len(engine.decisions.of(kind="inject")),
        "trace": json.dumps(
            handle.trace().to_chrome_json(), sort_keys=True, default=str
        ),
    }


def test_empty_history_is_bit_inert_under_faults_and_tuning(catalog):
    baseline = run_instrumented(catalog, predictive=False)
    predictive = run_instrumented(catalog, predictive=True)
    assert predictive == baseline
    assert baseline["rows"]
    assert baseline["faults"] >= 1


# -- pre-grants and placement -----------------------------------------------
class TestPregrant:
    def test_pregrant_widens_stages_without_mutating_options(self, catalog):
        engine = predict_engine(catalog)
        session = engine.session("bi", deadline=50.0)
        # Warm the template through the admission path itself.
        session.submit(AGG_SQL.format(lit=10)).result()
        caller_options = QueryOptions()
        handle = session.submit(
            AGG_SQL.format(lit=20), options=caller_options
        )
        assert handle.prediction is not None
        # The caller's options object is never mutated; the execution
        # carries a pre-granted copy.
        assert caller_options.stage_dops == {}
        result = handle.result()
        assert result.rows
        assert handle.prediction_error is not None
        stats = engine.metrics.snapshot()
        assert stats["predict.drr_placements"] >= 1
        assert stats["predict.recorded"] == 2

    def test_memory_pregrant_sets_budget_from_prediction(self, catalog):
        engine = predict_engine(catalog)
        session = engine.session("bi")
        session.submit(AGG_SQL.format(lit=10)).result()
        handle = session.submit(AGG_SQL.format(lit=20))
        budget = handle.execution.memory.budget_bytes
        assert budget is not None
        assert budget < 1 * 1024**3, "predicted budget replaces the 1GB default"
        assert budget >= 64 * 1024 * 1024
        handle.result()

    def test_placement_reservations_release_on_completion(self, catalog):
        engine = predict_engine(catalog)
        handles = []
        for lit in (10, 20):
            handles.append(engine.submit(AGG_SQL.format(lit=lit)))
            handles[-1].result()
        assert engine.metrics.snapshot()["predict.drr_placements"] >= 1
        assert [h.execution.reservations for h in handles] == [[], []]
        assert all(not q.reservations for q in engine.coordinator.queries.values())
        assert all(node.reserved_bytes == 0 for node in engine.cluster.compute)


# -- reprovision trigger ----------------------------------------------------
def test_reprovision_fires_exactly_once_per_breach(catalog, monkeypatch):
    monkeypatch.setattr(predictor, "ERROR_BOUND", 0.01)
    engine = predict_engine(catalog)
    # Warm with a highly selective literal (few rows reach the agg), then
    # run the full-table variant: it must overshoot the predicted runtime
    # by far more than the 1% bound.
    sql = (
        "select l_orderkey, sum(l_extendedprice), count(*) from lineitem "
        "where l_quantity > {lit} group by l_orderkey"
    )
    engine.submit(sql.format(lit=49)).result()
    handle = engine.submit(sql.format(lit=0))
    handle.result()
    assert handle.prediction is not None
    assert handle.prediction_error is not None
    assert handle.prediction_error > 0.01
    assert engine.decisions.count("predict", "reprovision") == 1

    # The fast variant finishes well inside the now-averaged estimate's
    # bound, so its armed trigger is cancelled without firing.
    before = engine.decisions.count("predict", "reprovision")
    fast = engine.submit(sql.format(lit=49))
    fast.result()
    assert engine.decisions.count("predict", "reprovision") == before


# -- SLO admission ----------------------------------------------------------
def test_admission_rejects_guaranteed_miss_with_prediction(catalog):
    engine = predict_engine(catalog, max_miss_probability=0.5)
    session = engine.session("bi")
    session.submit(AGG_SQL.format(lit=10)).result()
    predicted = engine.predict(AGG_SQL.format(lit=20))
    assert predicted is not None

    doomed = engine.session("bi", deadline=predicted.runtime / 10)
    handle = doomed.submit(AGG_SQL.format(lit=20))
    assert handle.state == "rejected"
    with pytest.raises(QueryRejectedError) as excinfo:
        handle.result()
    error = excinfo.value
    assert error.reason == "predicted-miss"
    assert error.prediction is not None
    assert error.prediction.runtime == predicted.runtime
    assert "deadline-miss" in str(error)
    # The rejection shows up in admission + predictor accounting.
    assert engine.metrics.snapshot()["workload.rejected"] == 1
    assert engine.decisions.count("predict", "slo_reject") == 1

    # A feasible deadline sails through the same gate.
    relaxed = engine.session("bi", deadline=predicted.runtime * 10)
    ok = relaxed.submit(AGG_SQL.format(lit=30))
    assert ok.result().rows


def test_history_persists_across_engines(tmp_path, catalog):
    history_dir = str(tmp_path / "history")
    first = predict_engine(catalog, history_dir=history_dir)
    first.submit(AGG_SQL.format(lit=10)).result()
    assert first.predict_service.store.total_runs() == 1

    second = predict_engine(catalog, history_dir=history_dir)
    prediction = second.predict(AGG_SQL.format(lit=20))
    assert prediction is not None
    assert prediction.samples == 1


def predicted_over_runs(template, runs):
    """The prediction recomputed over every recorded run (what
    ``HistoryStore.predict`` computed before it kept running sums)."""
    from repro.predict.profile import Prediction, StageDemand

    n = len(runs)
    runtimes = [r["runtime"] for r in runs]
    mean = sum(runtimes) / n
    by_stage = {}
    for run in runs:
        for stage in run.get("stages", ()):
            by_stage.setdefault(stage["stage"], []).append(stage)

    def mean_of(obs, fld):
        return sum(o[fld] for o in obs) / len(obs)

    return Prediction(
        template=template,
        samples=n,
        runtime=mean,
        variance=sum((t - mean) ** 2 for t in runtimes) / n,
        peak_memory_bytes=int(round(sum(r.get("peak_query_bytes", 0) for r in runs) / n)),
        stages=tuple(
            StageDemand(
                stage=sid,
                cpu_seconds=mean_of(obs, "cpu_seconds"),
                quanta=int(round(mean_of(obs, "quanta"))),
                peak_memory_bytes=int(round(mean_of(obs, "peak_memory_bytes"))),
                exchange_bytes=int(round(mean_of(obs, "exchange_bytes"))),
                rows_out=int(round(mean_of(obs, "rows_out"))),
                tasks=int(round(mean_of(obs, "tasks"))),
                start=mean_of(obs, "start"),
                end=mean_of(obs, "end"),
            )
            for sid, obs in sorted(by_stage.items())
        ),
    )


def test_running_sums_predict_exactly_what_the_runs_average_to(tmp_path):
    """``predict`` costs one pass (the variance) however many runs are
    recorded; its means are bit-identical to sums over every run, live
    and after a persisted round trip."""
    from repro.predict.history import HistoryStore

    rng = np.random.default_rng(5)
    store = HistoryStore(history_dir=str(tmp_path))
    history = {}
    for _ in range(300):
        template = f"t{rng.integers(0, 4)}"
        run = {
            "runtime": float(rng.lognormal(0.0, 2.0)),
            "peak_query_bytes": int(rng.integers(0, 1 << 40)),
            "stages": [
                {
                    "stage": sid, "cpu_seconds": float(rng.random() * 1e3),
                    "quanta": int(rng.integers(0, 1 << 20)),
                    "peak_memory_bytes": int(rng.integers(0, 1 << 40)),
                    "exchange_bytes": int(rng.integers(0, 1 << 40)),
                    "rows_out": int(rng.integers(0, 1 << 30)),
                    "tasks": int(rng.integers(1, 9)),
                    "start": float(rng.random()), "end": float(rng.random() * 1e6),
                }
                for sid in range(4) if rng.random() < 0.8  # a stage may be absent
            ],
        }
        store.record(template, run)
        history.setdefault(template, []).append(run)
        assert store.predict(template) == predicted_over_runs(template, history[template])
    reloaded = HistoryStore(history_dir=str(tmp_path))
    for template, runs in history.items():
        assert reloaded.predict(template) == predicted_over_runs(template, runs)


# -- warm history pays off on a workload ------------------------------------
#: Templated aggregations whose literal varies per tenant and query, with
#: a total ORDER BY so row order is canonical at any pre-granted DOP.
WORKLOAD_TEMPLATES = [
    "select l_returnflag, l_linestatus, count(*), sum(l_quantity) "
    "from lineitem where l_quantity > {lit} "
    "group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
    "select l_orderkey, sum(l_extendedprice), count(*) from lineitem "
    "where l_quantity > {lit} group by l_orderkey order by l_orderkey",
    "select o_orderstatus, count(*), sum(o_totalprice) from orders "
    "where o_totalprice > {lit} group by o_orderstatus order by o_orderstatus",
]


def run_two_windows(catalog, config: EngineConfig):
    """A warm-up window, then the measured one, on one engine: plan caches
    are warm either way, only a predictive engine carries demand history
    into the second.  The burst is far above the service rate, so the
    horizon measures execution under contention."""
    engine = AccordionEngine(catalog, config=config)
    for _ in range(2):
        workload = Workload(engine, seed=20250807)
        for index, tenant in enumerate(("bi", "analysts")):
            queries = [
                q.format(lit=3 * index + i) for i, q in enumerate(WORKLOAD_TEMPLATES)
            ]
            workload.add_tenant(
                tenant, queries, PoissonArrivals(rate=50.0, count=6), deadline=60.0
            )
        report = workload.run()
    return engine, report, [h.result().rows for h in workload.handles]


def overall_p99(report) -> float:
    latencies = sorted(lat for s in report.tenants.values() for lat in s.latencies)
    return latencies[round(0.99 * (len(latencies) - 1))]


def test_warm_history_beats_reactive_on_makespan_and_p99(catalog):
    # Costs scaled up so queries are execution-bound and DOP matters.
    reactive_config = EngineConfig(cost=CostModel().scaled(300.0)).with_workload(
        arbitration="deadline"
    )
    _, reactive, reactive_rows = run_two_windows(catalog, reactive_config)
    _, disabled, _ = run_two_windows(
        catalog, reactive_config.with_prediction(enabled=False)
    )
    engine, predictive, predictive_rows = run_two_windows(
        catalog, reactive_config.with_prediction()
    )
    assert disabled.render() == reactive.render()
    stats = engine.metrics.snapshot()
    assert stats["predict.pregrants"] >= 1
    assert stats["predict.drr_placements"] >= 1
    # Pre-granted DOPs reorder partial sums: floats to accumulation-order
    # tolerance, everything else exact.
    assert len(predictive_rows) == 12
    for got, want in zip(predictive_rows, reactive_rows, strict=True):
        for row, expected in zip(got, want, strict=True):
            assert row == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # 1.92x / 1.93x measured on this catalog.
    assert predictive.horizon < reactive.horizon
    assert overall_p99(predictive) < overall_p99(reactive)


if __name__ == "__main__":  # record the template golden (run at the parent)
    print(json.dumps(template_ids(Catalog.tpch(scale=0.001, seed=TEST_SEED)), indent=1))
