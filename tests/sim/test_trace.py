"""Tests for :mod:`repro.telemetry.trace`: Chrome-Trace export.

The golden property: every exported trace is a *valid* Trace Event
Format document — required keys on every event, globally monotone
timestamps among duration events, and matched B/E pairs per
``(pid, tid)`` lane — first on a synthetic report (deterministic),
then on a real 2-process pool run (the acceptance criterion: >= 2
worker lanes). Plus the v1 -> v2 report migration that makes old
saved reports exportable.
"""

import json

from repro.paradigms.tln import mismatched_tline
from repro.sim import run_ensemble
from repro.sim.cache import TrajectoryCache
from repro.telemetry import (READABLE_SCHEMAS, SCHEMA_VERSION, RunReport,
                             migrate_report, to_chrome_trace,
                             validate_report)
from repro.telemetry.trace import (PARENT_PID, WORKER_PID, export_trace,
                                   trace_events, worker_lanes)


class TlineFactory:
    """Module-level (picklable) deterministic factory."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


SPAN = (0.0, 4e-8)


def synthetic_report():
    """A deterministic report: a 2-deep span tree + 2 worker lanes."""
    return RunReport(
        schema=SCHEMA_VERSION,
        meta={"driver": "test"},
        wall_seconds=0.5,
        spans=[
            {"name": "plan.compile", "seconds": 0.1, "start": 0.0,
             "children": []},
            {"name": "plan.solve", "seconds": 0.3, "start": 0.1,
             "children": [
                 {"name": "group[0].solve", "seconds": 0.2,
                  "start": 0.15, "children": []},
             ]},
        ],
        events=[
            {"name": "shard.solve:ode", "lane": "ark-pool-0",
             "start": 0.16, "seconds": 0.1, "rows": 8},
            {"name": "shard.solve:ode", "lane": "ark-pool-1",
             "start": 0.17, "seconds": 0.12, "rows": 8},
            {"name": "shard.solve:ode", "lane": "ark-pool-0",
             "start": 0.28, "seconds": 0.05, "rows": 4},
        ],
    )


def assert_valid_trace(trace):
    """The golden Chrome-Trace validity predicate."""
    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = trace["traceEvents"]
    assert events, "empty trace"
    for event in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in event, f"missing {key!r}: {event}"
        assert event["ph"] in ("B", "E", "M")
        assert event["ts"] >= 0
    durations = [e for e in events if e["ph"] in ("B", "E")]
    # Globally monotone timestamps (viewers rely on this).
    stamps = [e["ts"] for e in durations]
    assert stamps == sorted(stamps)
    # Matched B/E pairs per lane: depth never dips below zero and
    # every lane ends balanced.
    depth = {}
    for event in durations:
        lane = (event["pid"], event["tid"])
        depth[lane] = depth.get(lane, 0) + (1 if event["ph"] == "B"
                                            else -1)
        assert depth[lane] >= 0, f"E before B on lane {lane}"
    assert all(d == 0 for d in depth.values()), f"unbalanced: {depth}"
    # The document must be JSON-serializable as-is.
    json.dumps(trace)


class TestSyntheticTrace:

    def test_valid_and_complete(self):
        trace = to_chrome_trace(synthetic_report())
        assert_valid_trace(trace)
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "B"}
        assert {"plan.compile", "plan.solve", "group[0].solve",
                "shard.solve:ode"} <= names
        # 3 span nodes + 3 worker events = 6 B/E pairs.
        assert sum(1 for e in events if e["ph"] == "B") == 6
        assert sum(1 for e in events if e["ph"] == "E") == 6

    def test_lane_layout_and_metadata(self):
        events = trace_events(synthetic_report())
        meta = [e for e in events if e["ph"] == "M"]
        labels = {(e["pid"], e["tid"], e["name"]): e["args"]["name"]
                  for e in meta}
        assert labels[(PARENT_PID, 0, "process_name")] == "main"
        assert labels[(WORKER_PID, 0, "thread_name")] == "ark-pool-0"
        assert labels[(WORKER_PID, 1, "thread_name")] == "ark-pool-1"
        assert labels[(WORKER_PID, 0, "process_name")] == "pool workers"
        # Worker events land on their lane's tid; extras ride in args.
        worker = [e for e in events
                  if e["ph"] == "B" and e["pid"] == WORKER_PID]
        assert {e["tid"] for e in worker} == {0, 1}
        assert worker[0]["args"]["rows"] == 8

    def test_timestamps_are_microseconds(self):
        events = trace_events(synthetic_report())
        compile_begin = next(e for e in events
                             if e["name"] == "plan.compile"
                             and e["ph"] == "B")
        compile_end = next(e for e in events
                           if e["name"] == "plan.compile"
                           and e["ph"] == "E")
        assert compile_begin["ts"] == 0.0
        assert compile_end["ts"] == 0.1 * 1e6

    def test_children_clamped_into_parent(self):
        # A child overshooting its parent (separate clock reads) must
        # be clamped, or viewers render a corrupt stack.
        report = synthetic_report()
        report.spans = [
            {"name": "parent", "seconds": 0.1, "start": 0.0,
             "children": [
                 {"name": "child", "seconds": 0.2, "start": 0.05,
                  "children": []},
             ]},
        ]
        report.events = []
        trace = to_chrome_trace(report)
        assert_valid_trace(trace)
        child_end = next(e for e in trace["traceEvents"]
                         if e["name"] == "child" and e["ph"] == "E")
        parent_end = next(e for e in trace["traceEvents"]
                          if e["name"] == "parent" and e["ph"] == "E")
        assert child_end["ts"] <= parent_end["ts"]

    def test_worker_lanes_helper(self):
        assert worker_lanes(synthetic_report()) == ["ark-pool-0",
                                                    "ark-pool-1"]
        assert worker_lanes(RunReport()) == []

    def test_other_data_carries_meta(self):
        trace = to_chrome_trace(synthetic_report())
        other = trace["otherData"]
        assert other["schema"] == SCHEMA_VERSION
        assert other["wall_seconds"] == 0.5
        assert other["meta.driver"] == "test"

    def test_export_round_trip(self, tmp_path):
        path = export_trace(synthetic_report(), tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert_valid_trace(loaded)


class TestSchemaMigration:
    """v1 reports (no span starts, no events) stay loadable and
    exportable after the v2 bump."""

    V1 = {
        "schema": 1,
        "meta": {"driver": "old"},
        "wall_seconds": 1.0,
        "counters": {"solver.nfev": 10},
        "gauges": {},
        "spans": [
            {"name": "outer", "seconds": 0.5,
             "children": [{"name": "inner", "seconds": 0.2,
                           "children": []}]},
        ],
        "workers": {},
    }

    def test_readable_schemas(self):
        assert 1 in READABLE_SCHEMAS
        assert SCHEMA_VERSION in READABLE_SCHEMAS
        assert SCHEMA_VERSION == 2

    def test_v1_loads_and_migrates(self):
        report = RunReport.from_dict(self.V1)
        assert report.schema == SCHEMA_VERSION
        assert report.events == []
        assert report.spans[0]["start"] == 0.0
        assert report.spans[0]["children"][0]["start"] == 0.0
        # The migrated dict passes current validation.
        assert validate_report(report.to_dict()) == []

    def test_migrate_is_pure_and_idempotent(self):
        original = json.loads(json.dumps(self.V1))
        migrated = migrate_report(self.V1)
        assert self.V1 == original, "migrate_report mutated its input"
        assert migrate_report(migrated) == migrated

    def test_v1_report_exports_degenerate_trace(self):
        # All spans at offset 0 — degenerate, but structurally valid.
        trace = to_chrome_trace(RunReport.from_dict(self.V1))
        assert_valid_trace(trace)
        begins = [e["ts"] for e in trace["traceEvents"]
                  if e["ph"] == "B"]
        assert begins == [0.0, 0.0]

    def test_save_load_round_trip_is_v2(self, tmp_path):
        report = RunReport.from_dict(self.V1)
        path = report.save(tmp_path / "r.json")
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        again = RunReport.load(path)
        assert again.to_dict() == report.to_dict()


class TestLiveTrace:
    """A real pool run produces a valid trace with worker lanes."""

    def test_pool_run_traces_worker_lanes(self, tmp_path,
                                          small_pool_groups):
        result = run_ensemble(TlineFactory(), range(8), SPAN,
                              n_points=40, processes=2,
                              cache=TrajectoryCache(),
                              telemetry=True)
        report = result.telemetry
        assert report.schema == SCHEMA_VERSION
        assert report.events, "pool run recorded no worker events"
        for event in report.events:
            assert event["start"] >= 0.0
            assert event["seconds"] >= 0.0
            assert event["lane"].startswith("ark-pool-")
        lanes = worker_lanes(report)
        assert len(lanes) >= 1  # >= 2 whenever both workers get shards
        trace = to_chrome_trace(report)
        assert_valid_trace(trace)
        worker_events = [e for e in trace["traceEvents"]
                         if e.get("cat") == "worker"]
        assert len(worker_events) == 2 * len(report.events)
        # Worker activity sits inside the collection window.
        wall_us = report.wall_seconds * 1e6
        assert all(e["ts"] <= wall_us * 1.5 for e in worker_events)

    def test_span_starts_recorded(self):
        result = run_ensemble(TlineFactory(), range(3), SPAN,
                              n_points=40, cache=TrajectoryCache(),
                              telemetry=True)
        spans = result.telemetry.spans

        def starts(nodes):
            for node in nodes:
                yield node["start"]
                yield from starts(node.get("children", []))

        values = list(starts(spans))
        assert values and all(isinstance(v, float) for v in values)
        assert any(v > 0.0 for v in values)
