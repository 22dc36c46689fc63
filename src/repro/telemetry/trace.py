"""Chrome Trace Event Format export of a :class:`RunReport` timeline.

A schema-v2 report carries everything a wall-clock timeline needs: the
parent's hierarchical spans (each with a ``start`` offset from the
collection-window open) and the flat per-worker ``events`` list that
rode home in pool result payloads. :func:`to_chrome_trace` lays them
out in the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
— the JSON that ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ open directly:

* **pid 0 / tid 0** — the parent process: the span tree as nested
  ``B``/``E`` (begin/end) duration events, so ``plan.build``,
  ``plan.compile``, ``group[k].solve:<engine>``, ``pool.wait`` and
  friends appear as one stacked lane;
* **pid 1 / tid k** — one lane per pool worker (``ark-pool-0``,
  ``ark-pool-1``, ...), each shard solve a ``B``/``E`` pair stamped
  with the worker-side monotonic clock rebased onto the window — this
  is where shard imbalance and queue gaps become visible.

Lane names are attached through ``process_name``/``thread_name``
metadata events, extra event payload (rows per shard, shard kind)
rides in ``args``. Timestamps are microseconds, as the format requires.

``repro ensemble --trace-out t.json`` writes a trace next to the run;
``repro report saved.json --export-trace t.json`` converts a stored
report (v1 reports export too — their spans all start at offset 0, a
degenerate but valid trace).
"""

from __future__ import annotations

import json
import pathlib

from .report import RunReport, migrate_report

#: ``pid`` of the parent-process span lane in the exported trace.
PARENT_PID = 0
#: ``pid`` grouping the per-worker lanes.
WORKER_PID = 1


def _duration_pair(name: str, t0_us: float, t1_us: float, pid: int,
                   tid: int, category: str, args: dict | None) -> list:
    begin = {"name": name, "cat": category, "ph": "B",
             "ts": round(t0_us, 3), "pid": pid, "tid": tid}
    if args:
        begin["args"] = args
    end = {"name": name, "cat": category, "ph": "E",
           "ts": round(max(t0_us, t1_us), 3), "pid": pid, "tid": tid}
    return [begin, end]


def _span_events(spans: list, pid: int, tid: int) -> list[dict]:
    """The span forest as nested B/E pairs, emission order = valid
    nesting order. Children are clamped into their parent's interval:
    the two endpoints are measured by separate clock reads, so a
    child's computed end can overshoot its parent's by float noise,
    which some viewers render as corrupt stacks."""
    events: list[dict] = []

    def walk(node: dict, lo_us: float, hi_us: float) -> None:
        t0 = float(node.get("start", 0.0)) * 1e6
        t1 = t0 + float(node.get("seconds", 0.0)) * 1e6
        t0 = min(max(t0, lo_us), hi_us)
        t1 = min(max(t1, t0), hi_us)
        begin, end = _duration_pair(
            str(node.get("name", "?")), t0, t1, pid, tid, "span", None)
        events.append(begin)
        for child in node.get("children", []):
            walk(child, t0, t1)
        events.append(end)

    for node in spans:
        walk(node, 0.0, float("inf"))
    return events


def _metadata(pid: int, tid: int | None, key: str, label: str) -> dict:
    event = {"name": key, "ph": "M", "ts": 0, "pid": pid,
             "args": {"name": label}}
    event["tid"] = 0 if tid is None else tid
    return event


def trace_events(report: RunReport) -> list[dict]:
    """The report's timeline as a flat Trace-Event list, sorted by
    ``ts`` (metadata first). Every duration is a matched ``B``/``E``
    pair on its lane."""
    data = migrate_report(report.to_dict())
    events: list[dict] = [
        _metadata(PARENT_PID, None, "process_name", "main"),
        _metadata(PARENT_PID, 0, "thread_name", "spans"),
    ]
    lanes: dict[str, int] = {}
    durations = _span_events(data["spans"], PARENT_PID, 0)
    for event in data["events"]:
        lane = str(event.get("lane", "?"))
        if lane not in lanes:
            lanes[lane] = len(lanes)
            events.append(_metadata(WORKER_PID, lanes[lane],
                                    "thread_name", lane))
        t0 = float(event["start"]) * 1e6
        t1 = t0 + float(event["seconds"]) * 1e6
        args = {key: value for key, value in event.items()
                if key not in ("name", "lane", "start", "seconds")}
        durations.extend(_duration_pair(
            str(event["name"]), t0, t1, WORKER_PID, lanes[lane],
            "worker", args or None))
    if lanes:
        events.insert(2, _metadata(WORKER_PID, None, "process_name",
                                   "pool workers"))
    # Stable sort: each lane's emission order is already a valid
    # nesting order with non-decreasing ts, so sorting the merged list
    # by ts alone keeps every lane's B/E pairing intact while making
    # the global sequence monotone (what trace viewers expect).
    durations.sort(key=lambda event: event["ts"])
    return events + durations


def to_chrome_trace(report: RunReport) -> dict:
    """The full Chrome-Trace JSON object for ``report``."""
    return {
        "traceEvents": trace_events(report),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": report.schema,
            "wall_seconds": report.wall_seconds,
            **{f"meta.{key}": str(value)
               for key, value in sorted(report.meta.items())},
        },
    }


def export_trace(report: RunReport, path) -> pathlib.Path:
    """Write ``report`` as Chrome-Trace JSON; returns the path. Open
    the file in Perfetto (ui.perfetto.dev) or ``chrome://tracing``."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(to_chrome_trace(report)) + "\n")
    return path


def worker_lanes(report: RunReport) -> list[str]:
    """The distinct worker lanes the trace will contain, in first-
    appearance order (CI asserts pool runs produce >= 2)."""
    seen: list[str] = []
    for event in report.events:
        lane = str(event.get("lane", "?"))
        if lane not in seen:
            seen.append(lane)
    return seen
