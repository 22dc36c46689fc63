"""In-memory span recording for the traced benchmark run.

Spans are flat records ``(name, start, end, parent)`` kept in a list
while a sweep runs and turned into per-layer self times and a
schema-v2 :class:`repro.telemetry.RunReport` only when the run ends,
so recording costs two clock reads and one list append per call.

A layer's self time is its span's duration minus the part of that
interval its child spans cover. Spans whose name is not a layer
(the sweep root and wrapper spans around a public driver call) are
not attributed to any layer: their self time is the ``unattributed_s``
remainder.
"""

from __future__ import annotations

import contextlib
import time

#: Span names that are layers; every other span is unattributed.
LAYERS = ("paradigms.build", "core.compile", "codegen.signature",
          "codegen.emit", "cache.key", "cache.get", "cache.put",
          "ode.solve", "pool.wait", "plan.assemble", "puf.encode")


class Tracer:
    """Records spans in memory; nothing is written until
    :func:`to_report`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(),
                  "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int) -> None:
        """Record a span measured elsewhere (the program's own
        telemetry), clamped into its parent's interval and after its
        earlier siblings: the two clocks' readings differ by
        microseconds, and overlapping siblings would count that time
        twice."""
        outer = self.spans[parent]
        floor = max([outer["start"]]
                    + [span["end"] for span in self.spans
                       if span["parent"] == parent])
        start = min(max(start, floor), outer["end"])
        end = min(max(end, start), outer["end"])
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent})

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        members = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index]["parent"] in members:
                members.add(index)
        return sorted(members)

    def self_times(self, root: int) -> dict[int, float]:
        """Self time of every span in ``root``'s subtree."""
        children: dict[int, list[int]] = {}
        members = self.subtree(root)
        for index in members[1:]:
            children.setdefault(self.spans[index]["parent"],
                                []).append(index)
        result = {}
        for index in members:
            span = self.spans[index]
            intervals = sorted((self.spans[c]["start"],
                                self.spans[c]["end"])
                               for c in children.get(index, ()))
            covered, reach = 0.0, span["start"]
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[index] = (span["end"] - span["start"]) - covered
        return result

    def layer_seconds(self, root: int) -> dict[str, float]:
        """Per-layer self time of one sweep plus ``unattributed``."""
        totals = dict.fromkeys(LAYERS, 0.0)
        unattributed = 0.0
        for index, seconds in self.self_times(root).items():
            name = self.spans[index]["name"]
            if name in totals:
                totals[name] += seconds
            else:
                unattributed += seconds
        totals["unattributed"] = unattributed
        return totals

    def wall(self, root: int) -> float:
        span = self.spans[root]
        return span["end"] - span["start"]

    def import_program_spans(self, report, window_open: float,
                             parent: int, layer_of) -> None:
        """Copy the program's own spans out of a
        :class:`~repro.telemetry.RunReport` collected from
        ``window_open`` (a ``time.perf_counter`` reading) on.
        ``layer_of(name)`` names the layer a program span belongs to,
        or ``None`` to look at its children instead."""
        def walk(nodes):
            for node in nodes:
                layer = layer_of(node["name"])
                if layer is None:
                    walk(node.get("children", []))
                    continue
                start = window_open + node["start"]
                self.add(layer, start, start + node["seconds"], parent)

        walk(report.spans)


def to_report(tracer: Tracer, roots: list[int], meta: dict,
              counters: dict, events: list | None = None):
    """The traced sweeps as a schema-v2 ``RunReport``: one root span
    per sweep, span starts relative to the first sweep's start, and
    ``counters`` holding the per-layer metrics. ``events`` are worker
    events whose ``start`` is a ``time.perf_counter`` reading.
    ``repro report`` renders the result; ``repro report
    --export-trace`` turns it into a Perfetto trace."""
    from repro.telemetry import RunReport

    origin = tracer.spans[roots[0]]["start"] if roots else 0.0
    nodes = {}
    forest = []
    for root in roots:
        for index in tracer.subtree(root):
            span = tracer.spans[index]
            node = {"name": span["name"],
                    "seconds": span["end"] - span["start"],
                    "start": span["start"] - origin, "children": []}
            nodes[index] = node
            if index == root:
                forest.append(node)
            else:
                nodes[span["parent"]]["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start"])
    return RunReport(meta=dict(meta),
                     wall_seconds=sum(tracer.wall(r) for r in roots),
                     counters=dict(counters), spans=forest,
                     events=[{**event, "start": event["start"] - origin}
                             for event in events or ()])
