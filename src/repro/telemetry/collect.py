"""Context-local metric collection for the sim stack.

The whole layer hangs off one :class:`contextvars.ContextVar`: inside a
:func:`collect_metrics` block the var holds a :class:`Collector` and
every instrumentation call (:func:`add`, :func:`gauge`, :func:`span`,
...) records into it; outside, the var is ``None`` and each call is a
single dict-free attribute load plus an ``is None`` test before
returning. That single-check discipline is what makes the disabled path
cheap enough to leave the hooks permanently compiled into hot loops
(``solve_batch``, cache lookups, shm writes) — the bench smoke asserts
the disabled cost stays under 2% of the tline workload's wall time.

Being context-local (rather than a module global) means nested or
concurrent collections don't bleed into each other: a benchmark can
profile two back-to-back sweeps into two separate reports, and library
code never needs plumbing — it just emits.

Worker processes are the one place the ContextVar cannot reach (pool
workers are spawned long before any collection starts). Workers instead
compute their counters directly when a task is flagged for collection
and ship them home inside the existing result payload; the parent folds
them in via :func:`merge_worker`.

Counter namespaces: ``compile.*`` (per-structure template hits and
misses), ``solver.*`` (nfev, frozen rows), ``cache.*``,
``pool.*`` (shards, shm/pickle bytes, per-worker queue/busy/payload
aggregates, ``pool.shm_alloc_failed`` when a group fell back to
in-process for want of shared memory), ``shm.*``, ``stream.*`` and
``serial.*``. Per-worker busy time renders under ``workers:`` in
``repro report``.
"""

from __future__ import annotations

import contextlib
import contextvars
import time

from .report import RunReport

_COLLECTOR: contextvars.ContextVar["Collector | None"] = \
    contextvars.ContextVar("repro_telemetry_collector", default=None)


def _as_builtin(value):
    """Collapse numpy scalars (and their lists) to builtin int/float so
    every report is ``json.dumps``-able: counters fed from solver
    internals routinely arrive as ``np.int64``/``np.float64``, and
    ``np.int64`` is *not* an ``int`` subclass — ``RunReport.save`` used
    to crash on it. Duck-typed via ``.item()`` so the telemetry package
    itself never needs a numpy import."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):  # np.float64 subclasses float
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_as_builtin(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_builtin(item) for key, item in value.items()}
    item = getattr(value, "item", None)  # numpy scalars / 0-d arrays
    if callable(item):
        try:
            return _as_builtin(item())
        except (TypeError, ValueError):
            pass
    return value


class Collector:
    """Mutable accumulator behind one :func:`collect_metrics` window."""

    __slots__ = ("counters", "gauges", "workers", "roots", "events",
                 "_stack", "ops", "started", "started_monotonic")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, object] = {}
        self.workers: dict[str, dict[str, float]] = {}
        self.roots: list[dict] = []
        #: flat timestamped events (worker shard solves shipped home in
        #: pool payloads) — one timeline lane per worker in the trace
        #: export, complementing the parent's hierarchical spans.
        self.events: list[dict] = []
        self._stack: list[dict] = []
        #: instrumentation events seen — the disabled path costs
        #: ops x (per-op disabled cost), so tests hold ops flat as
        #: solver work grows.
        self.ops = 0
        self.started = time.perf_counter()
        #: Same instant on the ``time.monotonic`` clock — the clock
        #: worker processes stamp their events with (comparable across
        #: processes on Linux, unlike ``perf_counter`` guarantees), so
        #: :meth:`merge_worker` can place worker events on this
        #: window's timeline.
        self.started_monotonic = time.monotonic()

    # -- spans ---------------------------------------------------------

    def open_span(self, name: str) -> dict:
        now = time.perf_counter()
        node = {"name": name, "seconds": 0.0,
                "start": now - self.started, "children": [],
                "_t0": now}
        (self._stack[-1]["children"] if self._stack
         else self.roots).append(node)
        self._stack.append(node)
        return node

    def close_span(self, node: dict) -> None:
        node["seconds"] = time.perf_counter() - node.pop("_t0")
        # Tolerate mispaired exits (a span closed out of order drops
        # everything opened after it) rather than corrupting the tree.
        while self._stack:
            if self._stack.pop() is node:
                break

    def add_worker_events(self, lane: str, events) -> None:
        """Place worker-side monotonic-stamped events onto this
        window's timeline (start offsets relative to window open)."""
        for event in events:
            entry = {key: value for key, value in event.items()
                     if key not in ("t0",)}
            entry["lane"] = lane
            entry["start"] = max(
                0.0, float(event.get("t0", 0.0))
                - self.started_monotonic)
            entry.setdefault("name", "?")
            entry.setdefault("seconds", 0.0)
            self.events.append(entry)

    def finalize(self, report: RunReport) -> RunReport:
        for node in self._stack:  # unclosed spans (error paths)
            node["seconds"] = time.perf_counter() - node.pop("_t0")
        self._stack.clear()
        self._memory_gauges()
        report.wall_seconds = time.perf_counter() - self.started
        report.counters = _as_builtin(self.counters)
        report.gauges = _as_builtin(self.gauges)
        report.workers = _as_builtin(self.workers)
        report.spans = _as_builtin(self.roots)
        report.events = sorted(_as_builtin(self.events),
                               key=lambda event: event["start"])
        return report

    def _memory_gauges(self) -> None:
        """Peak-memory gauges recorded at window close: the process RSS
        high-water from the kernel, and the shared-memory high-water the
        shm transport tracked during the window (see
        :func:`gauge_max` calls in :mod:`repro.sim.shm`)."""
        try:
            import resource
            import sys

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is kilobytes on Linux, bytes on macOS.
            if sys.platform != "darwin":
                peak *= 1024
            self.gauges["mem.peak_rss_bytes"] = int(peak)
        except Exception:  # pragma: no cover - non-POSIX platforms
            pass
        self.gauges.setdefault("mem.shm_bytes_high_water", 0)


class _SpanHandle:
    """``with span("name"):`` — times a phase into the active tree."""

    __slots__ = ("_collector", "_node", "_name")

    def __init__(self, collector: Collector, name: str) -> None:
        self._collector = collector
        self._name = name
        self._node: dict | None = None

    def __enter__(self) -> "_SpanHandle":
        self._node = self._collector.open_span(self._name)
        return self

    def __exit__(self, *exc) -> None:
        if self._node is not None:
            self._collector.close_span(self._node)
        return None


class _NullSpan:
    """Shared do-nothing span for the disabled path (no allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Emission API — each call makes exactly one ContextVar lookup and
# returns immediately when no collection is active.
# ----------------------------------------------------------------------

def enabled() -> bool:
    """True while some :func:`collect_metrics` window is active."""
    return _COLLECTOR.get() is not None


def current() -> Collector | None:
    """The active collector, or ``None`` (for multi-step emitters that
    want to pay the ContextVar lookup once)."""
    return _COLLECTOR.get()


def add(name: str, value: float = 1) -> None:
    """Increment counter ``name`` (created at 0 on first touch)."""
    collector = _COLLECTOR.get()
    if collector is None:
        return
    collector.ops += 1
    collector.counters[name] = collector.counters.get(name, 0) + value


def gauge(name: str, value) -> None:
    """Set gauge ``name`` to a point-in-time scalar observation."""
    collector = _COLLECTOR.get()
    if collector is None:
        return
    collector.ops += 1
    collector.gauges[name] = value


def append(name: str, value) -> None:
    """Append to a list-valued gauge (e.g. chunk arrival times)."""
    collector = _COLLECTOR.get()
    if collector is None:
        return
    collector.ops += 1
    collector.gauges.setdefault(name, []).append(value)


def gauge_max(name: str, value) -> None:
    """Raise gauge ``name`` to ``value`` if it is a new high-water mark
    (used for window-local peaks, e.g. resident shm bytes)."""
    collector = _COLLECTOR.get()
    if collector is None:
        return
    collector.ops += 1
    current_value = collector.gauges.get(name)
    if current_value is None or value > current_value:
        collector.gauges[name] = value


def span(name: str):
    """A context manager timing ``name`` into the span tree; a shared
    no-op object when collection is off."""
    collector = _COLLECTOR.get()
    if collector is None:
        return _NULL_SPAN
    collector.ops += 1
    return _SpanHandle(collector, name)


def merge_worker(info: dict) -> None:
    """Fold a worker-side counter block (shipped back in a pool result
    payload) into the active collection.

    ``info`` must carry a ``"worker"`` name; every other numeric entry
    is summed into that worker's block under ``report.workers`` and,
    for the queue/busy/payload-cache metrics, into the matching global
    ``pool.*`` counters so single-number totals stay one lookup away.
    An optional ``"events"`` list (monotonic-stamped shard-solve spans)
    is rebased onto this window's timeline and lands in
    ``report.events`` — one trace lane per worker.
    """
    collector = _COLLECTOR.get()
    if collector is None:
        return
    collector.ops += 1
    name = str(info.get("worker", "?"))
    block = collector.workers.setdefault(name, {})
    for key, value in info.items():
        if key == "worker" or not isinstance(value, (int, float)):
            continue
        block[key] = block.get(key, 0) + value
    collector.add_worker_events(name, info.get("events") or ())
    counters = collector.counters
    for key, pooled in (("queue_wait_seconds", "pool.queue_wait_seconds"),
                        ("busy_seconds", "pool.worker_busy_seconds"),
                        ("payload_cache_hits", "pool.payload_cache_hits"),
                        ("payload_cache_misses",
                         "pool.payload_cache_misses")):
        if key in info:
            counters[pooled] = counters.get(pooled, 0) + info[key]


@contextlib.contextmanager
def collect_metrics(*, meta: dict | None = None,
                    into: RunReport | None = None):
    """Collect every metric emitted in the ``with`` body.

    Yields the :class:`RunReport` that will be populated — ``into`` if
    given (so callers can pre-allocate and hand the same object to
    ``run_ensemble(..., telemetry=report)``), else a fresh one. The
    report's counters/spans/gauges are filled in when the block exits;
    ``meta`` seeds its identity dict.

    Nested windows are independent: the inner window captures its own
    metrics and the outer one resumes untouched (events are *not*
    double-counted into both).
    """
    report = into if into is not None else RunReport()
    if meta:
        report.meta.update(meta)
    collector = Collector()
    token = _COLLECTOR.set(collector)
    try:
        yield report
    finally:
        _COLLECTOR.reset(token)
        collector.finalize(report)
