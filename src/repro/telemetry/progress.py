"""Live progress for streamed ensemble runs.

The streaming executor (:func:`repro.sim.plan.stream_plan`) yields one
chunk per finished group; a :class:`ProgressSink` passed alongside gets
a callback at the same cadence, which is all a live dashboard needs —
the sweep's totals are known when the plan compiles, so done/total,
instances/s, and an ETA fall out of the chunk stream itself, while the
cache hit-rate is read from the open telemetry window (if any) and the
pool-busy count from the worker-pool registry.

Two concrete sinks back ``repro ensemble --stream --progress``:

* :class:`TtyProgress` — a single line redrawn in place (``\\r``), for
  interactive terminals::

      [stream] groups 5/12  inst 320/768  412.3/s  cache 91%  busy 4  eta 0:01

* :class:`LogProgress` — the same line printed whole every few
  seconds, for logs/CI where carriage returns would smear.

:func:`auto_progress` picks between them the obvious way (dashboard
when stdout is a TTY, periodic log otherwise). Progress output goes to
**stderr** so it never contaminates piped stdout (``repro ensemble``
prints its result summary there).

The hook deliberately receives only counts — no trajectory data — so a
sink can never perturb results; with no sink attached the executor
pays nothing beyond an ``is None`` test per group.
"""

from __future__ import annotations

import sys
import time

from .collect import current


class ProgressSink:
    """Callback interface the streaming executor drives. Every method
    is a no-op here so subclasses override only what they need; the
    executor calls ``begin`` once (totals), ``advance`` after each
    finished group, and ``finish`` exactly once when the stream ends
    (also on the error path, so dashboards always clean up)."""

    def begin(self, *, groups: int, instances: int) -> None:
        """The sweep's totals, known at plan-compile time."""

    def advance(self, *, groups_done: int, instances_done: int) -> None:
        """One more group finished (``instances_done`` cumulative)."""

    def finish(self) -> None:
        """The stream is exhausted (or aborted)."""


def _fmt_eta(seconds: float) -> str:
    if seconds != seconds or seconds == float("inf"):  # NaN/inf
        return "?:??"
    seconds = max(int(seconds + 0.5), 0)
    return f"{seconds // 60}:{seconds % 60:02d}"


class _StatsSink(ProgressSink):
    """Shared machinery: turns the callback stream into one formatted
    status line. ``clock`` and ``stream`` are injectable for tests."""

    def __init__(self, stream=None, clock=time.monotonic):
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._t0 = 0.0
        self._groups = 0
        self._instances = 0

    def begin(self, *, groups: int, instances: int) -> None:
        self._groups = int(groups)
        self._instances = int(instances)
        self._t0 = self._clock()

    # -- line assembly -------------------------------------------------

    def _cache_hit_rate(self) -> float | None:
        collector = current()
        if collector is None:
            return None
        counters = collector.counters
        hits = (counters.get("cache.hits", 0)
                + counters.get("pool.payload_cache_hits", 0))
        misses = (counters.get("cache.misses", 0)
                  + counters.get("pool.payload_cache_misses", 0))
        total = hits + misses
        return (hits / total) if total else None

    def _pool_busy(self) -> int:
        # Lazy import: telemetry must stay importable without the sim
        # stack (and sim.pool itself imports telemetry).
        try:
            from repro.sim import pool
            return pool.active_tasks()
        except Exception:  # pragma: no cover - defensive
            return 0

    def _line(self, groups_done: int, instances_done: int) -> str:
        elapsed = max(self._clock() - self._t0, 1e-9)
        rate = instances_done / elapsed
        remaining = max(self._instances - instances_done, 0)
        eta = (remaining / rate) if rate > 0 else float("inf")
        parts = [
            f"[stream] groups {groups_done}/{self._groups}",
            f"inst {instances_done}/{self._instances}",
            f"{rate:.1f}/s",
        ]
        hit_rate = self._cache_hit_rate()
        if hit_rate is not None:
            parts.append(f"cache {hit_rate * 100:.0f}%")
        busy = self._pool_busy()
        if busy:
            parts.append(f"busy {busy}")
        parts.append(f"eta {_fmt_eta(eta)}")
        return "  ".join(parts)


class TtyProgress(_StatsSink):
    """Single-line dashboard redrawn in place — interactive TTYs."""

    def __init__(self, stream=None, clock=time.monotonic,
                 min_interval: float = 0.1):
        super().__init__(stream, clock)
        self._min_interval = min_interval
        self._last_draw = float("-inf")
        self._width = 0
        self._drew = False

    def advance(self, *, groups_done: int, instances_done: int) -> None:
        now = self._clock()
        final = groups_done >= self._groups
        if not final and now - self._last_draw < self._min_interval:
            return
        self._last_draw = now
        line = self._line(groups_done, instances_done)
        pad = max(self._width - len(line), 0)
        self._stream.write("\r" + line + " " * pad)
        self._stream.flush()
        self._width = max(self._width, len(line))
        self._drew = True

    def finish(self) -> None:
        if self._drew:
            self._stream.write("\n")
            self._stream.flush()


class LogProgress(_StatsSink):
    """Whole-line periodic progress — logs, CI, piped output."""

    def __init__(self, stream=None, clock=time.monotonic,
                 interval: float = 2.0):
        super().__init__(stream, clock)
        self._interval = interval
        self._last_emit = float("-inf")

    def advance(self, *, groups_done: int, instances_done: int) -> None:
        now = self._clock()
        final = groups_done >= self._groups
        if not final and now - self._last_emit < self._interval:
            return
        self._last_emit = now
        print(self._line(groups_done, instances_done),
              file=self._stream, flush=True)

    def finish(self) -> None:
        pass


def auto_progress(stream=None) -> ProgressSink:
    """The right sink for the session: the in-place dashboard when
    stdout is an interactive terminal, the periodic log otherwise
    (output itself goes to ``stream``, default stderr)."""
    try:
        interactive = sys.stdout.isatty()
    except Exception:  # pragma: no cover - closed stdout
        interactive = False
    if interactive:
        return TtyProgress(stream)
    return LogProgress(stream)
