"""Cost-model-driven adaptive scheduling for the worker pool.

The paper's sweeps are embarrassingly parallel but badly skewed: rows
of one structural group differ wildly in cost (a stiff OBC instance
pays ~3x the RHS evals of a settled one — the same skew the freeze
masks exploit), yet the historical ``np.array_split`` row split gives
every shard the same row *count*, so one slow shard gates the whole
group while warm pool workers idle. This module replaces that split
with a scheduling layer for the ``pool`` backend:

* **Cost model** (:class:`CostProfile`) — per-group predicted per-row
  seconds, seeded from static structure (state count, method weight)
  and refined online from the per-shard solve timings pool workers
  already ship home; persisted as a small JSON profile next to the
  trajectory cache so warm sweeps start informed.
* **Cost-balanced splitting** (:func:`balanced_parts`) — rows are
  partitioned so *predicted shard costs* equalize instead of row
  counts. Partitions stay contiguous and cover every row exactly once,
  and fixed-step methods are value-independent per row, so the result
  is bit-identical to the even split (test-enforced).
* **Oversubscription** — groups split into ``overshard x processes``
  shards drained from the existing pull queue, so fast workers
  naturally steal the tail of a skewed group.
* **Worker pinning** (:func:`pin_worker_processes`) — optional
  round-robin CPU affinity for pool workers via
  ``os.sched_setaffinity`` on Linux; a no-op elsewhere.

Bit-identity contract: fixed-step methods (``rk4`` and both SDE
methods) keep every row's arithmetic row-local and Wiener streams are
keyed per ``(seed, element, path)`` token, so *any* row partition
reproduces the canonical result exactly. The adaptive ``rkf45`` runs
one shared step sequence per shard — its results depend on shard
membership at tolerance level — so the scheduler *pins* adaptive
groups to the canonical even split (see :meth:`Scheduler.parts`);
``schedule="cost"`` and ``overshard`` then only apply where they
cannot change results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings

import numpy as np

from repro import telemetry

__all__ = [
    "ADAPTIVE_METHODS",
    "CostProfile",
    "PROFILE_FILENAME",
    "SCHEDULES",
    "Scheduler",
    "balanced_parts",
    "even_parts",
    "group_key",
    "pin_worker_processes",
    "scheduler_for",
    "static_row_cost",
]

#: Schedules accepted by ``ExecutionPlan.schedule`` / ``--schedule``.
SCHEDULES = ("even", "cost")

#: Methods whose arithmetic depends on shard membership: the adaptive
#: solvers (deterministic rkf45 family and the adaptive SDE pair alike)
#: run one shared step-control sequence per shard, so repartitioning
#: changes results at tolerance level. The scheduler pins these to the
#: canonical even split regardless of ``schedule``/``overshard``.
ADAPTIVE_METHODS = ("auto", "rkf45", "heun-adaptive", "em-adaptive")

#: File name of the persisted cost profile, created next to the disk
#: trajectory cache (or wherever ``cost_profile=`` points).
PROFILE_FILENAME = "cost_profile.json"

PROFILE_VERSION = 1

#: EWMA weight of a fresh timing observation: heavy enough that two
#: sweeps converge near the observed cost, light enough that one noisy
#: wall-clock sample cannot wreck the profile.
EWMA_ALPHA = 0.5

#: Static per-step work weights by method (relative: rkf45 evaluates
#: six stages per step, heun two drift + two diffusion, rk4 four, em
#: one of each, milstein EM plus the derivative kernel, the adaptive
#: SDE pair a Heun step plus rejections) — only the *ratios* matter,
#: they seed group ordering before any timing has been observed.
_METHOD_WEIGHT = {"rk4": 1.0, "auto": 1.5, "rkf45": 1.5, "em": 0.5,
                  "heun": 1.0, "milstein": 0.75, "heun-adaptive": 1.5,
                  "em-adaptive": 1.25}


# ----------------------------------------------------------------------
# Partitioning primitives
# ----------------------------------------------------------------------


def even_parts(n_rows: int, n_shards: int) -> list[np.ndarray]:
    """The canonical near-equal contiguous row split (the historical
    ``np.array_split``). Never emits an empty shard: the shard count
    clamps to the row count, and a split below two shards — including
    every single-row group — bypasses sharding entirely (returns
    ``[]``, the caller's run-in-process signal)."""
    n_rows = int(n_rows)
    n_shards = min(int(n_shards), n_rows)
    if n_shards < 2:
        return []
    return [part for part in np.array_split(np.arange(n_rows), n_shards)
            if len(part)]


def balanced_parts(costs, n_shards: int) -> list[np.ndarray]:
    """Contiguous partition of ``len(costs)`` rows into ``n_shards``
    nonempty parts with near-equal *predicted cost* per part.

    Cut points are the cumulative-cost quantiles, then clamped to keep
    every part nonempty — so the partition is always contiguous,
    ordered, and covers each row exactly once, which is what keeps
    fixed-step results bit-identical to :func:`even_parts` (row
    arithmetic is partition-independent; only shard boundaries move).
    Degenerate cost vectors (all zero, negative garbage) fall back to
    the even split.
    """
    costs = np.asarray(costs, dtype=float)
    n_rows = len(costs)
    n_shards = min(int(n_shards), n_rows)
    if n_shards < 2:
        return []
    costs = np.where(np.isfinite(costs), np.maximum(costs, 0.0), 0.0)
    total = float(costs.sum())
    if total <= 0.0:
        return even_parts(n_rows, n_shards)
    cum = np.cumsum(costs)
    targets = total * np.arange(1, n_shards) / n_shards
    cuts = (np.searchsorted(cum, targets, side="left") + 1).tolist()
    for index in range(len(cuts)):
        lowest = cuts[index - 1] + 1 if index else 1
        highest = n_rows - (n_shards - 1 - index)
        cuts[index] = min(max(int(cuts[index]), lowest), highest)
    bounds = [0, *cuts, n_rows]
    return [np.arange(bounds[i], bounds[i + 1])
            for i in range(n_shards)]


def static_row_cost(n_states: int, method: str | None) -> float:
    """Structural seed of the cost model: one relative unit per state
    per step, weighted by the method's stage count. Only used to rank
    groups before any timing has been observed."""
    weight = _METHOD_WEIGHT.get(method or "auto", 1.0)
    return weight * (1.0 + float(n_states))


def group_key(lead_system, method: str | None, kind: str = "ode") -> str:
    """The cost-profile key of one structural group: its structural
    signature digest plus the method and ode/sde kind — everything
    timing observations may legitimately vary with."""
    signature = repr(lead_system.structural_signature())
    digest = hashlib.sha1(signature.encode("utf-8")).hexdigest()[:16]
    return f"{kind}:{method or 'auto'}:{digest}"


# ----------------------------------------------------------------------
# Persisted cost profile
# ----------------------------------------------------------------------


class CostProfile:
    """Per-group observed solve costs, persisted as a small JSON file
    next to the trajectory cache.

    Each entry (keyed by :func:`group_key`) holds a scalar
    ``seconds_per_row`` EWMA plus an optional per-row cost vector
    refined from per-shard timings — shard timings fill their row
    ranges piecewise, so after one skewed run the profile already knows
    *which rows* were slow. A corrupt or incompatible file is discarded
    with a warning (mirroring the trajectory cache's corrupt-entry
    contract): a damaged profile must never abort — or reshape — a
    sweep beyond falling back to the even split.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._dirty = False

    @classmethod
    def load(cls, path: str | None) -> "CostProfile":
        profile = cls(path)
        if path is None or not os.path.exists(path):
            return profile
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != PROFILE_VERSION:
                raise ValueError(
                    f"profile version {payload.get('version')!r} != "
                    f"{PROFILE_VERSION}")
            entries = payload.get("groups")
            if not isinstance(entries, dict) or not all(
                    isinstance(entry, dict)
                    for entry in entries.values()):
                raise ValueError("malformed groups table")
            profile.entries = entries
        except Exception as exc:
            warnings.warn(
                f"discarding corrupt cost profile {path}: {exc}",
                RuntimeWarning, stacklevel=2)
            telemetry.add("sched.profile.corrupt")
            profile.entries = {}
        return profile

    def save(self) -> None:
        """Atomically persist the profile (write-then-rename, the same
        torn-write defense the trajectory cache uses). No-op without a
        path or without new observations."""
        if self.path is None or not self._dirty:
            return
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        payload = {"version": PROFILE_VERSION, "groups": self.entries}
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._dirty = False

    def row_costs(self, key: str | None, n_rows: int):
        """Predicted per-row seconds for a group of ``n_rows`` rows, or
        ``None`` when nothing useful has been observed. A stored vector
        of the wrong length (the group was resized between runs)
        degrades to the uniform scalar estimate."""
        entry = self.entries.get(key) if key else None
        if not entry:
            return None
        stored = entry.get("row_costs")
        if isinstance(stored, list) and len(stored) == n_rows:
            vector = np.asarray(stored, dtype=float)
            if np.all(np.isfinite(vector)) and vector.min() >= 0.0 \
                    and vector.sum() > 0.0:
                return vector
        scalar = entry.get("seconds_per_row")
        if isinstance(scalar, (int, float)) and scalar > 0.0:
            return np.full(n_rows, float(scalar))
        return None

    def observe(self, key: str, n_rows: int, shards) -> None:
        """Fold one group's per-shard timings in. ``shards`` is an
        iterable of ``(row_offset, shard_rows, seconds)``; each shard's
        mean per-row cost EWMA-updates its row range of the vector, so
        repeated skewed runs converge on the true per-row profile."""
        shards = [(int(offset), int(rows), float(seconds))
                  for offset, rows, seconds in shards
                  if rows > 0 and seconds is not None and seconds >= 0.0]
        total_rows = sum(rows for _offset, rows, _seconds in shards)
        total_seconds = sum(seconds for _o, _r, seconds in shards)
        if total_rows <= 0 or total_seconds <= 0.0:
            return
        entry = self.entries.setdefault(key, {})
        per_row = total_seconds / total_rows
        previous = entry.get("seconds_per_row")
        if isinstance(previous, (int, float)) and previous > 0.0:
            per_row = ((1.0 - EWMA_ALPHA) * float(previous)
                       + EWMA_ALPHA * per_row)
        entry["seconds_per_row"] = per_row
        stored = entry.get("row_costs")
        if isinstance(stored, list) and len(stored) == n_rows:
            vector = np.asarray(stored, dtype=float)
            if not np.all(np.isfinite(vector)) or vector.min() < 0.0:
                vector = np.full(n_rows, per_row)
        else:
            vector = np.full(n_rows, per_row)
        for offset, rows, seconds in shards:
            if 0 <= offset and offset + rows <= n_rows:
                observed = seconds / rows
                vector[offset:offset + rows] = (
                    (1.0 - EWMA_ALPHA) * vector[offset:offset + rows]
                    + EWMA_ALPHA * observed)
        entry["row_costs"] = [float(value) for value in vector]
        entry["observations"] = int(entry.get("observations", 0)) + 1
        self._dirty = True


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------


class Scheduler:
    """One plan's scheduling policy, shared by every group the
    ``pool`` backend splits: decides each group's row
    partition, ranks groups for submission (longest-predicted-first),
    and feeds shard timings back into the :class:`CostProfile`."""

    def __init__(self, schedule: str = "even", overshard: int = 1,
                 pin_workers: bool = False,
                 profile: CostProfile | None = None):
        self.schedule = schedule
        self.overshard = max(1, int(overshard))
        self.pin_workers = bool(pin_workers)
        self.profile = profile if profile is not None else CostProfile()

    @property
    def active(self) -> bool:
        """Whether this scheduler deviates from the historical default
        (even split, one shard per process, no pinning, no profile)."""
        return (self.schedule != "even" or self.overshard > 1
                or self.profile.path is not None)

    def adaptive(self, method: str | None) -> bool:
        return (method or "auto") in ADAPTIVE_METHODS

    def wants_timing(self, method: str | None) -> bool:
        """Whether shard solves should measure and report their wall
        time (profile refinement + ``sched.*`` counters). Adaptive
        groups are pinned to the canonical split, so their timings
        would refine a model nothing consumes."""
        return self.active and not self.adaptive(method)

    def parts(self, n_rows: int, processes: int, *,
              method: str | None = None,
              key: str | None = None) -> list[np.ndarray]:
        """The group's row partition. Adaptive methods get the
        canonical even split (shard membership is part of their
        arithmetic — see module docstring); fixed-step methods get
        ``overshard x processes`` shards, cut at cost quantiles when a
        profile is available under ``schedule="cost"`` and evenly
        otherwise. ``[]`` means run in-process (one row, or no pool)."""
        n_rows = int(n_rows)
        processes = int(processes)
        if processes < 2 or n_rows < 2:
            return []
        if self.adaptive(method):
            parts = even_parts(n_rows, processes)
            if parts and self.active:
                telemetry.add("sched.adaptive_pinned")
            return parts
        n_shards = processes * self.overshard
        parts: list[np.ndarray] = []
        if self.schedule == "cost":
            costs = self.profile.row_costs(key, n_rows)
            if costs is not None:
                parts = balanced_parts(costs, n_shards)
                if parts:
                    telemetry.add("sched.groups.cost")
        if not parts:
            parts = even_parts(n_rows, n_shards)
            if parts:
                telemetry.add("sched.groups.even")
        if parts:
            telemetry.add("sched.shards", len(parts))
        return parts

    def group_cost(self, key: str | None, n_rows: int, n_states: int,
                   method: str | None) -> float:
        """Predicted total cost of one group — observed per-row seconds
        when profiled, the static structural estimate otherwise (the
        two are never compared across groups of different provenance in
        a meaningful unit; ranking only needs monotonicity)."""
        costs = self.profile.row_costs(key, n_rows)
        if costs is not None:
            return float(costs.sum())
        return static_row_cost(n_states, method) * n_rows

    def observe(self, key: str, n_rows: int, shards,
                processes: int | None = None) -> None:
        """Fold one solved group's shard timings back in: refine the
        profile and emit the ``sched.*`` imbalance counters. ``shards``
        is a list of dicts with ``offset``/``rows``/``seconds`` and —
        on the pool backend — the executing ``worker`` name."""
        timed = [(shard.get("offset", 0), shard.get("rows", 0),
                  shard.get("seconds"))
                 for shard in shards if shard.get("seconds") is not None]
        if not timed:
            return
        predicted = self.profile.row_costs(key, n_rows)
        actual_total = sum(seconds for _o, _r, seconds in timed)
        telemetry.add("sched.actual_shard_seconds", float(actual_total))
        if predicted is not None:
            predicted_total = 0.0
            for offset, rows, _seconds in timed:
                predicted_total += float(
                    predicted[offset:offset + rows].sum())
            telemetry.add("sched.predicted_shard_seconds",
                          float(predicted_total))
        busy: dict[str, float] = {}
        executed: dict[str, int] = {}
        for shard in shards:
            worker = shard.get("worker")
            if worker is None or shard.get("seconds") is None:
                continue
            busy[worker] = busy.get(worker, 0.0) + shard["seconds"]
            executed[worker] = executed.get(worker, 0) + 1
        if busy:
            mean_busy = sum(busy.values()) / len(busy)
            if mean_busy > 0.0:
                telemetry.append("sched.imbalance_ratio",
                                 max(busy.values()) / mean_busy)
        if executed and processes and processes > 0:
            fair = -(-len(timed) // int(processes))  # ceil
            steals = sum(max(0, count - fair)
                         for count in executed.values())
            telemetry.add("sched.steals", steals)
        self.profile.observe(key, n_rows, timed)

    def flush(self) -> None:
        """Persist the (dirty) profile — called once at stream end."""
        self.profile.save()


def profile_path_for(plan) -> str | None:
    """Where the plan's cost profile lives: an explicit
    ``cost_profile=`` path wins, else :data:`PROFILE_FILENAME` next to
    the disk trajectory cache, else nowhere (in-memory only)."""
    explicit = getattr(plan, "cost_profile", None)
    if explicit:
        return os.fspath(explicit)
    from repro.sim.cache import resolve_cache

    store = resolve_cache(getattr(plan, "cache", None))
    directory = getattr(store, "directory", None)
    if directory:
        return os.path.join(os.fspath(directory), PROFILE_FILENAME)
    return None


def scheduler_for(plan) -> Scheduler:
    """The plan's scheduler, created lazily and memoized on the plan
    instance so every group of one stream shares one profile (and one
    flush)."""
    scheduler = plan.__dict__.get("_scheduler")
    if scheduler is None:
        schedule = getattr(plan, "schedule", "even")
        overshard = getattr(plan, "overshard", 1)
        pin = getattr(plan, "pin_workers", False)
        path = profile_path_for(plan)
        profile = CostProfile.load(path) if path else CostProfile()
        scheduler = Scheduler(schedule=schedule, overshard=overshard,
                              pin_workers=pin, profile=profile)
        plan.__dict__["_scheduler"] = scheduler
    return scheduler


def flush_plan(plan) -> None:
    """Flush the plan's scheduler if one was ever created."""
    scheduler = plan.__dict__.get("_scheduler")
    if scheduler is not None:
        scheduler.flush()


# ----------------------------------------------------------------------
# Worker pinning
# ----------------------------------------------------------------------


def pin_worker_processes(pids) -> int:
    """Round-robin the given worker PIDs across the parent's allowed
    CPUs (``os.sched_setaffinity``; Linux only — a silent no-op on
    platforms without the call). Best-effort: a worker that cannot be
    pinned (it already exited, containers restricting the syscall) is
    skipped. Returns the number of workers actually pinned."""
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover
        return 0
    try:
        cores = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - exotic os
        return 0
    if not cores:  # pragma: no cover - defensive
        return 0
    pinned = 0
    for index, pid in enumerate(pids):
        try:
            os.sched_setaffinity(pid, {cores[index % len(cores)]})
        except (OSError, ValueError):  # pragma: no cover - racy exit
            continue
        pinned += 1
    if pinned:
        telemetry.add("sched.pinned_workers", pinned)
    return pinned
