"""Persistent zero-copy worker pool: the engine's one process model.

Every multi-process solve in the engine runs here: a pool-routed
group — batched ODE or SDE rows, or per-row scipy solves — splits into
per-core shards, each solved by :func:`repro.sim.plan.solve_rows`. Two
per-solve overheads the paper's large-scale mismatch/noise sweeps
could not amortize are gone by construction:

* **Persistent workers** — :class:`WorkerPool` spawns its processes
  once and reuses them across solves (and across sweeps inside one
  session), instead of spawning and tearing down a pool per group.
  Workers keep a per-process cache of unpickled shared payloads, and
  the batch-codegen kernel cache (:mod:`repro.sim.batch_codegen`)
  means a structural group's RHS source is compiled at most once per
  worker no matter how many shards or reruns it serves.
* **Shared-memory results** — every task carries a tiny
  :class:`~repro.sim.shm.ShmBlock` header; the worker integrates its
  shard and stores the rows straight into the shared tensor. Only a
  small metadata dict (nfev, freeze mask) rides back on the result
  queue, so ``(n_instances, n_points, n_states)``-scale arrays never
  pass through pickle.

The parent-side unit of work is a :class:`PoolHandle`: one group,
split into per-worker shard tasks, all writing disjoint row
slices of one shared block. Handles complete asynchronously —
:func:`wait_any` is what lets the plan layer's streaming executor yield
finished groups while the stiffest group is still integrating.

Failure contract: an exception inside a task travels back pickled and
re-raises in the parent (so the plan layer's demotion of a failed
dopri5 group keeps working); a *dying* worker (hard crash,
``os._exit``) breaks the whole pool — it is torn down, evicted from
the registry, counted in ``pool.breaks``, and :class:`PoolBrokenError`
raised; the plan layer then re-runs the lost groups in-process, and
the next :func:`get_pool` call spawns a fresh pool, counted in
``pool.respawns``. Every path discards the group's shared block, so
no ``/dev/shm`` segment outlives its sweep.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import pickle
import queue as queue_module
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import SimulationError

from repro.sim import shm as shm_module
from repro.sim.batch_solver import BatchTrajectory


class PoolBrokenError(SimulationError):
    """A pool worker died without reporting a result. The pool has been
    torn down; the next :func:`get_pool` call starts a fresh one."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass
class ShardTask:
    """One shard of a group, as shipped to a worker.

    ``common`` is the pickle of the group-wide ``(factory, t_span,
    options)`` tuple — serialized once per group and cached
    per-worker, so the factory's (possibly large) attribute payload is
    not re-pickled for every shard. ``rows`` is the shard's work list
    of ``(chip_key, chip_seed, token)`` triples (``None`` tokens on ODE
    shards). ``header``/``row_offset`` name the shared block and the
    shard's slice of it.
    """

    task_id: int
    kind: str
    common: bytes
    rows: list
    header: tuple
    row_offset: int
    #: Telemetry flag: when True the worker measures queue wait, busy
    #: time, and payload-cache behavior and ships them back inside the
    #: result meta. Deliberately *not* part of ``common`` (that blob is
    #: the payload-cache key) and never read by the solve itself, so
    #: collection cannot perturb results.
    collect: bool = False
    #: ``time.monotonic()`` at submit (when ``collect``) — monotonic is
    #: comparable across processes on Linux, unlike ``perf_counter``,
    #: so the worker can compute its queue wait from it.
    submitted_at: float = 0.0


#: Per-worker cache of unpickled ``common`` payloads, keyed by content
#: hash: the shards of one group (and of every rerun of the same sweep)
#: deserialize the factory exactly once per worker.
_COMMON_CACHE: dict[bytes, tuple] = {}
_COMMON_CACHE_MAX = 32


def _load_common(blob: bytes) -> tuple[tuple, bool]:
    """The unpickled common payload plus whether it was a cache hit."""
    key = hashlib.sha1(blob).digest()
    hit = _COMMON_CACHE.get(key)
    if hit is not None:
        return hit, True
    hit = pickle.loads(blob)
    if len(_COMMON_CACHE) >= _COMMON_CACHE_MAX:
        _COMMON_CACHE.clear()
    _COMMON_CACHE[key] = hit
    return hit, False


def _run_shard(task: ShardTask) -> dict:
    """Run one shard: rebuild its rows through the factory and solve
    them with :func:`repro.sim.plan.solve_rows` — the call the parent
    makes when it re-runs a group of a dead pool in-process — storing
    the rows into the shared block."""
    # Lazy import: plan.py imports this module inside functions only,
    # so importing it here (in the worker) is cycle-free.
    from repro.sim.plan import _compile_rows, solve_rows

    started = time.monotonic() if task.collect else 0.0
    wiener_seconds = 0.0
    factory_common, payload_hit = _load_common(task.common)
    factory, t_span, options = factory_common
    systems, tokens = _compile_rows(factory, task.rows)
    if task.kind == "ode":
        tokens = None
    # An SDE solve's own counters land in a worker-local window; its
    # Wiener seconds ride home with the shard's block.
    window = (telemetry.collect_metrics()
              if task.collect and tokens is not None
              else contextlib.nullcontext())
    with window as report:
        trajectory = solve_rows(systems, tokens, t_span, options)
    if report is not None:
        wiener_seconds = report.counter("sde.wiener_seconds")
    block = shm_module.ShmBlock.attach(task.header)
    try:
        block.write_rows(task.row_offset, trajectory.y)
    finally:
        block.close()
    meta = {
        "n_rows": trajectory.y.shape[0],
        "nfev": trajectory.nfev,
        "frozen": None if trajectory.frozen is None
        else np.asarray(trajectory.frozen, dtype=bool),
    }
    if task.collect:
        # Workers have no ContextVar collector (they outlive any single
        # collection window), so counters are computed directly and
        # ride home in the meta dict; the parent folds them in via
        # telemetry.merge_worker when the handle resolves.
        import multiprocessing

        busy = time.monotonic() - started
        meta["telemetry"] = {
            "worker": multiprocessing.current_process().name,
            "shards": 1,
            "rows": meta["n_rows"],
            "nfev": meta["nfev"] or 0,
            "queue_wait_seconds": max(0.0,
                                      started - task.submitted_at),
            "busy_seconds": busy,
            "wiener_seconds": wiener_seconds,
            "payload_cache_hits": int(payload_hit),
            "payload_cache_misses": int(not payload_hit),
            # Timestamped span for the trace timeline: ``t0`` is the
            # worker's monotonic clock at shard start, which the parent
            # rebases onto the collection window (monotonic is the one
            # clock comparable across processes on Linux).
            "events": [{"name": f"shard.solve:{task.kind}",
                        "t0": started, "seconds": busy,
                        "rows": meta["n_rows"]}],
        }
    return meta


def _encode_error(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(SimulationError(
            f"pool worker failed with unpicklable "
            f"{type(exc).__name__}: {exc}"))


def _decode_error(blob: bytes) -> BaseException:
    try:
        return pickle.loads(blob)
    except Exception:  # pragma: no cover - defensive
        return SimulationError("pool worker failed (undecodable error)")


def _worker_main(tasks, results):  # pragma: no cover - subprocess body
    """Worker loop: runs until the ``None`` sentinel. Exceptions —
    including solver ``SimulationError``s — are reported, never fatal,
    so one stiff shard cannot take the pool down."""
    while True:
        task = tasks.get()
        if task is None:
            break
        try:
            meta = _run_shard(task)
        except BaseException as exc:  # noqa: BLE001 - must stay alive
            results.put((task.task_id, False, _encode_error(exc)))
        else:
            results.put((task.task_id, True, meta))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class PoolHandle:
    """Parent-side state of one in-flight group of tasks.

    Tracks the group's pending task ids, accumulates the small per-task
    metadata, and owns the group's shared block until :meth:`result`
    (success) or :meth:`discard` (any failure path) releases it.
    """

    pool: "WorkerPool"
    block: shm_module.ShmBlock
    grid: np.ndarray | None = None
    systems: list = field(default_factory=list)
    storable: bool = False
    masked: bool = False
    pending: set = field(default_factory=set)
    offsets: list = field(default_factory=list)
    metas: dict = field(default_factory=dict)
    error: BaseException | None = None

    @property
    def done(self) -> bool:
        return not self.pending

    def _complete(self, task_id: int, ok: bool, payload) -> None:
        self.pending.discard(task_id)
        if ok:
            self.metas[task_id] = payload
        elif self.error is None:
            self.error = _decode_error(payload)

    def result(self):
        """The group's ``(BatchTrajectory, storable)`` — call when
        :attr:`done`. Raises the first shard error (after releasing the
        block) so callers treat pool groups like any other solve."""
        if self.pending:
            raise SimulationError("pool group is still running")
        if self.error is not None:
            self.discard()
            raise self.error
        y = self.block.read_copy()
        self.discard()
        nfev = sum(meta["nfev"] or 0 for meta in self.metas.values())
        if telemetry.enabled():
            telemetry.add("pool.shards", len(self.metas))
            telemetry.add("pool.shm_bytes_transferred", y.nbytes)
            telemetry.add("pool.pickle_bytes_avoided", y.nbytes)
            telemetry.add("solver.nfev", nfev)
            self._merge_workers()
        frozen = None
        if self.masked:
            frozen = np.zeros(y.shape[0], dtype=bool)
            for task_id, offset in self.offsets:
                part = self.metas[task_id]["frozen"]
                if part is not None:
                    frozen[offset:offset + len(part)] = part
            telemetry.add("solver.frozen_rows", int(frozen.sum()))
        return BatchTrajectory(t=self.grid, y=y,
                               systems=list(self.systems),
                               frozen=frozen, nfev=nfev), self.storable

    def _merge_workers(self) -> None:
        for meta in self.metas.values():
            info = meta.get("telemetry")
            if info is not None:
                telemetry.merge_worker(info)

    def discard(self) -> None:
        """Release the shared block and forget pending tasks
        (idempotent) — the single cleanup path for success, shard
        errors, pool breakage, and ``KeyboardInterrupt`` alike."""
        for task_id in self.pending:
            self.pool._handles.pop(task_id, None)
        self.pending.clear()
        self.block.discard()


class WorkerPool:
    """A fixed set of persistent worker processes plus task/result
    queues. Spawned once (see :func:`get_pool`) and reused across
    solves; submitting is cheap, results route back to their
    :class:`PoolHandle` by task id."""

    def __init__(self, processes: int):
        import multiprocessing

        context = multiprocessing.get_context()
        self.processes = int(processes)
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._handles: dict[int, PoolHandle] = {}
        self._next_task_id = 0
        self.broken = False
        self._workers = [
            context.Process(target=_worker_main,
                            args=(self._tasks, self._results),
                            daemon=True, name=f"ark-pool-{index}")
            for index in range(self.processes)]
        for worker in self._workers:
            worker.start()

    def submit(self, handle: PoolHandle, kind: str, common: bytes,
               rows: list, row_offset: int) -> int:
        """Queue one shard. Inside a telemetry window the worker also
        measures its queue wait and busy time (collection never
        perturbs the solve)."""
        if self.broken:
            raise PoolBrokenError(
                "worker pool is broken; acquire a fresh one with "
                "get_pool()")
        task_id = self._next_task_id
        self._next_task_id += 1
        handle.pending.add(task_id)
        handle.offsets.append((task_id, row_offset))
        self._handles[task_id] = handle
        collect = telemetry.enabled()
        self._tasks.put(ShardTask(task_id=task_id, kind=kind,
                                  common=common, rows=rows,
                                  header=handle.block.header,
                                  row_offset=row_offset,
                                  collect=collect,
                                  submitted_at=time.monotonic()
                                  if collect else 0.0))
        return task_id

    def drain_one(self) -> PoolHandle:
        """Route the next result to its handle and return that handle.

        Event-driven: waits on the result queue's pipe *and* every
        worker's death sentinel in one ``multiprocessing.connection.
        wait`` call, so the parent wakes the moment a result (or a
        crash) lands instead of paying the historical up-to-100 ms
        timeout poll per chunk. A worker that vanished with tasks
        outstanding breaks the pool (every in-flight group is
        unrecoverable — its shard may have died mid-write)."""
        while True:
            try:
                task_id, ok, payload = self._results.get_nowait()
            except queue_module.Empty:
                if not self._wait_for_result():
                    self._break()
                    raise PoolBrokenError(
                        "a pool worker died without reporting a "
                        "result; the pool was torn down") from None
                continue
            handle = self._handles.pop(task_id, None)
            if handle is None:
                continue  # result of a discarded (cancelled) group
            handle._complete(task_id, ok, payload)
            return handle

    def _wait_for_result(self) -> bool:
        """Block until the result queue (probably) has data. ``False``
        means a worker died with nothing left to drain — the caller
        breaks the pool."""
        from multiprocessing import connection

        reader = getattr(self._results, "_reader", None)
        if reader is None:  # pragma: no cover - exotic queue impl
            # No pipe to select on: fall back to the historical
            # bounded sleep + liveness check.
            time.sleep(0.05)
            return all(worker.is_alive() for worker in self._workers)
        sentinels = [worker.sentinel for worker in self._workers]
        ready = connection.wait([reader, *sentinels])
        if reader in ready:
            return True
        # Only death sentinels fired. The dead worker's queue feeder may
        # still be flushing a final result it managed to put before
        # exiting — give the pipe one bounded chance.
        if reader.poll(0.1):
            return True
        return all(worker.is_alive() for worker in self._workers)

    def _break(self) -> None:
        if not self.broken:
            telemetry.add("pool.breaks")
        self.broken = True
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for key, pool in list(_POOLS.items()):
            if pool is self:
                del _POOLS[key]
                _BROKEN_WIDTHS.add(key)

    def close(self) -> None:
        """Orderly shutdown: sentinel every worker, then join."""
        if self.broken:
            return
        self.broken = True
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=2.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
        for key, pool in list(_POOLS.items()):
            if pool is self:
                del _POOLS[key]


def even_parts(n_rows: int, n_shards: int) -> list[np.ndarray]:
    """The pool's one row split: near-equal contiguous shards (the
    ``np.array_split`` of the row range). Never emits an empty shard:
    the shard count clamps to the row count, and a split below two
    shards — including every single-row group — bypasses sharding
    entirely (returns ``[]``, the caller's run-in-process signal)."""
    n_rows = int(n_rows)
    n_shards = min(int(n_shards), n_rows)
    if n_shards < 2:
        return []
    return np.array_split(np.arange(n_rows), n_shards)


def wait_any(handles: list[PoolHandle]) -> PoolHandle:
    """Block until at least one of ``handles`` is complete and return
    it — the streaming executor's yield-as-workers-finish primitive."""
    while True:
        for handle in handles:
            if handle.done:
                return handle
        handles[0].pool.drain_one()


# ----------------------------------------------------------------------
# Pool registry (spawn once, reuse across solves)
# ----------------------------------------------------------------------

_POOLS: dict[int, WorkerPool] = {}

#: Widths whose pool broke and has not been replaced yet: the next
#: :func:`get_pool` of such a width is a respawn.
_BROKEN_WIDTHS: set[int] = set()


def active_tasks() -> int:
    """Shard tasks currently in flight across every registered pool —
    the live-progress dashboard's "workers busy" signal (an in-flight
    task is either executing on a worker or queued at one)."""
    return sum(len(pool._handles) for pool in _POOLS.values())


def get_pool(processes: int) -> WorkerPool:
    """The process-wide persistent pool of the given width, spawning it
    on first use (or after breakage). Reuse across solves is the point:
    repeated sweeps skip both worker spawn and — through the per-worker
    caches — payload deserialization and RHS source compilation.

    Pools of *other* widths are retired when they are idle, so a
    session that sweeps with varying ``processes`` values does not
    accumulate resident workers; an idle-width pool that is still
    wanted simply respawns on its next use (paying one cold start).
    :func:`shutdown_pools` releases everything explicitly."""
    processes = int(processes)
    for width, other in list(_POOLS.items()):
        # A pool with registered handles has groups in flight (e.g. an
        # interleaved stream of a different width) — leave it alone.
        if width != processes and not other._handles:
            other.close()
    pool = _POOLS.get(processes)
    if pool is None or pool.broken:
        if processes in _BROKEN_WIDTHS:
            _BROKEN_WIDTHS.discard(processes)
            telemetry.add("pool.respawns")
        pool = WorkerPool(processes)
        _POOLS[processes] = pool
    return pool


def shutdown_pools() -> None:
    """Close every registered pool (atexit hook; also used by tests).

    After the workers are gone, any surviving parent-owned shared-
    memory segment is by definition leaked — each group's block should
    have been released when its handle resolved or was discarded — so
    the shutdown doubles as the leak check: a ``ResourceWarning`` names
    and sizes every survivor."""
    had_pools = bool(_POOLS)
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()
    _BROKEN_WIDTHS.clear()
    if had_pools:
        shm_module.warn_leaked_blocks("pool shutdown")


atexit.register(shutdown_pools)
