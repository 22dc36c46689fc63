"""Unified execution-plan layer: one driver for every ensemble sweep.

The paper's evaluation workflow is one story — sweep fabrication
mismatch (§4.3) and transient noise over a compiled dynamical system —
and this module tells it through one architecture. An
:class:`ExecutionPlan` captures *what* to integrate (a ``factory(seed)``
per fabricated chip, the seed list, the time span), *how* (grid, solver
options, ``trials`` for SDE sweeps, per-instance freeze masks) and
*where* (an engine plus cache/pool policy). Its fields are the one
definition of every sweep option: :func:`repro.sim.run_ensemble`,
:func:`repro.simulate_ensemble` and ``repro ensemble`` forward their
options into a plan unchanged and funnel through :func:`execute_plan`,
so features land once and cover both the deterministic and the
stochastic path.

Each structurally compatible group is dispatched by one choice on
``plan.engine`` (:data:`ENGINES`):

* ``batch``  — the default: one vectorized solve per group
  (:func:`~repro.sim.batch_solver.solve_batch` /
  :func:`~repro.sim.sde_solver.solve_sde`), run on the worker pool when
  one is requested (``processes > 1``) and the group has at least
  :data:`DEFAULT_SHARD_MIN` integrated rows, in-process otherwise;
* ``serial`` — one solve per instance: scipy ``solve_ivp`` per seed on
  the deterministic path (fanned out over the worker pool when
  ``processes > 1``), a batch-of-one SDE solve per (chip, trial) row on
  the noisy path (the reference the batched engines are benchmarked
  against);
* ``pool``   — every group's batched solve split into per-core
  sub-batches on the **persistent zero-copy pool**
  (:mod:`repro.sim.pool`): workers are spawned once and reused across
  solves, and shard results come back through shared memory
  (:mod:`repro.sim.shm`) instead of pickle. Fixed-step methods
  (``rk4`` and the fixed-step SDE trio ``em``/``heun``/``milstein``)
  are bit-identical to the in-process solve because every instance's
  arithmetic is row-local and Wiener streams are keyed by
  ``(noise seed, element, path)`` — never by batch layout. The
  adaptive methods (rkf45 and the adaptive SDE pair) run per-shard step
  control; the pool's one row split
  (:func:`repro.sim.pool.even_parts`) keeps their results reproducible,
  and they are kept out of the cache.

The executor itself is a *streaming* generator: :func:`stream_plan`
yields one chunk per structurally compatible group as it finishes —
pool-routed groups are all submitted up front and their chunks arrive
in completion order, so spread/BER analysis can start on the
first group while the stiffest one is still integrating.
:func:`execute_plan` is the barriered form: it drains the stream and
reassembles the chunks (:func:`assemble_chunks`) into the classic
result objects, bit-identical to the pre-streaming driver.

Trajectory caching (:mod:`repro.sim.cache`) is applied uniformly in the
executor — the noisy path is keyed and replayed exactly like the
deterministic one, including pooled fixed-step SDE results
(bit-identical, hence storable); pool-split *adaptive* solves remain
uncachable because per-shard step control may differ from the
whole-group run.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.core.compiler import compile_graph
from repro.core.graph import DynamicalGraph
from repro.core.odesystem import OdeSystem
from repro.core.simulator import Trajectory, simulate
from repro.errors import SimulationError

from repro.sim import batch_codegen
from repro.sim.array_api import (array_backend_names, canonical_spec,
                                 parse_backend_spec)
from repro.sim.batch_codegen import (compile_batch, group_by_signature,
                                     surviving_diffusion)
from repro.sim.batch_solver import (BatchTrajectory, _output_grid,
                                    solve_batch)
from repro.sim.cache import (cache_lookup, cache_store,
                             cached_batch_solve, resolve_cache)
from repro.sim.sde_solver import (ADAPTIVE_SDE_METHODS, SDE_METHODS,
                                  solve_sde)

#: Methods handled natively by the batched ODE solver.
BATCH_METHODS = ("auto", "rkf45", "rk4")

#: scipy ``solve_ivp`` methods; any of them forces the serial path.
SCIPY_METHODS = ("RK23", "RK45", "DOP853", "Radau", "BDF", "LSODA")

#: Execution engines (``engine=`` / ``--engine``); see the module
#: docstring.
ENGINES = ("batch", "serial", "pool")

#: Smallest group (in integrated rows) the ``batch`` engine sends to the
#: worker pool: pool dispatch and per-shard compiles amortize only on
#: large groups.
DEFAULT_SHARD_MIN = 64


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """The stochastic half of a plan: how many transient-noise trials
    to realize per fabricated chip, and with which SDE solver.

    ``noise_seed`` is the first trial index; every (chip, trial) pair
    draws the deterministic Wiener realization keyed by the token
    ``"<chip_seed>:<noise_seed + trial>"``, so shifting ``noise_seed``
    selects a fresh, non-overlapping set of realizations for the same
    chips while a rerun replays the identical ones. ``block`` is the
    Wiener pre-draw block length; the realization does not depend on
    it.
    """

    trials: int = 8
    method: str = "heun"
    noise_seed: int = 0
    block: int = 256
    reference: bool = True

    def tokens(self, chip_seed) -> list[str]:
        """The chip's per-trial Wiener seed tokens, trial-minor order."""
        return [f"{chip_seed}:{self.noise_seed + trial}"
                for trial in range(self.trials)]


@dataclass
class ExecutionPlan:
    """Everything that determines one ensemble execution.

    The fields after ``t_span`` are the sweep options of
    :func:`~repro.sim.run_ensemble` (its ``**options``) and of
    ``repro ensemble``: this is where each one is named, defaulted,
    documented and validated (:meth:`validate`).

    :param factory: ``factory(seed) -> DynamicalGraph | OdeSystem``.
    :param seeds: mismatch seeds, one fabricated instance each.
    :param t_span: integration span ``(t0, t1)``.
    :param engine: ``batch`` (default), ``serial`` or ``pool`` (see
        :data:`ENGINES` and the module docstring). ``batch`` sends a
        group to the worker pool when ``processes > 1`` and the group
        has at least :data:`DEFAULT_SHARD_MIN` rows (chips on the ODE
        path, chips x trials on the SDE path), else runs it in-process.
    :param n_points: output grid size (ignored when ``t_eval`` is set).
    :param t_eval: explicit output grid.
    :param method: ODE method — ``auto`` (batched rkf45, a group it
        cannot integrate is demoted to serial scipy RK45),
        ``rkf45``/``rk4`` (force a batch solver), or a scipy
        ``solve_ivp`` name (:data:`SCIPY_METHODS`; forces the serial
        path for every instance). Ignored on the noisy path (see
        ``sde_method``).
    :param rtol: relative tolerance (ODE solvers, the adaptive SDE
        controller, and the freeze-mask criterion).
    :param atol: absolute tolerance, likewise.
    :param max_step: solver step cap (> 0; ``inf`` lifts it);
        ``None`` = span/64.
    :param dense: use dense-output interpolation in the batched rkf45
        (see :func:`~repro.sim.batch_solver.solve_batch`).
    :param freeze_tol: per-instance step mask tolerance (> 0) —
        converged (or, on the SDE path, diverged) instances freeze at
        their current state instead of forcing the worst-case step on
        the whole batch; ``None`` disables masking.
    :param processes: worker-pool width (>= 1). Batched groups split
        into ``processes`` contiguous near-equal shards on the
        persistent zero-copy pool; serial instances fan out one seed
        per task over the same pool. Both need a picklable factory and
        run in-process otherwise. ``None`` under ``engine="pool"``
        means the CPUs this process may run on.
    :param cache: trajectory cache — ``True`` (process-wide default
        cache), a directory path (disk backed), or a
        :class:`~repro.sim.cache.TrajectoryCache`. Repeated sweeps with
        identical structure, attributes, grid and solver options reuse
        the stored integration bit-for-bit; noisy sweeps key the
        per-(chip, trial) Wiener tokens identically.
    :param array_backend: array namespace of the batched solvers (see
        :mod:`repro.sim.array_api`): ``None``/``"numpy"`` (default,
        float64), a spec string like ``"numpy:float32"``, or an
        :class:`~repro.sim.array_api.ArrayBackend`. The serial scipy
        ODE path always runs numpy float64.
    :param trials: ``None`` (default) runs the deterministic mismatch
        sweep (an :class:`~repro.sim.ensemble.EnsembleResult`). An
        integer K >= 1 switches to the transient-noise path: every chip
        is replicated K times inside the batch, each row drawing the
        Wiener realization of ``"<chip_seed>:<noise_seed + trial>"``
        (a :class:`~repro.sim.noisy.NoisyEnsembleResult`).
    :param noise_seed: first trial index of the noisy path (``None``
        means 0) — shift it to draw fresh realizations for the same
        chips. Requires ``trials``.
    :param sde_method: SDE solver of the noisy path — ``heun``
        (default), ``em``, ``milstein``, or the adaptive pair
        ``heun-adaptive``/``em-adaptive`` (see
        :mod:`repro.sim.sde_solver`).
    :param reference: on the noisy path, also integrate each chip once
        deterministically (batched rk4 on the same grid) as its
        reliability reference.
    """

    factory: object
    seeds: list
    t_span: tuple
    engine: str = "batch"
    n_points: int = 500
    t_eval: object = None
    method: str = "auto"
    rtol: float = 1e-7
    atol: float = 1e-9
    max_step: float | None = None
    dense: bool = True
    freeze_tol: float | None = None
    processes: int | None = None
    cache: object = None
    array_backend: object = None
    trials: int | None = None
    noise_seed: int | None = None
    sde_method: str = "heun"
    reference: bool = True

    @property
    def noise(self) -> NoiseSpec | None:
        """The noisy path's :class:`NoiseSpec`, or ``None`` for a
        deterministic sweep."""
        if self.trials is None:
            return None
        return NoiseSpec(trials=self.trials, method=self.sde_method,
                         noise_seed=self.noise_seed or 0,
                         reference=self.reference)

    def array_spec(self) -> str:
        """The plan's canonical array-backend spec string
        (``"name:dtype"``) — what travels through solver options,
        worker payloads, and cache keys."""
        return canonical_spec(self.array_backend)

    def validate(self) -> None:
        """Reject malformed plans up front — before the first
        ``factory`` call — instead of failing mid-sweep or silently
        running a different sweep than the one asked for. Raises
        :class:`~repro.errors.SimulationError`."""
        if self.engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINES)}; registered array backends "
                f"(array_backend=/--array-backend): "
                f"{', '.join(array_backend_names())}")
        array_name, _ = parse_backend_spec(self.array_spec())
        if array_name not in array_backend_names():
            raise SimulationError(
                f"unknown array backend {array_name!r}; registered "
                f"array backends: {', '.join(array_backend_names())}; "
                f"engines (engine=/--engine): {', '.join(ENGINES)}")
        if self.trials is None:
            if self.noise_seed is not None:
                raise SimulationError(
                    "noise_seed was given without trials; pass "
                    "trials=K to request a transient-noise sweep")
            if self.method not in BATCH_METHODS + SCIPY_METHODS:
                raise SimulationError(
                    f"unknown method {self.method!r}; expected one of "
                    f"{', '.join(BATCH_METHODS + SCIPY_METHODS)}")
        else:
            if self.trials < 1:
                raise SimulationError(
                    f"trials must be >= 1, got {self.trials}")
            if self.sde_method not in SDE_METHODS:
                raise SimulationError(
                    f"unknown SDE method {self.sde_method!r}; "
                    f"expected one of {', '.join(SDE_METHODS)}")
        # `not x > 0` also rejects NaN.
        if self.max_step is not None and not self.max_step > 0.0:
            raise SimulationError(
                f"max_step must be > 0 (or None), got {self.max_step}")
        if self.freeze_tol is not None and not self.freeze_tol > 0.0:
            raise SimulationError(
                f"freeze_tol must be > 0 (or None), got "
                f"{self.freeze_tol}")
        if self.processes is not None and self.processes < 1:
            raise SimulationError(
                f"processes must be >= 1 (or None), got "
                f"{self.processes}")

    def run(self, progress=None):
        """Execute the plan (see :func:`execute_plan`)."""
        return execute_plan(self, progress=progress)

    def stream(self, progress=None):
        """Stream the plan (see :func:`stream_plan`)."""
        return stream_plan(self, progress=progress)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------


def _compile_target(target) -> OdeSystem:
    if isinstance(target, DynamicalGraph):
        return compile_graph(target)
    if isinstance(target, OdeSystem):
        return target
    raise SimulationError(
        f"ensemble factory must return a DynamicalGraph or OdeSystem, "
        f"got {type(target).__name__}")


def _pickled_common(*payload) -> bytes | None:
    """Serialize the group-wide head of a pool payload — factory, span,
    solver options — exactly once, returning the bytes (or ``None``
    when unpicklable, e.g. a lambda factory: callers then fall back to
    in-process execution). The bytes double as the payload shipped to
    the workers, so a sweep never pays the factory's serialization
    twice (it used to be pickled once by the pre-flight probe and again
    by the pool, per task)."""
    try:
        return pickle.dumps(payload)
    except Exception:
        return None


def _pickles(payload) -> bool:
    """Cheap probe for the small per-task remainder (seed lists, noise
    tokens). Probing up front — instead of catching the pool's errors —
    keeps genuine worker exceptions propagating to the caller instead
    of being silently retried in-process."""
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def _run_serial(factory, seeds, indices, systems, t_span, options,
                processes):
    """Serial scipy path for structurally unique instances, optionally
    fanned out one seed per task over the persistent worker pool.
    Returns {index: Trajectory}."""
    results: dict[int, Trajectory] = {}
    pending = list(indices)
    telemetry.add("serial.solves", len(pending))
    if processes and processes > 1 and len(pending) > 1:
        common = _pickled_common(factory, t_span, options, None)
        job_seeds = [seeds[i] for i in pending]
        if common is not None and _pickles(job_seeds):
            from repro.sim import pool as pool_module

            rows = pool_module.map_serial(int(processes), common,
                                          job_seeds)
            for index, (t, y) in zip(pending, rows):
                results[index] = Trajectory(t=t, y=y,
                                            system=systems[index])
            return results
    for index in pending:
        results[index] = simulate(systems[index], t_span, **options)
    return results


def _whole_group_fuse(n_rows: int, lead: OdeSystem) -> bool:
    """The fuse decision the *unsharded* batch would make. Pool
    workers must inherit it: the emitter's dense-tensor memory guard
    depends on batch size, so a shard deciding for itself could compile
    a fused RHS where the whole group would not, breaking
    pool-vs-batch bit-identity for fixed-step methods."""
    return (n_rows * lead.n_states * lead.n_states
            <= batch_codegen.FUSE_DENSE_LIMIT)


def _compile_sde_rows(factory, rows):
    """Worker-side rebuild of one SDE shard: every chip is rebuilt
    through the factory exactly once per shard and *replicated* for its
    trial rows; the Wiener realization of a row depends only on its
    token, never on the batch layout, so shard rows are bit-identical
    to the unsharded solve. ``rows`` is a list of ``(chip_key,
    chip_seed, noise_token)``; returns ``(replicated, tokens)``."""
    compiled: dict = {}
    replicated, tokens = [], []
    for chip_key, chip_seed, token in rows:
        if chip_key not in compiled:
            compiled[chip_key] = _compile_target(factory(chip_seed))
        replicated.append(compiled[chip_key])
        tokens.append(token)
    return replicated, tokens


def _sde_rows(chip_seeds, chip_keys, noise_seeds) -> list[tuple]:
    return [(chip_keys[r], chip_seeds[chip_keys[r]], noise_seeds[r])
            for r in range(len(noise_seeds))]


# ----------------------------------------------------------------------
# Group dispatch
# ----------------------------------------------------------------------


@dataclass
class GroupTask:
    """One structurally compatible group, ready to solve.

    For ODE groups ``group_systems`` holds one system per chip and
    ``noise_seeds`` is ``None``; for SDE groups ``group_systems`` holds
    the chip-major, trial-minor *replicated* batch, ``chip_keys[r]``
    names the chip (an index into ``chip_indices``) of each row, and
    ``noise_seeds[r]`` its Wiener token. ``options`` are the solver
    keyword arguments of :func:`~repro.sim.batch_solver.solve_batch` /
    :func:`~repro.sim.sde_solver.solve_sde` respectively.
    """

    plan: ExecutionPlan
    indices: list[int]
    group_systems: list[OdeSystem]
    options: dict
    noise_seeds: list[str] | None = None
    chip_keys: list[int] | None = None

    @property
    def chip_seeds(self) -> list:
        seeds = list(self.plan.seeds)
        return [seeds[i] for i in self.indices]


def _pooled(plan: ExecutionPlan, rows: int) -> bool:
    """Whether a group of ``rows`` integrated rows goes to the worker
    pool: always under ``pool``; under ``batch`` when a pool was
    requested (``processes > 1``) and the group has at least
    :data:`DEFAULT_SHARD_MIN` rows; never under ``serial``."""
    if plan.engine == "pool":
        return True
    return (plan.engine == "batch" and plan.processes is not None
            and plan.processes > 1 and rows >= DEFAULT_SHARD_MIN)


def _solve_in_process(task: GroupTask, kind: str):
    """Solve one group in this process, returning ``(BatchTrajectory,
    storable)``. ``kind`` is ``"ode"`` or ``"sde"``. Under the
    ``serial`` engine SDE groups run one batch-of-one solve per (chip,
    trial) row, each consuming the identical per-token Wiener stream
    the batched solve uses, so the rows agree bit for bit."""
    plan = task.plan
    array_backend = task.options.get("array_backend")
    if kind == "ode":
        batch = compile_batch(task.group_systems,
                              array_backend=array_backend)
        return solve_batch(batch, plan.t_span, **task.options), True
    if plan.engine != "serial":
        batch = compile_batch(task.group_systems,
                              array_backend=array_backend)
        return solve_sde(batch, plan.t_span,
                         noise_seeds=task.noise_seeds,
                         **task.options), True
    singles: dict[int, object] = {}
    rows = []
    for row, system in enumerate(task.group_systems):
        chip = task.chip_keys[row]
        if chip not in singles:
            singles[chip] = compile_batch([system],
                                          array_backend=array_backend)
        trajectory = solve_sde(singles[chip], plan.t_span,
                               noise_seeds=[task.noise_seeds[row]],
                               **task.options)
        rows.append(trajectory.y)
    return BatchTrajectory(t=trajectory.t,
                           y=np.concatenate(rows, axis=0),
                           systems=list(task.group_systems)), True


def _pool_width(plan: ExecutionPlan) -> int:
    """The plan's pool width: ``processes`` when given, else the CPUs
    this process may run on (its affinity mask, not the host's CPU
    count — a container pinned to 2 of 64 CPUs gets 2 workers)."""
    if plan.processes is not None:
        return int(plan.processes)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _submit_pool(task: GroupTask, kind: str):
    """Submit one pool-routed group (see :func:`_pooled`) to the
    persistent zero-copy pool: its rows split into ``processes`` contiguous near-equal shards
    (:func:`~repro.sim.pool.even_parts`) executed on reused workers
    (:mod:`repro.sim.pool`), with results returned through shared
    memory (:mod:`repro.sim.shm`) instead of pickle. Every shard
    inherits the whole-group fuse decision.

    Returns a :class:`~repro.sim.pool.PoolHandle`, or ``None`` when the
    group runs in-process: the engine does not route it to the pool, or
    the pool cannot be used (no rows to split, an unpicklable factory,
    or no shared memory). Fixed-step
    results are bit-identical to the in-process solve and storable;
    adaptive methods (rkf45 and the adaptive SDE pair) run per-shard
    step control, so an uncached whole-group rerun would not reproduce
    them bit-for-bit — they are kept out of the cache."""
    from repro.sim import pool as pool_module
    from repro.sim.shm import ShmBlock

    plan = task.plan
    if not _pooled(plan, len(task.group_systems)):
        return None
    method = task.options.get("method")
    if kind == "ode":
        rows = task.chip_seeds
        storable = method == "rk4"
    else:
        rows = _sde_rows(task.chip_seeds, task.chip_keys,
                         task.noise_seeds)
        storable = method not in ADAPTIVE_SDE_METHODS
    processes = _pool_width(plan)
    parts = pool_module.even_parts(len(rows), processes)
    if not parts:
        return None
    fuse = _whole_group_fuse(len(rows), task.group_systems[0])
    common = _pickled_common(plan.factory, plan.t_span, task.options,
                             fuse)
    if common is None or not _pickles(rows):
        return None
    grid = _output_grid(plan.t_span, task.options.get("n_points", 500),
                        task.options.get("t_eval"))
    worker_pool = pool_module.get_pool(processes)
    shape = (len(rows), task.group_systems[0].n_states, len(grid))
    try:
        block = ShmBlock.create(shape)
    except OSError as exc:
        # No /dev/shm, too many open files, a full shm filesystem:
        # shared memory only buys speed, so the group runs in-process
        # instead of failing the sweep.
        nbytes = int(np.prod(shape)) * np.dtype(np.float64).itemsize
        warnings.warn(
            f"shared-memory allocation of {nbytes} bytes failed "
            f"({exc}); running the group in-process",
            RuntimeWarning, stacklevel=2)
        telemetry.add("pool.shm_alloc_failed")
        return None
    handle = pool_module.PoolHandle(
        pool=worker_pool, block=block, grid=grid,
        systems=list(task.group_systems), storable=storable,
        masked=task.options.get("freeze_tol") is not None)
    offset = 0
    try:
        for part in parts:
            worker_pool.submit(handle, kind, common,
                               [rows[r] for r in part], offset)
            offset += len(part)
    except BaseException:
        handle.discard()
        raise
    return handle


def _solve_group(task: GroupTask, kind: str):
    """Solve one group synchronously wherever the engine routes it
    (pool or in-process), returning ``(BatchTrajectory, storable)``."""
    handle = _submit_pool(task, kind)
    if handle is None:
        return _solve_in_process(task, kind)
    try:
        handle.wait()
    except BaseException:
        handle.discard()
        raise
    return handle.result()


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, progress=None):
    """Compile every instance, group by structural signature, and
    integrate each group through the plan's engine (with uniform
    trajectory caching). Returns an
    :class:`~repro.sim.ensemble.EnsembleResult` for deterministic plans
    and a :class:`~repro.sim.noisy.NoisyEnsembleResult` for plans with
    ``trials``.

    This is the barriered form of :func:`stream_plan`: it drains the
    chunk stream and reassembles it, bit-identically to the historical
    monolithic driver. ``progress`` (a
    :class:`~repro.telemetry.progress.ProgressSink`) still fires per
    finished group — barriered callers get live progress too."""
    seeds = list(plan.seeds)
    plan = replace(plan, seeds=seeds)
    return assemble_chunks(stream_plan(plan, progress=progress), seeds,
                           trials=plan.trials)


def stream_plan(plan: ExecutionPlan, progress=None):
    """Execute the plan as a stream: an iterator of per-group chunks
    (:class:`~repro.sim.ensemble.EnsembleChunk` /
    :class:`~repro.sim.noisy.NoisyEnsembleChunk`), each one finished
    structurally compatible group, yielded as it completes instead of
    barriering the whole sweep.

    Pool-routed groups are all submitted up front and arrive in
    *completion* order — analysis can start on the first (fastest)
    group while the stiffest one is still integrating; in-process
    groups yield lazily in group order, which still delivers the
    first chunk after one group's integration rather than the whole
    sweep's. :func:`assemble_chunks` folds a drained stream back into
    the barriered result object. Validation errors raise here, not at
    the first ``next()``.

    ``progress`` is an optional
    :class:`~repro.telemetry.progress.ProgressSink`: it gets ``begin``
    with the sweep's totals, ``advance`` after every yielded chunk, and
    ``finish`` when the stream ends (even abandoned mid-way) — the hook
    behind ``repro ensemble --stream --progress``. It receives counts
    only, never data, so it cannot perturb results."""
    plan.validate()
    seeds = list(plan.seeds)
    # Normalize up front: a generator would be exhausted by the first
    # traversal, and pool tasks re-read plan.seeds.
    plan = replace(plan, seeds=seeds)
    return _stream(plan, seeds, progress)


def _progress_totals(plan: ExecutionPlan, systems: list) -> tuple:
    """(total chunks, total instance-rows) the stream will deliver —
    mirrors the grouping the ODE/SDE streams apply, computed only when
    a progress sink is attached."""
    groups = group_by_signature(systems)
    if plan.trials is not None:
        return len(groups), len(systems) * plan.trials
    if plan.engine != "serial" and plan.method in BATCH_METHODS:
        batched = [g for g in groups if len(g) > 1]
        n_serial = len(systems) - sum(len(g) for g in batched)
        return len(batched) + (1 if n_serial else 0), len(systems)
    return 1, len(systems)


def _stream(plan: ExecutionPlan, seeds: list, progress=None):
    with telemetry.span("plan.compile"):
        systems = [_compile_target(plan.factory(seed))
                   for seed in seeds]
    telemetry.add("plan.instances", len(systems))
    if progress is not None:
        total_chunks, total_rows = _progress_totals(plan, systems)
        progress.begin(groups=total_chunks, instances=total_rows)
    inner = (_stream_ode(plan, seeds, systems) if plan.trials is None
             else _stream_sde(plan, seeds, systems))
    start = time.monotonic()
    first = True
    chunks_done = 0
    rows_done = 0
    try:
        for chunk in inner:
            if telemetry.enabled():
                # Chunk-arrival accounting: the time-to-first-chunk
                # gauge is the streaming executor's headline number,
                # the arrival list its (monotone) completion profile.
                # The same numbers ride on the chunk itself for
                # consumers of stream_plan.
                arrival = time.monotonic() - start
                if first:
                    telemetry.gauge(
                        "stream.time_to_first_chunk_seconds", arrival)
                    first = False
                telemetry.append("stream.chunk_arrival_seconds",
                                 arrival)
                telemetry.add("stream.chunks")
                chunk.stats = {"arrival_seconds": arrival,
                               "order": chunk.order,
                               "rows": len(chunk.indices)}
            if progress is not None:
                chunks_done += 1
                rows_done += len(chunk.indices) * (plan.trials or 1)
                progress.advance(groups_done=chunks_done,
                                 instances_done=rows_done,
                                 backend=plan.engine)
            yield chunk
    finally:
        if progress is not None:
            progress.finish()


def _span_key(t_span) -> tuple[float, float]:
    return (float(t_span[0]), float(t_span[1]))


def _drive_groups(plan, tasks, store, kind, key_options, on_error):
    """The executor's scheduling core: run every :class:`GroupTask` of
    ``kind`` (``"ode"`` or ``"sde"``), yielding ``(order, task,
    BatchTrajectory)`` as groups finish.

    Cache hits yield first (they cost a key + load). Pool-routed groups
    are submitted asynchronously *up front* — workers start integrating
    immediately — and yield in completion order; everything else solves
    synchronously and lazily in group order. ``on_error(task, exc)``
    returns True to swallow a group's :class:`SimulationError` (the ODE
    path demotes the group to the serial fallback); storable results
    land in the trajectory cache exactly as the synchronous driver
    stored them. Any teardown — consumer abandoning the stream, a
    worker crash, ``KeyboardInterrupt`` — discards the in-flight
    handles, which releases their shared-memory blocks."""
    cache_kind = "batch" if kind == "ode" else "sde"
    label = "serial" if plan.engine == "serial" else "batch"
    hits, sync, runs = [], [], []
    try:
        for order, task in enumerate(tasks):
            key, hit = cache_lookup(store, task.group_systems,
                                    cache_kind, key_options(task))
            if hit is not None:
                hits.append((order, task, hit))
                continue
            handle = _submit_pool(task, kind)
            if handle is not None:
                runs.append((order, task, key, handle))
            else:
                sync.append((order, task, key))
        yield from hits
        for order, task, key in sync:
            try:
                with telemetry.span(f"group[{order}].solve:{label}"):
                    trajectory, storable = _solve_in_process(task, kind)
            except SimulationError as exc:
                if not on_error(task, exc):
                    raise
                continue
            cache_store(store, key, trajectory, storable)
            yield (order, task, trajectory)
        while runs:
            from repro.sim import pool as pool_module

            try:
                with telemetry.span("pool.wait"):
                    handle = pool_module.wait_any(
                        [run[3] for run in runs])
            except pool_module.PoolBrokenError as exc:
                # A dying worker takes every in-flight group with it.
                # Consult on_error for each — the ODE auto path demotes
                # them all to the serial fallback, so a hard crash
                # degrades the sweep instead of killing it; explicit
                # methods and the SDE path re-raise.
                pending = runs[:]
                runs.clear()
                for _order, _task, _key, broken in pending:
                    broken.discard()
                if not all(on_error(task, exc)
                           for _order, task, _key, _handle in pending):
                    raise
                break
            position = next(index for index, run in enumerate(runs)
                            if run[3] is handle)
            order, task, key, handle = runs.pop(position)
            try:
                trajectory, storable = handle.result()
            except SimulationError as exc:
                if not on_error(task, exc):
                    raise
                continue
            cache_store(store, key, trajectory, storable)
            yield (order, task, trajectory)
    except BaseException:
        for run in runs:
            run[3].discard()
        raise


def _stream_ode(plan: ExecutionPlan, seeds, systems):
    from repro.sim.ensemble import EnsembleChunk

    store = resolve_cache(plan.cache)

    batchable = plan.engine != "serial" and plan.method in BATCH_METHODS
    serial_method = "RK45" if plan.method in BATCH_METHODS \
        else plan.method
    serial_options = dict(n_points=plan.n_points, method=serial_method,
                          rtol=plan.rtol, atol=plan.atol,
                          t_eval=plan.t_eval, max_step=plan.max_step)

    serial_indices: list[int] = []
    tasks: list[GroupTask] = []
    if batchable:
        batch_method = "rkf45" if plan.method == "auto" else plan.method
        # The array backend travels as its canonical spec string — a
        # picklable token the pool workers resolve locally, and the
        # component cache keys discriminate on.
        solver_options = dict(n_points=plan.n_points,
                              method=batch_method, rtol=plan.rtol,
                              atol=plan.atol, t_eval=plan.t_eval,
                              max_step=plan.max_step, dense=plan.dense,
                              freeze_tol=plan.freeze_tol,
                              array_backend=plan.array_spec())
        for indices in group_by_signature(systems):
            if len(indices) == 1:
                # A structurally unique instance is not worth a
                # batched compile.
                serial_indices.extend(indices)
                continue
            tasks.append(GroupTask(
                plan=plan, indices=list(indices),
                group_systems=[systems[i] for i in indices],
                options=solver_options))
    else:
        serial_indices = list(range(len(systems)))

    fanout = [plan.processes]

    def on_error(task, exc):
        # A group the batch path cannot integrate (e.g. a stiff
        # outlier underflowing the rkf45 step floor) is demoted to the
        # serial scipy path rather than failing the whole ensemble —
        # unless the caller forced a batch method explicitly.
        if plan.method != "auto":
            return False
        from repro.sim.pool import PoolBrokenError

        if isinstance(exc, PoolBrokenError):
            # Whatever killed the worker (OOM, a crashing factory)
            # would kill the serial fan-out's pool workers too — finish
            # the demoted instances in-process.
            fanout[0] = None
        serial_indices.extend(task.indices)
        return True

    for order, task, trajectory in _drive_groups(
            plan, tasks, store, "ode",
            lambda task: {**task.options,
                          "t_span": _span_key(plan.t_span)},
            on_error):
        yield EnsembleChunk(order=order, indices=list(task.indices),
                            trajectories=trajectory.trajectories(),
                            batches=[trajectory],
                            groups=[list(task.indices)])

    if serial_indices:
        with telemetry.span("serial.fanout"):
            serial = _run_serial(plan.factory, seeds, serial_indices,
                                 systems, plan.t_span, serial_options,
                                 fanout[0])
        ordered = sorted(serial_indices)
        yield EnsembleChunk(order=len(tasks), indices=ordered,
                            trajectories=[serial[i] for i in ordered],
                            serial_indices=ordered)


def _group_has_noise(group_systems) -> bool:
    """Whether the group carries diffusion terms that survive
    shared-value folding (a ``noise(0)`` annotation compiles away)."""
    return bool(surviving_diffusion(group_systems))


def _stream_sde(plan: ExecutionPlan, seeds, systems):
    from repro.sim.noisy import NoisyEnsembleChunk

    noise = plan.noise
    store = resolve_cache(plan.cache)
    groups = group_by_signature(systems)

    if not any(_group_has_noise([systems[i] for i in indices])
               for indices in groups):
        raise SimulationError(
            "transient-noise trials were requested (trials="
            f"{noise.trials}) but every instance compiles to a "
            "deterministic system — no live noise() terms or ns "
            "annotations survive; drop trials=/noise_seed= or add "
            "noise sources to the design")

    # rtol/atol drive the embedded-pair controller on the adaptive SDE
    # methods and the freeze-mask criterion everywhere; they must
    # follow the plan so the same freeze_tol masks identically on both
    # halves of a mixed sweep.
    solver_options = dict(n_points=plan.n_points, method=noise.method,
                          t_eval=plan.t_eval, max_step=plan.max_step,
                          block=noise.block, rtol=plan.rtol,
                          atol=plan.atol, freeze_tol=plan.freeze_tol,
                          array_backend=plan.array_spec())
    tasks: list[GroupTask] = []
    for indices in groups:
        replicated: list[OdeSystem] = []
        noise_seeds: list[str] = []
        chip_keys: list[int] = []
        for row_base, index in enumerate(indices):
            replicated.extend([systems[index]] * noise.trials)
            noise_seeds.extend(noise.tokens(seeds[index]))
            chip_keys.extend([row_base] * noise.trials)
        tasks.append(GroupTask(plan=plan, indices=list(indices),
                               group_systems=replicated,
                               options=solver_options,
                               noise_seeds=noise_seeds,
                               chip_keys=chip_keys))

    # References are the chips' deterministic baselines: freeze masks
    # are intentionally not applied, so reliability metrics always
    # compare against the exact noise-free transient.
    reference_options = dict(n_points=plan.n_points, method="rk4",
                             rtol=plan.rtol, atol=plan.atol,
                             t_eval=plan.t_eval, max_step=plan.max_step,
                             dense=plan.dense, freeze_tol=None,
                             array_backend=plan.array_spec())

    def key_options(task):
        # `block` is excluded from the key on purpose: the Wiener
        # realization is block-size independent, so it cannot change
        # the result.
        trimmed = {k: v for k, v in task.options.items()
                   if k != "block"}
        return {**trimmed, "noise_seeds": tuple(task.noise_seeds),
                "t_span": _span_key(plan.t_span)}

    for order, task, batch in _drive_groups(
            plan, tasks, store, "sde", key_options,
            lambda task, exc: False):
        indices = task.indices
        references = None
        if noise.reference:
            group_systems = [systems[i] for i in indices]
            reference_task = GroupTask(plan=plan, indices=list(indices),
                                       group_systems=group_systems,
                                       options=reference_options)
            with telemetry.span(f"group[{order}].reference"):
                reference_batch = cached_batch_solve(
                    store, group_systems, "batch",
                    {**reference_options,
                     "t_span": _span_key(plan.t_span)},
                    lambda task=reference_task:
                    _solve_group(task, "ode"))
            references = [reference_batch.instance(row)
                          for row in range(len(indices))]
        yield NoisyEnsembleChunk(
            order=order, indices=list(indices),
            seeds=[seeds[i] for i in indices], trials=noise.trials,
            batches=[batch],
            groups=[list(range(len(indices)))],
            references=references,
            _rows={local: (0, local * noise.trials)
                   for local in range(len(indices))})


def assemble_chunks(chunks, seeds, trials: int | None = None):
    """Fold a (drained) chunk stream back into the barriered result —
    the exact :class:`~repro.sim.ensemble.EnsembleResult` /
    :class:`~repro.sim.noisy.NoisyEnsembleResult` the pre-streaming
    driver returned, independent of chunk arrival order (chunks are
    re-sorted by submission order). ``trials`` disambiguates an empty
    noisy stream; it is ignored when chunks are present."""
    from repro.sim.ensemble import EnsembleResult
    from repro.sim.noisy import NoisyEnsembleChunk, NoisyEnsembleResult

    seeds = list(seeds)
    chunks = sorted(chunks, key=lambda chunk: chunk.order)
    noisy = trials is not None or any(
        isinstance(chunk, NoisyEnsembleChunk) for chunk in chunks)
    if noisy:
        if chunks:
            trials = chunks[0].trials
        result = NoisyEnsembleResult(seeds=seeds, trials=trials or 0)
        with_references = bool(chunks) and all(
            chunk.references is not None for chunk in chunks)
        if with_references:
            result.references = [None] * len(seeds)
        for chunk in chunks:
            batch_number = len(result.batches)
            result.batches.append(chunk.batches[0])
            result.groups.append(list(chunk.indices))
            for row_base, index in enumerate(chunk.indices):
                result._rows[index] = (batch_number,
                                       row_base * result.trials)
                if with_references:
                    result.references[index] = \
                        chunk.references[row_base]
        return result

    result = EnsembleResult(trajectories=[None] * len(seeds))
    serial_indices: list[int] = []
    for chunk in chunks:
        if chunk.batches:
            result.batches.append(chunk.batches[0])
            result.groups.append(list(chunk.indices))
        else:
            serial_indices.extend(chunk.serial_indices)
        # The chunk already unpacked its per-instance views — reuse
        # them instead of materializing a second set.
        for index, trajectory in zip(chunk.indices,
                                     chunk.trajectories):
            result.trajectories[index] = trajectory
    result.serial_indices = sorted(serial_indices)
    return result
