"""Unified execution-plan layer: one driver for every ensemble sweep.

The paper's evaluation workflow is one story — sweep fabrication
mismatch (§4.3) and transient noise over a compiled dynamical system —
and this module tells it through one sweep path. An
:class:`ExecutionPlan` captures *what* to integrate (a ``factory(seed)``
per fabricated chip, the seed list, the time span), *how* (grid, solver
options, ``trials`` for transient noise, per-instance freeze masks) and
*where* (pool width and cache). Its fields are the one definition of
every sweep option: :func:`repro.sim.run_ensemble` and ``repro
ensemble`` forward their options into a plan unchanged and funnel
through :func:`execute_plan`.

A deterministic sweep is a noisy sweep with one trial and no Wiener
source, so the path has one of each part:

* **one row expansion** (:func:`_expand`) — chips grouped by
  structural signature, every group (a structurally unique chip
  included) expanded to chip-major, trial-minor rows (a
  :class:`GroupTask`) and solved by :func:`solve_rows`: one scipy
  ``solve_ivp`` per row under a scipy method, else one batched
  :func:`~repro.sim.batch_solver.solve_batch` or
  :func:`~repro.sim.sde_solver.solve_sde` call. A noisy sweep also
  integrates each chip's deterministic reference;
* **one result type** — :class:`~repro.sim.ensemble.EnsembleResult`,
  indexed by (chip, trial), streamed in
  :class:`~repro.sim.ensemble.EnsembleChunk` slices, one per group;
* **one recovery rule** — a group whose pool died re-runs in-process
  over the pool's own slices (:func:`_drive_groups`, counted in
  ``plan.rerun_rows``), bit-identical to the pooled run by
  construction; only batched dopri5 that itself raises under the
  deterministic ``auto`` method is demoted: the group re-solves
  in-process with scipy RK45 (``plan.demoted_rows``).

The sweep's own inputs choose each group's method and route; there is
no route option:

* the method is the plan's ``method``, except that ``auto`` is batched
  dopri5 for a group of two or more chips and scipy RK45 for a
  structurally unique one (:func:`_ode_method`);
* a group runs on the **persistent zero-copy pool**
  (:mod:`repro.sim.pool`) if and only if ``processes > 1`` and it has
  at least :data:`DEFAULT_SHARD_MIN` integrated rows, in-process
  otherwise. The pool splits the group's rows into ``processes``
  contiguous near-equal shards (:func:`repro.sim.pool.even_parts`) on
  reused workers, and the shards come back through shared memory
  (:mod:`repro.sim.shm`). Scipy and fixed-step methods (``rk4`` and
  ``heun``) are bit-identical to the in-process solve because every
  instance's arithmetic is row-local and Wiener streams are keyed by
  ``(noise seed, element, path)``, never by batch layout. The adaptive
  batched methods (dopri5 and ``heun-adaptive``) run per-shard step
  control; the one row split keeps their results reproducible, and
  they are kept out of the cache.

The executor itself is a *streaming* generator: :func:`stream_plan`
yields one chunk per structurally compatible group as it finishes —
pool-routed groups are all submitted up front and their chunks arrive
in completion order, so spread/BER analysis can start on the
first group while the stiffest one is still integrating.
:func:`execute_plan` is the barriered form: it drains the stream and
reassembles the chunks (:func:`assemble_chunks`) into the result,
bit-identical to the pre-streaming driver.

Trajectory caching (:mod:`repro.sim.cache`) is applied uniformly in the
executor — every group is keyed by its rows and solver options, the
method included; a noisy group adds its per-row Wiener tokens. Pooled
scipy and fixed-step results are bit-identical, hence storable;
pool-split *adaptive* solves remain uncachable because per-shard step
control may differ from the whole-group run.
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.core.compiler import compile_graph
from repro.core.graph import DynamicalGraph
from repro.core.odesystem import OdeSystem
from repro.core.simulator import simulate
from repro.errors import SimulationError

from repro.sim.batch_codegen import (array_dtype, canonical_spec,
                                     compile_batch, group_by_signature,
                                     surviving_diffusion)
from repro.sim.batch_solver import (BatchTrajectory, _output_grid,
                                    solve_batch)
from repro.sim.cache import resolve_cache
from repro.sim.sde_solver import SDE_METHODS, solve_sde

#: Methods handled natively by the batched ODE solver.
BATCH_METHODS = ("auto", "dopri5", "rk4")

#: scipy ``solve_ivp`` methods, solved one row at a time.
SCIPY_METHODS = ("RK23", "RK45", "DOP853", "Radau", "BDF", "LSODA")

#: Smallest group (in integrated rows) that goes to the worker pool
#: when ``processes > 1``: pool dispatch and per-shard compiles
#: amortize only on large groups.
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
    :param n_points: output grid size (ignored when ``t_eval`` is set).
    :param t_eval: explicit output grid: at least two strictly
        increasing points inside ``t_span``.
    :param method: ODE method — ``auto`` (batched dopri5; scipy RK45
        for a structurally unique instance and for a group dopri5
        cannot integrate), ``dopri5``/``rk4`` (a batch solver for every
        group, a one-row group included), or a scipy ``solve_ivp``
        name (:data:`SCIPY_METHODS`; one solve per instance). Ignored
        on a noisy sweep (see ``sde_method``).
    :param rtol: relative tolerance (ODE solvers, the adaptive SDE
        controller, and the freeze-mask criterion).
    :param atol: absolute tolerance, likewise.
    :param max_step: solver step cap (> 0; ``inf`` lifts it);
        ``None`` = span/64.
    :param freeze_tol: per-instance step mask tolerance (> 0) —
        converged (or, on the SDE path, diverged) instances freeze at
        their current state instead of forcing the worst-case step on
        the whole batch; ``None`` disables masking.
    :param processes: worker-pool width (>= 1; ``None`` or 1 runs
        in-process). With ``processes > 1`` a group of at least
        :data:`DEFAULT_SHARD_MIN` rows (chips on the ODE path, chips x
        trials on the SDE path) splits into ``processes`` contiguous
        near-equal shards on the persistent zero-copy pool. That needs
        a picklable factory; the group runs in-process otherwise.
    :param cache: trajectory cache — ``True`` (process-wide default
        cache), a directory path (disk backed), or a
        :class:`~repro.sim.cache.TrajectoryCache`. Repeated sweeps with
        identical structure, attributes, grid and solver options reuse
        the stored integration bit-for-bit; noisy sweeps key the
        per-(chip, trial) Wiener tokens identically.
    :param array_backend: precision of the batched solvers:
        ``None``/``"numpy"`` (default, float64), ``"numpy:float64"`` or
        ``"numpy:float32"`` (see
        :func:`~repro.sim.batch_codegen.array_dtype`). Scipy methods
        always run float64.
    :param trials: ``None`` (default) runs the deterministic mismatch
        sweep, one row per chip. An integer K >= 1 adds transient
        noise: every chip is replicated K times inside the batch, each
        row drawing the Wiener realization of
        ``"<chip_seed>:<noise_seed + trial>"``. Either way the result
        is an :class:`~repro.sim.ensemble.EnsembleResult` indexed by
        (chip, trial).
    :param noise_seed: first trial index of a noisy sweep (``None``
        means 0) — shift it to draw fresh realizations for the same
        chips. Requires ``trials``.
    :param sde_method: SDE solver of a noisy sweep — ``heun``
        (default) or its adaptive form ``heun-adaptive`` (see
        :mod:`repro.sim.sde_solver`).
    :param reference: on a noisy sweep, also integrate each chip once
        deterministically (batched rk4 on the same grid) as its
        reliability reference.
    """

    factory: object
    seeds: list
    t_span: tuple
    n_points: int = 500
    t_eval: object = None
    method: str = "auto"
    rtol: float = 1e-7
    atol: float = 1e-9
    max_step: float | None = None
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
        """The plan's canonical ``array_backend`` spelling
        (``"numpy:<dtype>"``) — what travels through solver options,
        worker payloads, and cache keys."""
        return canonical_spec(self.array_backend)

    def validate(self) -> None:
        """Reject malformed plans up front — before the first
        ``factory`` call — instead of failing mid-sweep or silently
        running a different sweep than the one asked for. Raises
        :class:`~repro.errors.SimulationError`."""
        _output_grid(self.t_span, self.n_points, self.t_eval)
        array_dtype(self.array_backend)
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


def _pool_payload(common: tuple, rows) -> bytes | None:
    """Pickle the group-wide head of a pool payload — factory, span,
    solver options — exactly once, returning the bytes shipped to the
    workers, so a sweep never pays the factory's serialization twice.
    ``None`` when it or the small per-task remainder ``rows`` (seeds,
    noise tokens) does not pickle, e.g. a lambda factory: the caller
    then runs in-process. Probing ``rows`` up front — instead of
    catching the pool's errors — keeps genuine worker exceptions
    propagating to the caller instead of being silently retried
    in-process."""
    try:
        payload = pickle.dumps(common)
        pickle.dumps(rows)
    except Exception:
        return None
    return payload


def _compile_rows(factory, rows):
    """Worker-side rebuild of one shard: every chip is rebuilt through
    the factory exactly once per shard and *replicated* for its trial
    rows; the Wiener realization of a row depends only on its token,
    never on the batch layout. ``rows`` is a list of ``(chip_key,
    chip_seed, noise_token)``; returns ``(systems, tokens)``."""
    compiled: dict = {}
    systems, tokens = [], []
    for chip_key, chip_seed, token in rows:
        if chip_key not in compiled:
            compiled[chip_key] = _compile_target(factory(chip_seed))
        systems.append(compiled[chip_key])
        tokens.append(token)
    return systems, tokens


def solve_rows(systems, tokens, t_span, options):
    """The solve of one group or pool shard. Under a scipy method every
    row is its own :func:`~repro.core.simulator.simulate` call, stacked
    into one :class:`~repro.sim.batch_solver.BatchTrajectory`. Else the
    rows compile into one RHS and integrate together — with
    :func:`~repro.sim.batch_solver.solve_batch` when ``tokens`` is
    ``None`` (a deterministic sweep), else with
    :func:`~repro.sim.sde_solver.solve_sde`, row ``r`` drawing the
    Wiener realization of ``tokens[r]``.

    Pool workers solve their shard through it, and so does the
    in-process re-run of a group whose pool died
    (:func:`_drive_groups`), so the two agree bit for bit by
    construction."""
    if options["method"] in SCIPY_METHODS:
        scipy = {name: options[name] for name in (
            "n_points", "t_eval", "rtol", "atol", "max_step", "method")}
        rows = [simulate(system, t_span, **scipy) for system in systems]
        nfev = sum(row.nfev for row in rows)
        telemetry.add("solver.nfev", nfev)
        return BatchTrajectory(t=rows[0].t,
                               y=np.stack([row.y for row in rows]),
                               systems=list(systems), nfev=nfev)
    batch = compile_batch(systems,
                          array_backend=options.get("array_backend"))
    if tokens is None:
        return solve_batch(batch, t_span, **options)
    return solve_sde(batch, t_span, noise_seeds=tokens, **options)


# ----------------------------------------------------------------------
# Group dispatch
# ----------------------------------------------------------------------


@dataclass
class GroupTask:
    """One structurally compatible group, ready to solve.

    ``systems`` holds one compiled system per chip (``indices`` into
    the plan's seeds). The group integrates them expanded to
    chip-major, trial-minor rows: ``trials`` rows per chip, row ``r``
    drawing the Wiener realization of ``tokens[r]``. A deterministic
    group is the one-trial case without tokens. ``options`` are the
    solver keyword arguments of :func:`solve_rows`.
    """

    plan: ExecutionPlan
    indices: list[int]
    systems: list[OdeSystem]
    options: dict
    tokens: list[str] | None = None

    @property
    def trials(self) -> int:
        return len(self.tokens) // len(self.indices) if self.tokens else 1

    @property
    def n_rows(self) -> int:
        return len(self.indices) * self.trials

    @property
    def row_systems(self) -> list[OdeSystem]:
        return [system for system in self.systems
                for _ in range(self.trials)]

    def solve(self, parts):
        """Solve the group as one :func:`solve_rows` call per slice of
        its rows (``parts``, row-index lists), stacked in row order.
        One slice is the whole-group batch; the pool's
        :func:`~repro.sim.pool.even_parts` slices are what the workers
        solve."""
        systems, tokens = self.row_systems, self.tokens
        pieces = [solve_rows([systems[r] for r in part],
                             tokens and [tokens[r] for r in part],
                             self.plan.t_span, self.options)
                  for part in parts]
        if len(pieces) == 1:
            return pieces[0]
        frozen = None if pieces[0].frozen is None else \
            np.concatenate([piece.frozen for piece in pieces])
        return BatchTrajectory(
            t=pieces[0].t, y=np.concatenate([piece.y for piece in pieces]),
            systems=systems, frozen=frozen,
            nfev=sum(piece.nfev or 0 for piece in pieces))


def _pooled(plan: ExecutionPlan, rows: int) -> bool:
    """Whether a group of ``rows`` integrated rows goes to the
    worker pool: when a pool was requested (``processes > 1``) and the
    group has at least :data:`DEFAULT_SHARD_MIN` rows."""
    return (plan.processes is not None and plan.processes > 1
            and rows >= DEFAULT_SHARD_MIN)


def _submit_pool(task: GroupTask):
    """Submit one pool-routed group (see :func:`_pooled`) to the
    persistent zero-copy pool: its rows split into ``processes``
    contiguous near-equal shards (:func:`~repro.sim.pool.even_parts`)
    executed on reused workers (:mod:`repro.sim.pool`), with results
    returned through shared memory (:mod:`repro.sim.shm`) instead of
    pickle.

    Returns a :class:`~repro.sim.pool.PoolHandle`, or ``None`` when the
    group runs in-process: it is not routed to the pool, or the pool
    cannot be used (no rows to split, an unpicklable factory,
    or no shared memory). Scipy and fixed-step
    results are bit-identical to the in-process solve and storable;
    adaptive methods (dopri5 and the adaptive SDE pair) run per-shard
    step control, so an uncached whole-group rerun would not reproduce
    them bit-for-bit — they are kept out of the cache."""
    from repro.sim import pool as pool_module
    from repro.sim.shm import ShmBlock

    plan = task.plan
    if not _pooled(plan, task.n_rows):
        return None
    processes = int(plan.processes)
    parts = pool_module.even_parts(task.n_rows, processes)
    if not parts:
        return None
    # A shard's work list: (chip_key, chip_seed, token) per row, which
    # the worker rebuilds through the factory (_compile_rows).
    rows = [(row // task.trials,
             plan.seeds[task.indices[row // task.trials]],
             task.tokens and task.tokens[row])
            for row in range(task.n_rows)]
    common = _pool_payload((plan.factory, plan.t_span, task.options),
                           rows)
    if common is None:
        return None
    grid = _output_grid(plan.t_span, task.options.get("n_points", 500),
                        task.options.get("t_eval"))
    worker_pool = pool_module.get_pool(processes)
    shape = (task.n_rows, task.systems[0].n_states, len(grid))
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
        systems=task.row_systems,
        storable=task.options["method"] not in ("dopri5",
                                                "heun-adaptive"),
        masked=task.options.get("freeze_tol") is not None)
    offset = 0
    try:
        for part in parts:
            worker_pool.submit(handle, "sde" if task.tokens else "ode",
                               common, [rows[r] for r in part], offset)
            offset += len(part)
    except BaseException:
        handle.discard()
        raise
    return handle


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, progress=None):
    """Compile every instance, group by structural signature, and
    integrate each group on its route (with uniform trajectory
    caching). Returns an
    :class:`~repro.sim.ensemble.EnsembleResult` with ``plan.trials``
    rows per chip (one without ``trials``).

    This is the barriered form of :func:`stream_plan`: it drains the
    chunk stream and reassembles it, bit-identically to the historical
    monolithic driver. ``progress`` (a
    :class:`~repro.telemetry.progress.ProgressSink`) still fires per
    finished group — barriered callers get live progress too."""
    seeds = list(plan.seeds)
    chunks = list(stream_plan(replace(plan, seeds=seeds),
                              progress=progress))
    with telemetry.span("plan.assemble"):
        return assemble_chunks(chunks, seeds, trials=plan.trials)


def stream_plan(plan: ExecutionPlan, progress=None):
    """Execute the plan as a stream: an iterator of per-group chunks
    (:class:`~repro.sim.ensemble.EnsembleChunk`), each one finished
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


def _stream(plan: ExecutionPlan, seeds: list, progress=None):
    with telemetry.span("plan.build"):
        targets = [plan.factory(seed) for seed in seeds]
    with telemetry.span("plan.compile"):
        systems = [_compile_target(target) for target in targets]
    telemetry.add("plan.instances", len(systems))
    tasks = _expand(plan, seeds, systems)
    if progress is not None:
        progress.begin(groups=len(tasks),
                       instances=len(systems) * (plan.trials or 1))
    start = time.monotonic()
    chunks_done = rows_done = 0
    try:
        for chunk in _chunks(plan, seeds, tasks):
            chunks_done += 1
            rows_done += len(chunk)
            if telemetry.enabled():
                # Chunk-arrival accounting: the time-to-first-chunk
                # gauge is the streaming executor's headline number,
                # the arrival list its (monotone) completion profile.
                # The same numbers ride on the chunk itself for
                # consumers of stream_plan.
                arrival = time.monotonic() - start
                if chunks_done == 1:
                    telemetry.gauge(
                        "stream.time_to_first_chunk_seconds", arrival)
                telemetry.append("stream.chunk_arrival_seconds",
                                 arrival)
                telemetry.add("stream.chunks")
                chunk.stats = {"arrival_seconds": arrival,
                               "order": chunk.order,
                               "rows": len(chunk.indices)}
            if progress is not None:
                progress.advance(groups_done=chunks_done,
                                 instances_done=rows_done)
            yield chunk
    finally:
        if progress is not None:
            progress.finish()


def _solver_options(plan: ExecutionPlan, **solver) -> dict:
    """The keyword arguments of every batched solve of the plan, plus
    ``solver``'s. rtol/atol drive the ODE solvers, the embedded-pair
    controller of ``heun-adaptive`` and the freeze-mask
    criterion everywhere, so the same freeze_tol masks identically on
    both halves of a mixed sweep. The precision travels as its
    canonical spelling, which the cache keys discriminate on."""
    options = dict(n_points=plan.n_points, t_eval=plan.t_eval,
                   max_step=plan.max_step, rtol=plan.rtol,
                   atol=plan.atol, freeze_tol=plan.freeze_tol,
                   array_backend=plan.array_spec())
    return {**options, **solver}


def _ode_method(plan: ExecutionPlan, chips: int) -> str:
    """The solver method of a deterministic group of ``chips`` chips:
    the plan's own, except that ``auto`` is batched dopri5 for a group
    of two or more and scipy RK45 for a structurally unique chip."""
    if plan.method != "auto":
        return plan.method
    return "dopri5" if chips > 1 else "RK45"


def _expand(plan: ExecutionPlan, seeds, systems) -> list[GroupTask]:
    """The sweep's one row expansion: group the chips by structural
    signature and expand every group to chip × trial rows, one trial
    and no Wiener tokens for a deterministic sweep. Returns one
    :class:`GroupTask` per group."""
    noise = plan.noise
    with telemetry.span("plan.signature"):
        groups = group_by_signature(systems)
    if noise is not None:
        if not any(surviving_diffusion([systems[i] for i in indices])
                   for indices in groups):
            raise SimulationError(
                "transient-noise trials were requested (trials="
                f"{noise.trials}) but every instance compiles to a "
                "deterministic system — no live noise() terms "
                "survive; drop trials=/noise_seed= or add "
                "noise sources to the design")
        options = _solver_options(plan, method=noise.method,
                                  block=noise.block)
    tasks = []
    for indices in groups:
        tokens = None
        if noise is None:
            options = _solver_options(
                plan, method=_ode_method(plan, len(indices)))
        else:
            tokens = [token for i in indices
                      for token in noise.tokens(seeds[i])]
        tasks.append(GroupTask(plan=plan, indices=list(indices),
                               systems=[systems[i] for i in indices],
                               options=options, tokens=tokens))
    return tasks


def _chunks(plan: ExecutionPlan, seeds, tasks):
    """Drive the tasks and yield one
    :class:`~repro.sim.ensemble.EnsembleChunk` per finished group. A
    group solved by a scipy method lists its chips in
    ``serial_indices`` instead of carrying a batch. A noisy sweep with
    ``reference`` also integrates each group's chips once
    deterministically."""
    from repro.sim.ensemble import EnsembleChunk

    store = resolve_cache(plan.cache)
    # References are the chips' deterministic baselines: batched rk4 on
    # the same grid, freeze masks intentionally off, so reliability
    # metrics always compare against the exact noise-free transient.
    reference_options = _solver_options(plan, method="rk4", freeze_tol=None)
    for order, task, trajectory in _drive_groups(plan, tasks, store):
        indices = list(task.indices)
        scipy = task.options["method"] in SCIPY_METHODS
        references = None
        if task.tokens and plan.reference:
            reference = GroupTask(plan=plan, indices=indices,
                                  systems=task.systems,
                                  options=reference_options)
            with telemetry.span(f"group[{order}].reference"):
                [(_, _, batch)] = _drive_groups(plan, [reference], store)
            references = batch.trajectories()
        yield EnsembleChunk(
            order=order, indices=indices,
            seeds=[seeds[i] for i in indices], trials=task.trials,
            trajectories=trajectory.trajectories(),
            batches=[] if scipy else [trajectory],
            groups=[] if scipy else [indices],
            serial_indices=indices if scipy else [],
            references=references)


def _settle(plan, store, key, task, solve):
    """Finish one group: ``solve()`` returns ``(BatchTrajectory,
    storable)``, and a storable result lands in the cache under
    ``key`` (``storable=False`` vetoes a result an uncached rerun could
    not reproduce bit for bit, e.g. a shard-split adaptive solve).
    Returns ``(task, trajectory)``, the task that ran and its result.

    When batched dopri5 raises under the deterministic ``auto`` method
    (e.g. a stiff outlier underflowing the dopri5 step floor), the group
    is demoted: it re-solves in-process with scipy RK45, is counted in
    ``plan.demoted_rows`` and is not stored, and the demoted task is
    returned. An explicit method is the caller's choice, and a noisy
    sweep has no scipy counterpart, so there the error propagates."""
    try:
        trajectory, storable = solve()
    except SimulationError:
        if plan.method != "auto" or task.options["method"] != "dopri5":
            raise
        telemetry.add("plan.demoted_rows", len(task.indices))
        task = replace(task, options={**task.options, "method": "RK45"})
        trajectory, storable = task.solve([range(task.n_rows)]), False
    if task.options["method"] in SCIPY_METHODS:
        telemetry.add("serial.solves", len(task.indices))
    if key is not None and storable:
        with telemetry.span("cache.put"):
            store.put(key, trajectory.t, trajectory.y)
    return task, trajectory


def _drive_groups(plan, tasks, store):
    """The executor's scheduling core: run every :class:`GroupTask`,
    yielding ``(order, task, BatchTrajectory)`` as groups finish —
    ``task`` is the task that ran, a demoted one included (see
    :func:`_settle`).

    Cache hits yield first (they cost a key + load). Pool-routed groups
    are submitted asynchronously *up front* — workers start integrating
    immediately — and yield in completion order; everything else solves
    synchronously and lazily in group order. Any teardown — consumer
    abandoning the stream, ``KeyboardInterrupt`` — discards the
    in-flight handles, which releases their shared-memory blocks."""
    from repro.sim import pool as pool_module

    hits, sync, runs = [], [], []
    try:
        for order, task in enumerate(tasks):
            # `block` is left out of the key: the Wiener realization is
            # block-size independent, so it cannot change the result.
            options = {name: value for name, value in task.options.items()
                       if name != "block"}
            if task.tokens:
                options["noise_seeds"] = tuple(task.tokens)
            # No key: no store, or an unstable batch identity (then
            # nothing may be stored either).
            key = hit = None
            if store is not None:
                with telemetry.span("cache.key"):
                    key = store.key_for(
                        task.row_systems, "sde" if task.tokens else "batch",
                        {**options, "t_span": (float(plan.t_span[0]),
                                               float(plan.t_span[1]))})
            if key is not None:
                with telemetry.span("cache.get"):
                    hit = store.get(key)
            if hit is not None:
                hits.append((order, task, BatchTrajectory(
                    t=hit[0], y=hit[1], systems=task.row_systems)))
                continue
            handle = _submit_pool(task)
            if handle is not None:
                runs.append((order, task, key, handle))
            else:
                sync.append((order, task, key))
        yield from hits
        for order, task, key in sync:
            with telemetry.span(f"group[{order}].solve"):
                settled = _settle(
                    plan, store, key, task,
                    lambda: (task.solve([range(task.n_rows)]), True))
            yield (order, *settled)
        while runs:
            try:
                with telemetry.span("pool.wait"):
                    handle = pool_module.wait_any(
                        [run[3] for run in runs])
            except pool_module.PoolBrokenError:
                # The one recovery rule: a dying worker takes every
                # in-flight group with it, and each re-runs in-process
                # over its pool's even slices — the solve_rows calls the
                # workers would have made, so the result (adaptive methods included)
                # is the one the pool would have returned, and as
                # storable.
                broken, runs = runs, []
                for *_, lost in broken:
                    lost.discard()
                for order, task, key, lost in broken:
                    telemetry.add("plan.rerun_rows", task.n_rows)
                    parts = pool_module.even_parts(task.n_rows,
                                                   int(plan.processes))
                    with telemetry.span(f"group[{order}].rerun"):
                        settled = _settle(
                            plan, store, key, task,
                            lambda: (task.solve(parts),
                                     lost.storable))
                    yield (order, *settled)
                break
            position = next(index for index, run in enumerate(runs)
                            if run[3] is handle)
            order, task, key, handle = runs.pop(position)
            yield (order, *_settle(plan, store, key, task,
                                   handle.result))
    except BaseException:
        for run in runs:
            run[3].discard()
        raise


def assemble_chunks(chunks, seeds, trials: int | None = None):
    """Fold a (drained) chunk stream back into the barriered
    :class:`~repro.sim.ensemble.EnsembleResult` the pre-streaming
    driver returned, independent of chunk arrival order (chunks are
    re-sorted by submission order). Chunks carry their own trial
    count; ``trials`` gives it for an empty stream."""
    from repro.sim.ensemble import EnsembleResult

    seeds = list(seeds)
    chunks = sorted(chunks, key=lambda chunk: chunk.order)
    trials = chunks[0].trials if chunks else trials or 1
    result = EnsembleResult(trajectories=[None] * (len(seeds) * trials),
                            seeds=seeds, trials=trials)
    if chunks and all(chunk.references is not None for chunk in chunks):
        result.references = [None] * len(seeds)
    for chunk in chunks:
        if chunk.batches:
            for local, index in enumerate(chunk.indices):
                result._rows[index] = (len(result.batches),
                                       local * trials)
            result.batches.append(chunk.batches[0])
            result.groups.append(list(chunk.indices))
        else:
            result.serial_indices.extend(chunk.serial_indices)
        # The chunk already unpacked its per-row views — reuse them
        # instead of materializing a second set.
        for local, index in enumerate(chunk.indices):
            result.trajectories[index * trials:(index + 1) * trials] = \
                chunk.trajectories[local * trials:(local + 1) * trials]
            if result.references is not None:
                result.references[index] = chunk.references[local]
    result.serial_indices.sort()
    return result
