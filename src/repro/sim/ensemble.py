"""Monte-Carlo ensemble driver (the paper's §4.3 mismatch workflow).

Given a ``factory(seed)`` producing one fabricated instance per seed,
:func:`run_ensemble` compiles every instance, groups by structural
signature, and integrates each compatible group through one batched RHS
(:mod:`repro.sim.batch_codegen` + :mod:`repro.sim.batch_solver`). Since
the unified execution-plan layer (:mod:`repro.sim.plan`) it is also the
single driver for transient-noise sweeps: ``run_ensemble(...,
trials=K)`` realizes K independent Wiener trials per fabricated chip
through the batched SDE engine.

The common case — N mismatch seeds of one Ark function invocation —
lands in a single batch and runs orders of magnitude faster than N
scipy solves; the repository benchmark (``perfbench/``, listed in
``BENCHMARK.json``) measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulator import Trajectory
from repro.telemetry import RunReport, collect_metrics

from repro.sim.batch_solver import BatchTrajectory
from repro.sim.plan import (BATCH_METHODS, DEFAULT_SHARD_MIN,
                            ExecutionPlan, NoiseSpec)

__all__ = [
    "BATCH_METHODS",
    "DEFAULT_SHARD_MIN",
    "ENGINES",
    "EnsembleChunk",
    "EnsembleResult",
    "resolve_engine",
    "run_ensemble",
    "stream_ensemble",
]

#: Execution-backend names accepted by ``run_ensemble(engine=...)``.
#: ``batch`` maps to the plan layer's per-group ``auto`` policy (send
#: large groups to the persistent pool when one is requested) — the
#: historical behavior; ``pool`` forces the persistent zero-copy pool.
ENGINES = ("batch", "serial", "pool", "auto")


@dataclass
class EnsembleResult:
    """Outcome of an ensemble run.

    ``trajectories`` is ordered like the input seeds (batched instances
    are unpacked back into serial :class:`Trajectory` views), so callers
    of the legacy list-based API keep working; ``batches`` exposes the
    stacked storage for vectorized analysis.
    """

    trajectories: list[Trajectory] = field(default_factory=list)
    batches: list[BatchTrajectory] = field(default_factory=list)
    #: Seed-list indices of each batched group (parallel to batches).
    groups: list[list[int]] = field(default_factory=list)
    #: Seed-list indices that took the serial scipy path.
    serial_indices: list[int] = field(default_factory=list)
    #: The run's :class:`~repro.telemetry.RunReport` when the driver was
    #: called with ``telemetry=`` (``None`` otherwise).
    telemetry: RunReport | None = None

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def __getitem__(self, index: int) -> Trajectory:
        return self.trajectories[index]

    @property
    def batched_fraction(self) -> float:
        """Share of instances that ran through a batched RHS."""
        total = len(self.trajectories)
        return (total - len(self.serial_indices)) / total if total \
            else 0.0


@dataclass
class EnsembleChunk(EnsembleResult):
    """One finished slice of a *streamed* deterministic sweep: either a
    batched structural group or the serial-fallback remainder.

    Unlike the full :class:`EnsembleResult`, ``trajectories`` here is
    chunk-local — ``trajectories[k]`` belongs to seed index
    ``indices[k]`` of the original seed list. ``order`` is the group's
    submission position; :func:`repro.sim.plan.assemble_chunks` sorts
    by it so a drained stream reassembles bit-identically to the
    barriered run no matter the completion order the pool delivered.
    """

    #: Seed-list indices covered by this chunk, one per trajectory.
    indices: list[int] = field(default_factory=list)
    #: Submission order of the chunk's group (serial remainder last).
    order: int = 0
    #: Chunk-level stream stats (arrival time, order, rows) when the
    #: stream ran inside a telemetry collection window; else ``None``.
    stats: dict | None = None


def resolve_engine(engine: str) -> str:
    """Map a driver ``engine`` name onto a plan backend, rejecting
    unknown names up front (an unrecognized engine used to fall back
    to the serial path silently)."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}")
    return "auto" if engine == "batch" else engine


def run_ensemble(factory, seeds, t_span, *, n_points: int = 500,
                 method: str = "auto", rtol: float = 1e-7,
                 atol: float = 1e-9, backend: str = "codegen",
                 t_eval=None, max_step: float | None = None,
                 engine: str = "batch", min_batch: int = 2,
                 processes: int | None = None, dense: bool = True,
                 cache=None, shard_min: int = DEFAULT_SHARD_MIN,
                 freeze_tol: float | None = None,
                 trials: int | None = None,
                 noise_seed: int | None = None,
                 sde_method: str = "heun", block: int = 256,
                 reference: bool = True, stream: bool = False,
                 array_backend=None, telemetry=None, progress=None):
    """Simulate one fabricated instance per seed, batching wherever the
    instances share structure — the unified driver for deterministic
    *and* transient-noise sweeps.

    :param factory: ``factory(seed) -> DynamicalGraph | OdeSystem``.
    :param method: ``auto`` (batched rkf45 + serial RK45 fallback),
        ``rkf45``/``rk4`` (force a batch solver), or a scipy
        ``solve_ivp`` method name (``RK45``, ``LSODA``…; forces the
        serial path for every instance). Other names raise, listing
        the valid ones. Ignored on the noisy path (see
        ``sde_method``).
    :param engine: execution backend — ``batch`` (default: the plan
        layer's auto policy), ``serial`` (one solve per instance),
        ``pool`` (force the persistent zero-copy worker pool), or
        ``auto``. Unknown names raise :class:`ValueError`.
    :param min_batch: smallest structural group worth a batched compile;
        smaller groups run serially.
    :param processes: worker-pool width. Batched groups of at least
        ``shard_min`` instances run on the persistent zero-copy pool
        (spawned once, reused across solves; results return through
        shared memory instead of pickle), split into ``processes``
        contiguous near-equal shards. Serial-fallback instances fan
        out one seed per task over the same pool. Both require a
        picklable factory and run in-process otherwise. On the noisy
        path the (chip x trial) SDE batches split the same way,
        bit-identically.
    :param dense: use dense-output interpolation in the batched rkf45
        (see :func:`~repro.sim.batch_solver.solve_batch`).
    :param cache: trajectory cache — ``True`` (process-wide default
        cache), a directory path (disk backed), or a
        :class:`~repro.sim.cache.TrajectoryCache`. Repeated sweeps
        with identical structure, attributes, grid, and solver options
        reuse the stored integration bit-for-bit; noisy sweeps key the
        per-(chip, trial) Wiener tokens identically.
    :param shard_min: smallest batched group worth splitting across the
        pool (pool spawn + per-shard compile amortize only on large
        groups).
    :param freeze_tol: per-instance step masks — converged (or
        diverged) instances freeze instead of forcing the worst-case
        step on the whole batch (see
        :func:`~repro.sim.batch_solver.solve_batch`).
    :param trials: ``None`` (default) runs the deterministic mismatch
        sweep and returns an :class:`EnsembleResult`. An integer K
        switches to the transient-noise path: every chip is replicated
        K times inside the batch, each row drawing the deterministic
        Wiener realization of ``"<chip_seed>:<noise_seed + trial>"``,
        and the result is a
        :class:`~repro.sim.noisy.NoisyEnsembleResult`.
    :param noise_seed: first trial index of the noisy path (default 0)
        — shift to draw a fresh, non-overlapping set of realizations
        for the same chips. Setting it without ``trials`` raises.
    :param sde_method: SDE solver of the noisy path — ``heun``
        (default), ``em``, ``milstein``, or the adaptive pair
        ``heun-adaptive``/``em-adaptive`` (``rtol``/``atol`` then
        steer its per-instance error control; see
        :mod:`repro.sim.sde_solver`).
    :param block: Wiener pre-draw block length (noisy path only).
    :param reference: also integrate each chip once deterministically
        (batched RK4 on the same grid) for reliability references
        (noisy path only).
    :param stream: return an *iterator of per-group chunks* instead of
        the barriered result: each finished structural group yields an
        :class:`EnsembleChunk` (or, with ``trials=K``, a
        :class:`~repro.sim.noisy.NoisyEnsembleChunk`) as soon as it
        completes — under the pool backend in worker-completion order —
        so analysis can start before the stiffest group finishes.
        :func:`repro.sim.plan.assemble_chunks` folds a drained stream
        back into the barriered result, bit-identically.
    :param telemetry: metric collection for this run. ``None``/``False``
        (default) disables it at single-context-var-check cost;
        ``True`` collects into a fresh
        :class:`~repro.telemetry.RunReport`; an existing ``RunReport``
        collects into that instance. The populated report is attached
        as ``result.telemetry``. Telemetry never perturbs results —
        trajectories are bit-identical with collection on or off
        (test-enforced). With ``stream=True`` pass a ``RunReport``
        instance (it is finalized when the stream is exhausted) or
        wrap the drain loop in
        :func:`repro.telemetry.collect_metrics` yourself; ``True``
        is rejected because the barriered attach point does not exist.
    :param array_backend: array namespace the batched kernels and
        solver loops run on — ``None``/``"numpy"`` (default,
        bit-identical to previous releases), ``"numpy:float32"``, or an
        :class:`~repro.sim.array_api.ArrayBackend` instance.
    :param progress: an optional
        :class:`~repro.telemetry.ProgressSink` notified per finished
        group (totals up front, counts per chunk) — the hook behind
        ``repro ensemble --stream --progress``. Works with or without
        ``stream`` and receives counts only, so it cannot perturb
        results.
    """
    plan_backend = resolve_engine(engine)
    noise = None
    if trials is not None:
        noise = NoiseSpec(trials=trials, method=sde_method,
                          noise_seed=noise_seed or 0, block=block,
                          reference=reference)
    elif noise_seed is not None:
        raise ValueError(
            "noise_seed was given without trials; pass trials=K to "
            "request a transient-noise sweep")
    plan = ExecutionPlan(
        factory=factory, seeds=list(seeds), t_span=t_span,
        backend=plan_backend, noise=noise, n_points=n_points,
        t_eval=t_eval, method=method, rtol=rtol, atol=atol,
        max_step=max_step, dense=dense, freeze_tol=freeze_tol,
        serial_backend=backend, min_batch=min_batch,
        processes=processes, shard_min=shard_min, cache=cache,
        array_backend=array_backend)
    if telemetry is None or telemetry is False:
        return (plan.stream(progress=progress) if stream
                else plan.run(progress=progress))
    if isinstance(telemetry, RunReport):
        report = telemetry
    elif telemetry is True:
        if stream:
            raise ValueError(
                "telemetry=True needs the barriered result to attach "
                "the report to; with stream=True pass a RunReport "
                "instance (finalized at stream exhaustion) or wrap "
                "the drain loop in repro.telemetry.collect_metrics")
        report = RunReport()
    else:
        raise TypeError(
            f"telemetry must be None, bool, or a RunReport, got "
            f"{type(telemetry).__name__}")
    meta = {"driver": "run_ensemble", "engine": engine,
            "seeds": len(plan.seeds)}
    if plan.array_spec() != "numpy:float64":
        meta["array_backend"] = plan.array_spec()
    if noise is not None:
        meta["trials"] = noise.trials
    if stream:
        return _collected_stream(plan, report, meta, progress)
    with collect_metrics(into=report, meta=meta):
        result = plan.run(progress=progress)
    result.telemetry = report
    return result


def _collected_stream(plan, report, meta, progress=None):
    """Stream a plan inside its own collection window: the report is
    finalized when the stream is exhausted (or closed early)."""
    with collect_metrics(into=report, meta=meta):
        yield from plan.stream(progress=progress)


def stream_ensemble(factory, seeds, t_span, **kwargs):
    """Streaming form of :func:`run_ensemble`: returns the chunk
    iterator directly (exactly ``run_ensemble(..., stream=True)``).

    The first chunk arrives after one structural group finishes — not
    after the whole sweep — so spread/BER analysis can overlap the
    remaining integration::

        for chunk in stream_ensemble(factory, range(1000), span,
                                     processes=8):
            for row, index in enumerate(chunk.indices):
                score(index, chunk.batches[0].instance(row))
    """
    return run_ensemble(factory, seeds, t_span, stream=True, **kwargs)
