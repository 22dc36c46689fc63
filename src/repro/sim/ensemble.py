"""Monte-Carlo ensemble driver (the paper's §4.3 mismatch workflow).

Given a ``factory(seed)`` producing one fabricated instance per seed,
:func:`run_ensemble` compiles every instance, groups by structural
signature, and integrates each compatible group through one batched RHS
(:mod:`repro.sim.batch_codegen` + :mod:`repro.sim.batch_solver`). Since
the unified execution-plan layer (:mod:`repro.sim.plan`) it is also the
single driver for transient-noise sweeps: ``run_ensemble(...,
trials=K)`` realizes K independent Wiener trials per fabricated chip
through the batched SDE engine. Both return one
:class:`EnsembleResult` indexed by (chip, trial); a deterministic sweep
is its one-trial case.

The common case — N mismatch seeds of one Ark function invocation —
lands in a single batch and runs orders of magnitude faster than N
scipy solves; the repository benchmark (``perfbench/``, listed in
``BENCHMARK.json``) measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulator import Trajectory
from repro.errors import SimulationError
from repro.telemetry import RunReport, collect_metrics

from repro.sim.batch_solver import BatchTrajectory
from repro.sim.plan import ExecutionPlan, execute_plan, stream_plan

__all__ = [
    "EnsembleChunk",
    "EnsembleResult",
    "run_ensemble",
]


@dataclass
class EnsembleResult:
    """Outcome of a sweep, indexed by (chip, trial); a deterministic
    sweep is the one-trial case.

    ``trajectories`` holds every row as a serial :class:`Trajectory`
    view, chip-major and trial-minor in seed order; ``batches`` expose
    the stacked storage for vectorized analysis, each chip's trials in
    consecutive rows; ``references`` (noisy sweeps with
    ``reference=True``) hold one noise-free run per chip.
    """

    trajectories: list[Trajectory] = field(default_factory=list)
    batches: list[BatchTrajectory] = field(default_factory=list)
    #: Seed-list indices of each batched group (parallel to batches).
    groups: list[list[int]] = field(default_factory=list)
    #: Seed-list indices solved by a scipy method, one row at a time.
    serial_indices: list[int] = field(default_factory=list)
    seeds: list = field(default_factory=list)
    trials: int = 1
    references: list[Trajectory] | None = None
    #: The run's :class:`~repro.telemetry.RunReport` when the driver was
    #: called with ``telemetry=`` (``None`` otherwise).
    telemetry: RunReport | None = None
    #: chip index -> (batch number, first row of its trial block), for
    #: the chips of ``batches``.
    _rows: dict[int, tuple[int, int]] = field(default_factory=dict)

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

    def trajectory(self, chip_index: int, trial: int = 0) -> Trajectory:
        """One (chip, trial) run as a serial :class:`Trajectory`."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} outside 0..{self.trials - 1}")
        return self.trajectories[chip_index * self.trials + trial]

    def trial_rows(self, chip_index: int):
        """The (batch, row slice) holding one chip's trials — for
        vectorized readout without unpacking to serial trajectories."""
        if chip_index not in self._rows:
            raise SimulationError(
                f"chip {chip_index} was solved by a scipy method; it "
                "has no batch rows")
        batch_number, row = self._rows[chip_index]
        return self.batches[batch_number], slice(row, row + self.trials)

    def reference(self, chip_index: int) -> Trajectory:
        """The chip's deterministic (noise-free) run."""
        if self.references is None:
            raise SimulationError(
                "this sweep kept no deterministic references (they "
                "are run for trials=K sweeps unless reference=False)")
        return self.references[chip_index]


@dataclass
class EnsembleChunk(EnsembleResult):
    """One finished structural group of a *streamed* sweep: a batch,
    or rows solved one at a time by a scipy method (listed in
    ``serial_indices``).

    Unlike the full :class:`EnsembleResult`, the chunk is chunk-local:
    chip ``k`` of the chunk (``trajectory(k, trial)``,
    ``trial_rows(k)``, ``reference(k)``, the ``k``-th trial block of
    ``trajectories``) is seed index ``indices[k]`` of the original seed
    list. ``order`` is the group's submission position;
    :func:`repro.sim.plan.assemble_chunks` sorts by it so a drained
    stream reassembles bit-identically to the barriered run no matter
    the completion order the pool delivered.
    """

    #: Seed-list indices covered by this chunk, one per chip.
    indices: list[int] = field(default_factory=list)
    #: Submission order of the chunk's group.
    order: int = 0
    #: Chunk-level stream stats (arrival time, order, rows) when the
    #: stream ran inside a telemetry collection window; else ``None``.
    stats: dict | None = None

    def __post_init__(self):
        if self.batches and not self._rows:
            self._rows = {local: (0, local * self.trials)
                          for local in range(len(self.indices))}


def run_ensemble(factory, seeds, t_span, *, stream: bool = False,
                 telemetry=None, progress=None, **options):
    """Simulate one fabricated instance per seed, batching wherever the
    instances share structure — the unified driver for deterministic
    *and* transient-noise sweeps.

    :param factory: ``factory(seed) -> DynamicalGraph | OdeSystem``.
    :param options: the sweep options — ``n_points``, ``t_eval``,
        ``method``, ``rtol``, ``atol``, ``max_step``, ``freeze_tol``,
        ``processes``, ``cache``, ``array_backend``, ``trials``,
        ``noise_seed``, ``sde_method``, ``reference``. They are the fields of
        :class:`~repro.sim.plan.ExecutionPlan`, whose docstring gives
        each one's default and meaning; bad values raise
        :class:`~repro.errors.SimulationError` before the first
        ``factory`` call. The result is an :class:`EnsembleResult`
        with ``trials`` rows per chip (1 without ``trials``).
    :param stream: return an *iterator of per-group chunks* instead of
        the barriered result: each finished structural group yields an
        :class:`EnsembleChunk` as soon as it completes — pool-routed
        groups in worker-completion order — so analysis can start
        before the stiffest group finishes.
        :func:`repro.sim.plan.assemble_chunks` folds a drained stream
        back into the barriered result, bit-identically::

            for chunk in run_ensemble(factory, range(1000), span,
                                      processes=8, stream=True):
                for chip, index in enumerate(chunk.indices):
                    score(index, chunk.trajectory(chip))
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
    :param progress: an optional
        :class:`~repro.telemetry.ProgressSink` notified per finished
        group (totals up front, counts per chunk) — the hook behind
        ``repro ensemble --stream --progress``. Works with or without
        ``stream`` and receives counts only, so it cannot perturb
        results.
    """
    plan = ExecutionPlan(factory=factory, seeds=list(seeds),
                         t_span=t_span, **options)
    if telemetry is None or telemetry is False:
        return (stream_plan(plan, progress=progress) if stream
                else execute_plan(plan, progress=progress))
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
    meta = {"driver": "run_ensemble", "seeds": len(plan.seeds)}
    if plan.array_spec() != "numpy:float64":
        meta["array_backend"] = plan.array_spec()
    if plan.trials is not None:
        meta["trials"] = plan.trials
    if stream:
        return _collected_stream(plan, report, meta, progress)
    with collect_metrics(into=report, meta=meta):
        result = execute_plan(plan, progress=progress)
    result.telemetry = report
    return result


def _collected_stream(plan, report, meta, progress=None):
    """Stream a plan inside its own collection window: the report is
    finalized when the stream is exhausted (or closed early)."""
    with collect_metrics(into=report, meta=meta):
        yield from stream_plan(plan, progress=progress)

