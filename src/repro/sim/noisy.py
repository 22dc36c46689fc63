"""Transient-noise ensemble results: (chip seed × noise trial) sweeps.

The paper's nonideality story has two independent axes — fabrication
mismatch (one sample per *chip*, §4.3) and transient noise (one
realization per *trial*). Reliability-style questions need both: how
stable is one fabricated chip's behavior across repeated noisy runs?

``run_ensemble(..., trials=K)`` (:func:`repro.sim.run_ensemble`) runs
the (chip × trial) outer product in as few batched SDE solves as
possible: every chip is compiled once, structurally compatible chips
share one :class:`~repro.sim.batch_codegen.BatchRhs`, and each chip's
system is *replicated* ``trials`` times inside the batch (replication
is free — the per-instance attribute arrays just repeat rows), so a
16-chip × 8-trial sweep is one 128-instance vectorized integration
instead of 128 scipy solves. Noise seeds are ``"<chip_seed>:<trial>"``
tokens, so every pair owns an independent — and reproducible — Wiener
realization, regardless of batch layout, sharding, or caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulator import Trajectory
from repro.errors import SimulationError

from repro.sim.batch_solver import BatchTrajectory

__all__ = ["NoisyEnsembleChunk", "NoisyEnsembleResult"]


@dataclass
class NoisyEnsembleResult:
    """Outcome of a (chips × trials) transient-noise sweep.

    ``batches`` hold the stacked noisy runs, chip-major and trial-minor
    within each batch; ``references`` (optional) hold one deterministic
    noise-free run per chip on the same output grid — the reference
    trace reliability metrics compare against.
    """

    seeds: list = field(default_factory=list)
    trials: int = 0
    batches: list[BatchTrajectory] = field(default_factory=list)
    #: Chip indices (into ``seeds``) of each batch, chip-major order.
    groups: list[list[int]] = field(default_factory=list)
    references: list[Trajectory] | None = None
    #: chip index -> (batch number, first row of its trial block).
    _rows: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: The run's :class:`~repro.telemetry.RunReport` when the driver
    #: was called with ``telemetry=`` (``None`` otherwise).
    telemetry: object = None

    @property
    def n_chips(self) -> int:
        return len(self.seeds)

    def trajectory(self, chip_index: int, trial: int) -> Trajectory:
        """One (chip, trial) run as a serial :class:`Trajectory`."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} outside 0..{self.trials - 1}")
        batch_number, row = self._rows[chip_index]
        return self.batches[batch_number].instance(row + trial)

    def trials_of(self, chip_index: int) -> list[Trajectory]:
        """All noise trials of one chip."""
        return [self.trajectory(chip_index, trial)
                for trial in range(self.trials)]

    def trial_rows(self, chip_index: int):
        """The (batch, row slice) holding one chip's trials — for
        vectorized readout without unpacking to serial trajectories."""
        batch_number, row = self._rows[chip_index]
        return self.batches[batch_number], slice(row, row + self.trials)

    def reference(self, chip_index: int) -> Trajectory:
        """The chip's deterministic (noise-free) run."""
        if self.references is None:
            raise SimulationError(
                "run_ensemble(..., reference=False) kept no "
                "deterministic references")
        return self.references[chip_index]


@dataclass
class NoisyEnsembleChunk(NoisyEnsembleResult):
    """One finished structural group of a *streamed* (chips × trials)
    sweep. The inherited accessors (``trajectory``, ``trials_of``,
    ``reference``…) work chunk-locally: chip ``k`` of the chunk is seed
    index ``indices[k]`` of the original seed list, and ``seeds`` holds
    just this group's chip seeds. ``order`` is the group's submission
    position — :func:`repro.sim.plan.assemble_chunks` sorts by it, so
    a stream drained in any completion order reassembles bit-identically
    to the barriered :class:`NoisyEnsembleResult`.
    """

    #: Seed-list indices of this group's chips (chip-major order).
    indices: list[int] = field(default_factory=list)
    #: Submission order of the chunk's group.
    order: int = 0
    #: Chunk-level stream stats (arrival time, order, rows) when the
    #: stream ran inside a telemetry collection window; else ``None``.
    stats: dict | None = None
