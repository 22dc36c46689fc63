"""Batched ensemble simulation engine.

The paper's headline experiments (Figs. 4c/4d, 11c, Table 1) are
Monte-Carlo sweeps over fabricated-instance mismatch; the reference Ark
implementation runs them as vectorized batches (``--vectorize --bz
1024``). This subsystem provides the same capability:

* :mod:`repro.sim.batch_codegen` — one compiled RHS evaluating an
  ``(n_instances, n_states)`` state matrix, per-instance attributes
  stacked as constant arrays, at float64 (default) or float32
  precision, selected per run via ``run_ensemble(...,
  array_backend="numpy:float32")`` / ``--array-backend`` (see
  :func:`~repro.sim.batch_codegen.array_dtype`);
* :mod:`repro.sim.batch_solver` — vectorized RK4 / adaptive
  Dormand–Prince 5(4) with per-instance error control on a shared
  output grid, returning a
  :class:`~repro.sim.batch_solver.BatchTrajectory`;
* :mod:`repro.sim.plan` — the unified execution-plan layer: an
  :class:`~repro.sim.plan.ExecutionPlan`, whose fields are the one
  definition of every sweep option. The sweep's own inputs pick each
  group's route: a scipy ``method`` solves the group's rows one at a
  time, every other method in one batched solve, and any group is
  pooled when ``processes > 1`` and it has at least 64 rows. A deterministic sweep is the one-trial,
  Wiener-free case of the noisy one: one row expansion (chip ×
  trial), one result type, one recovery rule, so pooling, caching, and
  per-instance step masks cover both identically;
* :mod:`repro.sim.pool` / :mod:`repro.sim.shm` — the persistent
  worker pool, the one process model: each pooled group
  splits into ``processes`` near-equal contiguous shards
  (:func:`~repro.sim.pool.even_parts`) that return through shared
  memory;
* :mod:`repro.sim.ensemble` — :func:`~repro.sim.ensemble.run_ensemble`,
  the one driver for mismatch sweeps *and* (with ``trials=K``)
  transient-noise sweeps, with their one (chip, trial)-indexed result
  type :class:`~repro.sim.ensemble.EnsembleResult`;
* :mod:`repro.sim.sde_solver` — batched transient-noise (SDE)
  integration: deterministic per-``(seed, element, path)`` Wiener
  streams plus vectorized Euler–Maruyama / stochastic Heun solvers over
  the same ``(n_instances, n_states)`` storage.

Quickstart::

    from repro.sim import run_ensemble

    result = run_ensemble(
        lambda seed: mismatched_tline("gm", seed=seed),
        seeds=range(100), t_span=(0.0, 8e-8), n_points=300)
    batch = result.batches[0]           # (100, n_states, 300) storage
    band = batch.band("OUT_V")          # Fig. 4c/4d percentile envelope
"""

from repro.sim.batch_codegen import (BatchRhs, array_dtype,
                                     canonical_spec, compile_batch,
                                     generate_batch_source,
                                     group_by_signature)
from repro.sim.batch_solver import BatchTrajectory, solve_batch
from repro.sim.cache import CacheStats, TrajectoryCache, default_cache
from repro.sim.plan import (BATCH_METHODS, ExecutionPlan, NoiseSpec,
                            assemble_chunks, execute_plan, stream_plan)
from repro.sim.ensemble import EnsembleChunk, EnsembleResult, run_ensemble
from repro.sim.pool import even_parts
from repro.sim.sde_solver import (SDE_METHODS, WienerSource,
                                  simulate_sde, solve_sde)

__all__ = [
    "BATCH_METHODS",
    "BatchRhs",
    "BatchTrajectory",
    "CacheStats",
    "EnsembleChunk",
    "EnsembleResult",
    "ExecutionPlan",
    "NoiseSpec",
    "SDE_METHODS",
    "TrajectoryCache",
    "WienerSource",
    "array_dtype",
    "assemble_chunks",
    "canonical_spec",
    "compile_batch",
    "even_parts",
    "default_cache",
    "execute_plan",
    "generate_batch_source",
    "group_by_signature",
    "run_ensemble",
    "simulate_sde",
    "solve_batch",
    "solve_sde",
    "stream_plan",
]
