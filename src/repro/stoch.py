"""``repro.stoch`` — the batched transient-noise (SDE) subsystem.

One import surface for everything stochastic, the second half of the
paper's nonideality story (§4.3 covers the first, fabrication
mismatch):

* **Language**: ``noise(amp)`` production terms and ``ns(sigma[,rel])``
  datatype annotations compile into
  :class:`~repro.core.odesystem.DiffusionTerm` entries of the
  ``OdeSystem`` (see :mod:`repro.core.compiler`);
* **Streams**: deterministic per-``(seed, element, path)`` Wiener
  streams, hashed exactly like mismatch (:mod:`repro.core.noise`);
* **Solvers**: vectorized Euler–Maruyama and stochastic Heun over
  ``(n_instances, n_states)`` batches
  (:mod:`repro.sim.sde_solver`);
* **Driver**: the (chip seed × noise trial) outer-product sweep behind
  PUF transient-noise reliability and the OBC quality-vs-noise study —
  ``run_ensemble(..., trials=K)`` through the unified execution-plan
  layer (:mod:`repro.sim.plan`).

The implementation lives in :mod:`repro.core` / :mod:`repro.sim`
(noise shares the compiler and the batched engine with the
deterministic path — that sharing *is* the design); this module is the
subsystem's nominal home and re-exports its public API::

    from repro.stoch import simulate_sde, run_ensemble
"""

from repro.core.datatypes import Noise
from repro.core.noise import (SHARED_ELEMENT, bridge_bits, bridge_seed,
                              share_wiener, stream, stream_seed)
from repro.core.odesystem import DiffusionTerm
from repro.sim.ensemble import run_ensemble
from repro.sim.noisy import NoisyEnsembleResult
from repro.sim.plan import ExecutionPlan, NoiseSpec
from repro.sim.sde_solver import (ADAPTIVE_SDE_METHODS,
                                  FIXED_SDE_METHODS, SDE_METHODS,
                                  BridgeWienerSource, WienerSource,
                                  simulate_sde, solve_sde)

__all__ = [
    "ADAPTIVE_SDE_METHODS",
    "BridgeWienerSource",
    "DiffusionTerm",
    "ExecutionPlan",
    "FIXED_SDE_METHODS",
    "Noise",
    "NoiseSpec",
    "NoisyEnsembleResult",
    "SDE_METHODS",
    "SHARED_ELEMENT",
    "WienerSource",
    "bridge_bits",
    "bridge_seed",
    "run_ensemble",
    "share_wiener",
    "simulate_sde",
    "solve_sde",
    "stream",
    "stream_seed",
]
