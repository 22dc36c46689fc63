"""Response encoding: OUT_V trajectory -> bitvector (§2).

"In an analog circuit PUF, the response is often naturally computed from
voltage and current trajectories observed on a wire within a certain
observation time window." We sample ``OUT_V`` at evenly spaced times
inside the window and encode one bit per *pair* of samples
(``v[2k] > v[2k+1]``): the differential comparison is insensitive to
global gain and keeps the bits reasonably balanced without forcing
them to be, so uniformity stays a meaningful metric.

Reliability is probed with **transient noise** by default: a
``PufDesign(noise=...)`` chip is a stochastic system, and repeated
noisy SDE evaluations of one chip (:func:`evaluate_puf_noisy`, on the
batched engine of :mod:`repro.sim.noisy`) perturb the *dynamics*, not
just the readout. The legacy readout-noise model — additive Gaussian
noise on the sampled voltages — is kept as an explicit option
(``mode="readout"`` in :func:`puf_reliability`); either way every
random draw is seeded, so reliability numbers are reproducible
run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.noise import stream
from repro.core.simulator import simulate
from repro.puf.challenge import PufDesign
from repro.puf.metrics import ReliabilityReport, reliability

#: Default observation window: wide enough for every stub's echo (the
#: branched-line lesson of §2.2).
DEFAULT_WINDOW = (1e-8, 8e-8)


def _readout_rng(chip_seed, challenge,
                 trial: int = 0) -> np.random.Generator:
    """Deterministic readout-noise stream for one (chip, challenge,
    trial) — the same keyed stream as mismatch and Wiener draws."""
    return stream(chip_seed, "readout", f"{challenge}:{trial}")


def encode_response(samples: np.ndarray,
                    rng: np.random.Generator | None = None,
                    noise_sigma: float = 0.0,
                    seed: int | None = None) -> np.ndarray:
    """Differential encoding: bit k compares samples 2k and 2k+1.

    Readout noise (``noise_sigma`` > 0) requires an explicit ``rng`` or
    ``seed`` — an OS-seeded generator would make reliability metrics
    unreproducible run-to-run, which silently breaks every comparison
    built on them.
    """
    samples = np.asarray(samples, dtype=float)
    if noise_sigma > 0.0:
        if rng is None:
            if seed is None:
                raise ValueError(
                    "encode_response: readout noise needs a seeded "
                    "generator — pass rng=... or seed=... (reliability "
                    "metrics must be reproducible)")
            rng = np.random.default_rng(seed)
        samples = samples + rng.normal(0.0, noise_sigma, samples.shape)
    pairs = samples[: 2 * (len(samples) // 2)].reshape(-1, 2)
    return (pairs[:, 0] > pairs[:, 1]).astype(np.uint8)


def _window_times(window: tuple[float, float], n_bits: int) -> np.ndarray:
    return np.linspace(window[0], window[1], 2 * n_bits)


@dataclass(frozen=True)
class ChipFactory:
    """A picklable ``factory(seed)`` building one challenged chip.

    The ensemble drivers accept any callable, but process-pool sharding
    must ship the factory to worker processes — a ``lambda`` silently
    degrades to in-process execution. This module-level class pickles,
    so population sweeps and (chip × trial) SDE batches can shard.

    A ``PufDesign(shared_supply=True)`` design is compiled here and
    its diffusion terms aliased onto the single ``"supply"`` Wiener
    path (factories may return either a graph or a compiled
    :class:`~repro.core.odesystem.OdeSystem`), so every driver built on
    this factory — population sweeps, noisy trials, reliability —
    sees correlated supply ripple without further plumbing.
    """

    design: PufDesign
    challenge: object

    def __call__(self, seed):
        graph = self.design.build(self.challenge, seed=seed)
        if not self.design.shared_supply:
            return graph
        from repro.core.compiler import compile_graph
        from repro.core.noise import share_wiener

        return share_wiener(compile_graph(graph), "supply")


def evaluate_puf(design: PufDesign, challenge, seed: int, *,
                 n_bits: int = 32,
                 window: tuple[float, float] = DEFAULT_WINDOW,
                 t_end: float | None = None,
                 noise_sigma: float = 0.0,
                 rng: np.random.Generator | None = None,
                 n_points: int = 600) -> np.ndarray:
    """Challenge one fabricated chip and return its response bits.

    :param seed: the chip identity (mismatch seed).
    :param noise_sigma: per-sample *readout* noise (0 = noiseless).
        When no ``rng`` is given, a deterministic per-(chip, challenge)
        stream is derived, so repeated calls return identical bits.
    """
    graph = design.build(challenge, seed=seed)
    horizon = t_end if t_end is not None else window[1] * 1.05
    trajectory = simulate(graph, (0.0, horizon), n_points=n_points)
    samples = trajectory.sample("OUT_V", _window_times(window, n_bits))
    if noise_sigma > 0.0 and rng is None:
        rng = _readout_rng(seed, challenge)
    return encode_response(samples, rng=rng, noise_sigma=noise_sigma)


def evaluate_puf_population(design: PufDesign, challenge, seeds, *,
                            n_bits: int = 32,
                            window: tuple[float, float] = DEFAULT_WINDOW,
                            t_end: float | None = None,
                            noise_sigma: float = 0.0,
                            n_points: int = 600,
                            processes: int | None = None) -> np.ndarray:
    """Challenge a whole chip population in one batched solve.

    All mismatch seeds of one design share structure, so the ensemble
    engine integrates them through a single vectorized RHS instead of
    one scipy run per chip (``processes`` shards large populations
    across a pool). Returns a ``(n_chips, n_bits)`` bit matrix whose
    rows equal :func:`evaluate_puf` of the corresponding seed.
    """
    from repro.sim import run_ensemble

    seeds = list(seeds)
    horizon = t_end if t_end is not None else window[1] * 1.05
    result = run_ensemble(
        ChipFactory(design, challenge), seeds,
        (0.0, horizon), n_points=n_points, processes=processes)
    times = _window_times(window, n_bits)
    if len(result.batches) == 1 and not result.serial_indices:
        samples = result.batches[0].sample("OUT_V", times)
    else:
        samples = np.stack([trajectory.sample("OUT_V", times)
                            for trajectory in result.trajectories])
    bits = []
    for row, seed in enumerate(seeds):
        rng = (_readout_rng(seed, challenge)
               if noise_sigma > 0.0 else None)
        bits.append(encode_response(samples[row], rng=rng,
                                    noise_sigma=noise_sigma))
    return np.stack(bits)


def evaluate_puf_noisy(design: PufDesign, challenge, seeds, *,
                       trials: int = 8,
                       n_bits: int = 32,
                       window: tuple[float, float] = DEFAULT_WINDOW,
                       t_end: float | None = None,
                       n_points: int = 600,
                       method: str = "heun",
                       trial_base: int = 0,
                       processes: int | None = None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Repeated transient-noise evaluations of every chip, batched.

    The design must carry transient noise (``PufDesign(noise=...)``);
    every (chip, trial) pair runs with an independent deterministic
    Wiener realization, all in one vectorized SDE batch per structural
    group — through the unified plan driver, so ``processes`` shards
    the (chip × trial) batch across a pool bit-identically. Returns
    ``(references, trial_bits)``: the noise-free ``(n_chips, n_bits)``
    reference responses and the ``(n_chips, trials, n_bits)`` noisy
    responses.
    """
    from repro.sim import run_ensemble

    if design.noise <= 0.0:
        raise ValueError(
            "evaluate_puf_noisy needs a transiently noisy design — "
            "construct it with PufDesign(noise=...) (> 0); for "
            "readout-stage noise use puf_reliability(mode='readout')")
    seeds = list(seeds)
    horizon = t_end if t_end is not None else window[1] * 1.05
    result = run_ensemble(
        ChipFactory(design, challenge), seeds,
        (0.0, horizon), trials=trials, n_points=n_points,
        sde_method=method, noise_seed=trial_base, reference=True,
        processes=processes)
    times = _window_times(window, n_bits)
    references = np.stack([
        encode_response(result.reference(chip).sample("OUT_V", times))
        for chip in range(len(seeds))])
    trial_bits = np.empty((len(seeds), trials, n_bits), dtype=np.uint8)
    for chip in range(len(seeds)):
        batch, rows = result.trial_rows(chip)
        samples = batch.sample("OUT_V", times)[rows]
        for trial in range(trials):
            trial_bits[chip, trial] = encode_response(samples[trial])
    return references, trial_bits


def puf_reliability(design: PufDesign, challenge, seeds, *,
                    trials: int = 8,
                    mode: str = "transient",
                    readout_sigma: float = 2e-3,
                    n_bits: int = 32,
                    window: tuple[float, float] = DEFAULT_WINDOW,
                    t_end: float | None = None,
                    n_points: int = 600,
                    method: str = "heun",
                    processes: int | None = None) -> ReliabilityReport:
    """Intra-chip reliability of a chip population (ideal 1.0).

    :param mode: ``"transient"`` (default) — repeated noisy SDE runs of
        each chip against its deterministic reference; the design must
        carry ``PufDesign(noise=...)``. ``"readout"`` — the legacy
        model: one deterministic run per chip, ``trials`` seeded
        Gaussian perturbations of the sampled voltages.
    :param processes: optional pool width for sharding the batched
        solves (picklable by construction: the chip factory is a
        :class:`ChipFactory`).
    """
    seeds = list(seeds)
    if mode == "transient":
        references, trial_bits = evaluate_puf_noisy(
            design, challenge, seeds, trials=trials, n_bits=n_bits,
            window=window, t_end=t_end, n_points=n_points,
            method=method, processes=processes)
    elif mode == "readout":
        horizon = t_end if t_end is not None else window[1] * 1.05
        from repro.sim import run_ensemble

        result = run_ensemble(
            ChipFactory(design, challenge), seeds,
            (0.0, horizon), n_points=n_points, processes=processes)
        times = _window_times(window, n_bits)
        trial_bits = np.empty((len(seeds), trials, n_bits),
                              dtype=np.uint8)
        references = np.empty((len(seeds), n_bits), dtype=np.uint8)
        for chip, seed in enumerate(seeds):
            samples = result.trajectories[chip].sample("OUT_V", times)
            references[chip] = encode_response(samples)
            for trial in range(trials):
                rng = _readout_rng(seed, challenge, trial)
                trial_bits[chip, trial] = encode_response(
                    samples, rng=rng, noise_sigma=readout_sigma)
    else:
        raise ValueError(f"unknown reliability mode {mode!r}; expected "
                         "'transient' or 'readout'")
    per_chip = np.array([
        reliability(references[chip], list(trial_bits[chip]))
        for chip in range(len(seeds))])
    return ReliabilityReport(mode=mode, seeds=seeds, trials=trials,
                             per_chip=per_chip,
                             references=references,
                             trial_bits=trial_bits)


def random_challenges(design: PufDesign, count: int, seed: int = 0,
                      ) -> list[int]:
    """Distinct random challenges (all of them when the space is small)."""
    space = 1 << design.n_bits
    rng = np.random.default_rng(seed)
    if count >= space:
        return list(range(space))
    picks = rng.choice(space, size=count, replace=False)
    return [int(p) for p in picks]
