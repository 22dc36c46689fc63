"""Transient-noise analysis metrics.

Where :mod:`repro.analysis.spread` quantifies *inter-chip* variation
(fabrication mismatch across an ensemble), these helpers quantify
*intra-chip* variation: how far one chip's repeated noisy transients
wander from its deterministic reference, and how much usable signal
survives — the quantities behind PUF reliability and the OBC
quality-vs-noise tradeoff.
"""

from __future__ import annotations

import numpy as np

from repro.sim.ensemble import EnsembleResult


def trial_matrix(result: EnsembleResult, chip_index: int,
                 node: str, times: np.ndarray) -> np.ndarray:
    """One chip's noise trials sampled at common times:
    shape (trials, n_t)."""
    times = np.asarray(times, dtype=float)
    batch, rows = result.trial_rows(chip_index)
    return batch.sample(node, times)[rows]


def trial_spread(result: EnsembleResult, node: str,
                 window: tuple[float, float],
                 n_samples: int = 100) -> np.ndarray:
    """Per-chip scalar noise spread: the mean pointwise standard
    deviation across that chip's trials inside the window. The
    intra-chip counterpart of
    :func:`repro.analysis.spread.window_spread`."""
    times = np.linspace(window[0], window[1], n_samples)
    return np.array([
        trial_matrix(result, chip, node, times).std(axis=0).mean()
        for chip in range(len(result.seeds))])


def noise_snr(result: EnsembleResult, node: str,
              window: tuple[float, float],
              n_samples: int = 100) -> np.ndarray:
    """Per-chip signal-to-noise ratio inside the window: RMS of the
    deterministic reference over the mean trial deviation from it."""
    times = np.linspace(window[0], window[1], n_samples)
    ratios = []
    for chip in range(len(result.seeds)):
        reference = result.reference(chip).sample(node, times)
        trials = trial_matrix(result, chip, node, times)
        signal = float(np.sqrt(np.mean(reference ** 2)))
        deviation = float(
            np.sqrt(np.mean((trials - reference[None, :]) ** 2)))
        ratios.append(np.inf if deviation == 0.0
                      else signal / deviation)
    return np.array(ratios)


def bit_error_rate(reference_bits: np.ndarray,
                   trial_bits: np.ndarray) -> float:
    """Fraction of noisy response bits flipped vs. the reference.

    ``reference_bits`` is (n_chips, n_bits), ``trial_bits`` is
    (n_chips, trials, n_bits) — the shapes
    :func:`repro.puf.evaluate_puf_noisy` returns.
    """
    reference_bits = np.asarray(reference_bits, dtype=np.uint8)
    trial_bits = np.asarray(trial_bits, dtype=np.uint8)
    if not trial_bits.size:
        return 0.0
    return float((trial_bits != reference_bits[:, None, :]).mean())
