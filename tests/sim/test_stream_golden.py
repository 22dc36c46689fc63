"""Golden digests of seeded randomness: mismatched attribute values and
noisy PUF trajectories, recorded before streams were seeded in bulk.

Every value these digests cover is drawn from a PCG64 stream keyed by
``(seed, element, attr/path)``. Seeding those streams in one vectorized
pass (:func:`repro.core.noise.seed_words`), deferring the builder's
mismatch draws, and scattering diffusion terms by occurrence layers
must leave every bit unchanged; a digest mismatch means a realization
moved. The digests are SHA-256 over exact float64 bytes, so they pin
results on the IEEE-754 float64 numpy/scipy stack the suite runs on.
"""

import hashlib

import numpy as np
import pytest

from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.puf import PufDesign, puf_reliability
from repro.puf.response import DEFAULT_WINDOW, ChipFactory
from repro.sim import run_ensemble

BRANCHES = dict(branch_positions=(3, 6), branch_lengths=(4, 6))
NOISY = PufDesign(spec=TLineSpec(n_segments=10), noise=1e-8, **BRANCHES)
SPAN = (0.0, DEFAULT_WINDOW[1] * 1.05)

MISMATCH_DIGEST = \
    "bc20c03fadf32a38d8b1bbe1dd5e6a828d2e8eef38eccc7afc495beee13864e3"
READOUT_DIGEST = \
    "a587cad466ff6c19905556d1dbff3069397e09b7e45e544bd100628c0ce6a48b"
TRAJECTORY_DIGESTS = {
    "heun":
        "a47bab39f273f32e3647568dbd42955cc8536469b74201154182675b1910b8ec",
    "em":
        "3f44fdc2c14f51f608d98d88618545b17cc3d1105896399cd83296da7a8f49c3",
    # Additive noise: Milstein's correction vanishes, so it is em.
    "milstein":
        "3f44fdc2c14f51f608d98d88618545b17cc3d1105896399cd83296da7a8f49c3",
    "heun-adaptive":
        "cc3a1c0b3c38c7f0290fe7d183a0179b528bb5a8d2eb9ad51062647b858c3168",
    "em-adaptive":
        "c84d4e8503d0716c25fdfb49ddf6abb50a3dfbe957e3b092621de849f6755f81",
}


def test_mismatched_attribute_values():
    """Every numeric attribute and initial value of the Fig. 5 ``gm``
    and ``cint`` lines, mismatch seeds -3..39."""
    digest = hashlib.sha256()
    for kind in ("gm", "cint"):
        for seed in range(-3, 40):
            graph = mismatched_tline(kind, seed=seed)
            for element in list(graph.nodes) + list(graph.edges):
                digest.update(element.name.encode())
                for attr in sorted(element.attrs):
                    value = element.attrs[attr]
                    if isinstance(value, (int, float)):
                        digest.update(
                            f"{attr}={float(value).hex()}".encode())
                for index in sorted(getattr(element, "inits", {})):
                    value = float(element.inits[index])
                    digest.update(f"init{index}={value.hex()}".encode())
    assert digest.hexdigest() == MISMATCH_DIGEST


@pytest.mark.parametrize("method", sorted(TRAJECTORY_DIGESTS))
def test_noisy_puf_trajectories(method):
    """4 chips x 4 noise trials of the branched PUF line: Wiener
    streams (fixed-step) and bridge streams (adaptive)."""
    result = run_ensemble(ChipFactory(NOISY, 2), [0, 1, 2, 3], SPAN,
                          trials=4, n_points=200, sde_method=method,
                          reference=False, rtol=1e-3, atol=1e-4,
                          max_step=SPAN[1] / 400)
    digest = hashlib.sha256()
    for batch in result.batches:
        digest.update(np.ascontiguousarray(batch.y).tobytes())
    assert digest.hexdigest() == TRAJECTORY_DIGESTS[method]


def test_readout_reliability_bits():
    """``puf_reliability``'s legacy readout mode: the per-(chip,
    challenge, trial) readout streams."""
    quiet = PufDesign(spec=TLineSpec(n_segments=10), **BRANCHES)
    report = puf_reliability(quiet, 2, [0, 1], trials=3, mode="readout",
                             n_points=200)
    digest = hashlib.sha256(
        np.ascontiguousarray(report.trial_bits).tobytes())
    assert digest.hexdigest() == READOUT_DIGEST
