"""Golden digests of the emitted batched kernels and of float32 sweeps.

``BatchRhs.source`` is the Python text every batched solve executes,
and its compiled code objects are cached by that text; the float32
precision policy rides on the same kernels with the dtype applied to
the arrays around them. Restructuring how the solvers and the code
generator reach numpy must leave both untouched: the kernel sources
byte for byte, and the float32 trajectories bit for bit. The digests
are SHA-256 over the source text and over the exact float32 bytes of
the batched trajectories, so they pin results on the IEEE-754
numpy/scipy stack the suite runs on.
"""

import hashlib

import numpy as np
import pytest

from repro.core.compiler import compile_graph
from repro.paradigms.obc import maxcut_network
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.puf import PufDesign
from repro.puf.response import DEFAULT_WINDOW, ChipFactory
from repro.sim import compile_batch, run_ensemble

NOISY = PufDesign(spec=TLineSpec(n_segments=10), noise=1e-8,
                  branch_positions=(3, 6), branch_lengths=(4, 6))
PUF_SPAN = (0.0, DEFAULT_WINDOW[1] * 1.05)
TLINE_SPAN = (0.0, 8e-8)


def _tline():
    return [compile_graph(mismatched_tline("gm", seed=seed))
            for seed in range(4)]


def _maxcut():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 4)
    return [compile_graph(
        maxcut_network(edges, 4, initial_phases=phases,
                       edge_type="Cpl_ofs", seed=seed))
        for seed in range(3)]


def _puf():
    factory = ChipFactory(NOISY, 2)
    return [compile_graph(factory(seed)) for seed in range(3)]


WORKLOADS = {"tline_gm": _tline, "maxcut_4": _maxcut, "puf_noisy": _puf}

SOURCE_DIGESTS = {
    ("tline_gm", True):
        "89faea0500a4162a59bfc68a1b783223cbf6724726ea6c5bec2d082aba223820",
    ("tline_gm", False):
        "4833ca5fe9b4afc072c86c475ef697cb46c6f68bf8555e960aaaeb1be6f14d8f",
    # The max-cut coupling is nonlinear in the phases: nothing fuses,
    # so both emitters give the same source.
    ("maxcut_4", True):
        "b7faaef5748fc6d4b5690fa638497138243f2423ee76450b476f6b3d04ce8a01",
    ("maxcut_4", False):
        "b7faaef5748fc6d4b5690fa638497138243f2423ee76450b476f6b3d04ce8a01",
    ("puf_noisy", True):
        "aab91136609225d13de067af4d460078bc79fa7a6311bfe32134c673d6bf80bd",
    ("puf_noisy", False):
        "37e32f1e06a1281ec2fed22f35777933791341677b02362b6ccdbcd9cd394e1d",
}

TRAJECTORY_DIGESTS = {
    "tline_rkf45_float32":
        "34ac6d0f31345a709133a07bba609559bce506eac76802d950724c4442b20de5",
    "puf_heun_float32":
        "b3e1d3838ce474d4ce4de6923e875a7fee530a65d68568b15e0779f145be04d7",
}


@pytest.mark.parametrize("dtype", ["numpy:float64", "numpy:float32"])
@pytest.mark.parametrize("workload, fuse", sorted(SOURCE_DIGESTS))
def test_kernel_source(workload, fuse, dtype):
    """The emitted source does not depend on the precision."""
    batch = compile_batch(WORKLOADS[workload](), fuse=fuse,
                          array_backend=dtype)
    digest = hashlib.sha256(batch.source.encode()).hexdigest()
    assert digest == SOURCE_DIGESTS[workload, fuse]


def _trajectory_digest(result):
    digest = hashlib.sha256()
    for batch in result.batches:
        assert batch.y.dtype == np.float32
        digest.update(np.ascontiguousarray(batch.y).tobytes())
    return digest.hexdigest()


def test_tline_rkf45_float32_trajectories():
    """16 mismatch seeds, one batched rkf45 group at float32."""
    result = run_ensemble(lambda seed: mismatched_tline("gm", seed=seed),
                          range(16), TLINE_SPAN, n_points=120,
                          method="rkf45", array_backend="numpy:float32")
    assert _trajectory_digest(result) == \
        TRAJECTORY_DIGESTS["tline_rkf45_float32"]


def test_puf_heun_float32_trajectories():
    """4 chips x 4 heun noise trials of the branched PUF line at
    float32: the float64 Wiener draws cast to float32."""
    result = run_ensemble(ChipFactory(NOISY, 2), [0, 1, 2, 3], PUF_SPAN,
                          trials=4, n_points=200, sde_method="heun",
                          reference=False, max_step=PUF_SPAN[1] / 400,
                          array_backend="numpy:float32")
    assert _trajectory_digest(result) == \
        TRAJECTORY_DIGESTS["puf_heun_float32"]
