"""Golden cache keys: the entry filenames ``run_ensemble(cache=dir)``
writes for three representative sweeps.

A disk cache outlives the code that filled it, so a key must not move
when the executor is restructured: a moved key silently turns every
stored sweep into a miss (or, worse, lets a different solve replay an
old entry). Each case lists the exact ``<sha256>.npz`` names the sweep
leaves in its cache directory; the names were recorded before the
deterministic and noisy sweeps shared one row expansion.
"""

import pytest

from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.puf import PufDesign
from repro.puf.response import DEFAULT_WINDOW, ChipFactory
from repro.sim import run_ensemble
from repro.sim.pool import shutdown_pools

TLINE_SPAN = (0.0, 4e-8)
NOISY = PufDesign(spec=TLineSpec(n_segments=10), noise=1e-8,
                  branch_positions=(3, 6), branch_lengths=(4, 6))
PUF_SPAN = (0.0, DEFAULT_WINDOW[1] * 1.05)


class TlineFactory:
    """Module-level (picklable) factory for the pool-split case."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


GOLDEN = {
    # 4 mismatch seeds, one batched rkf45 group.
    "tline_rkf45": [
        "d9e81f1c35f6346c66960114dcc3f916"
        "ebe680ee52823574c5b055a823d3e039",
    ],
    # 4 mismatch seeds, rk4, split over a 2-worker pool (storable:
    # fixed-step shards are bit-identical to the whole group).
    "tline_pool_rk4": [
        "eb3498cd9cdddf95c050e2cc40cdce0d"
        "649d88540d609caf645b262a70091895",
    ],
    # 4 chips x 4 heun trials of the branched PUF line.
    "puf_heun": [
        # The chips' rk4 reference entry.
        "a8cddc4ad6728ec2fd30ec8e839de162"
        "f26229a6ad40ea89a489ec9ece1c4ac3",
        # The noisy group's entry.
        "f30c6a9b4647ed94a66a59decad8250d"
        "92e526d19add5116fc760e2f8c405c25",
    ],
}


@pytest.fixture(autouse=True)
def _pool_small_groups(small_pool_groups):
    """The 4-seed pool case splits over 2 workers below the 64-row
    threshold, as it did when its key was recorded."""


def _sweep(case, directory):
    if case == "tline_rkf45":
        run_ensemble(TlineFactory(), range(4), TLINE_SPAN, n_points=40,
                     method="rkf45", cache=directory)
    elif case == "tline_pool_rk4":
        try:
            run_ensemble(TlineFactory(), range(4), TLINE_SPAN,
                         n_points=40, method="rk4", processes=2,
                         cache=directory)
        finally:
            shutdown_pools()
    else:
        run_ensemble(ChipFactory(NOISY, 2), [0, 1, 2, 3], PUF_SPAN,
                     trials=4, n_points=50, sde_method="heun",
                     cache=directory)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cache_filenames(case, tmp_path):
    _sweep(case, tmp_path)
    names = sorted(path.stem for path in tmp_path.glob("*.npz"))
    assert names == sorted(GOLDEN[case])
