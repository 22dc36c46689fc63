"""Golden digests of every sweep route: the default in-process batch,
the pooled batch, the serial scipy path (in-process and fanned out over
the pool) and the pooled noisy batch with its references.

A sweep's route follows from its own inputs — the method, the number of
rows and ``processes`` — and a change to how that route is chosen must
not move a single result. Each case pins the exact float64 bytes of
every row (and reference) together with the route it took, read from
the run's telemetry counters. The digests are SHA-256 over exact
float64 bytes, so they pin results on the IEEE-754 float64
numpy/scipy stack the suite runs on.
"""

import hashlib

import numpy as np
import pytest

from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.puf import PufDesign
from repro.puf.response import DEFAULT_WINDOW, ChipFactory
from repro.sim import run_ensemble
from repro.sim.pool import _POOLS, shutdown_pools

TLINE_SPAN = (0.0, 4e-8)
NOISY = PufDesign(spec=TLineSpec(n_segments=10), noise=1e-8,
                  branch_positions=(3, 6), branch_lengths=(4, 6))
PUF_SPAN = (0.0, DEFAULT_WINDOW[1] * 1.05)


class TlineFactory:
    """Module-level (picklable) factory, so pooled cases can ship it."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


def _tline(seeds, **options):
    return run_ensemble(TlineFactory(), range(seeds), TLINE_SPAN,
                        n_points=40, telemetry=True, **options)


def _puf(sde_method, **options):
    return run_ensemble(ChipFactory(NOISY, 2), [0, 1, 2, 3], PUF_SPAN,
                        trials=32, n_points=50, sde_method=sde_method,
                        rtol=1e-3, atol=1e-4, telemetry=True, **options)


#: case -> (sweep, route). The route is (pool started, pool shards,
#: serial solves): the pooled batch runs 2 shards, the serial path
#: counts one solve per instance and fans out over the pool only when
#: one was started; the in-process batch shows none of the three.
CASES = {
    "auto-16": (lambda: _tline(16), (False, 0, 0)),
    "rk4-64-pooled": (lambda: _tline(64, method="rk4", processes=2),
                      (True, 2, 0)),
    "rk45-serial": (lambda: _tline(4, method="RK45"), (False, 0, 4)),
    "rk45-serial-pooled": (
        lambda: _tline(4, method="RK45", processes=2), (True, 0, 4)),
    # 128 noisy rows take the pool; the 4 reference rows do not.
    "heun-4x32-pooled": (lambda: _puf("heun", processes=2),
                         (True, 2, 0)),
    "heun-adaptive-4x32-pooled": (
        lambda: _puf("heun-adaptive", processes=2, reference=False),
        (True, 2, 0)),
}

GOLDEN = {
    "auto-16":
        "937332717a23828edfedebfd226ab0eb4845a474b00d53a1d7d30afb610cc885",
    "rk4-64-pooled":
        "db17d18ad55712166eb60885bb3dbc0cf22f83ac842f98db1e55ed86c404a35f",
    "rk45-serial":
        "1ce2c75b8f60f3727fb2baaabc7e904e480d225949128006fa446fcad3280f55",
    # The pool fan-out runs the same simulate call per seed.
    "rk45-serial-pooled":
        "1ce2c75b8f60f3727fb2baaabc7e904e480d225949128006fa446fcad3280f55",
    "heun-4x32-pooled":
        "5b37385290093034d35550a3625f386eb5cead7c01a93ca879380501c5d27a5c",
    "heun-adaptive-4x32-pooled":
        "165a7f6a62cea34d5ec4eb06516246c6b9cf2a7cee23d65ac514a8bfa3582bf8",
}


def _digest(result) -> str:
    digest = hashlib.sha256()
    for trajectory in result.trajectories:
        digest.update(np.ascontiguousarray(trajectory.t).tobytes())
        digest.update(np.ascontiguousarray(trajectory.y).tobytes())
    for reference in result.references or []:
        digest.update(np.ascontiguousarray(reference.y).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_route_results(case):
    sweep, route = CASES[case]
    shutdown_pools()
    try:
        result = sweep()
        started = bool(_POOLS)
    finally:
        shutdown_pools()
    report = result.telemetry
    assert (started, report.counter("pool.shards"),
            report.counter("serial.solves")) == route
    assert _digest(result) == GOLDEN[case]
