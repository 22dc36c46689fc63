"""Golden digests of every sweep route: the default in-process batch,
the pooled batch, scipy groups (in-process, and sharded over the pool
once they reach 64 rows) and the pooled noisy batch with its
references.

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
#: serial solves): a pooled group runs 2 shards, a scipy group counts
#: one solve per instance wherever it runs, and a group below 64 rows
#: stays in-process even with processes=2.
CASES = {
    "auto-16": (lambda: _tline(16), (False, 0, 0)),
    "rk4-64-pooled": (lambda: _tline(64, method="rk4", processes=2),
                      (True, 2, 0)),
    "rk45-serial": (lambda: _tline(4, method="RK45"), (False, 0, 4)),
    "rk45-serial-pooled": (
        lambda: _tline(4, method="RK45", processes=2), (False, 0, 4)),
    "rk45-64-pooled": (
        lambda: _tline(64, method="RK45", processes=2), (True, 2, 64)),
    # 128 noisy rows take the pool; the 4 reference rows do not.
    "heun-4x32-pooled": (lambda: _puf("heun", processes=2),
                         (True, 2, 0)),
    "heun-adaptive-4x32-pooled": (
        lambda: _puf("heun-adaptive", processes=2, reference=False),
        (True, 2, 0)),
}

GOLDEN = {
    "auto-16":
        "12d05e615bda2f22133027a4b9d49d559798f24d0b8cc5fc88759889ed00d5ef",
    "rk4-64-pooled":
        "accf9f1ed7174da86a4c55e0f2b549511a410c315e9682d456210586066fc71b",
    "rk45-serial":
        "9afad0684b82290b06b4aae23651ab219fd513530116b00248d346ca8ccb1b45",
    # Below 64 rows the scipy group runs in-process.
    "rk45-serial-pooled":
        "9afad0684b82290b06b4aae23651ab219fd513530116b00248d346ca8ccb1b45",
    # Recorded in-process: each pool shard makes the same simulate
    # call per row.
    "rk45-64-pooled":
        "dc8115c108349e196fa98ce28606f2a7586cf232553ed53cc3e79d77cd7f21b6",
    "heun-4x32-pooled":
        "0ced0ba2a605f4c25e24b09da6d7d29b52cbbe32dcb330bb9b5808b5caabbf3a",
    "heun-adaptive-4x32-pooled":
        "2bb9e755948c9807a28a4b53f483880f44ee2a8667519c8815176091f0e3f3a9",
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
