"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one of the paper's tables or
figures (reduced size; ``benchmarks/run_experiments.py`` produces the
full-size numbers) and measures the performance of its computational
kernel with pytest-benchmark. Reproduced numbers are printed through
:func:`report`, which both echoes to stdout (visible with ``-s``) and
appends to ``benchmarks/_results/<name>.txt`` so the artifacts survive
output capturing.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


def report(name: str, lines: list[str]):
    """Print reproduction lines and persist them under _results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n[{name}]\n{text}")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def mismatch_maxcut_factory():
    """The shared ensemble-engine benchmark workload: one fabricated
    ``Cpl_ofs`` instance of the Table 1 4-cycle per seed, with fixed
    starting phases so every instance shares structure and the batched
    engine applies. Used by the pytest benchmarks
    (``bench_table1_maxcut.py``)."""
    import math

    import numpy as np

    from repro.paradigms.obc import maxcut_network

    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 4)
    return lambda seed: maxcut_network(edges, 4, initial_phases=phases,
                                       edge_type="Cpl_ofs", seed=seed)


def pytest_collection_modifyitems(items):
    """Keep benchmark ordering stable: reports run after their
    benchmarks within each module (pytest preserves file order, this is
    just a no-op hook kept for clarity)."""
