"""The host-speed probe that end-to-end timings are scaled by.

On a shared host the vCPUs run a fixed loop up to 1.8x slower from
one minute to the next: CPU time equals wall time and no steal is
reported, so the slowdown is invisible to the guest, and every sweep
slows with it. Raw sweep times of runs a few minutes apart then
differ by more than any regression bound. The benchmark therefore
times this fixed probe just before and just after each untraced sweep
and each set-up, and scales that timing by ``NOMINAL_PROBE_S`` over
the mean of the two probe times. The scaled timing reads as seconds
on a host that runs the probe in ``NOMINAL_PROBE_S``.

The probe is benchmark code, so no change to the program moves it. It
mixes the kinds of work the sweeps do: small-object graph building,
dict and string handling, interpreter arithmetic, and small numpy
array steps. No single kind tracks the sweeps well on its own: sweep
times move 0.6x (object work) to 1.1x (arithmetic) as much as each
kind alone, and 0.86x as much as the mix.
"""

from __future__ import annotations

import time

import numpy as np

#: A fixed reference for :func:`probe_seconds`, near its usual time on
#: the 2-vCPU Xeon host the benchmark was written on. Only its
#: constancy matters: it sets the scale of the scaled timings.
NOMINAL_PROBE_S = 0.04
#: Best of this many probe passes; the rest absorb interruptions.
PROBE_REPEATS = 3


class _Node:
    __slots__ = ("name", "value", "edges")

    def __init__(self, name: str, value: float) -> None:
        self.name = name
        self.value = value
        self.edges: list[_Node] = []


def _objects() -> int:
    nodes: dict[str, _Node] = {}
    for i in range(3000):
        node = _Node(f"n{i}", i * 0.5)
        nodes[node.name] = node
        if i:
            node.edges.append(nodes[f"n{i - 1}"])
    text = [f"{name}:{node.value:.3g}" for name, node in nodes.items()]
    return len(",".join(text))


def _table() -> int:
    table = {str(i): i * 2 for i in range(30000)}
    return sum(table.values())


def _arithmetic() -> int:
    x = 0
    for i in range(100000):
        x = (x * 31 + i) & 0xFFFF
    return x


def _arrays() -> float:
    a = np.linspace(0.0, 1.0, 64 * 200).reshape(64, 200)
    for _ in range(100):
        a = a + 0.1 * np.sin(a) * a - a * 1e-3
    m = np.arange(4096.0).reshape(64, 64)
    for _ in range(20):
        m = np.tanh(m @ m.T * 1e-6)
    return float(a.sum() + m.sum())


def probe_seconds() -> float:
    """The probe's best wall time of PROBE_REPEATS passes, now."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        _objects()
        _table()
        _arithmetic()
        _arrays()
        best = min(best, time.perf_counter() - started)
    return best


def factor(before: float, after: float) -> float:
    """The scale for a timing bracketed by probe times ``before`` and
    ``after``: above 1 when the host ran fast, below 1 when slow."""
    return NOMINAL_PROBE_S * 2 / (before + after)
