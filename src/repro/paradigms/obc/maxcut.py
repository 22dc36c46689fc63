"""The OBC max-cut solver (§7.2, Table 1).

Mapping: every graph vertex becomes an oscillator, every graph edge a
coupling with strength k = -1 (anti-ferromagnetic — the Kuramoto flow
then drives adjacent oscillators toward anti-phase, so the binarized
phases encode a large cut). Every oscillator carries the
second-harmonic-injection self edge that locks phases to {0, pi}.

Readout: at steady state, phases within ``d`` radians of 0 (mod 2*pi) go
to partition 0, within ``d`` of pi to partition 1; anything else is
*unknown*. A trial "synchronizes" when no oscillator is unknown and is
"solved" when the resulting cut matches the brute-force maximum. The
deviation tolerance ``d`` is external to the circuit, which is exactly
what makes the paper's offset-mitigation story possible: the same
trajectory is re-read with a wider ``d``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import GraphBuilder
from repro.core.graph import DynamicalGraph
from repro.core.language import Language
from repro.core.simulator import Trajectory, simulate
from repro.paradigms.obc.graphs import brute_force_maxcut, cut_value
from repro.paradigms.obc.language import obc_language
from repro.paradigms.obc.ofs import ofs_obc_language

#: Default steady-state horizon: with C1/C2 ~ 1e9 rad/s the network locks
#: within tens of nanoseconds.
DEFAULT_T_END = 100e-9

#: Paper coupling strength for max-cut edges.
MAXCUT_COUPLING = -1.0


def maxcut_network(edges: list[tuple[int, int]], n_vertices: int, *,
                   initial_phases=None,
                   language: Language | None = None,
                   edge_type: str = "Cpl",
                   coupling: float = MAXCUT_COUPLING,
                   weights: list[float] | None = None,
                   seed: int | None = None,
                   noise_sigma: float = 0.0) -> DynamicalGraph:
    """Build the coupled-oscillator network for a max-cut instance.

    :param initial_phases: per-oscillator starting phases (defaults to
        zero; the solver randomizes them per trial).
    :param edge_type: ``Cpl`` for the ideal solver or ``Cpl_ofs`` for the
        offset-afflicted one (requires the ofs-obc language and a seed).
    :param weights: optional positive edge weights (weighted Ising
        instances); coupling strength becomes ``coupling * weight``.
    :param noise_sigma: per-oscillator phase-noise amplitude (rad·√s);
        > 0 swaps the SHIL self edges for the ns-obc ``Cpln`` type and
        makes the network a stochastic system (integrate with
        :func:`repro.sim.solve_sde`).
    """
    noisy = noise_sigma > 0.0
    if language is None:
        if noisy:
            from repro.paradigms.obc.noisy import ns_obc_language
            language = ns_obc_language()
        else:
            language = (ofs_obc_language() if edge_type == "Cpl_ofs"
                        else obc_language())
    builder = GraphBuilder(language, "maxcut", seed=seed)
    phases = np.zeros(n_vertices) if initial_phases is None \
        else np.asarray(initial_phases, dtype=float)
    self_type = "Cpln" if noisy else "Cpl"
    for vertex in range(n_vertices):
        name = f"Osc_{vertex}"
        builder.node(name, "Osc")
        builder.set_init(name, float(phases[vertex]))
        builder.edge(name, name, f"Shil_{vertex}", self_type)
        builder.set_attr(f"Shil_{vertex}", "k", 0.0)
        if noisy:
            builder.set_attr(f"Shil_{vertex}", "nsig", noise_sigma)
    for index, (i, j) in enumerate(edges):
        edge_name = f"Cpl_{index}"
        builder.edge(f"Osc_{i}", f"Osc_{j}", edge_name, edge_type)
        weight = 1.0 if weights is None else float(weights[index])
        builder.set_attr(edge_name, "k", coupling * weight)
        if edge_type == "Cpl_ofs":
            builder.set_attr(edge_name, "offset", 0.0)
    return builder.finish()


def classify_phase(phase: float, d: float) -> int | None:
    """Fold a phase into [0, 2*pi) and bin it: 0 near {0, 2*pi}, 1 near
    pi, None (unknown) elsewhere. ``d`` is the tolerance in radians."""
    folded = math.fmod(phase, 2.0 * math.pi)
    if folded < 0:
        folded += 2.0 * math.pi
    if min(folded, 2.0 * math.pi - folded) <= d:
        return 0
    if abs(folded - math.pi) <= d:
        return 1
    return None


def extract_partition(trajectory: Trajectory, n_vertices: int,
                      d: float) -> list[int | None]:
    """Steady-state partition read from the final oscillator phases."""
    return [classify_phase(trajectory.final(f"Osc_{v}"), d)
            for v in range(n_vertices)]


@dataclass
class MaxcutResult:
    """Outcome of one max-cut trial at one readout tolerance."""

    edges: list[tuple[int, int]]
    n_vertices: int
    d: float
    partition: list[int | None] = field(default_factory=list)
    optimal_cut: float = 0
    weights: list[float] | None = None

    @property
    def synchronized(self) -> bool:
        """Every oscillator settled within d of 0 or pi."""
        return all(p is not None for p in self.partition)

    @property
    def cut(self) -> float | None:
        if not self.synchronized:
            return None
        return cut_value(self.edges, self.partition, self.weights)

    @property
    def solved(self) -> bool:
        """Synchronized and the cut is maximal (small float tolerance
        for weighted instances)."""
        if not self.synchronized:
            return False
        return self.cut >= self.optimal_cut - 1e-9


def solve_maxcut(edges: list[tuple[int, int]], n_vertices: int, *,
                 d: float | tuple[float, ...] = 0.01 * math.pi,
                 initial_phases=None,
                 edge_type: str = "Cpl",
                 language: Language | None = None,
                 weights: list[float] | None = None,
                 seed: int | None = None,
                 t_end: float = DEFAULT_T_END,
                 method: str = "RK45",
                 rng: np.random.Generator | None = None,
                 ) -> MaxcutResult | list[MaxcutResult]:
    """Run the solver on one instance and read out the partition.

    ``d`` may be a single tolerance or a tuple — the same trajectory is
    then re-read at each tolerance (the paper's mitigation experiment).
    ``weights`` turns the instance into weighted max-cut (the weighted
    Ising machine workload of [7]).
    """
    if initial_phases is None:
        rng = rng or np.random.default_rng(seed)
        initial_phases = rng.uniform(0.0, 2.0 * math.pi, n_vertices)
    graph = maxcut_network(edges, n_vertices,
                           initial_phases=initial_phases,
                           language=language, edge_type=edge_type,
                           weights=weights, seed=seed)
    trajectory = simulate(graph, (0.0, t_end), n_points=60,
                          method=method, rtol=1e-8, atol=1e-10)
    optimal = brute_force_maxcut(edges, n_vertices, weights)

    tolerances = d if isinstance(d, tuple) else (d,)
    results = []
    for tolerance in tolerances:
        result = MaxcutResult(edges=edges, n_vertices=n_vertices,
                              d=tolerance, optimal_cut=optimal,
                              weights=weights)
        result.partition = extract_partition(trajectory, n_vertices,
                                             tolerance)
        results.append(result)
    return results if isinstance(d, tuple) else results[0]


@dataclass
class MaxcutSweep:
    """Aggregate statistics over a population of instances (Table 1)."""

    d: float
    trials: int = 0
    synchronized: int = 0
    solved: int = 0

    @property
    def sync_probability(self) -> float:
        return self.synchronized / self.trials if self.trials else 0.0

    @property
    def solved_probability(self) -> float:
        return self.solved / self.trials if self.trials else 0.0

    def record(self, result: MaxcutResult):
        self.trials += 1
        self.synchronized += int(result.synchronized)
        self.solved += int(result.solved)


def maxcut_experiment(graphs: list[list[tuple[int, int]]],
                      n_vertices: int = 4, *,
                      tolerances: tuple[float, ...] = (0.01 * math.pi,
                                                       0.1 * math.pi),
                      edge_type: str = "Cpl",
                      language: Language | None = None,
                      mismatch_seeds: bool = False,
                      seed: int = 0,
                      t_end: float = DEFAULT_T_END,
                      ) -> dict[float, MaxcutSweep]:
    """The Table 1 experiment for one solver configuration.

    :param mismatch_seeds: when True every trial uses its own mismatch
        seed (a different fabricated instance per trial, §4.3); the
        ideal solver passes False so no mismatch is sampled.
    """
    sweeps = {tolerance: MaxcutSweep(d=tolerance)
              for tolerance in tolerances}
    rng = np.random.default_rng(seed)
    for index, edges in enumerate(graphs):
        initial = rng.uniform(0.0, 2.0 * math.pi, n_vertices)
        results = solve_maxcut(
            edges, n_vertices, d=tuple(tolerances),
            initial_phases=initial, edge_type=edge_type,
            language=language,
            seed=(seed * 100003 + index) if mismatch_seeds else None,
            t_end=t_end)
        for result in results:
            sweeps[result.d].record(result)
    return sweeps


#: Fixed-step cap of the explicit SDE solvers on Kuramoto dynamics of
#: maximum vertex degree 2 (cycles and paths). A vertex of degree k
#: puts ~C1*k + 2*C2 rad/s on the Jacobian diagonal (5.2e9 at k = 2)
#: and its coupling rows grow with k too, so :func:`maxcut_noise_sweep`
#: scales the cap by ``2 / max(2, k)``. At 2.5e-10 s heun on a
#: 5-vertex graph of degree 3 settles on non-binary phases that rk4
#: does not.
NOISE_MAX_STEP = 2.5e-10


@dataclass
class NoisePoint:
    """Solution quality of the noisy solver at one noise amplitude."""

    noise_sigma: float
    trials: int = 0
    synchronized: int = 0
    solved: int = 0
    cut_ratios: list[float] = field(default_factory=list)

    @property
    def sync_probability(self) -> float:
        return self.synchronized / self.trials if self.trials else 0.0

    @property
    def solved_probability(self) -> float:
        return self.solved / self.trials if self.trials else 0.0

    @property
    def mean_cut_ratio(self) -> float:
        """Mean achieved-cut / optimal-cut over synchronized trials."""
        if not self.cut_ratios:
            return 0.0
        return float(np.mean(self.cut_ratios))


def maxcut_noise_sweep(edges: list[tuple[int, int]], n_vertices: int,
                       noise_sigmas, *, trials: int = 16,
                       d: float = 0.1 * math.pi,
                       t_end: float = DEFAULT_T_END,
                       n_points: int = 60,
                       max_step: float | None = None,
                       method: str = "heun",
                       seed: int = 0,
                       freeze_tol: float | None = None,
                       ) -> list[NoisePoint]:
    """Solution quality vs. phase-noise amplitude (batched SDE sweep).

    For each amplitude, ``trials`` independent runs — each with its own
    random initial phases (shared across amplitudes, so the comparison
    isolates the noise) and its own Wiener realization — are integrated
    in one vectorized SDE batch. The readout follows Table 1: a trial
    synchronizes when every phase bins within ``d`` of {0, pi} and is
    solved when its cut is maximal.

    :param max_step: the solvers' step cap; by default
        :data:`NOISE_MAX_STEP` scaled by ``2 / max(2, k)`` for the
        graph's maximum vertex degree ``k``.
    :param freeze_tol: per-instance step masks — settled trials freeze
        instead of stepping to the horizon (see
        :func:`repro.sim.solve_sde`); an approximation knob, off by
        default. It pays on the noise-free amplitude, whose trials all
        settle: for 64 trials of a 5-vertex, 7-edge graph at the
        default grid, ``freeze_tol=1`` freezes every row, cuts the
        batched rk4 from 1652 to 290 RHS evaluations (0.19 to 0.04 s on
        a 2-CPU host) and moves no phase by more than 3.4e-9 rad. At
        sigma 0.05 or 0.2 no trial freezes, and the per-interval
        convergence checks add 58 evaluations to heun's 826.
    """
    from repro.core.compiler import compile_graph
    from repro.paradigms.obc.noisy import MaxcutTrialFactory
    from repro.sim.plan import solve_rows

    if max_step is None:
        degree = Counter(vertex for edge in edges for vertex in edge)
        max_step = NOISE_MAX_STEP * 2 / max([2, *degree.values()])
    rng = np.random.default_rng(seed)
    initials = rng.uniform(0.0, 2.0 * math.pi, (trials, n_vertices))
    optimal = brute_force_maxcut(edges, n_vertices)
    points: list[NoisePoint] = []
    for sigma in noise_sigmas:
        factory = MaxcutTrialFactory(
            edges=tuple(tuple(edge) for edge in edges),
            n_vertices=n_vertices,
            initials=tuple(tuple(row) for row in initials),
            noise_sigma=float(sigma))
        systems = [compile_graph(factory(trial))
                   for trial in range(trials)]
        # A noise-free amplitude is the Wiener-free case: batched rk4.
        tokens = ([f"{seed}:{k}" for k in range(trials)]
                  if sigma > 0.0 else None)
        batch = solve_rows(systems, tokens, (0.0, t_end), dict(
            n_points=n_points, method=method if tokens else "rk4",
            max_step=max_step, freeze_tol=freeze_tol))
        point = NoisePoint(noise_sigma=float(sigma))
        for trial in range(trials):
            result = MaxcutResult(edges=edges, n_vertices=n_vertices,
                                  d=d, optimal_cut=optimal)
            result.partition = extract_partition(
                batch.instance(trial), n_vertices, d)
            point.trials += 1
            point.synchronized += int(result.synchronized)
            point.solved += int(result.solved)
            if result.synchronized and optimal > 0:
                point.cut_ratios.append(result.cut / optimal)
        points.append(point)
    return points
