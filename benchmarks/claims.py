"""The paper's evaluation (§4 of arXiv 2309.08774) as checked claims.

Each :class:`Claim` is one published number or ordering (or one claim
of an extension or ablation of this repository): where it comes from,
the paper's value, a ``measure(size)`` that reads a memoized
experiment, exactly one :class:`Check`, and the reason for the check's
tolerance. A claim with a ``deviation`` is one this repository knowingly
does not reproduce: its check compares the measurement with the
documented value instead of the paper's, so a regression still fails.

:data:`SIZES` gives the population counts of the three sizes: ``"ci"``
(the integration tests), ``"fast"`` (``run_experiments.py --fast``) and
``"full"`` (the paper's counts). Only populations change between sizes;
every spec and every check is the same at each. Each experiment runs
once per size and feeds every claim that reads it.
"""

from __future__ import annotations

import math
import operator
import pathlib
import time
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import numpy as np

import repro
from repro.analysis import observation_window, window_spread
from repro.circuits import compare_dg_netlist
from repro.paradigms.cnn import (LIBRARY, default_image,
                                 diffusion_step_response, edge_detector,
                                 expected_edges, run_cnn,
                                 run_library_template)
from repro.paradigms.fhn import (NeuronSpec, fhn_reference, neuron_chain,
                                 neuron_ring, resting_point,
                                 wave_arrival_times)
from repro.paradigms.gpac import (harmonic_oscillator, leaky,
                                  limit_cycle_amplitude, van_der_pol)
from repro.paradigms.obc import (maxcut_experiment, maxcut_network,
                                 maxcut_noise_sweep, place_greedy, place_kernighan_lin,
                                 place_random, placed_network,
                                 random_graphs, random_weights,
                                 solve_coloring, solve_maxcut)
from repro.paradigms.tln import (TLineSpec, branched_tline, linear_tline,
                                 mismatched_tline)
from repro.lang import parse_program
from repro.puf import (PufDesign, cross_validate, evaluate_puf,
                       puf_reliability, uniqueness)
from repro.puf.metrics import hamming_fraction

#: Population counts per size: fabricated chips (Fig. 4c/4d, PUF),
#: max-cut graphs (Table 1), netlists (§4.5) and random images per CNN
#: library template.
SIZES = {
    "ci": {"chips": 10, "graphs": 30, "netlists": 10, "images": 2},
    "fast": {"chips": 10, "graphs": 100, "netlists": 100, "images": 10},
    "full": {"chips": 100, "graphs": 1000, "netlists": 1000,
             "images": 10},
}

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """``measured <op> target`` for every element of ``measured``; the
    op ``"~"`` passes within ``tol`` of ``target``, where ``tol`` may be
    a function of the size."""

    op: str
    target: Any
    tol: float | Callable[[str], Any] = 0.0

    def tolerance(self, size: str):
        return self.tol(size) if callable(self.tol) else self.tol

    def passes(self, measured, size: str) -> bool:
        value = np.asarray(measured, dtype=float)
        if self.op == "~":
            return bool(np.all(np.abs(value - self.target)
                               <= self.tolerance(size)))
        return bool(np.all(_OPS[self.op](value, self.target)))

    def describe(self, size: str) -> str:
        if self.op == "~":
            return f"{show(self.target)} +- {show(self.tolerance(size))}"
        return f"{self.op} {show(self.target)}"


@dataclass(frozen=True)
class Claim:
    id: str
    source: str
    paper: str
    measure: Callable[[str], Any]
    check: Check
    reason: str
    deviation: str = ""

    @property
    def extension(self) -> bool:
        """Not one of the paper's tables or figures."""
        return self.source.startswith(("extension", "ablation"))

    def verdict(self, size: str) -> tuple[Any, str]:
        """The measurement at ``size`` and ``pass``, ``deviation`` or
        ``FAIL``."""
        measured = self.measure(size)
        if not self.check.passes(measured, size):
            return measured, "FAIL"
        return measured, "deviation" if self.deviation else "pass"


def show(value) -> str:
    """A measurement or target as printed in a verdict line."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return "(" + ", ".join(show(item) for item in value) + ")"
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(value)
    return f"{float(value):.4g}"


def sigma(rate, n: int):
    """Standard deviation of a binomial ``rate`` estimated over ``n``
    trials."""
    return np.sqrt(rate * (1 - rate) / n)


def binomial(target):
    """Tolerance: 3 sigma of the difference between a rate ``target``
    estimated over the size's max-cut graphs and one estimated over the
    paper's 1000."""
    target = np.asarray(target, dtype=float)
    return lambda size: 3 * np.hypot(
        sigma(target, SIZES[size]["graphs"]), sigma(target, 1000))


def z_score(low: float, high: float, n: int) -> float:
    """``high - low`` in sigmas of the difference of two binomial rates
    over ``n`` trials each."""
    spread = np.hypot(sigma(low, n), sigma(high, n))
    if spread == 0.0:
        return 0.0 if high == low else math.copysign(math.inf, high - low)
    return float((high - low) / spread)


# --------------------------------------------------------------------------
# Experiments: each runs once (per size) and feeds every claim reading it
# --------------------------------------------------------------------------

T_END = 8e-8  # Fig. 4's time axis
GRID = 600  # Fig. 4a/4b samples: window edges resolve to T_END / 599


@cache
def fig2() -> dict:
    """Validator reports of the three Fig. 2 lines and an 8x8 CNN, per
    backend (the paper's ILP ``milp`` and the max-flow ``flow``)."""
    malformed = linear_tline()
    malformed.add_edge("bad", "IN_V", "V_0", "E")  # a V-V short circuit
    graphs = {"linear": linear_tline(), "branched": branched_tline(),
              "malformed": malformed,
              "cnn": edge_detector(default_image(8))}
    return {(name, backend): repro.validate(graph, backend=backend)
            for name, graph in graphs.items()
            for backend in ("milp", "flow")}


@cache
def fig4(line: str):
    """The nominal ``linear`` or ``branched`` line's transient."""
    build = linear_tline if line == "linear" else branched_tline
    return repro.simulate(build(), (0.0, T_END), n_points=GRID)


def out_v(line: str, start: float = 0.0):
    trajectory = fig4(line)
    return trajectory["OUT_V"][trajectory.t >= start]


def window(line: str) -> tuple[float, float]:
    """Where the pulse reaches ``OUT_V``: above 10% of its peak."""
    return observation_window(fig4(line), "OUT_V", threshold=0.1)


def width(line: str) -> float:
    start, end = window(line)
    return end - start


@cache
def fig4_spread(size: str) -> dict:
    """Mean OUT_V ensemble standard deviation per mismatch source, over
    the window in which the nominal linear line's pulse arrives."""
    spreads = {}
    for kind in ("cint", "gm"):
        runs = repro.run_ensemble(
            lambda seed, kind=kind: mismatched_tline(kind, seed=seed),
            seeds=range(SIZES[size]["chips"]), t_span=(0.0, T_END),
            n_points=300)
        spreads[kind] = window_spread(runs, "OUT_V", window("linear"))
    return spreads


CNN_SIZE = 16


@cache
def fig11() -> dict:
    """The edge detector's four hardware variants on a 16x16 image."""
    image = default_image(CNN_SIZE)
    expected = expected_edges(image)
    return {variant: run_cnn(edge_detector(image, variant, seed=3),
                             CNN_SIZE, CNN_SIZE, variant=variant,
                             expected=expected)
            for variant in ("ideal", "bias_mismatch", "template_mismatch",
                            "nonideal_sat")}


def converged_at(variant: str) -> float:
    run = fig11()[variant]
    return run.converged_at if run.converged else math.inf


@cache
def table1(size: str) -> dict:
    """``(sync, solved)`` rate per ``(d / pi, config)``: the ideal
    (``obc``) and offset-afflicted (``ofs``) solvers on one graph
    population, read at both tolerances."""
    graphs = random_graphs(SIZES[size]["graphs"], 4, seed=2024)
    tolerances = (0.01 * math.pi, 0.1 * math.pi)
    sweeps = {
        "obc": maxcut_experiment(graphs, 4, tolerances=tolerances,
                                 edge_type="Cpl"),
        "ofs": maxcut_experiment(graphs, 4, tolerances=tolerances,
                                 edge_type="Cpl_ofs", mismatch_seeds=True),
    }
    return {(round(d / math.pi, 2), config):
            (sweep[d].sync_probability, sweep[d].solved_probability)
            for config, sweep in sweeps.items() for d in tolerances}


def solved_z(size: str, low: tuple, high: tuple) -> float:
    rates = table1(size)
    return z_score(rates[low][1], rates[high][1], SIZES[size]["graphs"])


@cache
def sec45(size: str) -> dict:
    """Random mismatched GmC-TLN lines: how many fail validation, and
    the worst relative RMSE of their synthesized netlists."""
    rng = np.random.default_rng(0)
    count = SIZES[size]["netlists"]
    invalid, worst = 0, 0.0
    for trial in range(count):
        spec = TLineSpec(n_segments=int(rng.integers(3, 14)))
        graph = mismatched_tline(("gm", "cint")[trial % 2], spec,
                                 seed=trial)
        invalid += not repro.validate(graph, backend="flow").valid
        worst = max(worst, compare_dg_netlist(graph, (0.0, 3e-8),
                                              n_points=150).worst)
    return {"invalid": invalid, "worst": worst}


@cache
def cnn_library(size: str) -> int:
    """Wrong pixels of every library template against its discrete
    reference, over random 8x8 images."""
    wrong = 0
    for seed in range(SIZES[size]["images"]):
        rng = np.random.default_rng(seed)
        image = np.where(rng.random((8, 8)) < 0.4, 1.0, -1.0)
        for name in LIBRARY:
            output, reference = run_library_template(image, name)
            wrong += int((output != reference).sum())
    return wrong


@cache
def heat_rmse() -> float:
    """Worst RMSE of an 8x8 diffusion CNN against the exact solution of
    the discretized heat equation."""
    return float(diffusion_step_response(
        size=8, rate=0.5, times=(0.5, 1.0, 2.0))["rmse"].max())


TIGHT = dict(rtol=1e-9, atol=1e-11)


@cache
def fhn_chain_error() -> float:
    """A 6-neuron chain's spike wave against an independent scipy
    integration: max abs error."""
    n = 6
    run = repro.simulate(neuron_chain(n, coupling=0.8), (0.0, 80.0),
                         n_points=801, **TIGHT)
    rest_v, rest_w = resting_point()
    v0 = np.full(n, rest_v)
    v0[0] = 1.5
    reference = fhn_reference(n, NeuronSpec(), 0.8, False, v0,
                              np.full(n, rest_w), run.t)
    return max(float(np.abs(run[f"U_{k}"] - reference[k]).max())
               for k in range(n))


@cache
def fhn_arrival_shifts() -> list[float]:
    """RMS wave-arrival shift of four 10-neuron rings with 10%
    gap-junction mismatch against the ideal ring."""
    def arrivals(**kwargs):
        run = repro.simulate(neuron_ring(10, coupling=0.8, **kwargs),
                             (0.0, 60.0), n_points=601, **TIGHT)
        return np.array(wave_arrival_times(run, 10), dtype=float)

    ideal = arrivals()
    return [float(np.sqrt(np.mean((arrivals(
        mismatched_coupling=True, seed=seed) - ideal) ** 2)))
        for seed in range(4)]


@cache
def gpac_leak() -> dict:
    """Amplitude after t = 20 of the open-loop sine generator and the
    Van der Pol oscillator, per integrator leak."""
    def amplitude(build, leak):
        run = repro.simulate(build(types=leaky(leak)), (0.0, 40.0),
                             n_points=801)
        return limit_cycle_amplitude(run.t, run["x"])

    return {leak: (amplitude(harmonic_oscillator, leak),
                   amplitude(van_der_pol, leak)) for leak in (0.1, 0.2)}


PUF = dict(spec=TLineSpec(n_segments=16), branch_positions=(4, 8, 12),
           branch_lengths=(5, 8, 11))


@cache
def puf_uniqueness(size: str) -> dict:
    """Uniqueness of challenge ``101``'s 32-bit responses across chips,
    for Gm-mismatched chips and for the mismatch-free ``ideal``
    variant."""
    chips = range(SIZES[size]["chips"])
    return {variant: uniqueness([
        evaluate_puf(PufDesign(**PUF, variant=variant), "101", seed=chip,
                     n_bits=32) for chip in chips])
        for variant in ("gm", "ideal")}


SMALL_PUF = TLineSpec(n_segments=10, pulse_width=4e-9)
SMALL_EVAL = dict(n_bits=16, window=(8e-9, 4.5e-8), n_points=240)


@cache
def attack_advantage() -> list[float]:
    """4-fold cross-validated modeling-attack advantage over the
    majority-bit baseline on a 4-branch PUF, feature degrees 1 and 2."""
    design = PufDesign(spec=SMALL_PUF, branch_positions=(2, 4, 6, 8),
                       branch_lengths=(3, 5, 4, 6))
    return [cross_validate(design, seed=3, k=4, degree=degree, rng=0,
                           **SMALL_EVAL).advantage for degree in (1, 2)]


@cache
def switch_sensitivity() -> list[float]:
    """Mean fractional Hamming distance between responses one challenge
    bit apart, per off-switch feedthrough alpha 0, .1, .3, .5, .7, 1."""
    sensitivity = []
    for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
        design = PufDesign(spec=SMALL_PUF, branch_positions=(2, 6),
                           branch_lengths=(3, 5), switch_alpha=alpha)
        responses = [evaluate_puf(design, challenge, seed=4, **SMALL_EVAL)
                     for challenge in range(4)]
        sensitivity.append(float(np.mean([
            hamming_fraction(responses[a], responses[b])
            for a, b in ((0, 1), (0, 2), (3, 1), (3, 2))])))
    return sensitivity


@cache
def placement() -> dict:
    """Total routing cost of each placer over 50 random 10-vertex
    graphs, and whether a placed network validates."""
    graphs = random_graphs(50, n_vertices=10, seed=11,
                           edge_probability=0.3)
    costs = {name: sum(place(edges, 10, seed=1).coupling_cost
                       for edges in graphs)
             for name, place in (("random", place_random),
                                 ("greedy", place_greedy),
                                 ("kl", place_kernighan_lin))}
    network = placed_network(graphs[0],
                             place_kernighan_lin(graphs[0], 10, seed=1))
    costs["legal"] = repro.validate(network, backend="flow").valid
    return costs


NOISY_DECAY = (pathlib.Path(__file__).resolve().parents[1] / "examples"
               / "ark" / "noisy_decay.ark")
OU_TRIALS = 4000  # noise trials of the one noisy-decay chip


@cache
def ou_moments() -> float:
    """Largest gap, in standard errors, between the heun ensemble of
    one ``noisy-cell`` chip (``tau=1, nsig=0.3``, mismatch seed 0) and
    the Ornstein-Uhlenbeck closed form ``x0 e^(-t/tau)`` (mean) and
    ``nsig^2 tau/2 (1 - e^(-2t/tau))`` (variance), over the 5 grid
    points after t = 0 of a 6-point grid on (0, 5). ``tau`` is the
    chip's drawn value, read from its compiled system."""
    function = parse_program(NOISY_DECAY.read_text()).functions[
        "noisy-cell"]
    nsig = 0.3

    def factory(seed):
        return function.invoke({"tau": 1.0, "nsig": nsig}, seed=seed)

    tau = repro.compile_graph(factory(0)).attr_values[("node", "x", "tau")]
    batch = repro.run_ensemble(factory, [0], (0.0, 5.0), trials=OU_TRIALS,
                               n_points=6, sde_method="heun",
                               reference=False).batches[0]
    t, x = np.asarray(batch.t)[1:], batch.y[:, 0, 1:]
    mean = np.exp(-t / tau)
    var = nsig ** 2 * tau / 2 * (1 - np.exp(-2 * t / tau))
    # Standard errors of a Gaussian sample's mean and variance.
    z_mean = (x.mean(axis=0) - mean) / np.sqrt(var / OU_TRIALS)
    z_var = (x.var(axis=0, ddof=1) - var) / (
        var * np.sqrt(2 / (OU_TRIALS - 1)))
    return float(np.max(np.abs(np.concatenate([z_mean, z_var]))))


PUF_NOISE = (1e-9, 1e-8, 1e-7)  # transient-noise amplitudes


@cache
def puf_noise_reliability() -> list[float]:
    """Mean transient-noise reliability of 4 chips x 16 trials of the
    10-segment PUF, challenge ``10``, per amplitude of
    :data:`PUF_NOISE`."""
    return [puf_reliability(
        PufDesign(spec=TLineSpec(n_segments=10), noise=noise,
                  branch_positions=(3, 6), branch_lengths=(4, 6)),
        "10", range(4), trials=16).mean for noise in PUF_NOISE]


OBC_NOISE = (0.0, 0.05, 0.2, 2e4, 2e5)  # phase-noise amplitudes, rad/sqrt(s)


@cache
def obc_noise_solved() -> list[float]:
    """Solved rate of 32 noisy 4-cycle max-cut trials (Table 1 readout
    at d = 0.1 pi) per amplitude of :data:`OBC_NOISE`."""
    return [point.solved_probability for point in maxcut_noise_sweep(
        [(0, 1), (1, 2), (2, 3), (3, 0)], 4, OBC_NOISE, trials=32)]


WEIGHTED = 40  # weighted max-cut instances


@cache
def weighted_maxcut() -> tuple[float, float]:
    """``(sync, solved)`` rates of random weighted 4-vertex max-cut at
    d = 0.1 pi, against the exact weighted optimum."""
    rng = np.random.default_rng(17)
    results = [solve_maxcut(edges, 4, d=0.1 * math.pi,
                            weights=random_weights(edges, rng),
                            seed=1000 + index)
               for index, edges in enumerate(
                   random_graphs(WEIGHTED, 4, seed=17))]
    return (np.mean([r.synchronized for r in results]),
            np.mean([r.solved for r in results]))


@cache
def coloring(case: str) -> int:
    """Proper colorings found from 10 seeded starts."""
    edges, n, colors = {
        "cycle": ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, 2),
        "triangle": ([(0, 1), (1, 2), (0, 2)], 3, 3),
        "k4": ([(i, j) for i in range(4) for j in range(i + 1, 4)], 4, 4),
    }[case]
    return sum(solve_coloring(edges, n, colors, seed=seed).proper
               for seed in range(10))


@cache
def rhs_backends() -> float:
    """Max |interpreter - codegen| RHS difference on the 53-node t-line
    at a ramp state, relative to the largest derivative."""
    system = repro.compile_graph(linear_tline())
    y = np.linspace(-0.5, 0.5, system.n_states)
    a = system.rhs("interpreter")(1e-8, y)
    b = system.rhs("codegen")(1e-8, y)
    return float(np.abs(a - b).max() / np.abs(a).max())


@cache
def solver_spread() -> float:
    """Max disagreement of RK45, LSODA and Radau on a 16-segment line's
    final OUT_V."""
    system = repro.compile_graph(linear_tline(TLineSpec(n_segments=16)))
    finals = [repro.simulate(system, (0.0, 4e-8), n_points=200,
                             method=method).final("OUT_V")
              for method in ("RK45", "LSODA", "Radau")]
    return max(finals) - min(finals)


@cache
def ensemble_speedup() -> float:
    """Serial (scipy RK45 per instance) over batched (the default
    route) wall time of 32 fabricated Cpl_ofs instances of the Table 1
    4-cycle (fixed starting phases)."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 4)
    seconds = {}
    for method in ("RK45", "auto"):
        started = time.perf_counter()
        repro.run_ensemble(
            lambda seed: maxcut_network(edges, 4, initial_phases=phases,
                                        edge_type="Cpl_ofs", seed=seed),
            seeds=range(32), t_span=(0.0, 100e-9), n_points=60,
            method=method)
        seconds[method] = time.perf_counter() - started
    return seconds["RK45"] / seconds["auto"]


# --------------------------------------------------------------------------
# The claims
# --------------------------------------------------------------------------

EXACT = "exact: a verdict or a count, no sampling error"
PLOT = ("the paper gives the peak only as read off its plot; +-0.1 is "
        "one unit of its single digit")
DELAY = ("the default 26-segment line delays the pulse by sqrt(LC) = "
         "1 ns per segment: it reaches OUT_V after ~26 ns, not 10 ns. "
         "Whether the paper's line has fewer segments, other L/C or a "
         "plotted node nearer the input is not known")
EDGE = "one output sample (T_END / 599 = 1.3e-10 s): edges are grid times"
TABLE1 = ("3 sigma of the difference of two binomial rates, over the "
          "size's graphs and over the 1000 of the paper (or of the "
          "documented run)")
ORDER = ("significant: above 3 sigma of the difference of two binomial "
         "rates over the size's graphs")
#: The paper's Table 1 (sync, solved) rates per (d / pi, config), and
#: the rows this repository documents instead, measured at 1000 graphs.
PAPER_TABLE1 = {(0.01, "obc"): (0.941, 0.941), (0.01, "ofs"): (0.541, 0.541),
                (0.1, "obc"): (0.942, 0.941), (0.1, "ofs"): (0.948, 0.946)}
DOCUMENTED_TABLE1 = {
    (0.01, "ofs"): ((0.678, 0.677),
                    "the Cpl_ofs offsets cost the 0.01 pi readout 28 "
                    "points, the paper's 40 (6 sigma apart at 1000 "
                    "graphs). Not root-caused"),
    (0.1, "obc"): ((0.978, 0.954),
                   "1.4% of ideal runs settle within 0.1 pi but not 0.01 "
                   "pi of {0, pi}, all on non-maximal cuts: sync 3.4 "
                   "sigma above the paper, solved within 1.3. Not "
                   "root-caused"),
}


def table1_row(d: float, config: str) -> Claim:
    paper = PAPER_TABLE1[d, config]
    target, deviation = DOCUMENTED_TABLE1.get((d, config), (paper, ""))
    return Claim(f"table1.{config}-{d}pi", "Table 1",
                 f"sync, solved = {show(paper)}",
                 lambda size: table1(size)[d, config],
                 Check("~", target, binomial(target)), TABLE1,
                 deviation)


CLAIMS = [
    Claim("fig2.branched-valid", "Fig. 2(i)", "valid",
          lambda size: fig2()["branched", "milp"].valid,
          Check("==", True), EXACT),
    Claim("fig2.linear-valid", "Fig. 2(ii)", "valid",
          lambda size: fig2()["linear", "milp"].valid,
          Check("==", True), EXACT),
    Claim("fig2.malformed-rejected", "Fig. 2(iii)",
          "invalid: a V-V edge", lambda size: sum(
              "(V)" in violation for violation
              in fig2()["malformed", "milp"].violations),
          Check("==", 2),
          "exact: the short touches exactly IN_V and V_0, two V nodes"),

    Claim("fig4b.linear-peak", "Fig. 4b", "~0.5",
          lambda size: out_v("linear").max(), Check("~", 0.5, 0.1), PLOT),
    Claim("fig4a.branched-peak", "Fig. 4a", "~0.3",
          lambda size: out_v("branched").max(), Check("~", 0.3, 0.1),
          PLOT),
    Claim("fig4a.branched-weaker", "Fig. 4a/4b",
          "branched peak below linear",
          lambda size: out_v("branched").max() / out_v("linear").max(),
          Check("<", 1.0), "an ordering of two deterministic peaks"),
    Claim("fig4a.echo", "Fig. 4a", "echo after 4e-8 s",
          lambda size: np.abs(out_v("branched", 4e-8)).max(),
          Check(">", 0.05),
          "10% of the 0.5 V pulse the linear line transmits: an echo "
          "above it is signal, not ringing"),
    Claim("fig4b.linear-window", "Fig. 4b", "1e-08..3e-08 s",
          lambda size: window("linear"),
          Check("~", (2.671e-8, 4.634e-8), 1.336e-10), EDGE,
          deviation=DELAY + "; the width 1.96e-8 s matches the paper's"),
    Claim("fig4a.branched-window", "Fig. 4a", "1e-08..8e-08 s",
          lambda size: window("branched"),
          Check("~", (2.644e-8, 8e-8), 1.336e-10), EDGE,
          deviation=DELAY + "; the echo keeps OUT_V active to 8e-8 s"),
    Claim("fig4a.window-wider", "Fig. 4a/4b",
          "branched window 3.5x the linear one",
          lambda size: width("branched") / width("linear"),
          Check(">=", 2.0),
          "at least 2x: an echo, not ringing of the first pulse, must "
          "widen the window (the paper's windows are 7e-8 and 2e-8 s)"),
    Claim("fig4cd.gm-over-cint", "Fig. 4c/4d",
          "Gm mismatch spreads much more than Cint",
          lambda size: fig4_spread(size)["gm"] / fig4_spread(size)["cint"],
          Check(">", 2.0),
          "'much more' read as over 2x, in the window in which the "
          "nominal pulse arrives (measured 7.5x at 10 chips, 12x at "
          "100). The paper's fixed 1e-8..3e-8 s window holds only the "
          "first ~3 ns of the delayed pulse"),

    Claim("fig11.A-correct", "Fig. 11c", "A: correct",
          lambda size: fig11()["ideal"].errors, Check("==", 0), EXACT),
    Claim("fig11.A-converges", "Fig. 11c", "A: converges",
          lambda size: converged_at("ideal"), Check("<", math.inf),
          "converges at all within the simulated 10 time units"),
    Claim("fig11.B-correct", "Fig. 11c", "B: correct",
          lambda size: fig11()["bias_mismatch"].errors, Check("==", 0),
          EXACT),
    Claim("fig11.B-slower", "Fig. 11c", "B: converges more slowly",
          lambda size: converged_at("bias_mismatch")
          - converged_at("ideal"), Check(">", 0.0),
          "an ordering of two deterministic convergence times"),
    Claim("fig11.C-incorrect", "Fig. 11c", "C: incorrect output",
          lambda size: fig11()["template_mismatch"].errors,
          Check(">", 0), EXACT),
    Claim("fig11.D-correct", "Fig. 11c", "D: correct",
          lambda size: fig11()["nonideal_sat"].errors, Check("==", 0),
          EXACT),
    Claim("fig11.D-faster", "Fig. 11c", "D: converges faster",
          lambda size: converged_at("nonideal_sat")
          - converged_at("ideal"), Check("<", 0.0),
          "an ordering of two deterministic convergence times"),

    *(table1_row(d, config) for d in (0.01, 0.1)
      for config in ("obc", "ofs")),
    Claim("table1.offset-degrades", "Table 1",
          "solved 0.941 -> 0.541 (ideal -> offset, d = 0.01 pi)",
          lambda size: solved_z(size, (0.01, "ofs"), (0.01, "obc")),
          Check(">", 3.0), ORDER),
    Claim("table1.mitigation-recovers", "Table 1",
          "solved 0.541 -> 0.946 (offset, d = 0.01 pi -> 0.1 pi)",
          lambda size: solved_z(size, (0.01, "ofs"), (0.1, "ofs")),
          Check(">", 3.0), ORDER),
    Claim("table1.sync-tracks-solved", "Table 1",
          "sync - solved <= 0.001 on every row",
          lambda size: max(sync - solved
                           for sync, solved in table1(size).values()),
          Check("~", 0.024, binomial(0.024)), TABLE1,
          deviation="the 0.1 pi ideal row's 2.4% synchronized runs on "
          "non-maximal cuts (see table1.obc-0.1pi)"),

    Claim("sec45.all-valid", "Sec. 4.5", "every random DG is valid",
          lambda size: sec45(size)["invalid"], Check("==", 0), EXACT),
    Claim("sec45.rmse", "Sec. 4.5", "netlist RMSE < 1%",
          lambda size: sec45(size)["worst"], Check("<", 0.01),
          "the paper's own bound"),

    Claim("ext.cnn-library", "extension: CNN library",
          "every template pixel-exact", cnn_library, Check("==", 0),
          EXACT),
    Claim("ext.heat-equation", "extension: CNN PDE",
          "diffusion CNN = exact discrete heat equation",
          lambda size: heat_rmse(), Check("<=", 1e-6),
          "100 x the CNN's rtol 1e-8 on unit values: room for the "
          "global error accumulated over the run"),
    Claim("ext.fhn-reference", "extension: FHN",
          "spike wave = scipy reference",
          lambda size: fhn_chain_error(), Check("<=", 1e-7),
          "100 x the rtol 1e-9 of both integrations: room for the "
          "global error accumulated over 80 time units"),
    Claim("ext.fhn-mismatch-shifts", "extension: FHN",
          "gap-junction mismatch moves the wave",
          lambda size: min(fhn_arrival_shifts()), Check(">", 0.05),
          "half the 0.1 output step: the shift must show on the grid, "
          "not only in the linear interpolation between samples"),
    Claim("ext.gpac-leak-sine", "extension: GPAC",
          "leak damps the open-loop sine (leak 0.1, 0.2)",
          lambda size: tuple(gpac_leak()[leak][0] for leak in (0.1, 0.2)),
          Check("<=", (math.exp(-2.0), math.exp(-4.0))),
          "two integrators leaking at l damp the unit-amplitude "
          "oscillator as exp(-l t): at most exp(-20 l) after the t = 20 "
          "settle cut"),
    Claim("ext.gpac-leak-vdp", "extension: GPAC",
          "Van der Pol keeps its limit cycle (leak 0.1, 0.2)",
          lambda size: tuple(gpac_leak()[leak][1] for leak in (0.1, 0.2)),
          Check("~", (2 * math.sqrt(0.8), 2 * math.sqrt(0.6)), 0.05),
          "averaging theory: leak l lowers the limit cycle to "
          "2 sqrt(1 - 2l); +-0.05 covers its O(mu^2) error, 0.009 at "
          "l = 0 (2.009 vs 2)"),
    Claim("ext.puf-uniqueness", "extension: PUF",
          "mismatched chips answer differently",
          lambda size: puf_uniqueness(size)["gm"], Check(">", 0.05),
          "0.05 of 32 bits: more than one differing bit per chip pair "
          "(ideal 0.5)"),
    Claim("ext.puf-ideal-clones", "extension: PUF",
          "mismatch-free chips are clones",
          lambda size: puf_uniqueness(size)["ideal"], Check("==", 0.0),
          EXACT),
    Claim("ext.ou-moments", "extension: transient noise",
          "heun reproduces the OU mean and variance",
          lambda size: ou_moments(), Check("<=", 4.0),
          "4 standard errors of a 4000-trial sample: the 10 moments "
          "exceed it by chance with probability < 1e-3, and heun's "
          "bias at its 1/13 substep is < 0.11 standard errors"),
    Claim("ext.puf-noise-monotone", "extension: transient noise",
          "more transient noise, less PUF reliability",
          lambda size: max(np.diff(puf_noise_reliability())),
          Check("<=", 0.0),
          "an ordering of means over 4 chips; amplitudes a decade "
          "apart drive the same Wiener paths. One chip alone need not "
          "order (chip 2: 0.844 at 1e-9, 0.848 at 1e-8)"),
    Claim("ext.obc-noise-monotone", "extension: transient noise",
          "more phase noise, fewer max-cuts solved",
          lambda size: max(np.diff(obc_noise_solved())),
          Check("<=", 0.0),
          "an ordering of solved rates over the same 32 starts. At "
          "0.05 and 0.2 rad/sqrt(s) a phase wanders < 1e-4 rad over "
          "the 100 ns transient and every trial solves; 2e4 and 2e5 "
          "move the rate"),
    Claim("ext.puf-attack", "extension: PUF attack",
          "hard to predict (Sec. 2)",
          lambda size: max(attack_advantage()),
          Check("<=", 0.082 + 3 * sigma(0.777, 256)),
          "no paper number: 3 binomial sigma above the 0.082 advantage "
          "measured, an accuracy of 0.777 over 256 held-out bits"),
    Claim("ext.switch-monotone", "extension: switch parasitics",
          "feedthrough only erodes challenge sensitivity",
          lambda size: max(np.diff(switch_sensitivity())),
          Check("<=", 0.0), EXACT),
    Claim("ext.switch-erased", "extension: switch parasitics",
          "full feedthrough erases the challenge",
          lambda size: switch_sensitivity()[-1], Check("==", 0.0), EXACT),
    Claim("ext.placement-greedy", "extension: placement",
          "greedy placement routes cheaper than random",
          lambda size: placement()["greedy"] / placement()["random"],
          Check("<=", 1.0), "an ordering of two deterministic totals"),
    Claim("ext.placement-kl", "extension: placement",
          "Kernighan-Lin routes cheaper than random",
          lambda size: placement()["kl"] / placement()["random"],
          Check("<=", 1.0), "an ordering of two deterministic totals"),
    Claim("ext.placement-legal", "extension: placement",
          "a placed network validates",
          lambda size: placement()["legal"], Check("==", True), EXACT),
    Claim("ext.weighted-maxcut-sync", "extension: OBC workloads",
          "weighted max-cut synchronizes",
          lambda size: weighted_maxcut()[0],
          Check(">=", 0.925 - 3 * sigma(0.925, WEIGHTED)),
          "no paper number: 3 binomial sigma below the 0.925 measured "
          "over 40 instances"),
    Claim("ext.weighted-maxcut-solved", "extension: OBC workloads",
          "weighted max-cut finds the optimum",
          lambda size: weighted_maxcut()[1],
          Check(">=", 0.85 - 3 * sigma(0.85, WEIGHTED)),
          "no paper number: 3 binomial sigma below the 0.85 measured "
          "over 40 instances"),
    *(Claim(f"ext.coloring-{case}", "extension: OBC workloads",
            f"oscillators {label}", lambda size, case=case: coloring(case),
            Check(">=", floor),
            "no paper number: 2 starts below the 10, 6 and 4 of 10 "
            "measured, so one changed start does not trip it")
      for case, label, floor in (
          ("cycle", "2-color a 4-cycle", 8),
          ("triangle", "3-color a triangle", 4),
          ("k4", "4-color K4", 2))),

    Claim("ablation.rhs-backends", "ablation: RHS backend",
          "interpreter = codegen", lambda size: rhs_backends(),
          Check("<=", 1e-14),
          "the same float64 expressions summed in another order: a few "
          "tens of ulps of the largest derivative"),
    Claim("ablation.validator-backends", "ablation: validator",
          "milp = flow verdicts", lambda size: sum(
              report.valid != fig2()[name, "flow"].valid
              for (name, backend), report in fig2().items()
              if backend == "milp"), Check("==", 0), EXACT),
    Claim("ablation.ode-methods", "ablation: ODE method",
          "RK45 = LSODA = Radau", lambda size: solver_spread(),
          Check("<=", 5e-6),
          "100 x the step tolerance rtol 0.5 V + atol = 5e-8 V: room "
          "for the global error accumulated over the transient"),
    Claim("ablation.batched-speedup", "ablation: ensemble engine",
          "batched faster than serial", lambda size: ensemble_speedup(),
          Check(">", 1.0), "an ordering of two wall times"),
]

BY_ID = {claim.id: claim for claim in CLAIMS}
