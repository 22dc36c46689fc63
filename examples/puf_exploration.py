"""The §2 TLN PUF design-space exploration, end to end.

Walks the paper's design flow:

1. simulate the linear and branched t-lines (Fig. 4a/4b) and derive
   their observation windows (§2.2);
2. compare Cint- vs Gm-mismatch trajectory spread over fabricated
   instances (Figs. 4c/4d) — the paper's conclusion: use Gm mismatch;
3. build the switchable multi-branch PUF and measure uniqueness,
   reliability, and uniformity over a small chip population;
4. mount an ML modeling attack on one chip (§2's "hard to predict"
   requirement): cross-validated prediction accuracy vs the
   constant-predictor baseline, at two feature degrees.

Run:  python examples/puf_exploration.py [--chips N] [--trials N]
"""

import argparse

import numpy as np

import repro
from repro.analysis import observation_window, window_spread
from repro.paradigms.tln import (TLineSpec, branched_tline, linear_tline,
                                 mismatched_tline)
from repro.puf import (PufDesign, cross_validate, evaluate_puf,
                       reliability, uniformity, uniqueness)

T_END = 8e-8


def explore_topologies() -> None:
    print("=== Fig. 4a/4b: linear vs branched t-line ===")
    linear = linear_tline()
    branched = branched_tline()
    for name, graph in (("linear", linear), ("branched", branched)):
        repro.validate(graph, backend="flow").raise_if_invalid()
        trajectory = repro.simulate(graph, (0.0, T_END), n_points=600)
        out = trajectory["OUT_V"]
        window = observation_window(trajectory, "OUT_V")
        print(f"{name:9s} peak={out.max():.3f} "
              f"window=[{window[0]:.1e}, {window[1]:.1e}] s")
    print("-> the branched line needs the wider window to capture its "
          "echo")


def explore_mismatch(chips: int) -> None:
    print(f"\n=== Figs. 4c/4d: mismatch spread over {chips} chips ===")
    window = (1e-8, 3e-8)
    scores = {}
    for kind in ("cint", "gm"):
        trajectories = repro.run_ensemble(
            lambda seed, kind=kind: mismatched_tline(kind, seed=seed),
            seeds=range(chips), t_span=(0.0, T_END), n_points=400)
        scores[kind] = window_spread(trajectories, "OUT_V", window)
        print(f"{kind:5s} mismatch: mean ensemble std in window = "
              f"{scores[kind]:.4f}")
    ratio = scores["gm"] / max(scores["cint"], 1e-12)
    print(f"-> Gm mismatch spreads {ratio:.1f}x more: prefer Gm-based "
          "PUF designs (the paper's conclusion)")


def evaluate_design(chips: int) -> None:
    print(f"\n=== PUF metrics over {chips} chips ===")
    design = PufDesign(spec=TLineSpec(n_segments=16),
                       branch_positions=(4, 8, 12),
                       branch_lengths=(5, 8, 11))
    challenge = "101"
    from repro.puf import evaluate_puf_population, puf_reliability

    # One batched solve for the whole population (not one per chip).
    responses = list(evaluate_puf_population(
        design, challenge, seeds=range(chips), n_bits=32))
    print(f"uniqueness  = {uniqueness(responses):.3f}  (ideal 0.5)")
    print(f"uniformity  = "
          f"{np.mean([uniformity(r) for r in responses]):.3f}"
          "  (ideal 0.5)")

    # Reliability from transient noise: the chip's *dynamics* are
    # perturbed (batched SDE trials), not just the sampled voltages.
    noisy_design = PufDesign(spec=design.spec,
                             branch_positions=design.branch_positions,
                             branch_lengths=design.branch_lengths,
                             noise=1e-8)
    report = puf_reliability(noisy_design, challenge, seeds=[0],
                             trials=5, n_bits=32)
    print(f"reliability = {report.mean:.3f}"
          "  (ideal 1.0, transient thermal noise, 5 trials)")

    legacy = puf_reliability(design, challenge, seeds=[0], trials=5,
                             n_bits=32, mode="readout",
                             readout_sigma=2e-3)
    print(f"  (legacy readout-noise model: {legacy.mean:.3f})")

    control = PufDesign(spec=design.spec,
                        branch_positions=design.branch_positions,
                        branch_lengths=design.branch_lengths,
                        variant="ideal")
    identical = [evaluate_puf(control, challenge, seed=chip, n_bits=32)
                 for chip in range(3)]
    print(f"ideal-variant uniqueness = {uniqueness(identical):.3f}"
          "  (no mismatch -> clones, as expected)")


def attack_design() -> None:
    print("\n=== ML modeling attack (one chip, 4 branch bits) ===")
    design = PufDesign(spec=TLineSpec(n_segments=10, pulse_width=4e-9),
                       branch_positions=(2, 4, 6, 8),
                       branch_lengths=(3, 5, 4, 6))
    kwargs = dict(n_bits=16, window=(8e-9, 4.5e-8), n_points=240)
    for degree in (1, 2):
        result = cross_validate(design, seed=3, k=4, degree=degree,
                                rng=0, **kwargs)
        print(f"degree-{degree} attack: accuracy {result.accuracy:.3f}"
              f" (baseline {result.baseline:.3f}, advantage "
              f"{result.advantage:+.3f})")
    print("-> a linear model predicts unseen responses above chance: "
          "this 16-challenge design is too small to resist modeling; "
          "scale branches before trusting it as an authenticator")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chips", type=int, default=20,
                        help="fabricated instances per study")
    args = parser.parse_args()
    explore_topologies()
    explore_mismatch(args.chips)
    evaluate_design(min(args.chips, 8))
    attack_design()
