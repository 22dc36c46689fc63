"""Integration tests: every paper claim at CI size.

``benchmarks/claims.py`` holds each claim of the paper's evaluation
(and of this repository's extensions and ablations) once, with its one
check; ``benchmarks/run_experiments.py`` prints the same verdicts at the
``fast`` and ``full`` sizes. The per-figure tests below name the claims
that make up each published result.
"""

import pathlib
import sys

import numpy as np
import pytest

import repro
from repro.core.builder import GraphBuilder
from repro.paradigms.tln import linear_tline

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]
                       / "benchmarks"))
import claims  # noqa: E402
import run_experiments  # noqa: E402


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.id)
def test_claim(claim):
    measured, verdict = claim.verdict("ci")
    assert verdict != "FAIL", (
        f"{claim.id}: measured {claims.show(measured)}, needs "
        f"{claim.check.describe('ci')} ({claim.reason})")


def holds(*ids):
    for claim_id in ids:
        test_claim(claims.BY_ID[claim_id])


class TestFig2Validation:
    def test_linear_and_branched_validate(self):
        holds("fig2.linear-valid", "fig2.branched-valid",
              "ablation.validator-backends")

    def test_malformed_vv_line_rejected(self):
        holds("fig2.malformed-rejected")


class TestFig4Trajectories:
    def test_linear_pulse_half_amplitude(self):
        holds("fig4b.linear-peak")

    def test_branched_pulse_weaker(self):
        holds("fig4a.branched-peak", "fig4a.branched-weaker")

    def test_branched_echo_present(self):
        holds("fig4a.echo")

    def test_branched_window_wider(self):
        holds("fig4a.window-wider")

    def test_gm_spread_exceeds_cint_spread(self):
        holds("fig4cd.gm-over-cint")


class TestFig11Cnn:
    def test_ideal_correct(self):
        holds("fig11.A-correct", "fig11.A-converges")

    def test_bias_mismatch_slower_but_correct(self):
        holds("fig11.B-correct", "fig11.B-slower")

    def test_template_mismatch_corrupts(self):
        holds("fig11.C-incorrect")

    def test_nonideal_sat_faster_and_correct(self):
        holds("fig11.D-correct", "fig11.D-faster")


class TestTable1Maxcut:
    def test_ideal_high_success(self):
        holds("table1.obc-0.01pi", "table1.obc-0.1pi")

    def test_offset_degrades_tight_readout(self):
        holds("table1.offset-degrades")

    def test_mitigation_recovers(self):
        holds("table1.mitigation-recovers", "table1.ofs-0.1pi")

    def test_sync_implies_solved_rates_close(self):
        holds("table1.sync-tracks-solved")


class TestSection45Netlists:
    def test_random_population(self):
        holds("sec45.all-valid", "sec45.rmse")


def demo(claim_id, measured, check, deviation=""):
    return claims.Claim(claim_id, "test", "1", lambda size: measured,
                        check, "exact", deviation)


class TestVerdicts:
    """``run_experiments.main`` over a stand-in registry: no experiment
    runs."""

    def run(self, monkeypatch, capsys, *registry):
        monkeypatch.setattr(claims, "CLAIMS", list(registry))
        status = run_experiments.main(["--fast"])
        return status, capsys.readouterr().out

    def test_a_failing_claim_exits_nonzero(self, monkeypatch, capsys):
        status, out = self.run(
            monkeypatch, capsys, demo("demo.pass", 1.0, claims.Check("==", 1)),
            demo("demo.fail", 2.0, claims.Check("==", 1)))
        assert status == 1
        assert "demo.pass | 1 | 1 | pass" in out
        assert "demo.fail | 1 | 2 | FAIL (needs == 1)" in out

    def test_a_documented_deviation_passes_within_its_value(
            self, monkeypatch, capsys):
        status, out = self.run(monkeypatch, capsys, demo(
            "demo.dev", 2.7, claims.Check("~", 2.7, 0.1), "known"))
        assert status == 0
        assert "demo.dev | 1 | 2.7 | deviation: known" in out

    def test_a_deviation_that_drifts_fails(self, monkeypatch, capsys):
        status, _ = self.run(monkeypatch, capsys, demo(
            "demo.dev", 3.0, claims.Check("~", 2.7, 0.1), "known"))
        assert status == 1

    def test_registry_ids_are_unique_and_reasoned(self):
        assert len(claims.BY_ID) == len(claims.CLAIMS)
        assert all(claim.reason for claim in claims.CLAIMS)


class TestInheritanceGuarantees:
    """§4.1.1/§2.4: parent-language programs run unchanged in derived
    languages; derived types substitute where parents were used."""

    def test_tln_graph_same_dynamics_under_gmc(self, tln, gmc,
                                               small_spec):
        graph = linear_tline(small_spec)
        base = repro.simulate(repro.compile_graph(graph, tln),
                              (0.0, 2e-8), n_points=120)
        derived = repro.simulate(repro.compile_graph(graph, gmc),
                                 (0.0, 2e-8), n_points=120)
        assert np.allclose(base.y, derived.y)

    def test_partial_substitution_validates(self, gmc, small_spec):
        """Swap a single interior V node for Vm (progressive
        rewriting): the graph stays valid and simulable."""
        builder = GraphBuilder(gmc, "partial", seed=4)
        builder.node("InpI_0", "InpI")
        builder.set_attr("InpI_0", "fn", lambda t: 1.0)
        builder.set_attr("InpI_0", "g", 1.0)
        names = ["IN_V", "I_0", "Vm_0", "I_1", "OUT_V"]
        types = ["V", "I", "Vm", "I", "V"]
        for name, type_name in zip(names, types):
            builder.node(name, type_name)
            if type_name.startswith("V"):
                builder.set_attr(name, "c", 1e-9)
                builder.set_attr(name, "g",
                                 1.0 if name == "OUT_V" else 0.0)
            else:
                builder.set_attr(name, "l", 1e-9)
                builder.set_attr(name, "r", 0.0)
            builder.set_init(name, 0.0)
            builder.edge(name, name, f"Es_{name}", "E")
        builder.edge("InpI_0", "IN_V", "E_in", "E")
        for src, dst in zip(names[:-1], names[1:]):
            builder.edge(src, dst, f"E_{src}_{dst}", "E")
        graph = builder.finish()
        assert repro.validate(graph, backend="flow").valid
        trajectory = repro.simulate(graph, (0.0, 2e-8), n_points=60)
        assert np.isfinite(trajectory.y).all()
