"""Tests for the GmC-TLN extension (§2.3-2.4, §4.5, Figs. 5/9/14)."""

import numpy as np
import pytest

import repro
from repro.paradigms.tln import (TLineSpec, linear_tline,
                                 mismatched_tline, tln_language)


class TestInheritance:
    def test_language_chain(self, gmc, tln):
        assert gmc.parent is tln
        assert gmc.find_node_type("Vm").is_subtype_of(
            tln.find_node_type("V"))
        assert gmc.find_edge_type("Em").is_subtype_of(
            tln.find_edge_type("E"))

    def test_mm_annotations(self, gmc):
        vm = gmc.find_node_type("Vm")
        assert vm.attrs["c"].datatype.mismatch.s1 == 0.1
        em = gmc.find_edge_type("Em")
        assert em.attrs["ws"].datatype.mismatch.s1 == 0.1
        assert em.attrs["wt"].datatype.mismatch.s1 == 0.1

    def test_parent_graph_validates_in_derived_language(self, gmc,
                                                        small_spec):
        graph = linear_tline(small_spec)  # pure TLN types
        report = repro.validate(graph, language=gmc, backend="flow")
        assert report.valid, report.violations

    def test_parent_graph_same_dynamics_in_derived_language(
            self, gmc, small_spec):
        """The §2.4 guarantee: TLN computations simulate identically
        under GmC-TLN."""
        graph = linear_tline(small_spec)
        base = repro.simulate(repro.compile_graph(graph, tln_language()),
                              (0.0, 2e-8), n_points=100)
        derived = repro.simulate(repro.compile_graph(graph, gmc),
                                 (0.0, 2e-8), n_points=100)
        assert np.allclose(base.y, derived.y)


class TestMismatchedLines:
    def test_cint_substitution_types(self, small_spec):
        graph = mismatched_tline("cint", small_spec, seed=1)
        assert graph.node("IN_V").type.name == "Vm"
        assert graph.node("I_0").type.name == "Im"

    def test_gm_substitution_types(self, small_spec):
        graph = mismatched_tline("gm", small_spec, seed=1)
        line_edges = [e for e in graph.edges
                      if not e.is_self and e.src != "InpI_0"]
        assert all(e.type.name == "Em" for e in line_edges)
        # Damping self edges stay plain E (their rules are inherited).
        assert graph.edge("Es_IN_V").type.name == "E"

    def test_unknown_kind_rejected(self, small_spec):
        with pytest.raises(repro.GraphError):
            mismatched_tline("thermal", small_spec)

    def test_both_validate(self, small_spec):
        for kind in ("cint", "gm"):
            graph = mismatched_tline(kind, small_spec, seed=3)
            assert repro.validate(graph, backend="flow").valid

    def test_seed_none_recovers_ideal_dynamics(self, small_spec):
        ideal = repro.simulate(linear_tline(small_spec), (0.0, 2e-8),
                               n_points=100)
        for kind in ("cint", "gm"):
            nominal = repro.simulate(
                mismatched_tline(kind, small_spec, seed=None),
                (0.0, 2e-8), n_points=100)
            assert np.allclose(ideal["OUT_V"], nominal["OUT_V"],
                               atol=1e-9), kind

    def test_seeds_change_dynamics(self, small_spec):
        a = repro.simulate(mismatched_tline("gm", small_spec, seed=1),
                           (0.0, 2e-8), n_points=100)
        b = repro.simulate(mismatched_tline("gm", small_spec, seed=2),
                           (0.0, 2e-8), n_points=100)
        assert not np.allclose(a["OUT_V"], b["OUT_V"], atol=1e-6)

    def test_same_seed_reproducible(self, small_spec):
        a = repro.simulate(mismatched_tline("gm", small_spec, seed=9),
                           (0.0, 2e-8), n_points=100)
        b = repro.simulate(mismatched_tline("gm", small_spec, seed=9),
                           (0.0, 2e-8), n_points=100)
        assert np.allclose(a["OUT_V"], b["OUT_V"])


class TestFig4cd:
    """Reduced-size version of the Figs. 4c/4d spread comparison."""

    def test_gm_spreads_more_than_cint(self):
        from repro.analysis import window_spread
        spec = TLineSpec(n_segments=10)
        window = (0.5e-8, 2.5e-8)
        spreads = {}
        for kind in ("cint", "gm"):
            trajectories = repro.run_ensemble(
                lambda seed, kind=kind: mismatched_tline(
                    kind, spec, seed=seed),
                seeds=range(12), t_span=(0.0, 4e-8), n_points=200)
            spreads[kind] = window_spread(trajectories, "OUT_V",
                                          window)
        assert spreads["gm"] > spreads["cint"]
