"""Property tests: the codegen RHS must match the interpreter RHS on
randomly generated graphs and states, and on one system from each
paradigm — the one-row kernel and the tree walk are independent
implementations of the compiled equations."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.builder import GraphBuilder
from repro.core.compiler import compile_graph
from repro.sim.batch_codegen import generate_batch_source


def _random_language():
    lang = repro.Language("prop")
    lang.node_type("X", order=1,
                   attrs=[("tau", repro.real(0.1, 10.0))])
    lang.node_type("F", order=0)
    lang.edge_type("W", attrs=[("w", repro.real(-3.0, 3.0))])
    lang.prod("prod(e:W,s:X->s:X) s <= -var(s)/s.tau")
    lang.prod("prod(e:W,s:X->t:X) t <= e.w*var(s)/t.tau")
    lang.prod("prod(e:W,s:X->t:F) t <= sin(var(s))*e.w")
    lang.prod("prod(e:W,s:F->t:X) t <= e.w*var(s)")
    return lang


@st.composite
def random_graph(draw):
    lang = _random_language()
    n_nodes = draw(st.integers(2, 6))
    builder = GraphBuilder(lang, "prop-graph")
    names = []
    for k in range(n_nodes):
        # The first node is always dynamic so coupling targets exist.
        kind = "X" if k == 0 else draw(st.sampled_from(["X", "X",
                                                        "F"]))
        name = f"n{k}_{kind}"
        builder.node(name, kind)
        names.append((name, kind))
        if kind == "X":
            builder.set_attr(name, "tau",
                             draw(st.floats(0.5, 5.0)))
            builder.set_init(name, draw(st.floats(-2.0, 2.0)))
            builder.edge(name, name, f"self{k}", "W")
            builder.set_attr(f"self{k}", "w", 0.0)
    x_nodes = [n for n, kind in names if kind == "X"]
    f_nodes = [n for n, kind in names if kind == "F"]
    edge_id = 0
    for src, kind in names:
        targets = draw(st.lists(
            st.sampled_from(x_nodes), max_size=2, unique=True))
        for dst in targets:
            if src == dst:
                continue
            builder.edge(src, dst, f"e{edge_id}", "W")
            builder.set_attr(f"e{edge_id}", "w",
                             draw(st.floats(-2.0, 2.0)))
            edge_id += 1
    # Feed every F node from some X so it has a defining production.
    for index, f_node in enumerate(f_nodes):
        if x_nodes:
            builder.edge(x_nodes[index % len(x_nodes)], f_node,
                         f"feed{index}", "W")
            builder.set_attr(f"feed{index}", "w",
                             draw(st.floats(-2.0, 2.0)))
    return builder.finish()


@given(random_graph(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_codegen_matches_interpreter(graph, state_seed):
    system = compile_graph(graph)
    rng = np.random.default_rng(state_seed)
    y = rng.normal(scale=2.0, size=system.n_states)
    t = float(rng.uniform(0.0, 10.0))
    dy_interp = system.rhs("interpreter")(t, y)
    dy_codegen = system.rhs("codegen")(t, y)
    assert np.allclose(dy_interp, dy_codegen, rtol=1e-12, atol=1e-12)


@given(random_graph())
@settings(max_examples=15, deadline=None)
def test_short_simulations_agree(graph):
    system = compile_graph(graph)
    a = repro.simulate(system, (0.0, 0.5), n_points=20,
                       backend="interpreter")
    b = repro.simulate(system, (0.0, 0.5), n_points=20,
                       backend="codegen")
    assert np.allclose(a.y, b.y, rtol=1e-8, atol=1e-10)


@functools.cache
def _paradigm_systems():
    """One compiled system per paradigm, with the time scale of its
    dynamics and whether its one-row kernel fuses the affine part."""
    from repro.paradigms.cnn import default_image, edge_detector
    from repro.paradigms.fhn import neuron_chain
    from repro.paradigms.gpac import van_der_pol
    from repro.paradigms.obc import maxcut_network
    from repro.paradigms.tln import TLineSpec, mismatched_tline
    from repro.puf import PufDesign

    puf = PufDesign(spec=TLineSpec(n_segments=10),
                    branch_positions=(3, 6), branch_lengths=(4, 6))
    graphs = {
        "tln": (mismatched_tline("gm", seed=5), 8e-8, True),
        "obc": (maxcut_network([(0, 1), (1, 2), (2, 3), (3, 0)], 4),
                1e-7, False),
        "cnn": (edge_detector(default_image(8)), 10.0, False),
        "fhn": (neuron_chain(4), 80.0, True),
        "gpac": (van_der_pol(), 20.0, False),
        "puf": (puf.build(2, seed=1), 8e-8, True),
    }
    return {name: (compile_graph(graph), span, fused)
            for name, (graph, span, fused) in graphs.items()}


@pytest.mark.parametrize("paradigm",
                         ["cnn", "fhn", "gpac", "obc", "puf", "tln"])
@given(state_seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=10, deadline=None)
def test_paradigm_codegen_matches_interpreter(paradigm, state_seed):
    system, span, fused = _paradigm_systems()[paradigm]
    source = generate_batch_source(system, {})
    assert ("y[_lin_col0]" in source) == fused
    rng = np.random.default_rng(state_seed)
    y = rng.normal(size=system.n_states)
    t = float(rng.uniform(0.0, span))
    dy_interp = system.rhs("interpreter")(t, y)
    dy_codegen = system.rhs("codegen")(t, y)
    # Fused lines sum in a different order than the interpreter.
    scale = np.abs(dy_interp).max()
    assert np.allclose(dy_interp, dy_codegen, rtol=1e-10,
                       atol=1e-10 * scale)
