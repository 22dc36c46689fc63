"""Tests for the fused-RHS emitter (affine terms -> one sparse product).

The fused path must be a pure performance transform: for every system it
applies to, the emitted RHS has to agree with the per-line emitter to
floating-point noise, and systems it cannot fuse (nonlinear reductions)
must transparently keep the per-line source. Its arithmetic is pinned
exactly: each line sums its affine entries elementwise in ascending
state order, so the kernels equal that explicit sum bit for bit.
"""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.paradigms.tln import mismatched_tline
from repro.sim import compile_batch, solve_batch
from repro.telemetry import collect_metrics

#: The slot-0 gather every fused kernel starts from (both layouts).
FUSED_MARKER = "_lin_val0 * "


def _chain_language():
    lang = repro.Language("fuse-chain")
    lang.node_type("X", order=1,
                   attrs=[("tau", repro.real(0.2, 5.0, mm=(0.0, 0.1))),
                          ("bias", repro.real(-2.0, 2.0))])
    lang.edge_type("W", attrs=[("w", repro.real(-5.0, 5.0,
                                                mm=(0.0, 0.05)))])
    lang.prod("prod(e:W,s:X->s:X) s <= -var(s)/s.tau + s.bias")
    lang.prod("prod(e:W,s:X->t:X) t <= e.w*var(s)")
    return lang


def _chain_systems(n_instances=5, n_nodes=4):
    lang = _chain_language()
    systems = []
    for seed in range(n_instances):
        builder = repro.GraphBuilder(lang, "chain", seed=seed)
        for i in range(n_nodes):
            builder.node(f"x{i}", "X")
            builder.set_attr(f"x{i}", "tau", 1.0 + 0.3 * i)
            builder.set_attr(f"x{i}", "bias", 0.1 * i)
            builder.edge(f"x{i}", f"x{i}", f"l{i}", "W")
            builder.set_attr(f"l{i}", "w", 0.0)
            builder.set_init(f"x{i}", 1.0 - 0.1 * i)
        for i in range(n_nodes - 1):
            builder.edge(f"x{i}", f"x{i+1}", f"c{i}", "W")
            builder.set_attr(f"c{i}", "w", 0.8)
        systems.append(compile_graph(builder.finish()))
    return systems


class TestFusedEmitter:
    def test_linear_system_fuses(self):
        batch = compile_batch(_chain_systems())
        assert batch.fused
        assert FUSED_MARKER in batch.source
        assert "@" not in batch.source

    def test_fuse_false_keeps_per_line_source(self):
        batch = compile_batch(_chain_systems(), fuse=False)
        assert not batch.fused
        assert "_lin_" not in batch.source

    def test_fused_rhs_matches_per_line(self):
        systems = _chain_systems()
        fused = compile_batch(systems)
        per_line = compile_batch(systems, fuse=False)
        rng = np.random.default_rng(3)
        for t in (0.0, 0.7):
            y = rng.normal(size=(len(systems), fused.n_states))
            np.testing.assert_allclose(fused(t, y.copy()),
                                       per_line(t, y.copy()),
                                       rtol=1e-12, atol=1e-12)

    def test_tline_fuses_with_input_residual(self):
        # The Fig. 4 t-line is affine plus one time-dependent pulse
        # input: everything except the input term must land in the
        # sparse product, the pulse survives as a per-line residual.
        systems = [compile_graph(mismatched_tline("gm", seed=s))
                   for s in range(3)]
        fused = compile_batch(systems)
        assert fused.fused
        rhs_lines = [line for line in fused.source.splitlines()
                     if "dy[" in line]
        # The sparse product's one store + the pulse residual.
        assert len(rhs_lines) == 2
        assert rhs_lines[1].startswith("    dy[:, 0] += ")
        # Every line reads at most two states: two entry slots, each
        # covering every line.
        assert "    _acc += _lin_val1 * _yT.take(_lin_col1, axis=0)" \
            in fused.source
        assert "_lin_val2" not in fused.source
        per_line = compile_batch(systems, fuse=False)
        rng = np.random.default_rng(5)
        y = rng.normal(size=(3, fused.n_states))
        for t in (0.0, 2e-9, 5e-8):
            a, b = fused(t, y.copy()), per_line(t, y.copy())
            np.testing.assert_allclose(a, b, rtol=1e-10,
                                       atol=1e-10 * np.abs(b).max())

    def test_nonlinear_system_falls_back(self):
        # Kuramoto-style sin() coupling cannot fuse; the emitter must
        # keep the per-line source (and say so via `fused`).
        lang = repro.Language("fuse-nl")
        lang.node_type("P", order=1)
        lang.edge_type("K")
        lang.prod("prod(e:K,s:P->t:P) t <= sin(var(s)-var(t))")
        systems = []
        for seed in range(3):
            builder = repro.GraphBuilder(lang, "nl", seed=seed)
            builder.node("a", "P")
            builder.node("b", "P")
            builder.edge("a", "b", "e1", "K")
            builder.edge("b", "a", "e2", "K")
            builder.set_init("a", 0.3)
            builder.set_init("b", 1.1)
            systems.append(compile_graph(builder.finish()))
        batch = compile_batch(systems)
        assert not batch.fused

    def test_solve_batch_agrees_across_emitters(self):
        systems = _chain_systems()
        fused = solve_batch(compile_batch(systems), (0.0, 2.0),
                            n_points=60)
        per_line = solve_batch(compile_batch(systems, fuse=False),
                               (0.0, 2.0), n_points=60)
        np.testing.assert_allclose(fused.y, per_line.y, rtol=1e-6,
                                   atol=1e-9)

    def test_fused_matches_serial_scipy(self):
        systems = _chain_systems(n_instances=3)
        batch = solve_batch(compile_batch(systems), (0.0, 2.0),
                            n_points=60)
        for row, system in enumerate(systems):
            serial = repro.simulate(system, (0.0, 2.0), n_points=60)
            np.testing.assert_allclose(batch.y[row], serial.y,
                                       rtol=1e-4, atol=1e-7)


def _random_linear_systems(pattern, n_nodes, n_instances, seed):
    """Linear systems ``dx_t/dt = sum_s w_(s->t) * x_s`` over the edge
    list ``pattern`` (self loops allowed), every weight mismatched per
    instance. Every coefficient is a plain attribute value, so the
    explicit sum below needs nothing from the emitter."""
    lang = repro.Language("fuse-sparse")
    lang.node_type("X", order=1)
    lang.edge_type("W", attrs=[("w", repro.real(-5.0, 5.0,
                                                mm=(0.0, 0.2)))])
    lang.prod("prod(e:W,s:X->s:X) s <= e.w*var(s)")
    lang.prod("prod(e:W,s:X->t:X) t <= e.w*var(s)")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-2.0, 2.0, len(pattern))
    systems = []
    for instance in range(n_instances):
        builder = repro.GraphBuilder(lang, "sparse", seed=instance)
        for k in range(n_nodes):
            builder.node(f"x{k}", "X")
            builder.set_init(f"x{k}", 0.0)
        for e, ((src, dst), w) in enumerate(zip(pattern, weights)):
            builder.edge(f"x{src}", f"x{dst}", f"e{e}", "W")
            builder.set_attr(f"e{e}", "w", float(w))
        systems.append(compile_graph(builder.finish()))
    return systems


def _slot_ordered_sum(system, pattern, y, dtype):
    """The reference: each line's entries multiplied and summed
    elementwise in ascending state order, at ``dtype``."""
    lines: dict[int, dict[int, float]] = {}
    for e, (src, dst) in enumerate(pattern):
        weight = system.attr_values[("edge", f"e{e}", "w")]
        entries = lines.setdefault(system.index_of(f"x{dst}"), {})
        entries[system.index_of(f"x{src}")] = float(weight)
    out = np.zeros(y.shape, dtype=dtype)
    for line, entries in lines.items():
        acc = None
        for column in sorted(entries):
            term = dtype.type(entries[column]) * y[..., column]
            acc = term if acc is None else acc + term
        out[..., line] = acc
    return out


def _star(n):
    """A hub reading (and read by) every other node: one long line."""
    return ([(k, 0) for k in range(1, n)] + [(0, k) for k in range(1, n)]
            + [(0, 0)] + [(k, k) for k in range(1, n, 2)])


def _random_pattern(n, seed):
    """A random sparse pattern that leaves one node with no entry."""
    rng = np.random.default_rng(seed)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n - 1, (3 * n, 2))}
    return sorted(pairs)


PATTERNS = {"star": (_star(9), 9), "random": (_random_pattern(12, 4), 12)}


class TestSparseProductContract:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("dtype", ["numpy:float64", "numpy:float32"])
    def test_rows_kernel_equals_slot_ordered_sum(self, name, dtype):
        pattern, n_nodes = PATTERNS[name]
        systems = _random_linear_systems(pattern, n_nodes, 5, seed=1)
        batch = compile_batch(systems, array_backend=dtype)
        assert batch.fused
        y = np.random.default_rng(2).normal(
            size=(len(systems), batch.n_states)).astype(batch.dtype)
        got = batch(0.0, y.copy())
        want = np.stack([_slot_ordered_sum(system, pattern, y[row],
                                           batch.dtype)
                         for row, system in enumerate(systems)])
        assert got.dtype == batch.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_one_row_kernel_equals_slot_ordered_sum(self, name):
        pattern, n_nodes = PATTERNS[name]
        for system in _random_linear_systems(pattern, n_nodes, 3, seed=5):
            y = np.random.default_rng(6).normal(size=system.n_states)
            got = system.rhs("codegen")(0.0, y)
            want = _slot_ordered_sum(system, pattern, y, np.dtype(float))
            assert got.tobytes() == want.tobytes()

    def test_hub_line_pads_nothing(self):
        pattern, n_nodes = PATTERNS["star"]
        batch = compile_batch(_random_linear_systems(pattern, n_nodes, 4,
                                                     seed=1))
        namespace = batch._rhs_inner.__globals__
        widths = [namespace[f"_lin_val{k}"].shape[0]
                  for k in range(n_nodes + 1) if f"_lin_val{k}" in namespace]
        # Slot k holds one entry per line that has a k-th entry, so the
        # slots hold exactly the pattern's entries.
        assert sum(widths) == len(pattern)
        assert widths[-1] == 1 and len(widths) == n_nodes

    def test_many_seeds_fuse_in_linear_memory(self):
        # 1600 * 53**2 dense coefficients would exceed 2**22; the
        # sparse product stores one value per instance and entry.
        systems = [compile_graph(mismatched_tline("gm", seed=seed))
                   for seed in range(1600)]
        batch = compile_batch(systems)
        assert batch.fused
        namespace = batch._rhs_inner.__globals__
        values = [value for name, value in namespace.items()
                  if name.startswith("_lin_val")]
        entries = sum(value.shape[0] for value in values)
        assert entries <= 2 * batch.n_states
        assert sum(value.size for value in values) == 1600 * entries
        # A row's result does not depend on its batch-mates.
        y = np.random.default_rng(0).normal(size=(1600, batch.n_states))
        picked = [0, 977, 1599]
        small = compile_batch([systems[row] for row in picked])
        assert batch(3e-9, y.copy())[picked].tobytes() == \
            small(3e-9, y[picked].copy()).tobytes()

    def test_residual_lines_count_only_per_line_stores(self):
        systems = [compile_graph(mismatched_tline("gm", seed=seed))
                   for seed in range(3)]
        with collect_metrics() as report:
            compile_batch(systems)
        assert report.counter("codegen.residual_lines") == 1
        with collect_metrics() as report:
            compile_batch(systems, fuse=False)
        assert report.counter("codegen.residual_lines") == \
            systems[0].n_states
