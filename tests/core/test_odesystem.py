"""Unit tests for the compiled ODE system: both RHS backends, the
generated one-row source, and the equation pretty-printer."""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import CompileError
from repro.sim.batch_codegen import generate_batch_source
from tests.conftest import build_leaky_language, build_two_pole


@pytest.fixture()
def system():
    return compile_graph(build_two_pole(build_leaky_language()))


class TestBackends:
    def test_backends_agree(self, system):
        rhs_i = system.rhs("interpreter")
        rhs_c = system.rhs("codegen")
        for _ in range(10):
            y = np.random.default_rng(0).normal(size=system.n_states)
            assert np.allclose(rhs_i(0.5, y), rhs_c(0.5, y))

    def test_unknown_backend(self, system):
        with pytest.raises(CompileError):
            system.rhs("julia")

    def test_codegen_cached(self, system):
        assert system.rhs("codegen") is system.rhs("codegen")

    def test_expected_derivative_values(self, system):
        rhs = system.rhs("codegen")
        dy = rhs(0.0, np.array([1.0, 0.0]))
        # dx0/dt = -x0/tau0 = -1 ; dx1/dt = -x1/tau1 + w*x0/tau1 = 4
        assert dy[system.index_of("x0")] == pytest.approx(-1.0)
        assert dy[system.index_of("x1")] == pytest.approx(4.0)


class TestGeneratedSource:
    def test_source_is_flat_python(self, system):
        # The per-line one-row emission; the kernel itself fuses both
        # linear lines into one sparse product.
        source = generate_batch_source(system, {}, fuse=False)
        assert source.startswith("def _rhs(t, y, dy):")
        assert "dy[0]" in source and "dy[1]" in source
        # Attribute values are inlined (no symbolic references remain;
        # tau=1.0 divisions are simplified away entirely).
        assert "tau" not in source
        assert "y[0]" in source
        assert "y[_lin_col0]" in generate_batch_source(system, {})

    def test_source_compiles_standalone(self, system):
        namespace = {}
        source = generate_batch_source(system, namespace)
        exec(compile(source, "<test>", "exec"), namespace)
        dy = namespace["_rhs"](0.0, np.array([1.0, 0.0]),
                               np.empty(2))
        assert dy[0] == pytest.approx(-1.0)


class TestIntrospection:
    def test_state_labels(self, system):
        assert system.state_labels() == ["x0", "x1"]

    def test_equations_render(self, system):
        equations = system.equations()
        assert len(equations) == 2
        assert equations[0].startswith("d x0/dt")

    def test_higher_order_labels(self):
        lang = repro.Language("sho")
        lang.node_type("Q", order=2)
        lang.edge_type("S")
        lang.prod("prod(e:S,s:Q->s:Q) s<=-var(s)")
        builder = repro.GraphBuilder(lang)
        builder.node("q", "Q")
        builder.edge("q", "q", "e", "S")
        system = compile_graph(builder.finish())
        assert system.state_labels() == ["q", "q'"]

    def test_repr(self, system):
        assert "states=2" in repr(system)
