"""OBC under phase noise: solution quality vs. amplitude (the noisy
counterpart of the Table 1 study)."""


import pytest

from repro.core.compiler import compile_graph
from repro.paradigms.obc import (maxcut_network, maxcut_noise_sweep,
                                 ns_obc_language)
from repro.paradigms.obc.maxcut import NOISE_MAX_STEP

EDGES_4CYCLE = [(0, 1), (1, 2), (2, 3), (3, 0)]


class TestNoisyNetwork:
    def test_noise_sigma_builds_sde(self):
        graph = maxcut_network(EDGES_4CYCLE, 4, noise_sigma=100.0)
        system = compile_graph(graph)
        assert system.has_noise
        # One independent Wiener path per oscillator (its SHIL edge).
        assert len(system.wiener_paths()) == 4

    def test_zero_sigma_stays_deterministic(self):
        system = compile_graph(maxcut_network(EDGES_4CYCLE, 4))
        assert not system.has_noise

    def test_noise_composes_with_offset(self):
        graph = maxcut_network(EDGES_4CYCLE, 4, edge_type="Cpl_ofs",
                               seed=3, noise_sigma=50.0,
                               language=ns_obc_language())
        system = compile_graph(graph)
        assert system.has_noise
        offsets = [edge.attrs["offset"] for edge in graph.edges
                   if edge.type.name == "Cpl_ofs"]
        assert any(abs(value) > 0 for value in offsets)


class TestNoiseSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return maxcut_noise_sweep(EDGES_4CYCLE, 4,
                                  [0.0, 2e4, 2e5], trials=8, seed=1)

    def test_zero_noise_solves(self, sweep):
        assert sweep[0].noise_sigma == 0.0
        assert sweep[0].sync_probability == 1.0
        assert sweep[0].solved_probability == 1.0
        assert sweep[0].mean_cut_ratio == pytest.approx(1.0)

    def test_quality_degrades_with_amplitude(self, sweep):
        sync = [point.sync_probability for point in sweep]
        assert sync[0] >= sync[1] >= sync[2]
        assert sync[2] < 1.0

    def test_sweep_is_reproducible(self):
        kwargs = dict(trials=4, seed=7)
        a = maxcut_noise_sweep(EDGES_4CYCLE, 4, [3e4], **kwargs)
        b = maxcut_noise_sweep(EDGES_4CYCLE, 4, [3e4], **kwargs)
        assert a[0].synchronized == b[0].synchronized
        assert a[0].cut_ratios == b[0].cut_ratios

    def test_default_cap_follows_vertex_degree(self):
        # On this graph of maximum degree 3, heun at the degree-2 cap
        # settles on non-binary phases (solved rate 0 from sigma=1e-9
        # up); the degree-scaled default cap solves what rk4 solves.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
        noise_free, noisy = maxcut_noise_sweep(edges, 5, [0.0, 1e-9],
                                               trials=16, seed=0)
        assert noisy.solved_probability == noise_free.solved_probability

    def test_max_step_guards_stability(self):
        # The Kuramoto Jacobian (~5e9 rad/s) demands sub-4e-10 steps;
        # the sweep's default cap must respect that.
        assert NOISE_MAX_STEP < 4e-10
