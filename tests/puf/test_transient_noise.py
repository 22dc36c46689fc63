"""PUF reliability on transient noise: the intra-chip stability
question the readout-noise model could not ask — noisy *dynamics*,
batched over (chip x trial), reproducible run-to-run."""

import numpy as np
import pytest

from repro.paradigms.tln import TLineSpec
from repro.puf import (PufDesign, evaluate_puf, evaluate_puf_noisy,
                       evaluate_puf_population, puf_reliability)
from repro.puf.response import encode_response

SPEC = TLineSpec(n_segments=10)
BRANCHES = dict(branch_positions=(3, 6), branch_lengths=(4, 6))
EVAL = dict(n_bits=16, n_points=400)


@pytest.fixture(scope="module")
def noisy_design():
    return PufDesign(spec=SPEC, noise=1e-8, **BRANCHES)


@pytest.fixture(scope="module")
def quiet_design():
    return PufDesign(spec=SPEC, **BRANCHES)


class TestSeededReadoutNoise:
    def test_encode_requires_seeded_rng(self):
        with pytest.raises(ValueError):
            encode_response(np.zeros(8), noise_sigma=0.1)

    def test_encode_seed_is_deterministic(self):
        samples = np.zeros(40)
        a = encode_response(samples, noise_sigma=1.0, seed=5)
        b = encode_response(samples, noise_sigma=1.0, seed=5)
        assert np.array_equal(a, b)
        c = encode_response(samples, noise_sigma=1.0, seed=6)
        assert not np.array_equal(a, c)

    def test_readout_stream_is_the_keyed_stream(self):
        from repro.core.noise import stream_seed
        from repro.puf.response import _readout_rng

        for seed, challenge, trial in ((2, 1, 0), (-4, 3, 7), (0, 0, 31)):
            reference = np.random.Generator(np.random.PCG64(stream_seed(
                seed, "readout", f"{challenge}:{trial}")))
            assert np.array_equal(
                _readout_rng(seed, challenge, trial).normal(0.0, 1.0, 12),
                reference.normal(0.0, 1.0, 12))

    def test_evaluate_puf_derives_reproducible_rng(self, quiet_design):
        a = evaluate_puf(quiet_design, 1, seed=2, noise_sigma=2e-3,
                         **EVAL)
        b = evaluate_puf(quiet_design, 1, seed=2, noise_sigma=2e-3,
                         **EVAL)
        assert np.array_equal(a, b)


class TestBatchedPopulation:
    def test_matches_serial_rows(self, quiet_design):
        seeds = [0, 1, 2, 3]
        population = evaluate_puf_population(quiet_design, 2, seeds,
                                             **EVAL)
        assert population.shape == (4, EVAL["n_bits"])
        for row, seed in enumerate(seeds):
            serial = evaluate_puf(quiet_design, 2, seed=seed, **EVAL)
            assert np.array_equal(population[row], serial)

    def test_readout_noise_matches_serial(self, quiet_design):
        seeds = [0, 1]
        population = evaluate_puf_population(quiet_design, 1, seeds,
                                             noise_sigma=2e-3, **EVAL)
        for row, seed in enumerate(seeds):
            serial = evaluate_puf(quiet_design, 1, seed=seed,
                                  noise_sigma=2e-3, **EVAL)
            assert np.array_equal(population[row], serial)


class TestTransientReliability:
    def test_noisy_design_builds_sde(self, noisy_design):
        from repro.core.compiler import compile_graph

        system = compile_graph(noisy_design.build(1, seed=0))
        assert system.has_noise
        # One Wiener path per damping self edge (V and I segments).
        self_edges = [e for e in system.graph.edges
                      if e.name.startswith("Es_")]
        assert len(system.wiener_paths()) == len(self_edges)

    def test_reference_matches_deterministic_bits(self, noisy_design,
                                                  quiet_design):
        references, _trials = evaluate_puf_noisy(
            noisy_design, 2, seeds=[0, 1], trials=2, **EVAL)
        # The SDE reference run (batched RK4) must encode to the same
        # bits as the legacy scipy path of the noise-free design.
        for row, seed in enumerate([0, 1]):
            serial = evaluate_puf(quiet_design, 2, seed=seed, **EVAL)
            assert np.array_equal(references[row], serial)

    def test_reliability_reproducible_and_sane(self, noisy_design):
        report = puf_reliability(noisy_design, 2, seeds=range(3),
                                 trials=4, **EVAL)
        assert report.mode == "transient"
        assert report.per_chip.shape == (3,)
        assert np.all(report.per_chip > 0.5)
        assert np.all(report.per_chip <= 1.0)
        replay = puf_reliability(noisy_design, 2, seeds=range(3),
                                 trials=4, **EVAL)
        np.testing.assert_array_equal(report.trial_bits,
                                      replay.trial_bits)
        np.testing.assert_array_equal(report.per_chip,
                                      replay.per_chip)

    def test_more_noise_less_reliability(self):
        challenge, seeds = 2, range(3)
        gentle = puf_reliability(
            PufDesign(spec=SPEC, noise=2e-9, **BRANCHES), challenge,
            seeds, trials=4, **EVAL)
        harsh = puf_reliability(
            PufDesign(spec=SPEC, noise=2e-7, **BRANCHES), challenge,
            seeds, trials=4, **EVAL)
        assert harsh.mean < gentle.mean
        assert harsh.bit_error_rate() > gentle.bit_error_rate()

    def test_quiet_design_rejected(self, quiet_design):
        with pytest.raises(ValueError):
            evaluate_puf_noisy(quiet_design, 1, seeds=[0], trials=2,
                               **EVAL)

    def test_readout_mode_kept_as_legacy(self, quiet_design):
        report = puf_reliability(quiet_design, 2, seeds=range(2),
                                 trials=3, mode="readout",
                                 readout_sigma=2e-3, **EVAL)
        assert report.mode == "readout"
        assert np.all(report.per_chip > 0.5)
        replay = puf_reliability(quiet_design, 2, seeds=range(2),
                                 trials=3, mode="readout",
                                 readout_sigma=2e-3, **EVAL)
        np.testing.assert_array_equal(report.trial_bits,
                                      replay.trial_bits)

    def test_unknown_mode(self, quiet_design):
        with pytest.raises(ValueError):
            puf_reliability(quiet_design, 1, seeds=[0],
                            mode="thermal", **EVAL)

    def test_negative_noise_rejected(self):
        import repro

        with pytest.raises(repro.GraphError):
            PufDesign(spec=SPEC, noise=-1e-9, **BRANCHES)
