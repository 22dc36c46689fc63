"""Tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Runs real, small sweeps of every workload, so it takes about a minute.
"""

from __future__ import annotations

import os
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def make(cls, seed=1):
    workdir = HERE / "_work" / f"selftest-{cls.name}-{os.getpid()}"
    return cls(seed, workdir, width=2)


class InputsTest(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for cls in W.WORKLOADS.values():
            for sweep in range(3):
                self.assertEqual(make(cls, 4).inputs(sweep),
                                 make(cls, 4).inputs(sweep))

    def test_different_seeds_disjoint_blocks(self):
        for cls in W.WORKLOADS.values():
            seen = {}
            for seed in range(4):
                blocks = set()
                for sweep in range(3):
                    blocks.update(make(cls, seed).inputs(sweep)["seeds"])
                for other, other_blocks in seen.items():
                    self.assertFalse(blocks & other_blocks,
                                     (cls.name, seed, other))
                seen[seed] = blocks

    def test_fresh_block_per_mismatch_sweep(self):
        workload = make(W.TlineMismatch)
        first = set(workload.inputs(0)["seeds"])
        self.assertFalse(first & set(workload.inputs(1)["seeds"]))

    def test_fixed_inputs_outside_every_block(self):
        fixed = set(W.WARMUP_SEEDS) | set(W.ACCURACY_SEEDS) \
            | set(W.PUF_ACCURACY_SEEDS)
        self.assertTrue(all(seed < 0 for seed in fixed))


class TracerTest(unittest.TestCase):

    def test_self_times_add_up_with_imported_spans(self):
        tracer = Tracer()
        with tracer.span("sweep") as root:
            with tracer.span("wrapper") as wrapper:
                with tracer.span("core.compile"):
                    with tracer.span("paradigms.build"):
                        pass
            with tracer.span("plan.assemble"):
                pass
        wrapped = tracer.spans[wrapper]
        # An imported span starting before its sibling ended (clock
        # skew) is moved after it, so no time counts twice.
        tracer.add("pool.wait", wrapped["start"], wrapped["end"], wrapper)
        layers = tracer.layer_seconds(root)
        self.assertGreaterEqual(layers["unattributed"], 0.0)
        self.assertAlmostEqual(sum(layers.values()), tracer.wall(root),
                               places=12)


class WorkloadTest(unittest.TestCase):
    """One real sweep per workload, untraced and traced."""

    def run_pair(self, workload):
        workload.reset()
        workload.setup()
        workload.prepare()
        inputs = workload.inputs(0)
        plain = workload.op(inputs)
        self.assertTrue(workload.check(inputs, plain))
        workload.after(plain)
        tracer = Tracer()
        traced, root, counts = workload.traced(inputs, tracer)
        self.assertTrue(workload.check(inputs, traced))
        layers = tracer.layer_seconds(root)
        self.assertEqual(set(layers), set(LAYERS) | {"unattributed"})
        self.assertGreaterEqual(layers["unattributed"], 0.0)
        self.assertAlmostEqual(sum(layers.values()), tracer.wall(root),
                               places=9)
        self.assertGreater(workload.accuracy, 0.0)
        return inputs, plain, traced, counts

    def assert_same_batches(self, plain, traced):
        self.assertEqual(len(plain.batches), len(traced.batches))
        for a, b in zip(plain.batches, traced.batches):
            self.assertTrue(np.array_equal(a.t, b.t))
            self.assertTrue(np.array_equal(a.y, b.y))

    def test_tline_mismatch(self):
        workload = make(W.TlineMismatch)
        try:
            inputs, plain, traced, counts = self.run_pair(workload)
            self.assert_same_batches(plain.result, traced.result)
            self.assertEqual(counts["cache.misses"], 1)
            self.assertGreater(counts["cache.bytes_written"], 0)
            # A corrupted result is a failed sweep, not a crash.
            plain.result.batches[0].y[inputs["sample_rows"][0]] *= 1.01
            tally = run.Tally()
            tally.attempt(lambda: plain,
                          lambda outcome: workload.check(inputs, outcome))
            tally.attempt(lambda: 1 / 0, lambda outcome: True)
            self.assertEqual((tally.attempted, tally.failed), (2, 2))
        finally:
            workload.close()

    def test_tline_replay(self):
        workload = make(W.TlineReplay)
        try:
            _inputs, plain, traced, counts = self.run_pair(workload)
            self.assert_same_batches(plain.result, traced.result)
            # The decomposed path hit the entry run_ensemble stored.
            entries = list(workload.cache_dir.glob("*.npz"))
            self.assertEqual(len(entries), 1)
            self.assertEqual((counts["cache.hits"], counts["cache.misses"]),
                             (1, 0))
            self.assertEqual(counts["ode.nfev"], 0)
        finally:
            workload.close()

    def test_puf_noise_pool(self):
        workload = make(W.PufNoisePool)
        try:
            inputs, plain, traced, counts = self.run_pair(workload)
            for name in ("references", "trial_bits", "per_chip"):
                self.assertTrue(np.array_equal(
                    getattr(plain.result, name),
                    getattr(traced.result, name)))
            self.assertGreater(counts["pool.worker_busy_s"], 0.0)
            self.assertTrue(workload.probe()["probe_identical"])
            plain.result.trial_bits[0, 0, 0] ^= 1
            self.assertFalse(workload.check(inputs, plain))
        finally:
            workload.close()


if __name__ == "__main__":
    unittest.main()
