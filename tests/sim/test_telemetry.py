"""Tests for :mod:`repro.telemetry`: zero-perturbation collection.

The non-negotiable property: trajectories are bit-identical with
collection on or off, across every route x (ODE, SDE) combination —
telemetry observes the run, it never steers it. On top of that the
suite covers the RunReport schema round trip, worker-counter merging
from a >=2-process pool run, stream-gauge monotonicity, the cache and
shm satellites, and the ``repro report`` CLI surface.
"""

import gc
import json
import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.paradigms.tln.noisy import NoisyTlineFactory
from repro.sim import run_ensemble, shm
from repro.sim.cache import TrajectoryCache
from repro.telemetry import (SCHEMA_VERSION, RunReport, collect_metrics,
                             diff_reports, render_report,
                             validate_report)


class TlineFactory:
    """Module-level (picklable) deterministic factory."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class TwoGroupFactory:
    """Two structural groups: 3- and 4-segment lines alternate."""

    def __call__(self, seed):
        spec = TLineSpec(n_segments=3 if seed % 2 else 4)
        return mismatched_tline("gm", seed=seed, spec=spec)


SPAN = (0.0, 4e-8)

#: Sweep options per route. "pool" relies on the ``small_pool_groups``
#: fixture, which the pooled tests request.
ROUTE_KWARGS = {
    "serial": dict(method="RK45"),
    "batch": dict(),
    "serial-fanout": dict(method="RK45", processes=2),
    "pool": dict(processes=2),
}


def _stacked(result):
    """Every solved array of a result, for exact comparison."""
    arrays = [batch.y for batch in result.batches]
    arrays += [t.y for i, t in enumerate(result.trajectories)
               if getattr(result, "serial_indices", None)
               and i in result.serial_indices]
    return arrays


class TestBitIdentity:
    """Telemetry on vs off must not move a single bit."""

    @pytest.mark.parametrize("route", list(ROUTE_KWARGS))
    def test_ode(self, route, small_pool_groups):
        kwargs = dict(n_points=40, **ROUTE_KWARGS[route])
        off = run_ensemble(TlineFactory(), range(4), SPAN,
                           cache=TrajectoryCache(), **kwargs)
        on = run_ensemble(TlineFactory(), range(4), SPAN,
                          cache=TrajectoryCache(), telemetry=True,
                          **kwargs)
        assert off.telemetry is None
        assert isinstance(on.telemetry, RunReport)
        assert on.telemetry.wall_seconds > 0.0
        for a, b in zip(_stacked(off), _stacked(on)):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(off.trajectories, on.trajectories):
            np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("route", list(ROUTE_KWARGS))
    def test_sde(self, route, small_pool_groups):
        factory = NoisyTlineFactory(TLineSpec(n_segments=3),
                                    noise=1e-9)
        kwargs = dict(trials=2, n_points=30, **ROUTE_KWARGS[route])
        off = run_ensemble(factory, range(3), SPAN,
                           cache=TrajectoryCache(), **kwargs)
        on = run_ensemble(factory, range(3), SPAN,
                          cache=TrajectoryCache(), telemetry=True,
                          **kwargs)
        assert isinstance(on.telemetry, RunReport)
        for a, b in zip(off.batches, on.batches):
            np.testing.assert_array_equal(a.y, b.y)
        for chip in range(3):
            np.testing.assert_array_equal(off.reference(chip).y,
                                          on.reference(chip).y)

    def test_disabled_outside_window(self):
        assert not telemetry.enabled()
        assert telemetry.current() is None
        # All helpers are no-ops when disabled — no error, no state.
        telemetry.add("solver.nfev", 5)
        telemetry.gauge("x", 1.0)
        telemetry.append("y", 2.0)
        with telemetry.span("nothing"):
            pass
        assert not telemetry.enabled()

    def test_true_with_stream_rejected(self):
        with pytest.raises(ValueError, match="barriered result"):
            run_ensemble(TlineFactory(), range(2), SPAN,
                         telemetry=True, stream=True)

    def test_bad_telemetry_type_rejected(self):
        with pytest.raises(TypeError, match="RunReport"):
            run_ensemble(TlineFactory(), range(2), SPAN,
                         telemetry="yes")


def _hook_ops(factory, n_points, **kwargs):
    """Telemetry hook calls and RHS evaluations of one metered sweep."""
    report = RunReport()
    with collect_metrics(into=report):
        run_ensemble(factory, n_points=n_points,
                     cache=TrajectoryCache(), **kwargs)
        ops = telemetry.current().ops
    return ops, report.counter("solver.nfev")


class TestHookCount:
    """Hooks sit at group/solve granularity, never inside a step loop:
    the hook count of a sweep must not grow with its solver work. This
    is what keeps disabled telemetry free on long sweeps."""

    def test_ode_hooks_do_not_scale_with_steps(self):
        kwargs = dict(seeds=range(8), t_span=(0.0, 8e-8), method="rk4")
        small = _hook_ops(TlineFactory(), 50, **kwargs)
        large = _hook_ops(TlineFactory(), 400, **kwargs)
        assert large[1] > 2 * small[1]
        assert large[0] == small[0]

    def test_sde_hooks_do_not_scale_with_steps(self):
        factory = NoisyTlineFactory(TLineSpec(n_segments=3), noise=1e-9)
        kwargs = dict(seeds=range(3), t_span=SPAN, trials=2,
                      sde_method="heun")
        small = _hook_ops(factory, 40, **kwargs)
        large = _hook_ops(factory, 320, **kwargs)
        assert large[1] > 2 * small[1]
        assert large[0] == small[0]


class TestGcHook:
    """Collections are counted into the open window by a
    ``gc.callbacks`` hook that exists only while a window is open."""

    def test_collections_counted_and_rendered(self):
        report = RunReport()
        with collect_metrics(into=report):
            gc.collect()
        assert report.counter("gc.collections.gen2") >= 1
        assert report.counter("gc.seconds") > 0.0
        assert "gc.collections.gen2" in render_report(report)

    def test_hook_removed_on_exit(self):
        before = list(gc.callbacks)
        with collect_metrics():
            assert len(gc.callbacks) == len(before) + 1
        assert gc.callbacks == before
        with pytest.raises(RuntimeError):
            with collect_metrics():
                raise RuntimeError("boom")
        assert gc.callbacks == before

    def test_nothing_registered_with_telemetry_off(self):
        before = list(gc.callbacks)
        seen = []

        def factory(seed):
            seen.append(list(gc.callbacks))
            return mismatched_tline("gm", seed=seed)

        run_ensemble(factory, range(2), SPAN, n_points=20)
        assert seen == [before, before]
        assert gc.callbacks == before

    def test_nested_windows_count_once(self):
        outer, inner = RunReport(), RunReport()
        with collect_metrics(into=outer):
            with collect_metrics(into=inner):
                gc.collect()
        assert inner.counter("gc.collections.gen2") >= 1
        assert outer.counter("gc.collections.gen2") == 0


class TestCounters:
    def test_batch_ode_counters(self):
        result = run_ensemble(TlineFactory(), range(4), SPAN,
                              n_points=40, cache=TrajectoryCache(),
                              telemetry=True)
        report = result.telemetry
        assert report.counter("plan.instances") == 4
        assert report.counter("solver.nfev") > 0
        assert report.counter("solver.solves") >= 1
        assert report.counter("solver.steps_accepted") > 0
        assert report.counter("codegen.batch_compiles") >= 1
        assert report.counter("cache.misses") >= 1
        assert report.counter("cache.stores") >= 1
        assert report.meta["driver"] == "run_ensemble"
        assert report.meta["seeds"] == 4
        # One factory build per structure: every seed is a template
        # hit but the first one the process builds.
        hits = report.counter("build.template_hits")
        misses = report.counter("build.template_misses")
        assert hits + misses == 4
        assert misses <= 1
        # Spans nest under real names.
        names = [node["name"] for node in report.spans]
        assert "plan.compile" in names
        assert "plan.signature" in names
        assert "plan.assemble" in names
        assert any(name.startswith("group[0].solve") for name in names)
        # The batched kernel's emission is one span per group, and so
        # is each cache step.
        nodes = list(report.spans)
        spans = []
        while nodes:
            node = nodes.pop()
            spans.append(node["name"])
            nodes.extend(node.get("children", []))
        assert spans.count("codegen.emit") == 1
        assert spans.count("cache.key") == 1
        assert spans.count("cache.get") == 1
        assert spans.count("cache.put") == 1
        assert spans.count("plan.assemble") == 1

    def test_cache_hit_counters_on_rerun(self):
        cache = TrajectoryCache()
        run_ensemble(TlineFactory(), range(3), SPAN, n_points=40,
                     cache=cache)
        result = run_ensemble(TlineFactory(), range(3), SPAN,
                              n_points=40, cache=cache, telemetry=True)
        report = result.telemetry
        assert report.counter("cache.hits") >= 1
        assert report.counter("solver.solves") == 0

    def test_pool_sde_counters_and_worker_merge(self, small_pool_groups):
        """The acceptance-critical run: pool SDE sweep on >=2
        processes, bit-identical to the unsharded batch, with non-zero
        solver/cache/shm/pool counters and per-worker blocks merged
        back from the workers."""
        factory = NoisyTlineFactory(TLineSpec(n_segments=3),
                                    noise=1e-9)
        kwargs = dict(trials=4, n_points=30, processes=2)
        off = run_ensemble(factory, range(4), SPAN,
                           cache=TrajectoryCache(), **kwargs)
        on = run_ensemble(factory, range(4), SPAN,
                          cache=TrajectoryCache(), telemetry=True,
                          **kwargs)
        for a, b in zip(off.batches, on.batches):
            np.testing.assert_array_equal(a.y, b.y)
        report = on.telemetry
        assert report.counter("solver.nfev") > 0
        assert report.counter("cache.misses") > 0
        assert report.counter("pool.shards") >= 2
        assert report.counter("pool.shm_bytes_transferred") > 0
        assert report.counter("pool.pickle_bytes_avoided") > 0
        assert report.counter("shm.blocks") >= 1
        assert report.counter("shm.bytes_allocated") > 0
        assert report.counter("pool.queue_wait_seconds") >= 0.0
        assert report.counter("pool.worker_busy_seconds") > 0.0
        # Per-worker blocks rode home in the result metadata and were
        # merged; every block carries non-zero work.
        assert report.workers
        for name, block in report.workers.items():
            assert name.startswith("ark-pool-")
            assert block["shards"] >= 1
            assert block["nfev"] > 0
            assert block["busy_seconds"] > 0.0
        assert sum(b["shards"] for b in report.workers.values()) \
            == report.counter("pool.shards")
        merged = report.merged_worker_counters()
        assert merged["nfev"] > 0

    @pytest.mark.parametrize("method", ["heun", "heun-adaptive"])
    @pytest.mark.parametrize("route", ["batch", "pool"])
    def test_wiener_seconds(self, method, route, small_pool_groups):
        """The Wiener source's seeding + draw seconds are counted once
        per solve, in-process and merged back from pool workers."""
        factory = NoisyTlineFactory(TLineSpec(n_segments=3),
                                    noise=1e-9)
        result = run_ensemble(factory, range(2), SPAN, trials=2,
                              n_points=20, sde_method=method,
                              rtol=1e-3, atol=1e-6, reference=False,
                              cache=TrajectoryCache(), telemetry=True,
                              **ROUTE_KWARGS[route])
        report = result.telemetry
        assert report.counter("sde.wiener_seconds") > 0.0
        assert report.counter("sde.wiener_seconds") < report.wall_seconds

    def test_stream_gauges_monotone(self):
        """Chunk arrivals are monotone in delivery order; TTFC is the
        first arrival; per-chunk stats ride on the chunk itself."""
        report = RunReport()
        stream = run_ensemble(TwoGroupFactory(), range(4), SPAN,
                              n_points=40, stream=True,
                              cache=TrajectoryCache(),
                              telemetry=report)
        chunks = list(stream)
        assert len(chunks) == 2
        arrivals = [chunk.stats["arrival_seconds"] for chunk in chunks]
        assert all(a >= 0.0 for a in arrivals)
        assert arrivals == sorted(arrivals)
        assert report.counter("stream.chunks") == 2
        ttfc = report.gauges["stream.time_to_first_chunk_seconds"]
        assert ttfc == pytest.approx(arrivals[0])
        recorded = report.gauges["stream.chunk_arrival_seconds"]
        assert recorded == pytest.approx(arrivals)
        assert all(ttfc <= a for a in arrivals)
        for chunk in chunks:
            assert chunk.stats["rows"] == len(chunk.indices)
            assert chunk.stats["order"] == chunk.order

    def test_stream_without_telemetry_has_no_stats(self):
        stream = run_ensemble(TwoGroupFactory(), range(4), SPAN,
                              n_points=40, stream=True,
                              cache=TrajectoryCache())
        assert all(chunk.stats is None for chunk in stream)


class TestRunReportSchema:
    def _populated(self):
        result = run_ensemble(TlineFactory(), range(3), SPAN,
                              n_points=40, cache=TrajectoryCache(),
                              telemetry=True)
        return result.telemetry

    def test_round_trip_is_identity(self, tmp_path):
        report = self._populated()
        data = report.to_dict()
        assert validate_report(data) == []
        again = RunReport.from_dict(data)
        assert again.to_dict() == data
        text = report.to_json()
        assert RunReport.from_json(text).to_dict() == data
        path = tmp_path / "report.json"
        report.save(path)
        assert RunReport.load(path).to_dict() == data
        # JSON is plain data with the stable schema tag.
        parsed = json.loads(path.read_text())
        assert parsed["schema"] == SCHEMA_VERSION

    def test_validate_rejects_bad_shapes(self):
        good = self._populated().to_dict()
        assert validate_report({"schema": SCHEMA_VERSION}) != []
        assert any("schema" in p for p in
                   validate_report({**good, "schema": 99}))
        assert any("counter" in p for p in validate_report(
            {**good, "counters": {"x": "not-a-number"}}))
        assert any("spans" in p or "span" in p for p in validate_report(
            {**good, "spans": [{"name": "s"}]}))
        assert validate_report([1, 2, 3]) != []
        with pytest.raises(ValueError):
            RunReport.from_dict({**good, "schema": 99})

    def test_collect_metrics_standalone(self):
        report = RunReport()
        with collect_metrics(into=report, meta={"driver": "test"}):
            telemetry.add("a.b", 2)
            telemetry.add("a.b", 3)
            telemetry.gauge("g", 1.5)
            telemetry.append("lst", 0.1)
            telemetry.append("lst", 0.2)
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        assert not telemetry.enabled()
        assert report.counters["a.b"] == 5
        assert report.gauges["g"] == 1.5
        assert report.gauges["lst"] == [0.1, 0.2]
        assert report.spans[0]["name"] == "outer"
        assert report.spans[0]["children"][0]["name"] == "inner"
        assert report.wall_seconds >= report.spans[0]["seconds"] >= 0.0
        assert validate_report(report.to_dict()) == []

    def test_numpy_scalars_coerced_to_builtins(self, tmp_path):
        # Regression: np.int64 is NOT an int subclass, so a counter fed
        # from solver internals used to crash json.dumps in save().
        report = RunReport()
        with collect_metrics(into=report):
            telemetry.add("n.int64", np.int64(3))
            telemetry.gauge("g.float64", np.float64(1.5))
            telemetry.gauge("g.zero_d", np.array(7))
            telemetry.append("lst", np.float32(0.5))
            telemetry.merge_worker({"worker": "w0",
                                    "busy_seconds": np.float64(0.25)})
        assert type(report.counters["n.int64"]) is int
        assert type(report.gauges["g.float64"]) is float
        assert type(report.gauges["g.zero_d"]) is int
        assert type(report.gauges["lst"][0]) is float
        assert type(report.workers["w0"]["busy_seconds"]) is float
        path = report.save(tmp_path / "np.json")  # must not raise
        assert validate_report(json.loads(path.read_text())) == []

    def test_memory_gauges_recorded_and_rendered(self):
        report = self._populated()
        assert report.gauges["mem.peak_rss_bytes"] > 0
        assert "mem.shm_bytes_high_water" in report.gauges
        text = render_report(report)
        assert "memory:" in text
        assert "mem.peak_rss_bytes" in text

    def test_render_and_diff_are_text(self):
        report = self._populated()
        text = render_report(report)
        assert "RunReport (schema" in text
        assert "solver.nfev" in text
        assert "plan.compile" in text
        empty = RunReport()
        delta = diff_reports(report, empty, label_a="a", label_b="b")
        assert "a -> b" in delta
        assert "solver.nfev" in delta


class TestCacheSatellite:
    def test_stats_snapshot_callable(self):
        cache = TrajectoryCache()
        snapshot = cache.stats()
        assert {"hits", "misses", "stores", "evictions", "corrupt",
                "bytes_stored", "hit_rate"} <= set(snapshot)
        # Attribute access keeps working (bench code reads .hits).
        assert cache.stats.hits == snapshot["hits"] == 0

    def test_corrupt_npz_is_a_miss_not_a_crash(self, tmp_path):
        cache_dir = tmp_path / "cache"
        baseline = run_ensemble(TlineFactory(), range(2), SPAN,
                                n_points=40, cache=str(cache_dir))
        stored = list(cache_dir.glob("*.npz"))
        assert stored
        for path in stored:
            path.write_bytes(b"this is not a numpy archive")
        cache = TrajectoryCache(directory=str(cache_dir))
        report = RunReport()
        with collect_metrics(into=report), \
                pytest.warns(RuntimeWarning, match="treating as a miss"):
            again = run_ensemble(TlineFactory(), range(2), SPAN,
                                 n_points=40, cache=cache)
        np.testing.assert_array_equal(baseline.batches[0].y,
                                      again.batches[0].y)
        assert cache.stats.corrupt >= 1
        assert cache.stats()["corrupt"] >= 1
        assert report.counter("cache.corrupt") >= 1
        assert report.counter("cache.misses") >= 1


class TestShmSatellite:
    def test_warn_leaked_blocks_names_and_sizes(self):
        block = shm.ShmBlock.create((4, 8))
        name = block.header[0]
        try:
            with pytest.warns(ResourceWarning) as captured:
                leaked = shm.warn_leaked_blocks("unit test")
            assert leaked == [name]
            message = str(captured[0].message)
            assert name in message
            assert str(4 * 8 * 8) in message
            assert "unit test" in message
        finally:
            block.close()
            block.unlink()
        assert shm.active_blocks() == []

    def test_no_warning_when_clean(self):
        assert shm.active_blocks() == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shm.warn_leaked_blocks("unit test") == []

    def test_create_counts_into_telemetry(self):
        report = RunReport()
        with collect_metrics(into=report):
            block = shm.ShmBlock.create((2, 4))
            block.close()
            block.unlink()
        assert report.counter("shm.blocks") == 1
        assert report.counter("shm.bytes_allocated") == 2 * 4 * 8


PROGRAM = """
lang leaky-mm {
    ntyp(1,sum) X {attr tau=real[0.1,10] mm(0,0.1)};
    etyp W {attr w=real[-5,5]};
    prod(e:W, s:X->s:X) s <= -var(s)/s.tau;
    prod(e:W, s:X->t:X) t <= e.w*var(s)/t.tau;
    cstr X {acc[match(1,1,W,X), match(0,inf,W,X->[X]),
                match(0,inf,W,[X]->X)]};
}

func pair (w:real[-5,5]) uses leaky-mm {
    node x0:X; node x1:X;
    edge <x0,x0> l0:W; edge <x1,x1> l1:W; edge <x0,x1> c:W;
    set-attr x0.tau=1.0; set-attr x1.tau=0.5;
    set-attr l0.w=0.0;   set-attr l1.w=0.0;  set-attr c.w=w;
    set-init x0(0)=1.0;
}
"""


class TestCliSurface:
    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "prog.ark"
        path.write_text(PROGRAM)
        return str(path)

    def _run(self, program_file, out_path, extra=()):
        from repro.cli import main

        return main(["ensemble", program_file, "--arg", "w=1.0",
                     "--t-end", "1.0", "--seeds", "4", "--node", "x0",
                     "--print-rows", "2", "--metrics-out",
                     str(out_path), *extra])

    def test_metrics_out_writes_valid_schema(self, program_file,
                                             tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self._run(program_file, out) == 0
        assert "wrote run metrics" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert validate_report(data) == []
        report = RunReport.from_dict(data)
        assert report.counter("plan.instances") == 4
        assert report.counter("solver.nfev") > 0
        assert report.meta["driver"] == "cli.ensemble"

    def test_trace_prints_span_tree(self, program_file, tmp_path,
                                    capsys):
        out = tmp_path / "report.json"
        assert self._run(program_file, out, ["--trace"]) == 0
        printed = capsys.readouterr().out
        assert "RunReport (schema" in printed
        assert "plan.compile" in printed

    def test_metrics_out_does_not_move_results(self, program_file,
                                               tmp_path, capsys):
        from repro.cli import main

        csvs = {}
        for tag in ("plain", "metered"):
            path = tmp_path / f"{tag}.csv"
            extra = ["--metrics-out", str(tmp_path / "m.json")] \
                if tag == "metered" else []
            assert main(["ensemble", program_file, "--arg", "w=1.0",
                         "--t-end", "1.0", "--seeds", "4",
                         "--node", "x0", "--csv", str(path)]
                        + extra) == 0
            csvs[tag] = np.genfromtxt(path, delimiter=",", names=True)
        for name in csvs["plain"].dtype.names:
            np.testing.assert_array_equal(csvs["plain"][name],
                                          csvs["metered"][name])

    def test_report_renders_one_file(self, program_file, tmp_path,
                                     capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert self._run(program_file, out) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "RunReport (schema" in printed
        assert "solver.nfev" in printed

    def test_report_diffs_two_files(self, program_file, tmp_path,
                                    capsys):
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self._run(program_file, a) == 0
        assert self._run(program_file, b) == 0
        capsys.readouterr()
        assert main(["report", str(a), str(b)]) == 0
        printed = capsys.readouterr().out
        assert "diff:" in printed
        assert "wall time:" in printed

    def test_report_validate_flags_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        assert main(["report", "--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_report_validate_accepts_good(self, program_file, tmp_path,
                                          capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert self._run(program_file, out) == 0
        capsys.readouterr()
        assert main(["report", "--validate", str(out)]) == 0
        assert "OK (schema v2)" in capsys.readouterr().out

    def test_report_rejects_three_files(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for k in range(3):
            path = tmp_path / f"r{k}.json"
            path.write_text(RunReport().to_json())
            paths.append(str(path))
        assert main(["report", *paths]) == 2
        assert "one file" in capsys.readouterr().err
