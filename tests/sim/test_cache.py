"""Tests for the trajectory cache: keying, bit-identity, backends."""

import re

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.sim import TrajectoryCache, run_ensemble
from repro.sim.batch_codegen import canonical_spec
from repro.sim.cache import resolve_cache
from repro.telemetry import RunReport, collect_metrics


_LANG = repro.Language("cache-lang")
_LANG.node_type("X", order=1,
                attrs=[("tau", repro.real(0.2, 5.0, mm=(0.0, 0.1)))])
_LANG.edge_type("S")
_LANG.prod("prod(e:S,s:X->s:X) s <= -var(s)/s.tau")


def _factory(seed):
    builder = repro.GraphBuilder(_LANG, "cached", seed=seed)
    builder.node("x", "X").set_attr("x", "tau", 1.0)
    builder.edge("x", "x", "e", "S")
    builder.set_init("x", 1.0)
    return builder.finish()


def _systems(seeds):
    return [compile_graph(_factory(seed)) for seed in seeds]


_OPTIONS = {"t_span": (0.0, 1.0), "n_points": 40, "method": "dopri5",
            "rtol": 1e-7, "atol": 1e-9, "max_step": None,
            "t_eval": None, "dense": True}


class TestKeying:
    def test_key_is_deterministic(self):
        cache = TrajectoryCache()
        systems = _systems(range(3))
        assert cache.key_for(systems, "batch", _OPTIONS) == \
            cache.key_for(systems, "batch", _OPTIONS)

    def test_key_is_stable_across_recompiles(self):
        cache = TrajectoryCache()
        assert cache.key_for(_systems(range(3)), "batch", _OPTIONS) == \
            cache.key_for(_systems(range(3)), "batch", _OPTIONS)

    def test_key_tracks_attributes_grid_options_and_kind(self):
        cache = TrajectoryCache()
        base = cache.key_for(_systems(range(3)), "batch", _OPTIONS)
        assert cache.key_for(_systems(range(1, 4)), "batch",
                             _OPTIONS) != base
        assert cache.key_for(_systems(range(3)), "sde",
                             _OPTIONS) != base
        for name, value in (("n_points", 41), ("rtol", 1e-6),
                            ("t_span", (0.0, 2.0)), ("dense", False)):
            changed = dict(_OPTIONS, **{name: value})
            assert cache.key_for(_systems(range(3)), "batch",
                                 changed) != base

    def test_retired_dense_entry_keeps_batch_keys(self):
        # Batch keys hashed dense=True while the adaptive solver had a
        # clip-to-grid mode; they still do without it, so stored
        # entries (and the benchmark's traced replay, which passes
        # dense=True) keep hitting. SDE keys never carried the entry.
        cache = TrajectoryCache()
        systems = _systems(range(3))
        options = {name: value for name, value in _OPTIONS.items()
                   if name != "dense"}
        assert cache.key_for(systems, "batch", options) == \
            cache.key_for(systems, "batch", {**options, "dense": True})
        assert cache.key_for(systems, "sde", options) != \
            cache.key_for(systems, "sde", {**options, "dense": True})

    def test_retired_rkf45_spelling_keys_as_dopri5(self):
        # solve_batch runs method="rkf45" as dopri5, so its key is the
        # dopri5 key; another method still gets its own.
        cache = TrajectoryCache()
        systems = _systems(range(3))
        base = cache.key_for(systems, "batch", _OPTIONS)
        assert cache.key_for(systems, "batch",
                             dict(_OPTIONS, method="rkf45")) == base
        assert cache.key_for(systems, "batch",
                             dict(_OPTIONS, method="rk4")) != base

    def test_array_backend_spellings_share_one_key(self):
        # Regression (CACHE_SCHEMA 3): the array_backend option is
        # canonicalized before hashing, so every spelling of the
        # default resolves to the same entry — a sweep that sets
        # array_backend="numpy" must hit the cache a plain sweep
        # populated.
        cache = TrajectoryCache()
        base = cache.key_for(_systems(range(3)), "batch",
                             dict(_OPTIONS, array_backend=None))
        for spelling in ("numpy", "numpy:float64"):
            spelled = cache.key_for(
                _systems(range(3)), "batch",
                dict(_OPTIONS, array_backend=spelling))
            assert spelled == base, spelling

    def test_array_backend_name_and_dtype_change_key(self):
        # ...while float32 — numerically different results — can never
        # collide with the default, and a spec outside the accepted
        # spellings never reaches a key at all.
        cache = TrajectoryCache()
        base = cache.key_for(_systems(range(3)), "batch",
                             dict(_OPTIONS, array_backend=None))
        other = cache.key_for(_systems(range(3)), "batch",
                              dict(_OPTIONS, array_backend="numpy:float32"))
        assert other != base
        for spec in ("jax", "jax:float32", "cupy", "numpy:float16"):
            with pytest.raises(SimulationError, match="unknown array"):
                cache.key_for(_systems(range(3)), "batch",
                              dict(_OPTIONS, array_backend=spec))

    def test_ndarray_option_values_hash(self):
        cache = TrajectoryCache()
        a = dict(_OPTIONS, t_eval=np.linspace(0.0, 1.0, 7))
        b = dict(_OPTIONS, t_eval=np.linspace(0.0, 1.0, 8))
        systems = _systems(range(2))
        assert cache.key_for(systems, "batch", a) != \
            cache.key_for(systems, "batch", b)

    def test_closure_functions_are_uncachable(self):
        # id()-keyed function identities can be recycled within a
        # process; refusing a key beats a wrong-answer collision.
        lang = repro.Language("cache-closure")
        lang.node_type("X", order=1)
        lang.edge_type("S")
        lang.register_function("rate", lambda x: 2.0 * x)
        lang.prod("prod(e:S,s:X->s:X) s <= -rate(var(s))")
        builder = repro.GraphBuilder(lang, "closure")
        builder.node("x", "X")
        builder.edge("x", "x", "e", "S")
        builder.set_init("x", 1.0)
        cache = TrajectoryCache()
        key = cache.key_for([compile_graph(builder.finish())], "batch",
                            _OPTIONS)
        assert key is None
        assert cache.stats.uncachable == 1


class TestStore:
    def test_lru_eviction(self):
        cache = TrajectoryCache(maxsize=2)
        t = np.linspace(0.0, 1.0, 3)
        for tag in ("a", "b", "c"):
            cache.put(tag, t, np.full((1, 1, 3), ord(tag), dtype=float))
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted
        assert cache.get("c") is not None

    def test_get_returns_copies(self):
        cache = TrajectoryCache()
        t = np.linspace(0.0, 1.0, 3)
        cache.put("k", t, np.ones((1, 1, 3)))
        first_t, first_y = cache.get("k")
        first_y[:] = -1.0
        _, second_y = cache.get("k")
        assert np.all(second_y == 1.0)

    def test_disk_roundtrip(self, tmp_path):
        writer = TrajectoryCache(directory=tmp_path)
        t = np.linspace(0.0, 1.0, 5)
        y = np.arange(10.0).reshape(1, 2, 5)
        writer.put("deadbeef", t, y)
        reader = TrajectoryCache(directory=tmp_path)  # fresh memory
        hit = reader.get("deadbeef")
        assert hit is not None
        np.testing.assert_array_equal(hit[0], t)
        np.testing.assert_array_equal(hit[1], y)

    def test_disk_write_is_atomic_no_temp_leftovers(self, tmp_path):
        cache = TrajectoryCache(directory=tmp_path)
        cache.put("aa" * 8, np.linspace(0.0, 1.0, 4),
                  np.ones((2, 1, 4)))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"{'aa' * 8}.npz"]  # no .tmp.npz survived

    def test_failed_disk_write_publishes_nothing(self, tmp_path,
                                                 monkeypatch):
        # A writer dying mid-serialization (ENOSPC, crash) must never
        # leave a torn .npz behind for a concurrent pool worker to
        # load: the destination name only ever appears via os.replace
        # of a fully fsynced temp file.
        cache = TrajectoryCache(directory=tmp_path)

        def explode(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk full (forced)")

        monkeypatch.setattr(np, "savez", explode)
        with pytest.warns(RuntimeWarning, match="disk full"):
            cache.put("bb" * 8, np.linspace(0.0, 1.0, 4),
                      np.ones((1, 1, 4)))
        assert list(tmp_path.iterdir()) == []  # no entry, no temp
        monkeypatch.undo()
        # The same key stores cleanly afterwards and loads back.
        cache.put("bb" * 8, np.linspace(0.0, 1.0, 4),
                  np.ones((1, 1, 4)))
        fresh = TrajectoryCache(directory=tmp_path)
        assert fresh.get("bb" * 8) is not None

    def test_concurrent_writers_same_key_leave_valid_entry(self,
                                                           tmp_path):
        # Two stores racing on one key (pool workers sharing a
        # --cache-dir): last rename wins, the entry is always a
        # complete npz, and no per-writer temp files leak.
        t = np.linspace(0.0, 1.0, 4)
        for value in (1.0, 2.0):
            TrajectoryCache(directory=tmp_path).put(
                "cc" * 8, t, np.full((1, 1, 4), value))
        reader = TrajectoryCache(directory=tmp_path)
        hit = reader.get("cc" * 8)
        assert hit is not None and np.all(hit[1] == 2.0)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [f"{'cc' * 8}.npz"]

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True) is resolve_cache(True)
        disk = resolve_cache(str(tmp_path))
        assert isinstance(disk, TrajectoryCache)
        assert disk.directory == str(tmp_path)
        cache = TrajectoryCache()
        assert resolve_cache(cache) is cache
        with pytest.raises(TypeError):
            resolve_cache(42)


class TestEnsembleIntegration:
    def test_rerun_hits_and_is_bit_identical(self):
        cache = TrajectoryCache()
        first = run_ensemble(_factory, range(4), (0.0, 1.0),
                             n_points=40, cache=cache)
        second = run_ensemble(_factory, range(4), (0.0, 1.0),
                              n_points=40, cache=cache)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        for a, b in zip(first.batches, second.batches):
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.t, b.t)

    def test_explicit_numpy_spelling_hits_default_entry(self):
        cache = TrajectoryCache()
        first = run_ensemble(_factory, range(4), (0.0, 1.0),
                             n_points=40, cache=cache)
        second = run_ensemble(_factory, range(4), (0.0, 1.0),
                              n_points=40, cache=cache,
                              array_backend="numpy:float64")
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        for a, b in zip(first.batches, second.batches):
            np.testing.assert_array_equal(a.y, b.y)

    def test_float32_never_replays_float64_entry(self):
        cache = TrajectoryCache()
        run_ensemble(_factory, range(4), (0.0, 1.0), n_points=40,
                     cache=cache)
        single = run_ensemble(_factory, range(4), (0.0, 1.0),
                              n_points=40, cache=cache,
                              array_backend="numpy:float32")
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert single.batches[0].y.dtype == np.float32
        # ...and the float32 entry replays as float32, not widened.
        warm = run_ensemble(_factory, range(4), (0.0, 1.0),
                            n_points=40, cache=cache,
                            array_backend="numpy:float32")
        assert cache.stats.hits == 1
        assert warm.batches[0].y.dtype == np.float32
        np.testing.assert_array_equal(warm.batches[0].y,
                                      single.batches[0].y)

    def test_rkf45_keyed_solve_replays_the_dopri5_sweep(self):
        # The benchmark's traced t-line keys its group with
        # method="rkf45" and every solver option it hands solve_batch;
        # the entry an auto (dopri5) sweep stored must answer that key.
        cache = TrajectoryCache()
        result = run_ensemble(_factory, range(4), (0.0, 1.0),
                              n_points=40, cache=cache)
        options = {"t_span": (0.0, 1.0), "n_points": 40,
                   "method": "rkf45", "rtol": 1e-7, "atol": 1e-9,
                   "t_eval": None, "max_step": None, "dense": True,
                   "freeze_tol": None,
                   "array_backend": canonical_spec(None)}
        hit = cache.get(cache.key_for(result.batches[0].systems, "batch",
                                      options))
        assert hit is not None
        np.testing.assert_array_equal(hit[1], result.batches[0].y)

    def test_grid_change_misses(self):
        cache = TrajectoryCache()
        run_ensemble(_factory, range(4), (0.0, 1.0), n_points=40,
                     cache=cache)
        run_ensemble(_factory, range(4), (0.0, 1.0), n_points=50,
                     cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_disk_cache_survives_new_store(self, tmp_path):
        first = run_ensemble(_factory, range(4), (0.0, 1.0),
                             n_points=40, cache=str(tmp_path))
        fresh = TrajectoryCache(directory=tmp_path)
        second = run_ensemble(_factory, range(4), (0.0, 1.0),
                              n_points=40, cache=fresh)
        assert fresh.stats.hits == 1
        for a, b in zip(first.batches, second.batches):
            np.testing.assert_array_equal(a.y, b.y)

    def test_unwritable_cache_dir_keeps_the_result(self, tmp_path):
        # A cache directory under a regular file fails every disk write,
        # even as root (a read-only chmod does not): the finished solve
        # must survive, stay in memory, and count as a failed store,
        # not a store.
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = TrajectoryCache(directory=blocker / "cache")
        report = RunReport()
        with collect_metrics(into=report), pytest.warns(
                RuntimeWarning, match=re.escape(str(blocker / "cache"))):
            result = run_ensemble(_factory, range(4), (0.0, 1.0),
                                  n_points=40, cache=cache)
        plain = run_ensemble(_factory, range(4), (0.0, 1.0), n_points=40)
        np.testing.assert_array_equal(result.batches[0].y,
                                      plain.batches[0].y)
        assert report.counters["cache.store_failed"] == 1
        assert "cache.stores" not in report.counters
        assert cache.stats.stores == 0 and cache.stats.bytes_stored == 0
        run_ensemble(_factory, range(4), (0.0, 1.0), n_points=40,
                     cache=cache)
        assert cache.stats.hits == 1  # the memory tier kept the entry


_NS_LANG = repro.Language("cache-ns")
_NS_LANG.node_type("X", order=1,
                   attrs=[("tau", repro.real(0.2, 5.0, mm=(0.0, 0.1)))])
_NS_LANG.edge_type("S")
_NS_LANG.prod("prod(e:S,s:X->s:X) s <= -var(s)/s.tau + noise(0.05)")


def _noisy_factory(seed):
    builder = repro.GraphBuilder(_NS_LANG, "noisy-cached", seed=seed)
    builder.node("x", "X").set_attr("x", "tau", 1.0)
    builder.edge("x", "x", "e", "S")
    builder.set_init("x", 1.0)
    return builder.finish()


class TestNoisyEnsembleIntegration:
    def test_noisy_rerun_is_bit_identical(self):
        cache = TrajectoryCache()
        first = run_ensemble(_noisy_factory, range(2), (0.0, 1.0),
                             trials=3, n_points=30, cache=cache)
        second = run_ensemble(_noisy_factory, range(2),
                              (0.0, 1.0), trials=3, n_points=30,
                              cache=cache)
        assert cache.stats.hits >= 1
        for a, b in zip(first.batches, second.batches):
            np.testing.assert_array_equal(a.y, b.y)

    def test_trial_base_shift_misses(self):
        cache = TrajectoryCache()
        run_ensemble(_noisy_factory, range(2), (0.0, 1.0),
                     trials=3, n_points=30, cache=cache)
        hits_before = cache.stats.hits
        shifted = run_ensemble(_noisy_factory, range(2),
                               (0.0, 1.0), trials=3, n_points=30,
                               noise_seed=7, cache=cache)
        # The SDE batch must re-integrate (fresh realizations); only
        # the deterministic reference may hit.
        assert shifted.batches
        assert cache.stats.hits == hits_before + 1
