"""Ensemble-engine benchmark runner: serial vs. batched wall time plus
trajectory-cache cold/warm reruns, the persistent zero-copy pool
backend, and streaming time-to-first-result.

Writes ``BENCH_ensemble.json`` at the repository root so future PRs
have a perf trajectory to regress against::

    PYTHONPATH=src python benchmarks/run_bench_ensemble.py

``--smoke`` shrinks the instance counts/grids for a fast CI check and
defaults its JSON to ``BENCH_ensemble_smoke.json`` so it never
overwrites the recorded full-size numbers; ``--out`` redirects the
JSON anywhere.

Workloads (both are the paper's mismatch studies):

* ``maxcut_64`` — 64 fabricated instances of the offset-afflicted
  4-cycle OBC max-cut solver (Table 1);
* ``tline_64``  — 64 Gm-mismatched instances of the Fig. 4 linear
  transmission line.

Each workload runs once through the legacy serial path (one scipy
solve per seed) and once through the batched engine (fused RHS +
dense-output rkf45), records the row-wise deviation between the two so
the speedup is never bought with silent inaccuracy, and then measures
the trajectory cache: a cold cached run (integrate + store) against a
warm rerun (key + load), asserting the rerun is bit-identical.

Two further sections (both gated on bit-identity, so they exit
non-zero instead of silently skewing):

* ``pool`` — the 64-instance t-line (fixed-step rk4, so the row split
  cannot change a bit) through the single-process ``batch`` backend
  against the persistent ``pool`` backend (workers spawned once,
  results via shared memory), cold and warm; records the pickle bytes
  the shm transport avoids and the warm-worker reuse win. ``cpu_count``
  is recorded because on a single-core host the pool cannot beat the
  single-process batch on wall clock — the numbers to read there are
  warm-vs-cold.
* ``scheduling`` — the adaptive scheduler on a deliberately skewed
  OBC workload (expensive rows contiguous at the head of one batch):
  even split vs cost-balanced split (cut from the profile the even
  run just learned) vs cost + ``overshard=4``, with per-group worker
  imbalance ratios. All three gated bit-identical; the >= 1.3x
  cost+overshard speedup additionally gates full-size runs on hosts
  with at least 4 CPUs.
* ``streaming`` — a two-structural-group t-line sweep through
  ``stream_ensemble``: time to the *first* finished group vs. the
  barriered total, with the assembled stream gated bit-identical to
  the barriered run.
* ``array_backend`` — the t-line sweep through the array-backend
  seam: the explicit ``numpy:float64`` spec gated bit-identical to the
  default path.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import repro  # noqa: E402
from conftest import mismatch_maxcut_factory  # noqa: E402
from repro.core.compiler import compile_graph  # noqa: E402
from repro.paradigms.tln import TLineSpec, mismatched_tline  # noqa: E402
from repro.sim import (TrajectoryCache, assemble_chunks,  # noqa: E402
                       run_ensemble, stream_ensemble)
from repro.sim.pool import shutdown_pools  # noqa: E402


class TlineBenchFactory:
    """Module-level (picklable) t-line factory for the pool workers."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class SkewedMaxcutFactory:
    """Deliberately cost-skewed OBC workload, one structural group.

    Every seed builds the same 12-oscillator offset-afflicted max-cut
    ring (identical structure, so the whole sweep is one batch), but
    the first quarter of seeds get a strong coupling — their networks
    keep evolving over the whole span — while the rest get a weak one
    and lock almost immediately, so under ``freeze_tol`` their rows
    freeze out of the RHS early (~4x cheaper per row). The expensive
    rows sit *contiguously at the head* of the batch: an even row
    split hands one worker all of them, which is exactly the imbalance
    the cost schedule and oversharding exist to fix."""

    N_VERTICES = 12
    SLOW_COUPLING = -1.0
    FAST_COUPLING = -0.02

    def __init__(self, n_seeds: int):
        self.n_slow = max(1, n_seeds // 4)

    def __call__(self, seed):
        import math

        from repro.paradigms.obc import maxcut_network

        n_v = self.N_VERTICES
        edges = [(i, (i + 1) % n_v) for i in range(n_v)]
        phases = np.random.default_rng(7).uniform(
            0.0, 2.0 * math.pi, n_v)
        coupling = (self.SLOW_COUPLING if seed < self.n_slow
                    else self.FAST_COUPLING)
        return maxcut_network(edges, n_v, initial_phases=phases,
                              edge_type="Cpl_ofs", seed=seed,
                              coupling=coupling)


class TwoGroupTlineFactory:
    """Two structural groups (alternating 9/10-segment lines) so the
    streaming executor has more than one chunk to deliver."""

    def __call__(self, seed):
        spec = TLineSpec(n_segments=9 if seed % 2 else 10)
        return mismatched_tline("gm", seed=seed, spec=spec)

DEFAULT_RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / \
    "BENCH_ensemble.json"


def workloads(n_instances: int, smoke: bool) -> dict:
    return {
        f"maxcut_{n_instances}": {
            "factory": mismatch_maxcut_factory(),
            "t_span": (0.0, 100e-9),
            "n_points": 30 if smoke else 60,
            "probe_node": "Osc_0",
        },
        f"tline_{n_instances}": {
            "factory": lambda seed: mismatched_tline("gm", seed=seed),
            "t_span": (0.0, 8e-8),
            "n_points": 100 if smoke else 300,
            "probe_node": "OUT_V",
        },
    }


def run_workload(name: str, spec: dict, n_instances: int) -> dict:
    seeds = range(n_instances)
    runs = {}
    timings = {}
    for engine in ("serial", "batch"):
        start = time.perf_counter()
        runs[engine] = repro.simulate_ensemble(
            spec["factory"], seeds=seeds, t_span=spec["t_span"],
            n_points=spec["n_points"], engine=engine)
        timings[engine] = time.perf_counter() - start
    node = spec["probe_node"]
    deviation = max(
        float(np.max(np.abs(a[node] - b[node])))
        for a, b in zip(runs["serial"], runs["batch"]))
    result = {
        "n_instances": n_instances,
        "t_span": list(spec["t_span"]),
        "n_points": spec["n_points"],
        "serial_seconds": round(timings["serial"], 4),
        "batched_seconds": round(timings["batch"], 4),
        "speedup": round(timings["serial"] / timings["batch"], 2),
        "probe_node": node,
        "max_abs_deviation": deviation,
    }
    result["cache"] = run_cache_scenario(spec, n_instances)
    print(f"[{name}] serial {result['serial_seconds']:.2f}s  "
          f"batched {result['batched_seconds']:.2f}s  "
          f"speedup {result['speedup']:.1f}x  "
          f"max|dev| {deviation:.2e}  "
          f"cache warm {result['cache']['warm_speedup']:.1f}x "
          f"(bit-identical: {result['cache']['bit_identical']})")
    return result


def run_cache_scenario(spec: dict, n_instances: int) -> dict:
    """The repeated-sweep pattern the cache targets: the ensemble is
    fabricated and compiled once (e.g. at the top of a
    readout-tolerance sweep), then re-integrated per sweep point. The
    cold run pays the integration and stores it; the warm rerun must be
    a pure key + load, bit-identical to the cold trajectories."""
    systems = {seed: compile_graph(spec["factory"](seed))
               for seed in range(n_instances)}
    factory = systems.__getitem__
    cache = TrajectoryCache()
    start = time.perf_counter()
    cold = run_ensemble(factory, range(n_instances), spec["t_span"],
                        n_points=spec["n_points"], cache=cache)
    cold_seconds = time.perf_counter() - start
    # Best-of-3: the warm rerun is a ~10ms key+load, well inside the
    # scheduler-jitter band of CI containers.
    warm_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        warm = run_ensemble(factory, range(n_instances),
                            spec["t_span"],
                            n_points=spec["n_points"], cache=cache)
        warm_seconds = min(warm_seconds,
                           time.perf_counter() - start)
    identical = (
        len(cold.batches) == len(warm.batches)
        and all(np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
                for a, b in zip(cold.batches, warm.batches)))
    return {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "bit_identical": bool(identical),
    }


def run_pool_scenario(n_instances: int, n_points: int) -> dict:
    """The single-process batch vs the persistent zero-copy pool on
    the t-line mismatch sweep, cold and warm. Fixed-step rk4 rows are
    partition-independent, so the pool must be bit-identical to the
    batch — the gate that keeps the comparison honest."""
    factory = TlineBenchFactory()
    span = (0.0, 8e-8)
    processes = min(4, max(2, os.cpu_count() or 1))
    kwargs = dict(n_points=n_points, method="rk4")
    start = time.perf_counter()
    batch = run_ensemble(factory, range(n_instances), span, **kwargs)
    batch_seconds = time.perf_counter() - start
    shutdown_pools()  # measure a genuinely cold pool (worker spawn)
    start = time.perf_counter()
    cold = run_ensemble(factory, range(n_instances), span,
                        engine="pool", processes=processes, **kwargs)
    cold_seconds = time.perf_counter() - start
    # Warm: workers, payload caches, and compiled kernels are reused.
    warm_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        warm = run_ensemble(factory, range(n_instances), span,
                            engine="pool", processes=processes,
                            **kwargs)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    identical = bool(
        np.array_equal(batch.batches[0].y, cold.batches[0].y)
        and np.array_equal(cold.batches[0].y, warm.batches[0].y))
    # What a pickling pool would haul back through the pipe per solve —
    # the transport cost the shared-memory blocks eliminate.
    pickle_bytes = int(sum(part.y.nbytes for part in cold.batches))
    result = {
        "workload": f"tline_{n_instances}",
        "n_instances": n_instances,
        "n_points": n_points,
        "processes": processes,
        "cpu_count": os.cpu_count(),
        "method": "rk4",
        "batch_seconds": round(batch_seconds, 4),
        "pool_cold_seconds": round(cold_seconds, 4),
        "pool_warm_seconds": round(warm_seconds, 4),
        "pool_warm_speedup_vs_batch": round(
            batch_seconds / warm_seconds, 2),
        "pool_warm_speedup_vs_cold": round(
            cold_seconds / warm_seconds, 2),
        "pickle_bytes_avoided_per_solve": pickle_bytes,
        "bit_identical": identical,
    }
    print(f"[pool] batch {batch_seconds:.2f}s  pool cold "
          f"{cold_seconds:.2f}s  warm {warm_seconds:.2f}s  "
          f"(warm vs batch {result['pool_warm_speedup_vs_batch']:.1f}x"
          f", {pickle_bytes / 1e6:.1f} MB pickle avoided/solve, "
          f"identical={identical}, cpus: {os.cpu_count()})")
    return result


def run_array_backend_scenario(n_instances: int,
                               n_points: int) -> dict:
    """The t-line mismatch sweep through the array-backend seam: the
    explicit numpy/float64 spec must be bit-identical to the default
    path (that is the gate)."""
    factory = TlineBenchFactory()
    span = (0.0, 8e-8)
    kwargs = dict(n_points=n_points)
    start = time.perf_counter()
    default = run_ensemble(factory, range(n_instances), span, **kwargs)
    numpy_seconds = time.perf_counter() - start
    start = time.perf_counter()
    explicit = run_ensemble(factory, range(n_instances), span,
                            array_backend="numpy:float64", **kwargs)
    explicit_seconds = time.perf_counter() - start
    identical = bool(np.array_equal(default.batches[0].y,
                                    explicit.batches[0].y))
    result = {
        "workload": f"tline_{n_instances}",
        "n_instances": n_instances,
        "n_points": n_points,
        "numpy_seconds": round(numpy_seconds, 4),
        "numpy_explicit_seconds": round(explicit_seconds, 4),
        "bit_identical": identical,
    }
    print(f"[array-backend] numpy {numpy_seconds:.2f}s  explicit spec "
          f"{explicit_seconds:.2f}s  (identical={identical})")
    return result


def run_stream_scenario(n_instances: int, n_points: int) -> dict:
    """Time-to-first-result: the streaming executor hands the first
    structural group to analysis while the rest of the sweep is still
    integrating; the barriered run returns nothing until the end."""
    factory = TwoGroupTlineFactory()
    span = (0.0, 8e-8)
    seeds = list(range(n_instances))
    start = time.perf_counter()
    barrier = run_ensemble(factory, seeds, span, n_points=n_points)
    barrier_seconds = time.perf_counter() - start
    start = time.perf_counter()
    chunks = []
    first_seconds = None
    for chunk in stream_ensemble(factory, seeds, span,
                                 n_points=n_points):
        if first_seconds is None:
            first_seconds = time.perf_counter() - start
        chunks.append(chunk)
    stream_seconds = time.perf_counter() - start
    assembled = assemble_chunks(chunks, seeds)
    identical = (
        len(assembled.batches) == len(barrier.batches)
        and all(np.array_equal(a.y, b.y) for a, b in
                zip(assembled.batches, barrier.batches)))
    result = {
        "workload": f"tline_two_groups_{n_instances}",
        "n_instances": n_instances,
        "n_groups": len(chunks),
        "n_points": n_points,
        "barrier_seconds": round(barrier_seconds, 4),
        "stream_total_seconds": round(stream_seconds, 4),
        "time_to_first_result_seconds": round(first_seconds, 4),
        "first_result_fraction": round(
            first_seconds / stream_seconds, 3),
        "bit_identical": bool(identical),
    }
    print(f"[streaming] barrier {barrier_seconds:.2f}s  first chunk "
          f"at {first_seconds:.2f}s "
          f"({result['first_result_fraction'] * 100:.0f}% of the "
          f"streamed total, {len(chunks)} groups, "
          f"identical={identical})")
    return result


def run_scheduling_scenario(n_instances: int, smoke: bool) -> dict:
    """Even vs cost-balanced vs oversharded scheduling on the skewed
    OBC workload (see :class:`SkewedMaxcutFactory`).

    The even baseline runs with a cost profile attached: the split is
    still the historical even one, but the scheduler observes per-shard
    timings — so the baseline run *is* the learning run, and the cost
    run that follows cuts shards from a warm profile. All three
    configurations are gated bit-identical (rk4 row arithmetic is
    partition-independent); the >= 1.3x cost+overshard speedup is gated
    only on full-size runs with at least 4 CPUs — on smaller hosts the
    workers share cores and balancing cannot buy wall time, so the
    numbers are recorded but not judged.
    """
    import tempfile

    from repro.telemetry import RunReport

    factory = SkewedMaxcutFactory(n_instances)
    span = (0.0, 100e-9)
    processes = min(4, max(2, os.cpu_count() or 1))
    kwargs = dict(n_points=60, method="rk4", freeze_tol=50.0,
                  max_step=0.2e-9, engine="pool",
                  processes=processes, shard_min=2)
    baseline = run_ensemble(factory, range(n_instances), span,
                            **kwargs)  # warm the pool + kernel caches

    def timed(schedule, overshard, profile):
        best = float("inf")
        for _ in range(2):
            report = RunReport()
            start = time.perf_counter()
            result = run_ensemble(factory, range(n_instances), span,
                                  schedule=schedule,
                                  overshard=overshard,
                                  cost_profile=profile,
                                  telemetry=report, **kwargs)
            best = min(best, time.perf_counter() - start)
        ratios = report.gauges.get("sched.imbalance_ratio") or []
        identical = bool(np.array_equal(baseline.batches[0].y,
                                        result.batches[0].y))
        return {"seconds": round(best, 4),
                "imbalance_ratio": round(max(ratios), 3) if ratios
                else None,
                "bit_identical": identical}

    with tempfile.TemporaryDirectory() as tmp:
        profile = os.path.join(tmp, "cost_profile.json")
        even = timed("even", 1, profile)   # learns the profile
        cost = timed("cost", 1, profile)
        oversharded = timed("cost", 4, profile)
    speedup = round(even["seconds"] / oversharded["seconds"], 2)
    gate_speedup = not smoke and (os.cpu_count() or 1) >= 4
    result = {
        "workload": f"skewed_maxcut_{n_instances}",
        "n_instances": n_instances,
        "n_slow_rows": factory.n_slow,
        "processes": processes,
        "cpu_count": os.cpu_count(),
        "even": even,
        "cost": cost,
        "cost_overshard4": oversharded,
        "cost_overshard_speedup_vs_even": speedup,
        "speedup_gated": gate_speedup,
        "bit_identical": bool(even["bit_identical"]
                              and cost["bit_identical"]
                              and oversharded["bit_identical"]),
        "speedup_ok": bool(not gate_speedup or speedup >= 1.3),
    }
    print(f"[scheduling] even {even['seconds']:.2f}s (imbalance "
          f"{even['imbalance_ratio']})  cost {cost['seconds']:.2f}s  "
          f"cost+overshard4 {oversharded['seconds']:.2f}s  "
          f"speedup {speedup:.2f}x"
          f"{'' if gate_speedup else ' (not gated: small host/smoke)'}"
          f"  identical={result['bit_identical']}")
    return result


def run_telemetry_scenario(n_instances: int, n_points: int) -> dict:
    """Telemetry cost, both ways, on the t-line mismatch sweep.

    Enabled: a metered run must stay bit-identical to the plain run
    (the gate that keeps instrumentation honest) and its RunReport must
    carry non-zero solver counters. Disabled: the only residue at each
    hook site is one ContextVar check — priced directly as (per-op
    disabled cost x the op count an enabled run records) over the
    plain run's wall time, and asserted under 2%.
    """
    from repro import telemetry
    from repro.telemetry import RunReport, collect_metrics

    factory = TlineBenchFactory()
    span = (0.0, 8e-8)
    # Fresh caches so every run pays the full integration.
    plain_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        plain = run_ensemble(factory, range(n_instances), span,
                             n_points=n_points,
                             cache=TrajectoryCache())
        plain_seconds = min(plain_seconds,
                            time.perf_counter() - start)
    metered_seconds = float("inf")
    ops = 0
    for _ in range(3):
        report = RunReport()
        start = time.perf_counter()
        with collect_metrics(into=report):
            metered = run_ensemble(factory, range(n_instances), span,
                                   n_points=n_points,
                                   cache=TrajectoryCache())
            ops = telemetry.current().ops
        metered_seconds = min(metered_seconds,
                              time.perf_counter() - start)
    identical = bool(np.array_equal(plain.batches[0].y,
                                    metered.batches[0].y))
    # Disabled-path microbenchmark: telemetry.add outside any window is
    # the exact code every hook runs when collection is off.
    probes = 200_000
    start = time.perf_counter()
    for _ in range(probes):
        telemetry.add("bench.noop")
    per_op_seconds = (time.perf_counter() - start) / probes
    disabled_pct = 100.0 * per_op_seconds * ops / plain_seconds
    result = {
        "workload": f"tline_{n_instances}",
        "n_instances": n_instances,
        "n_points": n_points,
        "plain_seconds": round(plain_seconds, 4),
        "metered_seconds": round(metered_seconds, 4),
        "enabled_overhead_pct": round(
            100.0 * (metered_seconds - plain_seconds) / plain_seconds,
            2),
        "hook_ops_per_run": ops,
        "disabled_ns_per_op": round(per_op_seconds * 1e9, 1),
        "disabled_overhead_pct": round(disabled_pct, 4),
        "solver_nfev": int(report.counter("solver.nfev")),
        "bit_identical": identical,
    }
    print(f"[telemetry] plain {plain_seconds:.2f}s  metered "
          f"{metered_seconds:.2f}s  enabled overhead "
          f"{result['enabled_overhead_pct']:+.1f}%  disabled "
          f"{ops} ops x {result['disabled_ns_per_op']:.0f}ns = "
          f"{disabled_pct:.4f}% of wall  identical={identical}")
    return result


def append_history(payload: dict, history_path) -> None:
    """Leave one line per headline timing in the shared benchmark
    history (``repro bench check`` judges future runs against them).
    Workload names embed the size tag so smoke and full-size runs
    never share a baseline."""
    from repro.telemetry import RunReport, history

    tag = "smoke" if payload["smoke"] else "full"
    sha = history.git_sha()

    def record(workload, wall, **meta):
        report = RunReport(wall_seconds=float(wall),
                           meta={"driver": "bench.ensemble", **meta})
        history.append_entry(
            history_path, history.summarize(report, workload, sha=sha))

    for name, rec in payload["workloads"].items():
        record(f"ensemble.{name}.batched[{tag}]",
               rec["batched_seconds"], n_points=rec["n_points"])
    pool = payload["pool"]
    record(f"ensemble.pool.warm[{tag}]", pool["pool_warm_seconds"],
           processes=pool["processes"])
    sched = payload["scheduling"]
    record(f"ensemble.sched.cost_overshard[{tag}]",
           sched["cost_overshard4"]["seconds"],
           processes=sched["processes"],
           speedup_vs_even=sched["cost_overshard_speedup_vs_even"])
    stream = payload["streaming"]
    record(f"ensemble.stream.first[{tag}]",
           stream["time_to_first_result_seconds"],
           n_groups=stream["n_groups"])
    print(f"appended {3 + len(payload['workloads'])} history entries "
          f"to {history_path} (sha {sha})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instance counts/grids for CI")
    parser.add_argument("--out", default=None,
                        help="result path (default: repo-root "
                        "BENCH_ensemble.json)")
    parser.add_argument("--history", default=None,
                        help="benchmark history JSONL to append "
                        "headline timings to (default: repo-root "
                        "benchmarks/history.jsonl; 'none' disables)")
    args = parser.parse_args(argv)
    n_instances = 8 if args.smoke else 64
    tline_points = 100 if args.smoke else 300
    payload = {
        "benchmark": "ensemble-engine serial vs batched "
                     "(fused RHS + dense output) + trajectory cache "
                     "+ persistent pool + streaming",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": args.smoke,
        "workloads": {
            name: run_workload(name, spec, n_instances)
            for name, spec in workloads(n_instances,
                                        args.smoke).items()},
        "pool": run_pool_scenario(n_instances, tline_points),
        "scheduling": run_scheduling_scenario(n_instances, args.smoke),
        "streaming": run_stream_scenario(n_instances, tline_points),
        "telemetry": run_telemetry_scenario(n_instances, tline_points),
        "array_backend": run_array_backend_scenario(n_instances,
                                                    tline_points),
    }
    failures = [name for name, record in payload["workloads"].items()
                if not record["cache"]["bit_identical"]]
    if not payload["pool"]["bit_identical"]:
        failures.append("pool-vs-batch")
    if not payload["scheduling"]["bit_identical"]:
        failures.append("scheduling-cost-vs-even")
    if not payload["scheduling"]["speedup_ok"]:
        failures.append("scheduling-overshard-speedup")
    if not payload["streaming"]["bit_identical"]:
        failures.append("streaming-vs-barrier")
    if not payload["telemetry"]["bit_identical"]:
        failures.append("telemetry-vs-plain")
    if payload["telemetry"]["disabled_overhead_pct"] >= 2.0:
        failures.append("telemetry-disabled-overhead")
    if not payload["array_backend"]["bit_identical"]:
        failures.append("array-backend-numpy-identity")
    if args.out:
        result_path = pathlib.Path(args.out)
    elif args.smoke:
        # Never let a local smoke run overwrite the recorded
        # full-size perf trajectory.
        result_path = DEFAULT_RESULT_PATH.with_name(
            "BENCH_ensemble_smoke.json")
    else:
        result_path = DEFAULT_RESULT_PATH
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {result_path}")
    if failures:
        print(f"NOT bit-identical: {failures}", file=sys.stderr)
        return 1
    # Only clean (bit-identical) runs earn a place in the baseline.
    if args.history != "none":
        history_path = args.history or (
            pathlib.Path(__file__).resolve().parent / "history.jsonl")
        append_history(payload, history_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
