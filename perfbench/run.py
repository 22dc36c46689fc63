"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tline_mismatch --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout (the program is imported from
``src/``). With ``--trace 0`` the workload's sweeps run untraced and
the last stdout line holds the end-to-end metrics, their times scaled
to a nominal host speed (see hostspeed.py; the raw times are on the
``raw:`` line before it); with ``--trace 1``
untraced and traced sweeps alternate, the last line holds the
per-layer metrics, and the traced sweeps are written as a RunReport
under ``perfbench/_out/`` (``python -m repro report <file>`` renders
it). Workloads, metrics and layers are described in README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is imported;
# pool workers inherit it, so workers x threads never exceeds the pool
# width.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Timed set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A run measures at least this many sweeps, however long they take,
#: unless the loop has run for LOOP_CAP_S wall seconds.
MIN_SWEEPS = 5
LOOP_CAP_S = 120.0

END_TO_END = {"rows_per_s": "1/s", "sweep_s.p50": "s",
              "sweep_s.p90": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "max_rel_err": "ratio"}

PER_LAYER = {
    "paradigms.build_s": "s", "core.compile_s": "s",
    "codegen.signature_s": "s", "codegen.emit_s": "s",
    "codegen.kernel_cache_hits": "count",
    "ode.solve_s": "s", "ode.nfev": "count", "ode.accept_ratio": "ratio",
    "sde.solve_s": "s", "sde.nfev": "count",
    "cache.key_s": "s", "cache.get_s": "s", "cache.put_s": "s",
    "cache.hit_ratio": "ratio", "cache.bytes_written": "bytes",
    "cache.bytes_read": "bytes",
    "pool.wait_s": "s", "pool.worker_busy_s": "s",
    "pool.queue_wait_s": "s", "pool.busy_ratio": "ratio",
    "pool.shm_bytes": "bytes",
    "plan.assemble_s": "s", "puf.encode_s": "s",
    "unattributed_s": "s", "trace_overhead_pct": "%",
}


class Tally:
    """Sweeps attempted and failed; a failing sweep never raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, run, check) -> object:
        """Run one sweep (``run()``), check it (``check(outcome)``)
        and count it. Returns the outcome, or ``None`` when the sweep
        raised."""
        self.attempted += 1
        try:
            outcome = run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        try:
            ok = check(outcome)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
        return outcome


def provenance(width: int) -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    from repro.telemetry.history import git_sha

    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            # Outside a git checkout, git would search the parents.
            "git_sha": git_sha(cwd=ROOT) if (ROOT / ".git").exists()
            else "unknown",
            "pool_width": width,
            "blas_threads": int(os.environ["OMP_NUM_THREADS"])}


def peak_rss_mb() -> float:
    import resource

    from workloads import rss_children_bytes

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return (own + rss_children_bytes()) / 2 ** 20


def timed_loop(workload, tally, seconds: float, trace: bool):
    """Closed loop: the next sweep starts when the previous one is
    checked. When tracing, each input runs untraced and traced, in
    alternating order so neither always follows the other. Returns the
    untraced sweeps' raw latencies, their host-speed factors (see
    hostspeed.py) and ``(tracer, traced roots, per-sweep counts)``."""
    from hostspeed import factor, probe_seconds
    from tracing import Tracer

    latencies: list[float] = []
    factors: list[float] = []
    tracer = Tracer()
    roots: list[int] = []
    counts: list[dict] = []
    spent = [0.0]
    # The probe after an untraced sweep is also the probe before the
    # next one, unless a traced sweep ran in between.
    last_probe = [None]

    def untraced(inputs):
        before = last_probe[0] or probe_seconds()
        last_probe[0] = None
        started = time.perf_counter()
        outcome = workload.op(inputs)
        latencies.append(time.perf_counter() - started)
        last_probe[0] = probe_seconds()
        factors.append(factor(before, last_probe[0]))
        spent[0] += latencies[-1]
        return outcome

    def traced(inputs):
        last_probe[0] = None
        outcome, root, sweep_counts = workload.traced(inputs, tracer)
        roots.append(root)
        counts.append(sweep_counts)
        spent[0] += tracer.wall(root)
        return outcome

    sweep = 0
    deadline = time.perf_counter() + LOOP_CAP_S
    while (spent[0] < seconds or len(latencies) < MIN_SWEEPS) \
            and time.perf_counter() < deadline:
        inputs = workload.inputs(sweep)
        steps = [untraced, traced] if trace else [untraced]
        for step in steps if sweep % 2 == 0 else steps[::-1]:
            outcome = tally.attempt(
                lambda: step(inputs),
                lambda outcome: workload.check(inputs, outcome))
            if outcome is not None:
                workload.after(outcome)
        sweep += 1
    return latencies, factors, (tracer, roots, counts)


def end_to_end_metrics(workload, scaled, setup_s) -> dict:
    """The end-to-end metrics from host-scaled sweep and set-up
    times."""
    deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    return {
        "rows_per_s": workload.rows * len(scaled) / sum(scaled),
        "sweep_s.p50": statistics.median(scaled),
        "sweep_s.p90": deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "max_rel_err": workload.accuracy,
    }


def per_layer_metrics(workload, latencies, traced, probe) -> dict:
    tracer, roots, counts = traced
    layers = [tracer.layer_seconds(root) for root in roots]
    walls = [tracer.wall(root) for root in roots]

    def median_of(key, rows):
        return statistics.median(row.get(key, 0) for row in rows) \
            if rows else 0.0

    def total(key):
        return sum(row.get(key, 0) for row in counts)

    metrics = {f"{name}_s": median_of(name, layers)
               for name in ("paradigms.build", "core.compile",
                            "codegen.signature", "codegen.emit",
                            "ode.solve", "cache.key", "cache.get",
                            "cache.put", "pool.wait", "plan.assemble",
                            "puf.encode", "unattributed")}
    for key in ("codegen.kernel_cache_hits", "ode.nfev",
                "cache.bytes_written", "cache.bytes_read",
                "pool.worker_busy_s", "pool.queue_wait_s",
                "pool.shm_bytes"):
        metrics[key] = median_of(key, counts)
    steps = total("ode.steps_accepted") + total("ode.steps_rejected")
    metrics["ode.accept_ratio"] = (total("ode.steps_accepted") / steps
                                   if steps else 0.0)
    lookups = total("cache.hits") + total("cache.misses")
    metrics["cache.hit_ratio"] = (total("cache.hits") / lookups
                                  if lookups else 0.0)
    waited = sum(layer["pool.wait"] for layer in layers)
    metrics["pool.busy_ratio"] = (
        total("pool.worker_busy_s") / (workload.width * waited)
        if waited else 0.0)
    metrics["sde.solve_s"] = probe.get("sde.solve_s", 0.0)
    metrics["sde.nfev"] = probe.get("sde.nfev", 0)
    untraced = statistics.median(latencies)
    metrics["trace_overhead_pct"] = (
        (statistics.median(walls) - untraced) / untraced * 100.0)
    return metrics


def layer_table(workload, traced) -> str:
    """Per-layer share of the traced sweeps, for the log."""
    tracer, roots, _counts = traced
    wall = sum(tracer.wall(root) for root in roots)
    totals: dict[str, float] = {}
    for root in roots:
        for name, seconds in tracer.layer_seconds(root).items():
            totals[name] = totals.get(name, 0.0) + seconds
    lines = [f"layers of {len(roots)} traced {workload.name} sweeps "
             f"({wall / len(roots):.4f} s each):"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        if seconds > 0:
            lines.append(f"  {name:<20} {seconds / len(roots):9.5f} s "
                         f"{100.0 * seconds / wall:5.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    from hostspeed import factor, probe_seconds

    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    # The pool needs two workers to split a batch at all.
    width = max(2, len(os.sched_getaffinity(0)))
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, width)
    tally = Tally()
    try:
        # Each set-up is bracketed by the probes before and after it;
        # the imports, before numpy was there to probe with, by the
        # probe after them alone.
        probes = [probe_seconds()]
        setups, setup_factors = [], []
        for _ in range(SETUP_REPEATS):
            workload.reset()
            begun = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begun)
            probes.append(probe_seconds())
            setup_factors.append(factor(probes[-2], probes[-1]))
        workload.prepare()
        latencies, factors, traced = timed_loop(
            workload, tally, args.seconds, bool(args.trace))
        if not latencies:
            print("error: no sweep completed", file=sys.stderr)
            return 1
        info = provenance(width)
        print("provenance: " + json.dumps(info))
        if args.trace:
            probe = workload.probe()
            if "probe_identical" in probe:
                tally.attempted += 1
                tally.failed += not probe["probe_identical"]
            values = per_layer_metrics(workload, latencies, traced,
                                       probe)
            units = PER_LAYER
            print(layer_table(workload, traced))
            from tracing import to_report

            out = HERE / "_out"
            out.mkdir(exist_ok=True)
            path = out / f"{args.workload}-seed{args.seed}.report.json"
            to_report(traced[0], traced[1],
                      {**info, "workload": args.workload,
                       "seed": args.seed},
                      values, workload.events).save(path)
            print(f"trace report: {path.relative_to(ROOT)}")
        else:
            print("raw: " + json.dumps({
                "sweep_s.p50": statistics.median(latencies),
                "setup_s": import_s + statistics.median(setups),
                "sweeps": len(latencies),
                "host_factor.p50": statistics.median(factors)}))
            values = end_to_end_metrics(
                workload,
                [raw * f for raw, f in zip(latencies, factors)],
                import_s * factor(probes[0], probes[0])
                + statistics.median(
                    raw * f for raw, f in zip(setups, setup_factors)))
            units = END_TO_END
    finally:
        workload.close()
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
