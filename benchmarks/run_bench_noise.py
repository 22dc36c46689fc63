"""Transient-noise engine benchmark: serial vs. batched vs. pooled SDE
wall time, plus per-instance step-mask savings.

Writes ``BENCH_noise.json`` at the repository root::

    PYTHONPATH=src python benchmarks/run_bench_noise.py

``--smoke`` shrinks the sweep sizes for a fast CI check and defaults
its JSON to ``BENCH_noise_smoke.json`` so it never overwrites the
recorded full-size numbers; ``--out`` redirects the JSON anywhere.

Sections:

* ``puf_reliability`` — the PUF intra-chip reliability sweep: every
  (fabricated chip, noise trial) pair of a transiently noisy PUF design
  is one SDE integration. The serial path runs one batch-of-one solve
  per pair (drift compiled once per chip); the batched path runs the
  whole (chips x trials) outer product through the unified plan driver
  — one vectorized RHS + diffusion per structural group. Both consume
  identical per-(chip, trial) Wiener streams, so the responses — and
  therefore the reliability numbers — agree bit for bit, and the
  speedup is never bought with a different noise realization.
* ``sharded_sde`` — the same (chips x trials) sweep split into
  per-core shards on the persistent ``pool`` backend, cold and warm:
  bit-identical to the single-process ``batch`` solve (Wiener streams
  are keyed per (seed, element, path), never by batch layout). The
  recorded ``cpu_count`` qualifies the wall-clock numbers: on a
  single-core runner the pool only adds spawn overhead, and the
  speedup to read is pool-vs-*serial* (the single-process per-pair
  baseline).
* ``step_mask`` — per-instance freeze masks on the stiff OBC max-cut
  ensemble (SHIL binarization puts the Jacobian at ~5e9 rad/s): once
  an oscillator network locks, its instance freezes out of rkf45 error
  control, so settled instances stop forcing worst-case steps and the
  run finishes early. Reports wall time and RHS-evaluation savings
  plus the masked-vs-unmasked deviation.
* ``obc_noise_sweep`` — the OBC max-cut solution-quality-vs-noise
  sweep, the workload-level artifact of the noisy engine.
* ``adaptive_sde`` — the adaptive embedded-pair controller
  (``heun-adaptive``) against the best fixed-step ladder on the stiff
  noisy OBC ensemble. Every run draws its noise from the *same*
  Brownian-bridge lattice (the fixed-step comparator is the adaptive
  machinery pinned to one uniform level via ``max_step`` with the
  tolerance test disabled), so pathwise RMS against a 16x-finer
  reference is meaningful: all integrators see one Wiener realization
  at different resolutions. The headline is ``nfev_ratio`` — drift
  evaluations of the cheapest fixed level that matches the adaptive
  run's accuracy, over the adaptive run's own; the full-size run
  gates on ``>= 2``.
* ``correlated_noise`` — ``PufDesign(shared_supply=True)``: every
  diffusion term of each chip aliased onto one shared "supply" Wiener
  path (:func:`repro.core.noise.share_wiener`), against the default
  independent per-segment thermal sources at the same amplitude —
  the common-mode-rejection story of the differential response
  encoding, measured as intra-chip reliability.
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

from repro.core.compiler import compile_graph  # noqa: E402
from repro.paradigms.obc import maxcut_noise_sweep  # noqa: E402
from repro.paradigms.obc.noisy import MaxcutTrialFactory  # noqa: E402
from repro.paradigms.tln import TLineSpec  # noqa: E402
from repro.puf import ChipFactory, PufDesign, reliability  # noqa: E402
from repro.puf.response import (DEFAULT_WINDOW,  # noqa: E402
                                _window_times, encode_response,
                                evaluate_puf_noisy)
from repro.sim import (compile_batch, run_ensemble,  # noqa: E402
                       solve_batch, solve_sde)
from repro.sim.pool import shutdown_pools  # noqa: E402

DEFAULT_RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / \
    "BENCH_noise.json"
SMOKE_RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / \
    "BENCH_noise_smoke.json"

N_BITS = 32
CHALLENGE = 2
DESIGN = PufDesign(spec=TLineSpec(n_segments=10),
                   branch_positions=(3, 6), branch_lengths=(4, 6),
                   noise=1e-8)
T_END = DEFAULT_WINDOW[1] * 1.05


def serial_reliability(n_chips, n_trials, n_points):
    """One batch-of-one SDE solve per (chip, trial): the legacy shape
    a per-chip loop would take — the PR 2 single-process baseline."""
    times = _window_times(DEFAULT_WINDOW, N_BITS)
    start = time.perf_counter()
    per_chip = []
    bits = np.empty((n_chips, n_trials, N_BITS), dtype=np.uint8)
    for chip in range(n_chips):
        system = compile_graph(DESIGN.build(CHALLENGE, seed=chip))
        single = compile_batch([system])
        reference_run = solve_batch(single, (0.0, T_END),
                                    n_points=n_points, method="rk4")
        reference = encode_response(
            reference_run.instance(0).sample("OUT_V", times))
        for trial in range(n_trials):
            run = solve_sde(single, (0.0, T_END),
                            noise_seeds=[f"{chip}:{trial}"],
                            n_points=n_points)
            bits[chip, trial] = encode_response(
                run.instance(0).sample("OUT_V", times))
        per_chip.append(reliability(reference, list(bits[chip])))
    elapsed = time.perf_counter() - start
    return {"per_chip": per_chip, "bits": bits}, elapsed


def batched_reliability(n_chips, n_trials, n_points):
    start = time.perf_counter()
    references, trial_bits = evaluate_puf_noisy(
        DESIGN, CHALLENGE, seeds=range(n_chips), trials=n_trials,
        n_bits=N_BITS, n_points=n_points)
    per_chip = [reliability(references[chip], list(trial_bits[chip]))
                for chip in range(n_chips)]
    elapsed = time.perf_counter() - start
    return {"per_chip": per_chip, "bits": trial_bits}, elapsed


def bench_puf(n_chips, n_trials, n_points) -> dict:
    serial, serial_seconds = serial_reliability(n_chips, n_trials,
                                                n_points)
    batched, batched_seconds = batched_reliability(n_chips, n_trials,
                                                   n_points)
    identical = bool(np.array_equal(serial["bits"], batched["bits"]))
    result = {
        "n_chips": n_chips,
        "n_trials": n_trials,
        "n_bits": N_BITS,
        "n_points": n_points,
        "noise_amplitude": DESIGN.noise,
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2),
        "responses_identical": identical,
        "mean_reliability": round(float(np.mean(batched["per_chip"])),
                                  4),
        "worst_reliability": round(float(np.min(batched["per_chip"])),
                                   4),
    }
    print(f"[puf_reliability] serial {serial_seconds:.2f}s  batched "
          f"{batched_seconds:.2f}s  speedup {result['speedup']:.1f}x  "
          f"identical={identical}  mean rel "
          f"{result['mean_reliability']:.3f}")
    return result


def bench_sharded_sde(n_chips, n_trials, n_points,
                      serial_seconds) -> dict:
    """The (chips x trials) sweep split into per-core shards on the
    persistent pool, bit-identical to the single-process batch.
    ``processes`` is capped by the host; ``cpu_count`` is recorded
    because on a single-core runner the pool can only add overhead and
    the number to read is the speedup over the serial per-pair
    baseline."""
    factory = ChipFactory(DESIGN, CHALLENGE)
    span = (0.0, T_END)
    kwargs = dict(trials=n_trials, n_points=n_points, reference=False)
    start = time.perf_counter()
    batched = run_ensemble(factory, range(n_chips), span, **kwargs)
    batched_seconds = time.perf_counter() - start
    processes = min(4, max(2, os.cpu_count() or 1))
    # Cold (spawns workers) and warm (reuses them + the per-worker
    # payload/kernel caches); results return via shared memory instead
    # of pickle.
    shutdown_pools()
    start = time.perf_counter()
    pool_cold = run_ensemble(factory, range(n_chips), span,
                             engine="pool", processes=processes,
                             **kwargs)
    pool_cold_seconds = time.perf_counter() - start
    pool_warm_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        pool_warm = run_ensemble(factory, range(n_chips), span,
                                 engine="pool", processes=processes,
                                 **kwargs)
        pool_warm_seconds = min(pool_warm_seconds,
                                time.perf_counter() - start)
    identical = bool(np.array_equal(batched.batches[0].y,
                                    pool_cold.batches[0].y))
    # One extra metered pool run (outside the timed loop, so the
    # wall-clock numbers stay clean): its RunReport documents what the
    # sweep actually did — shm transport, shard split, per-worker load.
    from repro.telemetry import RunReport, collect_metrics

    tele_report = RunReport()
    with collect_metrics(into=tele_report,
                         meta={"driver": "bench_sharded_sde"}):
        pool_metered = run_ensemble(factory, range(n_chips), span,
                                    engine="pool",
                                    processes=processes, **kwargs)
    pool_identical = bool(
        np.array_equal(pool_cold.batches[0].y, pool_warm.batches[0].y)
        and np.array_equal(pool_warm.batches[0].y,
                           pool_metered.batches[0].y))
    # Adaptive scheduling on the SDE path: both SDE methods are
    # fixed-step with per-(seed, element, path) Wiener streams, so a
    # cost-balanced oversharded split must replay the identical
    # realizations — the bit-identity gate that keeps the scheduler
    # honest on stochastic workloads too.
    start = time.perf_counter()
    scheduled = run_ensemble(factory, range(n_chips), span,
                             engine="pool", processes=processes,
                             schedule="cost", overshard=4, **kwargs)
    scheduled_seconds = time.perf_counter() - start
    sched_identical = bool(np.array_equal(pool_warm.batches[0].y,
                                          scheduled.batches[0].y))
    result = {
        "n_chips": n_chips,
        "n_trials": n_trials,
        "n_points": n_points,
        "processes": processes,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "bit_identical": identical,
        "pool_cold_seconds": round(pool_cold_seconds, 4),
        "pool_warm_seconds": round(pool_warm_seconds, 4),
        "pool_warm_speedup_vs_batched": round(
            batched_seconds / pool_warm_seconds, 2),
        "pool_warm_speedup_vs_serial": round(
            serial_seconds / pool_warm_seconds, 2),
        "pickle_bytes_avoided_per_solve": int(
            sum(batch.y.nbytes for batch in pool_cold.batches)),
        "pool_bit_identical": pool_identical,
        "scheduling": {
            "schedule": "cost",
            "overshard": 4,
            "seconds": round(scheduled_seconds, 4),
            "bit_identical": sched_identical,
        },
        "telemetry": {
            "solver_nfev": int(tele_report.counter("solver.nfev")),
            "pool_shards": int(tele_report.counter("pool.shards")),
            "shm_bytes_transferred": int(
                tele_report.counter("pool.shm_bytes_transferred")),
            "queue_wait_seconds": round(float(
                tele_report.counter("pool.queue_wait_seconds")), 4),
            "worker_busy_seconds": round(float(
                tele_report.counter("pool.worker_busy_seconds")), 4),
            "workers": {
                name: {key: (round(value, 4)
                             if isinstance(value, float) else value)
                       for key, value in block.items()}
                for name, block in tele_report.workers.items()},
        },
    }
    print(f"[sharded_sde] batched {batched_seconds:.2f}s  pool "
          f"(p={processes}) cold/warm "
          f"{pool_cold_seconds:.2f}/{pool_warm_seconds:.2f}s  "
          f"pool-warm-vs-serial "
          f"{result['pool_warm_speedup_vs_serial']:.1f}x  "
          f"pool-warm-vs-batched "
          f"{result['pool_warm_speedup_vs_batched']:.1f}x  "
          f"identical={identical}/{pool_identical}  "
          f"(cpus: {os.cpu_count()})")
    return result


def bench_step_mask(n_instances, n_points) -> dict:
    """Per-instance freeze masks on the stiff deterministic OBC
    ensemble: rkf45 with masked error control vs. the full solve."""
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    rng = np.random.default_rng(1)
    initials = tuple(tuple(row) for row in
                     rng.uniform(0.0, 2.0 * np.pi, (n_instances, 4)))
    factory = MaxcutTrialFactory(edges, 4, initials, 0.0)
    systems = [compile_graph(factory(k)) for k in range(n_instances)]
    batch = compile_batch(systems)
    span = (0.0, 200e-9)
    start = time.perf_counter()
    full = solve_batch(batch, span, n_points=n_points)
    full_seconds = time.perf_counter() - start
    start = time.perf_counter()
    masked = solve_batch(batch, span, n_points=n_points,
                         freeze_tol=1e2)
    masked_seconds = time.perf_counter() - start
    deviation = float(np.abs(full.y - masked.y).max())
    result = {
        "workload": "obc_maxcut_4cycle (SHIL Jacobian ~5e9 rad/s)",
        "n_instances": n_instances,
        "n_points": n_points,
        "freeze_tol": 1e2,
        "full_seconds": round(full_seconds, 4),
        "masked_seconds": round(masked_seconds, 4),
        "speedup": round(full_seconds / masked_seconds, 2),
        "full_nfev": full.nfev,
        "masked_nfev": masked.nfev,
        "nfev_savings": round(1.0 - masked.nfev / full.nfev, 3),
        "frozen_instances": int(masked.frozen.sum()),
        "max_abs_deviation": deviation,
    }
    print(f"[step_mask] full {full_seconds:.2f}s/{full.nfev} evals  "
          f"masked {masked_seconds:.2f}s/{masked.nfev} evals  "
          f"({result['nfev_savings'] * 100:.0f}% fewer evals, "
          f"{result['frozen_instances']}/{n_instances} frozen, "
          f"max|dev| {deviation:.1e})")
    return result


ADAPTIVE_SIGMA = 10.0
ADAPTIVE_RTOL, ADAPTIVE_ATOL = 3e-2, 3e-4


def bench_adaptive_sde(smoke: bool) -> dict:
    """Adaptive vs. best-fixed-step drift evals at matched accuracy.

    The SHIL binarization term (``-1e9*sin(2*theta)``) makes the lock
    transient stiff: a fixed ladder must carry the transient's step
    everywhere, while the controller relaxes to the stability bound
    once every oscillator locks. All runs share one Brownian-bridge
    realization, so the RMS against the ``ref_level`` solve is a
    pathwise trajectory error, not a distributional one.
    """
    t_end = 200e-9 if smoke else 400e-9
    n_points = 79 if smoke else 157
    n_trials = 2 if smoke else 4
    levels = list(range(3, 6)) if smoke else list(range(3, 7))
    ref_level = 8 if smoke else 10
    rng = np.random.default_rng(1)
    initials = tuple(tuple(row) for row in
                     rng.uniform(0.0, 2.0 * np.pi, (n_trials, 4)))
    factory = MaxcutTrialFactory(((0, 1), (1, 2), (2, 3), (3, 0)), 4,
                                 initials, ADAPTIVE_SIGMA)
    batch = compile_batch([compile_graph(factory(k))
                           for k in range(n_trials)])
    tokens = [f"1:{k}" for k in range(n_trials)]
    span = (0.0, t_end)
    dt_out = t_end / (n_points - 1)

    def fixed(level):
        # Uniform level-`level` stepping on the same bridge lattice:
        # max_step pins the floor, the huge tolerances disable the
        # error test, and grow never passes level_min — i.e. a
        # fixed-step stochastic-Heun solve that is pathwise
        # comparable to every other run here.
        start = time.perf_counter()
        run = solve_sde(batch, span, noise_seeds=tokens,
                        n_points=n_points, method="heun-adaptive",
                        rtol=1e9, atol=1e9,
                        max_step=dt_out / 2 ** level)
        return run, time.perf_counter() - start

    reference, _ = fixed(ref_level)

    def rms(run):
        return float(np.sqrt(np.mean((run.y - reference.y) ** 2)))

    ladder = []
    for level in levels:
        run, seconds = fixed(level)
        ladder.append({"level": level,
                       "h": dt_out / 2 ** level,
                       "nfev": run.nfev,
                       "rms": rms(run),
                       "seconds": round(seconds, 4)})

    from repro.telemetry import RunReport, collect_metrics

    report = RunReport()
    start = time.perf_counter()
    with collect_metrics(into=report,
                         meta={"driver": "bench_adaptive_sde"}):
        adaptive = solve_sde(batch, span, noise_seeds=tokens,
                             n_points=n_points,
                             method="heun-adaptive",
                             rtol=ADAPTIVE_RTOL, atol=ADAPTIVE_ATOL)
    adaptive_seconds = time.perf_counter() - start
    adaptive_rms = rms(adaptive)
    # Cheapest fixed level at least as accurate as the adaptive run;
    # if none qualifies the comparison falls back to the finest rung
    # (and the ratio gate below will catch the regression).
    matched = [row for row in ladder if row["rms"] <= adaptive_rms]
    matched = min(matched, key=lambda row: row["nfev"])         if matched else ladder[-1]
    ratio = matched["nfev"] / adaptive.nfev
    result = {
        "workload": "obc_maxcut_4cycle (SHIL Jacobian ~4e9 rad/s)",
        "n_trials": n_trials,
        "n_points": n_points,
        "t_end": t_end,
        "noise_sigma": ADAPTIVE_SIGMA,
        "rtol": ADAPTIVE_RTOL,
        "atol": ADAPTIVE_ATOL,
        "reference_level": ref_level,
        "fixed_ladder": ladder,
        "adaptive": {
            "nfev": adaptive.nfev,
            "rms": adaptive_rms,
            "seconds": round(adaptive_seconds, 4),
            "steps_accepted": int(
                report.counter("solver.steps_accepted")),
            "steps_rejected": int(
                report.counter("solver.steps_rejected")),
        },
        "matched_fixed_level": matched["level"],
        "matched_fixed_nfev": matched["nfev"],
        "nfev_ratio": round(ratio, 2),
        "meets_2x": bool(ratio >= 2.0),
    }
    print(f"[adaptive_sde] adaptive nfev={adaptive.nfev} "
          f"rms={adaptive_rms:.2e}  matched fixed L="
          f"{matched['level']} nfev={matched['nfev']} "
          f"rms={matched['rms']:.2e}  ratio "
          f"{ratio:.1f}x  (gate >= 2x on full runs)")
    return result


def bench_correlated_noise(n_chips, n_trials, n_points) -> dict:
    """Shared-supply ripple vs. independent thermal noise, same
    amplitude: the differential response encoding should reject the
    common-mode disturbance far better, and the reliability gap
    measures exactly that."""
    from repro.puf import puf_reliability

    shared_design = PufDesign(spec=DESIGN.spec,
                              branch_positions=DESIGN.branch_positions,
                              branch_lengths=DESIGN.branch_lengths,
                              noise=DESIGN.noise, shared_supply=True)
    start = time.perf_counter()
    shared = puf_reliability(shared_design, CHALLENGE,
                             range(n_chips), trials=n_trials,
                             n_bits=N_BITS, n_points=n_points)
    shared_seconds = time.perf_counter() - start
    start = time.perf_counter()
    independent = puf_reliability(DESIGN, CHALLENGE, range(n_chips),
                                  trials=n_trials, n_bits=N_BITS,
                                  n_points=n_points)
    independent_seconds = time.perf_counter() - start
    result = {
        "n_chips": n_chips,
        "n_trials": n_trials,
        "n_points": n_points,
        "noise_amplitude": DESIGN.noise,
        "shared_seconds": round(shared_seconds, 4),
        "independent_seconds": round(independent_seconds, 4),
        "shared_mean_reliability": round(float(shared.mean), 4),
        "independent_mean_reliability": round(
            float(independent.mean), 4),
    }
    print(f"[correlated_noise] shared-supply rel "
          f"{result['shared_mean_reliability']:.3f} "
          f"({shared_seconds:.2f}s)  independent rel "
          f"{result['independent_mean_reliability']:.3f} "
          f"({independent_seconds:.2f}s)")
    return result


def bench_obc(trials, sigmas) -> dict:
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    start = time.perf_counter()
    points = maxcut_noise_sweep(edges, 4, sigmas, trials=trials,
                                seed=1)
    elapsed = time.perf_counter() - start
    rows = [{
        "noise_sigma": point.noise_sigma,
        "sync_probability": round(point.sync_probability, 3),
        "solved_probability": round(point.solved_probability, 3),
        "mean_cut_ratio": round(point.mean_cut_ratio, 3),
    } for point in points]
    print(f"[obc_noise_sweep] {len(sigmas)} amplitudes x {trials} "
          f"trials in {elapsed:.2f}s  sync " +
          " ".join(f"{row['sync_probability']:.2f}" for row in rows))
    return {"edges": "4-cycle", "trials": trials,
            "seconds": round(elapsed, 4), "points": rows}


def append_history(payload: dict, history_path) -> None:
    """One history line per headline timing (see
    ``repro bench check``); the size tag keeps smoke and full-size
    baselines apart."""
    from repro.telemetry import RunReport, history

    tag = "smoke" if payload["smoke"] else "full"
    sha = history.git_sha()

    def record(workload, wall, **meta):
        report = RunReport(wall_seconds=float(wall),
                           meta={"driver": "bench.noise", **meta})
        history.append_entry(
            history_path, history.summarize(report, workload, sha=sha))

    puf = payload["puf_reliability"]
    record(f"noise.puf.batched[{tag}]", puf["batched_seconds"],
           n_chips=puf["n_chips"], n_trials=puf["n_trials"])
    sde = payload["sharded_sde"]
    record(f"noise.sde.pool_warm[{tag}]", sde["pool_warm_seconds"],
           processes=sde["processes"])
    mask = payload["step_mask"]
    record(f"noise.step_mask.masked[{tag}]", mask["masked_seconds"],
           n_instances=mask["n_instances"])
    adaptive = payload["adaptive_sde"]
    record(f"noise.sde.adaptive[{tag}]",
           adaptive["adaptive"]["seconds"],
           nfev=adaptive["adaptive"]["nfev"],
           nfev_ratio=adaptive["nfev_ratio"])
    ripple = payload["correlated_noise"]
    record(f"noise.puf.ripple[{tag}]", ripple["shared_seconds"],
           n_chips=ripple["n_chips"], n_trials=ripple["n_trials"])
    print(f"appended 5 history entries to {history_path} (sha {sha})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep sizes for a fast CI check")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="result JSON path (defaults to "
                        "BENCH_noise.json, or BENCH_noise_smoke.json "
                        "with --smoke)")
    parser.add_argument("--history", default=None,
                        help="benchmark history JSONL to append "
                        "headline timings to (default: "
                        "benchmarks/history.jsonl; 'none' disables)")
    args = parser.parse_args(argv)
    if args.smoke:
        n_chips, n_trials, n_points = 2, 2, 120
        mask_instances, mask_points = 4, 30
        obc_trials, sigmas = 4, [0.0, 2e4]
    else:
        n_chips, n_trials, n_points = 8, 8, 400
        mask_instances, mask_points = 16, 60
        obc_trials, sigmas = 16, [0.0, 5e3, 2e4, 6e4]
    out = args.out or (SMOKE_RESULT_PATH if args.smoke
                       else DEFAULT_RESULT_PATH)

    puf = bench_puf(n_chips, n_trials, n_points)
    payload = {
        "benchmark": "transient-noise (SDE) engine: serial vs batched "
                     "vs pooled, plus step masks",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": args.smoke,
        "puf_reliability": puf,
        "sharded_sde": bench_sharded_sde(n_chips, n_trials, n_points,
                                         puf["serial_seconds"]),
        "step_mask": bench_step_mask(mask_instances, mask_points),
        "obc_noise_sweep": bench_obc(obc_trials, sigmas),
        "adaptive_sde": bench_adaptive_sde(args.smoke),
        "correlated_noise": bench_correlated_noise(
            n_chips, n_trials, n_points),
    }
    if not payload["sharded_sde"]["bit_identical"]:
        print("ERROR: pooled SDE result is not bit-identical to batch",
              file=sys.stderr)
        return 1
    if not payload["sharded_sde"]["pool_bit_identical"]:
        print("ERROR: pool SDE result is not bit-identical",
              file=sys.stderr)
        return 1
    if not payload["sharded_sde"]["scheduling"]["bit_identical"]:
        print("ERROR: cost-scheduled SDE result is not bit-identical",
              file=sys.stderr)
        return 1
    if not payload["puf_reliability"]["responses_identical"]:
        print("ERROR: serial and batched responses differ",
              file=sys.stderr)
        return 1
    if not args.smoke and not payload["adaptive_sde"]["meets_2x"]:
        print("ERROR: adaptive SDE is not >= 2x cheaper than the "
              "matched fixed-step ladder", file=sys.stderr)
        return 1
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    if args.history != "none":
        history_path = args.history or (
            pathlib.Path(__file__).resolve().parent / "history.jsonl")
        append_history(payload, history_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
