"""The benchmark's one workload registry.

Each workload is the closed loop of one client: it issues one sweep,
waits for it, checks it, and issues the next. A workload derives every
input from its workload seed (:meth:`Workload.inputs`), runs its sweep
through the public ``repro`` API only (:meth:`Workload.op`), checks the
output (:meth:`Workload.check`, which returns ``False`` instead of
raising), and can run the same sweep decomposed into the public calls
the executor makes, one span per layer (:meth:`Workload.traced`).

Why each workload exists, and which layer metric should move on which,
is in README.md beside this file.
"""

from __future__ import annotations

import pathlib
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.core.compiler import compile_graph
from repro.core.simulator import simulate
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.puf import (ChipFactory, PufDesign, ReliabilityReport,
                       puf_reliability)
from repro.puf.metrics import reliability
from repro.puf.response import DEFAULT_WINDOW, encode_response
from repro.sim import (BatchTrajectory, EnsembleChunk, NoiseSpec,
                       TrajectoryCache, assemble_chunks, canonical_spec,
                       compile_batch, group_by_signature, run_ensemble,
                       solve_batch, solve_sde)
from repro.sim.pool import get_pool, shutdown_pools
from repro.telemetry import collect_metrics

#: Seeds of one workload seed never overlap another's: sweep ``k`` of
#: workload seed ``s`` draws its block from ``s * BLOCK_STRIDE`` on.
BLOCK_STRIDE = 1 << 20

#: The Fig. 4 t-line sweep: 64 Gm-mismatch instances x 300 points,
#: default ``auto`` method (batched rkf45) at its default tolerances.
TLINE_INSTANCES = 64
TLINE_SPAN = (0.0, 8e-8)
TLINE_OPTIONS = dict(n_points=300, method="rkf45", rtol=1e-7, atol=1e-9,
                     t_eval=None, max_step=None, dense=True,
                     freeze_tol=None, array_backend=canonical_spec(None))

#: Rows per t-line sweep checked against the DOP853 reference.
SAMPLED_ROWS = 2
REFERENCE_RTOL = 1e-11
REFERENCE_ATOL = 1e-13
#: Allowed error, in units of the sweep's tolerance scale
#: ``rtol * max|y_ref| + atol`` of the checked instance. The batched
#: rkf45's global error is 10 to 450 such units at the default
#: tolerances, set mostly by where the batch's shared steps fall on
#: the input pulse's edges (scipy's RK45 alone lands at the same
#: level). The bound leaves ten-fold headroom over the worst seen,
#: while a corrupted result, off by a percent or more, fails by
#: orders of magnitude.
ERROR_UNITS = 5000.0

#: Seed-independent inputs, disjoint from every workload seed's blocks
#: (those are >= 0): warm-up sweeps, and the accuracy sweep behind
#: ``max_rel_err``. Accuracy is measured on fixed inputs because an
#: instance's rkf45 error moves three-fold with its batch-mates, which
#: would drown any change to the solver in seed-to-seed spread.
WARMUP_SEEDS = list(range(-2 * TLINE_INSTANCES, -TLINE_INSTANCES))
ACCURACY_SEEDS = list(range(-TLINE_INSTANCES, 0))
#: Rows of the accuracy sweep compared against DOP853.
ACCURACY_ROWS = tuple(range(0, TLINE_INSTANCES, TLINE_INSTANCES // 8))

#: The PUF transient-noise reliability study: 16 chips x 32 trials.
PUF_DESIGN = PufDesign(spec=TLineSpec(n_segments=10),
                       branch_positions=(3, 6), branch_lengths=(4, 6),
                       noise=1e-8)
PUF_CHALLENGE = 2
PUF_CHIPS = 16
PUF_TRIALS = 32
PUF_POINTS = 200
PUF_BITS = 32
PUF_SPAN = (0.0, DEFAULT_WINDOW[1] * 1.05)
#: Fixed chips whose noise-free references give ``max_rel_err``.
PUF_ACCURACY_SEEDS = list(range(-4, 0))


def seed_block(seed: int, sweep: int, size: int) -> list[int]:
    """The ``size`` mismatch seeds of sweep ``sweep`` of workload seed
    ``seed``; disjoint across seeds and across sweeps."""
    if not 0 <= sweep * size + size <= BLOCK_STRIDE:
        raise ValueError(f"sweep {sweep} outside the seed's block range")
    base = seed * BLOCK_STRIDE + sweep * size
    return list(range(base, base + size))


class TlineFactory:
    """``factory(seed)`` of the t-line sweeps (module level, so it
    pickles)."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class TracedChipFactory:
    """:class:`repro.puf.ChipFactory` with a span around the paradigm
    factory and one around ``compile_graph``. It pickles as the plain
    ``ChipFactory``, so pool workers get the payload an untraced sweep
    ships (and its payload-cache hits)."""

    def __init__(self, design, challenge, tracer):
        self.design = design
        self.challenge = challenge
        self.tracer = tracer

    def __call__(self, seed):
        with self.tracer.span("paradigms.build"):
            graph = ChipFactory(self.design, self.challenge)(seed)
        with self.tracer.span("core.compile"):
            return compile_graph(graph)

    def __reduce__(self):
        return ChipFactory, (self.design, self.challenge)


@dataclass
class Outcome:
    """What one sweep returned, plus the cache it used (if any)."""

    result: object
    store: TrajectoryCache | None = None


def relative_error(trajectory_y, system, span, n_points) -> tuple:
    """``(max|Δ| / max|y_ref|, max|Δ| / tolerance scale)`` of one
    instance against scipy DOP853 at tight tolerances."""
    reference = simulate(system, span, n_points=n_points,
                         method="DOP853", rtol=REFERENCE_RTOL,
                         atol=REFERENCE_ATOL).y
    delta = float(np.max(np.abs(trajectory_y - reference)))
    peak = float(np.max(np.abs(reference)))
    scale = TLINE_OPTIONS["rtol"] * peak + TLINE_OPTIONS["atol"]
    return delta / peak, delta / scale


def rss_children_bytes() -> int:
    """Summed peak RSS (``VmHWM``) of this process's live children."""
    import multiprocessing

    total = 0
    for child in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) * 1024
    return total


class Workload:
    """One closed-loop client. Subclasses fill in the hooks."""

    name = "?"
    #: Trajectory rows one sweep produces.
    rows = 0

    def __init__(self, seed: int, workdir: pathlib.Path, width: int):
        self.seed = int(seed)
        self.workdir = pathlib.Path(workdir)
        self.width = int(width)
        #: ``max_rel_err``: set by :meth:`prepare`.
        self.accuracy = 0.0
        #: Worker events of traced sweeps (perf_counter starts).
        self.events: list[dict] = []

    def inputs(self, sweep: int) -> dict:
        raise NotImplementedError

    def reset(self) -> None:
        """Undo :meth:`setup` so it can be timed again (not timed)."""

    def setup(self) -> None:
        """The timed set-up: pool spawn, warm-up sweep, cache fill."""

    def prepare(self) -> None:
        """Untimed one-off work after set-up: check references and
        the accuracy sweep."""

    def op(self, inputs: dict) -> Outcome:
        raise NotImplementedError

    def traced(self, inputs: dict, tracer) -> tuple[Outcome, int, dict]:
        """The sweep as spans; returns the outcome, the root span and
        the sweep's counts (see ``run.py`` for the names)."""
        raise NotImplementedError

    def check(self, inputs: dict, outcome: Outcome) -> bool:
        raise NotImplementedError

    def probe(self) -> dict:
        """Per-layer numbers measured outside the traced sweeps."""
        return {}

    def after(self, outcome: Outcome) -> None:
        """Untimed clean-up after one checked sweep."""

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# The t-line sweeps
# ----------------------------------------------------------------------


def run_tline(seeds, cache_dir) -> Outcome:
    store = TrajectoryCache(directory=cache_dir)
    result = run_ensemble(TlineFactory(), seeds, TLINE_SPAN,
                          n_points=TLINE_OPTIONS["n_points"], cache=store)
    return Outcome(result, store)


def tline_accuracy(result) -> float:
    """Largest relative error of the accuracy sweep's checked rows."""
    y = result.batches[0].y
    return max(relative_error(y[row], result.batches[0].systems[row],
                              TLINE_SPAN, TLINE_OPTIONS["n_points"])[0]
               for row in ACCURACY_ROWS)


def traced_tline(seeds, cache_dir, tracer) -> tuple[Outcome, int, dict]:
    """The executor's deterministic path, one public call per span:
    factory, ``compile_graph``, ``group_by_signature``, cache key and
    get, ``compile_batch``, ``solve_batch``, cache put, and assembly.
    Every instance lands in one structural group (all seeds of one Ark
    function share structure), so every group is batched."""
    store = TrajectoryCache(directory=cache_dir)
    key_options = {**TLINE_OPTIONS, "t_span": TLINE_SPAN}
    bytes_read = 0
    with collect_metrics() as report:
        with tracer.span("sweep") as root:
            systems = []
            for seed in seeds:
                with tracer.span("paradigms.build"):
                    graph = mismatched_tline("gm", seed=seed)
                with tracer.span("core.compile"):
                    systems.append(compile_graph(graph))
            with tracer.span("codegen.signature"):
                groups = group_by_signature(systems)
            chunks = []
            for order, indices in enumerate(groups):
                group = [systems[i] for i in indices]
                with tracer.span("cache.key"):
                    key = store.key_for(group, "batch", key_options)
                with tracer.span("cache.get"):
                    hit = store.get(key)
                if hit is not None:
                    bytes_read += hit[0].nbytes + hit[1].nbytes
                    trajectory = BatchTrajectory(t=hit[0], y=hit[1],
                                                 systems=group)
                else:
                    with tracer.span("codegen.emit"):
                        batch = compile_batch(
                            group,
                            array_backend=TLINE_OPTIONS["array_backend"])
                    with tracer.span("ode.solve"):
                        trajectory = solve_batch(batch, TLINE_SPAN,
                                                 **TLINE_OPTIONS)
                    with tracer.span("cache.put"):
                        store.put(key, trajectory.t, trajectory.y)
                with tracer.span("plan.assemble"):
                    chunks.append(EnsembleChunk(
                        order=order, indices=list(indices),
                        trajectories=trajectory.trajectories(),
                        batches=[trajectory], groups=[list(indices)]))
            with tracer.span("plan.assemble"):
                result = assemble_chunks(chunks, seeds)
    counters = report.counters
    counts = {
        "codegen.kernel_cache_hits":
            counters.get("codegen.kernel_cache_hits", 0),
        "ode.nfev": counters.get("solver.nfev", 0),
        "ode.steps_accepted": counters.get("solver.steps_accepted", 0),
        "ode.steps_rejected": counters.get("solver.steps_rejected", 0),
        "cache.hits": store.stats.hits,
        "cache.misses": store.stats.misses,
        "cache.bytes_written": store.stats.bytes_stored,
        "cache.bytes_read": bytes_read,
    }
    return Outcome(result, store), root, counts


class TlineMismatch(Workload):
    name = "tline_mismatch"
    rows = TLINE_INSTANCES

    def inputs(self, sweep: int) -> dict:
        rng = np.random.default_rng([self.seed, sweep])
        rows = rng.choice(TLINE_INSTANCES, SAMPLED_ROWS, replace=False)
        return {"seeds": seed_block(self.seed, sweep, TLINE_INSTANCES),
                "sample_rows": sorted(int(row) for row in rows)}

    @property
    def cache_dir(self) -> pathlib.Path:
        return self.workdir / "cache"

    def setup(self) -> None:
        self.after(self.op({"seeds": WARMUP_SEEDS}))

    def prepare(self) -> None:
        outcome = self.op({"seeds": ACCURACY_SEEDS})
        self.after(outcome)
        self.accuracy = tline_accuracy(outcome.result)

    def op(self, inputs: dict) -> Outcome:
        return run_tline(inputs["seeds"], self.cache_dir)

    def traced(self, inputs: dict, tracer):
        return traced_tline(inputs["seeds"], self.cache_dir, tracer)

    def check(self, inputs: dict, outcome: Outcome) -> bool:
        result = outcome.result
        if len(result.batches) != 1 or result.serial_indices:
            return False
        if outcome.store.stats.stores != 1 \
                or outcome.store.stats.misses != 1:
            return False
        y = result.batches[0].y
        ok = (y.shape[0] == TLINE_INSTANCES
              and y.shape[2] == TLINE_OPTIONS["n_points"])
        for row in inputs["sample_rows"]:
            system = compile_graph(mismatched_tline(
                "gm", seed=inputs["seeds"][row]))
            _relative, units = relative_error(
                y[row], system, TLINE_SPAN, TLINE_OPTIONS["n_points"])
            ok = ok and units <= ERROR_UNITS
        return bool(ok)

    def after(self, outcome: Outcome) -> None:
        # Fresh seeds never hit, so stored entries are dead weight;
        # dropping them keeps the directory (and disk use) constant.
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class TlineReplay(Workload):
    name = "tline_replay"
    rows = TLINE_INSTANCES

    def inputs(self, sweep: int) -> dict:
        return {"seeds": seed_block(self.seed, 0, TLINE_INSTANCES)}

    @property
    def cache_dir(self) -> pathlib.Path:
        return self.workdir / "replay"

    def reset(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def setup(self) -> None:
        seeds = self.inputs(0)["seeds"]
        self.baseline = run_tline(seeds, self.cache_dir).result
        run_tline(seeds, self.cache_dir)

    def prepare(self) -> None:
        accuracy_dir = self.workdir / "accuracy"
        run_tline(ACCURACY_SEEDS, accuracy_dir)
        replayed = run_tline(ACCURACY_SEEDS, accuracy_dir).result
        self.accuracy = tline_accuracy(replayed)

    def op(self, inputs: dict) -> Outcome:
        return run_tline(inputs["seeds"], self.cache_dir)

    def traced(self, inputs: dict, tracer):
        return traced_tline(inputs["seeds"], self.cache_dir, tracer)

    def check(self, inputs: dict, outcome: Outcome) -> bool:
        result = outcome.result
        stats = outcome.store.stats
        if stats.misses != 0 or stats.hits < 1 or stats.stores != 0:
            return False
        if len(result.batches) != len(self.baseline.batches):
            return False
        return all(np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
                   for a, b in zip(result.batches,
                                   self.baseline.batches))


# ----------------------------------------------------------------------
# The PUF transient-noise reliability study
# ----------------------------------------------------------------------


def encode_reliability(result, seeds) -> ReliabilityReport:
    """``puf_reliability``'s read-out of a (chip x trial) sweep: the
    window samples of ``OUT_V`` encoded to bits, reliability per
    chip."""
    times = np.linspace(DEFAULT_WINDOW[0], DEFAULT_WINDOW[1],
                        2 * PUF_BITS)
    chips = len(seeds)
    references = np.stack([
        encode_response(result.reference(chip).sample("OUT_V", times))
        for chip in range(chips)])
    trial_bits = np.empty((chips, result.trials, PUF_BITS),
                          dtype=np.uint8)
    for chip in range(chips):
        batch, rows = result.trial_rows(chip)
        samples = batch.sample("OUT_V", times)[rows]
        for trial in range(result.trials):
            trial_bits[chip, trial] = encode_response(samples[trial])
    per_chip = np.array([reliability(references[chip],
                                     list(trial_bits[chip]))
                         for chip in range(chips)])
    return ReliabilityReport(mode="transient", seeds=list(seeds),
                             trials=result.trials, per_chip=per_chip,
                             references=references,
                             trial_bits=trial_bits)


def _pool_layer(name: str) -> str | None:
    if name == "pool.wait":
        return "pool.wait"
    if name.endswith(".reference"):
        # The chips' noise-free rk4 references: compile_batch plus
        # solve_batch, run in-process after the pool returns.
        return "ode.solve"
    return None


class PufNoisePool(Workload):
    name = "puf_noise_pool"
    rows = PUF_CHIPS * PUF_TRIALS

    def inputs(self, sweep: int) -> dict:
        return {"seeds": seed_block(self.seed, 0, PUF_CHIPS)}

    def reset(self) -> None:
        shutdown_pools()

    def setup(self) -> None:
        get_pool(self.width)
        self.op(self.inputs(0))

    def prepare(self) -> None:
        seeds = self.inputs(0)["seeds"]
        self.baseline = puf_reliability(
            PUF_DESIGN, PUF_CHALLENGE, seeds, trials=PUF_TRIALS,
            n_points=PUF_POINTS, processes=None)
        # The noise-free references a sweep compares against are the
        # chips' batched rk4 solves (row-local, so any batch gives the
        # same rows).
        references = run_ensemble(
            ChipFactory(PUF_DESIGN, PUF_CHALLENGE), PUF_ACCURACY_SEEDS,
            PUF_SPAN, n_points=PUF_POINTS, method="rk4")
        self.accuracy = max(
            relative_error(trajectory.y, trajectory.system, PUF_SPAN,
                           PUF_POINTS)[0]
            for trajectory in references.trajectories)

    def op(self, inputs: dict) -> Outcome:
        return Outcome(puf_reliability(
            PUF_DESIGN, PUF_CHALLENGE, inputs["seeds"],
            trials=PUF_TRIALS, n_points=PUF_POINTS,
            processes=self.width))

    def traced(self, inputs: dict, tracer):
        seeds = inputs["seeds"]
        factory = TracedChipFactory(PUF_DESIGN, PUF_CHALLENGE, tracer)
        with tracer.span("sweep") as root:
            window_open = time.perf_counter()
            with collect_metrics() as report:
                with tracer.span("plan.stream") as stream:
                    chunks = list(run_ensemble(
                        factory, seeds, PUF_SPAN, trials=PUF_TRIALS,
                        n_points=PUF_POINTS, sde_method="heun",
                        reference=True, processes=self.width,
                        stream=True))
            with tracer.span("plan.assemble"):
                result = assemble_chunks(chunks, seeds,
                                         trials=PUF_TRIALS)
            with tracer.span("puf.encode"):
                outcome = Outcome(encode_reliability(result, seeds))
        tracer.import_program_spans(report, window_open, stream,
                                    _pool_layer)
        self.events.extend({**event, "start": window_open + event["start"]}
                           for event in report.events)
        self.last_noisy = result
        counters = report.counters
        sde_nfev = sum(batch.nfev or 0 for batch in result.batches)
        counts = {
            "codegen.kernel_cache_hits":
                counters.get("codegen.kernel_cache_hits", 0),
            "ode.nfev": counters.get("solver.nfev", 0) - sde_nfev,
            "ode.steps_accepted":
                counters.get("solver.steps_accepted", 0),
            "ode.steps_rejected":
                counters.get("solver.steps_rejected", 0),
            "pool.worker_busy_s":
                counters.get("pool.worker_busy_seconds", 0.0),
            "pool.queue_wait_s":
                counters.get("pool.queue_wait_seconds", 0.0),
            "pool.shm_bytes":
                counters.get("pool.shm_bytes_transferred", 0),
        }
        return outcome, root, counts

    def check(self, inputs: dict, outcome: Outcome) -> bool:
        got, want = outcome.result, self.baseline
        return bool(np.array_equal(got.references, want.references)
                    and np.array_equal(got.trial_bits, want.trial_bits)
                    and np.array_equal(got.per_chip, want.per_chip))

    def probe(self) -> dict:
        """The SDE solve of one sweep's 512 rows, in-process: the solver
        time the pool hides behind ``pool.wait``. The rows must match
        the last traced sweep's pool result bit for bit."""
        seeds = self.inputs(0)["seeds"]
        factory = ChipFactory(PUF_DESIGN, PUF_CHALLENGE)
        spec = NoiseSpec(trials=PUF_TRIALS, method="heun")
        systems = [compile_graph(factory(seed)) for seed in seeds]
        rows = [system for system in systems for _ in range(PUF_TRIALS)]
        tokens = [token for seed in seeds for token in spec.tokens(seed)]
        batch = compile_batch(rows, array_backend=canonical_spec(None))
        started = time.perf_counter()
        trajectory = solve_sde(
            batch, PUF_SPAN, noise_seeds=tokens, n_points=PUF_POINTS,
            method="heun", t_eval=None, max_step=None, block=spec.block,
            rtol=1e-7, atol=1e-9, freeze_tol=None,
            array_backend=canonical_spec(None))
        seconds = time.perf_counter() - started
        pooled = self.last_noisy.batches[0].y
        return {"sde.solve_s": seconds, "sde.nfev": trajectory.nfev or 0,
                "probe_identical": bool(np.array_equal(trajectory.y,
                                                       pooled))}

    def close(self) -> None:
        shutdown_pools()
        # The pool's shared memory started multiprocessing's resource
        # tracker process; stop it and wait for it, so no process the
        # run started outlives it.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
        super().close()


#: Name -> workload class. BENCHMARK.json lists the same names.
WORKLOADS = {cls.name: cls
             for cls in (TlineMismatch, PufNoisePool, TlineReplay)}
