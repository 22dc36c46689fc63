"""Vectorized batch integration of stochastic (SDE) ensembles.

The drift side reuses the batched codegen of :mod:`repro.sim.
batch_codegen`; this module adds the diffusion side: deterministic
Wiener-increment streams (one per ``(noise seed, element, path)`` triple,
hashed exactly like §4.3 mismatch streams — see :mod:`repro.core.noise`)
and the batched solvers operating on the whole ``(n_instances,
n_states)`` state matrix at once:

* ``heun`` — stochastic Heun (drift-and-diffusion predictor/corrector,
  with Euler–Maruyama as the predictor): deterministic order 2, so its
  zero-noise limit tracks the RK solvers closely. The shipped paradigm
  dynamics (transmission lines, Kuramoto networks) have oscillatory
  Jacobians that marginally destabilize plain Euler–Maruyama. Heun
  converges to the Stratonovich solution; for additive noise, which
  every shipped language declares (``noise(amp)`` with a
  state-independent ``amp``), the Itô and Stratonovich solutions
  coincide. This is the default.
* ``heun-adaptive`` — the same predictor/corrector pair run as an
  *embedded pair*: the gap between the Euler–Maruyama predictor and
  the Heun corrector estimates the local (drift-dominated) error, and
  a per-instance controller halves or doubles the step along the
  dyadic lattice of each output-grid interval, so stiff transients
  stop forcing the worst-case ``max_step`` onto the whole horizon.
  Steps always land exactly on the output grid (no stochastic dense
  interpolation), and the Wiener increments come from the hierarchical
  :class:`BridgeWienerSource`, so the realized path is invariant to
  the accept/reject sequence.

Both methods substep each output-grid interval and land exactly on the
grid, and both return the same
:class:`~repro.sim.batch_solver.BatchTrajectory` the deterministic batch
solvers produce — ensemble statistics, percentile bands, and the spread
helpers all work unchanged on noisy ensembles.

Reproducibility contract: a ``heun`` Wiener stream is fully
determined by ``(noise_seed, element, path)`` and the step sequence;
with an unchanged output grid and ``max_step``, rerunning a trial
replays the identical noise realization. ``heun-adaptive``
strengthens the contract: increments come from
Brownian-bridge refinement streams keyed by ``(seed, element, path,
level, index)`` (see :func:`repro.core.noise.bridge_seed`), so the
realized Wiener path depends only on the keys — never on which steps
the controller accepted or rejected — and halving any step yields the
conditionally-correct finer increments of the *same* path. Varying the
noise seed — *not* the mismatch seed — models independent thermal-noise
trials of one fabricated chip.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import ndtri

from repro import telemetry
from repro.core.compiler import compile_graph
from repro.core.graph import DynamicalGraph
from repro.core.noise import bit_generators, bridge_seed, streams
from repro.core.odesystem import OdeSystem
from repro.core.simulator import Trajectory
from repro.errors import SimulationError

from repro.sim.batch_codegen import BatchRhs, compile_batch
from repro.sim.batch_solver import (BatchTrajectory, _as_batch,
                                    _error_norms, _solve_grids,
                                    freeze_converged)

#: Methods handled by :func:`solve_sde`: fixed-step ``heun``, whose
#: step sequence is fully determined by the grid and ``max_step`` (so
#: results are partition- and tolerance-independent, and bit-identical
#: under sharding), and ``heun-adaptive``, whose embedded-pair error
#: control over the dyadic step lattice ``rtol``/``atol`` steer.
SDE_METHODS = ("heun", "heun-adaptive")


class WienerSource:
    """Deterministic batched Wiener increments.

    One PCG64 stream per ``(noise_seed, element, path)`` triple (the
    :mod:`repro.core.noise` hashing scheme), all rows × paths seeded in
    one bulk pass on first use; increments are drawn in blocks of
    ``block`` solver steps so memory stays bounded at
    ``n_instances * n_paths * block`` doubles regardless of how long the
    transient runs.

    :param noise_seeds: one seed token per batch instance (ints or
        strings; the noisy-ensemble driver passes ``"chip:trial"``).
    :param paths: the batch's Wiener identities, ``(element, path)``.
    """

    def __init__(self, noise_seeds, paths, block: int = 256):
        if block < 1:
            raise SimulationError(f"block must be >= 1, got {block}")
        self.noise_seeds = list(noise_seeds)
        self.paths = list(paths)
        self.block = int(block)
        self._generators: list[list[np.random.Generator]] | None = None
        self._buffer: np.ndarray | None = None
        #: First step index held by the buffer / first step not yet
        #: drawn from the generators. Each stream yields sample k at
        #: position k, so the realization is block-size independent.
        self._buffer_start = 0
        self._drawn = 0
        #: Seconds spent seeding the streams and drawing blocks
        #: (telemetry ``sde.wiener_seconds``, added once per solve).
        self.seconds = 0.0

    def _ensure_generators(self):
        if self._generators is None:
            flat = streams([(seed, element, path)
                            for seed in self.noise_seeds
                            for element, path in self.paths])
            width = len(self.paths)
            self._generators = [flat[row:row + width]
                                for row in range(0, len(flat), width)]

    def normals(self, step: int) -> np.ndarray:
        """Standard-normal draws for solver step ``step``: shape
        ``(n_instances, n_paths)``. Steps must be visited in
        non-decreasing order (the fixed-step solvers do; rewinding past
        the current block would desynchronize the streams)."""
        if not self.paths:
            return np.zeros((len(self.noise_seeds), 0))
        if step >= self._drawn:
            self._advance_to(step)
        if step < self._buffer_start:
            raise SimulationError(
                "WienerSource steps must be consumed in order (asked "
                f"for {step}, buffer starts at {self._buffer_start})")
        # Copy: the buffer is reused across blocks, so a returned view
        # would silently mutate when the next block is drawn.
        return self._buffer[:, :, step - self._buffer_start].copy()

    def _advance_to(self, step: int):
        started = time.perf_counter()
        self._ensure_generators()
        if self._buffer is None:
            self._buffer = np.empty(
                (len(self.noise_seeds), len(self.paths), self.block))
        while self._drawn <= step:
            for row, generators in enumerate(self._generators):
                for col, generator in enumerate(generators):
                    self._buffer[row, col, :] = \
                        generator.standard_normal(self.block)
            self._buffer_start = self._drawn
            self._drawn += self.block
        self.seconds += time.perf_counter() - started


#: Hard refinement floor of the adaptive controller: one output-grid
#: interval may be halved at most this many times (2**20 ≈ 1M substeps
#: per interval) before the step is accepted — or, with ``freeze_tol``,
#: the offending rows are frozen — regardless of the error estimate.
MAX_BRIDGE_LEVEL = 20

#: Error norm below which an aligned accepted step doubles (the
#: order-2 embedded estimate predicts a step-doubling factor ``>= 2``
#: at ``worst <= (0.9 / 2)**2 ≈ 0.2``).
_GROW_THRESHOLD = 0.2


class BridgeWienerSource:
    """Hierarchical Wiener increments: Brownian-bridge dyadic refinement.

    Where :class:`WienerSource` draws one normal per *solver step* — so
    the realization depends on the step sequence — this source defines
    the Wiener path on the dyadic lattice of each output-grid interval:
    level 0 is the interval's total increment, and level ``L`` splits
    it into ``2**L`` conditionally-correct substeps via the midpoint
    (Brownian-bridge) recursion

    ``left = ΔW/2 + (sqrt(d)/2)·Z``, ``right = ΔW − left``

    where ``d`` is the parent substep width and ``Z`` the refinement
    normal keyed by ``(seed, element, path, level, index)``. Each
    ``(seed, element, path, level)`` owns one PCG64 *bit* stream
    (:func:`repro.core.noise.bridge_bits`; a level's rows × paths are
    seeded in one bulk pass when it is first reached); index ``i`` is
    word ``i`` of that stream, inverse-CDF transformed to a normal —
    one 64-bit word per normal, so ``PCG64.advance`` gives O(1) random
    access and an adaptive solver may halve (or re-coarsen) any step in
    any order and always see the same realized path. Memory stays O(levels): no
    draw buffers, only generators and a per-interval memo of computed
    increments.

    :param noise_seeds: one seed token per batch instance.
    :param paths: the batch's Wiener identities, ``(element, path)``.
    :param grid: the output grid the dyadic hierarchy hangs off.
    """

    def __init__(self, noise_seeds, paths, grid):
        self.noise_seeds = list(noise_seeds)
        self.paths = list(paths)
        self.grid = [float(value) for value in grid]
        if len(self.grid) < 2:
            raise SimulationError(
                "BridgeWienerSource needs a grid of >= 2 points")
        #: level -> PCG64 bit generators, instance-major over paths.
        self._streams: dict[int, list] = {}
        #: level -> absolute word index the generators sit at.
        self._positions: dict[int, int] = {}
        self._interval = -1
        self._memo: dict[tuple[int, int], np.ndarray] = {}
        #: Deepest refinement level drawn so far (telemetry:
        #: ``sde.bridge_levels``).
        self.max_level = 0
        #: Seconds spent seeding and drawing refinement normals
        #: (telemetry ``sde.wiener_seconds``, added once per solve).
        self.seconds = 0.0

    def _normals(self, level: int, index: int) -> np.ndarray:
        """The ``(n_instances, n_paths)`` refinement normals at
        ``(level, index)`` — identical whenever requested, whatever was
        drawn before or after."""
        started = time.perf_counter()
        level_bits = self._streams.get(level)
        if level_bits is None:
            level_bits = bit_generators(
                [bridge_seed(seed, element, path, level)
                 for seed in self.noise_seeds
                 for element, path in self.paths])
            self._streams[level] = level_bits
            self._positions[level] = 0
            self.max_level = max(self.max_level, level)
        delta = index - self._positions[level]
        raws = np.empty(len(level_bits), dtype=np.uint64)
        for position, bits in enumerate(level_bits):
            if delta:
                bits.advance(delta)
            raws[position] = bits.random_raw()
        self._positions[level] = index + 1
        # 53 mantissa bits, centered on the half-step so u is strictly
        # inside (0, 1) — ndtri stays finite for every word.
        uniforms = ((raws >> np.uint64(11)).astype(np.float64) + 0.5) \
            * 2.0 ** -53
        normals = ndtri(uniforms).reshape(len(self.noise_seeds),
                                          len(self.paths))
        self.seconds += time.perf_counter() - started
        return normals

    def increment(self, interval: int, level: int,
                  index: int) -> np.ndarray:
        """ΔW over dyadic substep ``index`` (of ``2**level``) of grid
        interval ``interval``: shape ``(n_instances, n_paths)``.
        Requests at different levels are mutually consistent — a parent
        increment equals the sum of its two children by construction —
        so a solver may mix levels freely while stepping an interval.
        Intervals must be visited in non-decreasing order (the
        per-interval memo is dropped on advance)."""
        if not self.paths:
            return np.zeros((len(self.noise_seeds), 0))
        if not 0 <= interval < len(self.grid) - 1:
            raise SimulationError(
                f"interval {interval} outside the {len(self.grid) - 1} "
                "grid intervals")
        if interval != self._interval:
            self._interval = interval
            self._memo = {}
        return self._increment(interval, level, index)

    def _increment(self, interval: int, level: int,
                   index: int) -> np.ndarray:
        memo = self._memo
        value = memo.get((level, index))
        if value is not None:
            return value
        dt = self.grid[interval + 1] - self.grid[interval]
        if level == 0:
            value = math.sqrt(dt) * self._normals(0, interval)
            memo[(0, index)] = value
            return value
        parent_index = index >> 1
        parent = self._increment(interval, level - 1, parent_index)
        width = dt / (1 << (level - 1))
        z = self._normals(
            level, (interval << (level - 1)) + parent_index)
        left = 0.5 * parent + (0.5 * math.sqrt(width)) * z
        right = parent - left
        memo[(level, 2 * parent_index)] = left
        memo[(level, 2 * parent_index + 1)] = right
        return left if index == 2 * parent_index else right


def _substep_plan(grid: np.ndarray, max_step: float):
    """Per-interval (h, n_sub) so steps respect ``max_step`` and land on
    the grid; also the running global step offset for Wiener indexing."""
    plan = []
    offset = 0
    for k in range(len(grid) - 1):
        dt = float(grid[k + 1] - grid[k])
        n_sub = max(1, math.ceil(dt / max_step))
        plan.append((float(grid[k]), dt / n_sub, n_sub, offset))
        offset += n_sub
    return plan, offset


def _occurrence_layers(state_index) -> list:
    """Split the term → state map into layers of distinct targets:
    layer ``k`` holds each state's ``k``-th term, as ``(targets,
    columns)`` in term order. Adding the layers in order sums every
    state's terms in the same order ``np.add.at`` does, so the scatter
    is bit-identical to it even with duplicate targets — one
    fancy-index add per layer instead of an unbuffered per-element
    loop."""
    state_index = np.asarray(state_index, dtype=np.intp)
    occurrence = np.empty(len(state_index), dtype=np.intp)
    seen: dict[int, int] = {}
    for column, state in enumerate(state_index.tolist()):
        k = seen.get(state, 0)
        occurrence[column] = k
        seen[state] = k + 1
    layers = []
    for k in range(max(seen.values(), default=0)):
        columns = np.flatnonzero(occurrence == k)
        layers.append((state_index[columns], columns))
    return layers


def _scatter(contrib, state_index: np.ndarray, n_states: int):
    """Accumulate per-term contributions ``(n_instances, n_terms)`` onto
    their target states: returns ``(n_instances, n_states)`` at
    ``contrib``'s dtype. Multiple terms may share a state (see
    :func:`_occurrence_layers`)."""
    return _ScatterAccumulator(state_index, n_states, contrib.shape[0],
                               contrib.dtype)(contrib)


class _ScatterAccumulator:
    """:func:`_scatter` with a reusable workspace.

    The ``(n_states, n_instances)`` accumulator is allocated once and
    re-zeroed per call instead of freshly allocated every substep —
    zero-fill plus the in-place layered add produces bitwise the same
    array as scattering into fresh zeros, and the occurrence layers are
    computed once. Two buffers rotate because
    the Heun corrector needs the predictor's scatter alive while the
    corrector's is formed; callers therefore must not hold more than
    two results at once. ``allocs`` counts real
    allocations — the fixed-step sweep used to pay one per scatter
    call, now at most two per solve (reported as
    ``sde.scatter_allocs``).
    """

    def __init__(self, state_index, n_states: int, n_instances: int,
                 dtype):
        self._dtype = dtype
        self._layers = _occurrence_layers(state_index)
        self._shape = (n_states, n_instances)
        self._buffers = [None, None]
        self._turn = 0
        self.allocs = 0

    def __call__(self, contrib):
        acc = self._buffers[self._turn]
        if acc is None:
            acc = np.zeros(self._shape, dtype=self._dtype)
            self._buffers[self._turn] = acc
            self.allocs += 1
        else:
            acc[...] = 0.0
        self._turn = 1 - self._turn
        contrib = contrib.T
        for targets, columns in self._layers:
            acc[targets] += contrib[columns]
        return acc.T


def _noise_settle(batch: BatchRhs, scatter, y, t_next: float,
                  remaining: float, rtol: float, atol: float,
                  freeze_tol: float, noisy: bool):
    """Rows whose drift *and* noise can no longer move them beyond
    tolerance over the remaining span (the caller accounts one drift
    evaluation for the probe)."""
    f = batch(t_next, y)
    settle = freeze_converged(y, f, remaining, rtol, atol,
                              freeze_tol)
    if noisy and bool(settle.any()):
        # The drift has settled — but freeze only where the noise
        # cannot move the instance beyond tolerance either: |g| scaled
        # by the remaining span's Wiener deviation must stay below the
        # same bound.
        amplitude = np.abs(batch.diffusion(t_next, y))
        g_state = scatter(amplitude)
        scale = atol + rtol * np.abs(y)
        wiggle = g_state * math.sqrt(remaining)
        settle = settle & (
            np.sqrt(np.mean((wiggle / scale) ** 2, axis=1))
            <= freeze_tol)
    return settle


def _sde_loop(batch: BatchRhs, work_grid: np.ndarray, plan, wiener,
              noisy: bool, freeze_tol: float | None, rtol: float,
              atol: float, scatter):
    """The fixed-step stochastic-Heun sweep over one substep plan, with
    value-identical ``np.where`` row pinning for the freeze masks."""
    n_states = batch.n_states
    path_index = batch.term_path_index
    y = batch.y0
    out = np.empty((y.shape[0], n_states, len(work_grid)), dtype=y.dtype)
    out[:, :, 0] = y
    # The two drift evaluations of a substep write into buffers
    # allocated once per solve.
    f0, f1 = np.empty_like(y), np.empty_like(y)
    frozen = np.zeros(y.shape[0], dtype=bool)
    nfev = 0
    t_end = work_grid[-1]
    for k, (t_start, h, n_sub, offset) in enumerate(plan):
        if bool(frozen.all()):
            # Every instance holds constant: fill the remaining grid
            # without stepping (frozen rows would be pinned anyway).
            out[:, :, k + 1:] = y[:, :, None]
            break
        t = t_start
        sqrt_h = math.sqrt(h)
        hold = y if bool(frozen.any()) else None
        for sub in range(n_sub):
            if noisy:
                # Draws are float64; a float32 solve takes them rounded.
                xi = wiener.normals(offset + sub).astype(y.dtype,
                                                          copy=False)
                dw = sqrt_h * xi[:, path_index]
                g0 = scatter(batch.diffusion(t, y) * dw)
            else:
                g0 = 0.0
            batch(t, y, out=f0)
            y_pred = y + h * f0 + g0
            batch(t + h, y_pred, out=f1)
            nfev += 2
            if noisy:
                g1 = scatter(batch.diffusion(t + h, y_pred) * dw)
            else:
                g1 = 0.0
            y = y + 0.5 * h * (f0 + f1) + 0.5 * (g0 + g1)
            if hold is not None:
                # Pinned rows: frozen instances hold their value (all
                # batch arithmetic is row-local, so their columns
                # cannot perturb active siblings).
                y = np.where(frozen[:, None], hold, y)
            t += h
        if freeze_tol is not None:
            # Diverged rows (a stiff outlier going non-finite) freeze
            # at their last grid value instead of failing the batch.
            bad = ~frozen & ~np.all(np.isfinite(y), axis=1)
            if bool(bad.any()):
                y = np.where(bad[:, None], out[:, :, k], y)
                frozen = frozen | bad
        out[:, :, k + 1] = y
        t_next = float(work_grid[k + 1])
        if freeze_tol is not None and t_next < t_end and \
                not bool(frozen.all()):
            remaining = float(t_end - t_next)
            settle = _noise_settle(batch, scatter, y, t_next, remaining,
                                   rtol, atol, freeze_tol, noisy)
            nfev += 1
            frozen = frozen | (~frozen & settle)
    return out, frozen, nfev


def _sde_adaptive_loop(batch: BatchRhs, work_grid: np.ndarray, wiener,
                       noisy: bool, freeze_tol: float | None, rtol: float,
                       atol: float, max_step: float, scatter):
    """The embedded-pair adaptive sweep: EM predictor inside the
    stochastic-Heun corrector, their gap as the local error estimate.

    Each output-grid interval is walked along its dyadic lattice —
    substep ``j`` of ``2**level`` — so accepted steps always land
    exactly on the grid (dense output by construction, no stochastic
    interpolation) and every Wiener increment is a
    :class:`BridgeWienerSource` node: the realized path never depends
    on the accept/reject sequence. A rejection halves the step
    (``level+1``, ``j<<1``) and reuses the cached drift/amplitude at
    the unchanged ``(t, y)``, so only the corrector evaluation is
    repaid; an accepted step with error below :data:`_GROW_THRESHOLD`
    re-coarsens (``level-1``, ``j>>1``) when aligned. ``max_step``
    bounds the coarsest substep; :data:`MAX_BRIDGE_LEVEL` bounds
    refinement — at the floor, offending rows freeze when
    ``freeze_tol`` is set, else the step is accepted as-is (a
    non-finite result still fails the solve afterwards).
    """
    n_states = batch.n_states
    path_index = batch.term_path_index
    y = batch.y0
    out = np.empty((y.shape[0], n_states, len(work_grid)), dtype=y.dtype)
    out[:, :, 0] = y
    frozen = np.zeros(y.shape[0], dtype=bool)
    nfev = accepted = rejected = 0
    t_end = work_grid[-1]
    level = 0
    for k in range(len(work_grid) - 1):
        if bool(frozen.all()):
            out[:, :, k + 1:] = y[:, :, None]
            break
        t_start = float(work_grid[k])
        dt = float(work_grid[k + 1]) - t_start
        level_min = _min_level(dt, max_step)
        # Carry the step size across intervals: stiffness rarely
        # resets at a grid point.
        level = min(max(level, level_min), MAX_BRIDGE_LEVEL)
        j = 0
        f0 = amp0 = None
        while j < (1 << level):
            h = dt / (1 << level)
            t = t_start + j * h
            if f0 is None:
                f0 = batch(t, y)
                nfev += 1
                if noisy:
                    amp0 = batch.diffusion(t, y)
            if noisy:
                # Bridge increments are formed in float64, then rounded.
                dw = wiener.increment(k, level, j)[:, path_index] \
                    .astype(y.dtype, copy=False)
                g0 = scatter(amp0 * dw)
            else:
                g0 = 0.0
            y_em = y + h * f0 + g0
            f1 = batch(t + h, y_em)
            nfev += 1
            if noisy:
                g1 = scatter(batch.diffusion(t + h, y_em) * dw)
            else:
                g1 = 0.0
            y_heun = y + 0.5 * h * (f0 + f1) + 0.5 * (g0 + g1)
            norms = _error_norms(y_heun - y_em, y, y_heun, rtol, atol)
            norms = np.where(frozen, 0.0, norms)
            finite = np.isfinite(norms)
            worst = float(np.max(np.where(finite, norms,
                                          float("inf")))) \
                if norms.shape[0] else 0.0
            if worst > 1.0 and level < MAX_BRIDGE_LEVEL:
                # Halve: same (t, y), so f0/amp0 stay valid — only the
                # corrector evaluation is repaid next attempt.
                rejected += 1
                level += 1
                j <<= 1
                continue
            if worst > 1.0 and freeze_tol is not None:
                # Refinement floor: freeze the offenders at their
                # current state instead of dragging the whole batch.
                offenders = ~frozen & ((norms > 1.0) | ~finite)
                frozen = frozen | offenders
            accepted += 1
            y_new = y_heun
            if bool(frozen.any()):
                y_new = np.where(frozen[:, None], y, y_new)
            y = y_new
            f0 = amp0 = None
            j += 1
            if worst < _GROW_THRESHOLD and level > level_min \
                    and j % 2 == 0:
                level -= 1
                j >>= 1
        if freeze_tol is not None:
            bad = ~frozen & ~np.all(np.isfinite(y), axis=1)
            if bool(bad.any()):
                y = np.where(bad[:, None], out[:, :, k], y)
                frozen = frozen | bad
        out[:, :, k + 1] = y
        t_next = float(work_grid[k + 1])
        if freeze_tol is not None and t_next < t_end and \
                not bool(frozen.all()):
            remaining = float(t_end - t_next)
            settle = _noise_settle(batch, scatter, y, t_next, remaining,
                                   rtol, atol, freeze_tol, noisy)
            nfev += 1
            frozen = frozen | (~frozen & settle)
    return out, frozen, nfev, accepted, rejected


def _min_level(dt: float, max_step: float) -> int:
    """Coarsest dyadic level whose substep respects ``max_step`` (with
    an epsilon so an exact power-of-two ratio is not over-refined)."""
    if dt <= max_step:
        return 0
    return min(MAX_BRIDGE_LEVEL,
               math.ceil(math.log2(dt / max_step) - 1e-12))


def solve_sde(batch: BatchRhs | list[OdeSystem],
              t_span: tuple[float, float], *, noise_seeds=None,
              n_points: int = 500, method: str = "heun",
              t_eval=None, max_step: float | None = None,
              block: int = 256, freeze_tol: float | None = None,
              rtol: float = 1e-7, atol: float = 1e-9,
              array_backend=None) -> BatchTrajectory:
    """Integrate a structurally compatible stochastic ensemble.

    :param batch: a compiled :class:`BatchRhs` or a list of systems.
    :param noise_seeds: one noise-seed token per instance (defaults to
        ``0..n-1``). Instances with equal tokens see identical noise.
    :param method: ``heun`` (default) or ``heun-adaptive`` — see the
        module docstring for the trade-offs.
    :param max_step: substep cap; defaults to 1/64 of the span like the
        deterministic solvers. For ``heun`` accuracy is step-limited, so
        dense output grids double as accuracy control; for
        ``heun-adaptive`` this only bounds the *coarsest* step the
        controller may take.
    :param block: Wiener pre-draw block length of ``heun``'s sequential
        streams (memory/speed knob; the realization is block-size
        independent). Ignored by ``heun-adaptive``, whose bridge
        streams are random-access.
    :param freeze_tol: per-instance step masks. An instance freezes —
        its row is pinned at the current state — when both its drift
        extrapolated over the remaining span *and* its diffusion
        amplitude scaled by the remaining span's Wiener deviation stay
        below ``freeze_tol`` times the tolerance scale
        (``atol + rtol * |y|``), i.e. neither the deterministic flow
        nor the noise can move it beyond tolerance anymore; and an
        instance whose state goes non-finite mid-sweep (a diverged
        stiff outlier) freezes at its last grid value instead of
        failing the whole batch. Once every instance is frozen the
        remaining grid fills without further evaluations. Freezing is
        decided per row from row-local data only, so masked runs stay
        bit-identical under sharding. ``None`` (default) disables
        masking — exact legacy behavior.
    :param rtol:/:param atol: per-instance error control of
        ``heun-adaptive`` (the embedded EM/Heun gap, scipy's scaling
        convention), and the tolerance scale of the freeze criterion.
        On ``heun`` only ``freeze_tol`` consumes them.
    :param array_backend: the precision the solve runs at (see
        :func:`~repro.sim.batch_solver.solve_batch`). Wiener draws are
        always made in float64 and cast, so the *realization* does not
        depend on the precision; a precompiled ``batch`` carries its
        own and a conflicting request raises.
    """
    if method not in SDE_METHODS:
        # Validate before compiling anything: an unknown method should
        # fail fast and name the alternatives (PR 4 engine hardening).
        raise SimulationError(
            f"unknown SDE method {method!r}; expected one of "
            f"{', '.join(SDE_METHODS)}")
    batch = _as_batch(batch, array_backend)
    if noise_seeds is None:
        noise_seeds = range(batch.n_instances)
    noise_seeds = list(noise_seeds)
    if len(noise_seeds) != batch.n_instances:
        raise SimulationError(
            f"{len(noise_seeds)} noise seeds for "
            f"{batch.n_instances} instances")
    grid, work_grid, max_step = _solve_grids(t_span, n_points, t_eval,
                                             max_step, freeze_tol)
    preroll = len(work_grid) > len(grid)
    noisy = batch.has_noise

    scatter = _ScatterAccumulator(batch.term_state_index,
                                  batch.n_states, batch.n_instances,
                                  batch.dtype)
    adaptive = method == "heun-adaptive"
    if adaptive:
        wiener = BridgeWienerSource(
            noise_seeds, batch.wiener_paths if noisy else [], work_grid)
        out, frozen, nfev, n_acc, n_rej = _sde_adaptive_loop(
            batch, work_grid, wiener, noisy, freeze_tol, rtol, atol,
            max_step, scatter)
    else:
        wiener = WienerSource(
            noise_seeds, batch.wiener_paths if noisy else [],
            block=block)
        plan, _total = _substep_plan(work_grid, max_step)
        out, frozen, nfev = _sde_loop(batch, work_grid, plan, wiener,
                                      noisy, freeze_tol, rtol, atol,
                                      scatter)
    if telemetry.enabled():
        telemetry.add("solver.sde_solves")
        telemetry.add("solver.nfev", nfev)
        telemetry.add("sde.scatter_allocs", scatter.allocs)
        telemetry.add("sde.wiener_seconds", wiener.seconds)
        if adaptive:
            telemetry.add("solver.steps_accepted", n_acc)
            telemetry.add("solver.steps_rejected", n_rej)
            telemetry.gauge_max("sde.bridge_levels", wiener.max_level)
        if freeze_tol is not None:
            telemetry.add("solver.frozen_rows", int(frozen.sum()))
    if preroll:
        out = out[:, :, 1:]
    if not np.all(np.isfinite(out)):
        raise SimulationError(
            f"sde {method} produced non-finite states for "
            f"{batch.systems[0].graph.name}; reduce max_step (explicit "
            "fixed-step stability), tighten rtol/atol (adaptive), or "
            "reduce the noise amplitude")
    return BatchTrajectory(t=grid, y=out, systems=batch.systems,
                           frozen=frozen if freeze_tol is not None
                           else None, nfev=nfev)


def simulate_sde(target: OdeSystem | DynamicalGraph,
                 t_span: tuple[float, float], *, noise_seed=0,
                 n_points: int = 500, method: str = "heun",
                 t_eval=None, max_step: float | None = None,
                 rtol: float = 1e-7, atol: float = 1e-9) -> Trajectory:
    """One noisy transient of a single system — the serial counterpart
    of :func:`solve_sde` (and the baseline the batched path is
    benchmarked against). ``noise_seed`` selects the realization;
    ``rtol``/``atol`` steer ``heun-adaptive``."""
    system = (compile_graph(target)
              if isinstance(target, DynamicalGraph) else target)
    batch = solve_sde(compile_batch([system]), t_span,
                      noise_seeds=[noise_seed], n_points=n_points,
                      method=method, t_eval=t_eval, max_step=max_step,
                      rtol=rtol, atol=atol)
    return batch.instance(0)
