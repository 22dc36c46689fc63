"""Vectorized batch integration of compiled ensembles.

Two fixed-grid solvers operate on the whole ``(n_instances, n_states)``
state matrix at once:

* ``rk4``   — classic fixed-step Runge-Kutta 4, substepped to respect
  ``max_step``; cheapest when the dynamics are smooth and the grid is
  dense enough;
* ``rkf45`` — adaptive Runge-Kutta-Fehlberg 4(5) with *per-instance*
  error control: the embedded error estimate is normalized per instance
  and the shared step obeys the worst one, so a single stiff outlier
  cannot silently degrade its siblings' accuracy.

Both land exactly on a shared output grid. ``rk4`` substeps each grid
interval; ``rkf45`` uses *dense output* — steps are sized by the
error estimate alone and grid samples are filled by a bootstrapped
quartic interpolant (order-consistent with the propagated solution), so
fine output grids do not force extra RHS evaluations. Both
return a :class:`BatchTrajectory` with ``(n_instances, n_states, n_t)``
storage plus the ensemble accessors (mean/std/percentile bands) the
paper's Fig. 4c/4d-style mismatch studies read.

The step loops run at the batch's dtype (float64 by default, float32
on request — see :func:`~repro.sim.batch_codegen.array_dtype`): state
matrices and the output buffer carry it, and the per-instance freeze
masks are applied through value-identical ``np.where`` selects.
Step-size control stays python-float math, which keeps float32 states
float32 (python scalars are weak under NEP 50 promotion; numpy float64
scalars are not).
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.odesystem import OdeSystem
from repro.core.simulator import Trajectory, check_sample_times
from repro.errors import SimulationError

from repro.sim.batch_codegen import BatchRhs, array_dtype, compile_batch

#: Fehlberg 4(5) tableau — stage nodes, stage weights, and the 5th/4th
#: order solution weights.
_RKF_C = (0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = (
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
           -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0,
           -1.0 / 5.0, 0.0)


@dataclass
class BatchTrajectory:
    """An ensemble transient: shared times plus per-instance states.

    ``y`` has shape ``(n_instances, n_states, n_t)``. Node accessors
    return ``(n_instances, n_t)`` matrices; the statistics accessors
    reduce over the instance axis, giving the pointwise ensemble
    envelopes of the paper's mismatch figures directly.
    """

    t: np.ndarray
    y: np.ndarray
    systems: list[OdeSystem]
    #: Per-instance step-mask state at the end of the run (``None``
    #: when the solver ran without ``freeze_tol`` or the trajectory was
    #: rebuilt from a cache hit): True marks instances that froze —
    #: converged (or, on the SDE path, diverged) and held constant.
    frozen: np.ndarray | None = None
    #: Number of batched RHS evaluations the solve spent (``None`` on
    #: cache rebuilds) — the step-mask savings metric.
    nfev: int | None = None

    @property
    def n_instances(self) -> int:
        return self.y.shape[0]

    @property
    def n_points(self) -> int:
        return len(self.t)

    def __len__(self) -> int:
        return self.n_instances

    def __getitem__(self, node: str) -> np.ndarray:
        return self.state(node, 0)

    def state(self, node: str, deriv: int = 0) -> np.ndarray:
        """All instances' trajectories of a node: (n_instances, n_t)."""
        return self.y[:, self.systems[0].index_of(node, deriv), :]

    def final(self, node: str, deriv: int = 0) -> np.ndarray:
        """Per-instance final value of a node: (n_instances,)."""
        return self.state(node, deriv)[:, -1].copy()

    def sample(self, node: str, times, deriv: int = 0) -> np.ndarray:
        """Linear interpolation of every instance at given times:
        (n_instances, len(times)). Times outside the trajectory's range
        raise — ``np.interp`` would silently clamp them to the endpoint
        values, turning an out-of-window readout into a confidently
        wrong constant."""
        times = np.asarray(times, dtype=float)
        check_sample_times(times, self.t)
        rows = self.state(node, deriv)
        return np.stack([np.interp(times, self.t, row) for row in rows])

    def instance(self, index: int) -> Trajectory:
        """One instance's run as a plain serial :class:`Trajectory`."""
        return Trajectory(t=self.t, y=self.y[index],
                          system=self.systems[index])

    def trajectories(self) -> list[Trajectory]:
        """All instances as serial trajectories (ensemble-API compat)."""
        return [self.instance(i) for i in range(self.n_instances)]

    # ------------------------------------------------------------------
    # Ensemble statistics
    # ------------------------------------------------------------------

    def mean(self, node: str, deriv: int = 0) -> np.ndarray:
        return self.state(node, deriv).mean(axis=0)

    def std(self, node: str, deriv: int = 0) -> np.ndarray:
        return self.state(node, deriv).std(axis=0)

    def percentile(self, node: str, q, deriv: int = 0) -> np.ndarray:
        """Pointwise percentile(s) across the ensemble."""
        return np.percentile(self.state(node, deriv), q, axis=0)

    def band(self, node: str, lower: float = 5.0, upper: float = 95.0,
             ) -> dict[str, np.ndarray]:
        """The shaded envelope a Fig. 4c/4d-style plot would draw."""
        if not 0.0 <= lower < upper <= 100.0:
            raise ValueError(
                f"percentiles must satisfy 0 <= lower < upper <= 100, "
                f"got ({lower}, {upper})")
        matrix = self.state(node)
        return {
            "median": np.percentile(matrix, 50.0, axis=0),
            "lower": np.percentile(matrix, lower, axis=0),
            "upper": np.percentile(matrix, upper, axis=0),
        }

    def spread(self, node: str, window: tuple[float, float],
               n_samples: int = 100) -> float:
        """Scalar spread score inside an observation window (mean
        pointwise std) — the Fig. 4c/4d comparison number."""
        times = np.linspace(window[0], window[1], n_samples)
        return float(self.sample(node, times).std(axis=0).mean())

    def __repr__(self) -> str:
        return (f"<BatchTrajectory instances={self.n_instances} "
                f"states={self.y.shape[1]} points={self.n_points}>")


def _output_grid(t_span, n_points, t_eval) -> np.ndarray:
    """The output grid of a solve, and the one check of its inputs for
    the batched solvers and the serial :func:`~repro.core.simulator.
    simulate` alike: an increasing span, at least two points, and a
    ``t_eval`` that increases strictly inside ``[t0, t1]``.
    :meth:`~repro.sim.plan.ExecutionPlan.validate` runs it before the
    first factory call."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise SimulationError(f"empty time span [{t0}, {t1}]")
    if t_eval is None:
        if int(n_points) < 2:
            raise SimulationError(
                f"n_points must be >= 2 to span [{t0}, {t1}], got "
                f"{n_points} (a degenerate grid would skip integration "
                "and return only y0)")
        return np.linspace(t0, t1, int(n_points))
    grid = np.asarray(t_eval, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise SimulationError("t_eval must be strictly increasing with "
                              "at least two points")
    if grid[0] < t0 or grid[-1] > t1:
        raise SimulationError(
            f"t_eval spans [{grid[0]}, {grid[-1]}], outside the time "
            f"span [{t0}, {t1}]")
    return grid


def _resolve_max_step(max_step, span: float) -> float:
    """Normalize the solver ``max_step`` option: ``None`` defaults to
    span/64 (matching the serial :func:`~repro.core.simulator.
    simulate` so brief input events cannot be stepped over), ``+inf``
    lifts the cap to the whole span, and anything else must be a
    positive finite number — zero used to die in a substep division
    and negatives were silently swallowed by ``max(1, ...)``."""
    span = float(span)
    if max_step is None:
        return span / 64.0
    max_step = float(max_step)
    if np.isinf(max_step) and max_step > 0:
        return span
    if np.isnan(max_step) or max_step <= 0.0:
        raise SimulationError(
            f"max_step must be > 0, got {max_step}")
    return max_step


def _solve_grids(t_span, n_points, t_eval, max_step, freeze_tol):
    """The checks and grids every batched solve (ODE and SDE) starts
    from: ``(grid, work_grid, max_step)``. ``y0`` is the state at
    ``t_span[0]``, so a later-starting output grid still integrates
    from there (matching scipy's ``t_eval`` semantics): the work grid
    then carries a pre-roll column, dropped afterwards."""
    grid = _output_grid(t_span, n_points, t_eval)
    t0 = float(t_span[0])
    if grid[0] < t0:
        raise SimulationError(
            f"t_eval starts at {grid[0]} before the span start {t0}")
    work_grid = np.concatenate(([t0], grid)) if grid[0] > t0 else grid
    max_step = _resolve_max_step(max_step,
                                 work_grid[-1] - work_grid[0])
    if freeze_tol is not None and freeze_tol <= 0.0:
        raise SimulationError(
            f"freeze_tol must be > 0 (or None), got {freeze_tol}")
    return grid, work_grid, max_step


def _as_batch(batch, array_backend) -> BatchRhs:
    """The compiled batch a solve runs: a system list compiles at the
    requested precision; a precompiled :class:`BatchRhs` keeps its own,
    so an explicit *conflicting* request is an error rather than a
    silent mixed-precision run."""
    if not isinstance(batch, BatchRhs):
        return compile_batch(batch, array_backend=array_backend)
    if array_backend is not None and \
            array_dtype(array_backend) != batch.dtype:
        raise SimulationError(
            f"array_backend {array_backend!r} conflicts with the "
            f"precompiled batch's dtype {batch.dtype.name}; recompile "
            "the batch at the requested precision (or drop the argument "
            "to use the batch's own)")
    return batch


def freeze_converged(y, f, remaining: float, rtol: float, atol: float,
                     freeze_tol: float):
    """Per-instance convergence test of the step-mask machinery: an
    instance may freeze when extrapolating its current drift over the
    *entire remaining span* moves every state by less than
    ``freeze_tol`` times the solver's tolerance scale — i.e. the
    instance has settled and, left alone, would stay put to within the
    requested accuracy. Returns the boolean ``(n_instances,)`` mask."""
    remaining = float(remaining)
    scale = atol + rtol * np.abs(y)
    drift = np.abs(f) * remaining
    return np.sqrt(np.mean((drift / scale) ** 2, axis=1)) <= freeze_tol


def _rk4_batch(rhs: BatchRhs, grid: np.ndarray, max_step: float,
               rtol: float, atol: float,
               freeze_tol: float | None):
    y = rhs.y0
    out = np.empty((y.shape[0], y.shape[1], len(grid)), dtype=y.dtype)
    out[:, :, 0] = y
    frozen = np.zeros(y.shape[0], dtype=bool)
    nfev = 0
    accepted = 0
    t_end = grid[-1]
    for k in range(len(grid) - 1):
        if bool(frozen.all()):
            # Every instance holds constant: fill the rest of the grid
            # without evaluating the RHS again.
            out[:, :, k + 1:] = y[:, :, None]
            break
        dt = float(grid[k + 1] - grid[k])
        substeps = max(1, math.ceil(dt / max_step))
        h = dt / substeps
        t = float(grid[k])
        hold = y if bool(frozen.any()) else None
        for _ in range(substeps):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            nfev += 4
            accepted += 1
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if hold is not None:
                # Pinned rows: frozen instances hold their value (the
                # batch RHS is row-local, so their columns cannot
                # influence active siblings).
                y = np.where(frozen[:, None], hold, y)
            t += h
        out[:, :, k + 1] = y
        if freeze_tol is not None and grid[k + 1] < t_end:
            f = rhs(float(grid[k + 1]), y)
            nfev += 1
            frozen = frozen | freeze_converged(
                y, f, t_end - grid[k + 1], rtol, atol, freeze_tol)
    return out, frozen, nfev, accepted, 0


def _error_norms(error, y_old, y_new, rtol: float, atol: float):
    """Per-instance RMS error norm (scipy's scaling convention)."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return np.sqrt(np.mean((error / scale) ** 2, axis=1))


def _rkf45_stages(rhs: BatchRhs, t: float, y: np.ndarray, h: float,
                  k1: np.ndarray):
    """One embedded RKF45 step from an already-evaluated ``k1``:
    returns (y5, y4)."""
    k2 = rhs(t + _RKF_C[0] * h, y + h * (_RKF_A[0][0] * k1))
    k3 = rhs(t + _RKF_C[1] * h,
             y + h * (_RKF_A[1][0] * k1 + _RKF_A[1][1] * k2))
    k4 = rhs(t + _RKF_C[2] * h,
             y + h * (_RKF_A[2][0] * k1 + _RKF_A[2][1] * k2
                      + _RKF_A[2][2] * k3))
    k5 = rhs(t + _RKF_C[3] * h,
             y + h * (_RKF_A[3][0] * k1 + _RKF_A[3][1] * k2
                      + _RKF_A[3][2] * k3 + _RKF_A[3][3] * k4))
    k6 = rhs(t + _RKF_C[4] * h,
             y + h * (_RKF_A[4][0] * k1 + _RKF_A[4][1] * k2
                      + _RKF_A[4][2] * k3 + _RKF_A[4][3] * k4
                      + _RKF_A[4][4] * k5))
    stages = (k1, k2, k3, k4, k5, k6)
    y5 = y + h * sum(b * s for b, s in zip(_RKF_B5, stages))
    y4 = y + h * sum(b * s for b, s in zip(_RKF_B4, stages))
    return y5, y4


def _underflow(t: float, h: float) -> SimulationError:
    return SimulationError(
        f"rkf45 step size underflow at t={t:.3e} "
        f"(h={h:.3e}); the batch may contain a stiff "
        "instance — use the serial path with an implicit "
        "method")


def _step_factor(worst: float) -> float:
    return 5.0 if worst == 0.0 else \
        min(5.0, max(0.2, 0.9 * worst ** -0.2))


def _freeze_offenders(frozen, norms, freeze_tol: float | None):
    """Step-size underflow handling with masks enabled: the instances
    whose error refuses to drop below tolerance at the step floor (the
    out-of-tolerance outliers forcing the worst-case step on the whole
    batch) freeze at their last accepted state so their siblings can
    proceed. Returns ``(frozen, changed)`` — the updated mask and
    whether at least one new instance was frozen; ``changed=False``
    means no offender is identifiable (the caller must then raise the
    classic underflow error)."""
    if freeze_tol is None or norms is None:
        return frozen, False
    offenders = ~frozen & ~(norms <= 1.0)
    if not bool(offenders.any()):
        return frozen, False
    return frozen | offenders, True


#: Collocation node of the bootstrapped quartic interpolant. theta=1/2
#: makes the Hermite-Birkhoff system singular; 1/3 is well conditioned
#: (determinant 4/27).
_DENSE_NODE = 1.0 / 3.0


def _hermite_point(theta: float, y_old: np.ndarray, y_new: np.ndarray,
                   f_old: np.ndarray, f_new: np.ndarray,
                   h: float) -> np.ndarray:
    """Cubic Hermite predictor at one normalized position (the
    bootstrap's collocation point; O(h^4) accurate)."""
    t2 = theta * theta
    t3 = t2 * theta
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y_old
            + (t3 - 2.0 * t2 + theta) * (h * f_old)
            + (-2.0 * t3 + 3.0 * t2) * y_new
            + (t3 - t2) * (h * f_new))


def _quartic_coefficients(y_old: np.ndarray, y_new: np.ndarray,
                          f_old: np.ndarray, f_mid: np.ndarray,
                          f_new: np.ndarray, h: float):
    """Coefficients (a, b, c, d) of the bootstrapped quartic
    ``y(theta) = y_old + a th + b th^2 + c th^3 + d th^4`` matching
    value+derivative at both endpoints and the derivative ``f_mid``
    collocated at ``theta = _DENSE_NODE = 1/3``:

        a           = h f_old
        b + c + d   = (y_new - y_old) - a
        2b + 3c + 4d = h f_new - a
        (2/3)b + (1/3)c + (4/27)d = h f_mid - a

    Because ``f_mid`` is evaluated on the O(h^4) cubic predictor, the
    quartic's local error is O(h^5) — the same order as the propagated
    RKF45 solution, so dense output no longer dilutes the tolerance.
    """
    a = h * f_old
    p = (y_new - y_old) - a
    q = h * f_new - a
    r = h * f_mid - a
    b = (27.0 * r - 24.0 * p + 5.0 * q) / 4.0
    c = 4.0 * p - q - 2.0 * b
    d = p - b - c
    return a, b, c, d


def _quartic_eval(theta, y_old, coefficients):
    """Evaluate the quartic at positions ``theta`` (shape (m,));
    result (m, n_instances, n_states)."""
    a, b, c, d = coefficients
    theta = theta[:, None, None]
    return y_old + theta * (a + theta * (b + theta * (c + theta * d)))


def _rkf45_dense_batch(rhs: BatchRhs, grid: np.ndarray, rtol: float,
                       atol: float, max_step: float,
                       freeze_tol: float | None):
    """Dense-output RKF45: step control is decoupled from the output
    grid. Steps are sized by the error estimate alone (never clipped to
    grid points); every output sample inside an accepted step is filled
    by a bootstrapped quartic interpolant (endpoint values/derivatives
    plus one collocated derivative on the cubic predictor — local error
    O(h^5), the same order as the propagated solution). The endpoint
    derivative doubles as the next step's ``k1`` (first-same-as-last),
    so dense output costs at most one extra RHS evaluation per
    *output-producing* step — fine grids stop forcing small steps."""
    t_end = float(grid[-1])
    span = t_end - float(grid[0])
    min_step = 1e-14 * span
    y = rhs.y0
    out = np.empty((y.shape[0], y.shape[1], len(grid)), dtype=y.dtype)
    out[:, :, 0] = y
    frozen = np.zeros(y.shape[0], dtype=bool)
    nfev = 1
    accepted = 0
    rejected = 0
    t = float(grid[0])
    h = min(max_step, span / 100.0)
    k1 = rhs(t, y)
    last_norms = None
    next_index = 1
    while next_index < len(grid):
        if bool(frozen.all()):
            out[:, :, next_index:] = y[:, :, None]
            break
        h = min(h, max_step)
        if h < min_step:
            frozen, changed = _freeze_offenders(
                frozen, last_norms, freeze_tol)
            if changed:
                h = min(max_step, span / 100.0)
                continue
            raise _underflow(t, h)
        if t + h >= t_end:
            h = t_end - t
            t_new = t_end
        else:
            t_new = t + h
        y5, y4 = _rkf45_stages(rhs, t, y, h, k1)
        nfev += 5
        if bool(frozen.any()):
            # Pinned rows: held constant and excluded from error
            # control, so a converged stiff instance stops dictating
            # the shared step size.
            y5 = np.where(frozen[:, None], y, y5)
            y4 = np.where(frozen[:, None], y, y4)
        norms = _error_norms(y5 - y4, y, y5, rtol, atol)
        last_norms = norms
        worst = float(norms.max()) if norms.size else 0.0
        if not math.isfinite(worst):
            rejected += 1
            h *= 0.2
            continue
        if worst > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * worst ** -0.2)
            continue
        accepted += 1
        f_new = rhs(t_new, y5)
        nfev += 1
        stop = next_index
        while stop < len(grid) and grid[stop] <= t_new:
            stop += 1
        if stop > next_index:
            y_node = _hermite_point(_DENSE_NODE, y, y5, k1, f_new, h)
            f_node = rhs(t + _DENSE_NODE * h, y_node)
            nfev += 1
            coefficients = _quartic_coefficients(y, y5, k1, f_node,
                                                 f_new, h)
            theta = np.asarray((grid[next_index:stop] - t) / h,
                               dtype=y.dtype)
            values = _quartic_eval(theta, y, coefficients)
            if bool(frozen.any()):
                # The interpolant would wiggle frozen rows by their
                # (tolerance-bounded) residual drift; pin them exactly.
                values = np.where(frozen[None, :, None], y[None, :, :],
                                  values)
            out[:, :, next_index:stop] = np.moveaxis(values, 0, 2)
            next_index = stop
        if freeze_tol is not None and t_new < t_end:
            frozen = frozen | freeze_converged(
                y5, f_new, t_end - t_new, rtol, atol, freeze_tol)
        t = t_new
        y = y5
        k1 = f_new
        h *= _step_factor(worst)
    return out, frozen, nfev, accepted, rejected


def solve_batch(batch: BatchRhs | list[OdeSystem],
                t_span: tuple[float, float], n_points: int = 500,
                method: str = "rkf45", rtol: float = 1e-7,
                atol: float = 1e-9, t_eval=None,
                max_step: float | None = None,
                dense: bool = True,
                freeze_tol: float | None = None,
                array_backend=None) -> BatchTrajectory:
    """Integrate a structurally compatible ensemble in one pass.

    :param batch: a compiled :class:`BatchRhs` or a list of systems to
        compile (see :func:`~repro.sim.batch_codegen.compile_batch`).
    :param method: ``rkf45`` (adaptive, default) or ``rk4`` (fixed
        step).
    :param max_step: step cap; defaults to 1/64 of the span, matching
        the serial :func:`~repro.core.simulator.simulate` so brief input
        events cannot be stepped over.
    :param dense: retired; only ``True`` is accepted. rkf45 always fills
        the output grid from its quartic dense output, so step control
        is decoupled from the grid (scipy's ``t_eval`` semantics). The
        keyword stays until the benchmark's t-line options stop
        passing it.
    :param freeze_tol: per-instance step masks. When set, an instance
        whose extrapolated drift over the whole remaining span stays
        below ``freeze_tol`` times the tolerance scale *freezes* — its
        row is pinned and excluded from error control, so one
        converged-but-stiff instance no longer forces the worst-case
        step on its siblings; and an instance whose error refuses to
        drop below tolerance at the rkf45 step floor freezes at its
        last accepted state instead of killing the whole batch. When
        every instance is frozen the remaining grid is filled without
        further RHS evaluations. ``None`` (default) disables masking —
        the exact legacy behavior. The returned trajectory carries the
        final ``frozen`` mask and the ``nfev`` evaluation count.
    :param array_backend: the precision the solve runs at — ``None``
        or ``"numpy"`` (float64), ``"numpy:float64"`` or
        ``"numpy:float32"`` (see
        :func:`~repro.sim.batch_codegen.array_dtype`). A precompiled
        ``batch`` carries its own; passing a *different* one here is an
        error.
    """
    if dense is not True:
        raise SimulationError(
            f"dense={dense!r}: the clip-to-grid rkf45 loop was removed; "
            "rkf45 always uses dense output")
    batch = _as_batch(batch, array_backend)
    grid, work_grid, max_step = _solve_grids(t_span, n_points, t_eval,
                                             max_step, freeze_tol)
    preroll = len(work_grid) > len(grid)
    name = method.lower()
    if name == "rk4":
        y_out, frozen, nfev, accepted, rejected = _rk4_batch(
            batch, work_grid, max_step, rtol, atol, freeze_tol)
    elif name == "rkf45":
        y_out, frozen, nfev, accepted, rejected = _rkf45_dense_batch(
            batch, work_grid, rtol, atol, max_step, freeze_tol)
    else:
        raise SimulationError(
            f"unknown batch method {method!r}; expected 'rkf45' or "
            "'rk4' (scipy methods run through the serial path)")
    if telemetry.enabled():
        telemetry.add("solver.solves")
        telemetry.add("solver.nfev", nfev)
        telemetry.add("solver.steps_accepted", accepted)
        telemetry.add("solver.steps_rejected", rejected)
        if freeze_tol is not None:
            telemetry.add("solver.frozen_rows", int(frozen.sum()))
    if preroll:
        y_out = y_out[:, :, 1:]
    if not np.all(np.isfinite(y_out)):
        raise SimulationError(
            f"batched {name} produced non-finite states for "
            f"{batch.systems[0].graph.name}")
    return BatchTrajectory(t=grid, y=y_out, systems=batch.systems,
                           frozen=frozen if freeze_tol is not None
                           else None, nfev=nfev)
