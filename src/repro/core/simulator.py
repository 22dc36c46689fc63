"""Transient simulation of compiled Ark programs.

Wraps :func:`scipy.integrate.solve_ivp` around an
:class:`~repro.core.odesystem.OdeSystem` and packages the result as a
:class:`Trajectory` addressable by node name. Seeded Monte-Carlo
sweeps over fabricated instances — the workflow behind the paper's
mismatch studies (Figs. 4c/4d, 11c, Table 1) — run through
:func:`repro.sim.run_ensemble`, which integrates structurally identical
instances through one vectorized RHS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from repro.core.compiler import compile_graph
from repro.core.graph import DynamicalGraph
from repro.core.odesystem import OdeSystem
from repro.errors import SimulationError


def check_sample_times(times: np.ndarray, t: np.ndarray):
    """Reject interpolation requests outside ``[t[0], t[-1]]`` (allowing
    a relative fuzz for floating-point grid endpoints). ``np.interp``
    clamps out-of-range times to the endpoint values, so sampling past
    the integrated span would silently extrapolate a constant."""
    if times.size == 0:
        return
    tolerance = 1e-9 * max(abs(t[0]), abs(t[-1]), t[-1] - t[0])
    low, high = np.min(times), np.max(times)
    if low < t[0] - tolerance or high > t[-1] + tolerance:
        raise SimulationError(
            f"requested sample times span [{low:.6g}, {high:.6g}] but "
            f"the trajectory covers [{t[0]:.6g}, {t[-1]:.6g}]; "
            "interpolation outside the integrated range would silently "
            "extrapolate a constant")


@dataclass
class Trajectory:
    """A simulated transient: times plus the full state matrix."""

    t: np.ndarray
    y: np.ndarray  # shape (n_states, len(t))
    system: OdeSystem

    def __getitem__(self, node: str) -> np.ndarray:
        """Trajectory of a node's value (0th derivative)."""
        return self.state(node, 0)

    def state(self, node: str, deriv: int = 0) -> np.ndarray:
        return self.y[self.system.index_of(node, deriv)]

    def initial(self, node: str, deriv: int = 0) -> float:
        return float(self.state(node, deriv)[0])

    def final(self, node: str, deriv: int = 0) -> float:
        return float(self.state(node, deriv)[-1])

    def final_state(self) -> np.ndarray:
        return self.y[:, -1].copy()

    def sample(self, node: str, times, deriv: int = 0) -> np.ndarray:
        """Linear interpolation of a node's trajectory at given times.
        Times outside ``[t[0], t[-1]]`` raise instead of silently
        clamping to the endpoint values."""
        times = np.asarray(times, dtype=float)
        check_sample_times(times, self.t)
        return np.interp(times, self.t, self.state(node, deriv))

    def window(self, node: str, t_start: float, t_end: float,
               ) -> tuple[np.ndarray, np.ndarray]:
        """The (t, value) samples falling inside [t_start, t_end]."""
        mask = (self.t >= t_start) & (self.t <= t_end)
        return self.t[mask], self.state(node)[mask]

    def algebraic(self, node: str) -> np.ndarray:
        """Trajectory of an order-0 node (recomputed from the states).

        Evaluated over the whole ``(n_states, n_t)`` matrix in one
        vectorized pass: the batched ensemble codegen
        (:mod:`repro.sim.batch_codegen`) is reused with *time* as the
        batch axis. Systems whose algebraic expressions defeat
        vectorization fall back to the per-sample interpreter loop.
        """
        batch = getattr(self.system, "_algebraic_batch", None)
        if batch is None:
            from repro.sim.batch_codegen import compile_batch
            try:
                batch = compile_batch([self.system])
            except Exception:
                batch = False
            self.system._algebraic_batch = batch
        if batch is not False:
            try:
                values = batch.algebraic_values(self.t, self.y.T)
            except Exception:
                self.system._algebraic_batch = False
            else:
                # Outside the except: an unknown node name is a caller
                # error and must not poison the vectorized-path cache.
                return values[node]
        values = np.empty(len(self.t))
        for k, (tk, yk) in enumerate(zip(self.t, self.y.T)):
            values[k] = self.system.algebraic_values(tk, yk)[node]
        return values

    @property
    def n_points(self) -> int:
        return len(self.t)


def simulate(target: OdeSystem | DynamicalGraph, t_span: tuple[float, float],
             n_points: int = 500, method: str = "RK45",
             rtol: float = 1e-7, atol: float = 1e-9,
             backend: str = "codegen", t_eval=None,
             max_step: float | None = None) -> Trajectory:
    """Simulate the transient dynamics over ``t_span``.

    :param target: a compiled system or a dynamical graph (compiled with
        its own language when a graph is given).
    :param n_points: number of evenly spaced output samples (ignored when
        ``t_eval`` is provided).
    :param method: any solve_ivp method (RK45, LSODA, Radau, BDF...).
    :param backend: RHS backend: ``codegen`` (default) compiles the
        system through the one emitter's one-row layout
        (:func:`repro.sim.batch_codegen.compile_row`), ``interpreter``
        walks the expression trees (the reference oracle; slower).
    :param max_step: solver step cap (> 0). Defaults to 1/64 of the
        span so brief input events (e.g. a short pulse into a quiescent
        line, where ``f(t0, y0) = 0`` makes scipy pick a huge first
        step) cannot be stepped over. Pass ``numpy.inf`` to lift the
        cap.

    Stochastic systems (``system.has_noise``) integrate *drift-only*
    here — the deterministic noise-free reference; use
    :func:`repro.sim.solve_sde` / :func:`repro.simulate_sde` to
    realize their transient noise.
    """
    from repro.sim.batch_solver import _output_grid

    system = (compile_graph(target)
              if isinstance(target, DynamicalGraph) else target)
    t0, t1 = float(t_span[0]), float(t_span[1])
    grid = _output_grid(t_span, n_points, t_eval)
    options: dict = {}
    if max_step is None:
        max_step = (t1 - t0) / 64.0
    elif not max_step > 0.0:  # also NaN, which isfinite would drop
        raise SimulationError(f"max_step must be > 0, got {max_step}")
    if np.isfinite(max_step):
        options["max_step"] = max_step
    solution = solve_ivp(system.rhs(backend), (t0, t1), system.y0,
                         method=method, t_eval=grid, rtol=rtol,
                         atol=atol, **options)
    if not solution.success:
        raise SimulationError(
            f"solve_ivp failed for {system.graph.name}: "
            f"{solution.message}")
    return Trajectory(t=solution.t, y=solution.y, system=system)
