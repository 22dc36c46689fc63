"""Compiled ODE systems and their two right-hand-side evaluators.

An :class:`OdeSystem` holds the output of the §5 compiler: the state
vector layout, per-state right-hand sides (chain equations or reduced
production terms), algebraic (order-0) node definitions in dependency
order, resolved attribute values, and the function registry.

:meth:`OdeSystem.rhs` selects how the right-hand side is evaluated:

* ``codegen`` (the default) — the one-row kernel of the repository's
  single emitter, :mod:`repro.sim.batch_codegen`: states as ``y[i]``
  reads, attributes inlined as constants, the affine part fused into one
  matmul where that eliminates at least two lines. Compiled once per
  system;
* ``interpreter`` — walks the unsimplified expression trees. Simple and
  easy to audit, it is the independent oracle the property tests check
  every compiled kernel against; :meth:`OdeSystem.algebraic_values` and
  :meth:`OdeSystem.diffusion_values` evaluate through the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import expr as E
from repro.core.simplify import inline_attributes, simplify
from repro.core.types import Reduction
from repro.errors import CompileError


@dataclass(frozen=True)
class StateVar:
    """One slot of the state vector: the ``deriv``-th derivative of a
    node's variable."""

    node: str
    deriv: int
    index: int

    @property
    def label(self) -> str:
        return self.node + "'" * self.deriv


@dataclass(frozen=True)
class ChainRhs:
    """``d n_i/dt = n_{i+1}`` (LowOrdEqs)."""

    next_index: int


@dataclass(frozen=True)
class TermsRhs:
    """``d^p n/dt^p = reduce(terms)`` (FormEq)."""

    terms: tuple[E.Expr, ...]
    reduction: Reduction


@dataclass(frozen=True)
class AlgebraicSpec:
    """An order-0 node: value = reduce(terms)."""

    name: str
    terms: tuple[E.Expr, ...]
    reduction: Reduction


@dataclass(frozen=True)
class DiffusionTerm:
    """One diffusion term of a stochastic system.

    The compiled dynamics read ``d y_i = f_i(t, y) dt + sum_k b_k(t, y)
    dW_k`` — every :class:`DiffusionTerm` is one ``b_k`` contribution:

    :param state_index: the state the Wiener increment perturbs.
    :param amplitude: the ``b_k(t, y)`` expression (attributes still
        symbolic, so batches across mismatch seeds share structure).
    :param element: graph element that physically owns the noise source
        (the edge whose production rule wrote ``noise(...)``, or the
        node/edge carrying a noise-annotated attribute).
    :param path: stable label distinguishing multiple sources on one
        element. Terms sharing ``(element, path)`` are driven by the
        *same* Wiener process — a fluctuating parameter referenced by
        several production terms perturbs them coherently.
    """

    state_index: int
    amplitude: E.Expr
    element: str
    path: str

    def stream_key(self) -> tuple[str, str]:
        """The Wiener-process identity of this term."""
        return (self.element, self.path)


def _reduce_terms(terms, reduction: Reduction, context) -> float:
    """Evaluate ``terms`` in ``context`` and fold them with
    ``reduction``, starting from its identity."""
    value = reduction.identity
    if reduction is Reduction.SUM:
        for term in terms:
            value += term.evaluate(context)
    else:
        for term in terms:
            value *= term.evaluate(context)
    return value


class _RhsContext(E.EvalContext):
    """Interpreter evaluation context bound to (t, y) plus the algebraic
    node values computed from them."""

    def __init__(self, system: "OdeSystem"):
        self._system = system
        self._t = 0.0
        self._y: np.ndarray | None = None
        self.algebraic: dict[str, float] = {}

    def bind(self, t: float, y: np.ndarray) -> "_RhsContext":
        """Bind the state and evaluate every algebraic node, in
        dependency order."""
        self._t = t
        self._y = y
        self.algebraic = {}
        for spec in self._system.algebraic:
            self.algebraic[spec.name] = _reduce_terms(
                spec.terms, spec.reduction, self)
        return self

    def time(self) -> float:
        return self._t

    def var(self, node: str) -> float:
        index = self._system.state_index.get((node, 0))
        if index is not None:
            return float(self._y[index])
        if node in self.algebraic:
            return self.algebraic[node]
        raise CompileError(
            f"var({node}) does not name a state or a computed algebraic "
            "node; algebraic dependencies must be evaluated in order")

    def attr(self, kind: str, owner: str, attr: str):
        try:
            return self._system.attr_values[(kind, owner, attr)]
        except KeyError:
            raise CompileError(
                f"unresolved attribute {owner}.{attr}") from None

    def function(self, name: str):
        try:
            return self._system.functions[name]
        except KeyError:
            raise CompileError(f"unknown function {name}") from None


def optimize_terms(terms: tuple[E.Expr, ...], reduction: Reduction,
                   lookup) -> list[E.Expr]:
    """Inline the attribute values ``lookup`` resolves, simplify, and
    drop terms the reduction's identity absorbs (0s in sums, 1s in
    products; a 0 factor collapses a product entirely).

    ``lookup(kind, owner, attr)`` may return ``None`` to keep an
    attribute symbolic — the batched ensemble codegen uses this to
    inline only the values shared across every instance of a batch.
    """
    optimized = [simplify(inline_attributes(term, lookup))
                 for term in terms]
    if reduction is Reduction.SUM:
        return [term for term in optimized
                if not (isinstance(term, E.Const) and term.value == 0.0)]
    if any(isinstance(term, E.Const) and term.value == 0.0
           for term in optimized):
        return [E.Const(0.0)]
    return [term for term in optimized
            if not (isinstance(term, E.Const) and term.value == 1.0)]


def symbolic_signature(states, rhs_specs, algebraic, attr_keys,
                       diffusion) -> tuple:
    """Every part of :meth:`OdeSystem.structural_signature` except the
    function identities: ``(state labels, rhs keys, algebraic keys,
    sorted attribute keys, diffusion keys)``."""
    spec_keys = tuple(
        ("chain", spec.next_index) if isinstance(spec, ChainRhs)
        else ("terms", spec.reduction.value,
              tuple(str(term) for term in spec.terms))
        for spec in rhs_specs)
    algebraic_keys = tuple(
        (spec.name, spec.reduction.value,
         tuple(str(term) for term in spec.terms))
        for spec in algebraic)
    diffusion_keys = tuple(
        (term.state_index, str(term.amplitude), term.element, term.path)
        for term in diffusion)
    return (tuple(state.label for state in states), spec_keys,
            algebraic_keys, tuple(sorted(attr_keys)), diffusion_keys)


class OdeSystem:
    """A compiled dynamical system (see module docstring).

    ``symbolic`` is the compiler's per-structure
    :class:`~repro.core.compiler.SymbolicSystem` this system was
    instantiated from, if any; :meth:`structural_signature` reuses its
    value-free parts instead of recomputing them per instance.
    """

    def __init__(self, graph, language, states: list[StateVar],
                 state_index: dict[tuple[str, int], int],
                 rhs_specs: list[ChainRhs | TermsRhs],
                 algebraic: list[AlgebraicSpec],
                 attr_values: dict[tuple, object],
                 functions: dict[str, object],
                 y0: list[float],
                 diffusion: tuple[DiffusionTerm, ...] = (),
                 symbolic=None):
        self.graph = graph
        self.language = language
        self.states = states
        self.state_index = state_index
        self.rhs_specs = rhs_specs
        self.algebraic = algebraic
        self.attr_values = attr_values
        self.functions = functions
        self.y0 = np.asarray(y0, dtype=float)
        self.diffusion = tuple(diffusion)
        self._compiled_rhs = None
        self._signature = None
        self._symbolic = symbolic

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_labels(self) -> list[str]:
        return [state.label for state in self.states]

    def index_of(self, node: str, deriv: int = 0) -> int:
        try:
            return self.state_index[(node, deriv)]
        except KeyError:
            raise CompileError(
                f"no state for node {node} derivative {deriv}") from None

    @property
    def has_noise(self) -> bool:
        """True when the compiled system carries diffusion terms — i.e.
        it is a stochastic system and :func:`repro.sim.solve_sde` (not a
        deterministic solver) realizes its noise."""
        return bool(self.diffusion)

    def wiener_paths(self) -> list[tuple[str, str]]:
        """Distinct ``(element, path)`` Wiener-process identities, in
        first-appearance order. Several diffusion terms may share one."""
        seen: dict[tuple[str, str], None] = {}
        for term in self.diffusion:
            seen.setdefault(term.stream_key())
        return list(seen)

    def structural_signature(self) -> tuple:
        """A hashable fingerprint of everything about the system *except*
        attribute values and initial conditions.

        Two systems with equal signatures share state layout, production
        terms (with attributes still symbolic), algebraic definitions,
        attribute keys, and function *identities* (object identity, or
        the ``_ark_vector_key`` equivalence tag, so per-seed registered
        closures never silently share one batch) — exactly the
        condition under
        which the batched ensemble engine (:mod:`repro.sim`) can evaluate
        them through one compiled RHS with per-instance attribute arrays.
        Mismatch seeds of the same Ark function invocation always agree;
        different topologies or switch states never do (switched-off
        edges change the compiled production terms).

        The signature is computed once and memoized: everything it
        reads is fixed at compile time, and ensemble grouping plus
        trajectory-cache keying call this per instance per run. A
        compiled system shares its value-free parts with every instance
        of its structure and adds only its function keys.
        """
        if self._signature is not None:
            return self._signature
        if self._symbolic is not None:
            parts = self._symbolic.signature_parts()
        else:
            parts = symbolic_signature(self.states, self.rhs_specs,
                                       self.algebraic, self.attr_values,
                                       self.diffusion)
        labels, spec_keys, algebraic_keys, attr_keys, diffusion_keys = parts
        function_keys = tuple(
            (name, getattr(fn, "_ark_vector_key", None) or id(fn))
            for name, fn in sorted(self.functions.items()))
        self._signature = (labels, spec_keys, algebraic_keys, attr_keys,
                           function_keys, diffusion_keys)
        return self._signature

    def with_stream_keys(self, stream_keys) -> "OdeSystem":
        """A copy of the system whose ``k``-th diffusion term draws the
        Wiener process ``stream_keys[k]``, an ``(element, path)`` pair
        (see :meth:`DiffusionTerm.stream_key`); everything else is
        shared. The copy's structural signature is this one's with
        only those stream identities rewritten, so no expression is
        rendered again."""
        stream_keys = [tuple(key) for key in stream_keys]
        if len(stream_keys) != len(self.diffusion):
            raise ValueError(
                f"{len(stream_keys)} stream keys for "
                f"{len(self.diffusion)} diffusion terms")
        signature = self.structural_signature()
        clone = OdeSystem(
            self.graph, self.language, self.states, self.state_index,
            self.rhs_specs, self.algebraic, self.attr_values,
            self.functions, self.y0,
            diffusion=tuple(replace(term, element=element, path=path)
                            for term, (element, path)
                            in zip(self.diffusion, stream_keys)))
        clone._signature = signature[:5] + (tuple(
            key[:2] + stream_key
            for key, stream_key in zip(signature[5], stream_keys)),)
        return clone

    def equations(self) -> list[str]:
        """Human-readable rendering of the compiled system, e.g. for
        documentation, debugging, and the quickstart example."""
        lines: list[str] = []
        for spec in self.algebraic:
            joiner = " + " if spec.reduction is Reduction.SUM else " * "
            body = joiner.join(str(t) for t in spec.terms) or \
                repr(spec.reduction.identity)
            lines.append(f"{spec.name} = {body}")
        for state, spec in zip(self.states, self.rhs_specs):
            if isinstance(spec, ChainRhs):
                target = self.states[spec.next_index].label
                lines.append(f"d {state.label}/dt = {target}")
            else:
                joiner = " + " if spec.reduction is Reduction.SUM \
                    else " * "
                body = joiner.join(str(t) for t in spec.terms) or \
                    repr(spec.reduction.identity)
                lines.append(f"d {state.label}/dt = {body}")
        for term in self.diffusion:
            label = self.states[term.state_index].label
            lines.append(f"d {label} += {term.amplitude} "
                         f"dW[{term.element}/{term.path}]")
        return lines

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def rhs(self, backend: str = "codegen"):
        """The right-hand side ``rhs(t, y) -> dy`` through ``backend``:
        ``codegen`` (default; the compiled one-row kernel, memoized) or
        ``interpreter`` (the tree walk)."""
        if backend == "codegen":
            if self._compiled_rhs is None:
                from repro.sim.batch_codegen import compile_row
                self._compiled_rhs = compile_row(self)
            return self._compiled_rhs
        if backend == "interpreter":
            return self.rhs_interpreted()
        raise CompileError(f"unknown RHS backend {backend!r}")

    def rhs_interpreted(self):
        """Right-hand side evaluated by walking the expression trees."""
        context = _RhsContext(self)
        specs = self.rhs_specs
        n = self.n_states

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            context.bind(t, y)
            dy = np.empty(n)
            for index, spec in enumerate(specs):
                if isinstance(spec, ChainRhs):
                    dy[index] = y[spec.next_index]
                else:
                    dy[index] = _reduce_terms(spec.terms, spec.reduction,
                                              context)
            return dy

        return rhs

    def diffusion_values(self, t: float, y: np.ndarray) -> np.ndarray:
        """Interpret every diffusion amplitude at one state — the
        reference (unvectorized) evaluation the batched SDE codegen is
        cross-checked against. Returns one value per diffusion term."""
        context = _RhsContext(self).bind(t, np.asarray(y, dtype=float))
        return np.array([term.amplitude.evaluate(context)
                         for term in self.diffusion], dtype=float)

    def algebraic_values(self, t: float, y: np.ndarray) -> dict[str, float]:
        """Evaluate the order-0 node values at a given state — used to
        read outputs such as CNN ``Out`` nodes from trajectories."""
        return _RhsContext(self).bind(t, np.asarray(y, dtype=float)
                                      ).algebraic

    def __repr__(self) -> str:
        return (f"<OdeSystem {self.graph.name} states={self.n_states} "
                f"algebraic={len(self.algebraic)}>")
