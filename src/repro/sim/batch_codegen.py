"""Batched RHS code generation for Monte-Carlo ensembles.

The serial codegen backend (:meth:`repro.core.odesystem.OdeSystem.
rhs_codegen`) inlines every attribute value as a constant, so N mismatch
seeds need N compiled functions and N solver runs. This module extends
that scheme to a whole *batch* of structurally identical systems: one
flat function evaluates an ``(n_instances, n_states)`` state matrix in a
single NumPy pass, with per-instance attribute values stacked as
``(n_instances,)`` constant arrays.

Lowering rules (vs. the serial codegen):

* ``var(x)``        -> ``y[:, i]`` (a column of the batch state matrix);
* attributes whose value is *shared* by every instance are inlined as
  constants and participate in simplification (zero-weight terms still
  fold away); per-instance numeric attributes become ``(n_instances,)``
  arrays in the namespace;
* builtin math functions are swapped for their NumPy ufuncs; unknown
  functions are probed and wrapped elementwise only if they reject
  arrays;
* ``if/and/or/not`` lower to ``numpy.where``/``logical_*`` because the
  Python forms are ambiguous on arrays.

Broadcasting keeps scalars (e.g. an all-constant source term) valid
wherever an ``(n_instances,)`` array is expected, so a batch of size one
compiles to the same code — :class:`~repro.core.simulator.Trajectory`
reuses it with *time* as the batch axis to vectorize algebraic-node
readout.

A batch runs at one precision, float64 (the default) or float32 (see
:func:`array_dtype`): attribute/coefficient arrays are built in float64
and cast to the batch's dtype before ``exec``, and compiled code objects
are cached by source. Kernels fill preallocated ``dy``/``out`` buffers
in place, and the emitted source does not depend on the precision.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro import telemetry
from repro.core import expr as E
from repro.core.odesystem import ChainRhs, OdeSystem, optimize_terms
from repro.core.types import Reduction
from repro.errors import CompileError, SimulationError

#: NumPy counterparts of the scalar builtins in
#: :data:`repro.core.expr.BUILTIN_FUNCTIONS`. Only used when the
#: registered function *is* the builtin — a language that shadows a name
#: keeps its own (auto-wrapped) implementation.
VECTOR_FUNCTIONS: dict[str, object] = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "ln": np.log, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "tanh": np.tanh, "sgn": np.sign, "min": np.minimum,
    "max": np.maximum, "pow": np.power,
}


class _AutoVector:
    """Wrap a scalar function so it also accepts arrays.

    The wrapped function is first called directly — many pure-math
    helpers (e.g. the CNN ``sat``) already broadcast. Functions that
    reject arrays (piecewise definitions raising the ambiguous-truth
    ``ValueError``, ``math``-module calls raising ``TypeError``) are
    transparently rerouted through :func:`numpy.vectorize`.
    """

    def __init__(self, fn):
        self._fn = fn
        self._vectorized = None

    def __call__(self, *args):
        if self._vectorized is None:
            if not any(isinstance(a, np.ndarray) and a.ndim for a in args):
                return self._fn(*args)
            try:
                return self._fn(*args)
            except (TypeError, ValueError):
                self._vectorized = np.vectorize(self._fn, otypes=[float])
        return self._vectorized(*args)


class _PerInstanceFn:
    """A callable attribute whose value differs across the batch: invoke
    each instance's callable with that instance's row of any array
    argument (scalars, e.g. the shared time, pass through)."""

    def __init__(self, fns):
        self._fns = tuple(fns)

    def __call__(self, *args):
        out = np.empty(len(self._fns))
        for index, fn in enumerate(self._fns):
            row = [arg[index] if isinstance(arg, np.ndarray) and arg.ndim
                   else arg for arg in args]
            out[index] = fn(*row)
        return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) \
        and not isinstance(value, bool)


def _shared_lookup(systems: list[OdeSystem]):
    """Attribute lookup resolving only values numerically identical in
    every instance — those are safe to inline and simplify against."""

    def lookup(kind, owner, attr):
        key = (kind, owner, attr)
        first = systems[0].attr_values.get(key)
        if not _is_number(first):
            return None
        for system in systems[1:]:
            value = system.attr_values.get(key)
            if not _is_number(value) or float(value) != float(first):
                return None
        return first

    return lookup


class _BatchCodegen(E.CodegenContext):
    """Codegen context for the batched backend: states to ``y[:, i]``,
    shared attributes inlined, per-instance attributes to namespace
    arrays, control flow to elementwise NumPy."""

    def __init__(self, systems: list[OdeSystem],
                 namespace: dict[str, object]):
        self._systems = systems
        self._namespace = namespace
        self._alg_names: dict[str, str] = {}
        self._attr_slots: dict[tuple, str] = {}

    def register_algebraic(self, node: str) -> str:
        local = f"_alg_{len(self._alg_names)}"
        self._alg_names[node] = local
        return local

    def var_source(self, node: str) -> str:
        index = self._systems[0].state_index.get((node, 0))
        if index is not None:
            return f"y[:, {index}]"
        if node in self._alg_names:
            return self._alg_names[node]
        raise CompileError(f"batch codegen: var({node}) is neither a "
                           "state nor an algebraic node")

    def attr_source(self, kind: str, owner: str, attr: str) -> str:
        key = (kind, owner, attr)
        if key in self._attr_slots:
            return self._attr_slots[key]
        try:
            values = [system.attr_values[key]
                      for system in self._systems]
        except KeyError:
            raise CompileError(
                f"batch codegen: unresolved attribute {owner}.{attr}"
            ) from None
        first = values[0]
        if all(_is_number(v) for v in values):
            if all(float(v) == float(first) for v in values):
                return repr(float(first))
            name = f"_attr_{len(self._attr_slots)}"
            self._namespace[name] = np.array([float(v) for v in values])
        elif all(callable(v) for v in values):
            name = f"_attr_{len(self._attr_slots)}"
            vector_key = getattr(first, "_ark_vector_key", None)
            if all(v is first for v in values) or (
                    vector_key is not None
                    and all(getattr(v, "_ark_vector_key", None)
                            == vector_key for v in values)):
                # Identical objects, or callables tagged as
                # interchangeable (equal `_ark_vector_key`): one shared
                # callable serves the whole batch.
                self._namespace[name] = _AutoVector(first)
            else:
                self._namespace[name] = _PerInstanceFn(values)
        else:
            raise CompileError(
                f"batch codegen: attribute {owner}.{attr} mixes value "
                "kinds across the batch")
        self._attr_slots[key] = name
        return name

    def function_source(self, name: str) -> str:
        alias = f"_fn_{name}"
        if alias not in self._namespace:
            try:
                fn = self._systems[0].functions[name]
            except KeyError:
                raise CompileError(
                    f"batch codegen: unknown function {name}") from None
            vector = VECTOR_FUNCTIONS.get(name)
            if vector is not None and fn is E.BUILTIN_FUNCTIONS.get(name):
                self._namespace[alias] = vector
            else:
                self._namespace[alias] = _AutoVector(fn)
        return alias

    def ifexp_source(self, cond: str, then: str, orelse: str) -> str:
        return f"_np.where({cond}, {then}, {orelse})"

    def boolop_source(self, op: str, left: str, right: str) -> str:
        fn = "logical_and" if op == "and" else "logical_or"
        return f"_np.{fn}({left}, {right})"

    def not_source(self, operand: str) -> str:
        return f"_np.logical_not({operand})"


class _NotConst(Exception):
    """Raised when an expression is not a compile-time per-instance
    constant (it reads states, time, names, or non-numeric attributes)."""


class _AttrEval(E.EvalContext):
    """Evaluate a state/time-independent expression against one
    instance's numeric attribute values; anything else aborts the
    attempt (the term stays on the per-line emission path)."""

    def __init__(self, system: OdeSystem):
        self._system = system

    def attr(self, kind, owner, attr):
        value = self._system.attr_values.get((kind, owner, attr))
        if not _is_number(value):
            raise _NotConst()
        return float(value)

    def time(self):
        raise _NotConst()

    def var(self, node):
        raise _NotConst()

    def name(self, name):
        raise _NotConst()

    def function(self, name):
        raise _NotConst()


def _const_values(expr: E.Expr, systems: list[OdeSystem]):
    """Evaluate a per-instance compile-time constant: a scalar when the
    value is shared, else an ``(n_instances,)`` array. Raises
    :class:`_NotConst` when the expression is not constant (or its
    evaluation fails — such terms keep their runtime semantics)."""
    out = np.empty(len(systems))
    for row, system in enumerate(systems):
        try:
            out[row] = expr.evaluate(_AttrEval(system))
        except _NotConst:
            raise
        except Exception:
            raise _NotConst() from None
    if not np.all(np.isfinite(out)):
        raise _NotConst()
    if np.all(out == out[0]):
        return float(out[0])
    return out


#: Affine-decomposition piece tags (see :func:`_term_pieces`).
_LIN, _CONST, _RES = 0, 1, 2


def _scale_pieces(pieces: list, factor):
    """Multiply every decomposition piece by a constant factor (a float
    or an ``(n_instances,)`` array)."""
    scaled = []
    for piece in pieces:
        if piece[0] == _LIN:
            scaled.append((_LIN, piece[1], piece[2] * factor))
        elif piece[0] == _CONST:
            scaled.append((_CONST, piece[1] * factor))
        else:
            scale = factor if piece[2] is None else piece[2] * factor
            scaled.append((_RES, piece[1], scale))
    return scaled


def _term_pieces(expr: E.Expr, systems: list[OdeSystem],
                 state_index: dict) -> list:
    """Decompose one SUM-reduction term into affine pieces.

    Returns a list of:

    * ``(_LIN, state, coeff)`` — ``coeff * y[:, state]`` with a
      compile-time per-instance coefficient;
    * ``(_CONST, value)`` — a state/time-independent constant
      contribution;
    * ``(_RES, expr, scale)`` — a residual subexpression that must stay
      on the per-line emission path, optionally pre-multiplied by a
      constant ``scale`` hoisted from an enclosing product.

    Sums are recursed into and products/quotients distribute constant
    factors over the decomposition, so e.g. ``(g/C) * (in(t) - var(x))``
    yields one fused linear piece and one residual source term.
    """
    if isinstance(expr, E.VarOf):
        index = state_index.get((expr.node, 0))
        if index is not None:
            return [(_LIN, index, 1.0)]
        return [(_RES, expr, None)]
    if isinstance(expr, E.UnOp):
        return _scale_pieces(
            _term_pieces(expr.operand, systems, state_index), -1.0)
    if isinstance(expr, E.BinOp):
        if expr.op == "+":
            return (_term_pieces(expr.left, systems, state_index)
                    + _term_pieces(expr.right, systems, state_index))
        if expr.op == "-":
            return (_term_pieces(expr.left, systems, state_index)
                    + _scale_pieces(
                        _term_pieces(expr.right, systems, state_index),
                        -1.0))
        if expr.op == "*":
            for const_side, other in ((expr.left, expr.right),
                                      (expr.right, expr.left)):
                try:
                    factor = _const_values(const_side, systems)
                except _NotConst:
                    continue
                return _scale_pieces(
                    _term_pieces(other, systems, state_index), factor)
        if expr.op == "/":
            try:
                factor = _const_values(expr.right, systems)
                reciprocal = 1.0 / factor
                if not np.all(np.isfinite(np.atleast_1d(reciprocal))):
                    raise _NotConst()
            except (_NotConst, ZeroDivisionError):
                pass
            else:
                return _scale_pieces(
                    _term_pieces(expr.left, systems, state_index),
                    reciprocal)
    try:
        return [(_CONST, _const_values(expr, systems))]
    except _NotConst:
        return [(_RES, expr, None)]


#: Largest dense ``(n_instances, n_states, n_states)`` coefficient
#: tensor the fused emitter will allocate (in doubles). Bigger systems
#: (e.g. 64x64 CNN grids) keep the per-line emission, whose cost scales
#: with the term count instead of n_states**2.
FUSE_DENSE_LIMIT = 1 << 22


def surviving_diffusion(systems: list[OdeSystem]):
    """The lead system's diffusion terms that survive shared-value
    simplification, paired with their optimized amplitude expressions.

    An amplitude that folds to the constant 0 for every instance (e.g.
    a noise annotation with the shared sigma attribute set to 0) drops
    out of the emitted diffusion function entirely — zero-noise batches
    compile to plain deterministic systems."""
    lookup = _shared_lookup(systems)
    survivors = []
    for term in systems[0].diffusion:
        optimized = optimize_terms((term.amplitude,), Reduction.SUM,
                                   lookup)
        if optimized:
            survivors.append((term, optimized[0]))
    return survivors


def _fused_rhs_lines(systems: list[OdeSystem], namespace: dict,
                     codegen: "_BatchCodegen",
                     lookup) -> list[str] | None:
    """Body of the fused ``_rhs``: every affine contribution of every
    SUM-reduction (and chain) line stacked into one per-instance
    coefficient tensor driven by a single batched matmul, with only the
    non-fusible residue emitted per line.

    Returns ``None`` when fusion is not worthwhile — fewer than two
    per-line statements would be eliminated, or the dense tensor would
    exceed :data:`FUSE_DENSE_LIMIT` — in which case the caller keeps the
    classic per-line emission.
    """
    lead = systems[0]
    n, s = len(systems), len(lead.rhs_specs)
    if n * s * s > FUSE_DENSE_LIMIT:
        return None
    matrix = np.zeros((n, s, s))
    constant = np.zeros((n, s))
    use_constant = False
    residual_rows: list[tuple[int, list]] = []
    product_rows: list[tuple[int, list]] = []
    eliminated = 0
    for index, spec in enumerate(lead.rhs_specs):
        if isinstance(spec, ChainRhs):
            matrix[:, index, spec.next_index] = 1.0
            eliminated += 1
            continue
        terms = optimize_terms(spec.terms, spec.reduction, lookup)
        if spec.reduction is not Reduction.SUM:
            product_rows.append((index, terms))
            continue
        residuals: list = []
        for term in terms:
            for piece in _term_pieces(term, systems, lead.state_index):
                if piece[0] == _LIN:
                    matrix[:, index, piece[1]] += piece[2]
                elif piece[0] == _CONST:
                    constant[:, index] += piece[1]
                    use_constant = True
                else:
                    residuals.append(piece)
        if residuals:
            residual_rows.append((index, residuals))
        else:
            eliminated += 1
    if eliminated < 2:
        return None
    namespace["_lin_A"] = matrix
    fused = "(_lin_A @ y[:, :, None])[:, :, 0]"
    if use_constant:
        namespace["_lin_c"] = constant
        fused += " + _lin_c"
    lines = [f"    dy[:, :] = {fused}"]
    scale_slots = 0
    for index, residuals in residual_rows:
        fragments = []
        for _tag, expr, scale in residuals:
            source = E.to_python(expr, codegen)
            if isinstance(scale, np.ndarray):
                name = f"_res_scale_{scale_slots}"
                scale_slots += 1
                namespace[name] = scale
                source = f"{name} * {source}"
            elif scale is not None:
                source = f"{repr(float(scale))} * {source}"
            fragments.append(source)
        joined = " + ".join(fragments)
        lines.append(f"    dy[:, {index}] += {joined}")
    for index, terms in product_rows:
        body = " * ".join(E.to_python(term, codegen)
                          for term in terms) or \
            repr(Reduction.MUL.identity)
        lines.append(f"    dy[:, {index}] = {body}")
    return lines


#: Kernel cache: compiled code objects keyed by their emitted source.
#: Re-batching the same structural group (reference solves, cache-miss
#: reruns, and above all the persistent pool workers, which rebuild a
#: BatchRhs per shard task) re-emits a byte-identical source; caching
#: the ``compile()`` step means each batched RHS source is compiled at
#: most once per process. Only the code object is shared — ``exec``
#: still runs per batch, because the namespace carries the per-instance
#: attribute arrays.
_CODE_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_CODE_CACHE_MAX = 128


def _compile_source(source: str, filename: str):
    key = (source, filename)
    code = _CODE_CACHE.get(key)
    if code is None:
        telemetry.add("codegen.kernel_cache_misses")
        code = compile(source, filename, "exec")
        _CODE_CACHE[key] = code
        while len(_CODE_CACHE) > _CODE_CACHE_MAX:
            _CODE_CACHE.popitem(last=False)
    else:
        telemetry.add("codegen.kernel_cache_hits")
        _CODE_CACHE.move_to_end(key)
    return code


def generate_batch_source(systems: list[OdeSystem],
                          namespace: dict[str, object],
                          survivors=None, fuse: bool = True) -> str:
    """Emit the source of the batched RHS (``_rhs``), the batched
    algebraic-readout function (``_alg``), and — for stochastic systems
    — the batched diffusion-amplitude function (``_dif``) for a
    structurally compatible batch. All take ``y`` of shape
    ``(n_instances, n_states)``; ``_dif`` fills ``out`` of shape
    ``(n_instances, n_diffusion_terms)``.

    With ``fuse`` (the default) the SUM-reduction and chain lines whose
    terms are affine in the states — with compile-time per-instance
    coefficients — collapse into one batched matmul against a stacked
    ``(n_instances, n_states, n_states)`` coefficient tensor, cutting
    the per-step NumPy dispatch from one-per-term to one-per-residual;
    non-fusible terms (nonlinear, time-dependent, callable-attribute)
    keep the per-line emission. ``fuse=False`` restores the pure
    per-line emitter.

    ``survivors`` is a precomputed :func:`surviving_diffusion` result;
    pass it when the caller also needs the diffusion layout (as
    :class:`BatchRhs` does) so the shared-value pass runs once."""
    lead = systems[0]
    codegen = _BatchCodegen(systems, namespace)
    lookup = _shared_lookup(systems)

    algebraic_lines: list[str] = []
    for spec in lead.algebraic:
        local = codegen.register_algebraic(spec.name)
        joiner = " + " if spec.reduction is Reduction.SUM else " * "
        terms = optimize_terms(spec.terms, spec.reduction, lookup)
        body = joiner.join(E.to_python(term, codegen)
                           for term in terms) or \
            repr(spec.reduction.identity)
        algebraic_lines.append(f"    {local} = {body}")

    fused_lines = _fused_rhs_lines(systems, namespace, codegen,
                                   lookup) if fuse else None
    lines = ["def _rhs(t, y, dy):"]
    lines.extend(algebraic_lines)
    if fused_lines is not None:
        lines.extend(fused_lines)
    else:
        for index, spec in enumerate(lead.rhs_specs):
            if isinstance(spec, ChainRhs):
                body = f"y[:, {spec.next_index}]"
            else:
                joiner = " + " if spec.reduction is Reduction.SUM \
                    else " * "
                terms = optimize_terms(spec.terms, spec.reduction,
                                       lookup)
                body = joiner.join(E.to_python(term, codegen)
                                   for term in terms) or \
                    repr(spec.reduction.identity)
            lines.append(f"    dy[:, {index}] = {body}")
    lines.append("    return dy")

    lines.append("")
    lines.append("def _alg(t, y):")
    lines.extend(algebraic_lines)
    mapping = ", ".join(
        f"{spec.name!r}: {codegen._alg_names[spec.name]}"
        for spec in lead.algebraic)
    lines.append("    return {%s}" % mapping)

    if survivors is None:
        survivors = surviving_diffusion(systems)
    if survivors:
        lines.append("")
        lines.append("def _dif(t, y, out):")
        lines.extend(algebraic_lines)
        for column, (_term, amplitude) in enumerate(survivors):
            body = E.to_python(amplitude, codegen)
            lines.append(f"    out[:, {column}] = {body}")
        lines.append("    return out")
    return "\n".join(lines)


class BatchRhs:
    """A compiled batched right-hand side: one function, N instances.

    Use :func:`compile_batch` to construct one; it raises
    :class:`~repro.errors.SimulationError` when the systems are not
    structurally compatible (see
    :meth:`~repro.core.odesystem.OdeSystem.structural_signature`).
    """

    def __init__(self, systems: list[OdeSystem], fuse: bool = True,
                 array_backend=None):
        if not systems:
            raise SimulationError("cannot batch an empty system list")
        signature = systems[0].structural_signature()
        for system in systems[1:]:
            if system.structural_signature() != signature:
                raise SimulationError(
                    f"systems {systems[0].graph.name} and "
                    f"{system.graph.name} are not structurally "
                    "compatible; use the serial path or group by "
                    "structural_signature()")
        self.systems = list(systems)
        #: The precision the solvers integrate this batch at (see
        #: :func:`array_dtype`).
        self.dtype = array_dtype(array_backend)
        namespace: dict[str, object] = {"_np": np}
        survivors = surviving_diffusion(self.systems)
        self.source = generate_batch_source(
            self.systems, namespace, survivors=survivors, fuse=fuse)
        #: True when the emitted RHS drives a fused coefficient matmul.
        self.fused = "_lin_A" in namespace
        telemetry.add("codegen.batch_compiles")
        telemetry.add("codegen.fused_rhs" if self.fused
                      else "codegen.unfused_rhs")
        # Residual ``dy[:, i] +=`` stores are what the fuser could not
        # fold into the matmul — their count is the per-step dispatch
        # cost the fused path still pays.
        telemetry.add("codegen.residual_lines",
                      self.source.count("dy[:, ") - 1
                      if self.fused else self.source.count("dy[:, "))
        # Constant tensors (per-instance attributes, fused coefficients,
        # residual scales) are built in float64 and cast to the batch's
        # dtype here; at float64 the cast is the identity.
        self._cast_arrays(namespace)
        exec(_compile_source(self.source,
                             f"<ark-batch:{systems[0].graph.name}>"),
             namespace)
        self._rhs_inner = namespace["_rhs"]
        self._alg_inner = namespace["_alg"]
        self._dif_inner = namespace.get("_dif")
        #: Diffusion terms that survived shared-value folding (see
        #: :func:`surviving_diffusion`); column order of ``diffusion``.
        self.diffusion_terms = [term for term, _amp in survivors]
        # Survivor amplitudes kept for the lazily compiled Milstein
        # derivative kernel (most solves never ask for it).
        self._survivor_amplitudes = [amp for _term, amp in survivors]
        self._dif_prime_inner = None
        self._dif_prime_done = False
        self._milstein_trivial = True
        #: Distinct Wiener-process identities, first-appearance order.
        self.wiener_paths: list[tuple[str, str]] = []
        path_index: dict[tuple[str, str], int] = {}
        for term in self.diffusion_terms:
            key = term.stream_key()
            if key not in path_index:
                path_index[key] = len(self.wiener_paths)
                self.wiener_paths.append(key)
        #: Per diffusion column: index of its Wiener path / target state.
        self.term_path_index = np.array(
            [path_index[term.stream_key()]
             for term in self.diffusion_terms], dtype=int)
        self.term_state_index = np.array(
            [term.state_index for term in self.diffusion_terms],
            dtype=int)

    def _cast_arrays(self, namespace: dict) -> None:
        for slot, value in list(namespace.items()):
            if isinstance(value, np.ndarray):
                namespace[slot] = np.asarray(value, dtype=self.dtype)

    @property
    def n_instances(self) -> int:
        return len(self.systems)

    @property
    def n_states(self) -> int:
        return self.systems[0].n_states

    @property
    def has_noise(self) -> bool:
        """True when the compiled batch carries live diffusion terms."""
        return self._dif_inner is not None

    def diffusion(self, t: float, y: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate every diffusion amplitude for the whole batch:
        result shape ``(n_instances, len(diffusion_terms))``."""
        if self._dif_inner is None:
            raise SimulationError(
                f"batch {self.systems[0].graph.name} has no diffusion "
                "terms; integrate it with a deterministic solver")
        if out is None:
            out = np.empty((y.shape[0], len(self.diffusion_terms)),
                           dtype=self.dtype)
        return self._dif_inner(t, y, out)

    def _ensure_dif_prime(self):
        """Lazily differentiate and compile the diagonal diffusion
        derivative ``∂b_k/∂y_{target(k)}`` (one column per surviving
        term). A separate source/namespace from the main kernels, so
        the bytes of every pre-existing emission stay untouched; only
        the Milstein method pays the extra compile."""
        if self._dif_prime_done:
            return
        self._dif_prime_done = True
        lead = self.systems[0]
        lookup = _shared_lookup(self.systems)
        node_of_index = {index: name
                         for (name, deriv), index in
                         lead.state_index.items() if deriv == 0}
        derivatives: list = []
        for term, amplitude in zip(self.diffusion_terms,
                                   self._survivor_amplitudes):
            for name in E.referenced_vars(amplitude):
                if (name, 0) not in lead.state_index:
                    raise CompileError(
                        f"milstein: diffusion amplitude {amplitude} "
                        f"reads algebraic node {name}; its state "
                        "dependence is not differentiable at compile "
                        "time — use an em/heun SDE method")
            target = node_of_index.get(term.state_index)
            derivative = (E.differentiate(amplitude, target)
                          if target is not None else E.Const(0.0))
            optimized = optimize_terms((derivative,), Reduction.SUM,
                                       lookup)
            derivatives.append(optimized[0] if optimized else None)
        if all(derivative is None for derivative in derivatives):
            # Additive noise everywhere: the correction is identically
            # zero and ``milstein`` degenerates to ``em`` exactly.
            return
        self._milstein_trivial = False
        namespace: dict[str, object] = {"_np": np}
        codegen = _BatchCodegen(self.systems, namespace)
        lines = ["def _dif_prime(t, y, out):"]
        for column, derivative in enumerate(derivatives):
            body = ("0.0" if derivative is None
                    else E.to_python(derivative, codegen))
            lines.append(f"    out[:, {column}] = {body}")
        lines.append("    return out")
        source = "\n".join(lines)
        telemetry.add("codegen.dif_prime_compiles")
        self._cast_arrays(namespace)
        exec(_compile_source(
            source, f"<ark-batch-dprime:{lead.graph.name}>"), namespace)
        self._dif_prime_inner = namespace["_dif_prime"]

    @property
    def milstein_trivial(self) -> bool:
        """True when every surviving diffusion amplitude is
        state-independent (additive noise): the Milstein correction is
        identically zero and ``milstein`` reproduces ``em`` bit for
        bit. Raises :class:`~repro.errors.CompileError` when an
        amplitude is state-dependent in a non-differentiable way."""
        self._ensure_dif_prime()
        return self._milstein_trivial

    def diffusion_derivative(self, t: float, y: np.ndarray,
                             out: np.ndarray | None = None
                             ) -> np.ndarray:
        """Evaluate ``∂b_k/∂y_{target(k)}`` for every surviving
        diffusion term: shape ``(n_instances, len(diffusion_terms))``.
        Zero columns (additive terms) are emitted as constants; a batch
        whose correction is identically zero (see
        :attr:`milstein_trivial`) returns zeros without compiling a
        kernel."""
        if self._dif_inner is None:
            raise SimulationError(
                f"batch {self.systems[0].graph.name} has no diffusion "
                "terms; there is nothing to differentiate")
        self._ensure_dif_prime()
        shape = (y.shape[0], len(self.diffusion_terms))
        if self._dif_prime_inner is None:
            return np.zeros(shape, dtype=self.dtype)
        if out is None:
            out = np.empty(shape, dtype=self.dtype)
        return self._dif_prime_inner(t, y, out)

    @property
    def y0(self) -> np.ndarray:
        """Stacked initial states, shape (n_instances, n_states), at the
        batch's dtype."""
        return np.asarray(np.stack([system.y0 for system in self.systems]),
                          dtype=self.dtype)

    def __call__(self, t: float, y: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the batched RHS; ``y`` and the result have shape
        ``(n_instances, n_states)``."""
        if out is None:
            out = np.empty_like(y)
        return self._rhs_inner(t, y, out)

    def algebraic_values(self, t, y: np.ndarray) -> dict[str, np.ndarray]:
        """Order-0 node values for the whole batch, each broadcast to
        ``(n_instances,)`` (or to ``len(y)`` when another axis — e.g.
        time — plays the batch role). Always float64."""
        values = self._alg_inner(t, y)
        n = y.shape[0]
        return {name: np.broadcast_to(np.asarray(value, dtype=float),
                                      (n,)).copy()
                for name, value in values.items()}

    def __repr__(self) -> str:
        return (f"<BatchRhs {self.systems[0].graph.name} "
                f"instances={self.n_instances} states={self.n_states}>")


def compile_batch(systems: list[OdeSystem], fuse: bool = True,
                  array_backend=None) -> BatchRhs:
    """Compile a structurally compatible batch of systems into one
    vectorized RHS. ``fuse`` enables the fused affine emitter (see
    :func:`generate_batch_source`); ``array_backend`` is the precision
    the batch is integrated at (see :func:`array_dtype`)."""
    return BatchRhs(list(systems), fuse=fuse, array_backend=array_backend)


#: The ``array_backend`` spellings and the precision each names.
_PRECISIONS = {None: np.dtype(np.float64), "numpy": np.dtype(np.float64),
               "numpy:float64": np.dtype(np.float64),
               "numpy:float32": np.dtype(np.float32)}


def array_dtype(array_backend=None) -> np.dtype:
    """The numpy dtype an ``array_backend`` option names: ``None`` or
    ``"numpy"`` (float64, the default), ``"numpy:float64"`` or
    ``"numpy:float32"``. Anything else raises
    :class:`~repro.errors.SimulationError` listing those spellings —
    the solvers' error control and the cache's key hashing are only
    specified for these two precisions."""
    try:
        return _PRECISIONS[array_backend]
    except (KeyError, TypeError):
        raise SimulationError(
            f"unknown array backend {array_backend!r}; expected "
            "numpy, numpy:float64 or numpy:float32") from None


def canonical_spec(array_backend=None) -> str:
    """The canonical ``"numpy:<dtype>"`` spelling of an
    ``array_backend`` option. Plan options, worker payloads and cache
    keys carry it, so every spelling of the default shares one cache
    entry while float32 gets its own."""
    return f"numpy:{array_dtype(array_backend).name}"


def group_by_signature(systems: list[OdeSystem]) -> list[list[int]]:
    """Partition system indices into structurally compatible groups,
    preserving first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for index, system in enumerate(systems):
        groups.setdefault(system.structural_signature(), []).append(index)
    return list(groups.values())
