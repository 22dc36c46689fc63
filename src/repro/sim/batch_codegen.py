"""Code generation for compiled RHS kernels: one emitter, two layouts.

Every compiled right-hand side in the repository comes from this
module. The emitter lowers an :class:`~repro.core.odesystem.OdeSystem`'s
expression trees after the shared :func:`~repro.core.odesystem.
optimize_terms` pass (numeric attributes inlined where possible,
constant folding, identity-absorbed terms dropped). Who calls picks the
layout:

* **rows** — a list of structurally identical systems (a Monte-Carlo
  batch, :func:`compile_batch`). One flat function evaluates an
  ``(n_instances, n_states)`` state matrix in a single NumPy pass, with
  per-instance attribute values stacked as ``(n_instances,)`` constant
  arrays;
* **one row** — a single system (:func:`compile_row`, the kernel behind
  ``OdeSystem.rhs("codegen")`` and every serial scipy solve). ``y`` has
  shape ``(n_states,)`` and the code is scalar Python.

Lowering rules of the rows layout:

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

The one-row layout differs only where arrays would cost more than they
buy on a single state vector (the rows kernel at n=1 is ~10x slower per
call on a 4-oscillator OBC network or a 12x12 CNN): ``var(x)`` ->
``y[i]``; every numeric attribute is inlined (one system shares all its
values with itself); registered functions and callable attributes are
called directly, with no ufunc swap or elementwise wrapper;
``if/and/or/not`` keep their Python forms. Both layouts fuse the affine
part of the system into one sparse product under the same rule (at
least two lines eliminated): each line's affine entries, in ascending
state order, fill per-slot value arrays, and the kernel sums one
elementwise gather per slot — ``_acc = _lin_val0 * y[_lin_col0]``,
then ``+=`` for each further slot (the rows layout gathers from the
transposed state, see :func:`_fused_rhs_lines`). Memory is linear in
the number of instances and entries, no kernel calls BLAS, and a fused
row's result depends only on IEEE elementwise order, never on its
batch-mates. Systems with nothing to fuse keep per-line code.

Broadcasting keeps scalars (e.g. an all-constant source term) valid
wherever an ``(n_instances,)`` array is expected, so a batch of size one
compiles to the same rows code — :class:`~repro.core.simulator.
Trajectory` reuses it with *time* as the batch axis to vectorize
algebraic-node readout.

A batch runs at one precision, float64 (the default) or float32 (see
:func:`array_dtype`): attribute/coefficient arrays are built in float64
with the instance axis last and cast to the batch's dtype before
``exec``, and compiled rows code objects are cached by source. Kernels
fill preallocated ``dy``/``out`` buffers in place, and the emitted
source does not depend on the precision. One-row kernels run at
float64 and compile outside the cache: their inlined per-seed constants
make every source unique.
"""

from __future__ import annotations

import math
import re
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


def _breakpoints(values) -> tuple[float, ...]:
    """The sorted union of the ``_ark_breakpoints`` tags of the callable
    attributes among a kernel namespace's ``values``."""
    points = set()
    for value in values:
        if isinstance(value, _AutoVector):
            fns = (value._fn,)
        elif isinstance(value, _PerInstanceFn):
            fns = value._fns
        else:
            continue
        for fn in fns:
            points.update(getattr(fn, "_ark_breakpoints", ()))
    return tuple(sorted(map(float, points)))


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) \
        and not isinstance(value, bool)


def _shared_lookup(systems: list[OdeSystem]):
    """Attribute lookup resolving only values numerically identical in
    every instance — those are safe to inline and simplify against."""

    values = systems[0].attr_values
    rest = [system.attr_values for system in systems[1:]]

    def lookup(kind, owner, attr):
        key = (kind, owner, attr)
        first = values.get(key)
        if not _is_number(first):
            return None
        for other in rest:
            value = other.get(key)
            if not _is_number(value) or float(value) != float(first):
                return None
        return first

    return lookup


class _BatchCodegen(E.CodegenContext):
    """Codegen context of both layouts (see the module docstring).
    Rows: states to ``y[:, i]``, shared attributes inlined, per-instance
    attributes to namespace arrays, control flow to elementwise NumPy.
    One row: states to ``y[i]``, plain Python calls and control flow."""

    def __init__(self, systems: list[OdeSystem],
                 namespace: dict[str, object], rows: bool):
        self._systems = systems
        self._namespace = namespace
        self.rows = rows
        self._alg_names: dict[str, str] = {}
        self._attr_slots: dict[tuple, str] = {}

    def slot(self, array: str, index) -> str:
        """Source of state-axis entry ``index`` of ``array``."""
        return f"{array}[:, {index}]" if self.rows \
            else f"{array}[{index}]"

    def register_algebraic(self, node: str) -> str:
        local = f"_alg_{len(self._alg_names)}"
        self._alg_names[node] = local
        return local

    def var_source(self, node: str) -> str:
        index = self._systems[0].state_index.get((node, 0))
        if index is not None:
            return self.slot("y", index)
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
        elif not self.rows:
            name = f"_attr_{len(self._attr_slots)}"
            self._namespace[name] = first
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
            if not self.rows:
                self._namespace[alias] = fn
            elif vector is not None and fn is E.BUILTIN_FUNCTIONS.get(name):
                self._namespace[alias] = vector
            else:
                self._namespace[alias] = _AutoVector(fn)
        return alias

    def ifexp_source(self, cond: str, then: str, orelse: str) -> str:
        if not self.rows:
            return super().ifexp_source(cond, then, orelse)
        return f"_np.where({cond}, {then}, {orelse})"

    def boolop_source(self, op: str, left: str, right: str) -> str:
        if not self.rows:
            return super().boolop_source(op, left, right)
        fn = "logical_and" if op == "and" else "logical_or"
        return f"_np.{fn}({left}, {right})"

    def not_source(self, operand: str) -> str:
        if not self.rows:
            return super().not_source(operand)
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
    values = []
    for system in systems:
        try:
            values.append(float(expr.evaluate(_AttrEval(system))))
        except _NotConst:
            raise
        except Exception:
            raise _NotConst() from None
    if not all(math.isfinite(value) for value in values):
        raise _NotConst()
    if all(value == values[0] for value in values):
        return values[0]
    return np.array(values)


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


def surviving_diffusion(systems: list[OdeSystem]):
    """The lead system's diffusion terms that survive shared-value
    simplification, paired with their optimized amplitude expressions.

    An amplitude that folds to the constant 0 for every instance (e.g.
    a ``noise(s.nsig)`` term with the shared ``nsig`` set to 0) drops
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
                     line_terms: list) -> list[str] | None:
    """Body of the fused ``_rhs``: every affine contribution of every
    SUM-reduction (and chain) line gathered into one sparse product of
    per-slot coefficient arrays, with only the non-fusible residue
    emitted per line. ``line_terms`` holds each line's optimized terms
    (``None`` for chain lines).

    The sparsity pattern comes from the decomposition's structure, not
    its values, so every instance of a group (and every pool shard)
    shares it. Each line keeps its entries in ascending state order;
    slot ``k`` holds the ``k``-th entry of every line that has one: a
    ``(width, n_instances)`` value array ``_lin_val{k}`` and an integer
    state-column array ``_lin_col{k}``. Lines are ordered by entry
    count, so slot ``k`` covers a prefix of the accumulator ``_acc``;
    the integer array ``_lin_line`` maps it back to state order unless
    that order is the identity. The slots sum in order, then the
    constant ``_lin_c``, then each line's residue, all elementwise: a
    row's result does not depend on its batch-mates, and memory is
    ``O(n_instances * entries)``. A line with no affine entry
    (``_lin_empty``) gets an exact 0.0.

    Returns ``None`` when fusion is not worthwhile — no affine entry, or
    fewer than two per-line statements eliminated — in which case the
    caller keeps the classic per-line emission.
    """
    lead = systems[0]
    n, s = len(systems), len(lead.rhs_specs)
    entries: list[dict[int, object]] = [{} for _ in range(s)]
    constant = np.zeros((s, n))
    use_constant = False
    residual_rows: list[tuple[int, list]] = []
    product_rows: list[tuple[int, list]] = []
    eliminated = 0
    for index, spec in enumerate(lead.rhs_specs):
        if isinstance(spec, ChainRhs):
            entries[index][spec.next_index] = 1.0
            eliminated += 1
            continue
        terms = line_terms[index]
        if spec.reduction is not Reduction.SUM:
            product_rows.append((index, terms))
            continue
        residuals: list = []
        line = entries[index]
        for term in terms:
            for piece in _term_pieces(term, systems, lead.state_index):
                if piece[0] == _LIN:
                    line[piece[1]] = line.get(piece[1], 0.0) + piece[2]
                elif piece[0] == _CONST:
                    constant[index] += piece[1]
                    use_constant = True
                else:
                    residuals.append(piece)
        if residuals:
            residual_rows.append((index, residuals))
        else:
            eliminated += 1
    width = max(len(line) for line in entries)
    if eliminated < 2 or width == 0:
        return None
    columns = [sorted(line) for line in entries]
    # Lines with entries, most entries first (ties in state order). The
    # rows layout accumulates transposed, one contiguous row of
    # instances per line: a column gather on the ``(n, s)`` state is
    # strided and ~3x slower at 512 rows.
    filled = sorted((line for line in range(s) if columns[line]),
                    key=lambda line: -len(columns[line]))
    if codegen.rows:
        lines = ["    _yT = y.T.copy()"]
        gather, back = "_yT.take(_lin_col{}, axis=0)", "_acc.T"
    else:
        lines = []
        gather, back = "y[_lin_col{}]", "_acc"
    for k in range(width):
        prefix = [line for line in filled if len(columns[line]) > k]
        values = np.empty((len(prefix), n))
        for slot, line in enumerate(prefix):
            values[slot] = entries[line][columns[line][k]]
        namespace[f"_lin_val{k}"] = values if codegen.rows \
            else values[:, 0]
        namespace[f"_lin_col{k}"] = np.array(
            [columns[line][k] for line in prefix], dtype=np.intp)
        product = f"_lin_val{k} * {gather.format(k)}"
        if k == 0:
            lines.append(f"    _acc = {product}")
        elif len(prefix) == len(filled):
            lines.append(f"    _acc += {product}")
        else:
            lines.append(f"    _acc[:{len(prefix)}] += {product}")
    if filled == list(range(s)):
        lines.append(f"    {codegen.slot('dy', ':')} = {back}")
    else:
        namespace["_lin_line"] = np.array(filled, dtype=np.intp)
        lines.append(f"    {codegen.slot('dy', '_lin_line')} = {back}")
        if len(filled) < s:
            namespace["_lin_empty"] = np.array(
                [line for line in range(s) if not columns[line]],
                dtype=np.intp)
            lines.append(f"    {codegen.slot('dy', '_lin_empty')} = 0.0")
    if use_constant:
        namespace["_lin_c"] = constant if codegen.rows else constant[:, 0]
        lines.append(f"    dy += {'_lin_c.T' if codegen.rows else '_lin_c'}")
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
        lines.append(f"    {codegen.slot('dy', index)} += {joined}")
    for index, terms in product_rows:
        body = " * ".join(E.to_python(term, codegen)
                          for term in terms) or \
            repr(Reduction.MUL.identity)
        lines.append(f"    {codegen.slot('dy', index)} = {body}")
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


def generate_batch_source(systems: list[OdeSystem] | OdeSystem,
                          namespace: dict[str, object],
                          survivors=None, fuse: bool = True) -> str:
    """Emit the source of the batched RHS (``_rhs``), the batched
    algebraic-readout function (``_alg``), and — for stochastic systems
    — the batched diffusion-amplitude function (``_dif``) for a
    structurally compatible batch. All take ``y`` of shape
    ``(n_instances, n_states)``; ``_dif`` fills ``out`` of shape
    ``(n_instances, n_diffusion_terms)``.

    Given one :class:`OdeSystem` instead of a list, emit its one-row
    ``_rhs`` alone (see the module docstring): ``y`` and ``dy`` have
    shape ``(n_states,)``.

    With ``fuse`` (the default) the SUM-reduction and chain lines whose
    terms are affine in the states — with compile-time per-instance
    coefficients — collapse into one sparse product, one gather per
    entry slot (see :func:`_fused_rhs_lines`), cutting the per-step
    NumPy dispatch from one-per-term to one-per-slot-and-residual;
    non-fusible terms (nonlinear, time-dependent, callable-attribute)
    keep the per-line emission. ``fuse=False`` restores the pure
    per-line emitter.

    ``survivors`` is a precomputed :func:`surviving_diffusion` result;
    pass it when the caller also needs the diffusion layout (as
    :class:`BatchRhs` does) so the shared-value pass runs once."""
    rows = not isinstance(systems, OdeSystem)
    if not rows:
        systems = [systems]
    lead = systems[0]
    codegen = _BatchCodegen(systems, namespace, rows)
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

    line_terms = [None if isinstance(spec, ChainRhs)
                  else optimize_terms(spec.terms, spec.reduction, lookup)
                  for spec in lead.rhs_specs]
    fused_lines = _fused_rhs_lines(systems, namespace, codegen,
                                   line_terms) if fuse else None
    lines = ["def _rhs(t, y, dy):"]
    lines.extend(algebraic_lines)
    if fused_lines is not None:
        lines.extend(fused_lines)
    else:
        for index, spec in enumerate(lead.rhs_specs):
            if isinstance(spec, ChainRhs):
                body = codegen.slot("y", spec.next_index)
            else:
                joiner = " + " if spec.reduction is Reduction.SUM \
                    else " * "
                body = joiner.join(E.to_python(term, codegen)
                                   for term in line_terms[index]) or \
                    repr(spec.reduction.identity)
            lines.append(f"    {codegen.slot('dy', index)} = {body}")
    lines.append("    return dy")
    if not rows:
        return "\n".join(lines)

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
        bodies = [E.to_python(amplitude, codegen)
                  for _term, amplitude in survivors]
        if all(isinstance(amplitude, E.Const)
               for _term, amplitude in survivors):
            # Every amplitude is a shared literal: one store. Distinct
            # literals ride as a constant matrix, instance axis last
            # like every namespace array.
            if len(set(bodies)) == 1:
                stores = [f"    out[:, :] = {bodies[0]}"]
            else:
                column = np.array([float(amplitude.value)
                                   for _term, amplitude in survivors])
                namespace["_dif_c"] = np.repeat(
                    column[:, None], len(systems), axis=1)
                stores = ["    out[:, :] = _dif_c.T"]
        else:
            stores = [f"    out[:, {column}] = {body}"
                      for column, body in enumerate(bodies)]
        lines.append("")
        lines.append("def _dif(t, y, out):")
        lines.extend(_lines_read(algebraic_lines, stores))
        lines.extend(stores)
        lines.append("    return out")
    return "\n".join(lines)


def _lines_read(algebraic_lines: list[str], body: list[str]) -> list[str]:
    """The algebraic lines that ``body`` reads, directly or through
    another algebraic local, in their original order."""
    text, kept = "\n".join(body), []
    for line in reversed(algebraic_lines):
        local = line.split("=", 1)[0].strip()
        if re.search(rf"\b{local}\b", text):
            kept.append(line)
            text += "\n" + line
    return kept[::-1]


def compile_row(system: OdeSystem):
    """Compile one system's RHS in the one-row layout: a ``rhs(t, y)``
    callable over a ``(n_states,)`` state, as scipy's ``solve_ivp``
    expects. The code object is compiled directly, not through the
    kernel cache (see the module docstring)."""
    namespace: dict[str, object] = {}
    source = generate_batch_source(system, namespace)
    exec(compile(source, f"<ark:{system.graph.name}>", "exec"), namespace)
    inner = namespace["_rhs"]
    n = system.n_states

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return inner(t, y, np.empty(n))

    return rhs


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
        # Values are resolved once per distinct system object: a noisy
        # sweep repeats each chip for every trial row.
        position: dict[int, int] = {}
        distinct: list[OdeSystem] = []
        rows = []
        for system in systems:
            index = position.setdefault(id(system), len(distinct))
            if index == len(distinct):
                distinct.append(system)
            rows.append(index)
        signature = distinct[0].structural_signature()
        for system in distinct[1:]:
            if system.structural_signature() != signature:
                raise SimulationError(
                    f"systems {systems[0].graph.name} and "
                    f"{system.graph.name} are not structurally "
                    "compatible; solve them apart or group by "
                    "structural_signature()")
        self.systems = list(systems)
        #: The precision the solvers integrate this batch at (see
        #: :func:`array_dtype`).
        self.dtype = array_dtype(array_backend)
        expand = None if len(distinct) == len(systems) else np.array(rows)
        namespace: dict[str, object] = {"_np": np}
        with telemetry.span("codegen.emit"):
            survivors = surviving_diffusion(distinct)
            self.source = generate_batch_source(
                distinct, namespace, survivors=survivors, fuse=fuse)
            # Constant tensors (per-instance attributes, fused
            # coefficients, residual scales) are built in float64 over
            # the distinct systems with the instance axis last, expanded
            # to one entry per row and cast to the batch's dtype here;
            # at float64 the cast is the identity. Integer arrays are
            # the fused product's structural indices, shared by every
            # row.
            for slot, value in list(namespace.items()):
                if isinstance(value, np.ndarray) \
                        and value.dtype.kind == "f":
                    if expand is not None:
                        value = value[..., expand]
                    namespace[slot] = np.ascontiguousarray(
                        value, dtype=self.dtype)
                elif isinstance(value, _PerInstanceFn) \
                        and expand is not None:
                    namespace[slot] = _PerInstanceFn(
                        value._fns[row] for row in rows)
            exec(_compile_source(self.source,
                                 f"<ark-batch:{systems[0].graph.name}>"),
                 namespace)
        #: True when the emitted RHS drives the fused sparse product.
        self.fused = "_lin_col0" in namespace
        #: Sorted union of the ``_ark_breakpoints`` tags (input-waveform
        #: kinks) of the callable attributes the RHS reads; the adaptive
        #: solver lands its steps on them. A tag is a function of the
        #: callable's ``_ark_vector_key``, which cache keys already hash.
        self.breakpoints = _breakpoints(namespace.values())
        telemetry.add("codegen.batch_compiles")
        telemetry.add("codegen.fused_rhs" if self.fused
                      else "codegen.unfused_rhs")
        # Per-line ``dy[:, i]`` stores are what the fuser could not fold
        # into the sparse product — their count is the per-step
        # dispatch cost the fused path still pays.
        telemetry.add("codegen.residual_lines",
                      len(re.findall(r"dy\[:, \d", self.source)))
        self._rhs_inner = namespace["_rhs"]
        self._alg_inner = namespace["_alg"]
        self._dif_inner = namespace.get("_dif")
        #: Diffusion terms that survived shared-value folding (see
        #: :func:`surviving_diffusion`); column order of ``diffusion``.
        self.diffusion_terms = [term for term, _amp in survivors]
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
