"""The Ark dynamical-system compiler (§5, Algorithm 1).

Translates a dynamical graph plus a language definition into a system of
first-order differential (or stochastic-differential) equations:

* every node of order ``p >= 1`` contributes ``p`` state variables; the
  first ``p-1`` equations are the chain ``d n_i/dt = n_{i+1}`` (`LowOrdEqs`)
  and the last aggregates the production terms of the node's incident edges
  with the node type's reduction operator (`FormEq`);
* order-0 nodes are *algebraic*: their value is the reduction of their
  production terms, computed on demand and inlined into the evaluation
  order (topologically sorted; cycles among algebraic nodes are an error);
* production rules are looked up most-specific-first with inheritance
  fallback (`LookUpProdRule`) and their expressions are rewritten from role
  names to concrete element names (`Rewrite`);
* switched-off edges contribute only the language's ``off`` rules (§4.3).

Transient noise (the second half of the paper's nonideality story, next
to §4.3 mismatch) is declared one way: an explicit ``noise(amp)`` call in
a production term. Each additive addend containing one is moved from
the drift into a :class:`~repro.core.odesystem.DiffusionTerm` of the
resulting system ``dy = f(t,y) dt + Σ b_k(t,y) dW_k``, with amplitude
equal to the addend with ``noise(a)`` replaced by ``a`` (so
``-v/c + noise(s.nsig/c)`` keeps the drift ``-v/c`` and gains a
diffusion amplitude ``s.nsig/c``). Only sum-reduction differential
nodes may carry noise terms. A relative fluctuation ``sigma`` of a
parameter that scales a term ``T`` is the addend ``noise(sigma*T)``.

The result is an :class:`~repro.core.odesystem.OdeSystem` ready for
simulation (deterministic solvers integrate the drift;
:mod:`repro.sim.sde_solver` realizes the noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.core import expr as E
from repro.core.graph import DynamicalGraph, Edge, Node
from repro.core.language import Language
from repro.core.odesystem import (AlgebraicSpec, ChainRhs, DiffusionTerm,
                                  OdeSystem, StateVar, TermsRhs,
                                  symbolic_signature)
from repro.core.production import ProductionRule, RuleTable
from repro.core.simplify import simplify
from repro.core.types import Reduction
from repro.errors import CompileError

#: The reserved expression-level noise marker (drift mean 0; see
#: :data:`repro.core.expr.BUILTIN_FUNCTIONS`).
NOISE_FUNC = "noise"

def _rewrite(rule: ProductionRule, edge: Edge) -> E.Expr:
    """`Rewrite` from Algorithm 1: bind the rule's roles to the concrete
    edge and endpoint names."""
    mapping = {
        rule.edge_role: E.Substitution(edge.name, "edge"),
        rule.src_role: E.Substitution(edge.src, "node"),
        rule.dst_role: E.Substitution(edge.dst, "node"),
    }
    return rule.expr.substitute(mapping)


def _contributions(graph: DynamicalGraph, language: Language,
                   table: RuleTable,
                   ) -> dict[str, list[tuple[E.Expr, str]]]:
    """Production terms per node name as ``(expr, edge_name)`` pairs,
    honoring switch state. The provenance edge name identifies the
    element that owns any noise source found inside the term."""
    node_types = {node.name: node.type for node in graph.nodes}
    terms: dict[str, list[tuple[E.Expr, str]]] = {
        node.name: [] for node in graph.nodes}

    for edge in graph.edges:
        src_type = node_types[edge.src]
        dst_type = node_types[edge.dst]
        off = not edge.on
        connection = (f"edge {edge.name}:{edge.type.name} "
                      f"({edge.src}:{src_type.name}->"
                      f"{edge.dst}:{dst_type.name})")
        rules = table.lookup(edge.type, src_type, dst_type,
                             self_rule=edge.is_self, off=off,
                             connection=connection)
        if not rules and not off:
            raise CompileError(
                f"no production rule applies to {connection} in language "
                f"{language.name}")
        for rule in rules:
            target = edge.src if rule.targets_source else edge.dst
            terms[target].append((_rewrite(rule, edge), edge.name))
    return terms


def _algebraic_order(graph: DynamicalGraph,
                     terms: dict[str, list[E.Expr]]) -> list[str]:
    """Topological order of order-0 nodes by var() dependencies."""
    algebraic = {node.name for node in graph.nodes
                 if node.type.is_algebraic}
    depends: dict[str, set[str]] = {}
    for name in algebraic:
        references = set()
        for term, _origin in terms[name]:
            references |= E.referenced_vars(term)
        depends[name] = references & algebraic

    ordered: list[str] = []
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(name: str, chain: tuple[str, ...]):
        if name in done:
            return
        if name in visiting:
            cycle = " -> ".join(chain + (name,))
            raise CompileError(
                f"algebraic cycle among order-0 nodes: {cycle}")
        visiting.add(name)
        for dep in sorted(depends[name]):
            visit(dep, chain + (name,))
        visiting.discard(name)
        done.add(name)
        ordered.append(name)

    for name in sorted(algebraic):
        visit(name, ())
    return ordered


# --------------------------------------------------------------------------
# Noise extraction (drift/diffusion split)
# --------------------------------------------------------------------------

def _flatten_sum(expr: E.Expr) -> list[E.Expr]:
    """Split a term over its top-level additive structure.

    ``a + b - c`` becomes ``[a, b, -c]``; products and other nodes stay
    whole. Used so ``noise(...)`` addends can move to the diffusion
    while their siblings stay in the drift."""
    if isinstance(expr, E.BinOp) and expr.op == "+":
        return _flatten_sum(expr.left) + _flatten_sum(expr.right)
    if isinstance(expr, E.BinOp) and expr.op == "-":
        return _flatten_sum(expr.left) + [
            E.UnOp("-", addend) for addend in _flatten_sum(expr.right)]
    if isinstance(expr, E.UnOp) and expr.op == "-":
        return [E.UnOp("-", addend)
                for addend in _flatten_sum(expr.operand)]
    return [expr]


def _noise_calls(expr: E.Expr) -> list[E.Call]:
    return [node for node in expr.walk()
            if isinstance(node, E.Call) and node.func == NOISE_FUNC]


def _replace_noise(expr: E.Expr) -> E.Expr:
    """Rewrite the (single) ``noise(a)`` call inside ``expr`` to ``a`` —
    turning the noise addend into its diffusion amplitude."""
    if isinstance(expr, E.Call) and expr.func == NOISE_FUNC:
        return expr.args[0]
    children = expr.children()
    if not children:
        return expr
    rebuilt = tuple(_replace_noise(child) for child in children)
    if isinstance(expr, E.UnOp):
        return E.UnOp(expr.op, rebuilt[0])
    if isinstance(expr, E.BinOp):
        return E.BinOp(expr.op, rebuilt[0], rebuilt[1])
    if isinstance(expr, E.Call):
        return E.Call(expr.func, rebuilt)
    if isinstance(expr, E.LambdaCall):
        return E.LambdaCall(expr.target, rebuilt[1:])
    if isinstance(expr, E.IfThenElse):
        return E.IfThenElse(rebuilt[0], rebuilt[1], rebuilt[2])
    if isinstance(expr, E.Compare):
        return E.Compare(expr.op, rebuilt[0], rebuilt[1])
    if isinstance(expr, E.BoolOp):
        return E.BoolOp(expr.op, rebuilt[0], rebuilt[1])
    if isinstance(expr, E.Not):
        return E.Not(rebuilt[0])
    raise CompileError(
        f"noise(): unsupported enclosing expression {expr!r}")


def _check_noise_call(call: E.Call, where: str):
    if len(call.args) != 1:
        raise CompileError(
            f"noise() takes exactly one amplitude argument, got "
            f"{len(call.args)} in {where}")
    if _noise_calls(call.args[0]):
        raise CompileError(
            f"noise() amplitudes cannot nest further noise() calls "
            f"({where})")


def _split_noise_terms(node: Node, contributions, state_index: int,
                       path_counters: dict[str, int],
                       diffusion: list[DiffusionTerm],
                       ) -> list[E.Expr]:
    """Separate a differential node's production terms into drift terms
    (returned) and diffusion terms (appended), keyed by provenance."""
    drift: list[E.Expr] = []
    for expr, origin in contributions:
        if not _noise_calls(expr):
            drift.append(expr)
            continue
        where = (f"production term of {node.name} contributed by "
                 f"edge {origin}")
        if node.type.reduction is not Reduction.SUM:
            raise CompileError(
                f"noise() requires a sum-reduction node; {node.name} "
                f"reduces with {node.type.reduction.value} ({where})")
        for addend in _flatten_sum(expr):
            calls = _noise_calls(addend)
            if not calls:
                drift.append(addend)
                continue
            if len(calls) > 1:
                raise CompileError(
                    f"at most one noise() call per additive term "
                    f"({where})")
            _check_noise_call(calls[0], where)
            amplitude = simplify(_replace_noise(addend))
            count = path_counters.get(origin, 0)
            path_counters[origin] = count + 1
            diffusion.append(DiffusionTerm(
                state_index=state_index, amplitude=amplitude,
                element=origin, path=f"w{count}"))
    return drift


def _element(graph: DynamicalGraph, kind: str, owner: str) -> Node | Edge:
    return graph.node(owner) if kind == "node" else graph.edge(owner)


def _attr_keys(exprs: list[E.Expr]) -> tuple[tuple[str, str, str], ...]:
    """Every attribute reference in the compiled expressions, as
    ``(kind, owner, attr)`` keys in first-reference order."""
    keys: dict[tuple, None] = {}
    for tree in exprs:
        for node in tree.walk():
            if isinstance(node, E.AttrRef):
                keys.setdefault((node.kind or "node", node.owner,
                                 node.attr))
    return tuple(keys)


@dataclass
class SymbolicSystem:
    """The symbolic half of a compile: everything Algorithm 1 derives
    from a graph's structure (topology, types, switch states and which
    attributes are set) and nothing from its attribute values or
    initial conditions. Every graph of one structure shares it; it
    holds no reference to any graph.

    :param attr_keys: the attribute references of the compiled
        expressions, in first-reference order — the order of every
        instance's ``attr_values``.
    :param functions: names of the functions the expressions call.
    """

    states: tuple[StateVar, ...]
    state_index: dict[tuple[str, int], int]
    rhs: tuple[ChainRhs | TermsRhs, ...]
    algebraic: tuple[AlgebraicSpec, ...]
    diffusion: tuple[DiffusionTerm, ...]
    attr_keys: tuple[tuple[str, str, str], ...]
    functions: tuple[str, ...]
    _signature: tuple | None = field(default=None, repr=False)

    def signature_parts(self) -> tuple:
        """The value-free parts of
        :meth:`~repro.core.odesystem.OdeSystem.structural_signature`,
        computed once per structure."""
        if self._signature is None:
            self._signature = symbolic_signature(
                self.states, self.rhs, self.algebraic, self.attr_keys,
                self.diffusion)
        return self._signature


def _structure_key(graph: DynamicalGraph) -> tuple:
    """Everything the symbolic compile reads from ``graph``: each node's
    name, type and set attribute names, and each edge's name, type,
    endpoints, switch state and set attribute names, in insertion
    order. Types enter by identity."""
    return (tuple((node.name, node.type, tuple(node.attrs))
                  for node in graph.nodes),
            tuple((edge.name, edge.type, edge.src, edge.dst, edge.on,
                   tuple(edge.attrs))
                  for edge in graph.edges))


def _symbolic(graph: DynamicalGraph, language: Language,
              table: RuleTable) -> SymbolicSystem:
    """The structural stage of Algorithm 1: rule lookup and rewriting,
    state allocation, the drift/diffusion split and the algebraic
    order. Reads no attribute value."""
    terms = _contributions(graph, language, table)

    # State allocation: p slots per order-p node, graph insertion order.
    states: list[StateVar] = []
    state_index: dict[tuple[str, int], int] = {}
    for node in graph.nodes:
        for deriv in range(node.type.order):
            index = len(states)
            states.append(StateVar(node.name, deriv, index))
            state_index[(node.name, deriv)] = index

    # Right-hand sides, with the drift/diffusion split of any noise.
    rhs: list[ChainRhs | TermsRhs] = []
    diffusion: list[DiffusionTerm] = []
    path_counters: dict[str, int] = {}
    for state in states:
        node = graph.node(state.node)
        if state.deriv < node.type.order - 1:
            # LowOrdEqs: d n_i/dt = n_{i+1}
            rhs.append(ChainRhs(state_index[(state.node,
                                             state.deriv + 1)]))
        else:
            drift = _split_noise_terms(node, terms[state.node],
                                       state.index, path_counters,
                                       diffusion)
            rhs.append(TermsRhs(tuple(drift), node.type.reduction))

    algebraic = []
    for name in _algebraic_order(graph, terms):
        exprs = [expr for expr, _origin in terms[name]]
        for expr in exprs:
            if _noise_calls(expr):
                raise CompileError(
                    f"noise() is only supported on differential nodes; "
                    f"{name} is an order-0 (algebraic) node")
        algebraic.append(AlgebraicSpec(name, tuple(exprs),
                                       graph.node(name).type.reduction))

    all_exprs = [expr for spec in rhs if isinstance(spec, TermsRhs)
                 for expr in spec.terms]
    all_exprs += [expr for spec in algebraic for expr in spec.terms]
    all_exprs += [term.amplitude for term in diffusion]
    needed: set[str] = set()
    for tree in all_exprs:
        needed |= E.referenced_functions(tree)

    return SymbolicSystem(
        states=tuple(states), state_index=state_index, rhs=tuple(rhs),
        algebraic=tuple(algebraic), diffusion=tuple(diffusion),
        attr_keys=_attr_keys(all_exprs), functions=tuple(needed))


def _read_values(symbolic: SymbolicSystem, graph: DynamicalGraph,
                 ) -> tuple[dict, list]:
    """``graph``'s value of every attribute key it sets (in key order)
    and its initial value of every state."""
    attr_values: dict[tuple, object] = {}
    for key in symbolic.attr_keys:
        kind, owner, attr = key
        attrs = _element(graph, kind, owner).attrs
        if attr in attrs:
            attr_values[key] = attrs[attr]
    y0 = [graph.node(state.node).inits.get(state.deriv, 0.0)
          for state in symbolic.states]
    return attr_values, y0


def _instantiate(symbolic: SymbolicSystem, graph: DynamicalGraph,
                 language: Language, values: tuple | None = None,
                 ) -> OdeSystem:
    """The per-instance stage: bind attribute values, initial
    conditions and ``language``'s current functions to the shared
    symbolic system. The values are ``graph``'s own, or ``values`` —
    ``(attr_values, y0)`` of a row bind (:class:`_BindPlan`), which
    reads no graph structure."""
    attr_values, y0 = values or _read_values(symbolic, graph)
    if len(attr_values) != len(symbolic.attr_keys):
        kind, owner, attr = next(key for key in symbolic.attr_keys
                                 if key not in attr_values)
        raise CompileError(
            f"{kind} {owner} has no value for attribute {attr}")

    functions = language.functions()
    missing = set(symbolic.functions) - set(functions)
    if missing:
        raise CompileError(
            f"compiled expressions call unknown function(s) "
            f"{sorted(missing)}")

    return OdeSystem(
        graph=graph,
        language=language,
        states=list(symbolic.states),
        state_index=dict(symbolic.state_index),
        rhs_specs=list(symbolic.rhs),
        algebraic=list(symbolic.algebraic),
        attr_values=attr_values,
        functions={name: functions[name] for name in symbolic.functions},
        y0=y0,
        diffusion=symbolic.diffusion,
        symbolic=symbolic,
    )


class _BindPlan:
    """How a template's drawn rows bind (see :func:`compile_graph`).

    Holds the symbolic system of the template's structure, the values
    its nominal instance binds, and, for each drawn site that the
    compiled system reads, its row index and its place: an
    ``attr_values`` key or a ``y0`` index. Other sites are dropped.
    """

    def __init__(self, template, language: Language, table: RuleTable):
        nominal = template.graph
        self.symbolic = table.memoized(
            table.templates, _structure_key(nominal),
            lambda: _symbolic(nominal, language, table), None)
        self.attr_values, self.y0 = _read_values(self.symbolic, nominal)
        self.attr_sites: list[tuple[int, tuple]] = []
        self.init_sites: list[tuple[int, int]] = []
        for index, (kind, owner, store, key) in enumerate(template.slots):
            if store == "attrs" and (kind, owner, key) in self.attr_values:
                self.attr_sites.append((index, (kind, owner, key)))
            elif store == "inits" and (owner, key) in \
                    self.symbolic.state_index:
                self.init_sites.append(
                    (index, self.symbolic.state_index[(owner, key)]))

    def values(self, row) -> tuple[dict, list]:
        """``(attr_values, y0)`` of the instance with ``row``."""
        attr_values, y0 = dict(self.attr_values), list(self.y0)
        if row is not None:
            for index, key in self.attr_sites:
                attr_values[key] = row[index]
            for index, state in self.init_sites:
                y0[state] = float(row[index])
        return attr_values, y0


def compile_graph(graph: DynamicalGraph,
                  language: Language | None = None) -> OdeSystem:
    """Compile ``graph`` into an :class:`OdeSystem` (Algorithm 1).

    The symbolic stage runs once per graph structure (see
    :func:`_structure_key`): its result is memoized on the language's
    rule table, which a later declaration in the language or any
    ancestor replaces. Every compile then binds its own graph's
    attribute values, initial conditions and the language's current
    functions, so mismatch seeds of one Ark function share all
    structural work.

    An unmaterialized fabricated instance (:meth:`DynamicalGraph.
    fabrication`) compiled in its own language is not walked: it is
    bound from its drawn row (``compile.row_binds``) through its
    template's :class:`_BindPlan`, memoized per template on the same
    rule table. ``compile.template_hits``/``_misses`` count, per
    compile, whether its per-structure stage — symbolic system or bind
    plan — was reused or built. Any read of the graph's structure
    first materializes it, so a lazy graph always equals its template
    plus its row, and both paths give the same system.

    :param language: language whose rules drive compilation; defaults to
        the graph's own language. Passing a derived language compiles the
        same graph under the extended semantics — the inheritance rules
        guarantee identical dynamics when the graph only uses parent types.
    """
    language = language or graph.language
    table = language.rule_table()
    fabrication = graph.fabrication()
    if fabrication is not None and language is graph.language:
        template, row = fabrication
        plan = table.memoized(table.bind_plans, template,
                              lambda: _BindPlan(template, language, table),
                              "compile.template")
        telemetry.add("compile.row_binds")
        return _instantiate(plan.symbolic, graph, language,
                            plan.values(row))

    graph.apply_defaults()
    graph.check_complete()
    symbolic = table.memoized(table.templates, _structure_key(graph),
                              lambda: _symbolic(graph, language, table),
                              "compile.template")
    return _instantiate(symbolic, graph, language)
