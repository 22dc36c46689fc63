"""Fluent graph construction with datatype checking and mismatch sampling.

:class:`GraphBuilder` is the programmatic equivalent of an Ark function
body: it creates nodes and edges, writes attributes and initial values
(sampling mismatch-annotated datatypes, §4.3), and configures switches.
The paradigm libraries (TLN, CNN, OBC) build their topologies with it; the
statement-based :class:`~repro.core.function.ArkFunction` drives it when a
textual Ark function is invoked.

Mismatched writes are *deferred*: the builder queues them as
:class:`~repro.core.mismatch.MismatchSite` records and draws them all in
one :func:`~repro.core.mismatch.draw` call (one bulk stream-seeding pass)
when the graph is finished or read through :attr:`GraphBuilder.graph`.
Every draw is keyed by its ``(seed, element, attribute)`` triple, so
deferral changes no value.

An instance is a template plus a seed. In §4.3 the seed only sets the
mismatched values, so a builder run without a seed yields a
:class:`GraphTemplate` (:meth:`GraphBuilder.template`): the nominal
graph and its mismatch sites in write order. :meth:`GraphTemplate.
instance` draws the sites under a seed through the same
:func:`~repro.core.mismatch.draw` and returns a *lazy* graph holding
only the template and that value row. Read, it materializes into the
template's clone with the row placed — equal, field for field, to a
builder run with that seed; compiled unread, it is bound from its row
(:func:`~repro.core.compiler.compile_graph`) and no graph is built.
:func:`fabricate` memoizes one template per structure on the language's
rule table, so a sweep of N seeds runs the builder once.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.graph import DynamicalGraph
from repro.core.language import Language
from repro.core.mismatch import draw, site_of
from repro.errors import GraphError


class GraphBuilder:
    """Builds a :class:`DynamicalGraph` in a given language.

    :param language: the Ark language the graph is written in.
    :param seed: mismatch seed; ``None`` produces the ideal (nominal)
        instance, integers model fabricated instances (§4.3).
    """

    def __init__(self, language: Language, name: str = "dg",
                 seed: int | None = None):
        self.language = language
        self._graph = DynamicalGraph(language, name)
        self.seed = seed
        #: Every mismatched write, keyed by its slot ``(kind, owner,
        #: store, key)`` so a rewrite replaces the earlier site: the
        #: sites of a template, in write order.
        self._sites: dict = {}
        #: The slots of ``_sites`` not yet drawn into the graph.
        self._pending: dict = {}

    @property
    def graph(self) -> DynamicalGraph:
        """The graph under construction. Reading it first resolves every
        pending mismatched write, so its attributes are final."""
        self._flush()
        return self._graph

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def node(self, name: str, type_name: str) -> "GraphBuilder":
        """``node v0 : v1`` — create a node."""
        self._graph.add_node(name, type_name)
        return self

    def edge(self, src: str, dst: str, name: str, type_name: str,
             ) -> "GraphBuilder":
        """``edge<v0,v1> v2 : v3`` — create an edge."""
        self._graph.add_edge(name, src, dst, type_name)
        return self

    def set_attr(self, owner: str, attr: str, value) -> "GraphBuilder":
        """``set-attr v0.v1 = val`` — write an attribute.

        The nominal value is datatype-checked; mismatch-annotated
        attributes store a seeded sample instead of the nominal value.
        """
        element, kind = self._find_owner(owner)
        decl = element.type.attrs.get(attr)
        if decl is None:
            raise GraphError(
                f"{kind} {owner} of type {element.type.name} has no "
                f"attribute {attr}")
        nominal = decl.datatype.check(value, f"{owner}.{attr}")
        element.nominal_attrs[attr] = nominal
        self._write((kind, owner, "attrs", attr), element.attrs,
                    site_of(owner, attr, decl.datatype, nominal), nominal)
        return self

    def set_init(self, node_name: str, value, index: int = 0,
                 ) -> "GraphBuilder":
        """``set-init v(i) = val`` — write an initial value."""
        node = self._graph.node(node_name)
        decl = node.type.inits.get(index)
        if decl is None:
            raise GraphError(
                f"node {node_name} of order {node.type.order} has no "
                f"init({index})")
        nominal = decl.datatype.check(value,
                                      f"init({index}) of {node_name}")
        node.nominal_inits[index] = nominal
        self._write(("node", node_name, "inits", index), node.inits,
                    site_of(node_name, f"init{index}", decl.datatype,
                            nominal), float(nominal))
        return self

    def set_switch(self, edge_name: str, on) -> "GraphBuilder":
        """``set-switch v when b`` — configure a switchable edge."""
        self._graph.set_switch(edge_name, bool(on))
        return self

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finish(self, check: bool = True) -> DynamicalGraph:
        """Resolve pending mismatch draws, apply type-level defaults and
        return the completed graph."""
        graph = self.graph
        graph.apply_defaults()
        if check:
            graph.check_complete()
        return graph

    def template(self) -> "GraphTemplate":
        """Finish an unseeded build as a :class:`GraphTemplate`: the
        nominal graph plus its mismatch sites in write order."""
        if self.seed is not None:
            raise GraphError(
                f"a template is the nominal graph; build it without a "
                f"seed (got seed={self.seed!r})")
        return GraphTemplate(self.finish(), self._sites.items())

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _write(self, slot: tuple, store: dict, site, value):
        """Store a resolved value: unannotated values at once, mismatched
        ones (``site`` not ``None``) queued for :meth:`_flush` (absent
        from ``store`` until then)."""
        self._sites.pop(slot, None)
        self._pending.pop(slot, None)
        key = slot[3]
        if site is None:
            store[key] = value
            return
        store.pop(key, None)
        self._sites[slot] = self._pending[slot] = site

    def _flush(self):
        """Draw every queued mismatched write in one bulk call."""
        if not self._pending:
            return
        slots, sites = zip(*self._pending.items())
        self._pending.clear()
        _place(self._graph, slots, draw(self.seed, sites))

    def _find_owner(self, owner: str):
        if self._graph.has_node(owner):
            return self._graph.node(owner), "node"
        if self._graph.has_edge(owner):
            return self._graph.edge(owner), "edge"
        raise GraphError(f"unknown node or edge {owner}")


def _place(graph: DynamicalGraph, slots, values):
    """Write ``values`` into ``graph`` at their ``(kind, owner, store,
    key)`` slots; initial values are stored as floats."""
    for (kind, owner, store, key), value in zip(slots, values):
        element = graph.node(owner) if kind == "node" else graph.edge(owner)
        getattr(element, store)[key] = \
            float(value) if store == "inits" else value


class GraphTemplate:
    """A finished nominal graph and its mismatch sites in write order.

    :meth:`instance` is the graph fabricated under a seed: a lazy
    :class:`DynamicalGraph` holding this template and the row of its
    nonzero-deviation sites drawn in one bulk pass. :meth:`elements`
    materializes it: a clone with fresh nodes, edges and value dicts
    (types shared, names not re-validated) with the row placed, equal
    to a :class:`GraphBuilder` run with that seed field for field, dict
    insertion order included.

    ``graph`` (the nominal graph) and ``slots`` (the ``(kind, owner,
    store, key)`` slot of each row entry) are read by the compiler's
    row bind; neither may be mutated.
    """

    def __init__(self, graph: DynamicalGraph, sites):
        self.graph = graph
        drawn = [(slot, site) for slot, site in sites if site.sigma != 0.0]
        self.slots = tuple(slot for slot, _ in drawn)
        self._sites = tuple(site for _, site in drawn)

    def instance(self, seed: int | None = None) -> DynamicalGraph:
        """A lazy graph of this structure fabricated under ``seed``
        (``None``: the nominal instance)."""
        row = None
        if seed is not None and self._sites:
            row = draw(seed, self._sites)
        return DynamicalGraph.fabricated(self, row)

    def elements(self, row) -> tuple[dict, dict]:
        """Fresh node and edge dicts of the instance with ``row``."""
        graph = self.graph.copy()
        if row is not None:
            _place(graph, self.slots, row)
        return graph._nodes, graph._edges


def fabricate(language: Language, key: Hashable,
              build: Callable[[int | None], GraphBuilder],
              seed: int | None) -> DynamicalGraph:
    """Instance ``seed`` of the structure ``build`` writes.

    ``build(seed)`` writes a structure's statements into a
    :class:`GraphBuilder` of ``seed`` and returns it unfinished;
    ``build(seed).finish()`` is the direct seeded build. Here it runs
    once without a seed, as a :class:`GraphTemplate` memoized per
    ``key`` on ``language``'s rule table (:meth:`~repro.core.production.
    RuleTable.memoized`), which a declaration in the language or any
    ancestor replaces: a sweep of one structure runs ``build`` once
    (``build.template_misses``) and clones the template for every other
    seed (``build.template_hits``). ``key`` must name everything the
    structure depends on except the seed; a key that does not hash
    builds without being stored.
    """
    table = language.rule_table()
    template = table.memoized(table.graph_templates, key,
                              lambda: build(None).template(),
                              "build.template")
    return template.instance(seed)
