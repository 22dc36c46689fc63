"""Fluent graph construction with datatype checking and mismatch sampling.

:class:`GraphBuilder` is the programmatic equivalent of an Ark function
body: it creates nodes and edges, writes attributes and initial values
(sampling mismatch-annotated datatypes through a seeded
:class:`~repro.core.mismatch.MismatchSampler`), and configures switches.
The paradigm libraries (TLN, CNN, OBC) build their topologies with it; the
statement-based :class:`~repro.core.function.ArkFunction` drives it when a
textual Ark function is invoked.

Mismatched writes are *deferred*: the builder queues them and draws
them all in one :meth:`~repro.core.mismatch.MismatchSampler.
resolve_many` call (one bulk stream-seeding pass) when the graph is
finished or read through :attr:`GraphBuilder.graph`. Every draw is keyed
by its ``(seed, element, attribute)`` triple, so deferral changes no
value.
"""

from __future__ import annotations

from repro.core.graph import DynamicalGraph
from repro.core.language import Language
from repro.core.mismatch import MismatchSampler, mismatch_annotation
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
        self.sampler = MismatchSampler(seed)
        #: Queued mismatched writes, keyed by their slot (so a rewrite
        #: replaces the earlier draw): ``(id(store), key) -> (store,
        #: key, as_float, (element, attr, datatype, nominal))``.
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
        self._write(element.attrs, attr, owner, attr, decl.datatype,
                    nominal, as_float=False)
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
        self._write(node.inits, index, node_name, f"init{index}",
                    decl.datatype, nominal, as_float=True)
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

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _write(self, store: dict, key, element: str, attr: str, datatype,
               nominal, as_float: bool):
        """Store a resolved value: unannotated values at once, mismatched
        ones queued for :meth:`_flush` (absent from ``store`` until
        then)."""
        slot = (id(store), key)
        self._pending.pop(slot, None)
        if mismatch_annotation(datatype) is None:
            store[key] = float(nominal) if as_float else nominal
            return
        store.pop(key, None)
        self._pending[slot] = (store, key, as_float,
                               (element, attr, datatype, nominal))

    def _flush(self):
        """Draw every queued mismatched write in one bulk call."""
        if not self._pending:
            return
        pending = list(self._pending.values())
        self._pending.clear()
        values = self.sampler.resolve_many(write for *_, write in pending)
        for (store, key, as_float, _), value in zip(pending, values):
            store[key] = float(value) if as_float else value

    def _find_owner(self, owner: str):
        if self._graph.has_node(owner):
            return self._graph.node(owner), "node"
        if self._graph.has_edge(owner):
            return self._graph.edge(owner), "edge"
        raise GraphError(f"unknown node or edge {owner}")
