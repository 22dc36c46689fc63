"""The dynamical graph (DG) intermediate representation (§3).

A DG is a typed, directed graph. Nodes map to variables of the underlying
dynamical system; edges contribute terms to the differential equations of
the nodes they connect. Nodes and edges carry attribute values (resolved —
i.e. post-mismatch — alongside the nominal values written by the program)
and nodes carry initial values for each derivative.

Edges are switchable unless their type is ``fixed`` (§4.3): an edge that is
switched off is excluded from the realized topology, but still contributes
the language's ``off`` production rules (modeling, e.g., leakage through an
open switch).

A fabricated instance (:meth:`repro.core.builder.GraphTemplate.instance`)
starts *lazy*: it holds its template and its drawn value row, besides
its ``name`` and ``language``, and no nodes or edges. The first read of
its structure materializes it once; until then it is template + row by
construction, which is what lets :func:`repro.core.compiler.
compile_graph` bind it from its row without building a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.core.language import Language
from repro.core.types import EdgeType, NodeType
from repro.errors import GraphError


@dataclass
class Node:
    """A graph node: one variable of the dynamical system."""

    name: str
    type: NodeType
    attrs: dict[str, object] = field(default_factory=dict)
    nominal_attrs: dict[str, object] = field(default_factory=dict)
    inits: dict[int, float] = field(default_factory=dict)
    nominal_inits: dict[int, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<Node {self.name}:{self.type.name}>"


@dataclass
class Edge:
    """A graph edge: a coupling between two variables."""

    name: str
    type: EdgeType
    src: str
    dst: str
    attrs: dict[str, object] = field(default_factory=dict)
    nominal_attrs: dict[str, object] = field(default_factory=dict)
    on: bool = True

    @property
    def is_self(self) -> bool:
        """True for self-referencing edges (``⟳ n`` in §3)."""
        return self.src == self.dst

    def __repr__(self) -> str:
        state = "" if self.on else " (off)"
        return (f"<Edge {self.name}:{self.type.name} "
                f"{self.src}->{self.dst}{state}>")


class DynamicalGraph:
    """A dynamical graph bound to the language that produced it.

    A lazy fabricated instance (:meth:`fabricated`) has no element dicts
    yet: the first read of ``_nodes`` or ``_edges`` — every accessor
    below, :meth:`copy`, :meth:`stats`, ``repr``,
    :meth:`apply_defaults` and pickling — materializes it through its
    template (``build.materialized``), after which it is an ordinary
    graph. So a graph that was never materialized always equals its
    template plus its row, and no write can bypass that.
    """

    def __init__(self, language: Language, name: str = "dg"):
        self.language = language
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[str, Edge] = {}

    @classmethod
    def fabricated(cls, template, row) -> "DynamicalGraph":
        """A lazy instance of ``template`` (a :class:`~repro.core.
        builder.GraphTemplate`) with its drawn value ``row`` (``None``:
        the nominal values)."""
        graph = cls.__new__(cls)
        graph.language = template.graph.language
        graph.name = template.graph.name
        graph._fabrication = (template, row)
        return graph

    def fabrication(self) -> tuple | None:
        """``(template, row)`` while this is an unmaterialized
        fabricated instance, else ``None``."""
        return self.__dict__.get("_fabrication")

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: the element
        # dicts of a lazy fabricated instance.
        if name in ("_nodes", "_edges") and self.fabrication() is not None:
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _materialize(self):
        template, row = self.__dict__.pop("_fabrication")
        telemetry.add("build.materialized")
        self._nodes, self._edges = template.elements(row)

    def __getstate__(self):
        if self.fabrication() is not None:
            self._materialize()
        return self.__dict__

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, type_name) -> Node:
        if name in self._nodes:
            raise GraphError(f"duplicate node name {name}")
        node_type = (type_name if isinstance(type_name, NodeType)
                     else self.language.find_node_type(str(type_name)))
        if node_type is None:
            raise GraphError(
                f"unknown node type {type_name!r} in language "
                f"{self.language.name}")
        node = Node(name, node_type)
        self._nodes[name] = node
        return node

    def add_edge(self, name: str, src: str, dst: str, type_name) -> Edge:
        if name in self._edges:
            raise GraphError(f"duplicate edge name {name}")
        if src not in self._nodes:
            raise GraphError(f"edge {name}: unknown source node {src}")
        if dst not in self._nodes:
            raise GraphError(f"edge {name}: unknown destination node {dst}")
        edge_type = (type_name if isinstance(type_name, EdgeType)
                     else self.language.find_edge_type(str(type_name)))
        if edge_type is None:
            raise GraphError(
                f"unknown edge type {type_name!r} in language "
                f"{self.language.name}")
        edge = Edge(name, edge_type, src, dst)
        self._edges[name] = edge
        return edge

    def set_switch(self, edge_name: str, on: bool):
        """Turn a switchable edge on or off (``set-switch``, §4.2)."""
        edge = self.edge(edge_name)
        if edge.type.fixed and not on:
            raise GraphError(
                f"edge {edge_name} has fixed type {edge.type.name}; "
                "non-programmable switches are always on (§4.3)")
        edge.on = bool(on)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name}") from None

    def edge(self, name: str) -> Edge:
        try:
            return self._edges[name]
        except KeyError:
            raise GraphError(f"unknown edge {name}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_edge(self, name: str) -> bool:
        return name in self._edges

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def edges_of(self, node_name: str, *, include_off: bool = False,
                 ) -> list[Edge]:
        """Every edge incident to the node (incoming, outgoing, self)."""
        self.node(node_name)
        found = []
        for edge in self._edges.values():
            if not include_off and not edge.on:
                continue
            if edge.src == node_name or edge.dst == node_name:
                found.append(edge)
        return found

    def in_edges(self, node_name: str, *, include_off: bool = False,
                 ) -> list[Edge]:
        """Non-self incoming edges of the node."""
        return [e for e in self.edges_of(node_name, include_off=include_off)
                if e.dst == node_name and not e.is_self]

    def out_edges(self, node_name: str, *, include_off: bool = False,
                  ) -> list[Edge]:
        """Non-self outgoing edges of the node."""
        return [e for e in self.edges_of(node_name, include_off=include_off)
                if e.src == node_name and not e.is_self]

    def self_edges(self, node_name: str, *, include_off: bool = False,
                   ) -> list[Edge]:
        """Self-referencing edges of the node."""
        return [e for e in self.edges_of(node_name, include_off=include_off)
                if e.is_self]

    def off_edges(self) -> list[Edge]:
        """Edges currently switched off."""
        return [e for e in self._edges.values() if not e.on]

    # ------------------------------------------------------------------
    # Completeness
    # ------------------------------------------------------------------

    def apply_defaults(self):
        """Fill unset attributes and initial values from the type-level
        defaults. Called before :meth:`check_complete`."""
        for node in self._nodes.values():
            for attr_name, decl in node.type.attrs.items():
                if attr_name not in node.attrs and decl.default is not None:
                    node.attrs[attr_name] = decl.default
                    node.nominal_attrs[attr_name] = decl.default
            for index, decl in node.type.inits.items():
                if index not in node.inits and decl.default is not None:
                    node.inits[index] = decl.default
                    node.nominal_inits[index] = decl.default
        for edge in self._edges.values():
            for attr_name, decl in edge.type.attrs.items():
                if attr_name not in edge.attrs and decl.default is not None:
                    edge.attrs[attr_name] = decl.default
                    edge.nominal_attrs[attr_name] = decl.default

    def check_complete(self):
        """Ensure every declared attribute and initial value is set.

        Mirrors the §4.2 semantic check that "all attributes and initial
        values defined in the node/edge type are set for each node".
        """
        problems: list[str] = []
        for node in self._nodes.values():
            for attr_name in node.type.attrs:
                if attr_name not in node.attrs:
                    problems.append(
                        f"node {node.name}: attribute {attr_name} unset")
            for index in range(node.type.order):
                if index not in node.inits:
                    problems.append(
                        f"node {node.name}: init({index}) unset")
        for edge in self._edges.values():
            for attr_name in edge.type.attrs:
                if attr_name not in edge.attrs:
                    problems.append(
                        f"edge {edge.name}: attribute {attr_name} unset")
        if problems:
            raise GraphError("incomplete dynamical graph: "
                             + "; ".join(problems))

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "DynamicalGraph":
        """Deep-enough copy: fresh nodes, edges and value dicts, types
        shared. The names are this graph's, so they are not checked
        again."""
        clone = DynamicalGraph(self.language, name or self.name)
        clone._nodes = {
            key: Node(node.name, node.type, dict(node.attrs),
                      dict(node.nominal_attrs), dict(node.inits),
                      dict(node.nominal_inits))
            for key, node in self._nodes.items()}
        clone._edges = {
            key: Edge(edge.name, edge.type, edge.src, edge.dst,
                      dict(edge.attrs), dict(edge.nominal_attrs), edge.on)
            for key, edge in self._edges.items()}
        return clone

    def stats(self) -> dict[str, int]:
        """Node/edge counts, useful in reports and tests."""
        return {
            "nodes": len(self._nodes),
            "edges": len(self._edges),
            "off_edges": len(self.off_edges()),
            "states": sum(n.type.order for n in self._nodes.values()),
        }

    def __repr__(self) -> str:
        counts = self.stats()
        return (f"<DynamicalGraph {self.name} lang={self.language.name} "
                f"nodes={counts['nodes']} edges={counts['edges']}>")
