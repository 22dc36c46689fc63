"""T-line topology builders (Figs. 2, 5, 8).

The paper simulates 53-node linear and branched lines: a current source
(``InpI_0``) drives ``IN_V`` through its source conductance, the line
alternates ``I_k``/``V_k`` segments, and ``OUT_V`` terminates the far end.
With L = C = 1e-9 every segment contributes 1 ns of delay and the
characteristic impedance is 1, so the matched line shows the 0.5-amplitude
pulse of Fig. 4b and the branched line the ~0.3 pulse plus echo of
Fig. 4a.

``linear_tline``/``branched_tline`` accept *variants* that perform the
progressive-rewriting substitutions of Fig. 5:

* ``node_variant="cint"`` swaps ``V``/``I`` for the mismatched ``Vm``/
  ``Im`` types (Cint mismatch, Fig. 4c);
* ``edge_variant="gm"`` swaps line edges for ``Em`` (Gm mismatch,
  Fig. 4d).

``branched_tline_function`` builds the paper's ``br-func`` (Fig. 8): an
Ark function with a ``br`` bit that switches the branch on or off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.builder import GraphBuilder, fabricate
from repro.core.datatypes import integer
from repro.core.function import (ArkFunction, EdgeStmt, FuncArg, Literal,
                                 NodeStmt, SetAttrStmt, SetInitStmt,
                                 SetSwitchStmt)
from repro.core.exprparse import parse_expression
from repro.core.graph import DynamicalGraph
from repro.core.language import Language
from repro.errors import GraphError
from repro.paradigms.tln.gmc import gmc_tln_language
from repro.paradigms.tln.language import tln_language
from repro.paradigms.tln.waveforms import pulse, pulse_breakpoints

#: Default segment count: IN_V + 26 I segments + 25 interior V + OUT_V
#: equals the paper's 53-node line (the input source is not counted).
DEFAULT_SEGMENTS = 26


@dataclass(frozen=True)
class TLineSpec:
    """Electrical parameters shared by the t-line builders."""

    n_segments: int = DEFAULT_SEGMENTS
    inductance: float = 1e-9
    capacitance: float = 1e-9
    resistance: float = 0.0
    conductance: float = 0.0
    source_conductance: float = 1.0
    termination: float = 1.0
    pulse_start: float = 0.0
    pulse_width: float = 2e-8

    def input_waveform(self):
        """The paper's trapezoidal pulse, closed over this spec."""
        t0, width = self.pulse_start, self.pulse_width
        waveform = lambda t: pulse(t, t0, width)  # noqa: E731
        # Equal-parameter waveforms are interchangeable: the tag lets
        # the batched ensemble codegen share one callable across
        # instances instead of dispatching per instance. Its kinks
        # follow from the same parameters; the batched adaptive solver
        # lands its steps on them.
        waveform._ark_vector_key = ("tln-pulse", t0, width)
        waveform._ark_breakpoints = pulse_breakpoints(t0, width)
        return waveform


def _variant_types(node_variant: str, edge_variant: str,
                   ) -> tuple[str, str, str]:
    if node_variant == "ideal":
        v_type, i_type = "V", "I"
    elif node_variant == "cint":
        v_type, i_type = "Vm", "Im"
    else:
        raise GraphError(f"unknown node variant {node_variant!r}; "
                         "expected 'ideal' or 'cint'")
    if edge_variant == "ideal":
        e_type = "E"
    elif edge_variant == "gm":
        e_type = "Em"
    else:
        raise GraphError(f"unknown edge variant {edge_variant!r}; "
                         "expected 'ideal' or 'gm'")
    return v_type, i_type, e_type


def _pick_language(language: Language | None, node_variant: str,
                   edge_variant: str) -> Language:
    if language is not None:
        return language
    if node_variant == "ideal" and edge_variant == "ideal":
        return tln_language()
    return gmc_tln_language()


class _LineBuilder:
    """Shared plumbing for the t-line topologies.

    ``self_edge_type``/``self_edge_attrs`` configure the damping self
    edges every segment carries — the transient-noise stack swaps the
    plain ``E`` for the noisy ``En`` (ns-tln) and writes its per-segment
    ``nsig`` amplitude there.
    """

    def __init__(self, language: Language, name: str, spec: TLineSpec,
                 v_type: str, i_type: str, e_type: str,
                 seed: int | None, self_edge_type: str = "E",
                 self_edge_attrs: dict | None = None):
        self.builder = GraphBuilder(language, name, seed=seed)
        self.spec = spec
        self.v_type = v_type
        self.i_type = i_type
        self.e_type = e_type
        self.self_edge_type = self_edge_type
        self.self_edge_attrs = dict(self_edge_attrs or {})
        self._edge_count = 0

    def _next_edge(self) -> str:
        name = f"E_{self._edge_count}"
        self._edge_count += 1
        return name

    def _add_self_edge(self, name: str):
        edge_name = f"Es_{name}"
        self.builder.edge(name, name, edge_name, self.self_edge_type)
        for attr, value in self.self_edge_attrs.items():
            self.builder.set_attr(edge_name, attr, value)

    def add_v(self, name: str, g: float | None = None):
        spec = self.spec
        self.builder.node(name, self.v_type)
        self.builder.set_attr(name, "c", spec.capacitance)
        self.builder.set_attr(name, "g",
                              spec.conductance if g is None else g)
        self.builder.set_init(name, 0.0)
        self._add_self_edge(name)

    def add_i(self, name: str):
        spec = self.spec
        self.builder.node(name, self.i_type)
        self.builder.set_attr(name, "l", spec.inductance)
        self.builder.set_attr(name, "r", spec.resistance)
        self.builder.set_init(name, 0.0)
        self._add_self_edge(name)

    def connect(self, src: str, dst: str,
                edge_type: str | None = None) -> str:
        name = self._next_edge()
        edge_type = edge_type or self.e_type
        self.builder.edge(src, dst, name, edge_type)
        if edge_type in ("Em", "Esw"):
            self.builder.set_attr(name, "ws", 1.0)
            self.builder.set_attr(name, "wt", 1.0)
        return name

    def add_source(self, target: str, waveform=None):
        spec = self.spec
        self.builder.node("InpI_0", "InpI")
        self.builder.set_attr("InpI_0", "fn",
                              waveform or spec.input_waveform())
        self.builder.set_attr("InpI_0", "g", spec.source_conductance)
        self.connect("InpI_0", target)

    def chain(self, start: str, end: str, n_segments: int,
              prefix: str = "", first_edge_type: str | None = None,
              ) -> str:
        """Alternating I/V ladder from ``start`` to ``end``; returns the
        name of its first (junction) edge ``start -> {prefix}I_0``.

        ``first_edge_type`` overrides the type of the junction edge —
        e.g. the sw-tln ``Esw`` switch at a PUF branch root.
        """
        previous = start
        junction = None
        for k in range(n_segments):
            i_name = f"{prefix}I_{k}"
            self.add_i(i_name)
            edge = self.connect(previous, i_name,
                                first_edge_type if k == 0 else None)
            junction = junction or edge
            if k == n_segments - 1:
                self.connect(i_name, end)
            else:
                v_name = f"{prefix}V_{k}"
                self.add_v(v_name)
                self.connect(i_name, v_name)
                previous = v_name
        return junction


def linear_tline(spec: TLineSpec = TLineSpec(), *,
                 node_variant: str = "ideal",
                 edge_variant: str = "ideal",
                 seed: int | None = None,
                 language: Language | None = None,
                 waveform=None,
                 noise: float = 0.0) -> DynamicalGraph:
    """The linear t-line of Fig. 2(ii) (53 nodes at default size).

    Topology: ``InpI_0 -> IN_V -> I_0 -> V_0 -> ... -> I_{n-1} -> OUT_V``
    with matched termination at both ends.

    :param noise: per-segment thermal-noise amplitude; > 0 swaps the
        damping self edges for the ns-tln ``En`` type, turning the
        compiled system into an SDE (integrate it with
        :func:`repro.sim.solve_sde`).
    """
    v_type, i_type, e_type = _variant_types(node_variant, edge_variant)
    self_edge_type, self_edge_attrs = "E", None
    if noise > 0.0:
        if language is None:
            from repro.paradigms.tln.noisy import ns_tln_language
            language = ns_tln_language()
        self_edge_type, self_edge_attrs = "En", {"nsig": noise}
    language = _pick_language(language, node_variant, edge_variant)

    def build(seed) -> GraphBuilder:
        line = _LineBuilder(language, "linear-tline", spec, v_type,
                            i_type, e_type, seed,
                            self_edge_type=self_edge_type,
                            self_edge_attrs=self_edge_attrs)
        line.add_v("IN_V", g=0.0)
        line.add_v("OUT_V", g=spec.termination)
        line.add_source("IN_V", waveform)
        line.chain("IN_V", "OUT_V", spec.n_segments)
        return line.builder

    return fabricate(language, ("linear-tline", spec, node_variant,
                                edge_variant, waveform, noise),
                     build, seed)


def branched_tline(spec: TLineSpec = TLineSpec(), *,
                   branch_segments: int = 10,
                   node_variant: str = "ideal",
                   edge_variant: str = "ideal",
                   seed: int | None = None,
                   language: Language | None = None,
                   waveform=None) -> DynamicalGraph:
    """The branched t-line of Fig. 2(i).

    A stub of ``branch_segments`` LC segments hangs off ``IN_V`` and ends
    open, so the injected pulse splits at the junction (dropping the
    transmitted amplitude to ~0.3) and the stub round-trip returns an
    echo ~2*branch_segments ns later — the shaded window of Fig. 4a.
    """
    v_type, i_type, e_type = _variant_types(node_variant, edge_variant)
    language = _pick_language(language, node_variant, edge_variant)

    def build(seed) -> GraphBuilder:
        line = _LineBuilder(language, "branched-tline", spec, v_type,
                            i_type, e_type, seed)
        line.add_v("IN_V", g=0.0)
        line.add_v("OUT_V", g=spec.termination)
        line.add_source("IN_V", waveform)
        line.chain("IN_V", "OUT_V", spec.n_segments)
        # Open-ended stub: its far V keeps g=0, so the wave reflects back.
        line.add_v("Vb_end", g=0.0)
        line.chain("IN_V", "Vb_end", branch_segments, prefix="b")
        return line.builder

    return fabricate(language, ("branched-tline", spec, branch_segments,
                                node_variant, edge_variant, waveform),
                     build, seed)


def mismatched_tline(kind: str, spec: TLineSpec = TLineSpec(), *,
                     seed: int | None = None,
                     language: Language | None = None) -> DynamicalGraph:
    """The progressive substitutions of Fig. 5 on the linear line.

    :param kind: ``"cint"`` (Vm/Im node substitution, Fig. 5(i)) or
        ``"gm"`` (Em edge substitution, Fig. 5(ii)).
    """
    if kind == "cint":
        return linear_tline(spec, node_variant="cint", seed=seed,
                            language=language)
    if kind == "gm":
        return linear_tline(spec, edge_variant="gm", seed=seed,
                            language=language)
    raise GraphError(f"unknown mismatch kind {kind!r}; expected 'cint' "
                     "or 'gm'")


def branched_tline_function(spec: TLineSpec = TLineSpec(), *,
                            branch_segments: int = 10,
                            language: Language | None = None,
                            ) -> ArkFunction:
    """The paper's ``br-func`` (Fig. 8) as a statement-based Ark function.

    ``br_func(br=0)`` yields the linear line, ``br_func(br=1)`` the
    branched line: the branch stays in the graph but its junction edge is
    switched off, which also demonstrates that validation runs on the
    realized topology.
    """
    language = language or tln_language()
    statements = []

    def set_attr(owner, attr, value):
        statements.append(SetAttrStmt(owner, attr, Literal(value)))

    edge_count = [0]

    def connect(src, dst, type_name="E"):
        name = f"E_{edge_count[0]}"
        edge_count[0] += 1
        statements.append(EdgeStmt(src, dst, name, type_name))
        return name

    def add_v(name, g=0.0):
        statements.append(NodeStmt(name, "V"))
        set_attr(name, "c", spec.capacitance)
        set_attr(name, "g", g)
        statements.append(SetInitStmt(name, 0, Literal(0.0)))
        statements.append(EdgeStmt(name, name, f"Es_{name}", "E"))

    def add_i(name):
        statements.append(NodeStmt(name, "I"))
        set_attr(name, "l", spec.inductance)
        set_attr(name, "r", spec.resistance)
        statements.append(SetInitStmt(name, 0, Literal(0.0)))
        statements.append(EdgeStmt(name, name, f"Es_{name}", "E"))

    def chain(start, end, n, prefix=""):
        """Build the ladder and return the name of its first edge."""
        previous = start
        first_edge = None
        for k in range(n):
            i_name = f"{prefix}I_{k}"
            add_i(i_name)
            junction = connect(previous, i_name)
            if first_edge is None:
                first_edge = junction
            if k == n - 1:
                connect(i_name, end)
            else:
                v_name = f"{prefix}V_{k}"
                add_v(v_name)
                connect(i_name, v_name)
                previous = v_name
        return first_edge

    add_v("IN_V", g=0.0)
    add_v("OUT_V", g=spec.termination)
    statements.append(NodeStmt("InpI_0", "InpI"))
    statements.append(SetAttrStmt("InpI_0", "fn",
                                  Literal(spec.input_waveform())))
    set_attr("InpI_0", "g", spec.source_conductance)
    connect("InpI_0", "IN_V")
    chain("IN_V", "OUT_V", spec.n_segments)
    add_v("Vb_end", g=0.0)
    branch_edge = chain("IN_V", "Vb_end", branch_segments, prefix="b")
    statements.append(SetSwitchStmt(branch_edge,
                                    parse_expression("br == 1")))

    return ArkFunction("br-func", language,
                       args=[FuncArg("br", integer(0, 1))],
                       statements=statements)
