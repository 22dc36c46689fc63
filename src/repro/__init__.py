"""Reproduction of *Design of Novel Analog Compute Paradigms with Ark*
(Wang, Cowan, Rührmair, Achour — ASPLOS 2024).

Ark is a programming language for describing analog compute paradigms as
domain-specific languages. This package provides:

* the dynamical-graph computational model and the Ark language core
  (:mod:`repro.core`);
* a textual front-end for the paper's concrete grammar (:mod:`repro.lang`);
* the three paradigm DSLs of the paper — transmission-line networks,
  cellular nonlinear networks, oscillator-based computing — with their
  hardware extensions (:mod:`repro.paradigms`);
* a circuit-level GmC substrate for the §4.5 empirical validation
  (:mod:`repro.circuits`);
* analysis utilities and a PUF toolkit (:mod:`repro.analysis`,
  :mod:`repro.puf`);
* a batched ensemble simulation engine for Monte-Carlo mismatch
  studies (:mod:`repro.sim`).

Quickstart::

    import repro

    lang = repro.Language("decay")
    lang.node_type("X", order=1, reduction="sum")
    lang.edge_type("Self")
    lang.prod("prod(e:Self, s:X->s:X) s <= -var(s)")

    g = repro.GraphBuilder(lang, "one-pole")
    g.node("x", "X").edge("x", "x", "e0", "Self").set_init("x", 1.0)
    graph = g.finish()

    repro.validate(graph).raise_if_invalid()
    trajectory = repro.simulate(graph, (0.0, 5.0))
    print(trajectory["x"][-1])   # ~ exp(-5)
"""

from repro.core import (
    INF,
    ArkFunction,
    AttrDecl,
    ConstraintRule,
    DynamicalGraph,
    Edge,
    EdgeType,
    GraphBuilder,
    InitDecl,
    IntType,
    Language,
    LambdaType,
    MatchClause,
    Mismatch,
    Node,
    NodeType,
    OdeSystem,
    Pattern,
    ProductionRule,
    RealType,
    Reduction,
    TimeDilatedSystem,
    Trajectory,
    ValidationReport,
    compile_graph,
    dilate,
    integer,
    lambd,
    real,
    simulate,
    validate,
)
from repro.errors import (
    ArkError,
    CompileError,
    DatatypeError,
    FunctionError,
    GraphError,
    InheritanceError,
    LanguageError,
    ParseError,
    SimulationError,
    ValidationError,
)
from repro.framework import RunResult, run
from repro.sim import (BatchTrajectory, EnsembleResult, run_ensemble,
                       simulate_sde, solve_sde)

__version__ = "1.0.0"

__all__ = [
    "INF",
    "ArkFunction",
    "AttrDecl",
    "ConstraintRule",
    "DynamicalGraph",
    "Edge",
    "EdgeType",
    "GraphBuilder",
    "InitDecl",
    "IntType",
    "Language",
    "LambdaType",
    "MatchClause",
    "Mismatch",
    "Node",
    "NodeType",
    "OdeSystem",
    "Pattern",
    "ProductionRule",
    "RealType",
    "Reduction",
    "TimeDilatedSystem",
    "Trajectory",
    "ValidationReport",
    "compile_graph",
    "dilate",
    "integer",
    "lambd",
    "real",
    "simulate",
    "validate",
    "ArkError",
    "CompileError",
    "DatatypeError",
    "FunctionError",
    "GraphError",
    "InheritanceError",
    "LanguageError",
    "ParseError",
    "SimulationError",
    "ValidationError",
    "RunResult",
    "run",
    "BatchTrajectory",
    "EnsembleResult",
    "run_ensemble",
    "simulate_sde",
    "solve_sde",
    "__version__",
]
