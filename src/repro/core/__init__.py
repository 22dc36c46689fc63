"""Core Ark machinery: datatypes, expressions, languages, graphs, the
validator (§6), and the dynamical-system compiler (§5).

The public surface of this subpackage is re-exported from
:mod:`repro` — most users should ``import repro`` instead.
"""

from repro.core.datatypes import (
    INF,
    IntType,
    LambdaType,
    Mismatch,
    Noise,
    RealType,
    integer,
    lambd,
    real,
)
from repro.core.attributes import AttrDecl, InitDecl
from repro.core.types import EdgeType, NodeType, Reduction
from repro.core.production import ProductionRule
from repro.core.validation import ConstraintRule, MatchClause, Pattern
from repro.core.language import Language
from repro.core.graph import DynamicalGraph, Edge, Node
from repro.core.builder import GraphBuilder
from repro.core.function import ArkFunction
from repro.core.validator import ValidationReport, validate
from repro.core.compiler import compile_graph
from repro.core.odesystem import DiffusionTerm, OdeSystem
from repro.core.dilation import TimeDilatedSystem, dilate
from repro.core.simulator import Trajectory, simulate

__all__ = [
    "INF",
    "IntType",
    "LambdaType",
    "Mismatch",
    "Noise",
    "RealType",
    "integer",
    "lambd",
    "real",
    "AttrDecl",
    "InitDecl",
    "EdgeType",
    "NodeType",
    "Reduction",
    "ProductionRule",
    "ConstraintRule",
    "MatchClause",
    "Pattern",
    "Language",
    "DynamicalGraph",
    "Edge",
    "Node",
    "GraphBuilder",
    "ArkFunction",
    "ValidationReport",
    "validate",
    "compile_graph",
    "DiffusionTerm",
    "OdeSystem",
    "TimeDilatedSystem",
    "dilate",
    "Trajectory",
    "simulate",
]
