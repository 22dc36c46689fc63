#!/usr/bin/env python
"""Lint: no direct numpy inside the array-backend hot paths.

The array-namespace abstraction (``repro.sim.array_api``) only works if
the compiled-kernel and solver step loops go through the injected
backend handle (``B``/``xp``/``self.backend``) for *every* array
operation — one stray ``np.zeros`` in a step loop silently computes a
float32 run in float64 and poisons the dtype policy.
This checker walks the AST of the files below and fails on any ``np.``
attribute access, bare ``numpy`` reference, or ``import numpy`` inside
the listed *forbidden zones* (the functions that execute per solver
step on backend arrays).

Deliberate host crossings — output-buffer allocation, trajectory
assembly — are allowed by marking the statement with the pragma
comment ``# ark: host-boundary`` on any line the statement spans.

The zone list is verified against the source: a zone that no longer
exists (renamed or deleted function) is itself an error, so a refactor
cannot silently drop coverage.

Usage::

    python tools/check_no_direct_numpy.py          # lint the repo
    python tools/check_no_direct_numpy.py --list   # show the zones

Exits 0 when clean, 1 with ``file:line: message`` diagnostics
otherwise. Stdlib only — safe for any CI image.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Names that count as "direct numpy" when referenced inside a zone.
NUMPY_ALIASES = ("np", "numpy")

PRAGMA = "# ark: host-boundary"

#: file (repo-relative) -> qualnames whose bodies must be numpy-free.
#: Module-level code, other functions, and the assembly/IO layers
#: (BatchTrajectory, caches, drivers) are intentionally NOT listed:
#: they own the host boundary.
FORBIDDEN_ZONES: dict[str, tuple[str, ...]] = {
    "src/repro/sim/batch_solver.py": (
        "freeze_converged",
        "_error_norms",
        "_freeze_offenders",
        "_rk4_batch",
        "_rkf45_stages",
        "_rkf45_batch",
        "_rkf45_dense_batch",
        "_hermite_point",
        "_quartic_coefficients",
        "_quartic_eval",
    ),
    "src/repro/sim/sde_solver.py": (
        "_scatter",
        "_ScatterAccumulator.__call__",
        "_noise_settle",
        "_sde_loop",
        "_sde_adaptive_loop",
    ),
    "src/repro/sim/batch_codegen.py": (
        "BatchRhs.__call__",
        "BatchRhs.diffusion",
        "BatchRhs.diffusion_derivative",
    ),
}


def _pragma_lines(source: str) -> set[int]:
    """1-based numbers of lines carrying the host-boundary pragma."""
    return {number for number, line in enumerate(source.splitlines(), 1)
            if PRAGMA in line}


def _spans_pragma(node: ast.AST, pragmas: set[int]) -> bool:
    """Whether any line the node spans carries the pragma (multi-line
    calls put the comment on the closing line)."""
    start = getattr(node, "lineno", None)
    if start is None:
        return False
    end = getattr(node, "end_lineno", start)
    return any(line in pragmas for line in range(start, end + 1))


class _ZoneChecker(ast.NodeVisitor):
    """Collects direct-numpy references inside one zone's body.

    Pragma granularity is the enclosing *statement*: a multi-line
    buffer allocation carries ``# ark: host-boundary`` on whichever
    line the comment landed, and the whole statement is excused.
    """

    def __init__(self, path: str, pragmas: set[int]):
        self.path = path
        self.pragmas = pragmas
        self.problems: list[str] = []

    def check_statement(self, statement: ast.stmt):
        if _spans_pragma(statement, self.pragmas):
            return
        self.visit(statement)

    def _flag(self, node: ast.AST, message: str):
        self.problems.append(
            f"{self.path}:{node.lineno}: {message}")

    def generic_visit(self, node: ast.AST):
        # Route every nested statement (loop bodies, branches) back
        # through the statement-level pragma check.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.check_statement(child)
            else:
                self.visit(child)

    def visit_Import(self, node: ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "numpy":
                self._flag(node, "import numpy inside a backend zone")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom):
        if (node.module or "").split(".")[0] == "numpy":
            self._flag(node, "from numpy import inside a backend zone")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name):
        if node.id in NUMPY_ALIASES:
            self._flag(node, f"direct numpy reference {node.id!r} "
                       f"(use the backend handle / xp namespace)")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef):
        # Signatures (annotations, defaults like ``xp=np``) document
        # the host-reference contract and are evaluated once at import,
        # never per step — only the *body* of a nested function is
        # zone-checked.
        for statement in node.body:
            self.check_statement(statement)

    visit_AsyncFunctionDef = visit_FunctionDef


def _zone_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """qualname -> def node for every function in the module (one
    class level deep, matching the zone-table notation)."""
    table: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table[f"{node.name}.{member.name}"] = member
    return table


def check_file(path: pathlib.Path, zones: tuple[str, ...],
               display: str) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    pragmas = _pragma_lines(source)
    table = _zone_functions(tree)
    problems = []
    for qualname in zones:
        node = table.get(qualname)
        if node is None:
            problems.append(
                f"{display}:1: forbidden zone {qualname!r} not found "
                f"— update FORBIDDEN_ZONES in "
                f"tools/check_no_direct_numpy.py to match the "
                f"refactor")
            continue
        checker = _ZoneChecker(display, pragmas)
        # Check the zone body only; the def line (annotations such as
        # ``grid: np.ndarray`` and defaults such as ``xp=np``) states
        # the host-facing contract and runs once at import time.
        for statement in node.body:
            checker.check_statement(statement)
        problems.extend(checker.problems)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the forbidden zones and exit")
    arguments = parser.parse_args(argv)
    if arguments.list:
        for file, zones in FORBIDDEN_ZONES.items():
            for qualname in zones:
                print(f"{file}: {qualname}")
        return 0
    problems: list[str] = []
    for file, zones in FORBIDDEN_ZONES.items():
        path = REPO_ROOT / file
        if not path.exists():
            problems.append(f"{file}:1: zone file missing — update "
                            f"FORBIDDEN_ZONES")
            continue
        problems.extend(check_file(path, zones, file))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} direct-numpy problem(s); route array "
              f"math through the backend (xp) or mark a deliberate "
              f"host crossing with '{PRAGMA}'", file=sys.stderr)
        return 1
    total = sum(len(zones) for zones in FORBIDDEN_ZONES.values())
    print(f"no-direct-numpy: {total} zones clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
