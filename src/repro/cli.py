"""Command-line interface: run Ark programs from ``.ark`` files.

Implements the §4.6 user workflow without writing Python::

    python -m repro info program.ark
    python -m repro validate program.ark --func br-func --arg br=1
    python -m repro equations program.ark --func br-func --arg br=0
    python -m repro simulate program.ark --func br-func --arg br=1 \
        --t-end 8e-8 --node OUT_V --csv out.csv
    python -m repro ensemble program.ark --func br-func --arg br=1 \
        --t-end 8e-8 --seeds 64 --node OUT_V --csv spread.csv
    python -m repro ensemble program.ark --func noisy-cell \
        --t-end 5.0 --seeds 4 --trials 16 --node x --csv noise.csv
    python -m repro ensemble program.ark --func br-func --arg br=1 \
        --t-end 8e-8 --seeds 256 --processes 8 --stream
    python -m repro dot program.ark --func br-func --arg br=1

Paradigm languages ship with the package, so an ``.ark`` file may use
``tln``/``gmc-tln``/``sw-tln``/``ns-tln``/``cnn``/``hw-cnn``/``obc``/
``ofs-obc``/``intercon-obc``/``color-obc``/``ns-obc``/``gpac``/
``hw-gpac``/``fhn``/``hw-fhn`` without redefining them (pass
``--no-prelude`` to disable).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

import numpy as np

from repro.core.compiler import compile_graph
from repro.core.export import to_dot
from repro.core.function import ArkFunction
from repro.core.simulator import simulate
from repro.core.validator import validate
from repro.errors import ArkError
from repro.lang import parse_program
from repro.lang.unparse import unparse_function, unparse_language


def _prelude_languages():
    """The shipped paradigm DSLs, importable from .ark files."""
    from repro.paradigms.cnn import cnn_language, hw_cnn_language
    from repro.paradigms.fhn import fhn_language, hw_fhn_language
    from repro.paradigms.gpac import gpac_language, hw_gpac_language
    from repro.paradigms.obc import (color_obc_language,
                                     intercon_obc_language,
                                     obc_language, ofs_obc_language)
    from repro.paradigms.obc.noisy import ns_obc_language
    from repro.paradigms.tln import (gmc_tln_language, ns_tln_language,
                                     sw_tln_language, tln_language)
    return {
        "tln": tln_language(),
        "gmc-tln": gmc_tln_language(),
        "cnn": cnn_language(),
        "hw-cnn": hw_cnn_language(),
        "obc": obc_language(),
        "ofs-obc": ofs_obc_language(),
        "intercon-obc": intercon_obc_language(),
        "color-obc": color_obc_language(),
        "gpac": gpac_language(),
        "hw-gpac": hw_gpac_language(),
        "sw-tln": sw_tln_language(),
        "ns-tln": ns_tln_language(),
        "ns-obc": ns_obc_language(),
        "fhn": fhn_language(),
        "hw-fhn": hw_fhn_language(),
    }


def _prelude_functions():
    from repro.paradigms.cnn import sat, sat_ni
    from repro.paradigms.tln import pulse
    return {"pulse": pulse, "sat": sat, "sat_ni": sat_ni}


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"argument value {text!r} is not a number") from None


def _load(args) -> tuple[dict, dict]:
    source = pathlib.Path(args.file).read_text()
    languages = _prelude_languages() if args.prelude else {}
    program = parse_program(source, languages=languages,
                            functions=_prelude_functions())
    return program.languages, program.functions


def _pick_function(functions: dict, name: str | None) -> ArkFunction:
    if name is None:
        if len(functions) != 1:
            raise ArkError(
                f"program defines {len(functions)} functions; pick one "
                f"with --func ({', '.join(functions) or 'none'})")
        return next(iter(functions.values()))
    try:
        return functions[name]
    except KeyError:
        raise ArkError(f"unknown function {name!r}; available: "
                       f"{', '.join(functions) or 'none'}") from None


def _arguments(args) -> dict:
    """The function arguments of the repeated ``--arg name=value``."""
    arguments = {}
    for pair in args.arg or []:
        if "=" not in pair:
            raise ArkError(f"--arg expects name=value, got {pair!r}")
        key, value = pair.split("=", 1)
        arguments[key] = _parse_value(value)
    return arguments


def _invoke(args) -> "DynamicalGraph":  # noqa: F821 (doc only)
    _, functions = _load(args)
    function = _pick_function(functions, args.func)
    return function.invoke(_arguments(args), seed=args.seed)


def cmd_info(args) -> int:
    languages, functions = _load(args)
    for language in languages.values():
        print(unparse_language(language))
        print()
    for function in functions.values():
        print(unparse_function(function))
        print()
    return 0


def cmd_validate(args) -> int:
    graph = _invoke(args)
    report = validate(graph, backend=args.backend)
    print(f"graph {graph.name}: "
          f"{'VALID' if report.valid else 'INVALID'}")
    for violation in report.violations:
        print(f"  - {violation}")
    return 0 if report.valid else 1


def cmd_equations(args) -> int:
    graph = _invoke(args)
    system = compile_graph(graph)
    for equation in system.equations():
        print(equation)
    return 0


def cmd_simulate(args) -> int:
    graph = _invoke(args)
    report = validate(graph, backend=args.backend)
    report.raise_if_invalid()
    trajectory = simulate(graph, (0.0, args.t_end),
                          n_points=args.points, method=args.method)
    nodes = args.node or [
        node.name for node in graph.nodes if node.type.order >= 1]
    header = ["t"] + nodes
    columns = [trajectory.t] + [trajectory[node] for node in nodes]
    matrix = np.column_stack(columns)
    if args.csv:
        np.savetxt(args.csv, matrix, delimiter=",",
                   header=",".join(header), comments="")
        print(f"wrote {matrix.shape[0]} samples x "
              f"{matrix.shape[1]} columns to {args.csv}")
    else:
        print(",".join(header))
        step = max(1, len(trajectory.t) // args.print_rows)
        for row in matrix[::step]:
            print(",".join(f"{value:.6g}" for value in row))
    return 0


class _CliFactory:
    """The ensemble command's ``factory(seed)`` as a module-level class
    so it pickles — the persistent worker pool (``--processes``)
    rebuilds instances inside worker processes. The
    parent reuses the already-validated first instance; that cached
    object is dropped from the pickled state — workers rebuild every
    seed through ``invoke``. Falls back gracefully: if the parsed
    function itself does not pickle, the plan layer's pre-flight probe
    keeps everything in-process."""

    def __init__(self, function, arguments, seed_base, first_target):
        self.function = function
        self.arguments = arguments
        self.seed_base = seed_base
        self.first_target = first_target

    def __call__(self, seed):
        if seed == self.seed_base and self.first_target is not None:
            return self.first_target
        return self.function.invoke(self.arguments, seed=seed)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["first_target"] = None
        return state


def _stats_columns(nodes, grid, matrix_for):
    """The per-node ensemble statistics block both sweep flavors emit:
    mean/std/p05/p95 columns over ``matrix_for(node)`` (an
    ``(n_runs, n_t)`` matrix), prefixed by the time column. Returns
    ``(header, matrix)`` ready for CSV/stdout."""
    header = ["t"]
    columns = [grid]
    for node in nodes:
        matrix = matrix_for(node)
        header += [f"{node}_mean", f"{node}_std", f"{node}_p05",
                   f"{node}_p95"]
        columns += [matrix.mean(axis=0), matrix.std(axis=0),
                    np.percentile(matrix, 5.0, axis=0),
                    np.percentile(matrix, 95.0, axis=0)]
    return header, np.column_stack(columns)


def cmd_ensemble(args) -> int:
    """Monte-Carlo sweep through the unified execution-plan driver:
    deterministic mismatch ensembles by default, (chips x trials)
    transient-noise sweeps with ``--trials``. The sweep's own options
    pick each group's route: a scipy ``--method`` solves per instance,
    every other group is one batched solve, pooled when ``--processes``
    > 1 and the group has at least 64 rows."""
    import time

    from repro.sim import ExecutionPlan, execute_plan, stream_plan

    if args.seeds < 1:
        raise ArkError(f"--seeds must be >= 1, got {args.seeds}")
    _, functions = _load(args)
    function = _pick_function(functions, args.func)
    arguments = _arguments(args)
    seeds = range(args.seed_base, args.seed_base + args.seeds)

    first = function.invoke(arguments, seed=args.seed_base)
    validate(first, backend=args.backend).raise_if_invalid()

    # The validated first instance is reused, not rebuilt (workers
    # rebuild it — see _CliFactory.__getstate__).
    factory = _CliFactory(function, arguments, args.seed_base, first)
    # Forward only the sweep options the user set: their defaults,
    # meanings and checks live on ExecutionPlan (a bad value raises
    # SimulationError, an ArkError).
    options = dict(n_points=args.points, method=args.method,
                   processes=args.processes,
                   cache=args.cache_dir or None,
                   max_step=args.max_step, freeze_tol=args.freeze_tol,
                   rtol=args.rtol, atol=args.atol,
                   trials=args.trials, noise_seed=args.noise_seed,
                   sde_method=args.sde_method,
                   array_backend=args.array_backend)
    plan = ExecutionPlan(
        factory=factory, seeds=list(seeds), t_span=(0.0, args.t_end),
        **{key: value for key, value in options.items()
           if value is not None})

    progress = None
    if args.progress:
        from repro.telemetry import auto_progress

        progress = auto_progress()
    report = None
    import contextlib
    if args.metrics_out or args.trace or args.trace_out:
        # One collection window covers the full run *and* the stream
        # drain, so pool waits and chunk arrivals land in the report.
        from repro.telemetry import RunReport, collect_metrics

        report = RunReport()
        window = collect_metrics(
            into=report,
            meta={"driver": "cli.ensemble", "file": str(args.file),
                  "seeds": args.seeds,
                  **({"array_backend": args.array_backend}
                     if args.array_backend else {}),
                  **({"trials": args.trials} if args.trials else {})})
    else:
        window = contextlib.nullcontext()
    start = time.perf_counter()
    with window:
        result = (stream_plan(plan, progress=progress) if args.stream
                  else execute_plan(plan, progress=progress))
        if args.stream:
            # Drain the chunk stream, narrating each finished group,
            # then reassemble — the emitted statistics/CSV are
            # bit-identical to the barriered run (test-enforced).
            from repro.sim import assemble_chunks

            chunks = []
            for chunk in result:
                chunks.append(chunk)
                flavor = "batched" if chunk.batches else "serial"
                print(f"[stream] group {chunk.order}: {len(chunk)} "
                      f"{flavor} row(s) covering {len(chunk.indices)} "
                      f"seed(s) at {time.perf_counter() - start:.2f}s")
            result = assemble_chunks(chunks, plan.seeds,
                                     trials=plan.trials)
    elapsed = time.perf_counter() - start

    from repro.analysis import ensemble_matrix

    nodes = args.node or [
        node.name for node in first.nodes if node.type.order >= 1]
    # Every (chip, trial) row, in seed order, on the shared grid.
    grid = result.trajectories[0].t
    header, matrix = _stats_columns(
        nodes, grid,
        lambda node: ensemble_matrix(result.trajectories, node, grid))
    # A deterministic sweep is the one-trial case.
    print(f"{args.seeds} chip(s) x {result.trials} trial(s) = "
          f"{len(result)} runs in {elapsed:.2f}s "
          f"({result.batched_fraction * 100:.0f}% batched: "
          f"{len(result.batches)} batch(es), "
          f"{len(result.serial_indices)} serial)")
    if args.csv:
        np.savetxt(args.csv, matrix, delimiter=",",
                   header=",".join(header), comments="")
        print(f"wrote {matrix.shape[0]} samples x "
              f"{matrix.shape[1]} columns to {args.csv}")
    else:
        print(",".join(header))
        step = max(1, len(grid) // args.print_rows)
        for row in matrix[::step]:
            print(",".join(f"{value:.6g}" for value in row))
    if report is not None:
        if args.trace:
            from repro.telemetry import render_report

            print()
            print(render_report(report))
        if args.metrics_out:
            report.save(args.metrics_out)
            print(f"wrote run metrics (schema v{report.schema}) "
                  f"to {args.metrics_out}")
        if args.trace_out:
            from repro.telemetry import export_trace
            from repro.telemetry.trace import worker_lanes

            export_trace(report, args.trace_out)
            lanes = worker_lanes(report)
            lane_note = (f", {len(lanes)} worker lane(s)" if lanes
                         else "")
            print(f"wrote Chrome trace to {args.trace_out}{lane_note} "
                  "— open in Perfetto (ui.perfetto.dev) or "
                  "chrome://tracing")
    return 0


def cmd_report(args) -> int:
    """Render, diff, validate, or trace-export saved
    :class:`~repro.telemetry.RunReport` JSONs (as written by ``repro
    ensemble --metrics-out``)."""
    import json

    from repro.telemetry import (RunReport, diff_data, diff_reports,
                                 render_report, validate_report)

    if len(args.files) > 2:
        raise ArkError(
            f"report takes one file (render) or two (diff), got "
            f"{len(args.files)}")
    loaded = []
    for path in args.files:
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as error:
            raise ArkError(f"cannot read {path}: {error}") from None
        problems = validate_report(data)
        if problems:
            detail = "; ".join(problems)
            if args.validate:
                print(f"{path}: INVALID ({detail})")
                return 1
            raise ArkError(f"{path} is not a valid RunReport: {detail}")
        loaded.append(RunReport.from_dict(data))
    if args.validate:
        for path, rep in zip(args.files, loaded):
            print(f"{path}: OK (schema v{rep.schema})")
        return 0
    if args.export_trace:
        if len(loaded) != 1:
            raise ArkError("--export-trace takes exactly one report")
        from repro.telemetry import export_trace

        export_trace(loaded[0], args.export_trace)
        print(f"wrote Chrome trace to {args.export_trace} — open in "
              f"Perfetto (ui.perfetto.dev) or chrome://tracing")
        return 0
    if len(loaded) == 1:
        if args.json:
            print(json.dumps(loaded[0].to_dict(), indent=2))
        else:
            print(render_report(loaded[0]))
    elif args.json:
        print(json.dumps(diff_data(loaded[0], loaded[1],
                                   label_a=args.files[0],
                                   label_b=args.files[1]), indent=2))
    else:
        print(diff_reports(loaded[0], loaded[1],
                           label_a=args.files[0], label_b=args.files[1]))
    return 0


def cmd_dot(args) -> int:
    graph = _invoke(args)
    print(to_dot(graph, include_attrs=args.attrs))
    return 0


def cmd_languages(args) -> int:
    """Summarize the preloaded paradigm DSLs (no .ark file needed)."""
    languages = _prelude_languages()
    if args.name:
        try:
            chosen = languages[args.name]
        except KeyError:
            raise ArkError(
                f"unknown language {args.name!r}; available: "
                f"{', '.join(sorted(languages))}") from None
        print(unparse_language(chosen))
        return 0
    print(f"{'language':>14s} {'parent':>12s} {'node types':>30s} "
          f"{'rules':>6s} {'cstr':>5s}")
    for name in sorted(languages):
        language = languages[name]
        parent = language.parent.name if language.parent else "-"
        own_nodes = ",".join(sorted(language._node_types)) or "-"
        print(f"{name:>14s} {parent:>12s} {own_nodes:>30s} "
              f"{len(language.productions()):>6d} "
              f"{len(language.constraints()):>5d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_func=True):
        p.add_argument("file", help="path to the .ark program")
        p.add_argument("--no-prelude", dest="prelude",
                       action="store_false",
                       help="do not preload the paradigm DSLs")
        if needs_func:
            p.add_argument("--func", help="function to invoke "
                           "(defaults to the only one)")
            p.add_argument("--arg", action="append", metavar="k=v",
                           help="function argument (repeatable)")
            p.add_argument("--seed", type=int, default=None,
                           help="mismatch seed (fabricated instance)")

    p_info = sub.add_parser("info", help="pretty-print the program")
    common(p_info, needs_func=False)
    p_info.set_defaults(handler=cmd_info)

    p_validate = sub.add_parser("validate",
                                help="invoke and validate a function")
    common(p_validate)
    p_validate.add_argument("--backend", default="milp",
                            choices=("milp", "flow"))
    p_validate.set_defaults(handler=cmd_validate)

    p_eq = sub.add_parser("equations",
                          help="print the compiled ODE system")
    common(p_eq)
    p_eq.set_defaults(handler=cmd_equations)

    p_sim = sub.add_parser("simulate",
                           help="validate, compile, and simulate")
    common(p_sim)
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--points", type=int, default=200)
    p_sim.add_argument("--method", default="RK45")
    p_sim.add_argument("--backend", default="milp",
                       choices=("milp", "flow"))
    p_sim.add_argument("--node", action="append",
                       help="node to output (repeatable; default: all "
                       "dynamic nodes)")
    p_sim.add_argument("--csv", help="write samples to a CSV file")
    p_sim.add_argument("--print-rows", type=int, default=20,
                       help="rows to print when not writing CSV")
    p_sim.set_defaults(handler=cmd_simulate)

    p_ens = sub.add_parser(
        "ensemble",
        help="Monte-Carlo sweep (unified plan driver): mismatch "
        "ensembles, or chips x trials transient noise with --trials")
    common(p_ens)
    p_ens.add_argument("--t-end", type=float, required=True)
    p_ens.add_argument("--seeds", type=int, default=16,
                       help="number of fabricated instances")
    p_ens.add_argument("--seed-base", type=int, default=0,
                       help="first mismatch seed (default 0)")
    p_ens.add_argument("--points", type=int, default=200)
    # Sweep options default to None and are forwarded only when set:
    # their defaults live on ExecutionPlan, which the help text quotes.
    from repro.sim import BATCH_METHODS, SDE_METHODS, ExecutionPlan
    from repro.sim.plan import DEFAULT_SHARD_MIN
    p_ens.add_argument("--method",
                       help=f"{', '.join(BATCH_METHODS)}, or a scipy "
                       "method name (one solve per instance); default "
                       f"{ExecutionPlan.method}")
    p_ens.add_argument("--trials", type=int,
                       help="noise realizations per chip: switches to "
                       "the transient-noise (SDE) sweep")
    p_ens.add_argument("--noise-seed", type=int,
                       help="first trial index of the noisy sweep "
                       "(shift for fresh realizations; default 0; "
                       "requires --trials)")
    p_ens.add_argument("--sde-method",
                       help="SDE method with --trials: "
                       f"{', '.join(SDE_METHODS)}; default "
                       f"{ExecutionPlan.sde_method}")
    p_ens.add_argument("--rtol", type=float,
                       help="relative tolerance of every sweep: the "
                       "ODE solvers, the adaptive SDE controller "
                       "(heun-adaptive) and the freeze "
                       f"criterion (default {ExecutionPlan.rtol:g})")
    p_ens.add_argument("--atol", type=float,
                       help="absolute tolerance, likewise (default "
                       f"{ExecutionPlan.atol:g})")
    p_ens.add_argument("--max-step", type=float,
                       help="solver step cap (default span/64)")
    p_ens.add_argument("--freeze-tol", type=float,
                       help="per-instance step masks: converged "
                       "instances freeze instead of forcing the "
                       "worst-case step on the whole batch")
    p_ens.add_argument("--array-backend",
                       metavar="numpy[:DTYPE]",
                       help="precision of the batched solves: numpy or "
                       "numpy:float64 (default) or numpy:float32")
    p_ens.add_argument("--backend", default="milp",
                       choices=("milp", "flow"))
    p_ens.add_argument("--processes", type=int,
                       help="worker-pool width (default: in-process): "
                       f"a group of >= {DEFAULT_SHARD_MIN} rows "
                       "(chips x trials) splits into this many shards "
                       "on the persistent zero-copy pool")
    p_ens.add_argument("--stream", action="store_true",
                       help="stream per-group results as they finish "
                       "(prints one progress line per completed "
                       "group; final statistics/CSV are identical to "
                       "the barriered run)")
    p_ens.add_argument("--cache-dir",
                       help="directory for the on-disk trajectory "
                       "cache; reruns with identical structure, "
                       "attributes, grid, and options reuse stored "
                       "integrations bit-for-bit")
    p_ens.add_argument("--node", action="append",
                       help="node to aggregate (repeatable; default: "
                       "all dynamic nodes)")
    p_ens.add_argument("--csv", help="write ensemble statistics "
                       "(mean/std/p05/p95 per node) to a CSV file")
    p_ens.add_argument("--print-rows", type=int, default=20,
                       help="rows to print when not writing CSV")
    p_ens.add_argument("--metrics-out", default=None, metavar="JSON",
                       help="collect run telemetry (solver/cache/pool/"
                       "shm counters, span tree) and write the "
                       "RunReport JSON here; results are bit-identical "
                       "with collection on or off")
    p_ens.add_argument("--trace", action="store_true",
                       help="collect run telemetry and pretty-print "
                       "the span tree and counters after the sweep")
    p_ens.add_argument("--trace-out", default=None, metavar="JSON",
                       help="collect run telemetry and export the "
                       "wall-clock timeline as Chrome Trace Event "
                       "JSON (parent spans + one lane per pool "
                       "worker); open in Perfetto or chrome://tracing")
    p_ens.add_argument("--progress", action="store_true",
                       help="live progress on stderr: a single-line "
                       "dashboard (groups done/total, instances/s, "
                       "cache hit-rate, pool busy, ETA) on a TTY, "
                       "periodic log lines otherwise")
    p_ens.set_defaults(handler=cmd_ensemble)

    p_report = sub.add_parser(
        "report",
        help="render one saved RunReport JSON, or diff two (as "
        "written by `repro ensemble --metrics-out`)")
    p_report.add_argument("files", nargs="+", metavar="report.json",
                          help="one file renders; two files diff")
    p_report.add_argument("--validate", action="store_true",
                          help="only check the files against the "
                          "RunReport schema (exit 1 on mismatch)")
    p_report.add_argument("--json", action="store_true",
                          help="machine-readable output: the "
                          "(migrated) report dict for one file, the "
                          "diff_data deltas for two")
    p_report.add_argument("--export-trace", default=None,
                          metavar="JSON",
                          help="convert one saved report to Chrome "
                          "Trace Event JSON (open in Perfetto or "
                          "chrome://tracing); v1 reports export as a "
                          "degenerate all-at-offset-0 trace")
    p_report.set_defaults(handler=cmd_report)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT")
    common(p_dot)
    p_dot.add_argument("--attrs", action="store_true",
                       help="include attribute values in labels")
    p_dot.set_defaults(handler=cmd_dot)

    p_langs = sub.add_parser(
        "languages", help="list the preloaded paradigm DSLs")
    p_langs.add_argument("name", nargs="?",
                         help="print one language's full definition")
    p_langs.set_defaults(handler=cmd_languages)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ArkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (`repro report ... | head`):
        # stop quietly instead of dumping a traceback. Detach stdout
        # so interpreter shutdown doesn't trip over the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
