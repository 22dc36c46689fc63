"""``repro.telemetry`` — zero-overhead-when-disabled instrumentation
for the execution-plan engine.

Usage, from the outside in::

    from repro.telemetry import collect_metrics

    with collect_metrics(meta={"workload": "tline"}) as report:
        result = run_ensemble(system, seeds=range(64), ...)
    report.save("report.json")          # schema-stable JSON
    print(report.counter("solver.nfev"))

Library code emits unconditionally via the module-level helpers
(:func:`add`, :func:`gauge`, :func:`append`, :func:`span`,
:func:`merge_worker`); each is a no-op behind a single ContextVar check
when no collection window is open, so the hooks stay compiled into hot
paths at negligible disabled cost. Telemetry never touches the numbers
being computed — bit-identity with collection on vs off is
test-enforced, and so is a hook count that does not grow with solver
work.

``repro ensemble --metrics-out report.json --trace`` and the ``repro
report`` subcommand are the CLI surface over the same objects.
"""

from .collect import (Collector, add, append, collect_metrics, current,
                      enabled, gauge, gauge_max, merge_worker, span)
from .progress import (LogProgress, ProgressSink, TtyProgress,
                       auto_progress)
from .render import (diff_data, diff_reports, render_report,
                     render_span_tree)
from .report import (READABLE_SCHEMAS, SCHEMA_VERSION, RunReport,
                     migrate_report, validate_report)
from .trace import export_trace, to_chrome_trace, trace_events

__all__ = [
    "READABLE_SCHEMAS",
    "SCHEMA_VERSION",
    "Collector",
    "LogProgress",
    "ProgressSink",
    "RunReport",
    "TtyProgress",
    "add",
    "append",
    "auto_progress",
    "collect_metrics",
    "current",
    "diff_data",
    "diff_reports",
    "enabled",
    "export_trace",
    "gauge",
    "gauge_max",
    "merge_worker",
    "migrate_report",
    "render_report",
    "render_span_tree",
    "span",
    "to_chrome_trace",
    "trace_events",
    "validate_report",
]
