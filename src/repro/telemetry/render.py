"""Human-readable views of saved :class:`RunReport` files.

Backs the ``repro report`` subcommand and ``repro ensemble --trace``:
:func:`render_report` draws the span tree (box-drawing, per-span wall
time, percent of total) followed by the counter table, gauges, memory
peaks, and per-worker blocks; :func:`diff_reports` lines two reports up
counter-by-counter with absolute and relative deltas — the intended
workflow being cold-vs-warm cache, batch-vs-pool, before-vs-after a
perf change.

:func:`diff_data` is the machine-readable form of the same comparison
— one deltas dict, the one ``repro report --json`` prints, so the text
and JSON diffs agree on what "X% slower" means.
"""

from __future__ import annotations

from .report import RunReport


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _fmt_value(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    if isinstance(value, list):
        if len(value) > 6:
            head = ", ".join(_fmt_value(v) for v in value[:6])
            return f"[{head}, ... {len(value)} total]"
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return str(value)


def _fmt_bytes(nbytes: float) -> str:
    nbytes = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(nbytes) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(nbytes)}{unit}"
            return f"{nbytes:.1f}{unit}"
        nbytes /= 1024.0
    return f"{nbytes:.1f}GiB"  # pragma: no cover - unreachable


def render_span_tree(spans: list, total_seconds: float) -> list[str]:
    """The span forest as indented box-drawing lines."""
    lines: list[str] = []

    def walk(node: dict, prefix: str, child_prefix: str) -> None:
        seconds = float(node.get("seconds", 0.0))
        share = (f" ({seconds / total_seconds * 100:4.1f}%)"
                 if total_seconds > 0 else "")
        lines.append(f"{prefix}{node.get('name', '?')}  "
                     f"{_fmt_seconds(seconds)}{share}")
        children = node.get("children", [])
        for index, child in enumerate(children):
            last = index == len(children) - 1
            walk(child,
                 child_prefix + ("└─ " if last else "├─ "),
                 child_prefix + ("   " if last else "│  "))

    for node in spans:
        walk(node, "", "")
    return lines


def render_report(report: RunReport) -> str:
    """The full pretty-printed report (what ``repro report f.json``
    prints for a single file)."""
    lines: list[str] = []
    meta = " ".join(f"{k}={v}" for k, v in sorted(report.meta.items()))
    lines.append(f"RunReport (schema {report.schema})"
                 + (f"  {meta}" if meta else ""))
    lines.append(f"wall time: {_fmt_seconds(report.wall_seconds)}")
    if report.spans:
        lines.append("")
        lines.append("spans:")
        lines.extend("  " + line for line in
                     render_span_tree(report.spans, report.wall_seconds))
    if report.counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in report.counters)
        for name in sorted(report.counters):
            lines.append(f"  {name.ljust(width)}  "
                         f"{_fmt_value(report.counters[name])}")
    memory = {name: value for name, value in report.gauges.items()
              if name.startswith("mem.")}
    gauges = {name: value for name, value in report.gauges.items()
              if name not in memory}
    if gauges:
        lines.append("")
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name.ljust(width)}  "
                         f"{_fmt_value(gauges[name])}")
    if memory:
        lines.append("")
        lines.append("memory:")
        width = max(len(name) for name in memory)
        for name in sorted(memory):
            value = memory[name]
            shown = (_fmt_bytes(value) if name.endswith("_bytes")
                     or "_bytes_" in name else _fmt_value(value))
            lines.append(f"  {name.ljust(width)}  {shown}")
    if report.workers:
        lines.append("")
        lines.append("workers:")
        for worker in sorted(report.workers):
            block = report.workers[worker]
            parts = " ".join(f"{key}={_fmt_value(block[key])}"
                             for key in sorted(block))
            lines.append(f"  {worker}: {parts}")
    return "\n".join(lines)


def diff_data(a: RunReport, b: RunReport,
              label_a: str = "a", label_b: str = "b") -> dict:
    """Machine-readable comparison of two reports — the comparator
    behind ``repro report <a> <b> --json`` and :func:`diff_reports`.

    Every compared quantity gets an entry ``{"a", "b", "delta",
    "ratio"}`` where ``ratio`` is ``b / a`` (``None`` when ``a`` is 0,
    so consumers cannot divide by zero by accident). Scalar gauges are
    compared by value only; list-valued gauges are skipped.
    """
    def entry(va: float, vb: float) -> dict:
        return {"a": va, "b": vb, "delta": vb - va,
                "ratio": (vb / va) if va else None}

    counters = {name: entry(a.counters.get(name, 0),
                            b.counters.get(name, 0))
                for name in sorted(set(a.counters) | set(b.counters))}
    gauges = {}
    for name in sorted(set(a.gauges) | set(b.gauges)):
        va = a.gauges.get(name)
        vb = b.gauges.get(name)
        if isinstance(va, list) or isinstance(vb, list):
            continue
        gauges[name] = {"a": va, "b": vb}
    return {
        "labels": {"a": label_a, "b": label_b},
        "wall_seconds": entry(a.wall_seconds, b.wall_seconds),
        "counters": counters,
        "gauges": gauges,
    }


def diff_reports(a: RunReport, b: RunReport,
                 label_a: str = "a", label_b: str = "b") -> str:
    """Counter-by-counter comparison of two reports (the text view of
    :func:`diff_data`)."""
    data = diff_data(a, b, label_a, label_b)
    lines: list[str] = []
    lines.append(f"diff: {label_a} -> {label_b}")
    wall = data["wall_seconds"]
    pct = (f" ({wall['delta'] / wall['a'] * 100:+.1f}%)"
           if wall["a"] > 0 else "")
    lines.append(f"wall time: {_fmt_seconds(wall['a'])} -> "
                 f"{_fmt_seconds(wall['b'])}{pct}")
    if data["counters"]:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in data["counters"])
        for name, row in data["counters"].items():
            delta = row["delta"]
            mark = "" if delta == 0 else f"  ({delta:+g})"
            lines.append(
                f"  {name.ljust(width)}  "
                f"{_fmt_value(row['a'])} -> {_fmt_value(row['b'])}"
                f"{mark}")
    if data["gauges"]:
        lines.append("")
        lines.append("gauges:")
        width = max(len(name) for name in data["gauges"])
        for name, row in data["gauges"].items():
            va = "-" if row["a"] is None else row["a"]
            vb = "-" if row["b"] is None else row["b"]
            lines.append(f"  {name.ljust(width)}  "
                         f"{_fmt_value(va)} -> {_fmt_value(vb)}")
    return "\n".join(lines)
