"""Paper-style result rendering for the benchmark harness.

Each experiment prints (a) the measured series in the same layout the
paper's figure/table uses and (b) a paper-vs-measured speedup line, so
``pytest benchmarks/ --benchmark-only`` output doubles as the
evidence for the paper-vs-measured comparison.
"""

from __future__ import annotations

from .harness import Series


def format_seconds(seconds: float) -> str:
    """Human-scaled time: us / ms / s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds:8.3f}s "


def render_series(series: Series, baseline: str | None = None) -> str:
    """One row per label, with speedups against a baseline label."""
    lines = [f"== {series.title} =="]
    base = series.value(baseline) if baseline else None
    for label, value in zip(series.labels, series.values):
        speed = ""
        if base is not None and label != baseline and value > 0:
            speed = f"   ({base / value:5.1f}x vs {baseline})"
        lines.append(f"  {label:<18} {format_seconds(value)}{speed}")
    return "\n".join(lines)


def render_comparison_table(
    title: str,
    columns: list[str],
    rows: dict[str, list[float]],
    formatter=format_seconds,
) -> str:
    """A labelled rows x columns table (Tables 3 and 4 layout)."""
    width = max(len(c) for c in columns) + 2
    header = " " * 16 + "".join(f"{c:>{width}}" for c in columns)
    lines = [f"== {title} ==", header]
    for label, values in rows.items():
        cells = "".join(f"{formatter(v):>{width}}" for v in values)
        lines.append(f"{label:<16}{cells}")
    return "\n".join(lines)


def paper_vs_measured(
    experiment: str, paper_note: str, measured: float, unit: str = "x"
) -> str:
    """One-line provenance record tying a measurement to the paper claim."""
    return (
        f"[{experiment}] paper: {paper_note} | measured: {measured:.1f}{unit} "
        f"(shape comparison at repro scale)"
    )
