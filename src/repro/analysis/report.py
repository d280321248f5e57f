"""Plain-text table rendering for experiment output.

The benchmarks print the regenerated tables/figures with these
helpers so the bench output reads like the paper's artifacts.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["render_table", "render_kv"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an ASCII table with column auto-sizing."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+".join("-" * (w + 2) for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append("|".join(f" {h:<{w}} " for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append("|".join(f" {c:<{w}} " for c, w in zip(row, widths)))
    lines.append(sep)
    return "\n".join(lines)


def render_kv(pairs: Iterable[tuple[str, Any]], title: str = "") -> str:
    """Render key/value pairs as an aligned block."""
    pairs = list(pairs)
    width = max((len(k) for k, _ in pairs), default=0)
    lines = [title] if title else []
    lines.extend(f"  {k:<{width}} : {_fmt(v)}" for k, v in pairs)
    return "\n".join(lines)
