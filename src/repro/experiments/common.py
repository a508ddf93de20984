"""Shared infrastructure for the paper-reproduction experiments.

Each ``repro.experiments.*`` module reproduces one table or figure: it
returns structured results and can render them as the rows/series the
paper reports.  The ``benchmarks/`` tree wraps these runners with
pytest-benchmark; ``EXPERIMENTS.md`` records their output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ExperimentResult", "format_table"]


@dataclass
class ExperimentResult:
    """One experiment's outcome: identity, series/rows, and the claim."""

    experiment: str  # e.g. "Figure 8"
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def column(self, name: str) -> List[Any]:
        return [row[name] for row in self.rows]

    def render(self) -> str:
        header = f"== {self.experiment}: {self.title} =="
        body = format_table(self.rows) if self.rows else "(no rows)"
        notes = "\n".join(f"  note: {n}" for n in self.notes)
        return "\n".join(filter(None, [header, body, notes]))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return ""
    columns = list(rows[0].keys())
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in cells)) for i in range(len(columns))
    ]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
