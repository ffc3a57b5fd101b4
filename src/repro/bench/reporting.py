"""Figure output containers and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.utils.tables import format_table


def results_file_name(figure_id: str) -> str:
    """The one naming rule: ``"Figure 8"`` -> ``figure_8.txt``,
    ``"§5.2"`` -> ``sec5_2.txt``, ``"Ablation slo"`` -> ``ablation_slo.txt``."""
    slug = (
        figure_id.lower().replace(" ", "_").replace("§", "sec").replace(".", "_")
    )
    return f"{slug}.txt"


@dataclass
class FigureTable:
    """One reproduced figure/table: the rows the paper plots, plus notes."""

    figure_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    plot: str = ""
    """Terminal art rendered after the notes (Figure 7's roofline)."""

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @property
    def file_name(self) -> str:
        """Where the rendered table is saved (``benchmarks/results/``, ``--out``)."""
        return results_file_name(self.figure_id)

    def render(self) -> str:
        header = f"== {self.figure_id}: {self.title} =="
        body = format_table(list(self.headers), self.rows)
        parts = [header, body]
        if self.notes:
            parts.append("\n".join(f"  note: {n}" for n in self.notes))
        if self.plot:
            parts.append("\n" + self.plot)
        return "\n".join(parts)

    def column(self, name: str) -> list[object]:
        """Extract one column by header name (for claims over the rows)."""
        idx = list(self.headers).index(name)
        return [row[idx] for row in self.rows]
