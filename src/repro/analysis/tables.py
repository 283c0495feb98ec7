"""Plain-text result tables.

The benchmark harness prints one :class:`ResultTable` per experiment and
writes it to ``benchmarks/results/<ID>_<scale>.txt``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["ResultTable"]


def _plain(value: object) -> object:
    """A JSON/CSV-serializable rendering of one cell value.

    Numpy scalars (the experiment code's ``np.mean`` outputs and
    ``Instance`` dimensions) become their Python equivalents so exports
    round-trip through :func:`json.loads` to *equal* values.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()  # numpy scalar -> python scalar
        except (AttributeError, ValueError):  # pragma: no cover - defensive
            pass
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass
class ResultTable:
    """A small column-oriented table with text rendering.

    Attributes
    ----------
    title:
        Table caption (usually the experiment id and a one-line description).
    columns:
        Column names, in display order.
    rows:
        List of dictionaries; missing keys render as blanks.
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row given as keyword arguments."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Attach a free-text note rendered under the table."""
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """All values of one column (missing entries as ``None``)."""
        return [row.get(name) for row in self.rows]

    @staticmethod
    def _format(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def render(self) -> str:
        """Render the table as aligned plain text."""
        header = list(self.columns)
        body = [[self._format(row.get(col)) for col in header] for row in self.rows]
        widths = [max(len(header[c]), *(len(r[c]) for r in body)) if body else len(header[c])
                  for c in range(len(header))]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in body:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render the table as GitHub-flavoured markdown."""
        header = "| " + " | ".join(self.columns) + " |"
        sep = "| " + " | ".join("---" for _ in self.columns) + " |"
        rows = ["| " + " | ".join(self._format(row.get(col)) for col in self.columns) + " |"
                for row in self.rows]
        out = [f"**{self.title}**", "", header, sep, *rows]
        out.extend(f"*{note}*" for note in self.notes)
        return "\n".join(out)

    # ------------------------------------------------------------------
    # export (used by `python -m repro run --export`)
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Render as CSV text: a header row, then one line per row.

        Cells carry raw values (``str(value)``, full float precision),
        not the display formatting of :meth:`render` — an exported table
        is data to reload, not text to align.  Missing cells are empty.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if row.get(col) is None
                             else str(_plain(row.get(col)))
                             for col in self.columns])
        return buffer.getvalue()

    def to_json(self, *, indent: int = 2) -> str:
        """Render as a JSON document: title, columns, rows, notes.

        Lossless up to numpy-scalar conversion: ``json.loads`` gives back
        every cell of a table whose cells are plain scalars (NaN uses the
        JavaScript-style ``NaN`` token Python's json module emits and
        accepts).
        """
        payload = {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [{key: _plain(value) for key, value in row.items()}
                     for row in self.rows],
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=indent) + "\n"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.render()
