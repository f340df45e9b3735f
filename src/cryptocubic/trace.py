"""Holdings tables.

Every simulation step emits one table.  A column per active party, one
variable per line: destructive slots render as ``[x]``, a live transient
scope as ``<x,y>``, and a scope that just filled a slot as ``<x,y> -- [z]``.
Funded addresses carry their balance, e.g. ``ADD ($10)``.

Tables are derived from live party state at emission time and never edited
afterwards; golden-file comparisons are byte-exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True)
class TraceEvent:
    step: int
    label: str
    columns: dict[str, list[str]]


def format_money(cents: int) -> str:
    if cents % 100 == 0:
        return f"${cents // 100}"
    return f"${cents / 100:.2f}"


def render_table(event: TraceEvent) -> str:
    columns = event.columns
    depth = max(map(len, columns.values()), default=0)
    padded = []
    for header, items in columns.items():
        cells = [header, *items, *[""] * (depth - len(items))]
        padded.append(map(str.ljust, cells, repeat(max(map(len, cells)))))
    # an event with no columns still renders its (empty) header line
    rows = map(str.rstrip, map(" | ".join, zip(*padded))) if padded else [""]
    return "\n".join([f"== {event.step}. {event.label} ==", *rows])


def render_run(events) -> str:
    if not events:
        return ""
    return "\n\n".join(render_table(e) for e in events) + "\n"
