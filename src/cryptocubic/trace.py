"""Holdings tables.

Every simulation step emits one table.  A column per active party, one
variable per line: destructive slots render as ``[x]``, a live transient
scope as ``<x,y>``, and a scope that just filled a slot as ``<x,y> -- [z]``.
Funded addresses carry their balance, e.g. ``ADD ($10)``.

Tables are derived from live party state at emission time and never edited
afterwards; golden-file comparisons are byte-exact.

Consecutive tables mostly repeat each other, so `render_table` keeps the
last table's padded columns, each with a copy of its items, and its body.
A column whose items equal the copy under its header reuses its cells; when
all columns are reused, in the same order, so is the body.  Comparing by
value, never by identity, means a list changed in place is rendered afresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat


@dataclass(frozen=True)
class TraceEvent:
    step: int
    label: str
    columns: dict[str, list[str]]


def format_money(cents: int) -> str:
    if cents % 100 == 0:
        return f"${cents // 100}"
    return f"${cents // 100}.{cents % 100:02d}"


# the last table rendered, replaced whole by each call: its columns, header
# -> (copy of the items, padded header and items, blank cell), and its body
_last: tuple[dict[str, tuple[list[str], list[str], str]], str] = ({}, "")


def render_table(event: TraceEvent) -> str:
    global _last
    previous, body = _last
    columns = {}
    reused = 0
    for header, items in event.columns.items():
        column = previous.get(header)
        if column is not None and column[0] == items:
            reused += 1
        else:
            cells = [header, *items]
            width = max(map(len, cells))
            column = (list(items), [*map(str.ljust, cells, repeat(width))], " " * width)
        columns[header] = column
    if reused < len(columns) or list(columns) != list(previous):
        depth = max((len(items) for items, _, _ in columns.values()), default=0)
        padded = [
            chain(cells, repeat(blank, depth - len(items)))
            for items, cells, blank in columns.values()
        ]
        body = "\n".join(map(str.rstrip, map(" | ".join, zip(*padded))))
    _last = (columns, body)
    # an event with no columns still ends its step line with a newline
    return f"== {event.step}. {event.label} ==\n{body}"


def render_run(events) -> str:
    if not events:
        return ""
    return "\n\n".join(render_table(e) for e in events) + "\n"
