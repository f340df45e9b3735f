"""Holdings tables.

Every simulation step emits one table.  A column per active party, one
variable per line: destructive slots render as ``[x]``, a live transient
scope as ``<x,y>``, and a scope that just filled a slot as ``<x,y> -- [z]``.
Funded addresses carry their balance, e.g. ``ADD ($10)``.

Tables are derived from live party state at emission time and never edited
afterwards; golden-file comparisons are byte-exact.

Consecutive tables mostly repeat each other, so `render_table` keeps the
last table and edits it in place: each column's padded header and items with
a copy of the items, and the table's lines, its step line followed by its
rows, header row first.  A header new to the table comes as a column that
held no items, so every column takes one path.  A column whose items equal
the copy under its header keeps its cells.  Otherwise the items it shares
with the copy at the top and at the bottom bound the span it re-pads, by
slice assignment into its cells and its copy, as long as its width holds.
Slice comparisons, which run in C, find them for the shapes steps make:
names added or removed at the end, and one item replaced, inserted or
removed at the top; any other change is scanned item by item.  The new
width is the wider of the old width and the changed span's items; the whole
column is measured again only when an item as wide as the old width left
it.  Only the rows from the earliest changed row to the latest are rebuilt,
down to the end of the longer copy where a column's length changed, and
they replace their slice of the lines; every other row is reused.  A new
width, header set or header order rebuilds every row, except a new width of
the last column alone: `rstrip` drops that column's padding, so it re-pads
the column and rebuilds only its changed span.  The output stays O(state)
bytes per step; the rows built and the items measured are the changed
spans.  Comparing by value with the copy, never by identity, means a list
changed in place is rendered afresh.

A call claims the memo on entry by swapping in an empty one, so a second
call that starts before the first returns, re-entrant or in another thread,
renders from scratch instead of editing the first call's lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import ne


@dataclass(frozen=True, slots=True)
class TraceEvent:
    step: int
    label: str
    columns: dict[str, list[str]]


def format_money(cents: int) -> str:
    if cents % 100 == 0:
        return f"${cents // 100}"
    return f"${cents // 100}.{cents % 100:02d}"


# the last table rendered, edited in place by the next call: its columns,
# header -> (copy of the items, padded header and items, blank cell), and its
# lines, the step line followed by the rows, header row first
_last: tuple[dict[str, tuple[list[str], list[str], str]], list[str]] = ({}, [])


def _agreeing(old, new, most: int) -> int:
    """How many leading items of `old` and `new` are equal, at most `most`."""
    return next(compress(count(), map(ne, old, new)), most)


def _span(old, new) -> tuple[int, int]:
    """How many leading and how many trailing items `old` and `new` share,
    the two spans not overlapping.  Slice comparisons catch an end that grew
    or shrank and a top item replaced, inserted or removed; only other
    changes are scanned item by item."""
    short, long = (old, new) if len(old) <= len(new) else (new, old)
    n = len(short)
    if short == long[:n]:
        return n, 0
    if short == long[len(long) - n:]:
        return 0, n
    if old[len(old) - n + 1:] == new[len(new) - n + 1:]:
        return 0, n - 1
    lo = _agreeing(old, new, n)
    return lo, _agreeing(reversed(old[lo:]), reversed(new[lo:]), n - lo)


def render_table(event: TraceEvent) -> str:
    global _last
    head = f"== {event.step}. {event.label} =="
    # built first, so that nothing runs between reading the memo and replacing it
    empty = ({}, [])
    (previous, lines), _last = _last, empty
    if not event.columns:
        # an event with no columns still ends its step line with a newline
        return head + "\n"
    lines[:1] = head,
    columns = {}
    depth = 1 + max(map(len, event.columns.values()))
    # rows first:end change, row 0 being the header row; first is 0 when
    # every row does
    first, end = len(lines) - 1, 0
    last = next(reversed(event.columns))
    for header, items in event.columns.items():
        column = columns[header] = previous.get(header) or ([], [header], " " * len(header))
        old, padded, blank = column
        if old == items:
            continue
        lo, kept = _span(old, items)
        # where the length changed, every cell below the change moved
        below = 1 + (len(items) - kept if len(old) == len(items) else max(len(old), len(items)))
        if below > end:
            end = below
        if 1 + lo < first:
            first = 1 + lo
        span = items[lo:len(items) - kept]
        width = max([len(blank), *map(len, span)])
        if width == len(blank) and width in map(len, old[lo:len(old) - kept]):
            width = max([len(header), *map(len, items)])  # the widest item may have left
        if width == len(blank):
            old[lo:len(old) - kept] = span
            padded[1 + lo:len(padded) - kept] = map(str.ljust, span, repeat(width))
        else:  # a new width re-pads the whole column
            columns[header] = (list(items), [*map(str.ljust, [header, *items], repeat(width))], " " * width)
            if header != last:  # rstrip drops only the last column's padding
                first = 0
    if first and list(columns) != list(previous):  # a header came, went or moved
        first = 0
    # rows past the new depth are gone, however far a shortened column reached
    end = depth if first == 0 else min(end, depth)
    if first < end or depth != len(lines) - 1:  # else the last table's rows all hold
        first = min(first, end)
        spans = []  # each column's cells first:end, padded with its blank
        for _, cells, blank in columns.values():
            part = cells[first:end]
            if len(cells) < end:
                part += [blank] * (end - max(first, len(cells)))
            spans.append(part)
        lines[1 + first:1 + end] = map(str.rstrip, map(" | ".join, zip(*spans)))
        del lines[1 + depth:]
    _last = (columns, lines)
    return "\n".join(lines)


def render_run(events) -> str:
    if not events:
        return ""
    return "\n\n".join(render_table(e) for e in events) + "\n"
