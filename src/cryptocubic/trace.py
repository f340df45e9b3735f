"""Holdings tables.

Every simulation step emits one table.  A column per active party, one
variable per line: destructive slots render as ``[x]``, a live transient
scope as ``<x,y>``, and a scope that just filled a slot as ``<x,y> -- [z]``.
Funded addresses carry their balance, e.g. ``ADD ($10)``.

Tables are derived from live party state at emission time and never edited
afterwards; golden-file comparisons are byte-exact.  `Tables`, a step
observer, alone builds them and keeps what they are built from; a run
without one builds no table.

Consecutive tables mostly repeat each other, so `render_table` edits in
place the last table rendered with the same memo, a list its caller owns:
each column's padded header and items with a copy of the items, and the
table's lines, its step line followed by its rows, header row first.  A
header new to the table comes as a column that held no items, so every
column takes one path.  A column whose items equal the copy under its header
keeps its cells.  Otherwise the items it shares with the copy at the top and
at the bottom bound the span it re-pads, by slice assignment into its cells
and its copy, as long as its width holds.  Slice comparisons, which run in
C, find them for the shapes steps make: names added or removed at the end,
and one item replaced, inserted or removed at the top; any other change is
scanned item by item.  The new width is the wider of the old width and the
changed span's items; the whole column is measured again only when an item
as wide as the old width left it.  Only the rows from the earliest changed
row to the latest are rebuilt, down to the end of the longer copy where a
column's length changed, and they replace their slice of the lines; every
other row is reused.  A new width, header set or header order rebuilds every
row, except a new width of the last column alone: `rstrip` drops that
column's padding, so it re-pads the column and rebuilds only its changed
span.  The output stays O(state) bytes per step; the rows built and the
items measured are the changed spans.  Comparing by value with the copy,
never by identity, means a list changed in place is rendered afresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import ne
from weakref import ref

from .backend import Address
from .ledger import UnknownAddress
from .parties import SERVER


@dataclass(frozen=True, slots=True)
class TraceEvent:
    step: int
    label: str
    columns: dict[str, list[str]]


def format_money(cents: int) -> str:
    if cents % 100 == 0:
        return f"${cents // 100}"
    return f"${cents // 100}.{cents % 100:02d}"


def _annotate(ledger, name: str, address: Address) -> str:
    try:
        balance = ledger.balance(address.value)
    except UnknownAddress:
        balance = 0
    return f"{name} ({format_money(balance)})" if balance > 0 else name


class Tables:
    """The table observer.  Called as `observer(sim, label, handoff)` at each
    step, where `handoff` is a scope and the slot it just filled, it appends
    the step's table to `events`: a column per party, the first user's, the
    server's, then the other users' in order of arrival.  `memo` is its
    `render_table` memo.

    A party's memory items, each funded address annotated with its balance,
    are reused while its listing (`Party.listing`) and the ledger's version
    hold.  While the ledger holds, a value replaced under a name that shows
    no address reuses them, and names added at the end extend a copy; any
    other change rebuilds them.  A column equal to the last step's is that
    step's object, and no list is mutated once handed out.  Both memos are
    keyed by party name; the memory memo holds its party by weak reference,
    so a party the run let go is neither kept alive nor taken for a newcomer
    of the same name."""

    def __init__(self, events: list[TraceEvent] | None = None) -> None:
        self.events = [] if events is None else events
        self.memo: list = []
        self._memory: dict[str, tuple[ref, int, int, list[str]]] = {}  # party, listing, ledger version, items
        # the last column with scope or slot items: those items, the memory items and the column
        self._columns: dict[str, tuple[list[str], list[str], list[str]]] = {}

    def __call__(self, sim, label: str, handoff) -> None:
        server, *users = sim.parties.values()
        columns = {party.name: self._column(sim, party, handoff) for party in [*users[:1], server, *users[1:]]}
        self.events.append(TraceEvent(sim.steps, label, columns))

    def _column(self, sim, party, handoff) -> list[str]:
        # one item per open scope, then full slots, then memory; the scope in
        # `handoff` shows the slot it just filled as "-- [x]", listed only there
        items, handed = [], None
        for proc in party.procedures:
            rendered = f"<{','.join(proc.bindings)}>"
            if handoff is not None and proc is handoff[0]:
                handed = handoff[1]
                rendered += f" -- [{handed}]"
            items.append(rendered)
        if party.name == SERVER:
            for square in sim.squares.values():
                if square.slot_display != handed and sim.store.ping(square.slot_id):
                    items.append(f"[{square.slot_display}]")
        memory = self._memory_items(party, sim.ledger)
        if not items:
            return memory
        last = self._columns.get(party.name)
        if last is not None and last[1] is memory and last[0] == items:
            return last[2]  # an unchanged column is the last one
        column = items + memory
        self._columns[party.name] = items, memory, column
        return column

    def _memory_items(self, party, ledger) -> list[str]:
        listing, version = party.listing, ledger.version
        memo = self._memory.get(party.name)
        if memo is not None and memo[1] == listing and memo[2] == version and memo[0]() is party:
            return memo[3]
        items, pairs = [], party.memory.items()
        if memo is not None and memo[2] == version and memo[0]() is party:
            # each change moves the listing by one, and only an added name
            # lengthens memory: if both moved alike, names only came
            added = listing - memo[1]
            if added == len(party.memory) - len(memo[3]):
                items, pairs = memo[3], reversed([*islice(reversed(pairs), added)])
        items = items + [_annotate(ledger, name, value) if type(value) is Address else name
                         for name, value in pairs]
        self._memory[party.name] = ref(party), listing, version, items
        return items


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


def render_table(event: TraceEvent, memo: list | None = None) -> str:
    """The event's table.  `memo`, a list the caller owns, holds the last table
    rendered with it as (header -> (copy of the items, padded header and
    items, blank cell), lines), and this call edits it into its own."""
    head = f"== {event.step}. {event.label} =="
    memo = [] if memo is None else memo
    previous, lines = memo.pop() if memo else ({}, [])
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
    memo.append((columns, lines))
    return "\n".join(lines)


def render_run(events) -> str:
    if not events:
        return ""
    return "\n\n".join(map(render_table, events, repeat([]))) + "\n"  # one memo for the run
