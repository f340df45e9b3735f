"""Rendering of per-step holdings tables, and the one owner of table state."""
import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptocubic import trace
from cryptocubic.parties import Party
from cryptocubic.protocol import Simulation
from cryptocubic.trace import Tables, TraceEvent, format_money, render_run, render_table
from test_staging import mutables


def reference_render_table(event: TraceEvent) -> str:
    # the row-by-row renderer that the column-major one replaced, verbatim
    headers = list(event.columns)
    widths = [
        max(len(h), *(len(item) for item in event.columns[h]), 0) if event.columns[h] else len(h)
        for h in headers
    ]
    depth = max((len(items) for items in event.columns.values()), default=0)
    lines = [f"== {event.step}. {event.label} =="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in range(depth):
        cells = []
        for h, w in zip(headers, widths):
            items = event.columns[h]
            cells.append((items[row] if row < len(items) else "").ljust(w))
        lines.append(" | ".join(cells).rstrip())
    return "\n".join(lines)


def test_format_money_whole_dollars():
    assert format_money(1000) == "$10"
    assert format_money(100) == "$1"
    assert format_money(0) == "$0"


def test_format_money_fractional():
    assert format_money(1050) == "$10.50"
    assert format_money(1) == "$0.01"
    # past 2**53 cents a float quotient loses the low digits
    assert format_money(999999999999999999) == "$9999999999999999.99"
    assert format_money(10**20 + 1) == "$1000000000000000000.01"


def test_render_table_shape():
    event = TraceEvent(
        step=3,
        label="a value crosses the wire",
        columns={"USER_A": ["Ka", "ADD ($10)"], "SERVER_S": ["Ks"]},
    )
    text = render_table(event)
    lines = text.split("\n")
    assert lines[0] == "== 3. a value crosses the wire =="
    assert lines[1].startswith("USER_A")
    assert "SERVER_S" in lines[1]
    # short columns pad with blanks, never collapse
    assert len(lines) == 2 + 2
    assert "Ka" in lines[2] and "Ks" in lines[2]
    assert "ADD ($10)" in lines[3]


def test_render_table_no_trailing_whitespace():
    event = TraceEvent(1, "x", {"A": ["long_item_here"], "B": ["y"]})
    for line in render_table(event).split("\n"):
        assert line == line.rstrip()


def test_render_run_joins_with_blank_line():
    events = [
        TraceEvent(1, "first", {"A": ["x"]}),
        TraceEvent(2, "second", {"A": ["y"]}),
    ]
    text = render_run(events)
    assert text.count("\n\n") == 1
    assert text.endswith("\n")
    assert not text.endswith("\n\n")


def test_render_run_empty_is_empty():
    assert render_run([]) == ""


# short texts over an alphabet with spaces, so that empty strings, trailing
# spaces and headers wider than their items all come up often
cell = st.text(alphabet="ab $()[]<>,-'_", max_size=12)


@settings(max_examples=500, deadline=None)
@given(columns=st.dictionaries(cell, st.lists(cell, max_size=6), max_size=5), step=st.integers(1, 99))
@example(columns={}, step=1)
@example(columns={"": []}, step=1)
@example(columns={"": [""], "A": []}, step=1)
@example(columns={"USER_WIDE_HEADER": ["x"], "B": ["item  ", "  "]}, step=2)
def test_render_table_matches_the_row_by_row_reference(columns, step):
    event = TraceEvent(step, "a label ", columns)
    assert render_table(event) == reference_render_table(event)


def test_render_table_without_columns_keeps_an_empty_header_line():
    assert render_table(TraceEvent(4, "nobody", {})) == "== 4. nobody ==\n"


# -- reuse of the previous table ------------------------------------------

EDITS = ("same", "copy", "append", "set", "pop", "push", "shift", "swap", "top", "clear", "add", "drop")


def edit(columns, op, index, text):
    """Change one run's columns as a simulation step might: in place or not."""
    headers = list(columns)
    if op == "add" or not headers:  # a header arrives with no items, or narrower or wider ones
        columns[text] = ([], [text[1:]], [f"{text} <wider>"])[index % 3]
        return
    header = headers[index % len(headers)]
    items = columns[header]
    if op == "copy":  # an equal new list
        columns[header] = list(items)
    elif op == "append":  # the list already rendered, changed in place
        items.append(text)
    elif op == "set" and items:
        items[index % len(items)] = text
    elif op == "pop" and items:
        items.pop()
    elif op == "push":  # a scope opening above a party's memory moves every row below it
        items.insert(0, text)
    elif op == "shift" and items:  # ...and closing
        del items[0]
    elif op == "swap" and items:  # an item in the middle, replaced by one as wide
        middle = len(items) // 2
        items[middle] = (text + "x" * len(items[middle]))[:len(items[middle])]
    elif op == "top" and items:  # a scope's bindings change above a party's memory
        items[0] = text
    elif op == "clear":
        items.clear()
    elif op == "drop":
        del columns[header]


@settings(max_examples=300, deadline=None)
@given(
    start=st.dictionaries(cell, st.lists(cell, max_size=4), max_size=3),
    steps=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(EDITS), st.integers(0, 4), cell), max_size=12
    ),
)
@example(
    start={"A": ["x"], "B": ["yy", "z"]},
    steps=[
        (0, "same", 0, ""),  # the same list objects twice
        (0, "copy", 0, ""),  # an equal new list
        (0, "append", 0, "q"),  # a list mutated in place after it was rendered
        (0, "set", 1, "a much wider cell"),  # a width that grows...
        (0, "set", 1, "w"),  # ...and shrinks
        (0, "add", 0, "C"),  # a column added...
        (0, "drop", 2, ""),  # ...and dropped
        (1, "same", 0, ""),  # a second run with the same headers, alternately
        (0, "same", 0, ""),
        (1, "set", 0, "r"),
        (0, "same", 0, ""),
    ],
)
@example(
    start={"A": ["a", "bb", "c", "d"], "B": ["e"]},
    steps=[
        (0, "set", 4, "a much wider cell"),  # the longest column widens...
        (0, "set", 4, "a"),  # ...and narrows
        (0, "push", 0, "f"),
        (0, "swap", 0, "g"),
        (0, "shift", 0, ""),
    ],
)
@example(
    start={"A": ["x", "y"], "B": ["zz"]},
    steps=[
        (0, "shift", 0, ""),
        (0, "pop", 0, ""),  # the longest column empties
        (0, "same", 0, ""),
        (0, "append", 0, "w"),
    ],
)
@example(
    start={"A": ["x", "y"], "B": ["z", "q", "r"]},
    steps=[
        (0, "set", 1, "a much wider cell"),  # only the last column widens...
        (0, "set", 1, "w"),  # ...and narrows, its one changed row in the middle
        (0, "append", 1, "a wider tail"),  # ...and widens as it grows
    ],
)
@example(
    start={"A": ["x", "y"], "B": ["<k>", "the widest", "n"], "C": ["z", "q"]},
    steps=[
        (0, "top", 1, "<k,t>"),  # one item replaced at the top of a middle column...
        (0, "top", 1, "<a wider scope line>"),  # ...by a wider one...
        (0, "top", 1, "<k>"),  # ...and the widest, at the top, by a shorter one
        (0, "set", 4, "w"),  # the widest, in the middle, replaced by a shorter one
        (0, "push", 1, "<p,q>"),  # one item inserted at the top...
        (0, "shift", 1, ""),  # ...and removed
        (0, "append", 1, "the widest again"),
        (0, "shift", 1, ""),  # the top item removed while the widest stays
        (0, "pop", 1, ""),  # the widest leaves from the end of a middle column
        (0, "clear", 1, ""),  # a middle column becomes empty...
        (0, "append", 1, "back"),  # ...and fills again
    ],
)
@example(
    start={"A": ["x"], "B": ["y", "the longest"]},
    steps=[
        (0, "append", 1, "t"),  # names appended to the end of the last column...
        (0, "append", 1, "a tail wider than all"),  # ...widening it
        (0, "pop", 1, ""),  # ...and removed from its end, the widest first
        (0, "pop", 1, ""),
        (0, "push", 1, "<s>"),  # one item inserted at the top of the last column...
        (0, "shift", 1, ""),  # ...and removed
        (0, "top", 1, "<a wide top item>"),
        (0, "top", 1, "<s>"),
        (0, "clear", 1, ""),  # the last column becomes empty...
        (0, "clear", 0, ""),  # ...and then every column
        (0, "append", 0, "x"),
    ],
)
@example(
    start={"A": ["x", "y"], "B": ["z"]},
    steps=[
        (0, "set", 0, "w"),
        (0, "add", 0, "C"),  # a header arrives mid-run as the last column, with no items...
        (0, "add", 1, "DD"),  # ...with items narrower than it...
        (0, "add", 2, "E"),  # ...and wider than it
        (0, "drop", 2, ""),  # a header in the middle leaves
        (1, "add", 1, "G"),  # the other run's table: DD and E leave as G arrives in their place
        (0, "same", 0, ""),  # ...and come back as G leaves
        (0, "drop", 3, ""),  # the last column leaves...
        (0, "add", 2, "H"),  # ...and a wider one arrives in its place
    ],
)
def test_a_sequence_of_tables_matches_the_reference(start, steps):
    runs = [{header: list(items) for header, items in start.items()} for _ in range(2)]
    events, memo = [], []
    for step, (run, op, index, text) in enumerate(steps, 1):
        edit(runs[run], op, index, text)
        events.append(TraceEvent(step, "a label", dict(runs[run])))
        before = [{header: list(items) for header, items in e.columns.items()} for e in events]
        assert render_table(events[-1], memo) == reference_render_table(events[-1])
        # the memo's lists, edited in place, are never the caller's
        assert [e.columns for e in events] == before


def test_the_memo_holds_only_the_last_table():
    long_run = Simulation(mode="cryptocubic")
    long_run.setup("a")
    long_run.fund("a", 1000)
    for sender, receiver in ["ab", "ba"] * 5:
        long_run.transfer(sender, receiver)
    short_run = Simulation(mode="cryptocubic")
    short_run.setup("a")
    memo = []
    for event in [*long_run.events, *short_run.events]:
        render_table(event, memo)
    text = render_run(short_run.events)
    last = short_run.events[-1]
    assert text.endswith(render_table(last) + "\n")
    # one padded column per header of the last table, and its step line and rows
    (columns, lines), = memo
    assert lines[0] == f"== {last.step}. {last.label} =="
    rows = lines[1:]
    assert list(columns) == list(last.columns)
    for header, (items, cells, blank) in columns.items():
        assert items == last.columns[header]
        assert len(cells) == len(items) + 1 and len(blank) == len(cells[0])
    assert len(rows) == max(len(cells) for _, cells, _ in columns.values())
    assert render_table(last) == "\n".join([f"== {last.step}. {last.label} ==", *rows])


@pytest.fixture(scope="module")
def long_bounce():
    """The tables of one square handed back and forth by 40 transfers."""
    sim = Simulation(mode="cryptocubic")
    sim.setup("A")
    sim.fund("A", 1000)
    for sender, receiver in ["AB", "BA"] * 20:
        sim.transfer(sender, receiver)
    return sim.events


def test_a_long_bounce_renders_every_table_as_the_reference(long_bounce):
    # its columns widen and narrow, and a scope opens and closes above the
    # server's memory on every transfer
    memo = []
    for event in long_bounce:
        assert render_table(event, memo) == reference_render_table(event)


def test_threads_rendering_interleaved_runs_each_get_the_reference(long_bounce):
    # each thread edits its own memo, so neither edits the lists the other
    # is editing, and each call renders the table the reference does
    expected = [reference_render_table(event) for event in long_bounce]
    orders = [range(len(long_bounce)), range(len(long_bounce) - 1, -1, -1)]
    rendered = [[], []]

    def render(order, out):
        memo = []
        for _ in range(3):
            out += [(index, render_table(long_bounce[index], memo)) for index in order]

    threads = [threading.Thread(target=render, args=pair) for pair in zip(orders, rendered)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in rendered:
        assert len(out) == 3 * len(long_bounce)
        assert all(text == expected[index] for index, text in out)


def test_a_long_bounce_builds_only_the_rows_its_steps_changed(long_bounce):
    built = 0
    previous = []  # kept alive, so that no new row takes the id of an old one
    memo = []
    for event in long_bounce:
        render_table(event, memo)
        rows = memo[0][1][1:]  # a copy: the memo's lines are edited in place
        shared = set(map(id, previous))
        built += sum(id(row) not in shared for row in rows)
        previous = rows
    # every row of every table would be 100,000 and more
    assert built <= 16_600


def test_a_long_bounce_scans_and_measures_only_the_spans_its_steps_changed(long_bounce, monkeypatch):
    scanned = measured = 0

    def counting_ne(a, b):
        nonlocal scanned
        scanned += 1
        return a != b

    def counting_len(obj):
        nonlocal measured
        measured += type(obj) is str
        return len(obj)

    monkeypatch.setattr(trace, "ne", counting_ne)  # each item `_agreeing` walks
    monkeypatch.setattr(trace, "len", counting_len, raising=False)  # each width measured
    memo = []
    for event in long_bounce:
        render_table(event, memo)
    # scanning and measuring every changed column walks 51,834 items and
    # measures 67,149 widths
    assert scanned <= 1_000
    assert measured <= 10_000


# -- table state lives only in the table observer -----------------------------


def test_a_run_whose_only_observer_reads_no_table_builds_none(monkeypatch):
    built = Counter()

    def counting(what, original):
        def counted(*args, **kwargs):
            built[what] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(TraceEvent, "__init__", counting("events", TraceEvent.__init__))
    monkeypatch.setattr(Tables, "_column", counting("columns", Tables._column))
    monkeypatch.setattr(trace, "_annotate", counting("annotations", trace._annotate))

    def run(observer):
        sim = Simulation(mode="cryptocubic", record=False)
        sim.observers.append(observer)
        sim.setup("a")
        sim.fund("a", 1000)
        sim.transfer("a", "b")
        sim.redeem("b", "ext", 600)
        return sim.steps

    labels = []
    assert run(lambda sim, label, handoff: labels.append(label)) == len(labels)
    assert built == {}
    # the counters count: a table observer builds a column per party and step
    steps = run(Tables())
    assert built["events"] == steps and built["columns"] > 2 * steps and built["annotations"]


def test_the_trace_module_keeps_no_state():
    tree = ast.parse(Path(trace.__file__).read_text(encoding="utf-8"))

    def mutable(node):
        comprehensions = (ast.ListComp, ast.DictComp, ast.SetComp)
        return (isinstance(node, (ast.List, ast.Dict, ast.Set, ast.Call, *comprehensions))
                or isinstance(node, ast.Tuple) and any(map(mutable, node.elts)))

    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Global)]
    bound = [node.lineno for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and mutable(node.value)]
    assert bound == []
    # a mutable default value is module state too
    defaults = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and any(map(mutable, [*node.args.defaults, *filter(None, node.args.kw_defaults)]))]
    assert defaults == []


def test_a_simulation_keeps_no_table_state():
    sim = Simulation(mode="cryptocubic")
    sim.setup("a")
    sim.fund("a", 1000)
    sim.transfer("a", "b")
    tables, _ = sim.observers
    assert isinstance(tables, Tables) and tables.events is sim.events
    # nothing but the recorded events and the observer reaches a column or a memo
    reached = mutables({name: value for name, value in vars(sim).items() if name not in ("events", "observers")})
    columns = {id(column) for event in sim.events for column in event.columns.values()}
    assert not columns & reached.keys()
    assert not any(isinstance(value, Tables) for value in reached.values())
    assert not any(isinstance(value, dict) and any(isinstance(key, Party) for key in value)
                   for value in reached.values())


def test_a_party_new_under_a_known_name_is_not_served_the_old_one_s_memo():
    sim = Simulation(mode="cryptocubic", record=False)
    sim.setup("a")
    tables, first = Tables(), sim.user("a")
    assert tables._memory_items(first, sim.ledger) == list(first.memory)
    second = Party(first.name)  # as after a rolled-back setup: the same name, listing and ledger
    for name, value in reversed(first.memory.items()):
        second.remember(name, value)
    assert second.listing == first.listing
    assert tables._memory_items(second, sim.ledger) == list(reversed(first.memory))
