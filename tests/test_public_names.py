"""Every public function and class in src/ has a caller outside tests.

A definition counts as used when its name appears, as an identifier, an
attribute, an imported name or a string, somewhere in `src/cryptocubic` or
`bench/` outside the definition itself.  A module-level function counts as
an attribute only of its own module (`scenario.run_scenario`), so a method
of the same name (`cmd.pretty()`) is no caller of it.  A method named like
an attribute of a builtin container or string (`get`, `insert`, `count`)
counts only through a mention in a module that names its class, or through
`self.<name>` inside that class, so `d.get(...)` on a dict is no caller of
it.  Test files are not read, and neither are the package's re-exports in
`__init__.py`: a name only tests reach is dead weight in the program.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# names a ROADMAP item will give a caller, each with that item
ALLOWED = {
    "replay_journal": "item 4: the `inspect` command reads --journal files",
    "verdict_report": "item 3: the sweep report prints the verdict matrix",
}


def open_roadmap_items():
    """The numbers of the items under ROADMAP.md's "Open items" heading."""
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    section = text.split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    return {int(number) for number in re.findall(r"^- \*\*(\d+)\. ", section, re.MULTILINE)}


def test_each_allowed_name_cites_an_open_roadmap_item():
    items = open_roadmap_items()
    assert items  # the heading and the item format were found
    for name, reason in ALLOWED.items():
        cited = re.match(r"item (\d+): ", reason)
        assert cited and int(cited[1]) in items, (name, reason)


def program_files():
    files = sorted((ROOT / "src" / "cryptocubic").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    return [path for path in files if not path.name.startswith("test_")]


def public_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


def named_at(tree):
    """Every (name, line, owner) the module mentions; owner is the name an
    attribute is read from (`x` in `x.name`), and None for anything else."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, getattr(node.value, "id", "")
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, None


# names a mention on a builtin value (`d.get`, `text.count`) may stand for
BUILTIN_ATTRIBUTES = frozenset().union(*map(dir, (dict, list, set, str, bytes, tuple)))


def unused_public_names(trees=None):
    """(location, name) of each public definition in src/ named nowhere else.

    `trees` maps paths to parsed modules; by default the program's files."""
    if trees is None:
        trees = {path: ast.parse(path.read_text(), str(path)) for path in program_files()}
    mentions = {}
    names_in = {}
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for name, line, owner in named_at(tree):
                mentions.setdefault(name, []).append((path, line, owner))
                names_in.setdefault(path, set()).add(name)

    unused = []
    for path, tree in trees.items():
        if ROOT / "src" not in path.parents:
            continue
        module_functions = {
            node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        class_of = {
            method: cls
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for method in cls.body if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        def counts(node, where, line, owner):
            if where == path and node.lineno <= line <= node.end_lineno:
                return False  # the definition itself
            if node in module_functions:
                return owner in (None, path.stem)
            cls = class_of.get(node)
            if cls is not None and node.name in BUILTIN_ATTRIBUTES:
                inside = where == path and cls.lineno <= line <= cls.end_lineno
                return (owner == "self" and inside) or cls.name in names_in.get(where, ())
            return True

        for node in public_definitions(tree):
            if not any(counts(node, *mention) for mention in mentions.get(node.name, ())):
                unused.append((f"{path.relative_to(ROOT)}:{node.lineno}", node.name))
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = unused_public_names()
    assert [entry for entry in unused if entry[1] not in ALLOWED] == []
    # an allowed name that gained a caller, or left src/, is a stale entry
    assert {name for _, name in unused} == set(ALLOWED)


def parsed(sources):
    """Synthetic modules under src/, parsed and keyed by path."""
    return {ROOT / "src" / "synthetic" / name: ast.parse(text) for name, text in sources.items()}


BOX = "class Box:\n    def get(self):\n        return 1\n\n    def count(self):\n        return 2\n"


def test_a_builtin_named_method_is_not_used_by_a_dict_call():
    # the former rule counted `d.get(...)` and `d.count(...)` as callers of Box's methods
    trees = parsed({"box.py": BOX, "reader.py": "def read(d):\n    return d.get(1), d.count(2)\n"})
    assert sorted(name for _, name in unused_public_names(trees)) == ["Box", "count", "get", "read"]


def test_a_builtin_named_method_is_used_where_its_class_is_named_or_through_self():
    sources = {
        "box.py": BOX.replace("return 2", "return self.get()"),
        "reader.py": "from box import Box\n\ndef read(b):\n    return b.count()\n",
    }
    assert [name for _, name in unused_public_names(parsed(sources))] == ["read"]
