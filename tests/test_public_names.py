"""Every public function and class in src/ has a caller outside tests.

A definition counts as used when its name appears, as an identifier, an
attribute, an imported name or a string, somewhere in `src/cryptocubic` or
`bench/` outside the definition itself.  A module-level function counts as
an attribute only of its own module (`scenario.run_scenario`), so a method
of the same name (`cmd.pretty()`) is no caller of it.  Test files are not
read, and neither are the package's re-exports in `__init__.py`: a name
only tests reach is dead weight in the program.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# names a ROADMAP item will give a caller, each with that item
ALLOWED = {
    "replay_journal": "item 4: the `inspect` command reads --journal files",
    "verdict_report": "item 3: the sweep report prints the verdict matrix",
}


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


def unused_public_names():
    """(location, name) of each public definition in src/ named nowhere else."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program_files()}
    mentions = {}
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for name, line, owner in named_at(tree):
                mentions.setdefault(name, []).append((path, line, owner))
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" not in path.parents:
            continue
        module_functions = {
            node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in public_definitions(tree):
            if not any(
                (where != path or not node.lineno <= line <= node.end_lineno)
                and (node not in module_functions or owner in (None, path.stem))
                for where, line, owner in mentions.get(node.name, ())
            ):
                unused.append((f"{path.relative_to(ROOT)}:{node.lineno}", node.name))
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = unused_public_names()
    assert [entry for entry in unused if entry[1] not in ALLOWED] == []
    # an allowed name that gained a caller, or left src/, is a stale entry
    assert {name for _, name in unused} == set(ALLOWED)
