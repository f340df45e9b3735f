"""Every private name in src/ is read somewhere in the program.

A private name is a module-level name (a constant, function or class) or a
method whose name starts with one underscore; dunder names are the
interpreter's.  It counts as read when it is loaded, as a name or as an
attribute, somewhere in `src/cryptocubic` or `bench/` outside its own
definition.  `run_attack` reaches each staging `_attack_<scenario>` through
`globals()`, so each name in `adversary.SCENARIOS` reads its staging.  Test
files are not read: a private name only tests reach is dead weight.
"""
import ast

from cryptocubic.adversary import SCENARIOS

from test_public_names import ROOT, program_files

# the names `run_attack` looks up by their scenario
DYNAMIC_READS = {f"_attack_{scenario}" for scenario in SCENARIOS}


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def module_names(body):
    """Each (name, node) a module body binds, through `if` and `try` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(handler.body for handler in getattr(node, "handlers", []))):
                yield from module_names(block)


def private_definitions(tree):
    """Each (name, node) of a private module-level name or method."""
    for name, node in module_names(tree.body):
        if is_private(name):
            yield name, node
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(node.name):
                    yield node.name, node


def reads(tree):
    """Each (name, line) the module loads, as a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unread_private_names(trees, dynamic_reads=frozenset()):
    """(location, name) of each private definition under src/ read nowhere else.

    `trees` maps paths to parsed modules."""
    read_at = {}
    for path, tree in trees.items():
        for name, line in reads(tree):
            read_at.setdefault(name, []).append((path, line))
    unread = []
    for path, tree in trees.items():
        if ROOT / "src" not in path.parents:
            continue
        for name, node in private_definitions(tree):
            outside = [(where, line) for where, line in read_at.get(name, ())
                       if not (where == path and node.lineno <= line <= node.end_lineno)]
            if not outside and name not in dynamic_reads:
                unread.append((f"{path.relative_to(ROOT)}:{node.lineno}", name))
    return unread


def test_every_private_name_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program_files()}
    assert unread_private_names(trees, DYNAMIC_READS) == []


def test_the_guard_sees_an_unread_private_name():
    source = (
        "_TAG_RAW = b'RAW'\n_TAG_OLD = b'OLD'\n\n"
        "try:\n    import json\nexcept ImportError:\n    _missing = 'json'\n\n"
        "def _helper():\n    return _helper()\n\n"
        "class Codec:\n    def __init__(self):\n        self._used()\n\n"
        "    def _used(self):\n        return _TAG_RAW\n\n"
        "    def _unused(self):\n        return 1\n\n"
        "def _attack_staged():\n    return 1\n"
    )
    trees = {ROOT / "src" / "synthetic" / "codec.py": ast.parse(source)}
    assert [name for _, name in unread_private_names(trees, {"_attack_staged"})] == [
        "_TAG_OLD", "_missing", "_helper", "_unused"]
