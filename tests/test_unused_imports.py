"""No module in src/ or tests/ imports a name it never reads.

Every name an `import` binds must be loaded somewhere in its module, as a
name or as the base of an attribute (`hashlib` in `hashlib.sha256`).
`from __future__` imports are exempt, and so are the package's re-exports
in `__init__.py`.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def source_modules():
    files = sorted((ROOT / "src" / "cryptocubic").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    return [path for path in files if path.name != "__init__.py"]


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def unused_imports(source):
    """(name, line) of every imported name the source never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in imported_names(tree) if name not in read]


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in source_modules() for name, line in unused_imports(path.read_text())]
    assert not unused, "imported and never read:\n" + "\n".join(unused)


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom json import dumps, loads as read\n"
              "read(os.sep)\n")
    assert unused_imports(source) == [("dumps", 4)]
