"""No module imports a name it never uses.

An `ast` scan of every Python file under `src/`, `tests/`, `tools/` and
`demos/`: each name an `import` binds must be read somewhere in its file, as
a name or as the base of an attribute, or be listed in `__all__`.  Package
`__init__.py` files are exempt, since their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "tools", "demos")
               for path in (ROOT / folder).rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def test_files_are_found():
    assert {path.parent.name for path in FILES} >= {"spotsim", "tests", "tools", "demos"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(system.argv, d)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]
