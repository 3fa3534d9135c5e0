"""The decision path reads GPU context only as `Layout` rows.

An `ast` scan of the mapper, the planner and the simulator: none of them
names `ContextInventory` or `required_context`, as a name, an attribute or
an import, nor calls `Layout.of`.  Those are the per-inventory form that
tests and demos build layouts from; the golden test that patches them to
raise covers only the bundled scenario, while this holds for every input.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spotsim"
DECISION_PATH = ("mapping.py", "migration.py", "simulator.py")
FORBIDDEN = {"ContextInventory", "required_context"}


def inventory_uses(source: str) -> list[str]:
    """Where `source` names a forbidden name or `Layout.of`, in walk order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
            if node.attr == "of" and isinstance(node.value, ast.Name) and node.value.id == "Layout":
                names = ["Layout.of"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name in FORBIDDEN or name == "Layout.of"]
    return found


@pytest.mark.parametrize("name", DECISION_PATH)
def test_decision_path_names_no_inventory(name):
    assert inventory_uses((SRC / name).read_text()) == []


def test_an_inventory_use_is_found():
    source = ("from .domain import ContextInventory as CI\n"
              "x = domain.required_context(c, p, m)\n"
              "y = Layout.of({})\n"
              "z = other.of(1)  # another type's `of` is fine\n")
    assert inventory_uses(source) == ["ContextInventory (line 1)", "required_context (line 2)",
                                      "Layout.of (line 3)"]
