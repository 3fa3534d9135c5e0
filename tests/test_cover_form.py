"""The planner covers model context and KV cache by one rule.

An `ast` scan of `spotsim/migration.py`: `_cover_from_holders`, which picks
the senders of the pieces with a choice of sender, each over its layer run,
is named in exactly one place, the cover of `_Moves.covered` that serves
both kinds of context and merges those choices with the forced sub-pieces
`_pieces` found (pieces whose live copies tile them).  A second call, or an
alias that could be called elsewhere, would be a second cover path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spotsim"
COVER = "_cover_from_holders"


def uses(source: str, name: str) -> list[tuple[str, int]]:
    """Each place `source` names `name`, as a bare name, an attribute or an
    import that renames it, but not in its own `def` and not in a type
    annotation, which names a class without building it: the enclosing
    function's qualified name (`<module>` at the top level) and the line,
    in source order."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if isinstance(child, ast.arg) or child in (getattr(node, "returns", None),
                                                       getattr(node, "annotation", None)):
                continue
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.alias) and child.name == name and child.asname)):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_one_place_covers_model_and_cache():
    found = uses((SRC / "migration.py").read_text(), COVER)
    assert [scope for scope, _ in found] == ["_Moves.covered"], found


def test_every_use_is_found():
    source = ("def _cover_from_holders():\n"
              "    pass\n"
              "def a():\n"
              "    _cover_from_holders()\n"
              "class B:\n"
              "    def c(self):\n"
              "        f = migration._cover_from_holders\n"
              "g = _cover_from_holders\n")
    assert uses(source, COVER) == [("a", 4), ("B.c", 7), ("<module>", 8)]
