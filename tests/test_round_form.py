"""A plan round has one form, built in one module, and records in one place.

An `ast` scan of `src/spotsim` (`test_cover_form.uses`): a `Transfer` record
is built only in `migration._expand`, which expands a round's slice of its
derivation's columns, and `MigrationAction` is named only in `migration.py`,
where `_Common.rounds` builds a derivation's rounds, `plan_migration` a
plan's stage-start markers, and `MigrationAction.__eq__` compares rounds.
A call elsewhere, or an alias that could be called elsewhere, would be a
second way to build a record or a round.
"""

from test_cover_form import SRC, uses


def scopes(name: str) -> dict[str, set[str]]:
    """The scopes that name `name`, by module of `src/spotsim` that has any."""
    found = {path.name: {scope for scope, _ in uses(path.read_text(), name)}
             for path in sorted(SRC.glob("*.py"))}
    return {module: named for module, named in found.items() if named}


def test_records_are_built_only_by_expand():
    assert scopes("Transfer") == {"migration.py": {"_expand"}}


def test_rounds_are_built_only_in_migration():
    assert scopes("MigrationAction") == {
        "migration.py": {"_Common.rounds", "plan_migration", "MigrationAction.__eq__"}}


def test_calls_and_aliases_are_found_and_annotations_are_not():
    source = ("from .migration import Transfer as T\n"
              "from .migration import Transfer\n"
              "class Transfer(tuple):\n"
              "    def make(self, x: Transfer) -> list[Transfer]:\n"
              "        kept: Transfer = Transfer(x)\n"
              "        return migration.Transfer(kept)\n"
              "def a(f=Transfer):\n"
              "    g = Transfer\n"
              "    return map(Transfer, [isinstance(g, Transfer)])\n"
              "h = f(Transfer(1))\n")
    assert uses(source, "Transfer") == [
        ("<module>", 1), ("Transfer.make", 5), ("Transfer.make", 6), ("a", 7), ("a", 8),
        ("a", 9), ("a", 9), ("<module>", 10)]
