"""Src holds only what runs: every public module-level function and
class of `vtlm` is reached from the package itself or the benchmark,
not only from the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vtlm"

# name -> why it stays although nothing outside the tests uses it yet
KEPT = {
    "write_triplets": "corpus files for the CLI of ROADMAP item 2",
    "load_triplets": "corpus files for the CLI of ROADMAP item 2",
    "DivergenceError": "exit code 4 of the item 2 CLI, raised or mapped per item 8",
    "use_dtype": "the float64 mode the gradient-check tests run in",
}


def _public_definitions():
    """(module path, name) of every public top-level def and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name


def _uses():
    """(module path, enclosing top-level definition or None, name) of
    every Name and Attribute node in the non-test modules of src and the
    benchmark."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    uses = set()
    for path in paths:
        if path.name.startswith("test_"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.add((path, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    uses.add((path, owner, node.attr))
    return uses


def test_every_public_name_is_reached_outside_the_tests():
    uses = _uses()
    unreached = sorted(
        f"{path.stem}.{name}" for path, name in _public_definitions()
        if name not in KEPT
        and not any(n == name and (p, o) != (path, name) for p, o, n in uses))
    assert unreached == []


def test_kept_names_are_still_defined_and_still_unreached():
    """An exception that gained a caller, or lost its definition, leaves
    the list."""
    uses = {n for _, _, n in _uses()}
    defined = {name for _, name in _public_definitions()}
    assert set(KEPT) <= defined
    assert not set(KEPT) & uses
