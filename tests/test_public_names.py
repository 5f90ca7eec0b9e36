"""Src holds only what runs: every public module-level function and
class of `vtlm`, and every public member of such a class (method,
property or annotated field), is reached from the package itself or
the benchmark, not only from the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vtlm"

# name, or Class.member -> why it stays although nothing outside the
# tests uses it yet
KEPT = {
    "write_triplets": "corpus files for the CLI of ROADMAP item 2",
    "load_triplets": "corpus files for the CLI of ROADMAP item 2",
    "DivergenceError": "exit code 4 of the item 2 CLI, raised or mapped per item 8",
    "use_dtype": "the float64 mode the gradient-check tests run in",
    "BpeCodec.save": "the codec files of the item 2 CLI's `gen`",
    "BpeCodec.load": "the codec files of the item 2 CLI's `pretrain`, `finetune` and `translate`",
    "Pcg32.derangement": "the incongruent-image control of item 1",
    "LossOutput.mlm_loss": "the per-step loss terms of item 3's telemetry",
    "LossOutput.mrc_loss": "the per-step loss terms of item 3's telemetry",
    "TrainResult.best_params": "item 1's VTLM->MMT and TLM->MMT arms fine-tune the best "
                               "pretrained parameters",
    "TrainResult.best_metric": "the results JSON of item 2's one-command matrix",
    "TrainResult.best_step": "the results JSON of item 2's one-command matrix",
}


def _modules():
    return [(path, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _public_definitions():
    """(module path, name) of every public top-level def and class."""
    for path, tree in _modules():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name


def _member_name(node):
    """The name a class-body statement defines as a member, or None."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _public_members():
    """(module path, "Class.member") of every public method, property and
    annotated (dataclass or NamedTuple) field of a public top-level class."""
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    name = _member_name(item)
                    if name is not None and not name.startswith("_"):
                        yield path, f"{node.name}.{name}"


def _parts(stmt):
    """(defining node, subtree) pieces of a top-level statement: the
    top-level definition's name, or "Class.member" for a class member."""
    owner = getattr(stmt, "name", None)
    if not isinstance(stmt, ast.ClassDef):
        yield owner, stmt
        return
    for node in stmt.bases + stmt.keywords + stmt.decorator_list:
        yield owner, node
    for item in stmt.body:
        member = _member_name(item)
        yield (owner if member is None else f"{owner}.{member}"), item


def _uses():
    """(module path, defining node, name, is attribute) of every Name and
    Attribute node in the non-test modules of src and the benchmark (see
    `_parts` for the defining node; None outside any definition)."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    uses = set()
    for path in paths:
        if path.name.startswith("test_"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            for owner, part in _parts(stmt):
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        uses.add((path, owner, node.id, False))
                    elif isinstance(node, ast.Attribute):
                        uses.add((path, owner, node.attr, True))
    return uses


def _reached(uses, path, name):
    """Whether a top-level `name`, or a member "Class.member" (read as an
    attribute), is used outside its own defining node."""
    if "." in name:
        member = name.split(".")[1]
        return any(attr and n == member and (p, o) != (path, name)
                   for p, o, n, attr in uses)
    return any(n == name and (p, (o or "").split(".")[0]) != (path, name)
               for p, o, n, _ in uses)


def test_every_public_name_is_reached_outside_the_tests():
    uses = _uses()
    unreached = sorted(
        f"{path.stem}.{name}" for path, name in _public_definitions()
        if name not in KEPT and not _reached(uses, path, name))
    assert unreached == []


def test_every_public_member_is_reached_outside_the_tests():
    uses = _uses()
    unreached = sorted(
        f"{path.stem}.{name}" for path, name in _public_members()
        if name not in KEPT and not _reached(uses, path, name))
    assert unreached == []


def test_kept_names_are_still_defined_and_still_unreached():
    """An exception that gained a caller, or lost its definition, leaves
    the list."""
    uses = _uses()
    defined = {name: path for path, name in [*_public_definitions(), *_public_members()]}
    assert set(KEPT) <= set(defined)
    assert [name for name in KEPT if _reached(uses, defined[name], name)] == []
