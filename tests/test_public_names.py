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
    "DivergenceError": "exit code 4 of the item 4 CLI, raised or mapped per item 8",
    "TripletExample.entity_spans": "item 1's entity accuracy",
    "EntitySpan.stream": "item 1's entity accuracy",
    "Pcg32.derangement": "the incongruent-image control of item 1",
    "LossOutput.mlm_loss": "the per-step loss terms of item 5's telemetry",
    "LossOutput.mrc_loss": "the per-step loss terms of item 5's telemetry",
    "TrainResult.best_params": "item 1's VTLM->MMT and TLM->MMT arms fine-tune the best "
                               "pretrained parameters",
    "TrainResult.best_metric": "the results JSON of item 4's one-command matrix",
    "TrainResult.best_step": "the results JSON of item 4's one-command matrix",
}


def _trees(extra=None):
    """{path: tree} of every non-test module of src and the benchmark;
    `extra` maps a path to source appended to its text."""
    extra = extra or {}
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    return {path: ast.parse(path.read_text() + extra.get(path, ""))
            for path in paths if not path.name.startswith("test_")}


def _public_definitions(trees):
    """(module path, name) of every public top-level def and class."""
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
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


def _public_members(trees):
    """(module path, "Class.member") of every public method, property and
    annotated (dataclass or NamedTuple) field of a public top-level class."""
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
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


def _bindings(path, tree):
    """{local name: (module path, name)} of one module's imports from
    `vtlm`; name None binds the module itself (`from . import tensor as
    T`)."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and path.parent == SRC:
            full = "vtlm" + (f".{node.module}" if node.module else "")
        elif node.level == 0:
            full = node.module
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if full == "vtlm":
                out[local] = (SRC / f"{alias.name}.py", None)
            elif full.startswith("vtlm."):
                out[local] = (SRC / f"{full[5:]}.py", alias.name)
    return out


def _uses(trees):
    """(module path, defining node, attribute, target) of every Name and
    Attribute node (see `_parts` for the defining node; None outside any
    definition). The attribute is the name read by an Attribute node and
    None for a Name. The target is the (module path, top-level name) the
    node refers to: a bare name refers to its import or else to its own
    module, an attribute of a name bound to a `vtlm` module to that
    module's name, and any other attribute to nothing (None)."""
    uses = set()
    for path, tree in trees.items():
        bindings = _bindings(path, tree)
        for stmt in tree.body:
            for owner, part in _parts(stmt):
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        target = bindings.get(node.id, (path, node.id))
                        uses.add((path, owner, None, target))
                    elif isinstance(node, ast.Attribute):
                        base = bindings.get(getattr(node.value, "id", None))
                        target = (base[0], node.attr) if base and base[1] is None else None
                        uses.add((path, owner, node.attr, target))
    return uses


def _reached(uses, path, name):
    """Whether a top-level `name` of the module at `path`, or a member
    "Class.member", is used outside its own defining node.

    A top-level name is reached only through its own module (see
    `_uses`), so an array's `.reshape` does not reach a `reshape` of
    `tensor`, and `np.add` does not reach its `add`. A member is
    reached by any attribute read of its name."""
    if "." in name:
        member = name.split(".")[1]
        return any(attr == member and (p, o) != (path, name) for p, o, attr, _ in uses)
    return any(target == (path, name) and (p, (o or "").split(".")[0]) != (path, name)
               for p, o, _, target in uses)


def _unreached(trees, definitions):
    uses = _uses(trees)
    return sorted(f"{path.stem}.{name}" for path, name in definitions
                  if name not in KEPT and not _reached(uses, path, name))


def test_every_public_name_is_reached_outside_the_tests():
    trees = _trees()
    assert _unreached(trees, _public_definitions(trees)) == []


def test_every_public_member_is_reached_outside_the_tests():
    trees = _trees()
    assert _unreached(trees, _public_members(trees)) == []


def test_a_dead_function_with_a_numpy_name_is_flagged():
    """Arrays' `.reshape` and `.swapaxes` and numpy's own functions of
    those names, used all over src, reach no `tensor` function."""
    dead = "\n\ndef reshape(a, shape):\n    return a\n\n\ndef swapaxes(a, i, j):\n    return a\n"
    trees = _trees({SRC / "tensor.py": dead})
    unreached = _unreached(trees, _public_definitions(trees))
    assert unreached == ["tensor.reshape", "tensor.swapaxes"]


def test_kept_names_are_still_defined_and_still_unreached():
    """An exception that gained a caller, or lost its definition, leaves
    the list."""
    trees = _trees()
    uses = _uses(trees)
    defined = {name: path for path, name in [*_public_definitions(trees),
                                             *_public_members(trees)]}
    assert set(KEPT) <= set(defined)
    assert [name for name in KEPT if _reached(uses, defined[name], name)] == []
