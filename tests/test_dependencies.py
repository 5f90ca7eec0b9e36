"""The package is numpy-only: every module of `src/vtlm` imports only
the standard library, numpy and `vtlm` itself. The corpus is its seed:
no module but `checkpoint` opens a file."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vtlm"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vtlm"}


def _imported_packages(path):
    """Top-level package of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    foreign = sorted({f"{path.name}: {pkg}" for path in paths
                      for pkg in _imported_packages(path) if pkg not in ALLOWED})
    assert foreign == []


def test_only_checkpoint_opens_files():
    """A corpus is regenerated from (GenConfig, seed), never read from
    or written to a file; checkpoints are the package's only files."""
    opened = {path.name for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))}
    assert opened == {"checkpoint.py"}
