"""Source hygiene checks that need no linter: every imported name is used."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pwafit"
MODULES = sorted(SRC.glob("*.py"))


def _annotation_names(tree):
    """Names inside string annotations, such as ``x: "CompositeProblem"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in args.posonlyargs + args.args
                            + args.kwonlyargs + [args.vararg, args.kwarg]
                            if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    yield from (n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                                if isinstance(n, ast.Name))
                except SyntaxError:
                    pass


def unused_imports(source: str, reexports: bool = False):
    """(line, name) of each imported name the module never references.

    Imports on a line marked ``# noqa: F401`` (or a bare ``# noqa``) count as
    used, and so does every import of a package ``__init__`` (a re-export).
    """
    if reexports:
        return []
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        line = lines[node.lineno - 1]
        if "# noqa" in line and ("# noqa:" not in line or "F401" in line):
            continue
        imported += [(node.lineno, name) for name in names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    found = unused_imports(path.read_text(), reexports=path.name == "__init__.py")
    assert not found, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in found)


class TestChecker:
    def test_flags_unused(self):
        src = "import os\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n"
        assert unused_imports(src) == [(1, "os"), (2, "field")]

    def test_attribute_use_and_alias(self):
        src = "import numpy as np\nimport os.path\nx = np.zeros(os.path.sep)\n"
        assert unused_imports(src) == []

    def test_noqa_and_future(self):
        src = ("from __future__ import annotations\n"
               "import json  # noqa: F401\nimport csv  # noqa: E402\n")
        assert unused_imports(src) == [(3, "csv")]

    def test_string_annotation(self):
        src = "from a import B, C\ndef f(x: 'B') -> 'list[C]':\n    pass\n"
        assert unused_imports(src) == []

    def test_package_init_reexports(self):
        assert unused_imports("from . import mm\n", reexports=True) == []
