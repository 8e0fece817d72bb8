"""Source hygiene checks that need no linter: every imported name is used,
the package's modules import one another without a cycle, every definition
is used by the package itself (code that only tests call belongs in the
tests), `snewton` alone holds the dual subproblem's internals, every
package function the benchmark's tracer wraps or its other scripts read
exists, a tiny fit and check run clean under that tracer, every CLI
config key has its value domain checked, every checked domain belongs to a
config key, every key README's exit-2 list names has a domain, and the
CLI's MM and model defaults are the library's."""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pwafit"
BENCH = SRC.parents[1] / "perfbench"
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


def package_imports(source: str, modules) -> set:
    """Package modules a module imports anywhere, function bodies included.

    Relative imports (``from . import mm``, ``from .funcs import X``) and
    absolute ones through ``pwafit`` both count; ``modules`` holds the
    package's module names, with ``__init__`` for the package itself.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names]
            found |= {p[1] for p in parts if p[0] == "pwafit" and len(p) > 1}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").startswith("pwafit"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base is None:        # from . import a: a module, or a name of __init__
                found |= {a.name if a.name in modules else "__init__" for a in node.names}
            else:
                found.add(base.split(".")[0])
    return found & set(modules)


def import_cycle(graph: dict):
    """One cycle of the graph as a list of nodes (first repeated last), or None."""
    state = {}                      # node -> "open" while on the path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node, [node])
            if found:
                return found
    return None


def _definitions(tree):
    """(label, name, node) of each module-level function, class and constant,
    and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (n for t in targets for n in ast.walk(t)):
                if isinstance(sub, ast.Name):
                    yield sub.id, sub.id, node


def unreferenced_definitions(sources: dict) -> list:
    """'module.label' of each definition (see `_definitions`) that no module
    of `sources` ({module: source}) loads by name or attribute outside the
    definition itself.  Dunder names are exempt."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    loads = [(n.id if isinstance(n, ast.Name) else n.attr, n)
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))
             and not isinstance(n.ctx, ast.Store)]
    found = []
    for mod, tree in trees.items():
        for label, name, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not (name.startswith("__") and name.endswith("__")) and not any(
                    n == name and id(ref) not in inside for n, ref in loads):
                found.append(f"{mod}.{label}")
    return found


def test_every_definition_is_used_by_the_package():
    found = unreferenced_definitions({p.stem: p.read_text() for p in MODULES})
    assert not found, "defined in src/pwafit but used only outside it: " + ", ".join(found)


def test_no_import_cycles():
    names = {p.stem for p in MODULES}
    graph = {p.stem: package_imports(p.read_text(), names) - {p.stem} for p in MODULES}
    cycle = import_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def subproblem_internals(source: str) -> list:
    """Attributes a module stores, and the dual subproblem arrays it reads."""
    arrays = {"B", "beta", "slack_nu", "onehot", "outer"}
    return sorted({n.attr for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Attribute)
                   and (isinstance(n.ctx, ast.Store) or n.attr in arrays
                        or n.attr.startswith("work_"))})


def test_snewton_owns_the_dual_subproblem():
    # snewton builds the subproblem and lays out its arrays: mm reaches it
    # through build_subproblem, sn_solve and displacement_sq only, and funcs
    # keeps the problem data, not the Newton matrix's x x^T
    from pwafit import mm, snewton
    assert mm.build_subproblem is snewton.build_subproblem
    found = subproblem_internals((SRC / "mm.py").read_text())
    assert not found, "mm.py stores or reads subproblem internals: " + ", ".join(found)
    funcs = ast.parse((SRC / "funcs.py").read_text())
    assert not any((isinstance(n, ast.Name) and n.id == "outer")
                   or (isinstance(n, ast.Attribute) and n.attr == "outer")
                   for n in ast.walk(funcs)), "funcs.py holds `outer`"


def _bench_tracer(monkeypatch):
    """perfbench/tracer.py, loaded with perfbench on the import path."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    # perfbench/tracer.py swaps its TARGETS for timing wrappers by name, so a
    # package refactor that renames one breaks traced benchmark runs
    tracer = _bench_tracer(monkeypatch)
    targets = [(owner, attr) for owner, attr, _ in tracer.TARGETS]
    before = [getattr(*t) for t in targets]
    with tracer.Tracer().active():
        assert all(getattr(*t) is not f for t, f in zip(targets, before))
    assert all(getattr(*t) is f for t, f in zip(targets, before))


def test_traced_benchmark_operations_run(monkeypatch, tmp_path):
    # beyond the names it wraps, the tracer binds build_subproblem's arguments
    # by name and reads the problem's atoms and each SNResult, so one tiny
    # fit and one tiny check must run clean under it and count their
    # subproblems, as a traced benchmark run does
    import numpy as np

    from pwafit import cli
    tracer = _bench_tracer(monkeypatch)
    workloads = importlib.import_module("workloads")

    def operation(command, G, H, gen, **config):
        X, y = gen(G, H, 60, np.random.default_rng(0))
        csv_path = str(tmp_path / f"{command}.csv")
        workloads.write_csv(csv_path, X, y)
        config = {"dataset": csv_path, "seed": 0, **config}
        config_path = str(tmp_path / f"{command}.json")
        workloads.write_json(config_path, config)
        return workloads.Operation(command, config, config_path,
                                   str(tmp_path / command),
                                   workloads.Dataset(X, y, csv_path))

    model = str(tmp_path / "model.json")
    workloads.write_json(model, workloads.model_json(workloads.EX1_G, workloads.EX1_H))
    t = tracer.Tracer()
    for op in (operation("fit", workloads.EX2_G, workloads.EX2_H,
                         workloads.uniform_data, k1=2, k2=2, starts=1),
               operation("check", workloads.EX1_G, workloads.EX1_H,
                         workloads.lattice_data, model=model)):
        t.begin_op(op)
        with t.active():
            assert cli.main(op.argv) == 0
        t.end_op()
    assert t.problems == []
    metrics = t.metrics([1.0], [1.0])
    assert metrics["mm.build_subproblem_calls"]["value"] > 0
    assert metrics["stationarity.selections"]["value"] > 0


def benchmark_package_reads(source: str) -> set:
    """(module, attribute) of each ``module.attribute`` a benchmark source
    reads or patches, for the modules it imports with ``from pwafit import``."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "pwafit"
               for a in node.names}
    return {(n.value.id, n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in modules}


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_package_reads_resolve(path):
    # the benchmark's self-tests patch package internals by name, such as
    # stationarity._selection_residual, so a rename breaks them
    missing = sorted(f"{mod}.{attr}" for mod, attr in benchmark_package_reads(path.read_text())
                     if not hasattr(importlib.import_module(f"pwafit.{mod}"), attr))
    assert not missing, f"{path.name} uses names pwafit lacks: " + ", ".join(missing)


# config keys with no `cli._DOMAINS` entry: free-form objects
DOMAIN_EXEMPT = {
    "synth": "an object; load_config checks it against the synth schema",
    "init": "an object; load_config checks it against cli._INIT_KEYS",
}


def test_every_config_key_has_a_domain():
    # load_config rejects a value outside its key's domain with exit 2; a key
    # without one is accepted as anything and fails late, or not at all
    from pwafit import cli
    keys = set(cli._INIT_KEYS).union(*cli._SCHEMAS.values())
    missing = sorted(keys - set(cli._DOMAINS) - set(DOMAIN_EXEMPT))
    assert not missing, "config keys without a value domain: " + ", ".join(missing)
    assert set(DOMAIN_EXEMPT) <= keys - set(cli._DOMAINS)


def test_every_domain_is_a_config_key():
    # a domain left behind for a key no schema has, such as a deleted option,
    # checks nothing: the key is rejected as unknown before its domain is read
    from pwafit import cli
    keys = set(cli._INIT_KEYS).union(*cli._SCHEMAS.values())
    stale = sorted(set(cli._DOMAINS) - keys)
    assert not stale, "value domains of no config key: " + ", ".join(stale)


def readme_exit2_keys(text: str) -> set:
    """Backquoted names in README's list of out-of-domain values (exit 2),
    up to the next heading."""
    section = text.split("Out-of-domain values are configuration errors (exit 2)", 1)[1]
    section = section.split("\n#", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", section))


def test_readme_exit2_keys_have_domains():
    # README promises exit 2 for these keys; one with no domain is a promise
    # the CLI does not keep
    from pwafit import cli
    text = (SRC.parents[1] / "README.md").read_text()
    listed = readme_exit2_keys(text) - set(cli._SCHEMAS)
    assert listed, "README's exit-2 list not found"
    missing = sorted(listed - set(cli._DOMAINS))
    assert not missing, "README's exit-2 list names keys without a domain: " + ", ".join(missing)


def test_cli_defaults_are_the_library_defaults():
    # a CLI default that differs from MMConfig's or PWAProblem's makes
    # `pwafit fit` and a library call with the same options solve different
    # problems; the CLI draws MMConfig's seed per start
    from pwafit import cli, mm, pwa
    mm_fields = {f.name: f.default for f in dataclasses.fields(mm.MMConfig)
                 if f.name != "seed"}
    model_fields = {f.name: f.default for f in dataclasses.fields(pwa.PWAProblem)
                    if f.name != "dataset"}
    for command in ("fit", "cv", "check"):
        schema = cli._SCHEMAS[command]
        wrong = sorted(f"{command}.{key}: {schema[key]!r}, library {default!r}"
                       for key, default in {**mm_fields, **model_fields}.items()
                       if key in schema and schema[key] != default)
        assert not wrong, "CLI defaults differ from the library's: " + "; ".join(wrong)
    for command in ("fit", "cv"):
        missing = sorted(set(mm_fields) - set(cli._SCHEMAS[command]))
        assert not missing, f"MMConfig fields {command} cannot set: " + ", ".join(missing)


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


class TestImportGraph:
    NAMES = {"__init__", "mm", "stationarity", "funcs"}

    def test_relative_absolute_and_local_imports(self):
        src = ("from . import mm, np_helpers\nfrom .funcs import TIE_TOL\n"
               "import pwafit.stationarity\nimport numpy\n"
               "def f():\n    from pwafit import mm\n")
        assert package_imports(src, self.NAMES) == {"mm", "__init__", "funcs",
                                                     "stationarity"}

    def test_package_itself(self):
        assert package_imports("from . import __version__\n", self.NAMES) == {"__init__"}

    def test_cycle_found_through_function_local_import(self):
        mm_src = "def run():\n    from . import stationarity\n"
        graph = {"mm": package_imports(mm_src, self.NAMES),
                 "stationarity": package_imports("from . import mm\n", self.NAMES),
                 "funcs": set()}
        assert import_cycle(graph) == ["mm", "stationarity", "mm"]

    def test_acyclic(self):
        assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set(), "d": {"a", "c"}}) is None


class TestSubproblemInternals:
    def test_stores_and_array_reads_flagged(self):
        src = ("sub.c = 1.0\nx = sub.B @ t + sub.work_x\nsub.beta[0] = 0\n"
               "y = res.theta + sub.displacement_sq(a, b, c, d)\n")
        assert subproblem_internals(src) == ["B", "beta", "c", "work_x"]


class TestReadmeExit2:
    def test_names_in_backquotes_up_to_the_next_heading(self):
        text = ("intro `eps`\nOut-of-domain values are configuration errors (exit 2):\n"
                "- `tol_rel` < 0, `--seed`, `5.0`, `\"cv\"` outside `fit`;\n"
                "- `N`\n\n### next\n`late`\n")
        assert readme_exit2_keys(text) == {"tol_rel", "fit", "N"}


class TestUnreferenced:
    A = ("LIMIT = 1\n_UNUSED = 2\n__all__ = []\n"
         "def helper():\n    return helper() + LIMIT\n"
         "class Box:\n    def __init__(self):\n        self.size = 0\n"
         "    def used(self):\n        return self.size\n"
         "    def unused(self):\n        return self.unused()\n"
         "    @property\n    def area(self):\n        return 0\n")

    def test_flags_what_only_its_own_definition_uses(self):
        # storing to an attribute is no use of it
        b = "from a import Box\nBox().used()\nBox().area = 1\n"
        assert unreferenced_definitions({"a": self.A, "b": b}) == [
            "a._UNUSED", "a.helper", "a.Box.unused", "a.Box.area"]

    def test_use_in_another_definition_counts(self):
        src = "def f():\n    return g()\ndef g():\n    return 1\nf()\n"
        assert unreferenced_definitions({"m": src}) == []
