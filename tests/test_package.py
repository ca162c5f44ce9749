"""Package surface: every exported name exists, every traced name resolves.

Checks:
* each name in ``crystals.__all__`` resolves on the package, so an export
  left behind by a deleted function fails here rather than at import time of
  a caller,
* the benchmark's tracer (``perfbench/tracer.py``, which wraps library
  functions by module and name) installs on the library and restores it, so
  a deleted or renamed function it probes fails here rather than in a traced
  benchmark run,
* each ``crystals`` module imports in a fresh interpreter with nothing of the
  package imported before it, not even its ``__init__``, so an import hoisted
  to close a cycle (``tableaux`` imports ``shifted`` inside the function that
  needs it, since ``shifted`` imports ``tableaux``) fails here in whichever
  order it breaks,
* the tracer installs in a fresh interpreter that imported ``crystals.cli``
  and nothing else, as a traced benchmark run does, so every module it
  probes is loaded by the package itself,
* no two of the tracer's probes resolve to the same function object, so no
  probe's calls are filed under another's (why ``young.lower``/``raise_``
  are functions of their own rather than the shifted ones),
* every ``from crystals... import name`` in ``perfbench/*.py`` resolves, so
  deleting a name the benchmark harness still imports fails here,
* every name a ``crystals`` submodule imports is used in that module (the
  package's ``__init__.py`` re-exports, so it is exempt), so a deletion
  leaves no dead import behind,
* ``tests/oracles.py`` imports nothing from ``crystals.pairing``, directly or
  through the package's re-exports, so the oracles that check the word
  statistics and the operators built on them share no code with them,
* every ``crystals`` module parses with the grammar of the oldest Python
  ``pyproject.toml`` admits, which refuses ``except*`` and PEP 695 generics,
  so syntax newer than the declared floor fails here whatever runs the tests,
* the tensor rule's tie, ``eps < phi`` for lowering and ``eps <= phi`` for
  raising, is compared in one function of ``crystals`` only,
  ``TensorView._move``, and no module defines ``string_maps``, the id-keyed
  string lengths the view once read, so a second copy of the rule does not
  come back unseen,
* ``perfbench/make_expected.py`` in compare mode passes its cross-checks and
  finds every benchmark job's exit code, stdout and file digest equal to the
  committed tables, so a change to any answer the benchmark checks fails
  here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crystals

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCHMARK / "tracer.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(crystals.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_every_export_resolves():
    missing = [name for name in crystals.__all__ if not hasattr(crystals, name)]
    assert missing == []
    assert len(set(crystals.__all__)) == len(crystals.__all__)


# Imports crystals.<argv[2]> with the package directory argv[1] registered as
# an empty package, so the package's own __init__ does not set the import order.
ALONE = """\
import importlib, sys, types
package = types.ModuleType("crystals")
package.__path__ = [sys.argv[1]]
sys.modules["crystals"] = package
importlib.import_module("crystals." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    done = subprocess.run([sys.executable, "-c", ALONE, str(PACKAGE), module], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(tracer)
        for probe in tracer.PROBES:
            importlib.import_module(probe.module)
        checker = crystals.check_stembridge
        restore = tracer.install(tracer.Tracer())
        assert crystals.check_stembridge is not checker
        restore()
        assert crystals.check_stembridge is checker
    finally:
        del sys.modules[spec.name]


def test_benchmark_tracer_installs_on_a_fresh_cli_import():
    script = "import crystals.cli, tracer; tracer.install(tracer.Tracer())()"
    path = os.pathsep.join([str(Path(crystals.__file__).resolve().parents[1]), str(BENCHMARK)])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                                           "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_benchmark_probes_name_distinct_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
        owners = {}
        for probe in tracer.PROBES:
            owner = importlib.import_module(probe.module)
            *path, attr = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            owners.setdefault(id(fn), []).append(probe.span)
    finally:
        del sys.modules[spec.name]
    assert [spans for spans in owners.values() if len(spans) > 1] == []


def test_every_benchmark_import_resolves():
    checked, missing = [], []
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.partition(".")[0] == "crystals"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                checked.append(name)
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}:{node.lineno} {name}")
    assert "crystals.config.resolve_threads" in checked
    assert missing == []


def test_every_import_is_used():
    unused = []
    for path in sorted(Path(crystals.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_oracles_import_nothing_from_pairing():
    def from_pairing(name: str) -> bool:
        module = getattr(getattr(crystals, name, None), "__module__", None)
        return name == "pairing" or module == "crystals.pairing"

    found = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("crystals.pairing")]
        elif isinstance(node, ast.ImportFrom) and node.module == "crystals.pairing":
            found += [f"crystals.pairing.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "crystals":
            found += [f"crystals.{a.name}" for a in node.names if from_pairing(a.name)]
    assert found == []


def test_sources_parse_at_the_declared_python_floor():
    text = PYPROJECT.read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()))
    assert floor == (3, 10)
    for newer in ("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  "def first[T](items: list[T]) -> T:\n    return items[0]\n"):
        with pytest.raises(SyntaxError):
            ast.parse(newer, feature_version=floor)
    for path in sorted(Path(crystals.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_the_tensor_tie_is_compared_in_one_function():
    def is_tie(node: ast.AST) -> bool:
        return (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Lt, ast.LtE))
                and isinstance(node.left, ast.Name) and node.left.id == "eps"
                and isinstance(node.comparators[0], ast.Name)
                and node.comparators[0].id == "phi")

    def walk(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
            else:
                yield scope, child
                yield from walk(child, scope)

    ties: dict[str, set[str]] = {}
    defined = []
    for path in sorted(Path(crystals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in walk(tree, path.stem):
            if is_tie(node):
                ties.setdefault(scope, set()).add(type(node.ops[0]).__name__)
        defined += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "string_maps"
                    or isinstance(node, ast.Name) and node.id == "string_maps"
                    and isinstance(node.ctx, ast.Store)]
    assert ties == {"graph.TensorView._move": {"Lt", "LtE"}}
    assert defined == []


def test_the_tracer_counts_every_cli_table_row(tmp_path, capsys):
    import crystals.cli as cli

    q, s = str(tmp_path / "q.json"), str(tmp_path / "s.json")
    shape = ["--shape", "2,1", "--n", "3"]
    jobs = [  # (argv, the probe that row's entry reaches)
        (["graph", "--model", "young", *shape, "--out", q], "models.young_graph"),
        (["graph", "--model", "shifted", *shape, "--out", q], "models.shifted_graph"),
        (["graph", "--model", "standard", "--n", "2", "--out", s], "models.queer_standard_graph"),
        (["graph", "--model", "queer", *shape, "--out", q], "models.queer_graph"),
        (["graph", "--model", "tensor", "--left", s, "--right", s, "--out", str(tmp_path / "t")],
         "graph.tensor_graphs"),
        (["char", "--model", "young", *shape], "symfunc.schur"),
        (["char", "--model", "shifted", *shape], "symfunc.schur_p"),
        (["char", "--model", "queer", *shape], "symfunc.schur_p"),
        (["char", "--model", "standard", "--n", "3"], "graph.character"),
        (["verify", "--input", q, "--axioms", "queer"], "axioms.check_queer_regular"),
        (["verify", "--input", q, "--axioms", "components01", "--mode", "fast"],
         "axioms.check_01_components"),
        (["enum", "ssyt", *shape], "tableaux.enumerate_ssyt"),
        (["enum", "yam", *shape], "shifted.enumerate_yamanouchi"),
    ]
    assert {argv[0] for argv, _ in jobs} == {"graph", "char", "verify", "enum"}
    assert {argv[2] for argv, _ in jobs if argv[0] != "enum"} >= {*cli._GRAPHS, *cli._CHARS}
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    missed = []
    try:
        spec.loader.exec_module(tracer)
        traced = tracer.Tracer()
        restore = tracer.install(traced)
        try:
            for argv, probe in jobs:
                before = traced.totals()[0].get(probe, [0])[0]
                assert cli.main(argv) == 0, argv
                if traced.totals()[0].get(probe, [0])[0] == before:
                    missed.append((argv[:3], probe))
        finally:
            restore()
    finally:
        del sys.modules[spec.name]
    capsys.readouterr()
    assert missed == []


def test_cli_names_each_model_family_and_kind_in_its_tables_only():
    import crystals.cli as cli

    names = {*cli._GRAPHS, *cli._CHARS, *cli._CHECKERS, *cli._ENUMERATIONS, *cli._PARSERS}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def literal_names(node: ast.AST) -> set[str]:
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {item.value for item in items if isinstance(item, ast.Constant)} & names

    literal_choices = [
        f"cli.py:{node.lineno}" for node in ast.walk(functions["build_parser"])
        if isinstance(node, ast.keyword) and node.arg == "choices" and literal_names(node.value)
    ]
    switches = [
        f"{name}:{node.lineno}" for name, function in functions.items()
        if name.startswith("cmd_") for node in ast.walk(function)
        if isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Attribute) and side.attr in ("model", "axioms", "kind")
            for side in (node.left, *node.comparators))
        and any(literal_names(side) for side in (node.left, *node.comparators))
    ]
    assert (literal_choices, switches) == ([], [])


def test_benchmark_answers_match_the_committed_tables():
    done = subprocess.run([sys.executable, str(BENCHMARK / "make_expected.py")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "cross-checks passed; tables match"
