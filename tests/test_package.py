"""Package surface: every exported name exists, every traced name resolves.

Checks:
* each name in ``crystals.__all__`` resolves on the package, so an export
  left behind by a deleted function fails here rather than at import time of
  a caller,
* the benchmark's tracer (``perfbench/tracer.py``, which wraps library
  functions by module and name) installs on the library and restores it, so
  a deleted or renamed function it probes fails here rather than in a traced
  benchmark run,
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
  so syntax newer than the declared floor fails here whatever runs the tests.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import crystals

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCHMARK / "tracer.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_export_resolves():
    missing = [name for name in crystals.__all__ if not hasattr(crystals, name)]
    assert missing == []
    assert len(set(crystals.__all__)) == len(crystals.__all__)


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
