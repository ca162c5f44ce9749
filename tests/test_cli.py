"""Command-line interface: subcommands, exit codes, files, determinism.

Checks:
* every subcommand produces its documented output on a worked example,
* enumeration writes one tableau per line plus a count, to stdout or a file,
* graph files round-trip through the verifier with exit code 0, and a broken
  file exits 1 with a JSON verdict on stdout,
* parse problems exit 2, missing files exit 3, and a tiny vertex budget exits 4
  for model graphs (before enumerating past the budget), the standard graph
  and its character (before writing anything), ssyt/ssht/yam enumeration,
  shifted and ordinary characters, shifted-to-ordinary expansions, graph
  files given to ``verify``, tensor products and product expansions,
* a string color outside the declared alphabet exits 2, and so does a graph
  file with a negative weight, a lone surrogate in an id or payload (no
  tensor file is written) or bytes that are not UTF-8; a nonpositive
  ``--n`` to ``expand`` or ``string`` exits 2 saying so, and so does
  ``char --model queer`` on an alphabet of 1, naming the alphabet before
  the shape as ``graph`` does, while the shifted character there is ``x1``;
  ``char`` and ``graph --model standard`` refuse an alphabet of 1 or 0 with
  the queer message, writing no file,
* ``verify`` exits 2 naming the vertex for a weight of ``true``, ``-1``,
  ``1.5`` or ``"1"``, and for ``"n": true``; its budget refusal names
  ``import_json``, the count and the budget, and on a file of a megabyte or
  more comes from the entries up to the budget, with ``json.loads`` never
  called, so such a file cut off after them is refused for its size,
* ``verify`` on a graph with no vertex and n = 10^9 exits 0 for every axiom
  family and mode,
* ``verify`` and ``graph --model tensor`` exit 2 without writing a file on a
  graph file with an integer ``n`` or an edge color past Python's digit
  limit, or with arrays nested past its recursion limit, also where the
  budget scan of a large file meets the nesting,
* shape parts and tableau entries take ASCII digits only, and a part or
  entry past Python's digit limit exits 2,
* global options are accepted before the subcommand and relative outputs land
  in the requested directory; every subcommand, ``string`` included, exits 2
  on a nonpositive ``--max-vertices`` without output or files, and reports
  it before a bad subcommand argument,
* ``--threads`` never changes output bytes or stdout, and ``CRYSTAL_THREADS``
  is not read, so a malformed value changes nothing either; a nonpositive
  ``--threads`` exits 2 saying so, after a nonpositive ``--max-vertices``,
* ``graph`` lists its edge counts by color in numeric order, writes its
  file without calling ``export_json`` or ``export_dot``, leaves an existing
  ``--out`` file alone when it exits 2 or 4, and grows a fresh interpreter's
  peak memory by under three times the size of the file it writes,
* ``graph --model tensor`` exits 2 with one ``error:`` line on a factor with
  two edges of one color out of one vertex, and leaves ``--out`` alone,
* the string subcommand prints a full operator string from top to bottom,
* ``main`` builds its parser once per process, and repeated calls print and
  exit exactly as calls with a freshly built parser do,
* ``verify`` on mutated graph files (edges, colors such as ``1p`` or colors
  past ``n``, weights, ``n``, duplicate vertices and edges) never raises:
  every axiom family in both modes exits 0 or 1 with a matching verdict, or
  exits 2 with an ``error:`` line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crystals.cli
import crystals.graph
from crystals import (
    CrystalGraph,
    components,
    export_json,
    import_json,
    isomorphic,
    queer_graph,
    tensor_graphs,
)
from crystals.cli import main
from reference_data import HOOK_STRING_432
import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_to_stdout(capsys):
    code, out, err = run(capsys, "enum", "ssht", "--shape", "2,1", "--n", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "8"
    assert len(lines) == 9
    assert "[[1,1],[2]]" in lines


def test_enum_to_file(tmp_path, capsys):
    target = tmp_path / "tableaux.txt"
    code, out, _ = run(
        capsys, "enum", "yam", "--shape", "4,3,1", "--n", "4", "--out", str(target)
    )
    assert code == 0
    assert out.strip() == "6"
    content = target.read_text(encoding="utf-8")
    assert content.endswith("\n")
    assert len(content.splitlines()) == 6


def test_enum_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "enum", "ssht", "--shape", "1,3", "--n", "3")
    assert code == 2
    assert "error:" in err


def test_graph_and_verify_round_trip(tmp_path, capsys):
    target = tmp_path / "queer31.json"
    code, out, _ = run(
        capsys,
        "graph",
        "--model",
        "queer",
        "--shape",
        "3,1",
        "--n",
        "3",
        "--out",
        str(target),
    )
    assert code == 0
    assert "vertices: 24" in out
    assert "components: 1" in out
    loaded = import_json(target.read_text(encoding="utf-8"))
    assert loaded == queer_graph((3, 1), 3)

    for axioms in ("stembridge", "queer", "components01", "components02"):
        code, out, _ = run(
            capsys, "verify", "--input", str(target), "--axioms", axioms
        )
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_verify_reports_violations_with_exit_one(tmp_path, capsys):
    target = tmp_path / "broken.json"
    run(
        capsys,
        "graph",
        "--model",
        "queer",
        "--shape",
        "2,1",
        "--n",
        "3",
        "--out",
        str(target),
    )
    data = json.loads(target.read_text(encoding="utf-8"))
    data["edges"] = [e for e in data["edges"] if e["color"] != "0"][:-1]
    target.write_text(json.dumps(data) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--input", str(target), "--axioms", "queer")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["ok"] is False
    assert verdict["violations"]


def test_verify_out_of_contract_graph_exits_two(tmp_path, capsys):
    target = tmp_path / "negative.json"
    run(capsys, "graph", "--model", "queer", "--shape", "2,1", "--n", "3",
        "--out", str(target))
    data = json.loads(target.read_text(encoding="utf-8"))
    data["vertices"][0]["weight"][0] = -1
    target.write_text(json.dumps(data) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(target), "--axioms", "queer")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("field", ["id", "payload"])
def test_tensor_of_a_file_with_a_lone_surrogate_exits_two_and_writes_nothing(
    tmp_path, capsys, field
):
    vertex = {"id": "a", "payload": "a", "weight": [1]}
    vertex[field] = "\ud800"
    factor = tmp_path / "a.json"
    factor.write_text(json.dumps({"n": 1, "vertices": [vertex], "edges": []}) + "\n",
                      encoding="utf-8")
    product = tmp_path / "ab.json"
    code, out, err = run(capsys, "graph", "--model", "tensor", "--left", str(factor),
                         "--right", str(factor), "--out", str(product))
    assert code == 2
    assert out == ""
    assert f"vertex {field}" in err and "\\ud800" in err
    assert not product.exists()


def test_verify_of_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    target = tmp_path / "raw.json"
    target.write_bytes(b'{"n": 1, "vertices": [{"id": "a", "payload": "\xed\xa0\x80", '
                       b'"weight": [1]}], "edges": []}\n')
    code, out, err = run(capsys, "verify", "--input", str(target), "--axioms", "queer")
    assert code == 2
    assert out == ""
    assert "error:" in err and "utf-8" in err


def test_verify_missing_file_exits_three(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "--input", str(tmp_path / "nope.json"), "--axioms", "queer"
    )
    assert code == 3
    assert "error:" in err


def test_graph_budget_exits_four(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "--max-vertices",
        "5",
        "graph",
        "--model",
        "shifted",
        "--shape",
        "3,1",
        "--n",
        "3",
        "--out",
        str(tmp_path / "never.json"),
    )
    assert code == 4
    assert "error:" in err


def test_graph_budget_stops_the_enumeration(tmp_path, capsys):
    # (5,3,1) at n=6 has 62,720 tableaux; the budget stops at the sixth.
    code, out, err = run(
        capsys,
        "--max-vertices",
        "5",
        "graph",
        "--model",
        "shifted",
        "--shape",
        "5,3,1",
        "--n",
        "6",
        "--out",
        str(tmp_path / "never.json"),
    )
    assert code == 4
    assert out == ""
    assert "reached 6 tableaux" in err
    assert not (tmp_path / "never.json").exists()


def test_enum_budget_exits_four(capsys):
    code, out, err = run(
        capsys, "--max-vertices", "5", "enum", "ssht", "--shape", "3,1", "--n", "3"
    )
    assert code == 4
    assert out == ""
    assert "error:" in err


def test_enum_yam_budget_exits_four(capsys):
    code, out, err = run(
        capsys, "--max-vertices", "2", "enum", "yam", "--shape", "3,1", "--n", "4"
    )
    assert code == 4
    assert out == ""
    assert "reached 3 tableaux" in err


def test_expand_budget_exits_four(capsys):
    # The expansion of P(6,3) counts 27 tableaux.
    code, out, err = run(capsys, "--max-vertices", "5", "expand", "--gamma", "6,3")
    assert code == 4
    assert out == ""
    assert "reached 6 tableaux" in err


def test_graph_prints_the_number_of_components(tmp_path, capsys):
    factor = tmp_path / "factor.json"
    run(capsys, "graph", "--model", "queer", "--shape", "2,1", "--n", "3",
        "--out", str(factor))
    product = tmp_path / "product.json"
    code, out, _ = run(capsys, "graph", "--model", "tensor", "--left", str(factor),
                       "--right", str(factor), "--out", str(product))
    assert code == 0
    graph = import_json(product.read_text(encoding="utf-8"))
    assert f"components: {len(components(graph))}\n" in out
    assert len(components(graph)) > 1


def test_graph_dot_format(tmp_path, capsys):
    target = tmp_path / "standard.dot"
    code, _, _ = run(
        capsys,
        "graph",
        "--model",
        "standard",
        "--n",
        "3",
        "--format",
        "dot",
        "--out",
        str(target),
    )
    assert code == 0
    dot = target.read_text(encoding="utf-8")
    assert dot.startswith("digraph")
    assert "green" in dot and "red" in dot


def test_graph_summary_lists_colors_in_numeric_order(tmp_path, capsys):
    code, out, _ = run(capsys, "graph", "--model", "standard", "--n", "12",
                       "--out", str(tmp_path / "standard.json"))
    assert code == 0
    assert "edges: " + " ".join(f"{c}:1" for c in range(12)) + "\n" in out


def _refuse_whole_text(graph):
    raise AssertionError("the graph command built the whole file text")


@pytest.mark.parametrize("form", ["json", "dot"])
def test_graph_streams_the_file_without_building_its_whole_text(tmp_path, capsys, monkeypatch,
                                                                 form):
    for name in ("export_json", "export_dot"):
        monkeypatch.setattr(crystals.graph, name, _refuse_whole_text)
        monkeypatch.setattr(crystals.cli, name, _refuse_whole_text, raising=False)
    target = tmp_path / f"queer.{form}"
    code, _, err = run(capsys, "graph", "--model", "queer", "--shape", "4,2,1", "--n", "5",
                       "--format", form, "--out", str(target))
    assert code == 0 and err == ""
    writer = oracles.export_dot if form == "dot" else oracles.export_json
    assert target.read_bytes() == writer(queer_graph((4, 2, 1), 5)).encode("utf-8")


@pytest.mark.parametrize("argv, code", [
    (["--max-vertices", "5", "graph", "--model", "shifted", "--shape", "3,1", "--n", "3"], 4),
    (["graph", "--model", "shifted", "--shape", "1,3", "--n", "3"], 2),
])
def test_graph_refusals_leave_an_existing_out_file_alone(tmp_path, capsys, argv, code):
    target = tmp_path / "kept.json"
    target.write_bytes(b"kept\n")
    assert run(capsys, *argv, "--out", str(target))[0] == code
    assert target.read_bytes() == b"kept\n"


def test_tensor_of_a_factor_with_a_multi_edge_exits_2_and_leaves_out_alone(tmp_path, capsys):
    factor = tmp_path / "c2.json"
    factor.write_text(export_json(CrystalGraph(
        2, [("a", "a", (1, 0)), ("b", "b", (0, 1)), ("c", "c", (0, 1))],
        [("a", 0, "b"), ("a", 0, "c")])), encoding="utf-8")
    target = tmp_path / "t.json"
    target.write_bytes(b"kept\n")
    code, out, err = run(capsys, "graph", "--model", "tensor", "--left", str(factor),
                         "--right", str(factor), "--queer", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == ("error: left tensor factor is not a crystal: "
                   "vertex 'a' has 2 outgoing edges of color 0\n")
    assert target.read_bytes() == b"kept\n"


_PEAK = """import sys
from crystals.cli import main
if len(sys.argv) > 1:
    main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _child_peak_kib(*argv: str) -> int:
    """The peak RSS in KiB of a fresh interpreter that imports the CLI and runs
    ``argv``, as the child reads it for its own address space.  Its
    ``ru_maxrss`` would not do: Linux carries the spawning process's peak
    over ``exec`` into it, and ``RUSAGE_CHILDREN`` keeps every earlier child's."""
    source = str(Path(crystals.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PEAK, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_graph_peak_memory_tracks_the_graph_not_the_file(tmp_path):
    target = tmp_path / "queer52.json"
    baseline = _child_peak_kib()
    peak = _child_peak_kib("graph", "--model", "queer", "--shape", "5,2", "--n", "5",
                           "--out", str(target))
    # Holding the text and its encoded bytes whole costs about 6 times the file.
    assert (peak - baseline) * 1024 < 3 * target.stat().st_size


def test_output_dir_resolves_relative_paths(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "--output-dir",
        str(tmp_path),
        "enum",
        "ssyt",
        "--shape",
        "2",
        "--n",
        "2",
        "--out",
        "inner.txt",
    )
    assert code == 0
    assert (tmp_path / "inner.txt").exists()


def test_product_budget_exits_four(capsys):
    code, out, err = run(
        capsys,
        "--max-vertices",
        "10",
        "product",
        "--gamma",
        "2,1",
        "--delta",
        "2,1",
        "--n",
        "6",
    )
    assert code == 4
    assert out == ""
    assert "error:" in err


def test_char_budget_stops_the_enumeration(capsys):
    # (5,3,1) at n=6 has 62,720 tableaux; the budget stops at the sixth.
    code, out, err = run(
        capsys,
        "--max-vertices",
        "5",
        "char",
        "--model",
        "shifted",
        "--shape",
        "5,3,1",
        "--n",
        "6",
    )
    assert code == 4
    assert out == ""
    assert "reached 6 tableaux" in err


def test_char_young_budget_exits_four(capsys):
    code, out, err = run(
        capsys, "--max-vertices", "5", "char", "--model", "young", "--shape", "2,1", "--n", "3"
    )
    assert code == 4
    assert out == ""
    assert "reached 6 tableaux" in err


def test_standard_graph_budget_exits_four(tmp_path, capsys):
    target = tmp_path / "never.json"
    code, out, err = run(
        capsys,
        "--max-vertices",
        "3",
        "graph",
        "--model",
        "standard",
        "--n",
        "9",
        "--out",
        str(target),
    )
    assert code == 4
    assert out == ""
    assert "9 vertices" in err
    assert not target.exists()


def test_standard_char_budget_exits_four(capsys):
    code, out, err = run(
        capsys, "--max-vertices", "3", "char", "--model", "standard", "--n", "9"
    )
    assert code == 4
    assert out == ""
    assert "9 vertices" in err


def test_verify_budget_refuses_a_larger_file(tmp_path, capsys):
    source = tmp_path / "q21.json"
    code, _, _ = run(
        capsys, "graph", "--model", "queer", "--shape", "2,1", "--n", "3", "--out", str(source)
    )
    assert code == 0
    code, out, err = run(
        capsys, "--max-vertices", "5", "verify", "--input", str(source), "--axioms", "queer"
    )
    assert code == 4
    assert out == ""
    assert "import_json: graph file lists 8 vertices, over the budget of 5 vertices" in err
    code, _, _ = run(
        capsys, "--max-vertices", "8", "verify", "--input", str(source), "--axioms", "queer"
    )
    assert code == 0


def isolated_vertices_file(path, count):
    """A canonical graph file of ``count`` isolated vertices of weight (0, 0);
    20,000 of them make about 1.9 MB."""
    vertices = [(f"v{k:05}", "", (0, 0)) for k in range(count)]
    path.write_text(export_json(CrystalGraph(2, vertices, [])), encoding="utf-8")
    return path


def test_verify_budget_refuses_a_large_file_before_parsing_it(tmp_path, capsys, monkeypatch):
    source = isolated_vertices_file(tmp_path / "wide.json", 20000)
    text = source.read_text(encoding="utf-8")
    code, out, _ = run(capsys, "--max-vertices", "20000", "verify", "--input", str(source),
                       "--axioms", "stembridge")
    assert (code, json.loads(out)["ok"]) == (0, True)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads parsed the whole file")

    monkeypatch.setattr(crystals.graph.json, "loads", refuse)
    for budget in ("5", "19999"):
        code, out, err = run(capsys, "--max-vertices", budget, "verify", "--input", str(source),
                             "--axioms", "queer")
        assert code == 4 and out == ""
        assert (f"import_json: graph file lists at least {int(budget) + 1} vertices, "
                f"over the budget of {budget} vertices") in err
    # Only the entries up to the budget are read: a file cut off after them
    # is refused for its size, and exits 2 as malformed when within budget.
    source.write_text(text[: text.index('"v19990"')], encoding="utf-8")
    assert run(capsys, "--max-vertices", "5", "verify", "--input", str(source),
               "--axioms", "queer")[0] == 4
    monkeypatch.undo()
    assert run(capsys, "verify", "--input", str(source), "--axioms", "queer")[0] == 2


def test_verify_empty_graph_with_huge_n_exits_zero(tmp_path, capsys):
    # No vertex, so nothing may cost n: not the colors 1..n-1, not the pairs.
    source = tmp_path / "empty.json"
    source.write_text('{"n": 1000000000, "vertices": [], "edges": []}', encoding="utf-8")
    for axioms in ("stembridge", "queer", "components01", "components02"):
        for mode in ("exhaustive", "fast"):
            code, out, _ = run(capsys, "verify", "--input", str(source), "--axioms", axioms,
                               "--mode", mode)
            assert code == 0, (axioms, mode)
            assert json.loads(out) == {"ok": True, "violations": [], "notes": []}


_PAST_INT_LIMIT = "1" + "0" * 5000  # past Python's default limit of 4,300 digits for int()


@pytest.mark.parametrize("text, options", [
    ('{"n": %s, "vertices": [], "edges": []}' % _PAST_INT_LIMIT, ()),
    ('{"n": 1, "vertices": %s, "edges": []}' % ("[" * 5000 + "]" * 5000), ()),
    # Canonical head and over 1 MiB, so the budget scan reads the first entry.
    ('{\n  "n": 1,\n  "vertices": [%s],\n  "edges": []\n}' % ("[" * 700000 + "]" * 700000),
     ("--max-vertices", "5")),
    ('{"n": 1, "vertices": [{"id": "a", "payload": "a", "weight": [1]}], '
     '"edges": [{"src": "a", "color": "%s", "dst": "a"}]}' % _PAST_INT_LIMIT, ()),
], ids=["integer", "nesting", "nesting past the scan", "edge color"])
def test_graph_files_past_pythons_limits_exit_two(tmp_path, capsys, text, options):
    source = tmp_path / "limits.json"
    source.write_text(text, encoding="utf-8")
    product = tmp_path / "product.json"
    for argv in (("verify", "--input", str(source), "--axioms", "queer"),
                 ("graph", "--model", "tensor", "--left", str(source), "--right", str(source),
                  "--out", str(product))):
        code, out, err = run(capsys, *options, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:"), argv
    assert not product.exists()


@pytest.mark.parametrize("argv", [
    ("enum", "ssht", "--shape", "²", "--n", "2"),
    ("enum", "ssht", "--shape", "٣,١", "--n", "3"),
    ("enum", "ssyt", "--shape", _PAST_INT_LIMIT, "--n", "3"),
    ("product", "--gamma", "2", "--delta", "¹", "--n", "3"),
    ("product", "--gamma", _PAST_INT_LIMIT, "--delta", "1", "--n", "3"),
    ("string", "--tableau", "[[١,٢]]", "--i", "1"),
    ("string", "--kind", "ssyt", "--tableau", f"[[{_PAST_INT_LIMIT}]]", "--i", "1"),
])
def test_counts_in_shapes_and_tableaux_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("change, message", [
    (lambda d: d["vertices"][1].update(weight=[True, 0]), "vertex '2' weight must list"),
    (lambda d: d["vertices"][0].update(weight=[-1, 0]), "vertex '1' weight must list"),
    (lambda d: d["vertices"][1].update(weight=[0, 1.5]), "vertex '2' weight must list"),
    (lambda d: d["vertices"][0].update(weight=["1", 0]), "vertex '1' weight must list"),
    (lambda d: d.update(n=True), "'n' must be a non-negative integer"),
])
def test_verify_refuses_weights_that_are_not_counts(tmp_path, capsys, change, message):
    source = tmp_path / "s2.json"
    code, _, _ = run(capsys, "graph", "--model", "standard", "--n", "2", "--out", str(source))
    assert code == 0
    data = json.loads(source.read_text(encoding="utf-8"))
    change(data)
    source.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(source), "--axioms", "stembridge")
    assert code == 2
    assert out == ""
    assert message in err


def test_tensor_budget_exits_four(tmp_path, capsys):
    factor = tmp_path / "factor.json"
    code, _, _ = run(
        capsys, "graph", "--model", "queer", "--shape", "1", "--n", "3", "--out", str(factor)
    )
    assert code == 0
    target = tmp_path / "never.json"
    code, out, err = run(
        capsys,
        "--max-vertices",
        "8",
        "graph",
        "--model",
        "tensor",
        "--left",
        str(factor),
        "--right",
        str(factor),
        "--queer",
        "--out",
        str(target),
    )
    assert code == 4
    assert out == ""
    assert "error:" in err and "9 vertices" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "kind, tableau", [("ssht", "[[1,2]]"), ("ssyt", "[[1,2]]")]
)
def test_string_rejects_color_outside_alphabet(capsys, kind, tableau):
    code, out, err = run(
        capsys, "string", "--kind", kind, "--tableau", tableau, "--n", "2", "--i", "2"
    )
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_tensor_model_from_files(tmp_path, capsys):
    factor = tmp_path / "factor.json"
    run(
        capsys,
        "graph",
        "--model",
        "queer",
        "--shape",
        "1",
        "--n",
        "3",
        "--out",
        str(factor),
    )
    joined = tmp_path / "square.json"
    code, out, _ = run(
        capsys,
        "graph",
        "--model",
        "tensor",
        "--left",
        str(factor),
        "--right",
        str(factor),
        "--queer",
        "--out",
        str(joined),
    )
    assert code == 0
    assert "vertices: 9" in out
    assert "components: 1" in out
    g = import_json(joined.read_text(encoding="utf-8"))
    assert len(g) == 9


def test_thread_flag_and_env_do_not_change_bytes(tmp_path, capsys, monkeypatch):
    # --threads is checked but unused; CRYSTAL_THREADS is not read at all.
    target = tmp_path / "g.json"
    argv = ["graph", "--model", "shifted", "--shape", "3,1", "--n", "3", "--out", str(target)]
    runs = []
    cases = [(None, []), (None, ["--threads", "2"]), ("0", ["--threads", "4"])]
    for env, flag in cases:
        if env is None:
            monkeypatch.delenv("CRYSTAL_THREADS", raising=False)
        else:
            monkeypatch.setenv("CRYSTAL_THREADS", env)
        runs.append((*run(capsys, *flag, *argv), target.read_bytes()))
    assert runs[0][0] == 0
    assert runs == [runs[0]] * len(runs)


def test_malformed_thread_env_is_ignored(tmp_path, capsys, monkeypatch):
    # A malformed CRYSTAL_THREADS once exited 2; it is no longer read.
    target = tmp_path / "g.json"
    argv = ["graph", "--model", "shifted", "--shape", "3,1", "--n", "3", "--out", str(target)]
    monkeypatch.delenv("CRYSTAL_THREADS", raising=False)
    plain = (*run(capsys, *argv), target.read_bytes())
    monkeypatch.setenv("CRYSTAL_THREADS", "abc")
    malformed = (*run(capsys, *argv), target.read_bytes())
    assert plain[0] == 0
    assert plain[2] == ""
    assert malformed == plain


def test_a_nonpositive_thread_count_exits_two_after_the_budget_check(tmp_path, capsys):
    target = tmp_path / "never.json"
    argv = ["graph", "--model", "shifted", "--shape", "2,1", "--n", "3", "--out", str(target)]
    assert run(capsys, "--threads", "0", *argv) == (
        2, "", "error: threads must be positive, got 0\n")
    assert run(capsys, "--max-vertices", "0", "--threads", "0", *argv) == (
        2, "", "error: max_vertices must be positive, got 0\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "command", ["enum", "graph", "verify", "expand", "product", "char", "string"]
)
def test_every_command_refuses_a_bad_global_option(tmp_path, capsys, command):
    source = tmp_path / "input.json"
    source.write_text(export_json(queer_graph((2, 1), 3)), encoding="utf-8")
    argv = {
        "enum": ["enum", "ssht", "--shape", "2,1", "--n", "3", "--out", str(tmp_path / "t.txt")],
        "graph": ["graph", "--model", "queer", "--shape", "2,1", "--n", "3",
                  "--out", str(tmp_path / "g.json")],
        "verify": ["verify", "--input", str(source), "--axioms", "queer"],
        "expand": ["expand", "--gamma", "3,1"],
        "product": ["product", "--gamma", "2,1", "--delta", "1", "--n", "3"],
        "char": ["char", "--model", "standard", "--n", "3"],
        "string": ["string", "--tableau", "[[1,2]]", "--i", "1"],
    }[command]
    code, out, err = run(capsys, "--max-vertices", "0", *argv)
    assert (code, out) == (2, "")
    assert err == "error: max_vertices must be positive, got 0\n"
    assert [path.name for path in tmp_path.iterdir()] == ["input.json"]


def test_a_bad_global_option_is_reported_before_a_bad_argument(capsys):
    code, out, err = run(capsys, "--max-vertices", "0", "expand", "--gamma", "1", "--n", "0")
    assert (code, out) == (2, "")
    assert err == "error: max_vertices must be positive, got 0\n"


def test_expand_subcommand(capsys):
    code, out, _ = run(capsys, "expand", "--gamma", "3,1")
    assert code == 0
    assert out.strip() == "s[3,1] + s[2,2] + s[2,1,1]"


def test_expand_rejects_small_alphabet(capsys):
    code, _, err = run(capsys, "expand", "--gamma", "3,1", "--n", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_nonpositive_alphabet_exits_two_with_its_own_message(capsys, n):
    commands = [
        ("expand", "--gamma", "1", "--n", n),
        ("string", "--tableau", "[[1,2]]", "--i", "1", "--n", n),
        ("string", "--kind", "ssyt", "--tableau", "[[1,2]]", "--i", "1", "--n", n),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: alphabet bound must be positive, got {n}\n", argv


def test_product_subcommand(capsys):
    code, out, _ = run(capsys, "product", "--gamma", "3,1", "--delta", "2", "--n", "6")
    assert code == 0
    assert out.strip() == "P[5,1] + 2*P[4,2] + P[3,2,1]"


def test_char_subcommands(capsys):
    code, out, _ = run(capsys, "char", "--model", "young", "--shape", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "x1^2 + x1*x2 + x2^2"
    code, out, _ = run(capsys, "char", "--model", "queer", "--shape", "2,1", "--n", "3")
    assert code == 0
    assert out.strip().startswith("x1^2*x2")
    assert "2*x1*x2*x3" in out
    code, out, _ = run(capsys, "char", "--model", "standard", "--n", "3")
    assert code == 0
    assert out.strip() == "x1 + x2 + x3"


@pytest.mark.parametrize("shape", ["1", "2,2"])
def test_queer_char_refuses_an_alphabet_of_one(tmp_path, capsys, shape):
    message = "error: queer crystal needs an alphabet of at least 2, got 1\n"
    assert run(capsys, "char", "--model", "queer", "--shape", shape, "--n", "1") == (2, "", message)
    out = tmp_path / "g.json"
    graph = ("graph", "--model", "queer", "--shape", shape, "--n", "1", "--out", str(out))
    assert run(capsys, *graph) == (2, "", message) and not out.exists()
    assert run(capsys, "char", "--model", "shifted", "--shape", "1", "--n", "1") == (0, "x1\n", "")


@pytest.mark.parametrize("n", ["1", "0"])
def test_standard_model_refuses_an_alphabet_below_two(tmp_path, capsys, n):
    message = f"error: queer crystal needs an alphabet of at least 2, got {n}\n"
    assert run(capsys, "char", "--model", "standard", "--n", n) == (2, "", message)
    out = tmp_path / "g.json"
    graph = ("graph", "--model", "standard", "--n", n, "--out", str(out))
    assert run(capsys, *graph) == (2, "", message) and not out.exists()
    assert run(capsys, "char", "--model", "standard", "--n", "2") == (0, "x1 + x2\n", "")


def test_string_subcommand_walks_the_full_string(capsys):
    code, out, _ = run(
        capsys,
        "string",
        "--kind",
        "ssht",
        "--tableau",
        HOOK_STRING_432[1],
        "--i",
        "4",
    )
    assert code == 0
    assert out.splitlines() == HOOK_STRING_432


def test_string_subcommand_young(capsys):
    code, out, _ = run(
        capsys, "string", "--kind", "ssyt", "--tableau", "[[1,2],[2]]", "--i", "1"
    )
    assert code == 0
    assert out.splitlines() == ["[[1,1],[2]]", "[[1,2],[2]]"]


def test_repeated_calls_match_fresh_runs_and_build_the_parser_once(
    tmp_path, capsys, monkeypatch
):
    import crystals.cli as cli

    commands = [
        ["enum", "ssht", "--shape", "2,1", "--n", "3"],
        ["graph", "--model", "queer", "--shape", "3,1", "--n", "3",
         "--out", str(tmp_path / "q.json")],
        ["verify", "--input", str(tmp_path / "q.json"), "--axioms", "queer"],
        ["expand", "--gamma", "3,1"],
        ["expand", "--gamma", "3,1", "--n", "2"],
        ["--max-vertices", "3", "enum", "ssht", "--shape", "2,1", "--n", "3"],
        ["product", "--gamma", "3,1", "--delta", "2", "--n", "6"],
        ["string", "--kind", "ssyt", "--tableau", "[[1,2],[2]]", "--i", "1"],
        ["char", "--model", "standard", "--n", "3"],
    ]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())

    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert len(built) == len(commands)

    built.clear()
    cli._parser.cache_clear()
    repeated = [run(capsys, *argv) for argv in commands]
    with pytest.raises(SystemExit) as refused:  # an argparse error in between
        main(["enum", "ssht"])
    capsys.readouterr()
    assert refused.value.code == 2
    repeated += [run(capsys, *argv) for argv in commands]
    assert built == [1]
    assert repeated == fresh + fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 4, 0, 0, 0]


FUZZ_BASES = (
    export_json(queer_graph((2, 1), 3)),
    export_json(
        tensor_graphs(queer_graph((1,), 3), queer_graph((1,), 3), queer=True)
    ),
)
FUZZ_COLORS = ("0", "1", "2", "3", "4", "1p", "2p")


@st.composite
def mutated_graph_files(draw):
    """An exported queer crystal or tensor with one to four random edits."""
    data = json.loads(draw(st.sampled_from(FUZZ_BASES)))
    vertices, edges = data["vertices"], data["edges"]
    for _ in range(draw(st.integers(1, 4))):
        ids = [v["id"] for v in vertices]
        kind = draw(st.sampled_from((
            "drop edge", "add edge", "recolor", "retarget", "duplicate edge",
            "duplicate vertex", "drop vertex", "weight", "weight length", "n",
        )))
        if kind == "add edge":
            edges.append({
                "src": draw(st.sampled_from(ids)),
                "color": draw(st.sampled_from(FUZZ_COLORS)),
                "dst": draw(st.sampled_from(ids)),
            })
        elif kind in ("drop edge", "recolor", "retarget", "duplicate edge") and edges:
            k = draw(st.integers(0, len(edges) - 1))
            if kind == "drop edge":
                del edges[k]
            elif kind == "recolor":
                edges[k]["color"] = draw(st.sampled_from(FUZZ_COLORS))
            elif kind == "retarget":
                edges[k]["dst"] = draw(st.sampled_from(ids))
            else:
                edges.append(dict(edges[k]))
        elif kind == "duplicate vertex":
            vertices.append(dict(draw(st.sampled_from(vertices))))
        elif kind == "drop vertex" and len(vertices) > 1:
            del vertices[draw(st.integers(0, len(vertices) - 1))]
        elif kind in ("weight", "weight length"):
            weight = draw(st.sampled_from(vertices))["weight"]
            if kind == "weight" and weight:
                weight[draw(st.integers(0, len(weight) - 1))] = draw(st.integers(0, 3))
            elif draw(st.booleans()):
                weight.append(0)
            elif weight:
                weight.pop()
        elif kind == "n":
            data["n"] = draw(st.integers(0, 5))
    return json.dumps(data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_graph_files())
def test_verify_never_crashes_on_mutated_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(text, encoding="utf-8")
        for axioms in ("stembridge", "queer", "components01", "components02"):
            for mode in ("exhaustive", "fast"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([
                        "verify", "--input", str(path), "--axioms", axioms,
                        "--mode", mode,
                    ])
                assert code in (0, 1, 2), (axioms, mode, code)
                if code == 2:
                    assert err.getvalue().startswith("error:")
                    assert out.getvalue() == ""
                else:
                    assert json.loads(out.getvalue())["ok"] is (code == 0)
