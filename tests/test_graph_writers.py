"""The graph file writers against the ``json.dumps`` writers they replace.

Checks:
* ``export_json`` and ``export_dot`` give the bytes of the ``json.dumps``
  writers in ``oracles.py`` on every Young, shifted and queer model build of
  size at most 6 at n <= 5, the queer (4,2,1) at n = 5, both standard
  models and a queer tensor,
* and on hand-built graphs whose ids and payloads hold quotes, backslashes,
  control characters, DEL, primes, tensor signs and a non-BMP character,
  with n = 0, no vertices, no edges, odd colors ``1p`` and ``12p``,
  multi-edges, vertex blocks without out-edges, and color labels no graph
  file can hold,
* all of this also when the writers work in blocks of 1, 2 or 3 vertices,
* a DOT color label escapes quotes and backslashes as ids and payloads do,
* an odd color label of 5,000 digits, which a graph file may hold, gets the
  palette color of ``"11p"`` and is written whole,
* every graph file written imports back to a graph that writes the same text.
"""

from __future__ import annotations

from functools import partial
from itertools import zip_longest

import pytest

import crystals.graph

from crystals import (
    CrystalGraph,
    export_dot,
    export_json,
    import_json,
    queer_graph,
    queer_standard_graph,
    shifted_graph,
    standard_graph,
    tensor_graphs,
    young_graph,
)
from crystals.graph import Vertex
import oracles


def _model_builds():
    """``(name, build)`` of each model graph, built when its test runs."""
    for size in range(1, 7):
        for shape in oracles.partitions(size):
            for n in range(len(shape), 6):
                yield f"young{shape}/{n}", partial(young_graph, shape, n)
        for shape in oracles.strict_partitions(size):
            for n in range(len(shape), 6):
                yield f"shifted{shape}/{n}", partial(shifted_graph, shape, n)
                if n >= 2:
                    yield f"queer{shape}/{n}", partial(queer_graph, shape, n)
    yield "queer(4, 2, 1)/5", partial(queer_graph, (4, 2, 1), 5)
    for n in range(1, 6):
        yield f"standard/{n}", partial(standard_graph, n)
        if n >= 2:
            yield f"queer_standard/{n}", partial(queer_standard_graph, n)
    yield "queer(2, 1)x(2)/3", lambda: tensor_graphs(
        queer_graph((2, 1), 3), queer_graph((2,), 3), queer=True
    )


_STRANGE = ['q"uote', "back\\slash", "new\nline", "nul\x00", "unit\x1f", "del\x7f",
            "2′", "1⊗2", "clef\U0001d11e", "tab\tcr\r"]


def _hand_built():
    ids = [f"{text}{k}" for k, text in enumerate(_STRANGE)]
    vertices = [Vertex(vid, _STRANGE[-1 - k], (k, 10**20)) for k, vid in enumerate(ids)]
    edges = [(ids[k], color, ids[k + 1])
             for k, color in enumerate([0, 1, 2, 3, 4, 11, "1p", "2p", "12p"])]
    yield "strange", CrystalGraph(2, vertices, edges)
    yield "n=0", CrystalGraph(0, [Vertex("a", "a", ()), Vertex("b", "b", ())], [("a", 1, "b")])
    yield "no vertices", CrystalGraph(3, [], [])
    yield "no edges", CrystalGraph(1, [Vertex("x", "[[1]]", (1,))], [])
    yield "odd colors", CrystalGraph(
        1, [Vertex("u", "u", (0,)), Vertex("v", "v", (1,))],
        [("u", "1p", "v"), ("v", "12p", "u"), ("u", "12p", "u")],
    )
    three = [Vertex(vid, vid, (0,)) for vid in "abc"]
    yield "multi-edges", CrystalGraph(
        1, three, [("a", 1, "b"), ("a", 1, "c"), ("b", 1, "c"), ("c", 2, "a"), ("c", 2, "b")])
    seven = [Vertex(f"v{k}", f"v{k}", (k,)) for k in range(7)]
    yield "first block without out-edges", CrystalGraph(
        1, seven, [("v4", 1, "v5"), ("v6", 1, "v0"), ("v6", "1p", "v2")])


def _first_difference(new: str, old: str) -> tuple[int, str | None, str | None] | None:
    """The first line where two texts differ, as ``(index, new, old)``; a failure
    then shows one line, not a diff of two whole graph files."""
    lines = zip_longest(new.split("\n"), old.split("\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b), None)


GRAPHS = [*_model_builds(), *((name, lambda g=g: g) for name, g in _hand_built())]


@pytest.mark.parametrize("name, build", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_writers_match_the_json_dumps_writers(name, build):
    graph = build()
    text = export_json(graph)
    assert _first_difference(text, oracles.export_json(graph)) is None
    assert _first_difference(export_dot(graph), oracles.export_dot(graph)) is None
    assert _first_difference(export_json(import_json(text)), text) is None


@pytest.mark.parametrize("name, build", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_writers_match_the_json_dumps_writers_in_small_blocks(name, build, monkeypatch):
    graph = build()
    json_text, dot_text = oracles.export_json(graph), oracles.export_dot(graph)
    for size in (1, 2, 3):
        monkeypatch.setattr(crystals.graph, "_CHUNK", size)
        assert _first_difference(export_json(graph), json_text) is None, size
        assert _first_difference(export_dot(graph), dot_text) is None, size


@pytest.mark.parametrize("label, line", [
    ('a"b', '  "u" -> "v" [color=magenta, label="a\\"b"];'),
    ("x\\y", '  "u" -> "v" [color=magenta, label="x\\\\y"];'),
])
def test_dot_escapes_color_labels(label, line):
    graph = CrystalGraph(1, [Vertex("u", "u", (0,)), Vertex("v", "v", (1,))], [("u", label, "v")])
    assert export_dot(graph).split("\n")[4] == line


@pytest.mark.parametrize("label", ['a"b', "p", "x\\y", "é\n"])
def test_color_labels_outside_the_file_format_are_written_as_json_strings(label):
    graph = CrystalGraph(1, [Vertex("u", "u", (0,)), Vertex("v", "v", (1,))],
                         [("u", label, "v"), ("v", 2, "u")])
    assert _first_difference(export_json(graph), oracles.export_json(graph)) is None
    assert _first_difference(export_dot(graph), oracles.export_dot(graph)) is None


def test_an_odd_color_past_the_digit_limit_keeps_its_palette_color():
    label = "1" * 5000 + "p"
    ends = [Vertex("u", "u", (0,)), Vertex("v", "v", (1,))]
    graph = import_json(export_json(CrystalGraph(1, ends, [("u", label, "v")])))
    short = export_dot(CrystalGraph(1, ends, [("u", "11p", "v")])).split("\n")[4]
    assert short == '  "u" -> "v" [color=gold, label="11p"];'
    assert export_dot(graph).split("\n")[4] == f'  "u" -> "v" [color=gold, label="{label}"];'
