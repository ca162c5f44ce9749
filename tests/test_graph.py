"""Graph construction, serialization, tensors, isomorphism, and budgets.

Checks:
* the basic chain models have the expected vertices, edges, and single source,
* construction output is fully deterministic, ``Config`` has no thread
  setting, and ``resolve_threads`` ignores ``CRYSTAL_THREADS``,
* characters of constructed graphs equal the corresponding polynomials,
* components and highest weights of a tensor square match hand-derived data,
  and the vertex-index groups counted by ``graph`` are the components'
  vertices, in the same order, for model, tensor and color-restricted
  graphs; restricted to given colors, the groups are those of the color
  subgraph, and ``components`` equals the ``restrict`` copies of the
  union-find oracle on queer crystals and queer tensors,
* a graph built from shuffled, duplicated and parallel edges serves exactly
  the grouped, sorted, unique edges through its four adjacency accessors,
* tensor graphs agree with the hand-transcribed products and multiply
  characters, and an over-budget tensor is refused before any string
  length is computed (mismatched weight lengths still come first),
* rooted isomorphism accepts relabelings, rejects weight changes, different
  or repeated out-edge colors, and two colors that meet at one target in one
  graph only, and refuses graphs without a unique source,
* a graph is never equal to an object that is not a graph,
* JSON round trips byte-identically and the importer rejects malformed input,
  including negative or boolean numbers, colors that would not round-trip and
  text UTF-8 cannot encode, with the message of the first failed check in
  file order,
* the DOT export colors edges by their color index,
* vertex budgets abort construction early,
* every raising operator adds no edge beyond its lowering operator: the
  model graphs' color-``i`` edges are exactly ``e_i(t) -> t``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest

from crystals import (
    ClosureBudgetExceeded,
    Config,
    CrystalGraph,
    MultipleSources,
    ParseError,
    character,
    components,
    export_dot,
    export_json,
    highest_weights,
    import_json,
    isomorphic,
    queer_graph,
    queer_standard_graph,
    schur,
    schur_p,
    shifted_graph,
    standard_graph,
    tensor_graphs,
    young_graph,
)
import crystals.graph
from crystals.config import resolve_threads
from crystals import queer, shifted, young
from crystals.graph import Vertex, _component_groups, string_length_maps
from crystals.shifted import eps as shifted_eps
from crystals.shifted import phi as shifted_phi
from crystals.tableaux import enumerate_ssht, enumerate_ssyt, parse_shifted, render_tableau
from oracles import copying_components, partitions, restrict, strict_partitions, subgraph
from reference_data import (
    queer31_graph,
    shifted31_graph,
    tensor_b3b3_graph,
)


def test_standard_chain():
    g = standard_graph(3)
    assert len(g) == 3
    assert g.int_colors == (1, 2)
    assert g.out_edge("1", 1) == "2"
    assert g.out_edge("2", 2) == "3"
    assert g.out_edge("1", 2) is None
    assert highest_weights(g) == ["1"]
    assert g.weight_of("2") == (0, 1, 0)


def test_queer_standard_chain_adds_zero_edge():
    plain = standard_graph(3)
    queer = queer_standard_graph(3)
    assert set(plain.vertex_ids) == set(queer.vertex_ids)
    assert queer.out_edge("1", 0) == "2"
    assert queer.out_edge("2", 0) is None
    assert 0 in queer.colors and 0 not in queer.int_colors


def test_construction_is_deterministic_across_threads():
    # Every build runs on one thread, and Config has no thread setting.
    texts = [export_json(shifted_graph((3, 1), 3)) for _ in range(2)]
    assert texts[0] == texts[1]
    assert [f.name for f in dataclasses.fields(Config)] == ["max_vertices", "output_dir"]
    with pytest.raises(TypeError):
        Config(threads=3)


def test_thread_resolution_ignores_environment(monkeypatch):
    monkeypatch.setenv("CRYSTAL_THREADS", "7")
    assert resolve_threads() == (os.cpu_count() or 1)


def test_characters_match_polynomials():
    assert character(young_graph((3, 1), 3)) == schur((3, 1), 3)
    assert character(shifted_graph((3, 1), 3)) == schur_p((3, 1), 3)
    assert character(queer_graph((2, 1), 3)) == schur_p((2, 1), 3)


def test_construction_matches_reference_transcriptions(shifted31, queer31):
    assert shifted31 == shifted31_graph()
    assert queer31 == queer31_graph()


def test_tensor_square_components_and_weights():
    g = tensor_graphs(standard_graph(3), standard_graph(3))
    assert g == tensor_b3b3_graph()
    parts = components(g)
    assert sorted(len(p) for p in parts) == [3, 6]
    tops = {g.weight_of(v) for v in highest_weights(g)}
    assert tops == {(2, 0, 0), (1, 1, 0)}


def test_tensor_payloads_parenthesize_nested_factors():
    b = standard_graph(2)
    g = tensor_graphs(tensor_graphs(b, b), b)
    assert all("(" in vid or vid.count("⊗") == 2 for vid in g.vertex_ids)
    assert "(1⊗1)⊗1" in set(g.vertex_ids)


def test_tensor_character_is_product():
    left, right = shifted_graph((2,), 3), shifted_graph((1,), 3)
    g = tensor_graphs(left, right, queer=True)
    assert character(g) == character(left) * character(right)


def test_tensor_rejects_mismatched_alphabets():
    from crystals import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        tensor_graphs(standard_graph(2), standard_graph(3))


def test_tensor_budget_is_checked_before_string_lengths(monkeypatch):
    from crystals import DimensionMismatch

    def refuse(*args, **kwargs):
        raise AssertionError("string lengths computed before the budget check")

    g = queer_graph((2, 1), 3)
    monkeypatch.setattr(crystals.graph, "string_length_maps", refuse)
    with pytest.raises(ClosureBudgetExceeded, match="8 x 8 = 64 vertices exceeds 63"):
        tensor_graphs(g, g, queer=True, config=Config(max_vertices=63))
    with pytest.raises(DimensionMismatch):
        tensor_graphs(standard_graph(2), g, config=Config(max_vertices=1))


def test_isomorphic_accepts_relabeling():
    g = queer_graph((2, 1), 3)
    names = {vid: f"v{k}" for k, vid in enumerate(g.vertex_ids)}
    relabeled = CrystalGraph(
        g.n,
        [Vertex(names[vid], names[vid], g.weight_of(vid)) for vid in g.vertex_ids],
        [(names[src], c, names[dst]) for (src, c, dst) in g.edges],
    )
    assert isomorphic(g, relabeled)


def test_isomorphic_rejects_weight_change():
    g = queer_graph((2, 1), 3)
    victim = g.vertex_ids[-1]
    changed = CrystalGraph(
        g.n,
        [
            Vertex(
                vid,
                vid,
                tuple(
                    w + (1 if (vid == victim and k == 0) else 0)
                    for k, w in enumerate(g.weight_of(vid))
                ),
            )
            for vid in g.vertex_ids
        ],
        g.edges,
    )
    assert not isomorphic(g, changed)


def test_isomorphic_rejects_shape_difference():
    assert not isomorphic(standard_graph(2), young_graph((2,), 2))


def test_isomorphic_rejects_different_or_repeated_out_colors():
    vertices = [("s", "s", (1, 0)), ("t", "t", (0, 1)), ("u", "u", (0, 1))]
    down1 = CrystalGraph(2, vertices[:2], [("s", 1, "t")])
    down0 = CrystalGraph(2, vertices[:2], [("s", 0, "t")])
    assert not isomorphic(down1, down0)
    forked = CrystalGraph(2, vertices, [("s", 1, "t"), ("s", 1, "u")])
    assert not isomorphic(forked, forked)


def test_isomorphic_rejects_two_colors_that_meet_in_one_graph_only():
    vertices = [(vid, vid, (0, 0, 0)) for vid in "stu"]
    meet = CrystalGraph(3, vertices, [("s", 1, "t"), ("s", 2, "t"), ("t", 1, "u")])
    part = CrystalGraph(3, vertices, [("s", 1, "t"), ("s", 2, "u"), ("t", 1, "u")])
    assert not isomorphic(meet, part)
    assert not isomorphic(part, meet)


def test_isomorphic_requires_unique_source():
    g = tensor_graphs(standard_graph(2), standard_graph(2))
    with pytest.raises(MultipleSources):
        isomorphic(g, g)


def test_graph_is_not_equal_to_other_types():
    empty = CrystalGraph(0, [], [])
    assert (empty == 1) is False
    assert empty == CrystalGraph(0, [], [])


def test_json_round_trip_is_byte_identical(queer31):
    text = export_json(queer31)
    again = export_json(import_json(text))
    assert text == again
    assert text.endswith("\n")
    payload = json.loads(text)
    assert set(payload) == {"n", "vertices", "edges"}
    assert all(isinstance(e["color"], str) for e in payload["edges"])


def test_import_rejects_malformed_input():
    with pytest.raises(ParseError):
        import_json("not json")
    with pytest.raises(ParseError):
        import_json(json.dumps({"n": 2, "vertices": []}))
    good = json.loads(export_json(standard_graph(2)))
    good["edges"].append({"src": "1", "color": "1", "dst": "missing"})
    with pytest.raises(ParseError):
        import_json(json.dumps(good))


def _standard2_with(change):
    data = json.loads(export_json(standard_graph(2)))
    change(data)
    return json.dumps(data)


def test_import_rejects_negative_weight():
    text = _standard2_with(lambda d: d["vertices"][0].update(weight=[-1, 0]))
    with pytest.raises(ParseError):
        import_json(text)


def test_import_rejects_boolean_dimension():
    text = json.dumps({
        "n": True,
        "vertices": [{"id": "a", "payload": "a", "weight": [0]}],
        "edges": [],
    })
    with pytest.raises(ParseError):
        import_json(text)


def test_import_rejects_boolean_weight():
    text = _standard2_with(lambda d: d["vertices"][0].update(weight=[True, 0]))
    with pytest.raises(ParseError):
        import_json(text)


@pytest.mark.parametrize("field, message", [
    ("id", "vertex id"), ("payload", "vertex payload"), ("src", "edge src"), ("dst", "edge dst"),
])
def test_import_refuses_text_utf8_cannot_encode(field, message):
    def plant(d):
        item = d["vertices"][0] if field in ("id", "payload") else d["edges"][0]
        item[field] = "1\udfff"
    with pytest.raises(ParseError, match=message):
        import_json(_standard2_with(plant))


def test_import_reports_entry_problems_in_order():
    cases = [
        (lambda d: d["vertices"].append([]), "vertex entries must be objects"),
        (lambda d: d["vertices"][0].clear(), "vertex missing key 'id'"),
        (lambda d: d["vertices"][0].pop("weight"), "vertex missing key 'weight'"),
        (lambda d: d["vertices"][0].update(id=1, payload=2), "vertex id must be a string"),
        (lambda d: d["vertices"][0].update(payload=2, weight=3), "payload must be a string"),
        (lambda d: d["vertices"][0].update(weight=[0, "1"]), "'1' weight must list"),
        # A bad weight comes first in the file, before a malformed entry.
        (lambda d: (d["vertices"][0].update(weight=[0, -1]), d["vertices"][1].update(id=2)),
         "'1' weight must list"),
        (lambda d: (d["vertices"][1].update(weight=[0, -1]), d["vertices"][0].update(id=2)),
         "vertex id must be a string"),
        (lambda d: d["edges"].append("1"), "edge entries must be objects"),
        (lambda d: d["edges"][0].pop("color"), "edge missing key 'color'"),
        (lambda d: d["edges"][0].update(src=1, dst=1, color=1), "edge src must be a string"),
        (lambda d: d["edges"][0].update(dst=1, color=1), "edge dst must be a string"),
        (lambda d: d["edges"][0].update(color=1), "edge color must be a string"),
    ]
    for change, message in cases:
        with pytest.raises(ParseError, match=message):
            import_json(_standard2_with(change))


@pytest.mark.parametrize("color", ["x", "-1", "", "01"])
def test_import_rejects_colors_outside_the_labels(color):
    text = _standard2_with(lambda d: d["edges"][0].update(color=color))
    with pytest.raises(ParseError):
        import_json(text)


@pytest.mark.parametrize(
    "color, parsed", [("0", 0), ("1", 1), ("10", 10), ("1p", "1p"), ("12p", "12p")]
)
def test_import_reads_integer_and_odd_labels(color, parsed):
    text = _standard2_with(lambda d: d["edges"][0].update(color=color))
    assert import_json(text).edges[0][1] == parsed


def test_dot_export_colors_edges():
    dot = export_dot(queer_standard_graph(3))
    assert dot.startswith("digraph")
    assert "green" in dot  # zero edges
    assert "red" in dot  # color 1
    assert "blue" in dot  # color 2
    assert 'label="0"' in dot


def test_vertex_budget_aborts_construction():
    with pytest.raises(ClosureBudgetExceeded):
        shifted_graph((3, 1), 3, config=Config(max_vertices=5))


def _raising_edges(tableaux, raise_, color):
    """``{(e(t), color, t)}`` over the tableaux where ``e(t)`` is defined."""
    return {
        (render_tableau(up), color, render_tableau(t))
        for t in tableaux
        if (up := raise_(t)) is not None
    }


def _color_edges(graph, color):
    return {edge for edge in graph.edges if edge[1] == color}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_raising_operators_add_no_edge_beyond_lowering(size, n):
    for shape in partitions(size):
        tableaux = enumerate_ssyt(shape, n)
        g = young_graph(shape, n)
        for i in range(1, n):
            raise_ = lambda t, i=i: young.raise_(t, i)
            assert _raising_edges(tableaux, raise_, i) == _color_edges(g, i)
    for shape in strict_partitions(size):
        tableaux = enumerate_ssht(shape, n)
        graphs = [shifted_graph(shape, n)] + ([queer_graph(shape, n)] if n >= 2 else [])
        for g in graphs:
            for i in range(1, n):
                raise_ = lambda t, i=i: shifted.raise_(t, i)
                assert _raising_edges(tableaux, raise_, i) == _color_edges(g, i)
        if n >= 2:
            assert _raising_edges(tableaux, queer.e0, 0) == _color_edges(graphs[1], 0)
            assert _color_edges(graphs[1], 0)


def test_string_length_maps_agree_with_tableau_statistics(shifted31):
    for i in (1, 2):
        lengths = string_length_maps(shifted31, i)
        for k, vid in enumerate(shifted31.vertex_ids):
            t = parse_shifted(shifted31.payload_of(vid))
            assert lengths[0][k] == shifted_phi(t, i)
            assert lengths[1][k] == shifted_eps(t, i)


def test_component_groups_are_the_components_vertex_sets():
    graphs = [
        build(shape, n)
        for size in range(1, 6)
        for n in range(2, 5)
        for build, shapes in (
            (young_graph, partitions(size)),
            (shifted_graph, strict_partitions(size)),
            (queer_graph, strict_partitions(size)),
        )
        for shape in shapes
    ]
    graphs += [
        tensor_graphs(queer_graph(a, 3), queer_graph(b, 3), queer=q)
        for a, b in (((1,), (1,)), ((2,), (1,)), ((2, 1), (1,)))
        for q in (False, True)
    ]
    graphs.append(subgraph(shifted_graph((3, 1), 3), [1]))
    for g in graphs:
        groups = _component_groups(g)
        assert [[g.vertex_ids[k] for k in group] for group in groups] == [
            list(part.vertex_ids) for part in components(g)
        ]
        assert len(groups) == len(components(g))
    assert {len(_component_groups(g)) for g in graphs} > {1}


def test_components_match_the_restrict_oracle():
    graphs = [queer_graph(shape, n) for size in range(1, 6) for n in range(2, 5)
              for shape in strict_partitions(size)]
    graphs += [
        tensor_graphs(queer_graph(a, n), queer_graph(b, n), queer=True)
        for a, b, n in (((1,), (1,), 2), ((1,), (1,), 3), ((2,), (1,), 3), ((2, 1), (1,), 3),
                        ((2,), (2,), 4), ((2, 1), (2,), 3))
    ]
    for g in graphs:
        parts = components(g)
        assert parts == copying_components(g)
        assert parts == [restrict(g, part.vertex_ids) for part in parts]
    assert {len(components(g)) for g in graphs} > {1}


def test_components_partition_the_vertices():
    g = tensor_graphs(standard_graph(3), standard_graph(3))
    parts = components(g)
    seen = [vid for part in parts for vid in part.vertex_ids]
    assert sorted(seen) == sorted(g.vertex_ids)
    for part in parts:
        for (src, color, dst) in part.edges:
            assert g.out_edge(src, color) == dst


def test_component_groups_follow_only_the_given_colors():
    graphs = [
        queer_graph((3, 1), 4),
        queer_standard_graph(4),
        tensor_graphs(queer_graph((2,), 3), queer_graph((1,), 3), queer=True),
    ]
    for g in graphs:
        for colors in ((0, 1), (0, 2), (1,), (0,)):
            assert _component_groups(g, colors) == _component_groups(subgraph(g, colors))
        assert _component_groups(g, ()) == [[k] for k in range(len(g))]


def test_adjacency_is_the_grouped_sorted_unique_edges():
    ids = ["a", "b", "c", "d"]
    unique = [
        ("a", 1, "b"), ("a", 1, "c"),  # two color-1 targets from one vertex
        ("d", 1, "c"),  # a second color-1 source into c
        ("a", 0, "c"), ("b", 2, "d"), ("c", "1p", "a"), ("d", 0, "d"),
    ]
    edges = unique + unique[:3]
    random.Random(8).shuffle(edges)
    g = CrystalGraph(2, [Vertex(v, v, (0, 0)) for v in reversed(ids)], edges)
    assert g.edges == (
        ("a", 0, "c"), ("a", 1, "b"), ("a", 1, "c"), ("b", 2, "d"),
        ("c", "1p", "a"), ("d", 0, "d"), ("d", 1, "c"),
    )
    for vid in ids:
        for color in (0, 1, 2, "1p", 3):
            targets = tuple(sorted(d for s, c, d in unique if s == vid and c == color))
            sources = tuple(sorted(s for s, c, d in unique if d == vid and c == color))
            for table, ends in ((g.multi_down, targets), (g.multi_up, sources)):
                extra = table.get(color, {}).get(g.index[vid], ())
                assert tuple(g.vertex_ids[k] for k in extra) == (ends if len(ends) > 1 else ())
            assert g.out_edge(vid, color) == (targets[0] if targets else None)
            assert g.in_edge(vid, color) == (sources[0] if sources else None)
    assert g.multi_down == {1: {0: (1, 2)}}  # a -> b, c
    assert g.multi_up == {1: {2: (0, 3)}}  # a, d -> c
