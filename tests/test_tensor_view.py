"""The lazy tensor view against the materialized tensor product.

Checks:
* at every vertex and color of a pool of small factor pairs, with and without
  the 0-moves, the view's lowering and raising moves are exactly the edges of
  ``tensor_graphs`` on the same factors,
* the view refuses a factor graph with two edges of one color out of one
  vertex, naming it as ``tensor_graphs`` does, and accepts one with two
  sources of one target,
* the tableau-backed factor ``QueerTableauCrystal`` has the vertices,
  weights, moves, string lengths and even highest weights of ``queer_graph``
  for every strict shape of size at most 4 and alphabet up to 4, and refuses
  a shape that is not strict, or too small an alphabet, when constructed,
* the queer highest weights found on the view, which only visits the highest
  weights of the left factor times the right factor, are the queer highest
  weights of the materialized tensor, for every strict pair of total size at
  most 5 with the full and a truncated alphabet, and a view of two
  tableau-backed factors finds the same ones as a view of the factor graphs,
* products too large to materialize in a test still expand to their
  cross-checked values, in either factor order.
"""

from __future__ import annotations

import pytest

from crystals import (
    CrystalGraph,
    ParseError,
    QueerTableauCrystal,
    ShapeMismatch,
    TensorView,
    ValueOutOfRange,
    product_expand,
    queer_graph,
    queer_highest_weights,
    shifted_graph,
    standard_graph,
    string_length_maps,
    tensor_graphs,
)
from oracles import strict_partitions


def _factor_pool():
    b3 = standard_graph(3)
    return {
        "B3xB3": (b3, b3),
        "q1xq1": (queer_graph((1,), 3), queer_graph((1,), 3)),
        "q21xq1": (queer_graph((2, 1), 3), queer_graph((1,), 3)),
        "q2xq21": (queer_graph((2,), 4), queer_graph((2, 1), 4)),
        "q3xq2": (queer_graph((3,), 4), queer_graph((2,), 4)),
        "s21xq2": (shifted_graph((2, 1), 3), queer_graph((2,), 3)),
        "nested": (tensor_graphs(b3, b3, queer=True), queer_graph((1,), 3)),
    }


@pytest.mark.parametrize("queer", [False, True], ids=["even", "queer"])
@pytest.mark.parametrize("name", sorted(_factor_pool()))
def test_view_moves_equal_materialized_edges(name, queer):
    g1, g2 = _factor_pool()[name]
    view = TensorView(g1, g2, queer=queer)
    tensor = tensor_graphs(g1, g2, queer=queer)
    for b1 in g1.vertex_ids:
        for b2 in g2.vertex_ids:
            pair = (b1, b2)
            vid = view.payload_of(pair)
            assert view.weight_of(pair) == tensor.weight_of(vid)
            for color in range(view.n):
                for lazy, materialized in (
                    (view.out_edge(pair, color), tensor.out_all(vid, color)),
                    (view.in_edge(pair, color), tensor.in_all(vid, color)),
                ):
                    expected = () if lazy is None else (view.payload_of(lazy),)
                    assert materialized == expected


def test_view_refuses_a_factor_that_is_not_a_crystal():
    vertices = [("a", "a", (1, 0)), ("b", "b", (0, 1)), ("c", "c", (0, 1))]
    forked = CrystalGraph(2, vertices, [("a", 0, "b"), ("a", 0, "c")])
    with pytest.raises(ParseError) as caught:
        TensorView(forked, forked, queer=True)
    assert str(caught.value) == ("left tensor factor is not a crystal: "
                                 "vertex 'a' has 2 outgoing edges of color 0")


def test_view_accepts_a_factor_with_two_sources_of_one_target():
    vertices = [("a", "a", (1, 0)), ("b", "b", (1, 0)), ("c", "c", (0, 1))]
    joined = CrystalGraph(2, vertices, [("a", 1, "c"), ("b", 1, "c")])
    view, tensor = TensorView(joined, joined), tensor_graphs(joined, joined)
    for pair in [(b1, b2) for b1 in "abc" for b2 in "abc"]:
        lazy = view.out_edge(pair, 1)
        assert tensor.out_edge(view.payload_of(pair), 1) == (lazy and view.payload_of(lazy))


@pytest.mark.parametrize(
    "shape, n",
    [(lam, n) for size in range(1, 5) for lam in strict_partitions(size) for n in (2, 3, 4)],
    ids=str,
)
def test_tableau_factor_reads_like_the_queer_graph(shape, n):
    graph = queer_graph(shape, n)
    factor = QueerTableauCrystal(shape, n)
    name = factor.payload_of
    assert sorted(map(name, factor.vertex_ids)) == list(graph.vertex_ids)
    assert sorted(map(name, factor.even_highest_weights())) == graph.even_highest_weights()
    strings = {c: factor.string_maps(c) for c in range(1, n)}
    for vid in factor.vertex_ids:
        tid = name(vid)
        assert factor.weight_of(vid) == graph.weight_of(tid)
        for color in range(n):
            for lazy, edge in (
                (factor.out_edge(vid, color), graph.out_edge(tid, color)),
                (factor.in_edge(vid, color), graph.in_edge(tid, color)),
            ):
                assert (None if lazy is None else name(lazy)) == edge
        for color, (phi, eps) in strings.items():
            graph_phi, graph_eps = string_length_maps(graph, color)
            k = graph.index[tid]
            assert (phi[vid], eps[vid]) == (graph_phi[k], graph_eps[k])


@pytest.mark.parametrize(
    "shape, n, error",
    [((2, 2), 3, ShapeMismatch), ((1, 2), 3, ShapeMismatch), ((2, 1), 1, ValueOutOfRange)],
    ids=["equal-rows", "increasing", "alphabet-1"],
)
def test_tableau_factor_checks_its_input_when_constructed(shape, n, error):
    with pytest.raises(error):
        QueerTableauCrystal(shape, n)


def _strict_pairs(limit):
    shapes = [lam for size in range(1, limit) for lam in strict_partitions(size)]
    return [(g, d) for g in shapes for d in shapes if sum(g) + sum(d) <= limit]


def _alphabets(gamma, delta):
    full = sum(gamma) + sum(delta)
    return [full, full - 1] if full - 1 >= 2 else [full]


@pytest.mark.parametrize(
    "gamma, delta, n",
    [(g, d, n) for g, d in _strict_pairs(5) for n in _alphabets(g, d)],
    ids=str,
)
def test_lazy_highest_weights_equal_materialized(gamma, delta, n):
    left, right = queer_graph(gamma, n), queer_graph(delta, n)
    view = TensorView(left, right, queer=True)
    lazy = [view.payload_of(pair) for pair in queer_highest_weights(view)]
    assert len(set(lazy)) == len(lazy)
    materialized = queer_highest_weights(tensor_graphs(left, right, queer=True))
    assert sorted(lazy) == materialized


@pytest.mark.parametrize(
    "gamma, delta, n",
    [(g, d, n) for g, d in _strict_pairs(5) for n in _alphabets(g, d)],
    ids=str,
)
def test_tableau_factors_find_the_graph_factors_highest_weights(gamma, delta, n):
    on_graphs = TensorView(queer_graph(gamma, n), queer_graph(delta, n), queer=True)
    on_tableaux = TensorView(
        QueerTableauCrystal(gamma, n), QueerTableauCrystal(delta, n), queer=True
    )
    found = [on_tableaux.payload_of(pair) for pair in queer_highest_weights(on_tableaux)]
    expected = [on_graphs.payload_of(pair) for pair in queer_highest_weights(on_graphs)]
    assert sorted(found) == sorted(expected)


def test_product_beyond_materialization_keeps_its_value():
    # The materialized tensor has 705,600 vertices; this value was also
    # reproduced by it and by the greedy leading-term expansion.
    assert product_expand((3, 2), (2, 1), 8) == {
        (5, 3): 1,
        (5, 2, 1): 1,
        (4, 3, 1): 1,
    }


def test_product_with_the_larger_left_factor_keeps_its_value():
    # The search on the two materialized factor graphs, oracles'
    # materialized_product, gives the same value in about 17 s.
    expected = {(6, 3): 1, (6, 2, 1): 1, (5, 4): 1, (5, 3, 1): 2, (4, 3, 2): 1}
    assert product_expand((4, 2), (2, 1), 9) == expected
    assert product_expand((2, 1), (4, 2), 9) == expected
