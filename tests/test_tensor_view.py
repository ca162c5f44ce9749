"""The lazy tensor view against the materialized tensor product.

Checks:
* at every vertex and color of a pool of small factor pairs, with and without
  the 0-moves, the view's lowering and raising moves are exactly the edges of
  ``tensor_graphs`` on the same factors,
* the queer highest weights found on the view, which only visits the highest
  weights of the left factor times the right factor, are the queer highest
  weights of the materialized tensor, for every strict pair of total size at
  most 5 with the full and a truncated alphabet,
* a product too large to materialize in a test still expands to its
  cross-checked value.
"""

from __future__ import annotations

import pytest

from crystals import (
    TensorView,
    product_expand,
    queer_graph,
    queer_highest_weights,
    shifted_graph,
    standard_graph,
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


def test_product_beyond_materialization_keeps_its_value():
    # The materialized tensor has 705,600 vertices; this value was also
    # reproduced by it and by the greedy leading-term expansion.
    assert product_expand((3, 2), (2, 1), 8) == {
        (5, 3): 1,
        (5, 2, 1): 1,
        (4, 3, 1): 1,
    }
