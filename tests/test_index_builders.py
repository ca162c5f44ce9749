"""The index-list graph builders against the string-edge builders they replaced.

Checks:
* the tableau builder, for every Young, shifted and queer shape of at most 6
  cells and every alphabet up to 5, and on alphabets of 10 to 11 letters,
  where a two-digit entry puts the ids out of filling order, and
  ``tensor_graphs``, on the queer
  tensor pairs the ``verify`` benchmark writes, on their plain products and on
  a product with a product factor, give graphs equal to the oracles'
  (:func:`oracles.string_edge_tableau_graph`,
  :func:`oracles.string_edge_tensor_graphs`): the same vertices, ``down`` and
  ``up`` lists and multi-edge side tables, and the same JSON and DOT bytes,
* the tableau builder does so without ``raising_cells`` or
  ``weight_codes``, which are made to raise in :mod:`crystals.models`: one
  ``string_scan`` per tableau gives its lowering cells and weight, and no
  raising pass or weight loop runs,
* a lowering, or a queer 0-move, that leaves the enumeration is refused with
  the oracle's message, which names the first such edge in
  ``(src, color, dst)`` order,
* a tensor whose factors' payloads run against their ids is sorted by its
  own ids, each the :class:`TensorView` payload of the row pair it came from,
* a tensor factor with a repeated payload, whose product repeats an id, is
  refused with the oracle's message, and one whose product has two sources
  of one target keeps them in ``multi_up`` as the oracle does,
* a tensor factor with two edges of one color out of one vertex is refused,
  naming the first color and then vertex, left factor first, after the
  budget check and before any string length is computed,
* on random graphs of at most 8 vertices, listed out of id order, with
  colors 0, 1, 2 and ``"1p"``, repeated edges, self-loops, multi-targets and
  two-source targets, ``CrystalGraph`` and ``CrystalGraph._indexed`` on the
  first-target rows give the vertex order and the ``down``, ``up``,
  ``multi_down`` and ``multi_up`` tables of the one-loop reference
  (:func:`oracles.edge_loop_tables`), and ``out_edge``/``in_edge`` give the
  smallest end of each vertex's edges of a color (:func:`oracles.edge_ends`),
* the public enumerations, which sort what the packed enumerations return
  in filling order, list tableaux in strictly increasing reading word.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import crystals.graph
import crystals.models
import crystals.queer
import oracles
from crystals import (
    ClosureBudgetExceeded,
    Config,
    CrystalError,
    CrystalGraph,
    ParseError,
    TensorView,
    enumerate_ssht,
    enumerate_ssyt,
    enumerate_yamanouchi,
    export_dot,
    export_json,
    queer_graph,
    shifted_graph,
    tensor_graphs,
    young_graph,
)
from crystals.shifted import lower_at
from crystals.tableaux import checked_geometry, enumerate_codes, render_codes, with_codes

YOUNG_SHAPES = [shape for total in range(7) for shape in oracles.partitions(total)]
STRICT_SHAPES = [shape for total in range(7) for shape in oracles.strict_partitions(total)]
VERIFY_TENSORS = [((2,), (1,), 3), ((2, 1), (1,), 3), ((2,), (2,), 4), ((3,), (1,), 4),
                  ((2, 1), (2,), 4)]


@pytest.fixture
def without_raising_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tableau builder ran raising_cells or weight_codes")

    monkeypatch.setattr(crystals.models, "raising_cells", refuse)
    monkeypatch.setattr(crystals.models, "weight_codes", refuse)


def assert_same_graph(new: CrystalGraph, old: CrystalGraph) -> None:
    assert new == old
    assert new.index == old.index
    assert new.up == old.up
    assert new.multi_down == old.multi_down
    assert new.multi_up == old.multi_up
    assert export_json(new) == export_json(old)
    assert export_dot(new) == export_dot(old)


def test_shape_lists_cover_every_shape_to_six_cells():
    assert len(YOUNG_SHAPES) == 30
    assert len(STRICT_SHAPES) == 14


@pytest.mark.usefixtures("without_raising_pass")
@pytest.mark.parametrize("shape", YOUNG_SHAPES, ids=str)
def test_young_builder_matches_the_string_edge_builder(shape):
    for n in range(1, 6):
        old = oracles.string_edge_tableau_graph(False, shape, n, None)
        assert_same_graph(young_graph(shape, n), old)


@pytest.mark.usefixtures("without_raising_pass")
@pytest.mark.parametrize("shape", STRICT_SHAPES, ids=str)
def test_shifted_and_queer_builders_match_the_string_edge_builder(shape):
    for n in range(1, 6):
        old = oracles.string_edge_tableau_graph(True, shape, n, None)
        assert_same_graph(shifted_graph(shape, n), old)
        if n >= 2:
            old = oracles.string_edge_tableau_graph(True, shape, n, None, queer_move=True)
            assert_same_graph(queer_graph(shape, n), old)


@pytest.mark.usefixtures("without_raising_pass")
def test_builders_sort_ids_that_the_filling_order_does_not():
    cases = [(False, (1,), 11), (False, (2, 1), 10), (True, (2,), 10), (True, (2, 1), 11)]
    for shifted_shape, shape, n in cases:
        g = checked_geometry(shape, n, shifted_shape)
        filled = [render_codes(codes, g) for codes in enumerate_codes(g, n)]
        assert filled != sorted(filled)
        for queer_move in (False, True) if shifted_shape else (False,):
            build = queer_graph if queer_move else shifted_graph if shifted_shape else young_graph
            old = oracles.string_edge_tableau_graph(shifted_shape, shape, n, None, queer_move)
            assert_same_graph(build(shape, n), old)


@pytest.mark.parametrize("left, right, n", VERIFY_TENSORS, ids=str)
def test_tensor_builder_matches_the_string_edge_builder(left, right, n):
    g1, g2 = queer_graph(left, n), queer_graph(right, n)
    for queer in (True, False):
        assert_same_graph(tensor_graphs(g1, g2, queer=queer),
                          oracles.string_edge_tensor_graphs(g1, g2, queer=queer))
    product = tensor_graphs(g1, g2, queer=True)
    nested = tensor_graphs(product, g2, queer=True)
    assert_same_graph(nested, oracles.string_edge_tensor_graphs(product, g2, queer=True))


def _refusal(build, *args, **kwargs) -> tuple[type, str]:
    with pytest.raises(CrystalError) as caught:
        build(*args, **kwargs)
    return caught.type, str(caught.value)


@pytest.mark.parametrize("shape, n, queer_move", [((2, 1), 3, False), ((3, 1), 4, True)])
def test_builders_refuse_the_first_stray_lowering_as_the_oracle_does(monkeypatch, shape, n,
                                                                      queer_move):
    def stray(codes, g, i, cell):  # color 2 leaves the enumeration
        return with_codes(codes, cell, 99) if i == 2 else lower_at(codes, g, i, cell)

    monkeypatch.setattr(crystals.models, "lower_at", stray)
    monkeypatch.setattr(oracles, "lower_at", stray)
    build = queer_graph if queer_move else shifted_graph
    kind, message = _refusal(build, shape, n)
    assert "is not a vertex" in message
    assert (kind, message) == _refusal(
        oracles.string_edge_tableau_graph, True, shape, n, None, queer_move=queer_move)
    if queer_move:  # the 0-move leaves the enumeration; the lowerings do not
        f0 = crystals.queer.f0_codes
        monkeypatch.setattr(crystals.models, "lower_at", lower_at)
        monkeypatch.setattr(oracles, "lower_at", lower_at)
        monkeypatch.setattr(crystals.queer, "f0_codes", lambda codes: (
            None if (moved := f0(codes)) is None else with_codes(moved, 0, 99)))
        kind, message = _refusal(build, shape, n)
        assert "is not a vertex" in message
        assert (kind, message) == _refusal(
            oracles.string_edge_tableau_graph, True, shape, n, None, queer_move=True)


def test_tensor_of_factors_with_a_repeated_payload_is_refused_as_the_oracle_does():
    g1 = CrystalGraph(2, [("a", "x", (1, 0)), ("b", "x", (0, 1))], [("a", 1, "b")])
    g2 = CrystalGraph(2, [("c", "y", (1, 0))], [])
    refusal = _refusal(tensor_graphs, g1, g2)
    assert refusal == _refusal(oracles.string_edge_tensor_graphs, g1, g2)
    assert "duplicate vertex id" in refusal[1]


def test_tensor_with_two_sources_of_one_target_keeps_both_as_the_oracle_does():
    g1 = CrystalGraph(2, [("a", "a", (1, 0)), ("b", "b", (1, 0)), ("c", "c", (0, 1))],
                      [("a", 1, "c"), ("b", 1, "c")])
    g2 = CrystalGraph(2, [("d", "d", (0, 0))], [])
    new = tensor_graphs(g1, g2)
    assert new.multi_up == {1: {2: (0, 1)}}
    assert_same_graph(new, oracles.string_edge_tensor_graphs(g1, g2))


def test_tensor_of_a_factor_with_a_multi_edge_is_refused(monkeypatch):
    vertices = [("a", "a", (1, 0)), ("b", "b", (0, 1)), ("c", "c", (0, 1)), ("d", "d", (0, 1))]
    plain = CrystalGraph(2, vertices[:2], [("a", 1, "b")])
    forked = CrystalGraph(2, vertices, [("b", 1, "c"), ("b", 1, "d"), ("a", 1, "b"),
                                        ("c", 0, "a"), ("c", 0, "b"), ("a", 0, "b"),
                                        ("a", 0, "c"), ("a", 0, "d")])
    with pytest.raises(ClosureBudgetExceeded):
        tensor_graphs(plain, forked, config=Config(max_vertices=7))

    def refuse(*args):
        raise AssertionError("a string length was computed")

    monkeypatch.setattr(crystals.graph, "string_length_maps", refuse)
    for g1, g2, side in ((plain, forked, "right"), (forked, forked, "left")):
        with pytest.raises(ParseError) as caught:
            tensor_graphs(g1, g2, queer=True)
        assert str(caught.value) == (f"{side} tensor factor is not a crystal: "
                                     "vertex 'a' has 3 outgoing edges of color 0")


def test_tensor_ids_that_the_factor_order_does_not_sort_are_sorted():
    # The product's ids are the factors' payloads, which run against their ids.
    g1 = CrystalGraph(2, [("1", "z", (1, 0)), ("2", "a", (0, 1))], [("1", 1, "2")])
    g2 = CrystalGraph(2, [("3", "y", (1, 0)), ("4", "b", (0, 1))], [("3", 1, "4")])
    new = tensor_graphs(g1, g2)
    assert list(new.vertex_ids) == ["a⊗b", "a⊗y", "z⊗b", "z⊗y"]
    assert_same_graph(new, oracles.string_edge_tensor_graphs(g1, g2))
    view = TensorView(g1, g2)
    pairs = [(g1.index[a], g2.index[b])
             for a, b in (("2", "4"), ("2", "3"), ("1", "4"), ("1", "3"))]
    assert list(new.vertex_ids) == [view.payload_of(pair) for pair in pairs]


@st.composite
def small_graphs(draw) -> tuple[list, list]:
    """Vertices out of id order and edges among them, with repeats, self-loops,
    multi-targets and two-source targets."""
    ids = draw(st.permutations([f"v{k}" for k in range(draw(st.integers(0, 8)))]))
    vertices = [(vid, f"p{vid}", (k % 3, 1)) for k, vid in enumerate(ids)]
    if not ids:
        return vertices, []
    ends = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(ends, st.sampled_from([0, 1, 2, "1p"]), ends), max_size=16))
    return vertices, edges + draw(st.lists(st.sampled_from(edges), max_size=4) if edges
                                  else st.just([]))


def _tables(graph: CrystalGraph) -> tuple:
    return (graph.vertex_ids, [*graph.down], graph.down, graph.up, graph.multi_down,
            graph.multi_up)


def _reference(n: int, vertices: list, edges: list) -> tuple:
    ids, down, up, multi_down, multi_up = oracles.edge_loop_tables(n, vertices, edges)
    return ids, [*down], down, up, multi_down, multi_up


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_both_constructors_assemble_the_tables_of_the_one_loop_reference(graph):
    vertices, edges = graph
    public = CrystalGraph(2, vertices, edges)
    assert _tables(public) == _reference(2, vertices, edges)
    ids = [vid for vid, _, _ in vertices]
    row_of = {vid: k for k, vid in enumerate(ids)}
    rows = {5: [-1] * len(ids)}  # a color without edges is dropped
    firsts = []
    for src, color, dst in edges:
        row = rows.setdefault(color, [-1] * len(ids))
        if row[row_of[src]] < 0:
            row[row_of[src]] = row_of[dst]
            firsts.append((src, color, dst))
    indexed = CrystalGraph._indexed(2, ids, [p for _, p, _ in vertices],
                                    [w for _, _, w in vertices], rows)
    assert _tables(indexed) == _reference(2, vertices, firsts)
    # The id-keyed moves read the smallest end of each vertex's edges.
    for built in (public, indexed):
        targets, sources = oracles.edge_ends(built)
        for vid in ids:
            for color in (0, 1, 2, "1p", 5):
                assert built.out_edge(vid, color) == (targets.get((vid, color)) or [None])[0]
                assert built.in_edge(vid, color) == (sources.get((vid, color)) or [None])[0]


def _strictly_increasing(keys: list) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


def test_public_enumerations_print_in_reading_word_order():
    for shape in YOUNG_SHAPES:
        for n in range(1, 5):
            tableaux = enumerate_ssyt(shape, n)
            assert _strictly_increasing([oracles._word_sort_key(t) for t in tableaux]), shape
    for shape in STRICT_SHAPES:
        for n in range(1, 5):
            for tableaux in (enumerate_ssht(shape, n), enumerate_yamanouchi(shape, n)):
                assert _strictly_increasing([oracles._word_sort_key(t) for t in tableaux]), shape
