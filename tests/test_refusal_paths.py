"""Refusal paths that the rest of the suite does not reach.

Checks:
* ``graph --model tensor`` without ``--left``/``--right``, ``graph --model
  standard`` without ``--n``, ``graph --model young`` without ``--shape`` and
  ``char --model young`` without ``--shape`` each exit 2 with one ``error:``
  line naming what is missing, and print nothing on stdout; so does a
  ``graph`` option its model does not read (``--queer``, ``--left`` or
  ``--right`` outside ``tensor``, ``--shape`` with ``standard``, ``--shape``
  or ``--n`` with ``tensor``, whose factor files fix both), and ``char
  --model standard`` with ``--shape``, naming the option and the model, and
  no file is written,
* the queer checker reports a 0-edge on a graph of one weight coordinate as
  W1 in both modes,
* the {0,2} component checker refuses a component of two 0-edges out of one
  vertex in a graph without color-2 edges,
* ``weyl_s`` refuses a color outside ``1..n-1`` and a string that the graph
  cuts short, and ``odd_word(0)`` is refused,
* ``CrystalGraph`` refuses a negative weight length,
* ``highest_weights`` of a graph without edges of a color ``>= 1`` lists
  every vertex,
* an over-budget ``enum ssht|ssyt``, ``graph`` and ``char`` of each tableau
  model (shape (6,5,4,3,2,1) at n = 12, default budget), and ``product`` of
  (2,1) twice at n = 6 (searched at n = 4, where (2,1) has 20 tableaux)
  under ``--max-vertices 19``, exit 4 with the message
  of an enumeration reaching the first tableau past the budget, write no
  file, and enter no full-enumeration fill,
* one row over an alphabet of 10^30 letters (``enum ssyt`` of (20000),
  ``enum ssht`` of (5000)) is refused with the same message by the bound
  counted from below, with the hook-content count patched to raise.
"""

from __future__ import annotations

import pytest

import crystals.shifted
from crystals import (
    CrystalGraph,
    DimensionMismatch,
    IndexOutOfRange,
    StringTruncated,
    check_02_components,
    check_queer_regular,
    highest_weights,
)
from crystals.cli import main
from crystals.queer import odd_word, weyl_s


@pytest.mark.parametrize("argv, message", [
    (["graph", "--model", "tensor", "--left", "a.json"],
     "tensor model needs --left and --right graph files"),
    (["graph", "--model", "tensor", "--right", "b.json"],
     "tensor model needs --left and --right graph files"),
    (["graph", "--model", "standard"], "standard model needs --n"),
    (["graph", "--model", "young", "--n", "3"], "young model needs --shape and --n"),
    (["char", "--model", "young", "--n", "3"], "young model needs --shape"),
    (["graph", "--model", "young", "--shape", "2,1", "--n", "3", "--queer"],
     "young model does not read --queer"),
    (["graph", "--model", "queer", "--shape", "2,1", "--n", "3", "--queer"],
     "queer model does not read --queer"),
    (["graph", "--model", "shifted", "--shape", "2,1", "--n", "3", "--left", "a.json"],
     "shifted model does not read --left"),
    (["graph", "--model", "queer", "--shape", "1", "--n", "3", "--right", "b.json"],
     "queer model does not read --right"),
    (["graph", "--model", "standard", "--n", "3", "--shape", "1"],
     "standard model does not read --shape"),
    (["graph", "--model", "standard", "--n", "3", "--left", "a.json"],
     "standard model does not read --left"),
    (["graph", "--model", "tensor", "--left", "a.json", "--right", "b.json", "--shape", "1"],
     "tensor model does not read --shape"),
    (["graph", "--model", "tensor", "--left", "a.json", "--right", "b.json", "--n", "0"],
     "tensor model does not read --n"),
    (["char", "--model", "standard", "--shape", "3,1", "--n", "3"],
     "standard model does not read --shape"),
])
def test_model_commands_refuse_missing_and_unused_options(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "g.json")] if argv[0] == "graph"
                else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "g.json").exists()


def test_zero_edge_without_two_weight_coordinates_breaks_w1():
    graph = CrystalGraph(1, [("a", "a", (1,)), ("b", "b", (1,))], [("a", 0, "b")])
    for exhaustive in (False, True):
        assert check_queer_regular(graph, exhaustive=exhaustive).to_dict() == {
            "ok": False, "notes": [], "violations": [{
                "axiom": "W1", "vertices": ["a", "b"],
                "detail": "0-edge needs at least two weight coordinates"}]}


def test_two_zero_edges_without_color_two_are_no_02_component():
    graph = CrystalGraph(2, [("a", "a", (1, 0)), ("b", "b", (0, 1)), ("c", "c", (0, 1))],
                         [("a", 0, "b"), ("a", 0, "c")])
    assert check_02_components(graph).to_dict() == {
        "ok": False, "notes": [], "violations": [{
            "axiom": "C02", "vertices": ["a"],
            "detail": "without color-2 edges only bare 0-edges are admissible"}]}


def test_weyl_reflections_refuse_bad_colors_and_cut_strings():
    cut = CrystalGraph(3, [("a", "a", (2, 0, 0)), ("b", "b", (1, 1, 0))], [("a", 1, "b")])
    for color in (0, 3):
        with pytest.raises(IndexOutOfRange, match=f"reflection index {color} outside 1..2"):
            weyl_s(cut, "a", color)
    with pytest.raises(StringTruncated, match="reflection S_1 from 'a' ran off the graph at 'b'"):
        weyl_s(cut, "a", 1)
    with pytest.raises(IndexOutOfRange, match="odd index must be at least 1, got 0"):
        odd_word(0)


def test_negative_weight_length_is_refused():
    with pytest.raises(DimensionMismatch, match="weight length must be non-negative, got -1"):
        CrystalGraph(-1, [], [])


def test_highest_weights_without_even_edges_are_every_vertex():
    vertices = [("b", "b", (0, 1)), ("a", "a", (1, 0))]
    assert highest_weights(CrystalGraph(2, vertices, [])) == ["a", "b"]
    assert highest_weights(CrystalGraph(2, vertices, [("a", 0, "b")])) == ["a", "b"]


def _reached(kind: str, shape: str, limit: int) -> str:
    return (f"error: enumeration of {kind} tableaux of shape {shape} reached {limit + 1} "
            f"tableaux, over the budget of {limit} vertices\n")


STAIRCASE = ["--shape", "6,5,4,3,2,1", "--n", "12"]
SHIFTED_6 = _reached("shifted", "(6, 5, 4, 3, 2, 1)", 10**6)
YOUNG_6 = _reached("Young", "(6, 5, 4, 3, 2, 1)", 10**6)


@pytest.mark.parametrize("argv, message", [
    (["enum", "ssht", *STAIRCASE], SHIFTED_6),
    (["enum", "ssyt", *STAIRCASE], YOUNG_6),
    (["graph", "--model", "young", *STAIRCASE], YOUNG_6),
    (["graph", "--model", "shifted", *STAIRCASE], SHIFTED_6),
    (["graph", "--model", "queer", *STAIRCASE], SHIFTED_6),
    (["char", "--model", "young", *STAIRCASE], YOUNG_6),
    (["char", "--model", "shifted", *STAIRCASE], SHIFTED_6),
    (["char", "--model", "queer", *STAIRCASE], SHIFTED_6),
    (["--max-vertices", "19", "product", "--gamma", "2,1", "--delta", "2,1", "--n", "6"],
     _reached("shifted", "(2, 1)", 19)),
], ids=" ".join)
def test_an_over_budget_command_fills_no_tableau(tmp_path, capsys, fills_entered, argv, message):
    out = tmp_path / "g.json"
    assert main([*argv, "--out", str(out)] if "graph" in argv else argv) == 4
    assert fills_entered == []
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("the refusal computed s_lambda(1^n)")


@pytest.mark.parametrize("argv, message", [
    (["enum", "ssyt", "--shape", "20000", "--n", str(10**30)],
     _reached("Young", "(20000,)", 10**6)),
    (["enum", "ssht", "--shape", "5000", "--n", str(10**30)],
     _reached("shifted", "(5000,)", 10**6)),
], ids=" ".join)
def test_a_huge_alphabet_is_refused_by_the_bound_from_below(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(crystals.shifted, "_young_count", _refuse)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
