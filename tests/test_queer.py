"""The extra lowering/raising pair on shifted tableaux and its Weyl transport.

Checks:
* the zero-pair operators are mutually inverse and move one weight unit from
  the first coordinate to the second,
* definedness follows the letter rules: lowering needs a ``1`` and forbids any
  ``2'``; raising needs either the unique ``2'`` or a leading ``2`` in row 1,
* the produced letter is unmarked exactly on the main diagonal,
* a 0-string has at most two elements, so its string lengths are the
  definedness of the two moves,
* Weyl reflections along a color are involutions that swap adjacent weight
  coordinates, and reflections transport the zero pair to every odd position,
* the odd-position sources of the full operator family are exactly the
  fillings of shape weight,
* the zero pair refuses a Young tableau rather than return one that
  ``validate_young`` would refuse.
"""

from __future__ import annotations

import pytest

from crystals import ShapeMismatch, enumerate_ssht, parse_shifted, parse_young, queer_graph, weight
from crystals.queer import (
    apply_weyl_word,
    e0,
    f0,
    odd_word,
    queer_highest_weights,
    weyl_s,
)
from oracles import odd_e, odd_f

POOL = [t for shape in [(1,), (2, 1), (3, 1)] for t in enumerate_ssht(shape, 3)]


def has_value(t, value, marked):
    return any(e.value == value and e.marked == marked for row in t.rows for e in row)


@pytest.mark.parametrize("t", POOL, ids=lambda t: t.render())
def test_zero_lowering_definedness_and_inverse(t):
    down = f0(t)
    expect_defined = has_value(t, 1, False) and not has_value(t, 2, True)
    assert (down is not None) == expect_defined
    if down is not None:
        assert e0(down) == t
        diff = [a - b for a, b in zip(weight(down, 3), weight(t, 3))]
        assert diff == [-1, 1, 0]


@pytest.mark.parametrize("t", POOL, ids=lambda t: t.render())
def test_zero_raising_definedness_and_inverse(t):
    up = e0(t)
    row1 = t.rows[0] if t.rows else ()
    expect_defined = has_value(t, 2, True) or bool(row1 and row1[0].value == 2)
    assert (up is not None) == expect_defined
    if up is not None:
        assert f0(up) == t


def test_zero_lowering_marks_off_diagonal_only():
    corner = parse_shifted("[[1,2],[3]]")  # the only 1 sits on the diagonal
    assert f0(corner).render() == "[[2,2],[3]]"
    off = parse_shifted("[[1,1],[2]]")  # rightmost 1 is off the diagonal
    assert f0(off).render() == "[[1,2'],[2]]"


def test_zero_raising_unmarks_the_pair():
    assert e0(parse_shifted("[[1,2'],[2]]")).render() == "[[1,1],[2]]"
    assert e0(parse_shifted("[[2,2],[3]]")).render() == "[[1,2],[3]]"
    assert e0(parse_shifted("[[1,1],[2]]")) is None


def test_zero_pair_refuses_a_young_tableau():
    for move, text in ((f0, "[[1,1]]"), (e0, "[[2,2]]")):
        with pytest.raises(ShapeMismatch, match="shifted tableaux, got a YoungTableau"):
            move(parse_young(text))


def test_zero_string_never_exceeds_one():
    for t in POOL:
        down = f0(t)
        if down is not None:
            assert f0(down) is None or has_value(down, 1, False)
            # So the 0-string through t is t and f0(t): its string lengths
            # are the definedness of f0 and e0 checked above.
            assert e0(t) is None and f0(down) is None


def test_weyl_reflection_swaps_weights_and_involutes():
    g = queer_graph((3, 1), 3)
    for vid in g.vertex_ids:
        for i in (1, 2):
            reflected = weyl_s(g, vid, i)
            expected = list(g.weight_of(vid))
            expected[i - 1], expected[i] = expected[i], expected[i - 1]
            assert list(g.weight_of(reflected)) == expected
            assert weyl_s(g, reflected, i) == vid


def test_weyl_word_applies_rightmost_first():
    g = queer_graph((3, 1), 3)
    vid = g.vertex_ids[0]
    assert apply_weyl_word(g, vid, (1, 2)) == weyl_s(g, weyl_s(g, vid, 2), 1)
    assert apply_weyl_word(g, vid, ()) == vid


def test_odd_word_shape():
    assert odd_word(1) == ()
    assert odd_word(2) == (2, 1)
    assert odd_word(3) == (2, 3, 1, 2)


def test_odd_operators_invert_and_shift_weight():
    g = queer_graph((3, 1), 3)
    applications = 0
    for vid in g.vertex_ids:
        for k in (1, 2):
            out = odd_f(g, vid, k)
            if out is None:
                continue
            applications += 1
            assert odd_e(g, out, k) == vid
            diff = [
                a - b for a, b in zip(g.weight_of(out), g.weight_of(vid))
            ]
            assert diff[k - 1] == -1 and diff[k] == 1
            assert all(d == 0 for j, d in enumerate(diff) if j not in (k - 1, k))
    assert applications > 0


def test_full_family_sources_are_shape_weight_fillings():
    for shape, n in [((2, 1), 3), ((3, 1), 3), ((3,), 3)]:
        g = queer_graph(shape, n)
        hw = queer_highest_weights(g)
        padded = tuple(shape) + (0,) * (n - len(shape))
        assert len(hw) == 1
        assert g.weight_of(hw[0]) == padded
