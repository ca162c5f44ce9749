"""Operators on shifted tableaux: ribbon moves, strings, highest-weight fillings.

Checks:
* lowering and raising invert each other across enumerated pools,
* lowering shifts exactly one unit of weight from coordinate ``i`` to ``i+1``,
* string lengths from the hook reading word equal counts from repeatedly
  applying the operators (independent oracle),
* both operators return valid tableaux and respect the difference rule,
* a worked three-step string on a two-marked-letter tableau,
* the highest-weight enumeration agrees with brute-force filtering, equals the
  row-profile filter as an ordered list, and always contains exactly one
  filling whose weight equals the shape,
* the highest-weight enumeration stops at the first tableau past its limit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from crystals import (
    ClosureBudgetExceeded,
    ShapeMismatch,
    ValueOutOfRange,
    enumerate_ssht,
    enumerate_yamanouchi,
    parse_shifted,
    render_tableau,
    validate_shifted,
    weight,
)
from crystals.shifted import eps, lower, phi, raise_
from oracles import (
    apply_until_none,
    brute_yamanouchi,
    cell_entry,
    profile_yamanouchi,
    strict_partitions,
)
from reference_data import HOOK_STRING_432

SHAPES = [(1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (4, 1)]


def pool(shape, n):
    return enumerate_ssht(shape, n)


tableaux = st.builds(
    lambda shape, n, index: (shape, n, index),
    shape=st.sampled_from(SHAPES),
    n=st.integers(2, 4),
    index=st.integers(0, 100_000),
).map(lambda triple: (pool(triple[0], triple[1]), triple[1], triple[2])).filter(
    lambda triple: bool(triple[0])
).map(lambda triple: (triple[0][triple[2] % len(triple[0])], triple[1]))


@given(pick=tableaux, data=st.data())
@settings(max_examples=150, deadline=None)
def test_lower_then_raise_is_identity(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    down = lower(t, i)
    if down is not None:
        assert raise_(down, i) == t
    up = raise_(t, i)
    if up is not None:
        assert lower(up, i) == t


@given(pick=tableaux, data=st.data())
@settings(max_examples=150, deadline=None)
def test_lower_moves_one_weight_unit(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    down = lower(t, i)
    if down is None:
        assert phi(t, i) == 0
        return
    before, after = weight(t, n), weight(down, n)
    diff = [a - b for a, b in zip(after, before)]
    assert diff[i - 1] == -1
    assert diff[i] == 1
    assert all(d == 0 for k, d in enumerate(diff) if k not in (i - 1, i))


@given(pick=tableaux, data=st.data())
@settings(max_examples=100, deadline=None)
def test_string_lengths_match_operator_application(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    assert phi(t, i) == apply_until_none(t, lower, i)
    assert eps(t, i) == apply_until_none(t, raise_, i)


@given(pick=tableaux, data=st.data())
@settings(max_examples=100, deadline=None)
def test_operators_preserve_validity(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    for result in (lower(t, i), raise_(t, i)):
        if result is not None:
            assert validate_shifted(result.shape, result.rows, n) == result


@given(pick=tableaux, data=st.data())
@settings(max_examples=100, deadline=None)
def test_difference_rule(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    wt = weight(t, n)
    assert phi(t, i) - eps(t, i) == wt[i - 1] - wt[i]


def test_worked_string_with_marked_letters():
    """A length-two string that passes through both marked and unmarked moves."""
    top = parse_shifted(HOOK_STRING_432[0])
    assert eps(top, 4) == 0
    assert phi(top, 4) == 2
    chain = [render_tableau(top)]
    current = top
    while True:
        nxt = lower(current, 4)
        if nxt is None:
            break
        chain.append(render_tableau(nxt))
        current = nxt
    assert chain == HOOK_STRING_432
    while raise_(current, 4) is not None:
        current = raise_(current, 4)
    assert current == top


def test_single_box_crystal():
    tableaux_1 = enumerate_ssht((1,), 3)
    assert [render_tableau(t) for t in tableaux_1] == ["[[1]]", "[[2]]", "[[3]]"]
    assert lower(parse_shifted("[[1]]"), 1) == parse_shifted("[[2]]")
    assert lower(parse_shifted("[[2]]"), 2) == parse_shifted("[[3]]")
    assert lower(parse_shifted("[[1]]"), 2) is None
    assert raise_(parse_shifted("[[1]]"), 1) is None


def test_diagonal_mark_never_appears():
    """No operator ever produces a marked entry on the main diagonal."""
    for t in enumerate_ssht((3, 2), 3):
        for i in (1, 2):
            for move in (lower, raise_):
                result = move(t, i)
                if result is not None:
                    for r in range(1, len(result.shape) + 1):
                        assert not cell_entry(result, r, r).marked


@pytest.mark.parametrize("total", range(0, 6))
def test_yamanouchi_matches_brute_filter(total):
    for shape in strict_partitions(total):
        for n in range(max(1, len(shape)), 5):
            got = enumerate_yamanouchi(shape, n)
            expected = brute_yamanouchi(shape, n)
            assert {render_tableau(t) for t in got} == {
                render_tableau(t) for t in expected
            }
            assert len(got) == len(expected)


@pytest.mark.parametrize(
    "total, alphabets",
    [(total, range(1, total + 2)) for total in range(0, 8)] + [(8, [8])],
)
def test_yamanouchi_equals_row_profile_filter_in_order(total, alphabets):
    for shape in strict_partitions(total):
        for n in alphabets:
            assert enumerate_yamanouchi(shape, n) == profile_yamanouchi(shape, n)


def test_yamanouchi_limit_stops_at_the_first_tableau_past_it():
    assert len(enumerate_yamanouchi((4, 3, 1), 4)) == 6
    assert len(enumerate_yamanouchi((4, 3, 1), 4, limit=6)) == 6
    with pytest.raises(ClosureBudgetExceeded, match="reached 6 tableaux"):
        enumerate_yamanouchi((4, 3, 1), 4, limit=5)


def test_yamanouchi_contains_one_shape_weight_filling():
    for shape in [(2, 1), (3, 1), (4, 2, 1)]:
        n = len(shape) + 1
        fillings = enumerate_yamanouchi(shape, n)
        padded = tuple(shape) + (0,) * (n - len(shape))
        assert sum(1 for t in fillings if weight(t, n) == padded) == 1


def test_yamanouchi_rejects_bad_inputs():
    with pytest.raises(ShapeMismatch):
        enumerate_yamanouchi((2, 2), 3)
    with pytest.raises(ValueOutOfRange):
        enumerate_yamanouchi((2, 1), 0)


def test_yamanouchi_empty_shape():
    assert [t.shape for t in enumerate_yamanouchi((), 3)] == [()]
