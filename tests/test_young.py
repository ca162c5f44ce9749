"""Operators on unshifted tableaux: inverses, weights, string lengths.

Checks:
* the lowering and raising operators invert each other wherever defined,
* lowering shifts one unit of weight from coordinate ``i`` to ``i + 1``,
* string lengths computed from the reading word match counts obtained by
  literally applying each operator until it fails,
* both operators preserve semistandardness,
* the difference rule ``phi - eps == wt_i - wt_{i+1}`` holds everywhere,
* a worked crystal on a small shape has the expected size and single source,
* the moves and string lengths are the shifted functions' bodies: on shifted
  tableaux they give the shifted moves, valid shifted tableaux, and
  ``phi``/``eps`` are the shifted functions themselves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from crystals import (
    IndexOutOfRange,
    enumerate_ssht,
    enumerate_ssyt,
    parse_young,
    render_tableau,
    shifted,
    validate_shifted,
    validate_young,
    weight,
)
from crystals.young import eps, lower, phi, raise_
from oracles import apply_until_none

SHAPES = [(1,), (2,), (2, 1), (3, 1), (2, 2), (3, 2, 1)]


def pool(shape, n):
    return enumerate_ssyt(shape, n)


tableaux = st.builds(
    lambda shape, n, index: (shape, n, index),
    shape=st.sampled_from(SHAPES),
    n=st.integers(2, 4),
    index=st.integers(0, 10_000),
).map(lambda triple: (pool(triple[0], triple[1]), triple[1], triple[2])).filter(
    lambda triple: bool(triple[0])
).map(lambda triple: (triple[0][triple[2] % len(triple[0])], triple[1]))


@given(pick=tableaux, data=st.data())
@settings(max_examples=120, deadline=None)
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
@settings(max_examples=120, deadline=None)
def test_lower_moves_one_weight_unit(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    down = lower(t, i)
    if down is None:
        return
    before, after = weight(t, n), weight(down, n)
    diff = [a - b for a, b in zip(after, before)]
    assert diff[i - 1] == -1
    assert diff[i] == 1
    assert all(d == 0 for k, d in enumerate(diff) if k not in (i - 1, i))


@given(pick=tableaux, data=st.data())
@settings(max_examples=80, deadline=None)
def test_string_lengths_match_operator_application(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    assert phi(t, i) == apply_until_none(t, lower, i)
    assert eps(t, i) == apply_until_none(t, raise_, i)


@given(pick=tableaux, data=st.data())
@settings(max_examples=80, deadline=None)
def test_operators_preserve_semistandardness(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    for result in (lower(t, i), raise_(t, i)):
        if result is not None:
            assert validate_young(result.shape, result.rows, n) == result


@given(pick=tableaux, data=st.data())
@settings(max_examples=80, deadline=None)
def test_difference_rule(pick, data):
    t, n = pick
    i = data.draw(st.integers(1, n - 1))
    wt = weight(t, n)
    assert phi(t, i) - eps(t, i) == wt[i - 1] - wt[i]


def test_color_must_be_positive():
    t = parse_young("[[1]]")
    with pytest.raises(IndexOutOfRange):
        lower(t, 0)
    with pytest.raises(IndexOutOfRange):
        eps(t, -1)


def test_worked_lowering_chain():
    t = parse_young("[[1,1],[2]]")
    assert phi(t, 1) == 1
    step = lower(t, 1)
    assert step is not None and step.render() == "[[1,2],[2]]"
    assert lower(step, 1) is None
    assert eps(step, 1) == 1
    assert raise_(step, 1) == t


def test_crystal_orbit_covers_enumeration():
    """Closing {source} under both operators reaches every tableau of the shape."""
    shape, n = (2, 1), 3
    everything = set(enumerate_ssyt(shape, n))
    source = parse_young("[[1,1],[2]]")
    seen = {source}
    frontier = [source]
    while frontier:
        t = frontier.pop()
        for i in (1, 2):
            for move in (lower, raise_):
                nxt = move(t, i)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert seen == everything
    assert len(everything) == 8
    sources = [
        t for t in everything if all(raise_(t, i) is None for i in (1, 2))
    ]
    assert sources == [source]


def test_moves_and_string_lengths_are_the_shifted_ones():
    assert phi is shifted.phi and eps is shifted.eps
    assert lower is not shifted.lower and raise_ is not shifted.raise_
    for shape, n in (((3, 1), 3), ((4, 2, 1), 4)):
        for t in enumerate_ssht(shape, n):
            for i in range(1, n):
                assert phi(t, i) == shifted.phi(t, i) and eps(t, i) == shifted.eps(t, i)
                for move, shifted_move in ((lower, shifted.lower), (raise_, shifted.raise_)):
                    moved = move(t, i)
                    assert moved == shifted_move(t, i), (render_tableau(t), i)
                    if moved is not None:
                        assert validate_shifted(moved.shape, moved.rows, n) == moved
