"""Prefix statistics and bracket pairing on words, against brute-force oracles.

Checks:
* the prefix surplus, its maximum, and the suffix surplus agree with
  recompute-from-scratch oracles on random words,
* first/last maximizing prefix lengths agree with linear scans of all prefixes,
* the one-pass ``string_scan`` of every color at once, ``raising_cells``
  (the same pass over the dual word), and the five word statistics, which
  read them, agree with the prefix and suffix oracles on every word of
  length at most 7 over the values 1..4, and on every marking of the words
  of length at most 4, at every color and prefix length, and the scan's
  balances sum to the weight ``weight_codes`` gives,
* on random words of up to 40 letters over the values 1..9 with random
  marks, each letter at a random cell and the reading also listing every
  cell with the mark it skips, ``string_scan`` and ``raising_cells`` agree
  with the oracles at every color 0..9,
* the one-pass stack pairing matches repeated adjacent-pair cancellation,
* structural facts: free lows precede free highs, counts tie out with the
  prefix statistics, and marks never influence any of it,
* a prefix length outside the word, or a negative color, is refused.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from crystals import Entry, IndexOutOfRange
from crystals.pairing import (
    classify_pairs,
    eps_i,
    first_max_position,
    last_max_position,
    m_i,
    m_i_prefix,
    raising_cells,
    string_scan,
)
from crystals.tableaux import weight_codes
from oracles import (
    brute_cancel_pairs,
    brute_first_max,
    brute_last_max,
    brute_max_prefix_statistic,
    brute_prefix_statistic,
    brute_suffix_statistic,
)

words = st.lists(
    st.builds(Entry, value=st.integers(1, 4), marked=st.booleans()),
    max_size=14,
).map(tuple)
colors = st.integers(1, 3)


@given(word=words, i=colors, data=st.data())
def test_prefix_statistic_matches_oracle(word, i, data):
    r = data.draw(st.integers(0, len(word)))
    assert m_i_prefix(word, i, r) == brute_prefix_statistic(word, i, r)


@given(word=words, i=colors)
def test_max_statistic_matches_oracle(word, i):
    assert m_i(word, i) == brute_max_prefix_statistic(word, i)


@given(word=words, i=colors)
def test_suffix_statistic_matches_oracle(word, i):
    assert eps_i(word, i) == brute_suffix_statistic(word, i)


@given(word=words, i=colors)
def test_extreme_positions_match_oracle(word, i):
    assert first_max_position(word, i) == brute_first_max(word, i)
    assert last_max_position(word, i) == brute_last_max(word, i)


@given(word=words, i=colors)
def test_pairing_matches_cancellation_oracle(word, i):
    got = classify_pairs(word, i)
    pairs, free_low, free_high = brute_cancel_pairs(word, i)
    assert got.pairs == pairs
    assert got.free_low == free_low
    assert got.free_high == free_high


@given(word=words, i=colors)
def test_pairing_structure(word, i):
    result = classify_pairs(word, i)
    if result.free_low and result.free_high:
        assert max(result.free_low) < min(result.free_high)
    assert len(result.free_low) == m_i(word, i)
    assert len(result.free_high) == eps_i(word, i)
    for high, low in result.pairs:
        assert high < low


@given(word=words, i=colors)
def test_marks_are_ignored(word, i):
    unmarked = tuple(Entry(e.value, False) for e in word)
    assert m_i(word, i) == m_i(unmarked, i)
    assert eps_i(word, i) == eps_i(unmarked, i)
    assert classify_pairs(word, i) == classify_pairs(unmarked, i)


def test_prefix_bounds_checked():
    word = (Entry(1), Entry(2))
    with pytest.raises(IndexOutOfRange):
        m_i_prefix(word, 1, 3)
    with pytest.raises(IndexOutOfRange):
        m_i_prefix(word, 1, -1)
    for statistic in (m_i, eps_i, first_max_position, last_max_position):
        with pytest.raises(IndexOutOfRange):
            statistic(word, -1)
    with pytest.raises(IndexOutOfRange):
        m_i_prefix(word, -1, 1)


def test_small_worked_example():
    word = tuple(Entry(v) for v in (2, 1, 1, 2, 2, 1))
    assert [m_i_prefix(word, 1, r) for r in range(7)] == [0, -1, 0, 1, 0, -1, 0]
    assert m_i(word, 1) == 1
    assert first_max_position(word, 1) == 3
    assert last_max_position(word, 1) == 3
    assert eps_i(word, 1) == 1
    result = classify_pairs(word, 1)
    assert result.pairs == ((1, 2), (5, 6))
    assert result.free_low == (3,)
    assert result.free_high == (4,)


_SCAN_ORACLE: dict = {}


def _scan_oracle(word, i):
    """The brute statistics of color ``i``, remembered by what they read: the
    maximum, suffix and first and last maximal prefix, then the statistic of
    every prefix length.

    They count only the letters ``i`` and ``i + 1``, so words with the same
    letters of those two values at the same positions share one result.
    """
    key = (i, tuple(1 if e.value == i else -1 if e.value == i + 1 else 0 for e in word))
    if key not in _SCAN_ORACLE:
        _SCAN_ORACLE[key] = (
            brute_max_prefix_statistic(word, i),
            brute_suffix_statistic(word, i),
            brute_first_max(word, i),
            brute_last_max(word, i),
            [brute_prefix_statistic(word, i, r) for r in range(len(word) + 1)],
        )
    return _SCAN_ORACLE[key]


def test_string_scan_matches_the_oracles_on_every_small_word():
    """``string_scan`` and ``raising_cells`` reading every cell in order, with
    the mark equal to the code's parity, so the reading word is the codes
    themselves; the weight summed from the scan's balances; and the five word
    statistics, which read a scan of the ``Entry`` word, at every color and
    every prefix length."""
    checked = 0
    for codes_of_letters, longest in (((2, 4, 6, 8), 7), (range(1, 9), 4)):
        for length in range(longest + 1):
            for codes in itertools.product(codes_of_letters, repeat=length):
                word = tuple(Entry((c + 1) >> 1, bool(c & 1)) for c in codes)
                reading = [(k, c & 1) for k, c in enumerate(codes)]
                lengths, balance, down = string_scan(codes, reading, 5)
                up = raising_cells(codes, reading, 5)
                assert tuple(itertools.accumulate(balance[5:0:-1]))[::-1] == weight_codes(codes, 5), codes
                for i in range(1, 6):
                    phi, eps, first, last, prefixes = _scan_oracle(word, i)
                    assert lengths[i] == phi, (codes, i)
                    assert lengths[i] - balance[i] == eps, (codes, i)
                    assert down[i] == (first - 1 if first else -1), (codes, i)
                    assert up[i] == (last if last < length else -1), (codes, i)
                    assert m_i(word, i) == phi, (codes, i)
                    assert eps_i(word, i) == eps, (codes, i)
                    assert first_max_position(word, i) == first, (codes, i)
                    assert last_max_position(word, i) == last, (codes, i)
                    assert [m_i_prefix(word, i, r) for r in range(length + 1)] == prefixes, (
                        codes, i)
                checked += 1
    assert checked == sum(4**k for k in range(8)) + sum(8**k for k in range(5))


@settings(max_examples=200, deadline=None)
@given(
    letters=st.lists(st.tuples(st.integers(1, 9), st.booleans()), max_size=40),
    data=st.data(),
)
def test_one_scan_matches_the_oracles_on_long_words(letters, data):
    """``string_scan`` and ``raising_cells`` on a word whose letters sit at
    random cells, read through a reading that also lists every cell with the
    other mark, which is no letter, against the oracles at every color."""
    cells = data.draw(st.permutations(range(len(letters))))
    codes = [0] * len(letters)
    reading = []
    for (value, marked), cell in zip(letters, cells):
        codes[cell] = 2 * value - marked
        reading += [(cell, 1 - marked), (cell, int(marked))]
    word = tuple(Entry(value, marked) for value, marked in letters)
    lengths, balance, down = string_scan(codes, reading, 9)
    up = raising_cells(codes, reading, 9)
    for i in range(10):
        first, last = brute_first_max(word, i), brute_last_max(word, i)
        assert lengths[i] == brute_max_prefix_statistic(word, i), i
        assert lengths[i] - balance[i] == brute_suffix_statistic(word, i), i
        assert down[i] == (cells[first - 1] if first else -1), i
        assert up[i] == (cells[last] if last < len(word) else -1), i
