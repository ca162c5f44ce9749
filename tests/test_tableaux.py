"""Entries, tableau validation, parsing/rendering, reading words, enumeration.

Checks:
* the total order on marked/unmarked entries and its sort key,
* parse/render round trips for entries and both tableau families, and a
  tableau parser refuses a cell whose entry text is not an entry,
* every validation error class fires on a matching bad filling,
* reading words, read off the library's reading cells, follow rows
  (unshifted) and the column-then-row hook order, and the hook order agrees
  with the oracle's,
* enumeration counts match brute-force filtering and dimension formulas,
* an enumeration limit stops at the first tableau past it.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from crystals import (
    ClosureBudgetExceeded,
    ColumnViolation,
    CrystalError,
    DiagonalMarkViolation,
    DuplicateMarkInRow,
    Entry,
    ParseError,
    RowViolation,
    ShapeMismatch,
    ValueOutOfRange,
    enumerate_ssht,
    enumerate_ssyt,
    parse_shifted,
    parse_young,
    render_tableau,
    validate_shifted,
    validate_young,
    weight,
)
from crystals.tableaux import _entry_of, hook_reading_cells, row_reading_cells
from oracles import reading_word

entries = st.builds(Entry, value=st.integers(1, 5), marked=st.booleans())


def word_of(cells):
    """The reading word of a reading order given as ``(cell, entry)`` pairs."""
    return tuple(entry for _, entry in cells)


def spelled(word):
    """A word as text, its entries rendered and spaced."""
    return " ".join(entry.render() for entry in word)


def test_entry_order_interleaves_marked_before_unmarked():
    chain = [Entry(1, True), Entry(1, False), Entry(2, True), Entry(2, False), Entry(3, True)]
    for a, b in itertools.combinations(chain, 2):
        assert a < b
        assert not b < a


@given(a=entries, b=entries)
def test_entry_order_matches_sort_key(a, b):
    assert (a < b) == (a.sort_key < b.sort_key)


@given(e=entries)
def test_entry_render_parse_round_trip(e):
    assert _entry_of(e.render()) == e


@pytest.mark.parametrize("text", ["", "0", "3''", "x", "-1", "2x", "²", "٣'",
                                  pytest.param("1" + "0" * 5000, id="past-int-digit-limit")])
def test_parse_entry_rejects_garbage(text):
    # The entry text of a tableau cell; "0" reads as an entry out of range.
    for parse in (parse_young, parse_shifted):
        with pytest.raises(ValueOutOfRange if text == "0" else ParseError):
            parse(f"[[1,{text}]]")


def test_parse_young_round_trip():
    t = parse_young("[[1,2,2],[2,3]]")
    assert t.shape == (3, 2)
    assert render_tableau(t) == "[[1,2,2],[2,3]]"
    assert parse_young(render_tableau(t)) == t


def test_parse_shifted_round_trip():
    t = parse_shifted("[[1,1,2'],[2]]")
    assert t.shape == (3, 1)
    assert render_tableau(t) == "[[1,1,2'],[2]]"
    assert parse_shifted(render_tableau(t)) == t


@pytest.mark.parametrize(
    "text, position",
    [("1,2", 0), ("[[1,2]", 1), ("[[1,?]]", 4), ("[[1,2]],[[3]]", 6), ("[[1],[2,?]]", 8),
     ("  [[1,?]]", 6), ("[[1, ?]]", 5), ("[ [1],\t[2]]", 6)],
)
def test_parse_reports_positions(text, position):
    """The position is the offset, in the text as given, of the row or entry refused."""
    with pytest.raises(ParseError) as info:
        parse_young(text)
    assert info.value.position == position


def test_validate_young_errors():
    with pytest.raises(ShapeMismatch):
        validate_young((1, 2), [[Entry(1)], [Entry(1), Entry(1)]])
    with pytest.raises(RowViolation):
        parse_young("[[2,1]]")
    with pytest.raises(ColumnViolation):
        parse_young("[[1,1],[1]]")
    with pytest.raises(ValueOutOfRange):
        parse_young("[[1,4]]", n=3)
    with pytest.raises(ValueOutOfRange):
        # Unshifted fillings use unmarked letters only.
        parse_young("[[1,2']]")


def test_validate_shifted_errors():
    with pytest.raises(ShapeMismatch):
        parse_shifted("[[1,1],[2,2]]")  # equal parts: not strictly decreasing
    with pytest.raises(RowViolation):
        parse_shifted("[[2,1']]")
    with pytest.raises(ColumnViolation):
        parse_shifted("[[1,2],[2]]")  # unmarked repeat within a column
    with pytest.raises(DiagonalMarkViolation):
        parse_shifted("[[1',1]]")
    with pytest.raises(DuplicateMarkInRow):
        parse_shifted("[[1,2',2',3]]")
    with pytest.raises(ValueOutOfRange):
        parse_shifted("[[1,3]]", n=2)


def test_weight_counts_values_ignoring_marks():
    t = parse_shifted("[[1,2',2],[3]]")
    assert weight(t, 4) == (1, 2, 1, 0)


def test_row_reading_word_top_row_first():
    t = parse_young("[[1,2,2],[2,3]]")
    assert spelled(word_of(row_reading_cells(t))) == "2 3 1 2 2"


def test_hook_reading_word_small_example():
    t = parse_shifted("[[1,1,2'],[2]]")
    assert spelled(word_of(hook_reading_cells(t))) == "2' 2 1 1"


def test_hook_reading_word_marked_up_column_then_row():
    t = parse_shifted("[[1,1,4',4],[2,4',5'],[4,5]]")
    word = word_of(hook_reading_cells(t))
    assert spelled(word) == "5' 4' 4' 4 5 2 1 1 4"
    cells = [cell for cell, _ in hook_reading_cells(t)]
    assert cells == [
        (2, 4),
        (1, 3),
        (2, 3),
        (3, 3),
        (3, 4),
        (2, 2),
        (1, 1),
        (1, 2),
        (1, 4),
    ]


def test_hook_reading_word_is_a_permutation_of_the_cells():
    for t in enumerate_ssht((3, 2), 3):
        word = word_of(hook_reading_cells(t))
        assert len(word) == 5
        assert sorted(weight(t, 3)) == sorted(
            sum(1 for e in word if e.value == v) for v in (1, 2, 3)
        )


def test_enumerate_ssyt_counts():
    assert len(enumerate_ssyt((), 3)) == 1
    assert len(enumerate_ssyt((1,), 4)) == 4
    assert len(enumerate_ssyt((3, 1), 3)) == 15
    assert len(enumerate_ssyt((2, 2, 2), 2)) == 0
    # Hook content formula for a column: one tableau per value choice set.
    assert len(enumerate_ssyt((1, 1, 1), 4)) == 4


def test_enumerate_ssht_counts():
    assert len(enumerate_ssht((), 3)) == 1
    assert len(enumerate_ssht((1,), 3)) == 3
    assert len(enumerate_ssht((2, 1), 3)) == 8
    assert len(enumerate_ssht((3, 1), 3)) == 24


def test_enumerate_ssht_matches_exhaustive_filter():
    """Every validated filling of the shape appears exactly once."""
    shape, n = (2, 1), 3
    seen = set()
    pool = [Entry(v, m) for v in range(1, n + 1) for m in (False, True)]
    for top in itertools.product(pool, repeat=2):
        for bottom in pool:
            try:
                t = validate_shifted(shape, [list(top), [bottom]], n)
            except CrystalError:
                continue
            seen.add(render_tableau(t))
    assert seen == {render_tableau(t) for t in enumerate_ssht(shape, n)}


def test_enumeration_rejects_bad_inputs():
    with pytest.raises(ShapeMismatch):
        enumerate_ssyt((1, 2), 3)
    with pytest.raises(ShapeMismatch):
        enumerate_ssht((2, 2), 3)
    with pytest.raises(ValueOutOfRange):
        enumerate_ssht((2, 1), 0)


def test_enumeration_limit_stops_at_the_first_tableau_past_it():
    assert len(enumerate_ssht((3, 1), 3, limit=24)) == 24
    assert len(enumerate_ssyt((3, 1), 3, limit=15)) == 15
    with pytest.raises(ClosureBudgetExceeded, match="reached 6 tableaux"):
        enumerate_ssht((5, 3, 1), 6, limit=5)
    with pytest.raises(ClosureBudgetExceeded, match="reached 15 tableaux"):
        enumerate_ssyt((3, 1), 3, limit=14)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ssht_round_trips_and_revalidates(data):
    shape = data.draw(st.sampled_from([(1,), (2,), (2, 1), (3, 1), (3, 2)]))
    n = data.draw(st.integers(2, 3))
    pool = enumerate_ssht(shape, n)
    t = data.draw(st.sampled_from(pool))
    assert parse_shifted(render_tableau(t), n) == t
    assert validate_shifted(shape, t.rows, n) == t
    assert reading_word(t) == word_of(hook_reading_cells(t))
