"""Prefix statistics and pairing on words of marked/unmarked entries.

All statistics disregard marks: an entry counts by its value only.  Positions are
1-based; for a word ``w`` of length ``N`` the prefix of length ``r`` is
``w[0:r]``, with ``r = 0`` denoting the empty prefix.

:func:`string_scan` is the one pass over a packed reading word (see
:mod:`crystals.tableaux`): it gives the string lengths of every color and the cell
each lowering operator edits.  :func:`raising_cells` runs it on the dual word, read
backwards with every value complemented, for the cell each raising operator edits.
Every statistic here but the bracket pairs of :func:`classify_pairs` reads one
color ``>= 0`` of them on the ``Entry`` word packed, that color relabelled 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import IndexOutOfRange
from .tableaux import Geometry, Tableau, Word, geometry_of, pack


def _word(word: Word, i: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The :func:`_color_word` of color ``i`` of ``word`` packed, and its reading of every
    letter in order; its color 1 is read by :func:`string_scan` with ``n = 3``."""
    if i < 0:
        raise IndexOutOfRange(f"color must be non-negative, got {i}")
    codes = _color_word([2 * e.value - e.marked for e in word], i)
    return codes, [(k, code & 1) for k, code in enumerate(codes)]


def m_i_prefix(word: Word, i: int, r: int) -> int:
    """Count of value ``i`` minus count of value ``i + 1`` in the length-``r`` prefix.

    Raises:
        IndexOutOfRange: ``r`` is outside ``0..len(word)``, or ``i`` is negative.
    """
    if not 0 <= r <= len(word):
        raise IndexOutOfRange(f"prefix length {r} outside 0..{len(word)}")
    return string_scan(*_word(word[:r], i), 3)[1][1]


def m_i(word: Word, i: int) -> int:
    """Maximum of :func:`m_i_prefix` over all prefixes, including the empty one."""
    return string_scan(*_word(word, i), 3)[0][1]


def eps_i(word: Word, i: int) -> int:
    """Maximum over suffixes of the count of ``i + 1`` minus the count of ``i``.

    The empty suffix contributes 0, so the result is never negative.
    """
    phi, balance, _ = string_scan(*_word(word, i), 3)
    return phi[1] - balance[1]


def first_max_position(word: Word, i: int) -> int:
    """Smallest prefix length attaining :func:`m_i` (0 when the maximum is 0)."""
    return string_scan(*_word(word, i), 3)[2][1] + 1


def last_max_position(word: Word, i: int) -> int:
    """Largest prefix length attaining :func:`m_i`."""
    up = raising_cells(*_word(word, i), 3)[1]
    return len(word) if up < 0 else up


@dataclass(frozen=True, slots=True)
class PairingResult:
    """Outcome of pairing values ``i + 1`` (highs) against later ``i`` (lows).

    Attributes:
        pairs: Matched ``(high_position, low_position)`` pairs, 1-based, with
            ``high_position < low_position``.
        free_low: Positions of unpaired value-``i`` letters, increasing.
        free_high: Positions of unpaired value-``i + 1`` letters, increasing.
    """

    pairs: tuple[tuple[int, int], ...]
    free_low: tuple[int, ...]
    free_high: tuple[int, ...]


def classify_pairs(word: Word, i: int) -> PairingResult:
    """Pair each value-``i + 1`` letter with the nearest later unpaired value-``i``.

    A single left-to-right scan with a stack: a letter of value ``i + 1`` is
    pushed as a candidate high; a letter of value ``i`` pops and pairs with the
    most recent unpaired high, or stays free if none is open.  Free lows
    therefore all precede free highs, and the free-low count equals
    :func:`m_i` of the word.
    """
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    free_low: list[int] = []
    for pos, e in enumerate(word, start=1):
        if e.value == i + 1:
            stack.append(pos)
        elif e.value == i:
            if stack:
                pairs.append((stack.pop(), pos))
            else:
                free_low.append(pos)
    pairs.sort()
    return PairingResult(tuple(pairs), tuple(free_low), tuple(stack))


def string_scan(
    codes: Sequence[int], reading: Sequence[tuple[int, int]], n: int
) -> tuple[list[int], list[int], list[int]]:
    """One pass over the reading word of ``codes``, whose values are all in ``1..n``.

    ``reading`` is a geometry's ``(cell, mark)`` reading order
    (:class:`~crystals.tableaux.Geometry`): a cell is a letter of the word
    when its code's parity equals ``mark``.  A letter of value ``v`` raises
    color ``v``'s running count and lowers color ``v - 1``'s, and a raise
    past the best so far ends the first maximal prefix so far.  Returns, for
    every color ``0..n``: ``phi`` (:func:`m_i`, the length of the lowering
    string); ``balance``, the count of ``i`` minus the count of ``i + 1``, so
    ``eps_i`` is ``phi - balance`` and the count of ``v`` sums
    ``balance[v..n]``; and ``down``, the cell of the letter ``i`` ending the
    first maximal prefix (:func:`first_max_position`), or ``-1`` when ``phi``
    is 0.
    """
    run = [0] * (n + 1)
    best = [0] * (n + 1)
    down = [-1] * (n + 1)
    for c, marked in reading:
        v = codes[c]
        if v & 1 == marked:
            v = (v + 1) >> 1
            r = run[v] + 1
            run[v] = r
            if r > best[v]:
                best[v] = r
                down[v] = c
            run[v - 1] -= 1
    return best, run, down


def raising_cells(codes: Sequence[int], reading: Sequence[tuple[int, int]], n: int) -> list[int]:
    """For every color ``0..n``, the cell of the letter just after the last prefix attaining
    :func:`m_i` (:func:`last_max_position`), always an ``i + 1``, or ``-1`` when that prefix
    is the whole word.  Read backwards with every value ``v`` written ``n + 1 - v`` (marks
    kept), the word's last maximal prefix of color ``i`` becomes the first of color ``n - i``,
    so this is :func:`string_scan`'s ``down`` of that dual word, in reverse order."""
    return string_scan([2 * n + 2 - c - 2 * (c & 1) for c in codes], reading[::-1], n)[2][::-1]


def _color_word(codes: Sequence[int], i: int) -> list[int]:
    """``codes`` with the letters ``i`` and ``i + 1`` written ``1`` and ``2`` and any other a
    ``3``, each keeping its mark and so its place in a reading: color 1 of the result is
    color ``i`` of ``codes``, in memory that grows with the word only."""
    return [d if 0 < (d := c - 2 * i + 2) < 5 else 6 - (c & 1) for c in codes]


def scan_tableau(t: Tableau, i: int) -> tuple[tuple[int, ...], Geometry, list[int]]:
    """``t`` packed, its geometry, and the :func:`_color_word` of color ``i`` of its codes.

    Raises:
        IndexOutOfRange: ``i`` (the operator color asked for) is below 1.
    """
    if i < 1:
        raise IndexOutOfRange(f"operator index must be at least 1, got {i}")
    codes, g = pack(t), geometry_of(t)
    return codes, g, _color_word(codes, i)
