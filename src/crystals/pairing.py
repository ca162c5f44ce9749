"""Prefix statistics and pairing on words of marked/unmarked entries.

All statistics disregard marks: an entry counts by its value only.  Positions are
1-based; for a word ``w`` of length ``N`` the prefix of length ``r`` is
``w[0:r]``, with ``r = 0`` denoting the empty prefix.

:func:`string_scan` gives the statistics of every color in one pass over a packed
reading word (see :mod:`crystals.tableaux`); every statistic here but the bracket
pairs of :func:`classify_pairs` reads one color ``>= 0`` of it on the ``Entry`` word packed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

from .errors import IndexOutOfRange
from .tableaux import Geometry, Tableau, Word, geometry_of, pack


def _word_scan(word: Word, i: int) -> StringScan:
    """:func:`_color_scan` of ``word`` packed, reading every letter in order."""
    if i < 0:
        raise IndexOutOfRange(f"color must be non-negative, got {i}")
    codes = [2 * e.value - e.marked for e in word]
    return _color_scan(codes, [(k, code & 1) for k, code in enumerate(codes)], i)


def m_i_prefix(word: Word, i: int, r: int) -> int:
    """Count of value ``i`` minus count of value ``i + 1`` in the length-``r`` prefix.

    Raises:
        IndexOutOfRange: ``r`` is outside ``0..len(word)``, or ``i`` is negative.
    """
    if not 0 <= r <= len(word):
        raise IndexOutOfRange(f"prefix length {r} outside 0..{len(word)}")
    return _word_scan(word[:r], i).balance[1]


def m_i(word: Word, i: int) -> int:
    """Maximum of :func:`m_i_prefix` over all prefixes, including the empty one."""
    return _word_scan(word, i).phi[1]


def eps_i(word: Word, i: int) -> int:
    """Maximum over suffixes of the count of ``i + 1`` minus the count of ``i``.

    The empty suffix contributes 0, so the result is never negative.
    """
    return _word_scan(word, i).eps(1)


def first_max_position(word: Word, i: int) -> int:
    """Smallest prefix length attaining :func:`m_i` (0 when the maximum is 0)."""
    return _word_scan(word, i).down[1] + 1


def last_max_position(word: Word, i: int) -> int:
    """Largest prefix length attaining :func:`m_i`."""
    up = _word_scan(word, i).up[1]
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


class StringScan(NamedTuple):
    """Statistics of every color ``i`` of a packed word, indexed by ``i``.

    Lists are long enough for the colors asked for and for every letter of
    the word; past the word's letters every string is empty.

    Attributes:
        phi: :func:`m_i`, the length of the lowering string.
        balance: Count of ``i`` minus count of ``i + 1`` in the whole word,
            so ``eps_i`` (:func:`eps_i`) is ``phi[i] - balance[i]``.
        down: Cell of the letter ``i`` ending the first prefix attaining
            :func:`m_i` (:func:`first_max_position`), or ``-1`` when
            ``phi`` is 0.
        up: Cell of the letter just after the last prefix attaining
            :func:`m_i` (:func:`last_max_position`), always an ``i + 1``,
            or ``-1`` when that prefix is the whole word.
    """

    phi: list[int]
    balance: list[int]
    down: list[int]
    up: list[int]

    def eps(self, i: int) -> int:
        return self.phi[i] - self.balance[i]


def string_scan(
    codes: Sequence[int], reading: Sequence[tuple[int, int]], colors: int
) -> StringScan:
    """One pass over the reading word of ``codes`` for colors ``0..colors``.

    ``reading`` is a geometry's ``(cell, mark)`` reading order
    (:class:`~crystals.tableaux.Geometry`): a cell is a letter of the word
    when its code's parity equals ``mark``.  A letter of value ``v`` raises
    color ``v``'s running count and lowers color ``v - 1``'s.  A raise past
    the best so far records the first maximal prefix; a raise reaching the
    best clears ``up``, and the next lowering letter of that color, the one
    after the last maximal prefix so far, sets it.
    """
    size = max(colors, (max(codes) + 1) >> 1 if codes else 0) + 2
    run = [0] * size
    best = [0] * size
    down = [-1] * size
    up = [-1] * size
    for c, marked in reading:
        v = codes[c]
        if v & 1 != marked:
            continue
        v = (v + 1) >> 1
        r = run[v] + 1
        run[v] = r
        b = best[v]
        if r > b:
            best[v] = r
            down[v] = c
            up[v] = -1
        elif r == b:
            up[v] = -1
        v -= 1
        run[v] -= 1
        if up[v] < 0:
            up[v] = c
    return StringScan(best, run, down, up)


def _lowering_scan(
    codes: Sequence[int], reading: Sequence[tuple[int, int]], n: int
) -> tuple[list[int], tuple[int, ...]]:
    """:func:`string_scan`'s ``down`` and the weight of ``codes`` with values in ``1..n``,
    from a pass that tracks nothing else; the count of ``v`` sums ``run[v..n]``."""
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
    return down, tuple(accumulate(run[n:0:-1]))[::-1]


def _color_scan(codes: Sequence[int], reading: Sequence[tuple[int, int]], i: int) -> StringScan:
    """:func:`string_scan` of color ``i`` alone, at index 1, in memory that grows with the
    word only: letters ``i`` and ``i + 1`` become ``1`` and ``2``, any other a ``3`` (which
    moves colors 2 and 3 only), each keeping its mark and so its place in ``reading``."""
    relabel = [d if 0 < (d := c - 2 * i + 2) < 5 else 6 - (c & 1) for c in codes]
    return string_scan(relabel, reading, 1)


def scan_tableau(t: Tableau, i: int) -> tuple[tuple[int, ...], Geometry, StringScan]:
    """``t`` packed, its geometry, and the :func:`_color_scan` of color ``i`` of its reading word.

    Raises:
        IndexOutOfRange: ``i`` (the operator color asked for) is below 1.
    """
    if i < 1:
        raise IndexOutOfRange(f"operator index must be at least 1, got {i}")
    codes, g = pack(t), geometry_of(t)
    return codes, g, _color_scan(codes, g.reading, i)
