"""Raising and lowering operators on semistandard shifted tableaux, and on Young ones.

Operators act through the reading word: hook reading, or row reading on a Young tableau.
The lowering operator ``f_i`` edits the tableau around the cell ending the first maximal
prefix; the raising operator ``e_i`` starts from the cell just after the last maximal
prefix and inverts every lowering case.  Entries with value ``v`` (marked or not) form
connected ribbons; some cases walk a ribbon northwest to its head or southeast along its
tail to keep the filling semistandard.  On a Young tableau, a filling without marks, the
cell the scan picks never has an ``i + 1`` north of it (lowering) or an ``i`` south of it
(raising), so only the cases that change one letter fire: the Young operators.

Each operator has one body on packed codes (:mod:`crystals.tableaux`), :func:`lower_at`
or :func:`raise_at`, which edits the cell one :func:`~crystals.pairing.string_scan` picked:
of the reading word for lowering, of its dual for raising
(:func:`~crystals.pairing.raising_cells`).  The public functions pack a tableau of either
kind, scan its word with color ``i`` relabelled 1, run the body and unpack the result.
The Yamanouchi enumeration, the tableaux whose raising strings all vanish, fills codes
too (:func:`yamanouchi_codes`); :func:`enumerate_yamanouchi` unpacks them.  So does its
generalization to raising strings within given bounds (:func:`ballot_codes`), and
:func:`tableau_count` counts a shape's tableaux from the Yamanouchi ones.
"""

from __future__ import annotations

from typing import Sequence

from .pairing import raising_cells, scan_tableau, string_scan
from .tableaux import (
    Geometry,
    ShiftedTableau,
    Tableau,
    _check_count,
    _in_reading_order,
    check_codes,
    unpack,
    weight_codes,
    with_codes,
)


def phi(t: Tableau, i: int) -> int:
    """Length of the lowering string at ``t`` (of either kind) for color ``i``."""
    _, g, word = scan_tableau(t, i)
    return string_scan(word, g.reading, 3)[0][1]


def eps(t: Tableau, i: int) -> int:
    """Length of the raising string at ``t`` (of either kind) for color ``i``."""
    _, g, word = scan_tableau(t, i)
    phi, balance, _ = string_scan(word, g.reading, 3)
    return phi[1] - balance[1]


def lower(t: Tableau, i: int) -> Tableau | None:
    """Apply ``f_i`` to ``t`` of either kind, or return ``None`` at the string's end."""
    return _move(t, i, lowering=True)


def raise_(t: Tableau, i: int) -> Tableau | None:
    """Apply ``e_i`` to ``t`` of either kind, or return ``None`` at the string's end."""
    return _move(t, i, lowering=False)


def _move(t: Tableau, i: int, lowering: bool) -> Tableau | None:
    codes, g, word = scan_tableau(t, i)
    if lowering:
        cell, body = string_scan(word, g.reading, 3)[2][1], lower_at
    else:
        cell, body = raising_cells(word, g.reading, 3)[1], raise_at
    return None if cell < 0 else unpack(body(codes, g, i, cell), g)


def _ribbon(codes: Sequence[int], g: Geometry, cell: int, tail: bool) -> list[int]:
    """Cells from ``cell`` along its value's ribbon: southeast (south first, then east)
    along its tail, or northwest (north first, then west) to its head, the last cell."""
    value = (codes[cell] + 1) >> 1
    first, second = (g.south, g.east) if tail else (g.north, g.west)
    out = [cell]
    while True:
        a, b = first[cell], second[cell]
        if a >= 0 and (codes[a] + 1) >> 1 == value:
            cell = a
        elif b >= 0 and (codes[b] + 1) >> 1 == value:
            cell = b
        else:
            return out
        out.append(cell)


def lower_at(codes: tuple[int, ...], g: Geometry, i: int, cell: int) -> tuple[int, ...]:
    """``f_i`` of packed ``codes`` whose first maximal prefix ends at ``cell``."""
    marked_i, unmarked_i, marked_up, unmarked_up = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
    north, east = g.north[cell], g.east[cell]
    if codes[cell] == unmarked_i:
        if east >= 0 and codes[east] == marked_up:
            return with_codes(codes, cell, marked_up, east, unmarked_up)
        if north < 0 or codes[north] > unmarked_up:
            return with_codes(codes, cell, unmarked_up)
        head = _ribbon(codes, g, north, tail=False)[-1]
        if codes[head] & 1:
            return with_codes(codes, cell, marked_up, head, unmarked_up)
        return with_codes(codes, cell, marked_up)

    if north >= 0 and codes[north] == unmarked_i:
        return with_codes(codes, cell, unmarked_i, north, marked_up)
    if east < 0 or codes[east] > marked_up:
        return with_codes(codes, cell, marked_up)
    changed = with_codes(codes, cell, unmarked_i)
    for k in _ribbon(changed, g, cell, tail=True):
        if changed[k] != unmarked_i:
            continue
        neighbor = g.east[k]
        if neighbor < 0 or changed[neighbor] not in (unmarked_i, marked_up):
            return with_codes(changed, k, marked_up)
    raise AssertionError("lowering walk found no cell to change")


def raise_at(codes: tuple[int, ...], g: Geometry, i: int, cell: int) -> tuple[int, ...]:
    """``e_i`` of packed ``codes`` whose last maximal prefix is followed by ``cell``."""
    marked_i, unmarked_i, marked_up, unmarked_up = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
    south, west = g.south[cell], g.west[cell]
    if codes[cell] == unmarked_up:
        if west >= 0 and codes[west] == marked_up:
            return with_codes(codes, cell, marked_up, west, unmarked_i)
        if south < 0 or codes[south] < unmarked_i:
            return with_codes(codes, cell, unmarked_i)
        changed = with_codes(codes, cell, marked_up)
        for k in _ribbon(changed, g, cell, tail=True):
            if changed[k] != marked_up:
                continue
            neighbor = g.south[k]
            if neighbor < 0 or changed[neighbor] not in (unmarked_i, marked_up):
                return with_codes(changed, k, unmarked_i)
        raise AssertionError("raising walk found no cell to change")

    if south >= 0 and codes[south] == unmarked_i:
        return with_codes(codes, cell, unmarked_i, south, marked_i)
    if west < 0 or codes[west] < marked_i:
        return with_codes(codes, cell, marked_i)
    head = _ribbon(codes, g, west, tail=False)[-1]
    if not g.unmarked_only[head]:
        return with_codes(codes, cell, unmarked_i, head, marked_i)
    return with_codes(codes, cell, unmarked_i)


def enumerate_yamanouchi(
    shape: Sequence[int], n: int, limit: int | None = None
) -> list[ShiftedTableau]:
    """All shifted tableaux of ``shape`` whose raising strings all vanish.

    The :func:`yamanouchi_codes` unpacked, ordered by hook reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    return _in_reading_order(yamanouchi_codes, shape, n, limit, shifted=True)


def yamanouchi_codes(
    g: Geometry, n: int, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Packed shifted tableaux of ``g``'s shape whose raising strings all vanish.

    Marks ignored, ``eps(t, i) == 0`` for every color exactly when the hook
    reading word read backwards is a ballot word: every prefix holds at least
    as many ``v`` as ``v + 1``.  Backwards, that word reads for ``k = 1, 2,
    ...`` the unmarked entries of row ``k`` from right to left, then the
    marked entries of column ``k`` from top to bottom.  In such a tableau row
    ``r`` is a run of unmarked ``r`` followed by strictly increasing marked
    values larger than ``r``, so codes are written at the ``g.row_slices``
    offsets by backtracking in that order: the length of row ``k``'s run,
    then each marked value of column ``k``, larger than its left neighbour
    and at most the entry above it.  A branch stops once some value
    outnumbers its predecessor; each completed filling is still checked
    full and semistandard.  A ballot word on ``|shape|`` letters uses at
    most ``|shape|`` values, so no value past ``min(n, |shape|)`` is tried.
    The result is in the order the fillings complete.

    Raises:
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    shape = g.shape
    starts = [a for a, _ in g.row_slices]
    codes = [0] * g.size
    # filled[r - 1]: cells of row r written so far.
    filled = [0] * len(shape)
    results: list[tuple[int, ...]] = []
    values = min(n, g.size)
    # count[v]: letters of value v read so far; count[0] never binds.
    count = [g.size] + [0] * values
    columns = shape[0] if shape else 0

    def step(k: int) -> None:
        if k > columns:
            if tuple(filled) != shape:
                raise AssertionError("Yamanouchi fill left a row short")
            leaf = tuple(codes)
            check_codes(leaf, g, n)
            results.append(leaf)
            _check_count(len(results), g, limit)
            return
        if k > len(shape):
            column(k, len(shape))
            return
        if k > values:  # row k starts with the value k
            return
        start = starts[k - 1]
        for run in range(1, min(shape[k - 1], count[k - 1] - count[k]) + 1):
            codes[start + run - 1] = 2 * k
            filled[k - 1] = run
            count[k] += run
            column(k, k - 1)
            count[k] -= run
        filled[k - 1] = 0

    def column(k: int, r: int) -> None:
        # Fill the marked cells of column k in rows r, r - 1, ..., 1; the
        # cell (r, k) is one when row r is filled to column k - 1 and goes on.
        while r and not filled[r - 1] == k - r < shape[r - 1]:
            r -= 1
        if not r:
            step(k + 1)
            return
        high = values
        if r < len(shape) and k - r <= shape[r]:
            high = min(high, (codes[starts[r] + k - r - 1] + 1) >> 1)
        cell = starts[r - 1] + filled[r - 1]
        for v in range(((codes[cell - 1] + 1) >> 1) + 1, high + 1):
            if count[v] < count[v - 1]:
                codes[cell] = 2 * v - 1
                filled[r - 1] += 1
                count[v] += 1
                column(k, r - 1)
                count[v] -= 1
                filled[r - 1] -= 1

    step(1)
    del step, column  # recursive closures: their cycle would hold ``results`` until collected
    return results


def ballot_codes(g: Geometry, n: int, bounds: Sequence[int]) -> list[tuple[int, ...]]:
    """Packed shifted tableaux of ``g``'s shape in ``1..n`` with ``eps(t, i) <= bounds[i - 1]``
    for every color ``i`` in ``1..n-1``; ``bounds`` has ``n - 1`` entries.

    Marks ignored, ``eps(t, i)`` is the largest excess of ``i + 1`` over ``i`` in a prefix of
    the hook reading word read backwards, so a tableau qualifies exactly when every such
    prefix holds at most ``bounds[i - 1]`` more ``i + 1`` than ``i``: with the ``phi`` of a
    weight ``mu`` as bounds, a ballot word started at ``mu``.  Backwards, the word reads for
    ``k = 1, 2, ...`` the unmarked entries of row ``k`` from right to left, then the marked
    entries of column ``k`` from top to bottom.  Rows are filled bottom first, each from right
    to left, every code between the bounds its south and east neighbours set.  An unmarked
    letter is read as it is written; a marked one in column ``k`` lies in a row below ``k``,
    and is read once row ``k`` is filled.  A branch stops at the first letter that breaks a
    bound.  The result is in the order the fillings complete.  With every bound 0 these are
    :func:`yamanouchi_codes`' tableaux, which that fill finds many times faster.
    """
    size, top = g.size, 2 * n
    # (cell, written): write the cell's code, or read it if marked, in backward hook reading.
    plan = [(cell, not mark) for cell, mark in reversed(g.reading)]
    codes = [0] * size
    results: list[tuple[int, ...]] = []
    # slack[v]: bounds[v - 1] plus the count of v minus that of v + 1 read so far; the
    # slack of colors 0 and n never binds.
    slack = [size, *bounds, size]

    def read(s: int, v: int) -> None:
        if slack[v - 1]:
            slack[v - 1] -= 1
            slack[v] += 1
            step(s + 1)
            slack[v - 1] += 1
            slack[v] -= 1

    def step(s: int) -> None:
        if s == len(plan):
            results.append(tuple(codes))
            return
        cell, written = plan[s]
        if not written:
            if codes[cell] & 1:
                read(s, (codes[cell] + 1) >> 1)
            else:
                step(s + 1)
            return
        east, south = g.east[cell], g.south[cell]
        high = top if east < 0 else codes[east] - (codes[east] & 1)
        low = 1 if south < 0 else codes[south] | 1
        unmarked = g.unmarked_only[cell]
        for code in range(low + (low & unmarked), high + 1, 1 + unmarked):
            codes[cell] = code
            if code & 1:
                step(s + 1)
            else:
                read(s, code >> 1)

    step(0)
    del read, step  # recursive closures: their cycle would hold ``results`` until collected
    return results


def tableau_count(g: Geometry, n: int) -> int:
    """The number of tableaux of ``g``'s shape in ``1..n``, none of them listed.

    A Young shape ``nu`` has ``s_nu(1^n)`` by the hook-content formula (Stanley, *EC2*,
    7.21.2), 0 past ``n`` rows.  A shifted shape has ``sum_nu g_nu s_nu(1^n)``, with ``g_nu``
    the coefficients of :func:`crystals.symfunc.schur_p_to_schur`: each of its Yamanouchi
    tableaux is the highest weight of one component of its crystal, and one of weight ``nu``
    holds ``s_nu(1^n)``, so only those in ``1..n`` are filled.
    """
    if not g.shifted:
        return _young_count(g.shape, n)
    return sum(_young_count(weight_codes(codes, n), n) for codes in yamanouchi_codes(g, n))


def _young_count(nu: Sequence[int], n: int) -> int:
    """``s_nu(1^n)``, the number of Young tableaux of the partition ``nu`` in ``1..n``."""
    columns = [sum(part > j for part in nu) for j in range(nu[0] if nu else 0)]
    contents = hooks = 1
    for i, part in enumerate(nu):
        for j in range(part):
            contents *= n + j - i
            hooks *= part - j + columns[j] - i - 1
    return contents // hooks
