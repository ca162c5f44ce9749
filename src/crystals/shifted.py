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
One fill of codes, :func:`ballot_codes`, finds the tableaux whose raising strings keep
within given bounds, each letter written as the backward reading word reads it.  At
bounds 0 these are the Yamanouchi tableaux, whose raising strings all vanish:
:func:`enumerate_yamanouchi` unpacks them, and :func:`tableau_count` counts a shape's
tableaux from them.
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

    The :func:`ballot_codes` with every bound 0, unpacked and ordered by hook reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    return _in_reading_order(ballot_codes, shape, n, limit, shifted=True)


def ballot_codes(
    g: Geometry, n: int, bounds: Sequence[int] = (), limit: int | None = None
) -> list[tuple[int, ...]]:
    """Packed shifted tableaux of ``g``'s shape in ``1..n`` with ``eps(t, i) <= bounds[i - 1]``
    for every color ``i`` in ``1..n-1``, a color past the end of ``bounds`` bounded by 0: at
    ``bounds=()`` the Yamanouchi tableaux, whose raising strings all vanish.

    Marks ignored, ``eps(t, i)`` is the largest excess of ``i + 1`` over ``i`` in a prefix
    of the hook reading word read backwards (with the ``phi`` of a weight ``mu`` as bounds,
    a ballot word started at ``mu``).  That word reads for ``k = 1, 2, ...`` the unmarked
    entries of row ``k`` right to left, then the marked entries of column ``k`` top to
    bottom, and each letter is written as it is read.  At its unmarked slot a cell takes
    each even code above its south neighbour (or the odd codes of a blank run there) and at
    most the next code written east, less 2 for each blank between them; off the diagonal it
    may stay blank.  At its marked slot a blank takes each odd code above its west neighbour
    and a written south one, at most its north neighbour (below an unmarked one) and below a
    written east one.  So each rule of :func:`~crystals.tableaux.check_codes` is checked as
    the later cell of its pair is written, and a branch stops at the first letter past a
    bound.  No value past ``|shape| + len(bounds)`` can be read, so none is tried.  Results
    come as completed.

    Raises:
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    n = min(n, g.size + len(bounds))
    top = 2 * n
    plan = [(cell, mark, g.south[cell], g.east[cell], g.north[cell], g.west[cell],
             g.unmarked_only[cell]) for cell, mark in reversed(g.reading)]
    codes = [0] * g.size  # 0: blank, to be marked at its marked slot
    results: list[tuple[int, ...]] = []
    # slack[v - 1]: bounds[v - 2] plus the count of v - 1 minus that of v read so far, how
    # many more v may be read; the slack of the value 1 never binds.
    slack = [g.size, *bounds[: n - 1]] + [0] * n

    def step(s: int, high: int) -> None:
        if s == len(plan):
            results.append(tuple(codes))
            _check_count(len(results), g, limit)
            return
        cell, mark, south, east, north, west, diagonal = plan[s]
        if mark:
            if codes[cell]:  # written unmarked
                step(s + 1, 0)
                return
            low = codes[west] + 1 + (codes[west] & 1)
            if south >= 0 and codes[south] >= low:
                low = codes[south] + 1
            high = top - 1 if north < 0 else (codes[north] - 1) | 1
            if east >= 0 and 0 < codes[east] <= high:
                high = codes[east] - 1
        else:
            high, low = top if east < 0 else high, 2
            if south >= 0:  # above the south cell, whose blank run takes odd codes
                k, blanks = south, 0
                while not codes[k]:
                    k, blanks = g.west[k], blanks + 1
                low = codes[k] + max(2 * blanks, 2) + (codes[k] & 1)
        for code in range(low, high + 1, 2):
            v = (code - 1) >> 1
            if slack[v]:
                codes[cell] = code
                slack[v] -= 1
                slack[v + 1] += 1
                step(s + 1, code)
                slack[v] += 1
                slack[v + 1] -= 1
        codes[cell] = 0
        if not (mark or diagonal) and low <= high:
            step(s + 1, high - 2)

    step(0, top)
    del step  # a recursive closure: its cycle would hold ``results`` until collected
    return results


def tableau_count(g: Geometry, n: int) -> int:
    """The number of tableaux of ``g``'s shape in ``1..n``, none of them listed.

    A Young shape ``nu`` has ``s_nu(1^n)`` by the hook-content formula (Stanley, *EC2*,
    7.21.2), 0 past ``n`` rows.  A shifted shape has ``sum_nu g_nu s_nu(1^n)``, with ``g_nu``
    the coefficients of :func:`crystals.symfunc.schur_p_to_schur`: each of its Yamanouchi
    tableaux is the highest weight of one component of its crystal, and one of weight ``nu``
    holds ``s_nu(1^n)``, so only those in ``1..n`` are filled (:func:`ballot_codes`).
    """
    if not g.shifted:
        return _young_count(g.shape, n)
    return sum(_young_count(weight_codes(codes, n), n) for codes in ballot_codes(g, n))


def _young_count(nu: Sequence[int], n: int) -> int:
    """``s_nu(1^n)``, the number of Young tableaux of the partition ``nu`` in ``1..n``."""
    columns = [sum(part > j for part in nu) for j in range(nu[0] if nu else 0)]
    contents = hooks = 1
    for i, part in enumerate(nu):
        for j in range(part):
            contents *= n + j - i
            hooks *= part - j + columns[j] - i - 1
    return contents // hooks
