"""Raising and lowering operators on semistandard shifted tableaux.

Operators act through the hook reading word.  The lowering operator ``f_i``
locates the word position of the first maximal prefix statistic and edits the
tableau around that cell; the raising operator ``e_i`` starts from the position
just after the last maximal prefix and inverts every lowering case.

Entries with value ``v`` (marked or not) form connected ribbons; some cases walk
a ribbon northwest to its head or southeast along its tail to keep the filling
semistandard while moving weight between values ``i`` and ``i + 1``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import IndexOutOfRange, ShapeMismatch, ValueOutOfRange
from .pairing import eps_i as _word_eps
from .pairing import first_max_position, last_max_position, m_i
from .tableaux import (
    Cell,
    Entry,
    ShiftedTableau,
    _keep,
    entry_at,
    hook_reading_cells,
    is_strict_partition,
    replace_cells,
    validate_shifted,
)


def _check_color(i: int) -> None:
    if i < 1:
        raise IndexOutOfRange(f"operator index must be at least 1, got {i}")


def phi(t: ShiftedTableau, i: int) -> int:
    """Length of the lowering string at ``t`` for color ``i``."""
    _check_color(i)
    return m_i(tuple(e for _, e in hook_reading_cells(t)), i)


def eps(t: ShiftedTableau, i: int) -> int:
    """Length of the raising string at ``t`` for color ``i``."""
    _check_color(i)
    return _word_eps(tuple(e for _, e in hook_reading_cells(t)), i)


def _in_class(entry: Entry | None, value: int) -> bool:
    return entry is not None and entry.value == value


def _ribbon_head(t: ShiftedTableau, cell: Cell) -> Cell:
    """Walk northwest along the ribbon of ``cell``'s value to its head."""
    value = t.cell(*cell).value
    r, c = cell
    while True:
        if _in_class(entry_at(t, r + 1, c), value):
            r += 1
        elif _in_class(entry_at(t, r, c - 1), value):
            c -= 1
        else:
            return (r, c)


def _ribbon_tail_cells(t: ShiftedTableau, cell: Cell) -> list[Cell]:
    """Cells from ``cell`` walking southeast along its value's ribbon."""
    value = t.cell(*cell).value
    r, c = cell
    out = [(r, c)]
    while True:
        if _in_class(entry_at(t, r - 1, c), value):
            r -= 1
        elif _in_class(entry_at(t, r, c + 1), value):
            c += 1
        else:
            return out
        out.append((r, c))


def lower(t: ShiftedTableau, i: int) -> ShiftedTableau | None:
    """Apply ``f_i``, or return ``None`` when the lowering string is exhausted."""
    _check_color(i)
    cells = hook_reading_cells(t)
    word = tuple(e for _, e in cells)
    if m_i(word, i) <= 0:
        return None
    p = first_max_position(word, i)
    (r, c), x = cells[p - 1]
    assert x.value == i
    north = entry_at(t, r + 1, c)
    east = entry_at(t, r, c + 1)

    if not x.marked:
        if east == Entry(i + 1, True):
            return replace_cells(
                t, {(r, c): Entry(i + 1, True), (r, c + 1): Entry(i + 1)}
            )
        if north is None or north > Entry(i + 1):
            return replace_cells(t, {(r, c): Entry(i + 1)})
        head = _ribbon_head(t, (r + 1, c))
        if t.cell(*head).marked:
            return replace_cells(
                t, {(r, c): Entry(i + 1, True), head: Entry(i + 1)}
            )
        return replace_cells(t, {(r, c): Entry(i + 1, True)})

    if north == Entry(i):
        return replace_cells(t, {(r, c): Entry(i), (r + 1, c): Entry(i + 1, True)})
    if east is None or east > Entry(i + 1, True):
        return replace_cells(t, {(r, c): Entry(i + 1, True)})
    changed = replace_cells(t, {(r, c): Entry(i)})
    for cell in _ribbon_tail_cells(changed, (r, c)):
        if changed.cell(*cell) != Entry(i):
            continue
        neighbor = entry_at(changed, cell[0], cell[1] + 1)
        if neighbor != Entry(i) and neighbor != Entry(i + 1, True):
            return replace_cells(changed, {cell: Entry(i + 1, True)})
    raise AssertionError("lowering walk found no cell to change")


def raise_(t: ShiftedTableau, i: int) -> ShiftedTableau | None:
    """Apply ``e_i``, or return ``None`` when the raising string is exhausted."""
    _check_color(i)
    cells = hook_reading_cells(t)
    word = tuple(e for _, e in cells)
    q = last_max_position(word, i)
    if q == len(word):
        return None
    (r, c), x = cells[q]
    assert x.value == i + 1
    south = entry_at(t, r - 1, c)
    west = entry_at(t, r, c - 1)

    if not x.marked:
        if west == Entry(i + 1, True):
            return replace_cells(
                t, {(r, c): Entry(i + 1, True), (r, c - 1): Entry(i)}
            )
        if south is None or south < Entry(i):
            return replace_cells(t, {(r, c): Entry(i)})
        changed = replace_cells(t, {(r, c): Entry(i + 1, True)})
        for cell in _ribbon_tail_cells(changed, (r, c)):
            if changed.cell(*cell) != Entry(i + 1, True):
                continue
            neighbor = entry_at(changed, cell[0] - 1, cell[1])
            if neighbor != Entry(i) and neighbor != Entry(i + 1, True):
                return replace_cells(changed, {cell: Entry(i)})
        raise AssertionError("raising walk found no cell to change")

    if south == Entry(i):
        return replace_cells(t, {(r, c): Entry(i), (r - 1, c): Entry(i, True)})
    if west is None or west < Entry(i, True):
        return replace_cells(t, {(r, c): Entry(i, True)})
    head = _ribbon_head(t, (r, c - 1))
    if head[0] != head[1]:
        return replace_cells(t, {(r, c): Entry(i), head: Entry(i, True)})
    return replace_cells(t, {(r, c): Entry(i)})


def enumerate_yamanouchi(
    shape: Sequence[int], n: int, limit: int | None = None
) -> list[ShiftedTableau]:
    """All shifted tableaux of ``shape`` whose raising strings all vanish.

    Marks ignored, ``eps(t, i) == 0`` for every color exactly when the hook
    reading word read backwards is a ballot word: every prefix holds at least
    as many ``v`` as ``v + 1``.  Backwards, that word reads for ``k = 1, 2,
    ...`` the unmarked entries of row ``k`` from right to left, then the
    marked entries of column ``k`` from top to bottom.  In such a tableau row
    ``r`` is a run of unmarked ``r`` followed by strictly increasing marked
    values larger than ``r``, so the fillings are built by backtracking in
    that order: the length of row ``k``'s run, then each marked value of
    column ``k``, larger than its left neighbour and at most the entry above
    it.  A branch stops as soon as some value outnumbers its predecessor, so
    every completed filling is Yamanouchi.  The result is ordered
    lexicographically by hook reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    shape = tuple(shape)
    if shape and not is_strict_partition(shape):
        raise ShapeMismatch(f"{shape} is not a strict partition")
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")

    results: list[ShiftedTableau] = []
    rows: list[list[Entry]] = [[] for _ in shape]
    # count[v]: letters of value v read so far; count[0] never binds.
    count = [sum(shape)] + [0] * n
    columns = shape[0] if shape else 0

    def step(k: int) -> None:
        if k > columns:
            _keep(results, validate_shifted(shape, rows, n), limit)
            return
        if k > len(shape):
            column(k, len(shape))
            return
        if k > n:  # row k starts with the value k
            return
        for run in range(1, min(shape[k - 1], count[k - 1] - count[k]) + 1):
            rows[k - 1] = [Entry(k)] * run
            count[k] += run
            column(k, k - 1)
            count[k] -= run
        rows[k - 1] = []

    def column(k: int, r: int) -> None:
        # Fill the marked cells of column k in rows r, r - 1, ..., 1; the
        # cell (r, k) is one when row r is filled to column k - 1 and goes on.
        while r and not len(rows[r - 1]) == k - r < shape[r - 1]:
            r -= 1
        if not r:
            step(k + 1)
            return
        high = n
        if r < len(shape) and k - r <= shape[r]:
            high = min(high, rows[r][k - r - 1].value)
        for v in range(rows[r - 1][-1].value + 1, high + 1):
            if count[v] < count[v - 1]:
                rows[r - 1].append(Entry(v, True))
                count[v] += 1
                column(k, r - 1)
                count[v] -= 1
                rows[r - 1].pop()

    step(1)
    results.sort(key=lambda t: tuple(e.sort_key for _, e in hook_reading_cells(t)))
    return results
