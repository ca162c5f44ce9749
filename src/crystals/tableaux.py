"""Tableaux with marked and unmarked entries.

Two cell grids are provided: :class:`YoungTableau` (left-justified rows, unmarked
entries) and :class:`ShiftedTableau` (row ``r`` indented to start at column ``r``,
marked or unmarked entries).  Rows are stored bottom-to-top in French notation:
``rows[0]`` is row 1.  All coordinates are 1-based ``(row, column)`` pairs.

The canonical text form lists rows bottom-to-top as bracketed lists with marks as
trailing apostrophes, e.g. ``[[1,1,2'],[2]]``.

The reading orders are public as cells only: :func:`row_reading_cells` and
:func:`hook_reading_cells` list ``((row, column), entry)`` pairs, and the
reading word is their entries.

Packed form.  Inside the library every tableau is integer codes rather
than :class:`Entry` objects; :class:`Entry` rows appear only where a
tableau is parsed, rendered, passed to a public operator or returned from a
public enumeration.  An entry is the int
``2i - 1`` for ``i'`` and ``2i`` for ``i`` (its :attr:`Entry.sort_key`, the
doubled half-integer convention), so codes order like entries, the value is
``(code + 1) >> 1`` and a mark is an odd code.  A tableau is the flat tuple
of its codes in row-major cell order, bottom row first (:func:`pack`,
:func:`unpack`).  Everything else about a shape lives in its
:class:`Geometry`, built on first use and cached: the ``(row, column)`` of
each cell index, its north/east/south/west neighbour indices, the cells
that take unmarked entries only, the row slices, and the reading order
(hook reading if shifted, row reading if not) as ``(cell, wanted mark
parity)`` pairs, so the reading word of ``codes`` is the cells whose code
parity matches.  One routine, :func:`check_codes`, states the
semistandardness rules of both kinds from the geometry; the validators pack
the rows they are given and call it.  The enumerations fill codes, and the
public ones unpack only what they return; the characters and
:func:`weight` count codes.  The operator bodies and the graph builders
work on codes alone; the public operators pack their argument and unpack
their result, with one shared :class:`Entry` per code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Callable, NamedTuple, Sequence

from .errors import (
    ClosureBudgetExceeded,
    ColumnViolation,
    DiagonalMarkViolation,
    DuplicateMarkInRow,
    ParseError,
    RowViolation,
    ShapeMismatch,
    ValueOutOfRange,
)

Shape = tuple[int, ...]
Weight = tuple[int, ...]
Cell = tuple[int, int]


@total_ordering
@dataclass(frozen=True, slots=True)
class Entry:
    """A tableau entry: a positive value, optionally marked.

    Entries are totally ordered as ``1' < 1 < 2' < 2 < ...``; the marked copy of a
    value comes immediately before the unmarked copy.
    """

    value: int
    marked: bool = False

    @property
    def sort_key(self) -> int:
        return 2 * self.value - (1 if self.marked else 0)

    def __lt__(self, other: "Entry") -> bool:
        return self.sort_key < other.sort_key

    def render(self) -> str:
        return f"{self.value}'" if self.marked else str(self.value)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


_ENTRY_RE = re.compile(r"([0-9]+)('?)")  # ASCII digits: \d takes any Unicode digit

Row = tuple[Entry, ...]
Rows = tuple[Row, ...]
Word = tuple[Entry, ...]


def _entry_of(text: str, position: int | None = None) -> Entry:
    """The entry ``text`` spells in ASCII digits and an optional mark; a
    :class:`ParseError` for none, or for a value past Python's digit limit."""
    try:
        if match := _ENTRY_RE.fullmatch(text.strip()):
            return Entry(int(match.group(1)), match.group(2) == "'")
    except ValueError:  # past Python's integer digit limit
        pass
    raise ParseError(f"invalid entry {text.strip()!r}", position)


@dataclass(frozen=True, slots=True)
class YoungTableau:
    """Left-justified filling; row ``r`` occupies columns ``1..shape[r-1]``."""

    shape: Shape
    rows: Rows

    def render(self) -> str:
        return render_tableau(self)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclass(frozen=True, slots=True)
class ShiftedTableau:
    """Shifted filling; row ``r`` occupies columns ``r..r+shape[r-1]-1``."""

    shape: Shape
    rows: Rows

    def render(self) -> str:
        return render_tableau(self)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


Tableau = YoungTableau | ShiftedTableau


def is_partition(shape: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(shape, shape[1:])) and all(
        a > 0 for a in shape
    )


def is_strict_partition(shape: Sequence[int]) -> bool:
    return all(a > b for a, b in zip(shape, shape[1:])) and all(a > 0 for a in shape)


def _check_partition(shape: Shape, shifted: bool) -> None:
    if shifted:
        if not is_strict_partition(shape):
            raise ShapeMismatch(f"{shape} is not a strict partition")
    elif not is_partition(shape):
        raise ShapeMismatch(f"{shape} is not a partition")


def _validated(
    shape: Sequence[int], rows: Sequence[Sequence[Entry]], n: int | None, shifted: bool
) -> Tableau:
    """The tableau of ``rows`` once they fill ``shape`` and pass :func:`check_codes`."""
    shape = tuple(shape)
    _check_partition(shape, shifted)
    if len(rows) != len(shape):
        raise ShapeMismatch(f"expected {len(shape)} rows, got {len(rows)}")
    for r, (length, row) in enumerate(zip(shape, rows), start=1):
        if len(row) != length:
            raise ShapeMismatch(f"row {r} has {len(row)} cells, expected {length}")
    t = (ShiftedTableau if shifted else YoungTableau)(shape, tuple(tuple(row) for row in rows))
    check_codes(pack(t), geometry(shape, shifted), n)
    return t


def validate_young(
    shape: Sequence[int], rows: Sequence[Sequence[Entry]], n: int | None = None
) -> YoungTableau:
    """Build a :class:`YoungTableau`, checking semistandardness.

    Rows must weakly increase left to right and columns strictly increase bottom
    to top; marked entries are not allowed.

    Raises:
        ShapeMismatch: Shape is not a partition or rows do not match it.
        RowViolation / ColumnViolation: An adjacent pair is out of order; the
            message carries the 1-based cell coordinates.
        ValueOutOfRange: A marked entry appears, or a value falls outside 1..n.
    """
    return _validated(shape, rows, n, shifted=False)


def validate_shifted(
    shape: Sequence[int], rows: Sequence[Sequence[Entry]], n: int | None = None
) -> ShiftedTableau:
    """Build a :class:`ShiftedTableau`, checking semistandardness.

    Entries weakly increase along rows and columns in the order
    ``1' < 1 < 2' < 2 < ...``; each row repeats a marked value at most once, each
    column repeats an unmarked value at most once, and cells on the main diagonal
    (column equal to row) are unmarked.

    Raises:
        ShapeMismatch: Shape is not strict or rows do not match it.
        RowViolation / ColumnViolation: Order or repetition broken along a line.
        DuplicateMarkInRow: The same marked value twice in one row.
        DiagonalMarkViolation: A marked entry on the main diagonal.
        ValueOutOfRange: A value falls outside 1..n.
    """
    return _validated(shape, rows, n, shifted=True)


def weight(t: Tableau, n: int) -> Weight:
    """Count occurrences of each value 1..n, marked and unmarked together.

    Raises:
        ValueOutOfRange: Some entry value is not in 1..n.
    """
    codes = pack(t)
    _check_range(codes, geometry_of(t), n, f"outside 1..{n}")
    return weight_codes(codes, n)


def row_reading_cells(t: YoungTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in row reading order: top row first, each row left to right."""
    g = geometry_of(t)
    flat = [entry for row in t.rows for entry in row]
    return tuple((g.coords[c], flat[c]) for c, _ in g.reading)


def hook_reading_cells(t: ShiftedTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in hook reading order.

    For each index ``i`` from the widest column down to 1: the marked entries of
    column ``i`` from bottom to top, then the unmarked entries of row ``i`` from
    left to right.
    """
    g = geometry_of(t)
    flat = [entry for row in t.rows for entry in row]
    return tuple((g.coords[c], flat[c]) for c, marked in g.reading if flat[c].marked == marked)


def render_tableau(t: Tableau) -> str:
    rows = ",".join(
        "[" + ",".join(entry.render() for entry in row) + "]" for row in t.rows
    )
    return f"[{rows}]"


def _parse_rows(text: str) -> list[list[Entry]]:
    """Rows of ``[[1,2'],[3]]`` text; errors give offsets into ``text`` as given."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("tableau text must be wrapped in brackets", 0)
    inner = body[1:-1]
    pos = len(text) - len(text.lstrip()) + 1 + len(inner) - len(inner.lstrip())  # of inner[0]
    inner = inner.strip()
    rows: list[list[Entry]] = []
    i = 0
    while i < len(inner):
        if inner[i] != "[":
            raise ParseError("expected '[' to open a row", pos + i)
        j = inner.find("]", i)
        if j < 0:
            raise ParseError("unterminated row", pos + i)
        entries = inner[i + 1 : j]
        row, at = [], pos + i + 1  # at: the offset of each piece in text
        for piece in entries.split(",") if entries.strip() else ():
            row.append(_entry_of(piece, at + len(piece) - len(piece.lstrip())))
            at += len(piece) + 1
        rows.append(row)
        i = j + 1
        while i < len(inner) and inner[i] in ", ":
            i += 1
    return rows


def parse_young(text: str, n: int | None = None) -> YoungTableau:
    """Parse canonical text like ``[[1,1,2],[2]]`` into a valid Young tableau."""
    rows = _parse_rows(text)
    return validate_young(tuple(len(row) for row in rows), rows, n)


def parse_shifted(text: str, n: int | None = None) -> ShiftedTableau:
    """Parse canonical text like ``[[1,1,2'],[2]]`` into a valid shifted tableau."""
    rows = _parse_rows(text)
    return validate_shifted(tuple(len(row) for row in rows), rows, n)


def _check_budget(results: list, g: Geometry, limit: int | None) -> None:
    """Refuse an enumeration of ``g``'s shape once it holds ``limit + 1`` results."""
    if limit is not None and len(results) > limit:
        kind = "shifted" if g.shifted else "Young"
        raise ClosureBudgetExceeded(
            f"enumeration of {kind} tableaux of shape {g.shape} reached "
            f"{limit + 1} tableaux, over the budget of {limit} vertices"
        )


def enumerate_codes(
    g: Geometry, n: int, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Packed tableaux of ``g``'s shape with values at most ``n``, in the
    order they are filled.

    Cells are filled in row-major order with every code allowed by the west
    and south neighbours (weakly larger, and a repeat only of an unmarked
    code along a row or a marked one up a column); cells that take unmarked
    entries only step through even codes.  The last cell takes no more
    codes than the budget has room for, so at most ``limit + 1`` tableaux
    are ever held, however large ``n`` is.

    Raises:
        ClosureBudgetExceeded: More than ``limit`` tableaux; raised once the
            ``limit + 1``-st is found.
    """
    size, top = g.size, 2 * n
    last = size - 1
    plan = [
        (g.west[k], g.south[k], 2 if g.unmarked_only[k] else 1) for k in range(size)
    ]
    codes = [0] * size
    results: list[tuple[int, ...]] = [] if size else [()]

    def fill(k: int) -> None:
        west, south, step = plan[k]
        low = 1
        if west >= 0:
            left = codes[west]
            low = left + (left & 1)
        if south >= 0:
            below = codes[south]
            below += 1 - (below & 1)
            if below > low:
                low = below
        if step == 2:
            low += low & 1
        if k < last:
            for code in range(low, top + 1, step):
                codes[k] = code
                fill(k + 1)
            return
        stop = top + 1
        if limit is not None:  # room for the limit + 1-st tableau, no more
            stop = min(stop, low + step * (limit + 1 - len(results)))
        for code in range(low, stop, step):
            codes[k] = code
            results.append(tuple(codes))
        _check_budget(results, g, limit)

    if size:
        fill(0)
    _check_budget(results, g, limit)
    return results


def enumerate_ssyt(
    shape: Sequence[int], n: int, limit: int | None = None
) -> list[YoungTableau]:
    """All semistandard Young tableaux of ``shape`` with entries at most ``n``.

    The result is ordered lexicographically by row reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    return _in_reading_order(enumerate_codes, shape, n, limit, shifted=False)


def enumerate_ssht(
    shape: Sequence[int], n: int, limit: int | None = None
) -> list[ShiftedTableau]:
    """All semistandard shifted tableaux of strict ``shape`` with values at most ``n``.

    The result is ordered lexicographically by hook reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    return _in_reading_order(enumerate_codes, shape, n, limit, shifted=True)


def _in_reading_order(
    fill: Callable, shape: Sequence[int], n: int, limit: int | None, shifted: bool
) -> list[Tableau]:
    """``fill(g, n, limit)`` for ``shape``, unpacked and sorted by reading word
    (stably, so ties keep the filling order), as the public enumerations print."""
    g = checked_geometry(shape, n, shifted)
    tableaux = fill(g, n, limit)
    tableaux.sort(key=lambda c: reading_key(c, g))
    return [unpack(c, g) for c in tableaux]


def checked_geometry(shape: Sequence[int], n: int, shifted: bool) -> Geometry:
    """The geometry of ``shape`` once it and ``n`` are checked for enumeration.

    Raises:
        ShapeMismatch: ``shape`` is not a (strict, when ``shifted``) partition.
        ValueOutOfRange: ``n`` is not positive.
    """
    shape = tuple(shape)
    _check_partition(shape, shifted)
    _check_alphabet(n)
    return geometry(shape, shifted)


def _check_alphabet(n: int | None) -> None:
    """Refuse an alphabet bound ``n`` below 1; ``None`` declares no bound."""
    if n is not None and n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")


# -- packed form -----------------------------------------------------------------


class _Memo(dict):
    """A dict that computes a missing value once, on its first read."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


_ENTRY = _Memo(lambda code: Entry((code + 1) >> 1, bool(code & 1)))
"""The one :class:`Entry` of each code."""
_TEXT = _Memo(lambda code: _ENTRY[code].render())


class Geometry(NamedTuple):
    """Cell layout of one shape, indexed like its packed codes.

    Neighbour tuples hold ``-1`` where the shape has no such cell.
    ``unmarked_only`` flags the cells that take unmarked entries only: the
    main diagonal of a shifted shape, every cell of a Young shape.
    ``reading`` lists ``(cell, mark)`` pairs in reading order, hook reading
    for a shifted shape and row reading (every mark 0) for a Young shape; a
    cell is read when the parity of its code equals ``mark``.
    """

    shape: Shape
    shifted: bool
    coords: tuple[Cell, ...]
    north: tuple[int, ...]
    east: tuple[int, ...]
    south: tuple[int, ...]
    west: tuple[int, ...]
    unmarked_only: tuple[bool, ...]
    row_slices: tuple[tuple[int, int], ...]
    reading: tuple[tuple[int, int], ...]
    template: str

    @property
    def size(self) -> int:
        return len(self.coords)


@lru_cache(maxsize=None)
def geometry(shape: Shape, shifted: bool) -> Geometry:
    """The cached :class:`Geometry` of ``shape``, shifted or left-justified."""
    coords = [
        (r, (r if shifted else 1) + j)
        for r, length in enumerate(shape, start=1)
        for j in range(length)
    ]
    index = {cell: k for k, cell in enumerate(coords)}

    def step(dr: int, dc: int) -> tuple[int, ...]:
        return tuple(index.get((r + dr, c + dc), -1) for r, c in coords)

    slices, start = [], 0
    for length in shape:
        slices.append((start, start + length))
        start += length
    reading: list[tuple[int, int]] = []
    if shifted:
        for i in range(max(shape[0], len(shape)) if shape else 0, 0, -1):
            reading += [(index[r, i], 1) for r in range(1, len(shape) + 1) if (r, i) in index]
            if i <= len(shape):
                reading += [(k, 0) for k in range(*slices[i - 1])]
    else:
        reading = [(k, 0) for a, b in reversed(slices) for k in range(a, b)]
    rows = ",".join("[" + ",".join(["%s"] * length) + "]" for length in shape)
    return Geometry(
        shape=shape,
        shifted=shifted,
        coords=tuple(coords),
        north=step(1, 0),
        east=step(0, 1),
        south=step(-1, 0),
        west=step(0, -1),
        unmarked_only=tuple(not shifted or r == c for r, c in coords),
        row_slices=tuple(slices),
        reading=tuple(reading),
        template=f"[{rows}]",
    )


def geometry_of(t: Tableau) -> Geometry:
    return geometry(t.shape, isinstance(t, ShiftedTableau))


def pack(t: Tableau) -> tuple[int, ...]:
    """The codes of ``t``'s entries in row-major order, bottom row first."""
    return tuple([2 * e.value - e.marked for row in t.rows for e in row])


def unpack(codes: Sequence[int], g: Geometry) -> Tableau:
    """The tableau of ``g``'s kind and shape holding ``codes``."""
    entries = list(map(_ENTRY.__getitem__, codes))
    rows = tuple([tuple(entries[a:b]) for a, b in g.row_slices])
    return (ShiftedTableau if g.shifted else YoungTableau)(g.shape, rows)


def render_codes(codes: Sequence[int], g: Geometry) -> str:
    """:func:`render_tableau` of ``unpack(codes, g)``, without the tableau."""
    return g.template % tuple(map(_TEXT.__getitem__, codes))


def weight_codes(codes: Sequence[int], n: int) -> Weight:
    """:func:`weight` of packed codes whose values all lie in ``1..n``."""
    counts = [0] * n
    for code in codes:
        counts[((code + 1) >> 1) - 1] += 1
    return tuple(counts)


def _check_range(codes: Sequence[int], g: Geometry, n: int | None, low: str) -> None:
    """Refuse a value below 1 (saying ``low``) or, unless ``n`` is None, above ``n``."""
    for k, code in enumerate(codes):
        if code < 1 or (n is not None and code > 2 * n):
            why = low if code < 1 else f"outside 1..{n}"
            raise ValueOutOfRange(f"entry {_TEXT[code]} at cell {g.coords[k]} {why}")


def check_codes(codes: Sequence[int], g: Geometry, n: int | None) -> None:
    """Check that ``codes`` fill ``g``'s shape semistandardly with values in ``1..n``.

    The one statement of the rules of both kinds, read off ``g``: a Young
    shape refuses every mark first; then no value lies outside ``1..n``
    (below 1 when ``n`` is None), no cell of ``g.unmarked_only`` is marked,
    and, cell by cell in row-major order, a code is at least its west
    neighbour and repeats it only unmarked, and at least its south
    neighbour and repeats it only marked.

    Raises:
        ValueOutOfRange, DiagonalMarkViolation, RowViolation,
        DuplicateMarkInRow, ColumnViolation: as :func:`validate_young` and
            :func:`validate_shifted` describe, for the first broken rule.
    """
    if not g.shifted:
        for k, code in enumerate(codes):
            if code & 1:
                raise ValueOutOfRange(
                    f"marked entry {_TEXT[code]} at cell {g.coords[k]} not allowed here"
                )
    _check_range(codes, g, n, "must be positive")
    for k, code in enumerate(codes):
        r, c = g.coords[k]
        text, mark = _TEXT[code], code & 1
        if mark and g.unmarked_only[k]:
            raise DiagonalMarkViolation(f"marked entry {text} on the diagonal at ({r}, {c})")
        # A marked code may not equal its west neighbour, an unmarked one
        # its south neighbour (nor may any code in a Young shape, all unmarked).
        if g.west[k] >= 0 and (left := codes[g.west[k]]) > code - mark:
            if left > code:
                raise RowViolation(
                    f"cells ({r}, {c - 1}) and ({r}, {c}) decrease: {_TEXT[left]} > {text}"
                )
            raise DuplicateMarkInRow(
                f"marked value {text} repeats in row {r} at columns {c - 1} and {c}"
            )
        if g.south[k] >= 0 and (below := codes[g.south[k]]) >= code + mark:
            if not g.shifted:
                raise ColumnViolation(
                    f"cells ({r - 1}, {c}) and ({r}, {c}) do not increase: "
                    f"{_TEXT[below]} >= {text}"
                )
            if below > code:
                raise ColumnViolation(
                    f"cells ({r - 1}, {c}) and ({r}, {c}) decrease: {_TEXT[below]} > {text}"
                )
            raise ColumnViolation(
                f"unmarked value {text} repeats in column {c} at rows {r - 1} and {r}"
            )


def reading_key(codes: Sequence[int], g: Geometry) -> tuple[int, ...]:
    """The reading word of ``codes`` as codes, the enumerations' sort key."""
    return tuple([codes[c] for c, marked in g.reading if codes[c] & 1 == marked])


def with_codes(
    codes: Sequence[int], cell: int, code: int, cell2: int = -1, code2: int = 0
) -> tuple[int, ...]:
    """``codes`` with ``code`` written at ``cell`` (and ``code2`` at ``cell2``)."""
    out = list(codes)
    out[cell] = code
    if cell2 >= 0:
        out[cell2] = code2
    return tuple(out)
