"""Tableaux with marked and unmarked entries.

Two cell grids are provided: :class:`YoungTableau` (left-justified rows, unmarked
entries) and :class:`ShiftedTableau` (row ``r`` indented to start at column ``r``,
marked or unmarked entries).  Rows are stored bottom-to-top in French notation:
``rows[0]`` is row 1.  All coordinates are 1-based ``(row, column)`` pairs.

The canonical text form lists rows bottom-to-top as bracketed lists with marks as
trailing apostrophes, e.g. ``[[1,1,2'],[2]]``.

Packed form.  The operators, the enumerations and the graph builders work on
integer codes rather than :class:`Entry` objects: an entry is the int
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
parity matches.  The enumerations fill codes and unpack only what they
return.  The operator bodies and the graph builders work on codes alone;
the public operators pack their argument and unpack their result, with one
shared :class:`Entry` per code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Callable, Iterator, NamedTuple, Sequence

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


_ENTRY_RE = re.compile(r"(\d+)('?)")

Row = tuple[Entry, ...]
Rows = tuple[Row, ...]
Word = tuple[Entry, ...]


def parse_entry(text: str) -> Entry:
    """Parse ``"3"`` or ``"3'"`` into an :class:`Entry`."""
    match = _ENTRY_RE.fullmatch(text.strip())
    if match is None or int(match.group(1)) < 1:
        raise ParseError(f"invalid entry {text!r}")
    return Entry(int(match.group(1)), match.group(2) == "'")


@dataclass(frozen=True, slots=True)
class YoungTableau:
    """Left-justified filling; row ``r`` occupies columns ``1..shape[r-1]``."""

    shape: Shape
    rows: Rows

    def cell(self, r: int, c: int) -> Entry:
        return self.rows[r - 1][c - 1]

    def column_start(self, r: int) -> int:
        return 1

    def render(self) -> str:
        return render_tableau(self)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclass(frozen=True, slots=True)
class ShiftedTableau:
    """Shifted filling; row ``r`` occupies columns ``r..r+shape[r-1]-1``."""

    shape: Shape
    rows: Rows

    def cell(self, r: int, c: int) -> Entry:
        return self.rows[r - 1][c - r]

    def column_start(self, r: int) -> int:
        return r

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


def cells_of(t: Tableau) -> Iterator[tuple[Cell, Entry]]:
    """Yield ``((row, col), entry)`` in row-major order, bottom row first."""
    for r, row in enumerate(t.rows, start=1):
        start = t.column_start(r)
        for j, entry in enumerate(row):
            yield (r, start + j), entry


def has_cell(t: Tableau, r: int, c: int) -> bool:
    if not 1 <= r <= len(t.shape):
        return False
    start = t.column_start(r)
    return start <= c < start + t.shape[r - 1]


def entry_at(t: Tableau, r: int, c: int) -> Entry | None:
    return t.cell(r, c) if has_cell(t, r, c) else None


def _check_shape(shape: Sequence[int], rows: Sequence[Sequence[Entry]], strict: bool) -> None:
    if strict:
        if not is_strict_partition(shape):
            raise ShapeMismatch(f"{tuple(shape)} is not a strict partition")
    elif not is_partition(shape):
        raise ShapeMismatch(f"{tuple(shape)} is not a partition")
    if len(rows) != len(shape):
        raise ShapeMismatch(
            f"expected {len(shape)} rows, got {len(rows)}"
        )
    for r, (length, row) in enumerate(zip(shape, rows), start=1):
        if len(row) != length:
            raise ShapeMismatch(
                f"row {r} has {len(row)} cells, expected {length}"
            )


def _check_values(t: Tableau, n: int | None) -> None:
    for (r, c), entry in cells_of(t):
        if entry.value < 1:
            raise ValueOutOfRange(
                f"entry {entry.render()} at cell ({r}, {c}) must be positive"
            )
        if n is not None and entry.value > n:
            raise ValueOutOfRange(
                f"entry {entry.render()} at cell ({r}, {c}) outside 1..{n}"
            )


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
    _check_shape(shape, rows, strict=False)
    t = YoungTableau(tuple(shape), tuple(tuple(row) for row in rows))
    for (r, c), entry in cells_of(t):
        if entry.marked:
            raise ValueOutOfRange(
                f"marked entry {entry.render()} at cell ({r}, {c}) not allowed here"
            )
    _check_values(t, n)
    for (r, c), entry in cells_of(t):
        left = entry_at(t, r, c - 1)
        if left is not None and left.value > entry.value:
            raise RowViolation(
                f"cells ({r}, {c - 1}) and ({r}, {c}) decrease: "
                f"{left.render()} > {entry.render()}"
            )
        below = entry_at(t, r - 1, c)
        if below is not None and below.value >= entry.value:
            raise ColumnViolation(
                f"cells ({r - 1}, {c}) and ({r}, {c}) do not increase: "
                f"{below.render()} >= {entry.render()}"
            )
    return t


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
    _check_shape(shape, rows, strict=True)
    t = ShiftedTableau(tuple(shape), tuple(tuple(row) for row in rows))
    _check_values(t, n)
    for (r, c), entry in cells_of(t):
        if entry.marked and r == c:
            raise DiagonalMarkViolation(
                f"marked entry {entry.render()} on the diagonal at ({r}, {c})"
            )
        left = entry_at(t, r, c - 1)
        if left is not None:
            if left > entry:
                raise RowViolation(
                    f"cells ({r}, {c - 1}) and ({r}, {c}) decrease: "
                    f"{left.render()} > {entry.render()}"
                )
            if left == entry and entry.marked:
                raise DuplicateMarkInRow(
                    f"marked value {entry.render()} repeats in row {r} "
                    f"at columns {c - 1} and {c}"
                )
        below = entry_at(t, r - 1, c)
        if below is not None:
            if below > entry:
                raise ColumnViolation(
                    f"cells ({r - 1}, {c}) and ({r}, {c}) decrease: "
                    f"{below.render()} > {entry.render()}"
                )
            if below == entry and not entry.marked:
                raise ColumnViolation(
                    f"unmarked value {entry.render()} repeats in column {c} "
                    f"at rows {r - 1} and {r}"
                )
    return t


def weight(t: Tableau, n: int) -> Weight:
    """Count occurrences of each value 1..n, marked and unmarked together.

    Raises:
        ValueOutOfRange: Some entry value is not in 1..n.
    """
    counts = [0] * n
    for (r, c), entry in cells_of(t):
        if not 1 <= entry.value <= n:
            raise ValueOutOfRange(
                f"entry {entry.render()} at cell ({r}, {c}) outside 1..{n}"
            )
        counts[entry.value - 1] += 1
    return tuple(counts)


def row_reading_cells(t: YoungTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in row reading order: top row first, each row left to right."""
    g = geometry_of(t)
    flat = [entry for row in t.rows for entry in row]
    return tuple((g.coords[c], flat[c]) for c, _ in g.reading)


def row_reading_word(t: YoungTableau) -> Word:
    return tuple(entry for _, entry in row_reading_cells(t))


def hook_reading_cells(t: ShiftedTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in hook reading order.

    For each index ``i`` from the widest column down to 1: the marked entries of
    column ``i`` from bottom to top, then the unmarked entries of row ``i`` from
    left to right.
    """
    g = geometry_of(t)
    flat = [entry for row in t.rows for entry in row]
    return tuple((g.coords[c], flat[c]) for c, marked in g.reading if flat[c].marked == marked)


def hook_reading_word(t: ShiftedTableau) -> Word:
    return tuple(entry for _, entry in hook_reading_cells(t))


def reading_cells(t: Tableau) -> tuple[tuple[Cell, Entry], ...]:
    if isinstance(t, YoungTableau):
        return row_reading_cells(t)
    return hook_reading_cells(t)


def reading_word(t: Tableau) -> Word:
    return tuple(entry for _, entry in reading_cells(t))


def render_tableau(t: Tableau) -> str:
    rows = ",".join(
        "[" + ",".join(entry.render() for entry in row) + "]" for row in t.rows
    )
    return f"[{rows}]"


def render_word(word: Word) -> str:
    return " ".join(entry.render() for entry in word)


def _parse_rows(text: str) -> list[list[Entry]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("tableau text must be wrapped in brackets", 0)
    inner = text[1:-1].strip()
    if not inner:
        return []
    rows: list[list[Entry]] = []
    pos = text.index(inner[0]) if inner else 1
    i = 0
    while i < len(inner):
        if inner[i] != "[":
            raise ParseError("expected '[' to open a row", pos + i)
        j = inner.find("]", i)
        if j < 0:
            raise ParseError("unterminated row", pos + i)
        body = inner[i + 1 : j].strip()
        row: list[Entry] = []
        if body:
            for piece in body.split(","):
                match = _ENTRY_RE.fullmatch(piece.strip())
                if match is None:
                    raise ParseError(f"invalid entry {piece.strip()!r}", pos + i)
                row.append(Entry(int(match.group(1)), match.group(2) == "'"))
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


def _over_budget(kind: str, shape: Shape, count: int, limit: int) -> ClosureBudgetExceeded:
    return ClosureBudgetExceeded(
        f"enumeration of {kind} tableaux of shape {shape} reached "
        f"{count} tableaux, over the budget of {limit} vertices"
    )


def _keep(results: list, tableau: Tableau, limit: int | None) -> None:
    """Append ``tableau``; refuse the ``limit + 1``-st before enumerating on."""
    results.append(tableau)
    if limit is not None and len(results) > limit:
        kind = "Young" if isinstance(tableau, YoungTableau) else "shifted"
        raise _over_budget(kind, tableau.shape, len(results), limit)


def enumerate_codes(
    g: Geometry, n: int, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Packed tableaux of ``g``'s shape with values at most ``n``, in reading order.

    Cells are filled in row-major order with every code allowed by the west
    and south neighbours (weakly larger, and a repeat only of an unmarked
    code along a row or a marked one up a column); cells that take unmarked
    entries only step through even codes.  The result is sorted by reading
    word, stably, so ties keep the filling order.

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

    def check_budget() -> None:
        if limit is not None and len(results) > limit:
            del results[limit + 1 :]
            kind = "shifted" if g.shifted else "Young"
            raise _over_budget(kind, g.shape, limit + 1, limit)

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
        for code in range(low, top + 1, step):
            codes[k] = code
            results.append(tuple(codes))
        check_budget()

    if size:
        fill(0)
    check_budget()
    results.sort(key=lambda codes: reading_key(codes, g))
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
    g = checked_geometry(shape, n, shifted=False)
    return [unpack(codes, g) for codes in enumerate_codes(g, n, limit)]


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
    g = checked_geometry(shape, n, shifted=True)
    return [unpack(codes, g) for codes in enumerate_codes(g, n, limit)]


def checked_geometry(shape: Sequence[int], n: int, shifted: bool) -> Geometry:
    """The geometry of ``shape`` once it and ``n`` are checked for enumeration.

    Raises:
        ShapeMismatch: ``shape`` is not a (strict, when ``shifted``) partition.
        ValueOutOfRange: ``n`` is not positive.
    """
    shape = tuple(shape)
    if shifted:
        if shape and not is_strict_partition(shape):
            raise ShapeMismatch(f"{shape} is not a strict partition")
    elif shape and not is_partition(shape):
        raise ShapeMismatch(f"{shape} is not a partition")
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")
    return geometry(shape, shifted)


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
