"""Tableaux with marked and unmarked entries.

Two cell grids are provided: :class:`YoungTableau` (left-justified rows, unmarked
entries) and :class:`ShiftedTableau` (row ``r`` indented to start at column ``r``,
marked or unmarked entries).  Rows are stored bottom-to-top in French notation:
``rows[0]`` is row 1.  All coordinates are 1-based ``(row, column)`` pairs.

The canonical text form lists rows bottom-to-top as bracketed lists with marks as
trailing apostrophes, e.g. ``[[1,1,2'],[2]]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Sequence

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


def replace_cells(t: Tableau, updates: dict[Cell, Entry]) -> Tableau:
    """Return a copy of ``t`` with the given cells replaced (no validation)."""
    new_rows = []
    for r, row in enumerate(t.rows, start=1):
        start = t.column_start(r)
        new_rows.append(
            tuple(
                updates.get((r, start + j), entry) for j, entry in enumerate(row)
            )
        )
    return type(t)(t.shape, tuple(new_rows))


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
    out: list[tuple[Cell, Entry]] = []
    for r in range(len(t.shape), 0, -1):
        for j, entry in enumerate(t.rows[r - 1]):
            out.append(((r, 1 + j), entry))
    return tuple(out)


def row_reading_word(t: YoungTableau) -> Word:
    return tuple(entry for _, entry in row_reading_cells(t))


def hook_reading_cells(t: ShiftedTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in hook reading order.

    For each index ``i`` from the widest column down to 1: the marked entries of
    column ``i`` from bottom to top, then the unmarked entries of row ``i`` from
    left to right.
    """
    if not t.shape:
        return ()
    top = max(t.shape[0], len(t.shape))
    out: list[tuple[Cell, Entry]] = []
    for i in range(top, 0, -1):
        for r in range(1, len(t.shape) + 1):
            if has_cell(t, r, i) and t.cell(r, i).marked:
                out.append(((r, i), t.cell(r, i)))
        if i <= len(t.shape):
            start = t.column_start(i)
            for j, entry in enumerate(t.rows[i - 1]):
                if not entry.marked:
                    out.append(((i, start + j), entry))
    return tuple(out)


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


def _word_sort_key(t: Tableau) -> tuple[int, ...]:
    return tuple(entry.sort_key for entry in reading_word(t))


def _keep(results: list, tableau: Tableau, limit: int | None) -> None:
    """Append ``tableau``; refuse the ``limit + 1``-st before enumerating on."""
    results.append(tableau)
    if limit is not None and len(results) > limit:
        kind = "Young" if isinstance(tableau, YoungTableau) else "shifted"
        raise ClosureBudgetExceeded(
            f"enumeration of {kind} tableaux of shape {tableau.shape} reached "
            f"{len(results)} tableaux, over the budget of {limit} vertices"
        )


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
    shape = tuple(shape)
    if shape and not is_partition(shape):
        raise ShapeMismatch(f"{shape} is not a partition")
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")

    results: list[YoungTableau] = []
    rows: list[list[Entry]] = [[] for _ in shape]

    def fill(r: int, c: int) -> None:
        if r == len(shape):
            _keep(results, YoungTableau(shape, tuple(tuple(row) for row in rows)), limit)
            return
        if c > shape[r]:
            fill(r + 1, 1)
            return
        low = 1
        if c > 1:
            low = max(low, rows[r][c - 2].value)
        if r > 0 and c <= shape[r - 1]:
            low = max(low, rows[r - 1][c - 1].value + 1)
        for v in range(low, n + 1):
            rows[r].append(Entry(v))
            fill(r, c + 1)
            rows[r].pop()

    fill(0, 1)
    results.sort(key=_word_sort_key)
    return results


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
    shape = tuple(shape)
    if shape and not is_strict_partition(shape):
        raise ShapeMismatch(f"{shape} is not a strict partition")
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")

    results: list[ShiftedTableau] = []
    rows: list[list[Entry]] = [[] for _ in shape]

    def candidates(r: int, c: int) -> Iterator[Entry]:
        # r, c are 1-based; the cell's row list index is c - r.
        left = rows[r - 1][c - r - 1] if c > r else None
        below = None
        if r > 1:
            below_row = rows[r - 2]
            start = r - 1
            if start <= c < start + shape[r - 2]:
                below = below_row[c - start]
        for v in range(1, n + 1):
            for marked in (True, False):
                e = Entry(v, marked)
                if marked and r == c:
                    continue
                if left is not None:
                    if left > e or (left == e and e.marked):
                        continue
                if below is not None:
                    if below > e or (below == e and not e.marked):
                        continue
                yield e

    def fill(r: int, c: int) -> None:
        if r > len(shape):
            _keep(results, ShiftedTableau(shape, tuple(tuple(row) for row in rows)), limit)
            return
        end = r + shape[r - 1] - 1
        if c > end:
            fill(r + 1, r + 1)
            return
        for e in candidates(r, c):
            rows[r - 1].append(e)
            fill(r, c + 1)
            rows[r - 1].pop()

    fill(1, 1)
    results.sort(key=_word_sort_key)
    return results
