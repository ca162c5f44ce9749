"""Counts and parsers that do not run the code under test.

The expected-answer tables are produced by running the library once; these
helpers check those answers against identities computed from first
principles: the hook-content formula for ordinary tableaux, a direct filling
count for shifted tableaux, and evaluation of character identities at
``x_1 = ... = x_m = 1``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

Shape = tuple[int, ...]


def partitions(k: int, largest: int | None = None, strict: bool = False) -> Iterator[Shape]:
    """Partitions of ``k`` in decreasing lexicographic order."""
    if k == 0:
        yield ()
        return
    largest = k if largest is None else largest
    for part in range(min(k, largest), 0, -1):
        for rest in partitions(k - part, part - 1 if strict else part, strict):
            yield (part,) + rest


def ssyt_count(shape: Shape, m: int) -> int:
    """Number of semistandard Young tableaux of ``shape`` with entries <= m.

    Hook-content formula: the product of ``m + content`` over the product of
    hook lengths.
    """
    conjugate = [sum(1 for part in shape if part > c) for c in range(shape[0] if shape else 0)]
    numerator = denominator = 1
    for r, part in enumerate(shape):
        for c in range(part):
            numerator *= m + c - r
            denominator *= (part - c - 1) + (conjugate[c] - r - 1) + 1
    return numerator // denominator


@lru_cache(maxsize=None)
def ssht_count(shape: Shape, m: int) -> int:
    """Number of semistandard shifted tableaux of strict ``shape``, entries <= m.

    Letters ``1' < 1 < ... < m' < m`` are coded ``1 .. 2m`` (odd = primed).
    Rows and columns weakly increase, a primed letter repeats in no row, an
    unprimed letter repeats in no column, and diagonal cells are unprimed.
    Row ``r`` (0-based) covers columns ``r .. r + shape[r] - 1``.
    """
    cells = [(r, c) for r, part in enumerate(shape) for c in range(r, r + part)]
    filling: dict[tuple[int, int], int] = {}

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        left = filling.get((r, c - 1))
        above = filling.get((r - 1, c))
        total = 0
        for code in range(1, 2 * m + 1):
            primed = code % 2 == 1
            if primed and r == c:
                continue
            if left is not None and (code < left or (code == left and primed)):
                continue
            if above is not None and (code < above or (code == above and not primed)):
                continue
            filling[(r, c)] = code
            total += fill(k + 1)
            del filling[(r, c)]
        return total

    return fill(0)


_TERM = re.compile(r"^(?:(\d+)\*)?([sP])\[([\d,]+)\]$")


def parse_expansion(text: str, basis: str) -> dict[Shape, int]:
    """Parse ``"s[3,1] + 2*s[2,2]"`` (or ``"0"``) into ``{shape: coefficient}``."""
    text = text.strip()
    if text == "0":
        return {}
    result: dict[Shape, int] = {}
    for term in text.split(" + "):
        match = _TERM.match(term)
        if match is None or match.group(2) != basis:
            raise ValueError(f"unparsable expansion term {term!r}")
        shape = tuple(int(p) for p in match.group(3).split(","))
        result[shape] = result.get(shape, 0) + int(match.group(1) or 1)
    return result


def polynomial_at_ones(text: str) -> int:
    """Value of a rendered polynomial like ``"x1^2*x2 + 2*x1*x2*x3"`` at all ones."""
    text = text.strip()
    if text == "0":
        return 0
    total = 0
    for term in text.split(" + "):
        head = term.split("*", 1)[0]
        total += int(head) if head.isdigit() else 1
    return total


def tableau_weight(text: str) -> Shape:
    """Weight of a rendered tableau like ``[[1,1,3'],[2]]``, zeros stripped."""
    counts: dict[int, int] = {}
    for value in re.findall(r"(\d+)'?", text):
        counts[int(value)] = counts.get(int(value), 0) + 1
    top = max(counts, default=0)
    weight = [counts.get(v, 0) for v in range(1, top + 1)]
    while weight and weight[-1] == 0:
        weight.pop()
    return tuple(weight)
