"""Brute-force oracles used to cross-check the library's fast implementations.

Everything here is deliberately naive and independent of the code under test:

* prefix/suffix letter statistics recomputed from scratch for every prefix,
* bracket cancellation by repeated scanning instead of a one-pass stack,
* string lengths measured by literally applying an operator until it fails,
* highest-weight tableaux found by filtering a full enumeration, or by
  filtering the product of every admissible row profile,
* basis expansion by greedy leading-term subtraction of known polynomials,
* partition generators built on itertools-style recursion.

Tests import these oracles and assert agreement with the library; none of the
functions below are used by the package itself.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

from crystals import CrystalError, SparsePolynomial, enumerate_ssht, schur_p
from crystals.shifted import eps as shifted_eps
from crystals.tableaux import (
    Entry,
    ShiftedTableau,
    Word,
    hook_reading_cells,
    validate_shifted,
)

T = TypeVar("T")


def brute_prefix_statistic(word: Word, i: int, r: int) -> int:
    """Count value-``i`` letters minus value-``i + 1`` letters among the first ``r``."""
    prefix = list(word)[:r]
    return sum(1 for e in prefix if e.value == i) - sum(
        1 for e in prefix if e.value == i + 1
    )


def brute_max_prefix_statistic(word: Word, i: int) -> int:
    """Maximum of :func:`brute_prefix_statistic` over every prefix length."""
    return max(brute_prefix_statistic(word, i, r) for r in range(len(word) + 1))


def brute_suffix_statistic(word: Word, i: int) -> int:
    """Maximum over suffixes of the count of ``i + 1`` minus the count of ``i``."""
    best = 0
    for r in range(len(word) + 1):
        suffix = list(word)[r:]
        surplus = sum(1 for e in suffix if e.value == i + 1) - sum(
            1 for e in suffix if e.value == i
        )
        best = max(best, surplus)
    return best


def brute_first_max(word: Word, i: int) -> int:
    """Smallest prefix length attaining the maximum prefix statistic."""
    best = brute_max_prefix_statistic(word, i)
    for r in range(len(word) + 1):
        if brute_prefix_statistic(word, i, r) == best:
            return r
    raise AssertionError("maximum not attained by any prefix")


def brute_last_max(word: Word, i: int) -> int:
    """Largest prefix length attaining the maximum prefix statistic."""
    best = brute_max_prefix_statistic(word, i)
    for r in range(len(word), -1, -1):
        if brute_prefix_statistic(word, i, r) == best:
            return r
    raise AssertionError("maximum not attained by any prefix")


def brute_cancel_pairs(
    word: Word, i: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """Match ``i + 1`` letters with later ``i`` letters by repeated cancellation.

    Scans for a value-``i + 1`` letter immediately followed (among the still
    unmatched letters of values ``i`` and ``i + 1``) by a value-``i`` letter,
    removes the pair, and repeats until no such adjacency remains.  Returns
    ``(pairs, free_low_positions, free_high_positions)`` with 1-based
    positions, mirroring :class:`crystals.PairingResult`.
    """
    active = [
        (pos, e.value) for pos, e in enumerate(word, start=1) if e.value in (i, i + 1)
    ]
    pairs: list[tuple[int, int]] = []
    while True:
        hit = next(
            (
                k
                for k in range(len(active) - 1)
                if active[k][1] == i + 1 and active[k + 1][1] == i
            ),
            None,
        )
        if hit is None:
            break
        pairs.append((active[hit][0], active[hit + 1][0]))
        del active[hit : hit + 2]
    free_low = tuple(pos for pos, v in active if v == i)
    free_high = tuple(pos for pos, v in active if v == i + 1)
    return tuple(sorted(pairs)), free_low, free_high


def apply_until_none(start: T, step: Callable[[T, int], T | None], i: int) -> int:
    """Number of times ``step(x, i)`` succeeds starting from ``start``."""
    count = 0
    current: T | None = start
    while True:
        current = step(current, i)
        if current is None:
            return count
        count += 1
        if count > 10_000:  # pragma: no cover - guards a runaway operator
            raise AssertionError("operator applied more than 10000 times")


def brute_yamanouchi(shape: Sequence[int], n: int) -> list[ShiftedTableau]:
    """Tableaux of the given shape on which every raising operator vanishes.

    Filters the full enumeration by the suffix statistic, independently of the
    structural generator in the package.
    """
    return [
        t
        for t in enumerate_ssht(shape, n)
        if all(shifted_eps(t, i) == 0 for i in range(1, n))
    ]


def profile_yamanouchi(shape: Sequence[int], n: int) -> list[ShiftedTableau]:
    """Yamanouchi tableaux in the package's order, from the row-profile product.

    Row ``r`` of such a tableau is a run of unmarked ``r`` followed by strictly
    increasing marked values larger than ``r``.  Every combination of such
    rows is tried, and kept when it is a valid filling on which every raising
    operator vanishes.  The result is ordered lexicographically by hook
    reading word.
    """
    shape = tuple(shape)
    if not shape:
        return [ShiftedTableau((), ())]
    row_options: list[list[tuple[Entry, ...]]] = []
    for r, length in enumerate(shape, start=1):
        options: list[tuple[Entry, ...]] = []
        for run in range(1, length + 1):
            for combo in itertools.combinations(range(r + 1, n + 1), length - run):
                options.append(
                    tuple([Entry(r)] * run) + tuple(Entry(v, True) for v in combo)
                )
        row_options.append(options)

    results: list[ShiftedTableau] = []
    for rows in itertools.product(*row_options):
        try:
            t = validate_shifted(shape, rows, n)
        except CrystalError:
            continue
        if all(shifted_eps(t, i) == 0 for i in range(1, n)):
            results.append(t)
    results.sort(key=lambda t: tuple(e.sort_key for _, e in hook_reading_cells(t)))
    return results


def _strip_trailing_zeros(exponent: Sequence[int]) -> tuple[int, ...]:
    values = list(exponent)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def greedy_p_expansion(poly: SparsePolynomial) -> dict[tuple[int, ...], int]:
    """Expand a polynomial over the shifted basis by leading-term subtraction.

    Repeatedly takes the lexicographically greatest exponent with a nonzero
    coefficient, checks that it is a strict partition with a positive
    coefficient, subtracts that multiple of the corresponding basis
    polynomial, and records the term.  Raises ``AssertionError`` if the
    remainder ever has a leading term that is not a strict partition or a
    positive integer coefficient, or if the loop fails to terminate.
    """
    remaining = poly
    expansion: dict[tuple[int, ...], int] = {}
    for _ in range(10_000):
        exponents = [m for m, c in remaining.sorted_terms() if c]
        if not exponents:
            return expansion
        lead = max(exponents)
        coeff = remaining.coefficient(lead)
        shape = _strip_trailing_zeros(lead)
        assert all(
            a > b for a, b in zip(shape, shape[1:])
        ), f"leading exponent {lead} is not strictly decreasing"
        assert all(part > 0 for part in shape), f"leading exponent {lead} not positive"
        assert coeff > 0, f"leading coefficient {coeff} is not positive"
        expansion[shape] = expansion.get(shape, 0) + coeff
        remaining = remaining - schur_p(shape, poly.n) * coeff
    raise AssertionError("expansion did not terminate")  # pragma: no cover


def partitions(total: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing positive tuples summing to ``total``."""
    if total == 0:
        yield ()
        return
    top = total if cap is None else min(cap, total)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, first):
            yield (first, *rest)


def strict_partitions(total: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All strictly decreasing positive tuples summing to ``total``."""
    if total == 0:
        yield ()
        return
    top = total if cap is None else min(cap, total)
    for first in range(top, 0, -1):
        for rest in strict_partitions(total - first, first - 1):
            yield (first, *rest)
