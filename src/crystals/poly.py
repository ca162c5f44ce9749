"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial in variables ``x1..xn`` is stored as a map from length-``n``
exponent vectors to non-zero integer coefficients.  All arithmetic is exact;
terms render in graded reverse lexicographic order, largest first, e.g.
``x1^3*x2 + 2*x1^2*x2*x3``.  The class offers what the characters and
expansions use: sums, products, coefficients, comparison and rendering.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch

Exponent = tuple[int, ...]


def _grevlex_desc_key(exponent: Exponent) -> tuple[int, tuple[int, ...]]:
    # Sorting ascending by this key lists monomials in descending grevlex
    # order: higher total degree first, ties broken by the rightmost
    # difference (smaller tail exponents first).
    return (-sum(exponent), tuple(reversed(exponent)))


class SparsePolynomial:
    """Polynomial over the integers in a fixed number of variables.

    Attributes:
        n: Number of variables.
        terms: Exponent vector -> non-zero integer coefficient.  Treated as
            immutable; arithmetic returns new polynomials.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Sequence[int], int] | None = None) -> None:
        if n < 0:
            raise DimensionMismatch(f"variable count must be non-negative, got {n}")
        self.n = n
        cleaned: dict[Exponent, int] = {}
        for exponent, coefficient in (terms or {}).items():
            key = tuple(exponent)
            if len(key) != n:
                raise DimensionMismatch(
                    f"exponent {key} has {len(key)} entries, expected {n}"
                )
            if any(e < 0 for e in key):
                raise DimensionMismatch(f"exponent {key} has a negative entry")
            if coefficient != 0:
                cleaned[key] = cleaned.get(key, 0) + coefficient
                if cleaned[key] == 0:
                    del cleaned[key]
        self.terms = cleaned

    @classmethod
    def zero(cls, n: int) -> "SparsePolynomial":
        return cls(n)

    @classmethod
    def from_weights(cls, n: int, weights: Iterable[Sequence[int]]) -> "SparsePolynomial":
        """Sum of one monomial ``x^w`` per weight vector (with multiplicity)."""
        terms: dict[Exponent, int] = {}
        for w in weights:
            key = tuple(w)
            terms[key] = terms.get(key, 0) + 1
        return cls(n, terms)

    def _require_same_n(self, other: "SparsePolynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot combine polynomials in {self.n} and {other.n} variables"
            )

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_n(other)
        terms = dict(self.terms)
        for exponent, coefficient in other.terms.items():
            terms[exponent] = terms.get(exponent, 0) + coefficient
        return SparsePolynomial(self.n, terms)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SparsePolynomial | int") -> "SparsePolynomial":
        if isinstance(other, int):
            return SparsePolynomial(
                self.n, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_n(other)
        terms: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return SparsePolynomial(self.n, terms)

    def __rmul__(self, other: int) -> "SparsePolynomial":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self.terms.get(tuple(exponent), 0)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda item: _grevlex_desc_key(item[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exponent, coefficient in self.sorted_terms():
            factors = []
            for j, power in enumerate(exponent, start=1):
                if power == 0:
                    continue
                factors.append(f"x{j}" if power == 1 else f"x{j}^{power}")
            if not factors:
                parts.append(str(coefficient))
            elif coefficient == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coefficient}*" + "*".join(factors))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparsePolynomial({self.n}, {self.terms!r})"
