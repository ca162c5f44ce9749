"""Symmetric polynomials from tableau enumerations.

Characters of the tableau families give the two polynomial bases handled
here: ordinary tableaux for ``schur`` and shifted ones for ``schur_p``.
Every enumeration here runs on packed codes (:mod:`crystals.tableaux`) and
counts their weights, so no :class:`~crystals.tableaux.Entry` tableau is
built.  Basis changes are computed combinatorially — the shifted-to-ordinary
expansion by filling the tableaux with vanishing raising strings, and
products of the shifted basis by counting the queer highest weights of
``B(gamma) ⊗ B(delta)``.  No graph is built for a product, neither the
tensor product nor its factors: the Yamanouchi tableaux of the larger shape
paired with the tableaux of the smaller one that they admit, filled for each
one's weight, are searched through a lazy view of the product whose factors
move tableaux with the operators on demand.  Both fills are
:func:`~crystals.shifted.ballot_codes`.  A full enumeration, or that fill with
a bound above 0, is refused past ``config.max_vertices`` tableaux by their
count; the fill at bounds 0 stops there.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .config import DEFAULT_CONFIG, Config
from .errors import DimensionMismatch, ShapeMismatch, ValueOutOfRange
from .graph import TensorView
from .models import QueerTableauCrystal
from .poly import SparsePolynomial
from .queer import queer_highest_weights
from .shifted import ballot_codes
from .tableaux import (
    checked_geometry,
    enumerate_codes,
    is_strict_partition,
    weight_codes,
)

Partition = tuple[int, ...]
Expansion = dict[Partition, int]


def _strip(values: Sequence[int]) -> Partition:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _character(
    shape: Sequence[int], n: int, config: Config | None, shifted: bool
) -> SparsePolynomial:
    """Sum of ``x^weight`` over the packed tableaux of ``shape`` in 1..n."""
    g = checked_geometry(shape, n, shifted)
    tableaux = enumerate_codes(g, n, (config or DEFAULT_CONFIG).max_vertices)
    return SparsePolynomial.from_weights(n, (weight_codes(c, n) for c in tableaux))


def schur(
    shape: Sequence[int], n: int, config: Config | None = None
) -> SparsePolynomial:
    """Sum of ``x^weight`` over ordinary tableaux of ``shape`` in 1..n.

    Identically zero when ``shape`` has more than ``n`` rows.

    Raises:
        ShapeMismatch: ``shape`` is not a partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``config.max_vertices``
            tableaux, counted before any is filled.
    """
    return _character(shape, n, config, shifted=False)


def schur_p(
    shape: Sequence[int], n: int, config: Config | None = None
) -> SparsePolynomial:
    """Sum of ``x^weight`` over shifted tableaux of strict ``shape`` in 1..n.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``config.max_vertices``
            tableaux, counted before any is filled.
    """
    return _character(shape, n, config, shifted=True)


def schur_p_to_schur(
    shape: Sequence[int], n: int | None = None, config: Config | None = None
) -> Expansion:
    """Expand one shifted-basis element over the ordinary basis.

    Coefficients count the tableaux of ``shape`` with vanishing raising
    strings, grouped by weight; every coefficient is a positive integer and
    the weights are partitions of ``sum(shape)``.  The count is complete
    over the full alphabet.  Pass ``n`` to assert the expansion stays
    faithful in ``n`` variables.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        DimensionMismatch: some term needs more than ``n`` rows, so an
            ``n``-variable rendering would silently drop it.
        ClosureBudgetExceeded: more than ``config.max_vertices`` tableaux
            have vanishing raising strings.
    """
    alphabet = max(sum(shape), 1)
    g = checked_geometry(shape, alphabet, shifted=True)
    limit = (config or DEFAULT_CONFIG).max_vertices
    counts: Counter[Partition] = Counter()
    for codes in ballot_codes(g, alphabet, limit=limit):
        counts[_strip(weight_codes(codes, alphabet))] += 1
    if n is not None:
        for lam in counts:
            if len(lam) > n:
                raise DimensionMismatch(
                    f"expansion term {lam} has {len(lam)} rows and cannot be "
                    f"rendered faithfully in {n} variables"
                )
    return dict(counts)


def product_expand(
    gamma: Sequence[int],
    delta: Sequence[int],
    n: int,
    config: Config | None = None,
) -> Expansion:
    """Structure constants of a product in the shifted basis.

    Counts the queer highest weights of ``B(gamma) ⊗ B(delta)`` over an
    ``n``-letter alphabet, grouped by weight.  With ``n`` at least
    ``sum(gamma) + sum(delta)`` the counts expand the product completely, so
    a larger ``n`` is searched as that sum (or 2, the smallest queer
    alphabet), and its cost does not grow with ``n``.

    No graph is built.  The product commutes, so the shape with more cells
    is put on the left.  Both factors are
    :class:`~crystals.models.QueerTableauCrystal`, whose rows are its
    tableaux: the even highest weights of the product are the rows of the
    Yamanouchi tableaux ``b1`` of the left shape paired with the rows ``b2``
    of the right shape with ``eps_i(b2) <= phi_i(b1)``, and the odd
    reflection walks from each of them move tableaux through the operators,
    each move computed once.  One fill, :func:`~crystals.shifted.ballot_codes`,
    finds the left rows at bounds 0 and the right rows once per weight of the
    left ones, as tableaux whose reading words are ballot words started at
    that weight, so no factor is enumerated.  The cost is about the number of
    those candidate pairs plus the fill's dead ends and the walks, not
    ``|B(delta)|``, ``|B(gamma)|`` or their product.

    Raises:
        ShapeMismatch: either shape is not a strict partition.
        ValueOutOfRange: ``n`` is smaller than 2.
        ClosureBudgetExceeded: the Yamanouchi tableaux of the left shape, or
            the tableaux of the right shape, number more than
            ``config.max_vertices``; the fill of the first stops there, and the
            second are counted before any is filled, as a full enumeration's
            are (:func:`~crystals.tableaux._check_enumeration`).
    """
    for shape in (gamma, delta):
        if not is_strict_partition(tuple(shape)):
            raise ShapeMismatch(f"{tuple(shape)} is not a strict partition")
    n = min(n, max(sum(gamma) + sum(delta), 2))
    if sum(delta) > sum(gamma):
        gamma, delta = delta, gamma
    product = TensorView(
        QueerTableauCrystal(gamma, n, config),
        QueerTableauCrystal(delta, n, config),
        queer=True,
    )
    counts: Counter[Partition] = Counter()
    for pair in queer_highest_weights(product):
        counts[_strip(product.weight_of(pair))] += 1
    return dict(counts)


def is_staircase(shape: Sequence[int]) -> bool:
    """True iff ``shape`` is ``(k, k-1, ..., 2, 1)`` for some ``k >= 0``."""
    shape = tuple(shape)
    return shape == tuple(range(len(shape), 0, -1))


def staircase_check(k: int, n: int) -> bool:
    """Whether the staircase shape ``(k-1, ..., 1)`` has equal characters.

    Compares the shifted-basis and ordinary-basis polynomials for the
    staircase in ``n`` variables.

    Raises:
        ValueOutOfRange: ``k`` is smaller than 2, or ``n`` is not positive.
    """
    if k < 2:
        raise ValueOutOfRange(f"staircase comparison needs k >= 2, got {k}")
    gamma = tuple(range(k - 1, 0, -1))
    return schur_p(gamma, n) == schur(gamma, n)


def render_expansion(expansion: Expansion, basis: str = "s") -> str:
    """Render ``{partition: coefficient}`` as e.g. ``"s[3,1] + 2*s[2,2]"``.

    Terms are ordered by decreasing partition in lexicographic order; a unit
    coefficient is left implicit; an empty expansion renders as ``"0"``.
    """
    if not expansion:
        return "0"
    parts = []
    for lam in sorted(expansion, reverse=True):
        coefficient = expansion[lam]
        body = f"{basis}[{','.join(str(p) for p in lam)}]"
        parts.append(body if coefficient == 1 else f"{coefficient}*{body}")
    return " + ".join(parts)
