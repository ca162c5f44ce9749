"""Raising and lowering operators on semistandard Young tableaux.

Operators act through the row reading word: the lowering operator ``f_i`` turns
the ``i`` at the first position attaining the maximal prefix statistic into an
``i + 1``, and the raising operator ``e_i`` inverts it.  String lengths come
directly from the prefix/suffix statistics, with ``phi_i - eps_i`` equal to the
weight difference in coordinates ``i`` and ``i + 1``.

Each operator has one body on packed codes (:mod:`crystals.tableaux`):
:func:`lower_at` and :func:`raise_at` rewrite the one cell a
:func:`~crystals.pairing.string_scan` of the reading word picked.
"""

from __future__ import annotations

from .pairing import scan_tableau
from .tableaux import Geometry, YoungTableau, unpack, with_codes


def phi(t: YoungTableau, i: int) -> int:
    """Length of the lowering string at ``t`` for color ``i``."""
    return scan_tableau(t, i)[2].phi[i]


def eps(t: YoungTableau, i: int) -> int:
    """Length of the raising string at ``t`` for color ``i``."""
    return scan_tableau(t, i)[2].eps(i)


def lower(t: YoungTableau, i: int) -> YoungTableau | None:
    """Apply ``f_i``: change one ``i`` to ``i + 1``, or return ``None``."""
    codes, g, scan = scan_tableau(t, i)
    cell = scan.down[i]
    return None if cell < 0 else unpack(lower_at(codes, g, i, cell), g)


def raise_(t: YoungTableau, i: int) -> YoungTableau | None:
    """Apply ``e_i``: change one ``i + 1`` to ``i``, or return ``None``."""
    codes, g, scan = scan_tableau(t, i)
    cell = scan.up[i]
    return None if cell < 0 else unpack(raise_at(codes, g, i, cell), g)


def lower_at(codes: tuple[int, ...], g: Geometry, i: int, cell: int) -> tuple[int, ...]:
    """``f_i`` of packed ``codes`` whose first maximal prefix ends at ``cell``."""
    return with_codes(codes, cell, 2 * i + 2)


def raise_at(codes: tuple[int, ...], g: Geometry, i: int, cell: int) -> tuple[int, ...]:
    """``e_i`` of packed ``codes`` whose last maximal prefix is followed by ``cell``."""
    return with_codes(codes, cell, 2 * i)
