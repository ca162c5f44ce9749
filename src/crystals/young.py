"""Raising and lowering operators on semistandard Young tableaux.

The lowering operator ``f_i`` turns the ``i`` at the first position of the
row reading word attaining the maximal prefix statistic into an ``i + 1``;
the raising operator ``e_i`` inverts it.  These are the shifted operators
(:mod:`crystals.shifted`) on a filling without marks: there the cell the
scan picks never has an ``i + 1`` north of it (lowering) or an ``i`` south
of it (raising), so only the cases that change one letter fire.  The string
lengths are the shifted ones too.
"""

from __future__ import annotations

from . import shifted
from .tableaux import YoungTableau

phi, eps = shifted.phi, shifted.eps


# Functions of their own, not aliases: perfbench/tracer.py probes these and the
# shifted pair apart, and one object under two probes files one's calls as the other's.
def lower(t: YoungTableau, i: int) -> YoungTableau | None:
    """Apply ``f_i``: change one ``i`` to ``i + 1``, or return ``None``."""
    return shifted.lower(t, i)


def raise_(t: YoungTableau, i: int) -> YoungTableau | None:
    """Apply ``e_i``: change one ``i + 1`` to ``i``, or return ``None``."""
    return shifted.raise_(t, i)
