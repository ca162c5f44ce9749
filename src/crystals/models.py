"""Ready-made crystal graphs: the standard crystals and the tableau crystals.

Each constructor closes the full tableau enumeration under the relevant
operators, so the resulting graph is simultaneously the enumeration and the
operator action.  Vertex ids are the canonical tableau text.
"""

from __future__ import annotations

from typing import Sequence

from . import queer, shifted, young
from .config import Config
from .errors import ValueOutOfRange
from .graph import CrystalGraph, OperatorPair, Vertex, build_graph
from .tableaux import (
    ShiftedTableau,
    YoungTableau,
    enumerate_ssht,
    enumerate_ssyt,
    render_tableau,
    weight,
)


def standard_graph(n: int) -> CrystalGraph:
    """The standard crystal: vertices ``1..n``, color ``i`` edge ``i -> i+1``."""
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")
    vertices = [
        Vertex(str(v), str(v), tuple(1 if j == v - 1 else 0 for j in range(n)))
        for v in range(1, n + 1)
    ]
    edges = [(str(i), i, str(i + 1)) for i in range(1, n)]
    return CrystalGraph(n, vertices, edges)


def queer_standard_graph(n: int) -> CrystalGraph:
    """The standard crystal plus the queer edge ``1 -> 2`` of color 0."""
    base = standard_graph(n)
    edges = list(base.edges)
    if n >= 2:
        edges.append(("1", 0, "2"))
    return CrystalGraph(n, base.vertices.values(), edges)


def _young_operators(n: int) -> dict[int, OperatorPair]:
    return {
        i: (
            lambda t, i=i: young.lower(t, i),
            lambda t, i=i: young.raise_(t, i),
        )
        for i in range(1, n)
    }


def _shifted_operators(n: int) -> dict[int, OperatorPair]:
    return {
        i: (
            lambda t, i=i: shifted.lower(t, i),
            lambda t, i=i: shifted.raise_(t, i),
        )
        for i in range(1, n)
    }


def young_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Crystal on all semistandard Young tableaux of ``shape`` with values <= n."""
    seeds = enumerate_ssyt(shape, n)
    return build_graph(
        seeds,
        _young_operators(n),
        n,
        serialize=render_tableau,
        weight_of=lambda t: weight(t, n),
        config=config,
    )


def shifted_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Crystal on all semistandard shifted tableaux of strict ``shape``."""
    seeds = enumerate_ssht(shape, n)
    return build_graph(
        seeds,
        _shifted_operators(n),
        n,
        serialize=render_tableau,
        weight_of=lambda t: weight(t, n),
        config=config,
    )


def queer_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Shifted crystal extended by the queer 0-move.

    Raises:
        ValueOutOfRange: ``n < 2`` (the 0-move writes the value 2).
    """
    if n < 2:
        raise ValueOutOfRange(
            f"queer crystal needs an alphabet of at least 2, got {n}"
        )
    operators = _shifted_operators(n)
    operators[0] = (queer.f0, queer.e0)
    seeds = enumerate_ssht(shape, n)
    return build_graph(
        seeds,
        operators,
        n,
        serialize=render_tableau,
        weight_of=lambda t: weight(t, n),
        config=config,
    )
