"""Ready-made crystal graphs: the standard crystals and the tableau crystals.

A tableau crystal's vertices are all tableaux of its shape, so each
constructor enumerates them once and adds the edge ``t -> f(t)`` for every
lowering operator ``f`` defined at ``t``.  Raising operators are the inverse
moves and add no edge.  Vertex ids are the canonical tableau text.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, Sequence

from . import queer, shifted, young
from .config import Config, DEFAULT_CONFIG
from .errors import ValueOutOfRange
from .graph import Color, CrystalGraph, Vertex
from .tableaux import Tableau, enumerate_ssht, enumerate_ssyt, render_tableau, weight


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


def _tableau_graph(
    enumerate_: Callable[..., Sequence[Tableau]],
    shape: Sequence[int],
    n: int,
    lowerings: Sequence[tuple[Color, Callable[[Tableau], Tableau | None]]],
    config: Config | None,
) -> CrystalGraph:
    """The graph on all tableaux of ``shape`` with an edge ``t -> f(t)`` for
    each lowering ``f`` defined at ``t``.

    Raises:
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux;
            the enumeration stops at the first one past the budget.
        ParseError: Some ``f(t)`` is not an enumerated tableau, that is, the
            enumeration is not closed under lowering.
    """
    config = config or DEFAULT_CONFIG
    vertices = []
    edges = []
    for t in enumerate_(shape, n, limit=config.max_vertices):
        tid = render_tableau(t)
        vertices.append(Vertex(tid, tid, weight(t, n)))
        for color, lower in lowerings:
            target = lower(t)
            if target is not None:
                edges.append((tid, color, render_tableau(target)))
    return CrystalGraph(n, vertices, edges)


def _even_lowerings(module: ModuleType, n: int) -> list[tuple[Color, Callable]]:
    # ``module.lower`` is looked up at each call, so a rebinding of it (as the
    # benchmark tracer installs) reaches every operator call.
    return [(i, lambda t, i=i: module.lower(t, i)) for i in range(1, n)]


def young_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Crystal on all semistandard Young tableaux of ``shape`` with values <= n.

    Raises:
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux.
    """
    return _tableau_graph(enumerate_ssyt, shape, n, _even_lowerings(young, n), config)


def shifted_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Crystal on all semistandard shifted tableaux of strict ``shape``.

    Raises:
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux.
    """
    return _tableau_graph(enumerate_ssht, shape, n, _even_lowerings(shifted, n), config)


def queer_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Shifted crystal extended by the queer 0-move.

    Raises:
        ValueOutOfRange: ``n < 2`` (the 0-move writes the value 2).
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux.
    """
    if n < 2:
        raise ValueOutOfRange(
            f"queer crystal needs an alphabet of at least 2, got {n}"
        )
    lowerings = [(0, queer.f0), *_even_lowerings(shifted, n)]
    return _tableau_graph(enumerate_ssht, shape, n, lowerings, config)
