"""Ready-made crystal graphs: the standard crystals and the tableau crystals.

A tableau crystal's vertices are all tableaux of its shape, so each
constructor enumerates them once and adds the edge ``t -> f(t)`` for every
lowering operator ``f`` defined at ``t``.  Raising operators are the inverse
moves and add no edge.  Vertex ids are the canonical tableau text.

:class:`QueerTableauCrystal` is the queer crystal of a shape without the
graph: it moves tableaux through the operators only when asked, for a
:class:`~crystals.graph.TensorView` factor.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, Sequence

from . import pairing, queer, shifted, young
from .config import Config, DEFAULT_CONFIG
from .errors import ClosureBudgetExceeded, ValueOutOfRange
from .graph import Color, CrystalGraph, Vertex, Weight
from .shifted import enumerate_yamanouchi
from .tableaux import (
    ShiftedTableau,
    Tableau,
    enumerate_ssht,
    enumerate_ssyt,
    hook_reading_word,
    render_tableau,
    weight,
)


def standard_graph(n: int, config: Config | None = None) -> CrystalGraph:
    """The standard crystal: vertices ``1..n``, color ``i`` edge ``i -> i+1``.

    Raises:
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: ``n`` is more than ``config.max_vertices``;
            checked before any vertex is made.
    """
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")
    limit = (config or DEFAULT_CONFIG).max_vertices
    if n > limit:
        raise ClosureBudgetExceeded(
            f"standard crystal of {n} vertices exceeds {limit} vertices"
        )
    vertices = [
        Vertex(str(v), str(v), tuple(1 if j == v - 1 else 0 for j in range(n)))
        for v in range(1, n + 1)
    ]
    edges = [(str(i), i, str(i + 1)) for i in range(1, n)]
    return CrystalGraph(n, vertices, edges)


def queer_standard_graph(n: int, config: Config | None = None) -> CrystalGraph:
    """The standard crystal plus the queer edge ``1 -> 2`` of color 0.

    Raises:
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: ``n`` is more than ``config.max_vertices``.
    """
    base = standard_graph(n, config)
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
    _check_queer_alphabet(n)
    lowerings = [(0, queer.f0), *_even_lowerings(shifted, n)]
    return _tableau_graph(enumerate_ssht, shape, n, lowerings, config)


def _check_queer_alphabet(n: int) -> None:
    if n < 2:
        raise ValueOutOfRange(
            f"queer crystal needs an alphabet of at least 2, got {n}"
        )


class _Memo(dict):
    """A dict that computes a missing value once, on its first read."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class QueerTableauCrystal:
    """The queer crystal of strict ``shape`` over ``1..n``, read on demand.

    Offers the factor protocol of :class:`~crystals.graph.TensorView` and
    builds no graph.  A vertex id is the index of a tableau in the order
    the crystal first met it; each move and string length is computed from
    the tableau operators the first time it is read and remembered.  The
    hook reading word is read once per tableau for the raising strings of
    every color, and ``phi_i`` is ``eps_i + wt_i - wt_{i+1}``.
    ``even_highest_weights`` is the Yamanouchi enumeration, and
    ``vertex_ids`` enumerates every tableau on first use.

    Raises:
        ValueOutOfRange: ``n < 2`` (the 0-move writes the value 2).
        ShapeMismatch: ``shape`` is not a strict partition; raised by the
            first enumeration.
        ClosureBudgetExceeded: An enumeration passed ``config.max_vertices``
            tableaux.
    """

    def __init__(
        self, shape: Sequence[int], n: int, config: Config | None = None
    ) -> None:
        _check_queer_alphabet(n)
        self.n = n
        self.shape = tuple(shape)
        self.colors: tuple[Color, ...] = tuple(range(n))
        self._limit = (config or DEFAULT_CONFIG).max_vertices
        self._vertex_ids: list[int] | None = None
        self._tableaux: list[ShiftedTableau] = []
        self._weights: list[Weight] = []
        self._ids: dict[ShiftedTableau, int] = {}
        tableau = self._tableaux.__getitem__
        weights = self._weights
        # Operators are looked up on their modules at each call, as in the
        # graph builders.
        self._down = {0: _Memo(lambda v: self._id(queer.f0(tableau(v))))}
        self._up = {0: _Memo(lambda v: self._id(queer.e0(tableau(v))))}
        self._phi: dict[Color, _Memo] = {}
        self._eps: dict[Color, _Memo] = {}
        word = _Memo(lambda v: hook_reading_word(tableau(v)))
        for i in range(1, n):
            self._down[i] = _Memo(lambda v, i=i: self._id(shifted.lower(tableau(v), i)))
            self._up[i] = _Memo(lambda v, i=i: self._id(shifted.raise_(tableau(v), i)))
            eps = self._eps[i] = _Memo(lambda v, i=i: pairing.eps_i(word[v], i))
            self._phi[i] = _Memo(
                lambda v, i=i, eps=eps: eps[v] + weights[v][i - 1] - weights[v][i]
            )

    def _id(self, t: ShiftedTableau | None) -> int | None:
        if t is None:
            return None
        vid = self._ids.get(t)
        if vid is None:
            vid = self._ids[t] = len(self._tableaux)
            self._tableaux.append(t)
            self._weights.append(weight(t, self.n))
        return vid

    @property
    def vertex_ids(self) -> list[int]:
        if self._vertex_ids is None:
            tableaux = enumerate_ssht(self.shape, self.n, limit=self._limit)
            self._vertex_ids = [self._id(t) for t in tableaux]
        return self._vertex_ids

    def even_highest_weights(self) -> list[int]:
        tableaux = enumerate_yamanouchi(self.shape, self.n, limit=self._limit)
        return [self._id(t) for t in tableaux]

    def weight_of(self, vid: int) -> Weight:
        return self._weights[vid]

    def payload_of(self, vid: int) -> str:
        return render_tableau(self._tableaux[vid])

    def out_edge(self, vid: int, color: Color) -> int | None:
        moves = self._down.get(color)
        return None if moves is None else moves[vid]

    def in_edge(self, vid: int, color: Color) -> int | None:
        moves = self._up.get(color)
        return None if moves is None else moves[vid]

    def string_maps(self, color: Color) -> tuple[_Memo, _Memo]:
        return self._phi[color], self._eps[color]
