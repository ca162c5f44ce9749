"""Ready-made crystal graphs: the standard crystals and the tableau crystals.

A tableau crystal's vertices are all tableaux of its shape, so each
constructor enumerates them once, in the order they are filled, and adds
the edge ``t -> f(t)`` for every lowering operator ``f`` defined at ``t``.
Raising operators are the inverse moves and add no edge.  Vertex ids are
the canonical tableau text.  The builder runs on packed tableaux
(:mod:`crystals.tableaux`), reads lowering cells and weight off one
:func:`~crystals.pairing.string_scan` per tableau, calls the shifted operator
bodies (which lower Young tableaux too) on codes and hands each edge to
``CrystalGraph._indexed`` as its target's index.

:class:`QueerTableauCrystal` is the queer crystal of a shape without the
graph: it checks its shape and alphabet when constructed, and offers the
row members of a :class:`~crystals.graph.TensorView` factor, numbering
tableaux as it meets them and moving a row only when it is read.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

from . import queer
from .config import Config, DEFAULT_CONFIG
from .errors import ClosureBudgetExceeded, ValueOutOfRange
from .graph import Color, CrystalGraph, Vertex, Weight
from .pairing import raising_cells, string_scan
from .shifted import ballot_codes, lower_at, raise_at
from .tableaux import (
    _check_alphabet,
    _check_enumeration,
    _Memo,
    checked_geometry,
    enumerate_codes,
    render_codes,
    weight_codes,
)


def _standard_graph(n: int, config: Config | None, queer_edge: bool) -> CrystalGraph:
    """:func:`standard_graph`, plus the edge ``1 -> 2`` of color 0 if ``queer_edge``."""
    _check_alphabet(n)
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
    if queer_edge:
        edges.append(("1", 0, "2"))
    return CrystalGraph(n, vertices, edges)


def standard_graph(n: int, config: Config | None = None) -> CrystalGraph:
    """The standard crystal: vertices ``1..n``, color ``i`` edge ``i -> i+1``.

    Raises:
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: ``n`` is more than ``config.max_vertices``;
            checked before any vertex is made.
    """
    return _standard_graph(n, config, queer_edge=False)


def queer_standard_graph(n: int, config: Config | None = None) -> CrystalGraph:
    """The standard crystal plus the queer edge ``1 -> 2`` of color 0.

    Raises:
        ValueOutOfRange: ``n < 2`` (the 0-edge ends at 2).
        ClosureBudgetExceeded: ``n`` is more than ``config.max_vertices``.
    """
    _check_queer_alphabet(n)
    return _standard_graph(n, config, queer_edge=True)


def _tableau_graph(
    shifted_shape: bool,
    shape: Sequence[int],
    n: int,
    config: Config | None,
    queer_move: bool = False,
) -> CrystalGraph:
    """The graph on all tableaux of ``shape`` with an edge ``t -> f_i(t)`` for
    each color ``1..n-1`` where ``f_i`` is defined, and ``t -> f0(t)`` too
    when ``queer_move`` is set.

    Works on packed codes in the order they are enumerated: each tableau is
    rendered once as its id, one forward pass over its reading word gives
    the lowering cell of every color and the weight, and each target's
    index is looked up by its codes as the color is lowered.

    Raises:
        ShapeMismatch: ``shape`` is not a (strict) partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux,
            refused by their count before any is filled.
        ParseError: Some ``f(t)`` is not an enumerated tableau, that is, the
            enumeration is not closed under lowering; ``CrystalGraph`` refuses it.
    """
    config = config or DEFAULT_CONFIG
    g = checked_geometry(shape, n, shifted_shape)
    tableaux = enumerate_codes(g, n, config.max_vertices)
    index = {codes: k for k, codes in enumerate(tableaux)}
    down = {i: [-1] * len(tableaux) for i in range(0 if queer_move else 1, n)}
    rows = [(i, down[i]) for i in range(1, n)]
    strays = []  # lowerings that leave the enumeration
    weights = []
    for k, codes in enumerate(tableaux):
        _, balance, cells = string_scan(codes, g.reading, n)
        weights.append(tuple(accumulate(balance[n:0:-1]))[::-1])
        for i, row in rows:
            if cells[i] >= 0:
                row[k] = t = index.get(moved := lower_at(codes, g, i, cells[i]), -1)
                if t < 0:
                    strays.append((k, i, render_codes(moved, g)))
        if queer_move and (moved := queer.f0_codes(codes)) is not None:
            down[0][k] = t = index.get(moved, -1)
            if t < 0:
                strays.append((k, 0, render_codes(moved, g)))
    ids = [render_codes(codes, g) for codes in tableaux]
    return CrystalGraph._indexed(n, ids, ids, weights, down, strays)


def young_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Crystal on all semistandard Young tableaux of ``shape`` with values <= n.

    Raises:
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux.
    """
    return _tableau_graph(False, shape, n, config)


def shifted_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Crystal on all semistandard shifted tableaux of strict ``shape``.

    Raises:
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux.
    """
    return _tableau_graph(True, shape, n, config)


def queer_graph(
    shape: Sequence[int], n: int, config: Config | None = None
) -> CrystalGraph:
    """Shifted crystal extended by the queer 0-move.

    Raises:
        ValueOutOfRange: ``n < 2`` (the 0-move writes the value 2).
        ClosureBudgetExceeded: More than ``config.max_vertices`` tableaux.
    """
    _check_queer_alphabet(n)
    return _tableau_graph(True, shape, n, config, queer_move=True)


def _check_queer_alphabet(n: int) -> None:
    if n < 2:
        raise ValueOutOfRange(
            f"queer crystal needs an alphabet of at least 2, got {n}"
        )


class QueerTableauCrystal:
    """The queer crystal of strict ``shape`` over ``1..n``, read on demand.

    Offers the row members of a :class:`~crystals.graph.TensorView` factor
    and builds no graph.  A row is the index of a packed tableau in the
    order the crystal first met it.  Each row's move of a color in ``down``
    or ``up`` (``-1`` for none), its string lengths in
    :meth:`string_lengths` and its text in ``payloads`` are computed from
    the packed operators the first time they are read and remembered.  A
    tableau's reading word is scanned once for the string lengths and
    lowering cells of every color, and its dual word once, on its first
    raising move, for the raising cells
    (:func:`~crystals.pairing.raising_cells`).  :meth:`rows_within` fills
    only the tableaux whose raising strings keep within given bounds, with
    the one fill :func:`~crystals.shifted.ballot_codes`.

    Raises:
        ValueOutOfRange: ``n < 2`` (the 0-move writes the value 2).
        ShapeMismatch: ``shape`` is not a strict partition; raised by the
            constructor.
        ClosureBudgetExceeded: :meth:`rows_within` filled, or was asked to
            fill, more than ``config.max_vertices`` tableaux.
    """

    def __init__(
        self, shape: Sequence[int], n: int, config: Config | None = None
    ) -> None:
        _check_queer_alphabet(n)
        g = self._geometry = checked_geometry(shape, n, True)
        self.n = n
        self.colors: tuple[Color, ...] = tuple(range(n))
        self._limit = (config or DEFAULT_CONFIG).max_vertices
        # The memos close over these and the geometry, not the crystal: no cycle.
        met: list[tuple[int, ...]] = []
        rows: dict[tuple[int, ...], int] = {}
        weights: list[Weight] = []
        self.weights = weights
        codes = met.__getitem__

        def row(found: tuple[int, ...] | None) -> int:
            """The row of ``found``, a new one the first time; ``-1`` for ``None``."""
            if found is None:
                return -1
            index = rows.get(found)
            if index is None:
                index = rows[found] = len(met)
                met.append(found)
                weights.append(weight_codes(found, n))
            return index

        self._row = row
        self.payloads = _Memo(lambda v: render_codes(codes(v), g))
        scan = _Memo(lambda v: string_scan(codes(v), g.reading, n))
        raising = _Memo(lambda v: raising_cells(codes(v), g.reading, n))

        def move(op: Callable, v: int, i: int, cell: int) -> int:
            return -1 if cell < 0 else row(op(codes(v), g, i, cell))

        self.down = {0: _Memo(lambda v: row(queer.f0_codes(codes(v))))}
        self.up = {0: _Memo(lambda v: row(queer.e0_codes(codes(v))))}
        self._strings: dict[Color, tuple[_Memo, _Memo]] = {}
        for i in range(1, n):
            self.down[i] = _Memo(lambda v, i=i: move(lower_at, v, i, scan[v][2][i]))
            self.up[i] = _Memo(lambda v, i=i: move(raise_at, v, i, raising[v][i]))
            self._strings[i] = (_Memo(lambda v, i=i: scan[v][0][i]),
                                _Memo(lambda v, i=i: scan[v][0][i] - scan[v][1][i]))

    def rows_within(self, bounds: dict[Color, int]) -> list[int]:
        """Rows ``b`` with ``eps_i(b) <= bounds[i]`` for every color ``i`` in ``1..n-1``.

        Raises:
            ClosureBudgetExceeded: With some bound above 0, before any fill, by the rule
                of a full enumeration (:func:`~crystals.tableaux._check_enumeration`);
                with every bound 0, as the fill passes the budget.
        """
        g, n, limit = self._geometry, self.n, self._limit
        within = [bounds[i] for i in range(1, n)]
        if any(within):
            _check_enumeration(g, n, limit)
        return [*map(self._row, ballot_codes(g, n, within, limit))]

    def string_lengths(self, color: Color) -> tuple[_Memo, _Memo]:
        return self._strings[color]
