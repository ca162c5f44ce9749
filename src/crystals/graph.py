"""Colored directed graphs of lowering operators, with queries and I/O.

An edge ``(src, color, dst)`` means the color's lowering operator maps
``src`` to ``dst``; raising moves are the reversed edges.  Integer colors
``1, 2, …`` are the even operators and color ``0`` the queer operator.
Strings like ``"1p"`` label derived odd operators; no model builds them, so
they arrive only from graph files.

A :class:`CrystalGraph` numbers its vertices in sorted-id order.  Per color,
the lists ``down`` and ``up`` hold each vertex's smallest edge target and
source (``-1`` for none); the graph walks and ``out_edge``/``in_edge`` read
these lists.  Edges past one per vertex and color, which only hand-built
graphs have, are listed in the side tables ``multi_down``/``multi_up``.  The
sorted ``edges`` tuple is made on request, so a graph built from the same
vertex and edge sets in any order has the same JSON and DOT bytes; the
writers make that text a block of vertices and their out-edges at a time, so
a file is written without holding it whole.  The tableau crystals are built
in :mod:`crystals.models`; they and :func:`tensor_graphs` hand their edges
to :meth:`CrystalGraph._indexed` as per-color target indices.  Both
constructors assemble the lists in one step.

A :class:`TensorView` reads the tensor product of two crystals on demand on
pairs of factor rows, each factor a graph or any object with the graph's row
members (such as :class:`crystals.models.QueerTableauCrystal`);
:func:`tensor_graphs` writes out the view's lowering moves over every pair.
"""

from __future__ import annotations

import json
import re
from collections import deque
from itertools import chain, product, repeat
from json.encoder import encode_basestring
from operator import add, itemgetter, setitem
from typing import Iterable, Iterator, NamedTuple, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import (
    ClosureBudgetExceeded,
    CycleDetected,
    DimensionMismatch,
    MultipleSources,
    ParseError,
)
from .poly import SparsePolynomial

Color = int | str
Edge = tuple[str, Color, str]
Weight = tuple[int, ...]


def color_key(color: Color) -> tuple[int, int, str]:
    """Total order on colors: integers first, then odd labels."""
    if isinstance(color, int):
        return (0, color, "")
    return (1, 0, color)


_COLOR = re.compile(r"(0|[1-9][0-9]*)|[1-9][0-9]*p")


def color_from_str(text: str) -> Color:
    """Inverse of ``str`` on colors: ``"0"``, ``"1"``, … or an odd ``"1p"``, ….

    Raises:
        ParseError: ``text`` is not such a color (``"-1"``, ``"01"``, past Python's digit limit).
    """
    match = _COLOR.fullmatch(text)
    if match is None:
        raise ParseError(
            f"edge color {text!r} is neither an integer nor a label like '1p'"
        )
    try:
        return int(text) if match.group(1) else text
    except ValueError:  # past Python's integer digit limit
        raise ParseError(f"edge color of {len(text)} digits is past Python's limit") from None


class Vertex(NamedTuple):
    """Graph vertex: canonical id, display payload, and weight vector."""

    id: str
    payload: str
    weight: Weight


class CrystalGraph:
    """Immutable colored digraph on vertices indexed in sorted-id order.

    ``vertices`` are :class:`Vertex` values or ``(id, payload, weight)``
    triples; repeated edges count once.  The builders, which hold target
    indices already, use :meth:`_indexed`; only :meth:`_place` and
    :meth:`_link` set the fields.  The one-edge rule is a property of
    crystals, not a construction invariant: hand-built graphs may break it,
    and the axiom checkers report that as an A2/B2 violation.  Errors name
    the first offender in sorted order.
    """

    __slots__ = ("n", "vertex_ids", "payloads", "weights", "index",
                 "down", "up", "multi_down", "multi_up")

    def __init__(self, n: int, vertices: Iterable[Vertex], edges: Iterable[Edge]) -> None:
        self._place(n, vertices)
        index = self.index
        edges = edges if isinstance(edges, (list, tuple)) else [*edges]
        down: dict[Color, list[int]] = {}
        extra: dict[Color, list[tuple[int, int]]] = {}  # (src, dst) past a row's first target
        try:
            for src, color, dst in edges:
                s, d = index[src], index[dst]
                row = down.get(color) or down.setdefault(color, [-1] * len(index))
                if row[s] < 0:
                    row[s] = d
                elif row[s] != d:
                    extra.setdefault(color, []).append((s, d))
        except KeyError:
            _edge_error(index, edges)
        self._link(down, extra)

    @classmethod
    def _indexed(cls, n: int, ids: list[str], payloads: list[str], weights: list[Weight],
                 down: dict[Color, list[int]],
                 strays: Sequence[tuple[int, Color, str]] = ()) -> CrystalGraph:
        """``CrystalGraph(n, zip(ids, payloads, weights), edges)`` from rows in
        any order and, per color, each row's target row (``-1`` for none);
        ``strays``, ``(row, color, target id)`` edges to no row, are refused."""
        self = cls.__new__(cls)
        self._place(n, zip(ids, payloads, weights))
        _edge_error(self.index, [(ids[s], c, d) for s, c, d in strays])
        rank = [*map(self.index.__getitem__, ids), -1]  # rank[-1] keeps "no target" at -1
        order = sorted(range(len(ids)), key=rank.__getitem__)
        self._link({c: [*map(rank.__getitem__, map(row.__getitem__, order))]
                    for c, row in down.items()}, {})
        return self

    def _place(self, n: int, vertices: Iterable[Vertex]) -> None:
        """Set the vertex fields from the rows sorted by id.  Refuses the first
        repeated id or wrong weight length."""
        if n < 0:
            raise DimensionMismatch(f"weight length must be non-negative, got {n}")
        self.n = n
        rows = sorted(vertices, key=itemgetter(0))
        self.vertex_ids: tuple[str, ...] = tuple(map(itemgetter(0), rows))
        self.payloads: list[str] = [*map(itemgetter(1), rows)]
        self.weights: list[Weight] = [*map(itemgetter(2), rows)]
        self.index = {vid: k for k, vid in enumerate(self.vertex_ids)}
        if len(self.index) != len(rows) or not set(map(len, self.weights)) <= {n}:
            _vertex_error(n, rows)

    def _link(self, down: dict[Color, list[int]], extra: dict[Color, list]) -> None:
        """Set ``down`` and ``up``, and the side tables of each color with a
        multi-edge, from each color's first-target row (``-1`` for none; colors
        without edges are dropped) and its ``(src, dst)`` edges past those."""
        size = len(self.vertex_ids)
        self.down, self.up, self.multi_down, self.multi_up = {}, {}, {}, {}
        for color in sorted(down, key=color_key):
            row = down[color]
            if (bare := row.count(-1)) == size:
                continue
            up = [-1] * (size + 1)  # up[-1] takes the writes of "no target"
            deque(map(setitem, repeat(up), row, range(size)), 0)
            up.pop()
            if color in extra or up.count(-1) != bare:  # a multi-edge
                ends: tuple[dict, dict] = ({}, {})  # vertex -> all targets (sources)
                for s, d in chain(enumerate(row), extra.get(color, ())):
                    if d >= 0:
                        ends[0].setdefault(s, set()).add(d)
                        ends[1].setdefault(d, set()).add(s)
                for firsts, table, found in zip((row, up), (self.multi_down, self.multi_up), ends):
                    for k, others in found.items():
                        firsts[k] = min(others)
                    if multi := {k: tuple(sorted(v)) for k, v in found.items() if len(v) > 1}:
                        table[color] = multi
            self.down[color], self.up[color] = row, up

    # -- accessors ---------------------------------------------------------

    @property
    def colors(self) -> tuple[Color, ...]:
        return tuple(self.down)

    @property
    def int_colors(self) -> tuple[int, ...]:
        return tuple(c for c in self.colors if isinstance(c, int) and c >= 1)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges sorted by ``(src, color, dst)``, made on request."""
        ids = self.vertex_ids
        return tuple([(ids[s], c, ids[d]) for s, c, d in _index_edges(self)])

    def weight_of(self, vid: str) -> Weight:
        return self.weights[self.index[vid]]

    def payload_of(self, vid: str) -> str:
        return self.payloads[self.index[vid]]

    def _end(self, lists: dict[Color, list[int]], vid: str, color: Color) -> str | None:
        """The id at ``vid``'s row of ``lists[color]``, the smallest end of its
        edges of that color; ``None`` when it has none."""
        k = self.index[vid]
        end = lists[color][k] if color in lists else -1
        return self.vertex_ids[end] if end >= 0 else None

    def out_edge(self, vid: str, color: Color) -> str | None:
        return self._end(self.down, vid, color)

    def in_edge(self, vid: str, color: Color) -> str | None:
        return self._end(self.up, vid, color)

    def edge_counts(self) -> dict[Color, int]:
        return {c: len(row) - row.count(-1) + sum(
                    len(t) - 1 for t in self.multi_down.get(c, {}).values())
                for c, row in self.down.items()}

    def string_lengths(self, color: Color) -> tuple[list[int], list[int]]:
        """``(phi, eps)`` by row; see :func:`string_length_maps`."""
        return string_length_maps(self, color)

    def rows_within(self, bounds: dict[Color, int]) -> list[int]:
        """Rows ``k`` with ``eps_c(k) <= bounds[c]`` for every color ``c`` in ``bounds``."""
        checks = [(string_length_maps(self, c)[1], bound) for c, bound in bounds.items()]
        return [k for k in range(len(self)) if all(eps[k] <= b for eps, b in checks)]

    def even_highest_weights(self) -> list[str]:
        """Vertices with no incoming edge of a color ``1..n-1``."""
        return highest_weights(self, range(1, self.n))

    def __len__(self) -> int:
        return len(self.vertex_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrystalGraph):
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in (
            "n", "vertex_ids", "payloads", "weights", "down", "multi_down"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrystalGraph(n={self.n}, vertices={len(self)}, "
            f"edges={sum(self.edge_counts().values())})"
        )


def _vertex_error(n: int, rows: list) -> None:
    """Raise for the first duplicate id or wrong weight length in sorted order."""
    seen = set()
    for vid, _, weight in rows:
        if vid in seen:
            raise ParseError(f"duplicate vertex id {vid!r}")
        if len(weight) != n:
            raise DimensionMismatch(
                f"vertex {vid!r} has weight of length {len(weight)}, expected {n}"
            )
        seen.add(vid)


def _edge_error(index: dict[str, int], edges: Iterable[Edge]) -> None:
    """Raise for the first edge in sorted order with an unknown endpoint."""
    for src, _, dst in sorted(set(edges), key=lambda e: (e[0], color_key(e[1]), e[2])):
        if src not in index:
            raise ParseError(f"edge source {src!r} is not a vertex")
        if dst not in index:
            raise ParseError(f"edge target {dst!r} is not a vertex")


def _index_edges(
    graph: CrystalGraph,
    vertices: Iterable[int] | None = None,
    colors: Iterable[Color] | None = None,
) -> list[tuple[int, Color, int]]:
    """``(src, color, dst)`` indices of the edges leaving ``vertices``
    (default all, ascending), of ``colors`` (default all), in sorted order."""
    keep = graph.down if colors is None else [c for c in graph.down if c in colors]
    rows = [(c, graph.down[c], graph.multi_down.get(c)) for c in keep]
    found = []
    for s in range(len(graph)) if vertices is None else vertices:
        for c, row, multi in rows:
            if row[s] < 0:
                continue
            if multi and s in multi:
                found += [(s, c, t) for t in multi[s]]
            else:
                found.append((s, c, row[s]))
    return found


# -- string walks ------------------------------------------------------------

def string_length_maps(graph: CrystalGraph, color: Color) -> tuple[list[int], list[int]]:
    """``(phi, eps)`` of every vertex at once, as lists by vertex index, by
    path decomposition along the first edges of ``color``.

    Raises:
        CycleDetected: Some monochromatic walk closes a cycle.
    """
    size = len(graph)
    if color not in graph.down:
        return [0] * size, [0] * size
    down, ids = graph.down[color], graph.vertex_ids
    phi = [-1] * size
    eps = [0] * size
    walk = [-1] * size  # the head of the walk that last passed each vertex
    for head in [k for k, source in enumerate(graph.up[color]) if source < 0]:
        chain = [head]
        walk[head] = cur = head
        while (cur := down[cur]) >= 0:
            if walk[cur] == head:
                raise CycleDetected(
                    f"color {color} walk from {ids[head]!r} revisits {ids[cur]!r}"
                )
            walk[cur] = head
            chain.append(cur)
        last = len(chain) - 1
        for k, node in enumerate(chain):
            eps[node] = k
            phi[node] = last - k
    if -1 in phi:
        # Only vertices inside head-free cycles stay unassigned.
        raise CycleDetected(f"color {color} cycle through {ids[phi.index(-1)]!r}")
    return phi, eps


# -- whole-graph queries ------------------------------------------------------

def _component_groups(
    graph: CrystalGraph, colors: Iterable[Color] | None = None
) -> list[list[int]]:
    """Ascending vertex indices of each weakly connected component, ordered
    by smallest index; with ``colors`` given, only edges of those colors
    connect vertices."""
    keep = graph.down if colors is None else [c for c in colors if c in graph.down]
    rows = [graph.down[c] for c in keep] + [graph.up[c] for c in keep]
    extra: dict[int, list[int]] = {}
    for table in (graph.multi_down, graph.multi_up):
        for c in keep:
            for k, ends in table.get(c, {}).items():
                extra.setdefault(k, []).extend(ends)
    seen = bytearray(len(graph))
    groups = []
    for start in range(len(graph)):
        if seen[start]:
            continue
        seen[start] = 1
        group = [start]
        for v in group:  # grows while it is read
            for row in rows:
                w = row[v]
                if w >= 0 and not seen[w]:
                    seen[w] = 1
                    group.append(w)
            for w in extra.get(v, ()):
                if not seen[w]:
                    seen[w] = 1
                    group.append(w)
        groups.append(sorted(group))
    return groups


def components(graph: CrystalGraph) -> list[CrystalGraph]:
    """The copying public form: components as new graphs, ordered by smallest id."""
    ids, payloads, weights = graph.vertex_ids, graph.payloads, graph.weights
    return [CrystalGraph(graph.n, [(ids[k], payloads[k], weights[k]) for k in group],
                         [(ids[s], c, ids[d]) for s, c, d in _index_edges(graph, group)])
            for group in _component_groups(graph)]


def _sources(graph: CrystalGraph, colors: Iterable[Color]) -> list[int]:
    """Vertices with no incoming edge of any of ``colors``."""
    rows = [graph.up[c] for c in colors if c in graph.up]
    if not rows:
        return [*range(len(graph))]
    return [k for k, column in enumerate(zip(*rows)) if max(column) < 0]


def highest_weights(
    graph: CrystalGraph, colors: Iterable[Color] | None = None
) -> list[str]:
    """Vertices with no incoming edge of any listed color.

    ``colors=None`` uses every integer color >= 1 present in the graph.
    """
    palette = tuple(colors) if colors is not None else graph.int_colors
    return [graph.vertex_ids[k] for k in _sources(graph, palette)]


def character(graph: CrystalGraph) -> SparsePolynomial:
    """Monomial sum of all vertex weights."""
    return SparsePolynomial.from_weights(graph.n, graph.weights)


def _unique_source(graph: CrystalGraph) -> int:
    sources = _sources(graph, graph.colors)
    if len(sources) != 1:
        raise MultipleSources(
            f"expected exactly one source vertex, found {len(sources)}"
        )
    return sources[0]


def isomorphic(g1: CrystalGraph, g2: CrystalGraph) -> bool:
    """Colored-digraph isomorphism for rooted deterministic graphs.

    Synchronized BFS from the unique source of each graph, matching edges
    color by color and comparing vertex weights (payload text is ignored).
    Sound and complete when every vertex has at most one outgoing edge per
    color and all vertices are reachable from the source.

    Raises:
        MultipleSources: Either graph lacks a unique source vertex.
    """
    root1 = _unique_source(g1)
    root2 = _unique_source(g2)
    if g1.n != g2.n or len(g1) != len(g2) or g1.weights[root1] != g2.weights[root2]:
        return False
    mapping, reverse = [-1] * len(g1), [-1] * len(g2)
    mapping[root1], reverse[root2] = root2, root1
    queue = [root1]
    while queue:
        u1 = queue.pop()
        out1, out2 = _index_edges(g1, (u1,)), _index_edges(g2, (mapping[u1],))
        colors = [c for _, c, _ in out1]
        if colors != [c for _, c, _ in out2] or len(set(colors)) != len(colors):
            return False
        for (_, _, t1), (_, _, t2) in zip(out1, out2):
            if mapping[t1] not in (-1, t2) or reverse[t2] not in (-1, t1):
                return False
            if mapping[t1] < 0:
                if g1.weights[t1] != g2.weights[t2]:
                    return False
                mapping[t1], reverse[t2] = t2, t1
                queue.append(t1)
    # Every vertex is mapped, and the edges of each are matched one to one.
    return -1 not in mapping


# -- tensor product -----------------------------------------------------------

def _wrap_factor(payload: str) -> str:
    return f"({payload})" if "⊗" in payload else payload


def _check_lengths(g1, g2) -> int:
    if g1.n != g2.n:
        raise DimensionMismatch(f"cannot tensor graphs with weight lengths {g1.n} and {g2.n}")
    return g1.n


def _check_factors(g1, g2) -> None:
    """Refuse a factor graph with two edges of one color out of one vertex."""
    for side, g in (("left", g1), ("right", g2)):
        if multi := getattr(g, "multi_down", None):
            color = min(multi, key=color_key)
            k = min(multi[color])
            raise ParseError(f"{side} tensor factor is not a crystal: vertex "
                             f"{g.vertex_ids[k]!r} has {len(multi[color][k])} "
                             f"outgoing edges of color {color}")


Pair = tuple[int, int]
"""A ``(left row, right row)`` vertex of a :class:`TensorView`."""


class TensorView:
    """The tensor product of two crystals, read on demand without building it.

    A factor is a :class:`CrystalGraph` or any object with its row members:
    ``n``, ``colors``, ``weights``, ``payloads``, ``down``/``up``
    (per color, each row's target row, ``-1`` for none), ``string_lengths``
    (``(phi, eps)`` by row) and ``rows_within(bounds)`` (the rows whose
    ``eps`` of each color is at most its bound), such as
    :class:`crystals.models.QueerTableauCrystal`, which moves tableaux only
    when a row is read and fills only the rows within the bounds.  Vertices
    are ``(left row, right row)`` pairs.  The view offers what the odd
    operators and the queer highest-weight search read (``n``,
    ``weight_of``, ``out_edge``, ``in_edge``, ``even_highest_weights()``),
    so they run on it; it is not a factor.

    For an even color ``i`` the lowering move acts on the left factor when
    ``eps_i(b2) < phi_i(b1)`` and the raising move when
    ``eps_i(b2) <= phi_i(b1)``; otherwise both act on the right factor.
    With ``queer=True`` the 0-moves act on the left factor exactly when the
    right factor's weight vanishes in coordinates 1 and 2.  Raising moves
    follow this rule only when both factors are crystals (one edge per
    vertex and color, strings that match the weights).

    Raises:
        DimensionMismatch: The two factors have different weight lengths.
        ParseError: A factor graph has two edges of one color out of one
            vertex; the first color, then vertex, is named.
        CycleDetected: A factor graph has a malformed monochromatic cycle.
    """

    __slots__ = ("n", "left", "right", "queer", "even_colors", "_phi_left", "_eps_right")

    def __init__(self, g1, g2, queer: bool = False) -> None:
        self.n = _check_lengths(g1, g2)
        _check_factors(g1, g2)
        self.left = g1
        self.right = g2
        self.queer = queer
        self.even_colors: tuple[int, ...] = tuple(sorted(
            {c for c in (*g1.colors, *g2.colors) if isinstance(c, int) and c >= 1}
        ))
        self._phi_left = {c: g1.string_lengths(c)[0] for c in self.even_colors}
        self._eps_right = {c: g2.string_lengths(c)[1] for c in self.even_colors}

    def payload_of(self, pair: Pair) -> str:
        """The factor payloads joined by ``⊗``, nested products in parentheses."""
        return (
            f"{_wrap_factor(self.left.payloads[pair[0]])}"
            f"⊗{_wrap_factor(self.right.payloads[pair[1]])}"
        )

    def weight_of(self, pair: Pair) -> Weight:
        return tuple(map(add, self.left.weights[pair[0]], self.right.weights[pair[1]]))

    def _move(self, pair: Pair, color: Color, lowering: bool) -> Pair | None:
        """``pair``'s lowering (or raising) move of ``color``, by the rule above."""
        b1, b2 = pair
        if color == 0 and self.queer:
            on_left = not any(self.right.weights[b2][:2])
        elif color in self._eps_right:
            eps = self._eps_right[color][b2]
            phi = self._phi_left[color][b1]
            on_left = eps < phi if lowering else eps <= phi
        else:
            return None
        factor, b = (self.left, b1) if on_left else (self.right, b2)
        moves = (factor.down if lowering else factor.up).get(color)
        if moves is None or (moved := moves[b]) < 0:
            return None
        return (moved, b2) if on_left else (b1, moved)

    def out_edge(self, pair: Pair, color: Color) -> Pair | None:
        return self._move(pair, color, lowering=True)

    def in_edge(self, pair: Pair, color: Color) -> Pair | None:
        return self._move(pair, color, lowering=False)

    def even_highest_weights(self) -> list[Pair]:
        """Pairs with no incoming even edge: ``b1 ⊗ b2`` qualifies iff ``eps_i(b1) = 0``
        and ``eps_i(b2) <= phi_i(b1)`` for every even color, so the left rows within
        bounds 0 meet the right rows within their ``phi``, asked once per ``phi`` vector."""
        colors, result, within = self.even_colors, [], {}
        for b1 in self.left.rows_within(dict.fromkeys(colors, 0)):
            phi = tuple(self._phi_left[c][b1] for c in colors)
            if phi not in within:
                within[phi] = self.right.rows_within(dict(zip(colors, phi)))
            result.extend(zip(repeat(b1), within[phi]))
        return result


def tensor_graphs(
    g1: CrystalGraph,
    g2: CrystalGraph,
    queer: bool = False,
    config: Config | None = None,
) -> CrystalGraph:
    """Tensor product graph with the edges of :class:`TensorView` over every
    pair of rows; vertex ids are the view's payloads.

    Raises:
        DimensionMismatch: The two graphs have different weight lengths.
        ClosureBudgetExceeded: ``len(g1) * len(g2)`` exceeds
            ``config.max_vertices``; checked before any string length is
            computed.
        ParseError: A factor has two edges of one color out of one vertex (the
            first color, then vertex, is named); checked after the budget.
        CycleDetected: A factor has a malformed monochromatic cycle.
    """
    config = config or DEFAULT_CONFIG
    _check_lengths(g1, g2)
    size = len(g1) * len(g2)
    if size > config.max_vertices:
        raise ClosureBudgetExceeded(
            f"tensor product of {len(g1)} x {len(g2)} = {size} vertices "
            f"exceeds {config.max_vertices} vertices"
        )
    view = TensorView(g1, g2, queer)
    width = len(g2)
    pairs = [*product(range(len(g1)), range(width))]
    ids = [*map(view.payload_of, pairs)]
    colors = (*view.even_colors, 0) if queer else view.even_colors
    down = {c: [-1 if t is None else t[0] * width + t[1]
                for t in map(view.out_edge, pairs, repeat(c))] for c in colors}
    return CrystalGraph._indexed(g1.n, ids, ids, [*map(view.weight_of, pairs)], down)


# -- serialization ------------------------------------------------------------

_CHUNK = 1024  # vertices per piece that the writers yield


def _blocks(graph: CrystalGraph) -> list[range]:
    """The vertex indices in ascending ranges of at most ``_CHUNK``."""
    return [range(a, min(a + _CHUNK, len(graph))) for a in range(0, len(graph), _CHUNK)]


def _json_list(pieces: Iterable[list[str]], indent: str) -> Iterator[str]:
    """Encoded items laid out as ``json.dumps(..., indent=2)`` lays out a list,
    yielded a non-empty piece of them at a time."""
    sep = f"[\n{indent}  "
    for items in pieces:
        if items:
            yield sep + f",\n{indent}  ".join(items)
            sep = f",\n{indent}  "
    yield f"\n{indent}]" if sep[0] == "," else "[]"


def _json_chunks(graph: CrystalGraph) -> Iterator[str]:
    """The text of :func:`export_json`: the vertex entries and then the edges
    leaving each of :func:`_blocks`, one piece per block."""
    ids = [*map(encode_basestring, graph.vertex_ids)]
    weights = {w: "".join(_json_list([[*map(int.__repr__, w)]], "      "))
               for w in set(graph.weights)}
    colors = {c: encode_basestring(str(c)) for c in graph.down}
    yield f'{{\n  "n": {int.__repr__(graph.n)},\n  "vertices": '
    yield from _json_list(([
        f'{{\n      "id": {ids[k]},\n      "payload": {encode_basestring(graph.payloads[k])},'
        f'\n      "weight": {weights[graph.weights[k]]}\n    }}' for k in block]
        for block in _blocks(graph)), "  ")
    yield ',\n  "edges": '
    yield from _json_list(([
        f'{{\n      "src": {ids[s]},\n      "color": {colors[c]},'
        f'\n      "dst": {ids[d]}\n    }}' for s, c, d in _index_edges(graph, block)]
        for block in _blocks(graph)), "  ")
    yield "\n}\n"


def export_json(graph: CrystalGraph) -> str:
    """Canonical JSON text (sorted vertices and edges, trailing newline).

    The bytes of ``json.dumps(..., indent=2, ensure_ascii=False)``, written with
    each distinct id, weight and color encoded once."""
    return "".join(_json_chunks(graph))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_count(value: object) -> bool:
    """A non-negative integer; JSON ``true``/``false`` load as ``bool`` and fail."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _columns(items: list, keys: tuple[str, ...]) -> list[list] | None:
    """The values of each key across ``items``; ``None`` unless every item is
    an object holding every key."""
    try:
        return [[item[key] for item in items] for key in keys]
    except (KeyError, TypeError):
        return None


def _typed(values: Iterable, kind: type) -> bool:
    """Every value has type ``kind``: JSON gives ``bool``, ``float`` and ``str``
    values their own types, so a boolean is not an integer here."""
    return set(map(type, values)) <= {kind}


def _first_bad_entry(items: list, kind: str) -> None:
    """Raise for the first malformed vertex or edge entry in file order."""
    keys = ("id", "payload", "weight") if kind == "vertex" else ("src", "color", "dst")
    for item in items:
        _require(isinstance(item, dict), f"{kind} entries must be objects")
        for key in keys:
            _require(key in item, f"{kind} missing key {key!r}")
        first, second, third = (item[key] for key in keys)
        if kind == "vertex":
            _require(isinstance(first, str), "vertex id must be a string")
            _require(isinstance(second, str), "vertex payload must be a string")
            _require(isinstance(third, list) and all(map(_is_count, third)),
                     f"vertex {first!r} weight must list non-negative integers")
        else:
            _require(isinstance(first, str), "edge src must be a string")
            _require(isinstance(third, str), "edge dst must be a string")
            _require(isinstance(second, str), "edge color must be a string")
            color_from_str(second)


_WS = r"[ \t\n\r]*"  # JSON's whitespace; re's \s takes characters JSON refuses
_HEAD = re.compile(_WS.join(["", r"\{", '"n"', ":", "(0|[1-9][0-9]{0,8})", ",", '"vertices"', ":",
                             r"\["]))
_GAP = re.compile(f"{_WS}(,?){_WS}")
_DECODER = json.JSONDecoder()
# Characters: json.loads reads a shorter file in about 15 ms or less, and its
# refusal names the exact vertex count.
_SCAN_FLOOR = 1 << 20


def _lists_over(text: str, limit: int) -> bool:
    """Whether a graph file lists more than ``limit`` vertices, read off its
    first ``limit + 1`` vertex entries when it opens with ``"n"`` and then
    ``"vertices"``, as :func:`export_json` writes it.

    ``False`` when the scan cannot follow the file, when the file is under
    ``_SCAN_FLOOR`` characters, or when the rest is too short to hold the
    entries still missing: an entry takes at least the 34 characters of
    ``{"id":"","payload":"","weight":[]}`` and two per weight coordinate
    past the first.
    """
    if len(text) < _SCAN_FLOOR or (head := _HEAD.match(text)) is None:
        return False
    n = int(head[1])
    least = 33 + 2 * n if n else 34
    decode, pos = _DECODER.raw_decode, head.end()
    for count in range(limit + 1):
        gap = _GAP.match(text, pos)
        if len(text) - pos < least * (limit + 1 - count) or bool(gap[1]) != bool(count):
            return False
        try:
            pos = decode(text, gap.end())[1]
        except (ValueError, RecursionError):  # malformed JSON, or past Python's limits
            return False
    return True


def import_json(text: str, config: Config | None = None) -> CrystalGraph:
    """Parse graph JSON produced by :func:`export_json`.

    Each field is checked with one test over all entries; only a file that
    fails one is read entry by entry, for the first problem in file order.

    Raises:
        ParseError: Malformed JSON or schema, including an integer or a nesting
            past Python's limits, a negative or boolean ``n`` or weight, an edge
            color that :func:`color_from_str` refuses and an id, payload, src or
            dst that UTF-8 cannot encode; carries the failure position when the
            JSON itself does not parse.
        ClosureBudgetExceeded: The file lists more than
            ``config.max_vertices`` vertices; checked before any vertex is
            read, and for a file of ``_SCAN_FLOOR`` characters or more that
            opens as :func:`export_json` writes, before more than
            ``config.max_vertices + 1`` vertex entries are parsed.
    """
    limit = (config or DEFAULT_CONFIG).max_vertices
    if _lists_over(text, limit):
        raise ClosureBudgetExceeded(f"import_json: graph file lists at least {limit + 1} "
                                    f"vertices, over the budget of {limit} vertices")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
    except (ValueError, RecursionError):  # Python's integer digit limit or recursion limit
        raise ParseError("invalid JSON: an integer or a nesting past Python's limits") from None
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("n", "vertices", "edges"):
        _require(key in data, f"missing key {key!r}")
    _require(_is_count(data["n"]), "'n' must be a non-negative integer")
    _require(isinstance(data["vertices"], list), "'vertices' must be a list")
    _require(isinstance(data["edges"], list), "'edges' must be a list")
    if len(data["vertices"]) > limit:
        raise ClosureBudgetExceeded(
            f"import_json: graph file lists {len(data['vertices'])} vertices, "
            f"over the budget of {limit} vertices"
        )
    columns = _columns(data["vertices"], ("id", "payload", "weight"))
    ids, payloads, weights = columns or ([], [], [])
    coords = [*chain.from_iterable(weights)] if _typed(weights, list) else [-1]
    if (columns is None or not _typed(ids, str) or not _typed(payloads, str)
            or not _typed(coords, int) or min(coords, default=0) < 0):
        _first_bad_entry(data["vertices"], "vertex")
    columns = _columns(data["edges"], ("src", "color", "dst"))
    if columns is None or not all(_typed(column, str) for column in columns):
        _first_bad_entry(data["edges"], "edge")
    srcs, labels, dsts = columns
    colors = {label: color_from_str(label) for label in dict.fromkeys(labels)}
    for field, texts in (("vertex id", ids), ("vertex payload", payloads),
                         ("edge src", srcs), ("edge dst", dsts)):
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{field} holds {exc.object[exc.start]!r}, not UTF-8 text") from None
    return CrystalGraph(
        data["n"],
        zip(ids, payloads, map(tuple, weights)),
        [*zip(srcs, map(colors.__getitem__, labels), dsts)],
    )


_INT_PALETTE = {0: "green", 1: "red", 2: "blue", 3: "purple"}
_INT_CYCLE = ("orange", "brown", "teal")
_ODD_CYCLE = ("magenta", "cyan", "gold", "gray")


def dot_color(color: Color) -> str:
    if isinstance(color, int):
        if color in _INT_PALETTE:
            return _INT_PALETTE[color]
        return _INT_CYCLE[(color - 4) % len(_INT_CYCLE)]
    # The last two digits fix the number mod 4 (100 is 0 mod 4), however long it is.
    digits = re.match(r"\d+", color)
    index = int(digits.group()[-2:]) - 1 if digits else 0
    return _ODD_CYCLE[index % len(_ODD_CYCLE)]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_chunks(graph: CrystalGraph) -> Iterator[str]:
    """The text of :func:`export_dot`: the vertex lines and then the edges
    leaving each of :func:`_blocks`, one piece per block."""
    ids = [f'"{_dot_escape(vid)}"' for vid in graph.vertex_ids]
    tails = {c: f' [color={dot_color(c)}, label="{_dot_escape(str(c))}"];\n' for c in graph.down}
    yield "digraph crystal {\n  rankdir=TB;\n"
    for block in _blocks(graph):
        yield "".join([f'  {ids[k]} [label="{_dot_escape(graph.payloads[k])}"];\n' for k in block])
    for block in _blocks(graph):
        yield "".join([f"  {ids[s]} -> {ids[d]}{tails[c]}"
                       for s, c, d in _index_edges(graph, block)])
    yield "}\n"


def export_dot(graph: CrystalGraph) -> str:
    """Graphviz text with the fixed edge palette and payload labels."""
    return "".join(_dot_chunks(graph))
