"""Colored directed graphs of lowering operators, with queries and I/O.

A :class:`CrystalGraph` stores vertices keyed by canonical payload text plus
edges ``(src, color, dst)`` meaning the color's lowering operator maps ``src``
to ``dst``.  Raising moves are the reversed edges.  Integer colors ``1, 2, …``
are the even operators and color ``0`` the queer operator.  Strings like
``"1p"`` label derived odd operators; no model builds them, so they arrive
only from graph files.

A graph stores its vertices sorted by id and its edges sorted by
``(src, color, dst)``, so a graph built from the same vertex and edge sets in
any order has the same JSON and DOT bytes.  The tableau crystals are built in
:mod:`crystals.models`.

A :class:`TensorView` reads the tensor product of two crystals on demand,
each given as a graph or as any factor with the graph's read protocol (such
as the tableau-backed :class:`crystals.models.QueerTableauCrystal`); the
materialized product, :func:`tensor_graphs`, is that view over every pair of
two graphs.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Hashable, Iterable

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
        ParseError: ``text`` is not such a color, e.g. ``"-1"`` or ``"01"``.
    """
    match = _COLOR.fullmatch(text)
    if match is None:
        raise ParseError(
            f"edge color {text!r} is neither an integer nor a label like '1p'"
        )
    return int(text) if match.group(1) else text


@dataclass(frozen=True, slots=True)
class Vertex:
    """Graph vertex: canonical id, display payload, and weight vector."""

    id: str
    payload: str
    weight: Weight


class CrystalGraph:
    """Immutable colored digraph with at most one edge per (vertex, color).

    The one-edge rule is a property of crystals, not a construction
    invariant: hand-built graphs may break it, and the axiom checkers report
    that as an A2/B2 violation.  Accessors therefore expose both the full
    target lists and the first-target convenience forms.
    """

    __slots__ = ("n", "vertices", "edges", "_out", "_in")

    def __init__(self, n: int, vertices: Iterable[Vertex], edges: Iterable[Edge]) -> None:
        if n < 0:
            raise DimensionMismatch(f"weight length must be non-negative, got {n}")
        self.n = n
        ordered = sorted(vertices, key=lambda v: v.id)
        self.vertices: dict[str, Vertex] = {}
        for vertex in ordered:
            if vertex.id in self.vertices:
                raise ParseError(f"duplicate vertex id {vertex.id!r}")
            if len(vertex.weight) != n:
                raise DimensionMismatch(
                    f"vertex {vertex.id!r} has weight of length "
                    f"{len(vertex.weight)}, expected {n}"
                )
            self.vertices[vertex.id] = vertex
        unique = sorted(set(edges), key=lambda e: (e[0], color_key(e[1]), e[2]))
        self.edges: tuple[Edge, ...] = tuple(unique)
        self._out: dict[str, dict[Color, tuple[str, ...]]] = {v: {} for v in self.vertices}
        self._in: dict[str, dict[Color, tuple[str, ...]]] = {v: {} for v in self.vertices}
        for src, color, dst in unique:
            if src not in self._out:
                raise ParseError(f"edge source {src!r} is not a vertex")
            if dst not in self._in:
                raise ParseError(f"edge target {dst!r} is not a vertex")
            targets = self._out[src]
            targets[color] = targets.get(color, ()) + (dst,)
            sources = self._in[dst]
            sources[color] = sources.get(color, ()) + (src,)

    # -- accessors ---------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(self.vertices)

    @property
    def colors(self) -> tuple[Color, ...]:
        return tuple(sorted({e[1] for e in self.edges}, key=color_key))

    @property
    def int_colors(self) -> tuple[int, ...]:
        return tuple(c for c in self.colors if isinstance(c, int) and c >= 1)

    def weight_of(self, vid: str) -> Weight:
        return self.vertices[vid].weight

    def payload_of(self, vid: str) -> str:
        return self.vertices[vid].payload

    def out_all(self, vid: str, color: Color) -> tuple[str, ...]:
        return self._out[vid].get(color, ())

    def in_all(self, vid: str, color: Color) -> tuple[str, ...]:
        return self._in[vid].get(color, ())

    def out_edge(self, vid: str, color: Color) -> str | None:
        targets = self._out[vid].get(color)
        return targets[0] if targets else None

    def in_edge(self, vid: str, color: Color) -> str | None:
        sources = self._in[vid].get(color)
        return sources[0] if sources else None

    def out_colors(self, vid: str) -> tuple[Color, ...]:
        return tuple(sorted(self._out[vid], key=color_key))

    def edge_counts(self) -> dict[Color, int]:
        counts: dict[Color, int] = {}
        for _, color, _ in self.edges:
            counts[color] = counts.get(color, 0) + 1
        return {c: counts[c] for c in sorted(counts, key=color_key)}

    def string_maps(self, color: Color) -> tuple[dict[str, int], dict[str, int]]:
        """``(phi, eps)`` of every vertex; see :func:`string_length_maps`."""
        return string_length_maps(self, color)

    def even_highest_weights(self) -> list[str]:
        """Vertices with no incoming edge of a color ``1..n-1``."""
        return highest_weights(self, range(1, self.n))

    def subgraph(self, colors: Iterable[Color]) -> "CrystalGraph":
        """Same vertices, edges restricted to the given colors."""
        keep = set(colors)
        return CrystalGraph(
            self.n,
            self.vertices.values(),
            [e for e in self.edges if e[1] in keep],
        )

    def restrict(self, vertex_ids: Iterable[str]) -> "CrystalGraph":
        """Induced subgraph on the given vertices."""
        keep = set(vertex_ids)
        return CrystalGraph(
            self.n,
            [self.vertices[v] for v in keep],
            [e for e in self.edges if e[0] in keep and e[2] in keep],
        )

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrystalGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrystalGraph(n={self.n}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)})"
        )


# -- string walks ------------------------------------------------------------

def string_length_maps(
    graph: CrystalGraph, color: Color
) -> tuple[dict[str, int], dict[str, int]]:
    """``(phi, eps)`` for every vertex at once, by path decomposition.

    Raises:
        CycleDetected: Some monochromatic walk closes a cycle.
    """
    phi: dict[str, int] = {}
    eps: dict[str, int] = {}
    for vid in graph.vertex_ids:
        if graph.in_edge(vid, color) is not None:
            continue
        chain = [vid]
        seen = {vid}
        cur = vid
        while (nxt := graph.out_edge(cur, color)) is not None:
            if nxt in seen:
                raise CycleDetected(
                    f"color {color} walk from {vid!r} revisits {nxt!r}"
                )
            seen.add(nxt)
            chain.append(nxt)
            cur = nxt
        last = len(chain) - 1
        for k, node in enumerate(chain):
            eps[node] = k
            phi[node] = last - k
    for vid in graph.vertex_ids:
        if vid not in phi:
            # Only vertices inside head-free cycles stay unassigned.
            raise CycleDetected(f"color {color} cycle through {vid!r}")
    return phi, eps


# -- whole-graph queries ------------------------------------------------------

def _component_groups(
    graph: CrystalGraph, colors: Iterable[Color] | None = None
) -> list[set[str]]:
    """Vertex ids of each weakly connected component, ordered by smallest id;
    with ``colors`` given, only edges of those colors connect vertices."""
    keep = None if colors is None else set(colors)
    neighbors: dict[str, set[str]] = {v: set() for v in graph.vertex_ids}
    for src, color, dst in graph.edges:
        if keep is None or color in keep:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
    seen: set[str] = set()
    groups: list[set[str]] = []
    for vid in graph.vertex_ids:
        if vid in seen:
            continue
        group = {vid}
        stack = [vid]
        while stack:
            for other in neighbors[stack.pop()]:
                if other not in group:
                    group.add(other)
                    stack.append(other)
        seen |= group
        groups.append(group)
    return groups


def components(graph: CrystalGraph) -> list[CrystalGraph]:
    """The copying public form: components as new graphs, ordered by smallest id."""
    return [graph.restrict(group) for group in _component_groups(graph)]


def highest_weights(
    graph: CrystalGraph, colors: Iterable[Color] | None = None
) -> list[str]:
    """Vertices with no incoming edge of any listed color.

    ``colors=None`` uses every integer color >= 1 present in the graph.
    """
    palette = tuple(colors) if colors is not None else graph.int_colors
    return [
        vid
        for vid in graph.vertex_ids
        if all(not graph.in_all(vid, c) for c in palette)
    ]


def character(graph: CrystalGraph) -> SparsePolynomial:
    """Monomial sum of all vertex weights."""
    return SparsePolynomial.from_weights(
        graph.n, (v.weight for v in graph.vertices.values())
    )


def _unique_source(graph: CrystalGraph) -> str:
    sources = [vid for vid in graph.vertex_ids if not graph._in[vid]]
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
    if g1.n != g2.n or len(g1) != len(g2) or len(g1.edges) != len(g2.edges):
        return False
    if g1.weight_of(root1) != g2.weight_of(root2):
        return False
    mapping = {root1: root2}
    reverse = {root2: root1}
    queue = [root1]
    while queue:
        u1 = queue.pop()
        u2 = mapping[u1]
        if g1.out_colors(u1) != g2.out_colors(u2):
            return False
        for color in g1.out_colors(u1):
            t1s = g1.out_all(u1, color)
            t2s = g2.out_all(u2, color)
            if len(t1s) != 1 or len(t2s) != 1:
                return False
            t1, t2 = t1s[0], t2s[0]
            if mapping.get(t1, t2) != t2 or reverse.get(t2, t1) != t1:
                return False
            if t1 not in mapping:
                if g1.weight_of(t1) != g2.weight_of(t2):
                    return False
                mapping[t1] = t2
                reverse[t2] = t1
                queue.append(t1)
    if len(mapping) != len(g1) or len(reverse) != len(g2):
        return False
    relabeled = {(mapping[s], c, mapping[d]) for s, c, d in g1.edges}
    return relabeled == set(g2.edges)


# -- tensor product -----------------------------------------------------------

def _wrap_factor(payload: str) -> str:
    return f"({payload})" if "⊗" in payload else payload


Pair = tuple[Hashable, Hashable]
"""A ``(left id, right id)`` vertex of a :class:`TensorView`."""


class TensorView:
    """The tensor product of two crystals, read on demand without building it.

    A factor is a :class:`CrystalGraph` or any object with the same read
    protocol: ``n``, ``colors``, ``vertex_ids``, ``weight_of``,
    ``payload_of``, ``out_edge``, ``in_edge``, ``string_maps(color)`` (the
    ``(phi, eps)`` maps of a color, indexed by vertex) and
    ``even_highest_weights()``, such as
    :class:`crystals.models.QueerTableauCrystal`, which moves tableaux only
    when asked.  Vertices are ``(left id, right id)`` pairs, and the view
    offers the same read protocol, so the odd operators and the queer
    highest-weight search run on it directly.

    For an even color ``i`` the lowering move acts on the left factor when
    ``eps_i(b2) < phi_i(b1)`` and the raising move when
    ``eps_i(b2) <= phi_i(b1)``; otherwise both act on the right factor.
    With ``queer=True`` the 0-moves act on the left factor exactly when the
    right factor's weight vanishes in coordinates 1 and 2.  Raising moves
    follow this rule only when both factors are crystals (one edge per
    vertex and color, strings that match the weights).

    Raises:
        DimensionMismatch: The two factors have different weight lengths.
        CycleDetected: A factor graph has a malformed monochromatic cycle.
    """

    __slots__ = ("n", "left", "right", "queer", "even_colors", "_phi_left", "_eps_right")

    def __init__(self, g1, g2, queer: bool = False) -> None:
        if g1.n != g2.n:
            raise DimensionMismatch(
                f"cannot tensor graphs with weight lengths {g1.n} and {g2.n}"
            )
        self.n = g1.n
        self.left = g1
        self.right = g2
        self.queer = queer
        self.even_colors: tuple[int, ...] = tuple(sorted(
            {c for c in (*g1.colors, *g2.colors) if isinstance(c, int) and c >= 1}
        ))
        self._phi_left = {c: g1.string_maps(c)[0] for c in self.even_colors}
        self._eps_right = {c: g2.string_maps(c)[1] for c in self.even_colors}

    @property
    def colors(self) -> tuple[int, ...]:
        return ((0,) if self.queer else ()) + self.even_colors

    def payload_of(self, pair: Pair) -> str:
        """The factor payloads joined by ``⊗``, nested products in parentheses."""
        return (
            f"{_wrap_factor(self.left.payload_of(pair[0]))}"
            f"⊗{_wrap_factor(self.right.payload_of(pair[1]))}"
        )

    def weight_of(self, pair: Pair) -> Weight:
        w1 = self.left.weight_of(pair[0])
        w2 = self.right.weight_of(pair[1])
        return tuple(a + b for a, b in zip(w1, w2))

    def _acts_left(self, pair: Pair, color: Color, lowering: bool) -> bool | None:
        """Which factor the move acts on; ``None`` for a color without moves."""
        if color == 0:
            if not self.queer:
                return None
            return not any(self.right.weight_of(pair[1])[:2])
        if color not in self._eps_right:
            return None
        eps = self._eps_right[color][pair[1]]
        phi = self._phi_left[color][pair[0]]
        return eps < phi if lowering else eps <= phi

    def out_edge(self, pair: Pair, color: Color) -> Pair | None:
        on_left = self._acts_left(pair, color, lowering=True)
        if on_left is None:
            return None
        b1, b2 = pair
        if on_left:
            target = self.left.out_edge(b1, color)
            return None if target is None else (target, b2)
        target = self.right.out_edge(b2, color)
        return None if target is None else (b1, target)

    def in_edge(self, pair: Pair, color: Color) -> Pair | None:
        on_left = self._acts_left(pair, color, lowering=False)
        if on_left is None:
            return None
        b1, b2 = pair
        if on_left:
            source = self.left.in_edge(b1, color)
            return None if source is None else (source, b2)
        source = self.right.in_edge(b2, color)
        return None if source is None else (b1, source)

    def even_highest_weights(self) -> list[Pair]:
        """Pairs with no incoming even edge, without visiting the whole product.

        ``b1 ⊗ b2`` qualifies iff ``eps_i(b1) = 0`` and
        ``eps_i(b2) <= phi_i(b1)`` for every even color, so only the even
        highest weights of the left factor are paired with the right factor.
        """
        colors = self.even_colors
        result = []
        for b1 in self.left.even_highest_weights():
            bounds = [(self._eps_right[c], self._phi_left[c][b1]) for c in colors]
            result.extend(
                (b1, b2)
                for b2 in self.right.vertex_ids
                if all(eps[b2] <= phi for eps, phi in bounds)
            )
        return result


def tensor_graphs(
    g1: CrystalGraph,
    g2: CrystalGraph,
    queer: bool = False,
    config: Config | None = None,
) -> CrystalGraph:
    """Tensor product graph on the full cartesian product of vertices.

    Materializes :class:`TensorView` over every pair; vertex ids are the
    view's payloads.

    Raises:
        DimensionMismatch: The two graphs have different weight lengths.
        ClosureBudgetExceeded: ``len(g1) * len(g2)`` exceeds
            ``config.max_vertices``; checked before the product is built.
        CycleDetected: A factor has a malformed monochromatic cycle.
    """
    config = config or DEFAULT_CONFIG
    view = TensorView(g1, g2, queer)
    size = len(g1) * len(g2)
    if size > config.max_vertices:
        raise ClosureBudgetExceeded(
            f"tensor product of {len(g1)} x {len(g2)} = {size} vertices "
            f"exceeds {config.max_vertices} vertices"
        )
    pair_id = {
        pair: view.payload_of(pair)
        for pair in itertools.product(g1.vertex_ids, g2.vertex_ids)
    }
    vertices = [Vertex(pid, pid, view.weight_of(pair)) for pair, pid in pair_id.items()]
    edges: list[Edge] = []
    for pair, src in pair_id.items():
        for color in view.colors:
            target = view.out_edge(pair, color)
            if target is not None:
                edges.append((src, color, pair_id[target]))
    return CrystalGraph(view.n, vertices, edges)


# -- serialization ------------------------------------------------------------

def _json_list(items: list[str], indent: str) -> str:
    """Encoded items laid out as ``json.dumps(..., indent=2)`` lays out a list."""
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]" if items else "[]"


def export_json(graph: CrystalGraph) -> str:
    """Canonical JSON text (sorted vertices and edges, trailing newline).

    The bytes of ``json.dumps(..., indent=2, ensure_ascii=False)``, written with
    each distinct id, weight and color encoded once."""
    ids = {vid: encode_basestring(vid) for vid in graph.vertices}
    weights = {w: _json_list([*map(int.__repr__, w)], "      ")
               for w in {v.weight for v in graph.vertices.values()}}
    colors = {c: encode_basestring(str(c)) for c in graph.colors}
    vertices = [
        f'{{\n      "id": {ids[vid]},\n      "payload": {encode_basestring(v.payload)},'
        f'\n      "weight": {weights[v.weight]}\n    }}'
        for vid, v in graph.vertices.items()
    ]
    edges = [
        f'{{\n      "src": {ids[src]},\n      "color": {colors[color]},'
        f'\n      "dst": {ids[dst]}\n    }}'
        for src, color, dst in graph.edges
    ]
    head = f'{{\n  "n": {int.__repr__(graph.n)},\n  "vertices": {_json_list(vertices, "  ")},'
    return head + f'\n  "edges": {_json_list(edges, "  ")}\n}}\n'


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_count(value: object) -> bool:
    """A non-negative integer; JSON ``true``/``false`` load as ``bool`` and fail."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _entry_error(item: object, kind: str, keys: tuple[str, ...]) -> ParseError:
    if not isinstance(item, dict):
        return ParseError(f"{kind} entries must be objects")
    return ParseError(f"{kind} missing key {next(k for k in keys if k not in item)!r}")


def import_json(text: str, config: Config | None = None) -> CrystalGraph:
    """Parse graph JSON produced by :func:`export_json`.

    Raises:
        ParseError: Malformed JSON or schema, including a negative or boolean
            ``n`` or weight, an edge color that :func:`color_from_str` refuses
            and an id, payload, src or dst that UTF-8 cannot encode; carries
            the failure position when the JSON itself does not parse.
        ClosureBudgetExceeded: The file lists more than
            ``config.max_vertices`` vertices; checked before any vertex is
            read.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("n", "vertices", "edges"):
        _require(key in data, f"missing key {key!r}")
    _require(_is_count(data["n"]), "'n' must be a non-negative integer")
    _require(isinstance(data["vertices"], list), "'vertices' must be a list")
    _require(isinstance(data["edges"], list), "'edges' must be a list")
    limit = (config or DEFAULT_CONFIG).max_vertices
    if len(data["vertices"]) > limit:
        raise ClosureBudgetExceeded(
            f"graph file lists {len(data['vertices'])} vertices, "
            f"over the budget of {limit} vertices"
        )
    vertices = []
    for item in data["vertices"]:
        try:
            vid, payload, weight = item["id"], item["payload"], item["weight"]
        except (KeyError, TypeError):
            raise _entry_error(item, "vertex", ("id", "payload", "weight")) from None
        if not isinstance(vid, str):
            raise ParseError("vertex id must be a string")
        if not isinstance(payload, str):
            raise ParseError("vertex payload must be a string")
        if not isinstance(weight, list) or not all(map(_is_count, weight)):
            raise ParseError(f"vertex {vid!r} weight must list non-negative integers")
        vertices.append(Vertex(vid, payload, tuple(weight)))
    edges = []
    colors: dict[str, Color] = {}
    for item in data["edges"]:
        try:
            src, label, dst = item["src"], item["color"], item["dst"]
        except (KeyError, TypeError):
            raise _entry_error(item, "edge", ("src", "color", "dst")) from None
        if not isinstance(src, str):
            raise ParseError("edge src must be a string")
        if not isinstance(dst, str):
            raise ParseError("edge dst must be a string")
        if not isinstance(label, str):
            raise ParseError("edge color must be a string")
        if label not in colors:
            colors[label] = color_from_str(label)
        edges.append((src, colors[label], dst))
    for field, texts in (("vertex id", [v.id for v in vertices]),
                         ("vertex payload", [v.payload for v in vertices]),
                         ("edge src", [e[0] for e in edges]), ("edge dst", [e[2] for e in edges])):
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{field} holds {exc.object[exc.start]!r}, not UTF-8 text") from None
    return CrystalGraph(data["n"], vertices, edges)


_INT_PALETTE = {0: "green", 1: "red", 2: "blue", 3: "purple"}
_INT_CYCLE = ("orange", "brown", "teal")
_ODD_CYCLE = ("magenta", "cyan", "gold", "gray")


def dot_color(color: Color) -> str:
    if isinstance(color, int):
        if color in _INT_PALETTE:
            return _INT_PALETTE[color]
        return _INT_CYCLE[(color - 4) % len(_INT_CYCLE)]
    digits = re.match(r"\d+", color)
    index = int(digits.group()) - 1 if digits else 0
    return _ODD_CYCLE[index % len(_ODD_CYCLE)]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: CrystalGraph) -> str:
    """Graphviz text with the fixed edge palette and payload labels."""
    ids = {vid: f'"{_dot_escape(vid)}"' for vid in graph.vertices}
    tails = {c: f' [color={dot_color(c)}, label="{c}"];' for c in graph.colors}
    lines = ["digraph crystal {", "  rankdir=TB;"]
    lines += [f'  {ids[vid]} [label="{_dot_escape(v.payload)}"];'
              for vid, v in graph.vertices.items()]
    lines += [f"  {ids[src]} -> {ids[dst]}{tails[color]}" for src, color, dst in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
