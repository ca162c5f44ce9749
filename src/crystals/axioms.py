"""Local structure checkers for colored crystal graphs.

``check_stembridge`` decides the even-color regularity axioms (string
finiteness, edge uniqueness, the difference tables for neighboring colors,
and the commuting-square/octagon relations), plus the two weight-consistency
rules every crystal satisfies: each color-``i`` edge moves weight by the
simple root ``alpha_i``, and string lengths satisfy
``phi_i - eps_i = wt_i - wt_{i+1}``.  The dual square and octagon axioms
(A5/A6) are the raising forms read on the reversed graph with ``eps`` and
``phi`` swapped, so one routine checks both directions.

``check_queer_regular`` layers the 0-color axioms on top; the two component
checkers classify the {0,1}- and {0,2}-colored subgraphs against their known
local shapes.

A checker reports its violations phase by phase: A1/A2, W1/W2, A3/A4, the
raising A5/A6 and the lowering A5/A6, then for the queer checker the 0-edge
W1, B2, B1, B3/B4, B5 and B6.  Fast mode (``exhaustive=False``) reports only
the first failing phase, and in A3-A6 and B3-B6, which are read vertex by
vertex, only that phase's first failing vertex; :func:`_verdict` is where it
stops.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import CycleDetected
from .graph import (
    Color,
    CrystalGraph,
    Weight,
    _component_groups,
    _index_edges,
    string_length_maps,
)

StringList = list[int]


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed check: axiom id, witness vertices, measured values."""

    axiom: str
    vertices: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "vertices": list(self.vertices),
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a checker; ``ok`` iff no violations were recorded."""

    ok: bool
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "notes": list(self.notes),
        }


def _verdict(groups: Iterable[list[Violation]], exhaustive: bool) -> Verdict:
    """The verdict on ``groups`` of violations read in report order; in fast
    mode the first group that holds any is the last one read."""
    found: list[Violation] = []
    for group in groups:
        found += group
        if found and not exhaustive:
            break
    return Verdict(not found, tuple(found))


def _by_vertex(found: list[tuple]) -> Iterator[list[Violation]]:
    """The ``(key, axiom, vertices, detail)`` entries found color by color,
    grouped per vertex in the order of a vertex-by-vertex scan (keys start
    with the vertex)."""
    found.sort(key=itemgetter(0))
    for _, entries in groupby(found, key=lambda entry: entry[0][0]):
        yield [Violation(*entry[1:]) for entry in entries]


def _name(ids: tuple[str, ...], k: int) -> str | None:
    return None if k < 0 else ids[k]


def _rows(graph: CrystalGraph, lists: dict, colors) -> dict:
    """Each color's list from ``lists``, all ``-1`` for a color without edges."""
    none = [-1] * len(graph)
    return {c: lists.get(c, none) for c in colors}


def _multi_report(graph: CrystalGraph, color: Color, axiom: str, what: str) -> list[Violation]:
    """Vertices with several edges of ``color`` out of or into them, outgoing first."""
    outs, ins = graph.multi_down.get(color, {}), graph.multi_up.get(color, {})
    ids, found = graph.vertex_ids, []
    for k in sorted(outs.keys() | ins.keys()):
        if k in outs:
            found.append(Violation(axiom, (ids[k],), f"{len(outs[k])} outgoing {what}"))
        if k in ins:
            found.append(Violation(axiom, (ids[k],), f"{len(ins[k])} incoming {what}"))
    return found


StringData = tuple[list[Violation], dict[int, StringList], dict[int, StringList]]


def _string_data(graph: CrystalGraph) -> StringData:
    """The A1/A2 violations of the even colors, and the per-color string
    length lists ``phi, eps`` of the colors that pass A1/A2."""
    phi: dict[int, StringList] = {}
    eps: dict[int, StringList] = {}
    found: list[Violation] = []
    # A color without edges matters only through the vertices' weights.
    for color in sorted({*range(1, graph.n if len(graph) else 0), *graph.int_colors}):
        multi = _multi_report(graph, color, "A2", f"edges of color {color}")
        found += multi
        if not multi:
            try:
                phi[color], eps[color] = string_length_maps(graph, color)
            except CycleDetected as exc:
                found.append(Violation("A1", (), str(exc)))
    return found, phi, eps


def _root_moves(weights: list[Weight], roots: Iterable[int]) -> dict[tuple[Weight, int], Weight]:
    """Each distinct weight moved by each simple root ``alpha_r``, keyed ``(weight, r)``."""
    moves = {}
    for weight in set(weights):
        for root in roots:
            shifted = list(weight)
            shifted[root - 1] -= 1
            shifted[root] += 1
            moves[weight, root] = tuple(shifted)
    return moves


def _weight_rules(
    graph: CrystalGraph, phi: dict[int, StringList], eps: dict[int, StringList]
) -> list[Violation]:
    """W1 on the even edges, then W2 on the colors with string lengths."""
    n, ids, weights = graph.n, graph.vertex_ids, graph.weights
    moves = _root_moves(weights, [c for c in graph.int_colors if c < n])
    found = []
    for s, color, d in _index_edges(graph, colors=graph.int_colors):
        if color + 1 > n:
            found.append(Violation("W1", (ids[s], ids[d]),
                                   f"edge color {color} outside weight range 1..{n - 1}"))
        elif (expected := moves[weights[s], color]) != weights[d]:
            found.append(Violation("W1", (ids[s], ids[d]), f"color {color} edge moves weight "
                                   f"{weights[s]} to {weights[d]}, expected {expected}"))
    for color in phi:
        if color + 1 > n:
            continue
        for k, (weight, p, e) in enumerate(zip(weights, phi[color], eps[color])):
            diff = weight[color - 1] - weight[color]
            if p - e != diff:
                found.append(Violation("W2", (ids[k],), f"phi_{color} - eps_{color} = {p - e}, "
                                       f"weight difference = {diff}"))
    return found


def _walk(up: dict[int, list[int]], k: int, colors: tuple[int, ...]) -> int:
    for color in colors:
        k = up[color][k]
        if k < 0:
            break
    return k


def _check_squares(
    graph: CrystalGraph,
    usable: list[int],
    up: dict[int, list[int]],
    down: dict[int, list[int]],
    to_top: dict[int, StringList],
    to_bottom: dict[int, StringList],
    words: tuple[str, str, str, str],
) -> list[tuple]:
    """A5/A6 along ``up`` moves, guarded by ``to_top`` string lengths, as
    :func:`_by_vertex` entries.

    ``words`` name the direction in the details: the move, the statistic at
    the far corner, that corner, and the octagon prefix.
    """
    move, stat, corner, octagon = words
    ids = graph.vertex_ids
    found = []
    for i in usable:
        up_i, top_i, bottom_i, down_i = up[i], to_top[i], to_bottom[i], down[i]
        edges_i = [(x, yi) for x, yi in enumerate(up_i) if yi >= 0]
        if not edges_i:
            continue
        for j in usable:
            if j == i:
                continue
            up_j, top_j, bottom_j, down_j = up[j], to_top[j], to_bottom[j], down[j]
            for x, yi in edges_i:
                yj = up_j[x]
                if yj < 0:
                    continue
                d_ij = top_j[x] - top_j[yi]
                if d_ij == 0:
                    # A5: the square must close, with a flat far corner.
                    a, b = up_j[yi], up_i[yj]
                    if a < 0 or b < 0 or a != b:
                        found.append(((x, i, j), "A5", (ids[x],), f"colors {i},{j}: {move} square "
                                      f"does not close ({_name(ids, a)!r} vs {_name(ids, b)!r})"))
                    elif (flat := bottom_i[a] - bottom_i[down_j[a]]) != 0:
                        found.append(((x, i, j), "A5", (ids[x], ids[a]), f"colors {i},{j}: "
                                      f"{stat}_{i} at closed square {corner} = {flat}, expected 0"))
                elif d_ij == -1 and i < j and top_i[x] - top_i[yj] == -1:
                    # A6: degenerate octagon through double moves.
                    a, b = _walk(up, x, (i, j, j, i)), _walk(up, x, (j, i, i, j))
                    if a < 0 or b < 0 or a != b:
                        found.append(((x, i, j), "A6", (ids[x],), f"colors {i},{j}: {octagon}"
                                      f"octagon does not close ({_name(ids, a)!r} vs "
                                      f"{_name(ids, b)!r})"))
                        continue
                    n_ij = bottom_j[a] - bottom_j[down_i[a]]
                    n_ji = bottom_i[a] - bottom_i[down_j[a]]
                    if n_ij != -1 or n_ji != -1:
                        found.append(((x, i, j), "A6", (ids[x], ids[a]), f"colors {i},{j}: {stat} "
                                      f"at octagon {corner} = ({n_ij}, {n_ji}), expected (-1, -1)"))
    return found


def _even_groups(graph: CrystalGraph, strings: StringData) -> Iterator[list[Violation]]:
    """The even axioms' violation groups, read off ``strings`` from :func:`_string_data`."""
    found, phi, eps = strings
    yield found
    yield _weight_rules(graph, phi, eps)

    usable = list(phi)
    ids = graph.vertex_ids
    up = _rows(graph, graph.up, usable)
    down = _rows(graph, graph.down, usable)
    # A3/A4: neighbor-color difference tables, one color pair at a time.
    found = []
    for i in usable:
        edges_i = [(x, y) for x, y in enumerate(up[i]) if y >= 0]
        if not edges_i:
            continue
        for j in usable:
            e, p = eps[j], phi[j]
            expected = 2 if j == i else (-1 if abs(i - j) == 1 else 0)
            for x, y in edges_i:
                d_eps = e[x] - e[y]
                d_phi = p[y] - p[x]
                if d_eps + d_phi != expected:
                    found.append(((x, i, j, 0), "A3", (ids[x],), f"raising color {i}: delta eps_{j}"
                                  f" + delta phi_{j} = {d_eps + d_phi}, expected {expected}"))
                if j != i and (d_eps > 0 or d_phi > 0):
                    found.append(((x, i, j, 1), "A4", (ids[x],), f"raising color {i}: delta eps_{j}"
                                  f" = {d_eps}, delta phi_{j} = {d_phi}, expected both <= 0"))
    yield from _by_vertex(found)

    # The dual A5/A6 are the raising forms on the reversed graph.
    yield from _by_vertex(_check_squares(
        graph, usable, up, down, eps, phi, ("raising", "nabla phi", "top", "")))
    yield from _by_vertex(_check_squares(
        graph, usable, down, up, phi, eps, ("lowering", "delta eps", "bottom", "lowering ")))


def check_stembridge(graph: CrystalGraph, exhaustive: bool = True) -> Verdict:
    """Check the even regularity axioms plus the weight rules.

    In exhaustive mode every applicable vertex is checked and all failures
    returned; otherwise the first failing phase stops the scan.
    """
    return _verdict(_even_groups(graph, _string_data(graph)), exhaustive)


def _queer_groups(graph: CrystalGraph) -> Iterator[list[Violation]]:
    strings = _string_data(graph)
    for group in _even_groups(graph, strings):
        yield [Violation("B0/" + v.axiom, v.vertices, v.detail) for v in group]
    _, phi, eps = strings
    n, ids, weights = graph.n, graph.vertex_ids, graph.weights
    # Weight rule for 0-edges: same root as color 1.
    moves = _root_moves(weights, (1,) if n >= 2 else ())
    found = []
    for s, _, d in _index_edges(graph, colors=(0,)):
        if n < 2:
            found.append(Violation("W1", (ids[s], ids[d]),
                                   "0-edge needs at least two weight coordinates"))
        elif (expected := moves[weights[s], 1]) != weights[d]:
            found.append(Violation("W1", (ids[s], ids[d]), f"0-edge moves weight {weights[s]} "
                                   f"to {weights[d]}, expected {expected}"))
    yield found
    # B2: unique 0-edges.
    yield _multi_report(graph, 0, "B2", "0-edges")

    # Structural failures on even colors were already reported through B0.
    usable = [c for c in phi if c < n]
    down = _rows(graph, graph.down, (0, *usable))
    up = _rows(graph, graph.up, (0, *usable))
    # B1: 0-strings have length at most 1, present exactly when weight allows.
    found = []
    for k, (lower0, raise0, weight) in enumerate(zip(down[0], up[0], weights)):
        has_in, has_out = raise0 >= 0, lower0 >= 0
        if has_in and has_out:
            found.append(Violation("B1", (ids[k],), "0-path of length 2 through this vertex"))
        positive = sum(weight[:2]) > 0
        if (has_in ^ has_out) != positive:
            found.append(Violation("B1", (ids[k],), f"eps_0 + phi_0 = {int(has_in) + int(has_out)}"
                                   f" but wt_1 + wt_2 > 0 is {positive}"))
    yield found

    zero_edges = [(x, y) for x, y in enumerate(up[0]) if y >= 0]
    # B3/B4: how the 0-move shifts even string lengths.
    for x, y in zero_edges:
        found = []
        for i in usable:
            d_eps = eps[i][x] - eps[i][y]
            d_phi = phi[i][y] - phi[i][x]
            expected = 2 if i <= 1 else (-1 if i == 2 else 0)
            if d_eps + d_phi != expected:
                found.append(Violation("B3", (ids[x],), f"color {i}: delta_0 eps + delta_0 phi = "
                                       f"{d_eps + d_phi}, expected {expected}"))
            if i == 1 and not (d_eps >= 0 and d_phi > 0):
                found.append(Violation("B4", (ids[x],), f"color 1: delta_0 eps = {d_eps} "
                                       f"(need >= 0), delta_0 phi = {d_phi} (need > 0)"))
            elif i == 2 and not (d_eps <= 0 and d_phi <= 0):
                found.append(Violation("B4", (ids[x],), f"color 2: delta_0 eps = {d_eps}, "
                                       f"delta_0 phi = {d_phi}, expected both <= 0"))
            elif i >= 3 and not (d_eps == 0 and d_phi == 0):
                found.append(Violation("B4", (ids[x],), f"color {i}: delta_0 eps = {d_eps}, "
                                       f"delta_0 phi = {d_phi}, expected both 0"))
        yield found

    # B5: squares between the 0-move and even moves.
    for z, (lower0, raise0) in enumerate(zip(down[0], up[0])):
        found = []
        for i in usable if lower0 >= 0 else ():
            lower = down[i][z]
            if i < 2 or lower < 0:
                continue
            a, b = down[i][lower0], down[0][lower]
            if a < 0 or b < 0 or a != b:
                found.append(Violation("B5", (ids[z],), f"color {i}: lowering square with the "
                                       f"0-move does not close ({_name(ids, a)!r} vs "
                                       f"{_name(ids, b)!r})"))
        for i in usable if raise0 >= 0 else ():
            upper = up[i][z]
            if i == 2 or upper < 0 or upper == raise0:
                continue
            a, b = up[i][raise0], up[0][upper]
            if a < 0 or b < 0 or a != b:
                found.append(Violation("B5", (ids[z],), f"color {i}: raising square with the "
                                       f"0-move does not close ({_name(ids, a)!r} vs "
                                       f"{_name(ids, b)!r})"))
        yield found

    # B6: interaction of the 0-move with colors 1 and 2.
    for x, y in zero_edges:
        found = []
        if 1 in usable and eps[1][x] - eps[1][y] == 1:
            if phi[1][x] != 0:
                found.append(Violation("B6", (ids[x],), f"delta_0 eps_1 = 1 but phi_1 = "
                                       f"{phi[1][x]}, expected 0"))
            if up[1][x] != y:
                found.append(Violation("B6", (ids[x],), "delta_0 eps_1 = 1 but the color-1 and "
                                       "color-0 raising moves disagree"))
        d_phi2 = phi[2][y] - phi[2][x] if 2 in usable else 0
        phi2 = phi[2][x] if 2 in usable else 0
        if (d_phi2 == 0) != (phi2 == 0):
            found.append(Violation("B6", (ids[x],), f"delta_0 phi_2 = {d_phi2} but phi_2 = "
                                   f"{phi2}; the two must vanish together"))
        yield found


def check_queer_regular(graph: CrystalGraph, exhaustive: bool = True) -> Verdict:
    """Check the 0-color axioms on top of even regularity.

    The even axioms run on the graph itself, where they ignore color 0 and
    odd labels; the 0-color rules cover string shape (B1/B2), the
    difference tables against colors 1 and 2 (B3/B4), the commuting squares
    (B5), and the two color-1/color-2 implications (B6), plus the 0-edge
    weight rule.
    """
    return _verdict(_queer_groups(graph), exhaustive)


def _classify_components(graph: CrystalGraph, colors: tuple[int, int], axiom: str,
                         classify) -> Verdict:
    """Note each isolated vertex of the ``colors`` subgraph, and run
    ``classify(group, edges)`` on every other component: it returns
    ``(ok, vertex, text)``, a note on ``vertex`` or the violation there."""
    ids = graph.vertex_ids
    edges_at: list[list[tuple]] = [[] for _ in range(len(graph))]
    for edge in _index_edges(graph, colors=colors):
        edges_at[edge[0]].append(edge)
    found, notes = [], []
    for group in _component_groups(graph, colors):
        comp_edges = [edge for u in group for edge in edges_at[u]]
        if len(group) == 1 and not comp_edges:
            notes.append(f"{ids[group[0]]}: isolated vertex")
            continue
        ok, vertex, text = classify(group, comp_edges)
        if ok:
            notes.append(f"{ids[vertex]}: {text}")
        else:
            found.append(Violation(axiom, (ids[vertex],), text))
    return Verdict(not found, tuple(found), tuple(notes))


def check_01_components(graph: CrystalGraph) -> Verdict:
    """Classify every {0,1}-colored component against its known shapes.

    Valid shapes: an isolated vertex, or a color-1 chain ``a_0 .. a_k`` whose
    final edge is doubled by a parallel 0-edge, together with a shadow chain
    ``b_0 .. b_{k-2}`` attached by 0-edges ``a_j -> b_j``.
    """
    down0 = _rows(graph, graph.down, (0,))[0]
    up1 = _rows(graph, graph.up, (1,))[1]

    def classify(group: list[int], comp_edges: list[tuple]) -> tuple[bool, int, str]:
        witness = group[0]
        edge_set = set(comp_edges)
        pairs = [(u, v) for (u, c, v) in comp_edges if c == 1 and (u, 0, v) in edge_set]
        if len(pairs) != 1:
            return (False, witness,
                    f"expected exactly one parallel {{0,1}} edge pair, found {len(pairs)}")
        tail_src, tail_dst = pairs[0]
        chain = [tail_src]
        while len(chain) <= len(group) and up1[chain[0]] >= 0:
            chain.insert(0, up1[chain[0]])
        a = chain + [tail_dst]
        k = len(a) - 1
        b = [down0[a[j]] for j in range(k - 1)]
        if -1 in b:
            return False, a[b.index(-1)], "chain vertex lacks the required 0-edge to its shadow"
        expected_vertices = set(a) | set(b)
        expected_edges = (
            {(a[j], 1, a[j + 1]) for j in range(k)}
            | {(b[j], 1, b[j + 1]) for j in range(len(b) - 1)}
            | {(a[j], 0, b[j]) for j in range(k - 1)}
            | {(a[k - 1], 0, a[k])}
        )
        if (len(expected_vertices) != 2 * k or set(group) != expected_vertices
                or edge_set != expected_edges):
            return False, witness, f"component does not match the doubled-chain shape with k={k}"
        return True, witness, f"doubled chain, k={k}"

    return _classify_components(graph, (0, 1), "C01", classify)


def _fit_ladder(
    down: dict[int, list[int]], source: int, size: int
) -> tuple[list[int], list[int]] | None:
    """Fit ``source`` as the head of a ladder in a component of ``size`` vertices.

    Returns (z-chain, x-chain); ``size`` bounds a color-2 walk into a cycle.
    """
    down0, down2 = down[0], down[2]
    z = [source]
    while len(z) <= size and down2[z[-1]] >= 0:
        z.append(down2[z[-1]])
    x = [down0[zj] for zj in z]
    if -1 in x:
        return None
    for j in range(len(x) - 1):
        if down2[x[j]] != x[j + 1]:
            return None
    if down2[x[-1]] < 0:
        return None
    x.append(down2[x[-1]])
    if len(set(z) | set(x)) != len(z) + len(x):
        return None  # a walk revisits a vertex, or the two walks meet
    return z, x


def _ladder_facts(z: list[int], x: list[int]) -> tuple[set[int], set]:
    vertices = set(z) | set(x)
    edges = (
        {(z[j], 2, z[j + 1]) for j in range(len(z) - 1)}
        | {(x[j], 2, x[j + 1]) for j in range(len(x) - 1)}
        | {(z[j], 0, x[j]) for j in range(len(z))}
    )
    return vertices, edges


def check_02_components(graph: CrystalGraph) -> Verdict:
    """Classify every {0,2}-colored component against the ladder shapes.

    Valid shapes: an isolated vertex; a ladder (a color-2 chain of rung
    sources, a one-longer color-2 chain of rung targets, and the 0-rungs);
    or two ladders of consecutive sizes joined by one optional 0-edge
    between their final rung-target vertices.  The notes record which shape
    occurred and whether the optional 0-link is present.  When the whole
    graph has no color-2 edges, a bare 0-edge pair is the degenerate ladder.
    """
    ids = graph.vertex_ids
    has_two = 2 in graph.down
    down = _rows(graph, graph.down, (0, 2))
    up = _rows(graph, graph.up, (0, 2))

    def classify(group: list[int], comp_edges: list[tuple]) -> tuple[bool, int, str]:
        witness = group[0]
        if not has_two:
            if len(group) == 2 and len(comp_edges) == 1 and comp_edges[0][1] == 0:
                return True, witness, "bare 0-edge (graph has no color-2 edges)"
            return False, witness, "without color-2 edges only bare 0-edges are admissible"
        sources = [v for v in group if up[0][v] < 0 and up[2][v] < 0]
        z_sources = [s for s in sources if down[0][s] >= 0]
        if sources != z_sources or not 1 <= len(z_sources) <= 2:
            return (False, witness,
                    f"expected 1 or 2 ladder heads, found sources {[ids[v] for v in sources]}")
        fits = [_fit_ladder(down, s, len(group)) for s in z_sources]
        if any(f is None for f in fits):
            return False, witness, "a source does not head a well-formed ladder"
        edge_set = set(comp_edges)
        if len(fits) == 1:
            z, x = fits[0]
            vertices, edges = _ladder_facts(z, x)
            m = len(z)
            if set(group) == vertices and edge_set == edges:
                return True, witness, f"single ladder m={m}, 0-link absent"
            link = down[0][x[-1]]
            if (link >= 0 and set(group) == vertices | {link}
                    and edge_set == edges | {(x[-1], 0, link)}):
                return True, witness, f"double ladder m={m}, 0-link present"
            return False, witness, f"component does not match a ladder of size m={m}"
        (z1, x1), (z2, x2) = fits
        if len(z1) < len(z2):
            (z1, x1), (z2, x2) = (z2, x2), (z1, x1)
        m1, m2 = len(z1), len(z2)
        if m1 != m2 + 1:
            return (False, witness,
                    f"two ladders must have consecutive sizes, found m={m1} and m={m2}")
        v1, e1 = _ladder_facts(z1, x1)
        v2, e2 = _ladder_facts(z2, x2)
        if (down[0][x1[-1]] == x2[-1] and set(group) == v1 | v2
                and edge_set == e1 | e2 | {(x1[-1], 0, x2[-1])}):
            return True, witness, f"double ladder m={m1}, 0-link present"
        return False, witness, f"component does not match the linked double ladder m={m1}"

    return _classify_components(graph, (0, 2), "C02", classify)
