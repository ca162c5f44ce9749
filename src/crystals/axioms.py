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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import CycleDetected
from .graph import CrystalGraph, _component_groups, string_length_maps

StringMap = dict[str, int]
Step = Callable[[str, int], str | None]


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


def _verdict(violations: list[Violation], notes: list[str] | None = None) -> Verdict:
    return Verdict(not violations, tuple(violations), tuple(notes or ()))


class _Collector:
    """Accumulates violations; in fast mode one violation stops the caller."""

    def __init__(self, exhaustive: bool) -> None:
        self.exhaustive = exhaustive
        self.items: list[Violation] = []

    def add(self, axiom: str, vertices: tuple[str, ...], detail: str) -> None:
        self.items.append(Violation(axiom, vertices, detail))

    @property
    def done(self) -> bool:
        return bool(self.items) and not self.exhaustive


def _string_data(
    graph: CrystalGraph, colors: list[int], out: _Collector
) -> tuple[dict[int, StringMap], dict[int, StringMap], dict[int, bool]]:
    """Per-color string length maps plus A1/A2 screening."""
    phi: dict[int, StringMap] = {}
    eps: dict[int, StringMap] = {}
    valid: dict[int, bool] = {}
    for color in colors:
        clean = True
        for vid in graph.vertex_ids:
            outs = graph.out_all(vid, color)
            if len(outs) > 1:
                out.add("A2", (vid,), f"{len(outs)} outgoing edges of color {color}")
                clean = False
            ins = graph.in_all(vid, color)
            if len(ins) > 1:
                out.add("A2", (vid,), f"{len(ins)} incoming edges of color {color}")
                clean = False
        if clean:
            try:
                phi[color], eps[color] = string_length_maps(graph, color)
            except CycleDetected as exc:
                out.add("A1", (), str(exc))
                clean = False
        valid[color] = clean
    return phi, eps, valid


def _check_weight_rules(
    graph: CrystalGraph,
    phi: dict[int, StringMap],
    eps: dict[int, StringMap],
    valid: dict[int, bool],
    out: _Collector,
) -> None:
    n = graph.n
    for src, color, dst in graph.edges:
        if not isinstance(color, int) or color < 1:
            continue
        if color + 1 > n:
            out.add("W1", (src, dst), f"edge color {color} outside weight range 1..{n - 1}")
            continue
        expected = list(graph.weight_of(src))
        expected[color - 1] -= 1
        expected[color] += 1
        if tuple(expected) != graph.weight_of(dst):
            out.add(
                "W1",
                (src, dst),
                f"color {color} edge moves weight {graph.weight_of(src)} to "
                f"{graph.weight_of(dst)}, expected {tuple(expected)}",
            )
    for color, ok in valid.items():
        if not ok or color + 1 > n:
            continue
        for vid in graph.vertex_ids:
            weight = graph.weight_of(vid)
            diff = weight[color - 1] - weight[color]
            measured = phi[color][vid] - eps[color][vid]
            if measured != diff:
                out.add(
                    "W2",
                    (vid,),
                    f"phi_{color} - eps_{color} = {measured}, "
                    f"weight difference = {diff}",
                )


def _walk(step: Step, vid: str | None, colors: tuple[int, ...]) -> str | None:
    for color in colors:
        vid = step(vid, color)
        if vid is None:
            break
    return vid


def _check_squares(
    graph: CrystalGraph,
    usable: list[int],
    up: Step,
    down: Step,
    to_top: dict[int, StringMap],
    to_bottom: dict[int, StringMap],
    words: tuple[str, str, str, str],
    out: _Collector,
) -> None:
    """A5/A6 along ``up`` moves, guarded by ``to_top`` string lengths.

    ``words`` name the direction in the details: the move, the statistic at
    the far corner, that corner, and the octagon prefix.
    """
    move, stat, corner, octagon = words
    for x in graph.vertex_ids:
        for i in usable:
            yi = up(x, i)
            if yi is None:
                continue
            for j in usable:
                if j == i:
                    continue
                yj = up(x, j)
                if yj is None:
                    continue
                d_ij = to_top[j][x] - to_top[j][yi]
                if d_ij == 0:
                    # A5: the square must close, with a flat far corner.
                    a = up(yi, j)
                    b = up(yj, i)
                    if a is None or b is None or a != b:
                        out.add(
                            "A5",
                            (x,),
                            f"colors {i},{j}: {move} square does not close "
                            f"({a!r} vs {b!r})",
                        )
                        continue
                    flat = to_bottom[i][a] - to_bottom[i][down(a, j)]
                    if flat != 0:
                        out.add(
                            "A5",
                            (x, a),
                            f"colors {i},{j}: {stat}_{i} at closed square "
                            f"{corner} = {flat}, expected 0",
                        )
                elif d_ij == -1 and i < j and to_top[i][x] - to_top[i][yj] == -1:
                    # A6: degenerate octagon through double moves.
                    a = _walk(up, x, (i, j, j, i))
                    b = _walk(up, x, (j, i, i, j))
                    if a is None or b is None or a != b:
                        out.add(
                            "A6",
                            (x,),
                            f"colors {i},{j}: {octagon}octagon does not close "
                            f"({a!r} vs {b!r})",
                        )
                        continue
                    n_ij = to_bottom[j][a] - to_bottom[j][down(a, i)]
                    n_ji = to_bottom[i][a] - to_bottom[i][down(a, j)]
                    if n_ij != -1 or n_ji != -1:
                        out.add(
                            "A6",
                            (x, a),
                            f"colors {i},{j}: {stat} at octagon {corner} = "
                            f"({n_ij}, {n_ji}), expected (-1, -1)",
                        )
        if out.done:
            return


def _check_even(
    graph: CrystalGraph, out: _Collector
) -> tuple[dict[int, StringMap], dict[int, StringMap], dict[int, bool]]:
    """Even axioms into ``out``; returns the ``(phi, eps, valid)`` it computed."""
    colors = sorted(set(range(1, graph.n)) | set(graph.int_colors))
    phi, eps, valid = _string_data(graph, colors, out)
    if out.done:
        return phi, eps, valid
    _check_weight_rules(graph, phi, eps, valid, out)
    if out.done:
        return phi, eps, valid

    usable = [c for c in colors if valid.get(c)]
    for x in graph.vertex_ids:
        for i in usable:
            y = graph.in_edge(x, i)
            if y is None:
                continue
            # A3/A4: neighbor-color difference tables.
            for j in usable:
                d_eps = eps[j][x] - eps[j][y]
                d_phi = phi[j][y] - phi[j][x]
                expected = 2 if j == i else (-1 if abs(i - j) == 1 else 0)
                if d_eps + d_phi != expected:
                    out.add(
                        "A3",
                        (x,),
                        f"raising color {i}: delta eps_{j} + delta phi_{j} = "
                        f"{d_eps + d_phi}, expected {expected}",
                    )
                if j != i and (d_eps > 0 or d_phi > 0):
                    out.add(
                        "A4",
                        (x,),
                        f"raising color {i}: delta eps_{j} = {d_eps}, "
                        f"delta phi_{j} = {d_phi}, expected both <= 0",
                    )
        if out.done:
            return phi, eps, valid

    # The dual A5/A6 are the raising forms on the reversed graph.
    _check_squares(
        graph, usable, graph.in_edge, graph.out_edge, eps, phi,
        ("raising", "nabla phi", "top", ""), out,
    )
    if not out.done:
        _check_squares(
            graph, usable, graph.out_edge, graph.in_edge, phi, eps,
            ("lowering", "delta eps", "bottom", "lowering "), out,
        )
    return phi, eps, valid


def check_stembridge(graph: CrystalGraph, exhaustive: bool = True) -> Verdict:
    """Check the even regularity axioms plus the weight rules.

    In exhaustive mode every applicable vertex is checked and all failures
    returned; otherwise the first failing phase stops the scan.
    """
    out = _Collector(exhaustive)
    _check_even(graph, out)
    return _verdict(out.items)


def check_queer_regular(graph: CrystalGraph, exhaustive: bool = True) -> Verdict:
    """Check the 0-color axioms on top of even regularity.

    The even axioms run on the graph itself, where they ignore color 0 and
    odd labels; the 0-color rules cover string shape (B1/B2), the
    difference tables against colors 1 and 2 (B3/B4), the commuting squares
    (B5), and the two color-1/color-2 implications (B6), plus the 0-edge
    weight rule.
    """
    out = _Collector(exhaustive)
    phi, eps, valid = _check_even(graph, out)
    out.items = [Violation(f"B0/{v.axiom}", v.vertices, v.detail) for v in out.items]
    if out.done:
        return _verdict(out.items)

    n = graph.n
    # Weight rule for 0-edges: same root as color 1.
    for src, color, dst in graph.edges:
        if color != 0:
            continue
        if n < 2:
            out.add("W1", (src, dst), "0-edge needs at least two weight coordinates")
            continue
        expected = list(graph.weight_of(src))
        expected[0] -= 1
        expected[1] += 1
        if tuple(expected) != graph.weight_of(dst):
            out.add(
                "W1",
                (src, dst),
                f"0-edge moves weight {graph.weight_of(src)} to "
                f"{graph.weight_of(dst)}, expected {tuple(expected)}",
            )
    if out.done:
        return _verdict(out.items)

    # B2: unique 0-edges.
    for vid in graph.vertex_ids:
        outs = graph.out_all(vid, 0)
        if len(outs) > 1:
            out.add("B2", (vid,), f"{len(outs)} outgoing 0-edges")
        ins = graph.in_all(vid, 0)
        if len(ins) > 1:
            out.add("B2", (vid,), f"{len(ins)} incoming 0-edges")
    if out.done:
        return _verdict(out.items)

    # B1: 0-strings have length at most 1, present exactly when weight allows.
    for vid in graph.vertex_ids:
        has_in = graph.in_edge(vid, 0) is not None
        has_out = graph.out_edge(vid, 0) is not None
        if has_in and has_out:
            out.add("B1", (vid,), "0-path of length 2 through this vertex")
        weight = graph.weight_of(vid)
        positive = (weight[0] if n >= 1 else 0) + (weight[1] if n >= 2 else 0) > 0
        if ((has_in ^ has_out)) != positive:
            out.add(
                "B1",
                (vid,),
                f"eps_0 + phi_0 = {int(has_in) + int(has_out)} but "
                f"wt_1 + wt_2 > 0 is {positive}",
            )
    if out.done:
        return _verdict(out.items)

    # Structural failures on even colors were already reported through B0.
    usable = [c for c in range(1, n) if valid.get(c)]

    # B3/B4: how the 0-move shifts even string lengths.
    for x in graph.vertex_ids:
        y = graph.in_edge(x, 0)
        if y is None:
            continue
        for i in usable:
            d_eps = eps[i][x] - eps[i][y]
            d_phi = phi[i][y] - phi[i][x]
            expected = 2 if i <= 1 else (-1 if i == 2 else 0)
            if d_eps + d_phi != expected:
                out.add(
                    "B3",
                    (x,),
                    f"color {i}: delta_0 eps + delta_0 phi = {d_eps + d_phi}, "
                    f"expected {expected}",
                )
            if i == 1 and not (d_eps >= 0 and d_phi > 0):
                out.add(
                    "B4",
                    (x,),
                    f"color 1: delta_0 eps = {d_eps} (need >= 0), "
                    f"delta_0 phi = {d_phi} (need > 0)",
                )
            elif i == 2 and not (d_eps <= 0 and d_phi <= 0):
                out.add(
                    "B4",
                    (x,),
                    f"color 2: delta_0 eps = {d_eps}, delta_0 phi = {d_phi}, "
                    f"expected both <= 0",
                )
            elif i >= 3 and not (d_eps == 0 and d_phi == 0):
                out.add(
                    "B4",
                    (x,),
                    f"color {i}: delta_0 eps = {d_eps}, delta_0 phi = {d_phi}, "
                    f"expected both 0",
                )
        if out.done:
            return _verdict(out.items)

    # B5: squares between the 0-move and even moves.
    for z in graph.vertex_ids:
        down0 = graph.out_edge(z, 0)
        if down0 is not None:
            for i in usable:
                if i < 2:
                    continue
                downi = graph.out_edge(z, i)
                if downi is None:
                    continue
                a = graph.out_edge(down0, i)
                b = graph.out_edge(downi, 0)
                if a is None or b is None or a != b:
                    out.add(
                        "B5",
                        (z,),
                        f"color {i}: lowering square with the 0-move does not "
                        f"close ({a!r} vs {b!r})",
                    )
        up0 = graph.in_edge(z, 0)
        if up0 is not None:
            for i in usable:
                if i == 2:
                    continue
                upi = graph.in_edge(z, i)
                if upi is None or upi == up0:
                    continue
                a = graph.in_edge(up0, i)
                b = graph.in_edge(upi, 0)
                if a is None or b is None or a != b:
                    out.add(
                        "B5",
                        (z,),
                        f"color {i}: raising square with the 0-move does not "
                        f"close ({a!r} vs {b!r})",
                    )
        if out.done:
            return _verdict(out.items)

    # B6: interaction of the 0-move with colors 1 and 2.
    for x in graph.vertex_ids:
        y = graph.in_edge(x, 0)
        if y is None:
            continue
        if 1 in usable:
            d_eps1 = eps[1][x] - eps[1][y]
            if d_eps1 == 1:
                if phi[1][x] != 0:
                    out.add(
                        "B6",
                        (x,),
                        f"delta_0 eps_1 = 1 but phi_1 = {phi[1][x]}, expected 0",
                    )
                if graph.in_edge(x, 1) != y:
                    out.add(
                        "B6",
                        (x,),
                        "delta_0 eps_1 = 1 but the color-1 and color-0 raising "
                        "moves disagree",
                    )
        if 2 in usable:
            d_phi2 = phi[2][y] - phi[2][x]
        else:
            d_phi2 = 0
        phi2 = phi[2][x] if 2 in usable else 0
        if (d_phi2 == 0) != (phi2 == 0):
            out.add(
                "B6",
                (x,),
                f"delta_0 phi_2 = {d_phi2} but phi_2 = {phi2}; the two must "
                f"vanish together",
            )
        if out.done:
            return _verdict(out.items)

    return _verdict(out.items)


def check_01_components(graph: CrystalGraph) -> Verdict:
    """Classify every {0,1}-colored component against its known shapes.

    Valid shapes: an isolated vertex, or a color-1 chain ``a_0 .. a_k`` whose
    final edge is doubled by a parallel 0-edge, together with a shadow chain
    ``b_0 .. b_{k-2}`` attached by 0-edges ``a_j -> b_j``.
    """
    out = _Collector(True)
    notes: list[str] = []
    for group in _component_groups(graph, (0, 1)):
        ids = sorted(group)
        witness = ids[0]
        # Every 0/1-edge at a vertex lies in its component: no copy is needed.
        comp_edges = [(u, c, v) for u in ids for c in (0, 1) for v in graph.out_all(u, c)]
        if len(ids) == 1 and not comp_edges:
            notes.append(f"{witness}: isolated vertex")
            continue
        edge_set = set(comp_edges)
        pairs = [
            (u, v) for (u, c, v) in comp_edges if c == 1 and (u, 0, v) in edge_set
        ]
        if len(pairs) != 1:
            out.add(
                "C01",
                (witness,),
                f"expected exactly one parallel {{0,1}} edge pair, found {len(pairs)}",
            )
            continue
        tail_src, tail_dst = pairs[0]
        chain = [tail_src]
        while len(chain) <= len(ids):
            prev = graph.in_edge(chain[0], 1)
            if prev is None:
                break
            chain.insert(0, prev)
        a = chain + [tail_dst]
        k = len(a) - 1
        b = [graph.out_edge(a[j], 0) for j in range(k - 1)]
        if None in b:
            out.add(
                "C01",
                (a[b.index(None)],),
                "chain vertex lacks the required 0-edge to its shadow",
            )
            continue
        expected_vertices = set(a) | set(b)
        expected_edges = (
            {(a[j], 1, a[j + 1]) for j in range(k)}
            | {(b[j], 1, b[j + 1]) for j in range(len(b) - 1)}
            | {(a[j], 0, b[j]) for j in range(k - 1)}
            | {(a[k - 1], 0, a[k])}
        )
        if (
            len(expected_vertices) != 2 * k
            or group != expected_vertices
            or edge_set != expected_edges
        ):
            out.add(
                "C01",
                (witness,),
                f"component does not match the doubled-chain shape with k={k}",
            )
            continue
        notes.append(f"{witness}: doubled chain, k={k}")
    return _verdict(out.items, notes)


def _fit_ladder(
    graph: CrystalGraph, source: str, size: int
) -> tuple[list[str], list[str]] | None:
    """Fit ``source`` as the head of a ladder in a component of ``size`` vertices.

    Returns (z-chain, x-chain); ``size`` bounds a color-2 walk into a cycle.
    """
    z = [source]
    while len(z) <= size:
        nxt = graph.out_edge(z[-1], 2)
        if nxt is None:
            break
        z.append(nxt)
    x: list[str] = []
    for zj in z:
        rung = graph.out_edge(zj, 0)
        if rung is None:
            return None
        x.append(rung)
    for j in range(len(x) - 1):
        if graph.out_edge(x[j], 2) != x[j + 1]:
            return None
    last = graph.out_edge(x[-1], 2)
    if last is None:
        return None
    x.append(last)
    if len(set(z) | set(x)) != len(z) + len(x):
        return None  # a walk revisits a vertex, or the two walks meet
    return z, x


def _ladder_facts(z: list[str], x: list[str]) -> tuple[set[str], set]:
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
    out = _Collector(True)
    notes: list[str] = []
    has_two = any(c == 2 for _, c, _ in graph.edges)
    for group in _component_groups(graph, (0, 2)):
        ids = sorted(group)
        witness = ids[0]
        comp_edges = [(u, c, v) for u in ids for c in (0, 2) for v in graph.out_all(u, c)]
        if len(ids) == 1 and not comp_edges:
            notes.append(f"{witness}: isolated vertex")
            continue
        if not has_two:
            if (
                len(ids) == 2
                and len(comp_edges) == 1
                and comp_edges[0][1] == 0
            ):
                notes.append(f"{witness}: bare 0-edge (graph has no color-2 edges)")
                continue
            out.add(
                "C02",
                (witness,),
                "without color-2 edges only bare 0-edges are admissible",
            )
            continue
        sources = [
            vid
            for vid in ids
            if not graph.in_all(vid, 0) and not graph.in_all(vid, 2)
        ]
        z_sources = [s for s in sources if graph.out_edge(s, 0) is not None]
        if sources != z_sources or not 1 <= len(z_sources) <= 2:
            out.add(
                "C02",
                (witness,),
                f"expected 1 or 2 ladder heads, found sources {sources}",
            )
            continue
        fits = [_fit_ladder(graph, s, len(ids)) for s in z_sources]
        if any(f is None for f in fits):
            out.add("C02", (witness,), "a source does not head a well-formed ladder")
            continue
        if len(fits) == 1:
            z, x = fits[0]
            vertices, edges = _ladder_facts(z, x)
            m = len(z)
            edge_set = set(comp_edges)
            if group == vertices and edge_set == edges:
                notes.append(f"{witness}: single ladder m={m}, 0-link absent")
                continue
            link = graph.out_edge(x[-1], 0)
            if link is not None:
                vertices2 = vertices | {link}
                edges2 = edges | {(x[-1], 0, link)}
                if group == vertices2 and edge_set == edges2:
                    notes.append(f"{witness}: double ladder m={m}, 0-link present")
                    continue
            out.add(
                "C02",
                (witness,),
                f"component does not match a ladder of size m={m}",
            )
            continue
        (z1, x1), (z2, x2) = fits
        if len(z1) < len(z2):
            (z1, x1), (z2, x2) = (z2, x2), (z1, x1)
        m1, m2 = len(z1), len(z2)
        if m1 != m2 + 1:
            out.add(
                "C02",
                (witness,),
                f"two ladders must have consecutive sizes, found m={m1} and m={m2}",
            )
            continue
        v1, e1 = _ladder_facts(z1, x1)
        v2, e2 = _ladder_facts(z2, x2)
        link_edge = (x1[-1], 0, x2[-1])
        if (
            graph.out_edge(x1[-1], 0) == x2[-1]
            and group == v1 | v2
            and set(comp_edges) == e1 | e2 | {link_edge}
        ):
            notes.append(f"{witness}: double ladder m={m1}, 0-link present")
            continue
        out.add(
            "C02",
            (witness,),
            f"component does not match the linked double ladder m={m1}",
        )
    return _verdict(out.items, notes)
