"""Brute-force oracles used to cross-check the library's fast implementations.

Everything here is deliberately naive and independent of the code under test:

* prefix/suffix letter statistics recomputed from scratch for every prefix,
* bracket cancellation by repeated scanning instead of a one-pass stack,
* string lengths measured by literally applying an operator until it fails,
* highest-weight tableaux found by filtering a full enumeration, or by
  filtering the product of every admissible row profile,
* basis expansion by greedy leading-term subtraction of known polynomials,
* product expansion on the two materialized queer factor graphs,
* the even highest weights of a tensor view by a scan of every row of the
  right factor, as the library found them before it filled only the right
  factor's rows within each bound, and the product expansion on them,
* partition generators built on itertools-style recursion,
* the even axiom checker with its raising and lowering A5/A6 passes written
  out as two separate copies,
* graph copies restricted to some colors (``subgraph``) or to some vertices
  (``restrict``), and the components as induced copies of the groups a
  union-find over the edge tuple finds, as the library's ``CrystalGraph``
  methods and ``components`` made them before the integer-indexed core,
* the {0,1} and {0,2} component classifiers on those copies (``subgraph``,
  then one ``restrict`` per component), as the library ran them before it
  walked the components on the graph itself,
* the word statistics (``m_i_prefix``, ``m_i``, ``eps_i``,
  ``first_max_position``, ``last_max_position``) as one loop each over an
  ``Entry`` word, as the library computed them before they read its one-pass
  ``string_scan``,
* the tableau operators (f_i, e_i, f0, e0, phi, eps) and both tableau
  enumerations on ``Entry`` rows, with their own cell lookups and reading
  orders, as the library computed them before it moved to packed integer
  codes,
* the odd lowering and raising operators on a graph, as the 0-move
  conjugated by a reflection word, which the library applies only inside
  its highest-weight search,
* evaluation and adjacent-variable swaps of a polynomial, for the
  specialization and symmetry checks of the characters,
* the Young and shifted validators on ``Entry`` rows, each with its own
  statement of the rules, as the library checked tableaux before one check
  on packed codes served both.
* the JSON and DOT graph writers through ``json.dumps(..., indent=2)`` and
  per-edge escaping, as the library wrote graph files before it formatted
  the bytes directly,
* the tableau and tensor graph builders as they assembled graphs before
  they handed per-color target indices to ``CrystalGraph._indexed``: one
  ``(src id, color, dst id)`` string triple per edge, through the public
  ``CrystalGraph(n, vertices, edges)``.  They run the library's enumeration
  and operator bodies, because the assembly is what they check; the lowering
  cells come from :func:`first_max_position` rather than the library's
  one-pass scan,
* the vertex order and the ``down``, ``up``, ``multi_down`` and ``multi_up``
  tables of a ``CrystalGraph`` built by one loop over the edge triples, as
  its constructor built them before both constructors shared one assembly
  step that works out ``up`` from the first-target rows,
* every edge end of each vertex and color, and the vertex rows, read off
  ``graph.edges`` and the vertex columns rather than through
  ``out_edge``/``in_edge``, which read one end from the first-target lists.

Tests import these oracles and assert agreement with the library; none of the
functions below are used by the package itself.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from operator import add, itemgetter
from typing import TypeVar

from crystals import (
    ClosureBudgetExceeded,
    ColumnViolation,
    CrystalError,
    CrystalGraph,
    DiagonalMarkViolation,
    DimensionMismatch,
    DuplicateMarkInRow,
    IndexOutOfRange,
    QueerTableauCrystal,
    RowViolation,
    ShapeMismatch,
    SparsePolynomial,
    TensorView,
    ValueOutOfRange,
    enumerate_ssht,
    queer_graph,
    queer_highest_weights,
    schur_p,
)
from crystals import queer
from crystals.axioms import Verdict, Violation
from crystals.config import DEFAULT_CONFIG, Config
from crystals.graph import (
    Color,
    Edge,
    Vertex,
    _check_lengths,
    _wrap_factor,
    color_key,
    string_length_maps,
)
from crystals.queer import apply_weyl_word, odd_word
from crystals.shifted import eps as shifted_eps
from crystals.shifted import lower_at
from crystals.tableaux import (
    Cell,
    Entry,
    Geometry,
    ShiftedTableau,
    Tableau,
    Word,
    YoungTableau,
    checked_geometry,
    enumerate_codes,
    is_partition,
    is_strict_partition,
    render_codes,
    weight_codes,
)

T = TypeVar("T")


def m_i_prefix(word: Word, i: int, r: int) -> int:
    """Count of value ``i`` minus count of value ``i + 1`` in the length-``r`` prefix.

    Raises:
        IndexOutOfRange: ``r`` is negative or exceeds the word length.
    """
    if not 0 <= r <= len(word):
        raise IndexOutOfRange(
            f"prefix length {r} outside 0..{len(word)}"
        )
    low = sum(1 for e in word[:r] if e.value == i)
    high = sum(1 for e in word[:r] if e.value == i + 1)
    return low - high


def m_i(word: Word, i: int) -> int:
    """Maximum of :func:`m_i_prefix` over all prefixes, including the empty one."""
    best = 0
    running = 0
    for e in word:
        if e.value == i:
            running += 1
        elif e.value == i + 1:
            running -= 1
        if running > best:
            best = running
    return best


def eps_i(word: Word, i: int) -> int:
    """Maximum over suffixes of the count of ``i + 1`` minus the count of ``i``.

    The empty suffix contributes 0, so the result is never negative.
    """
    best = 0
    running = 0
    for e in reversed(word):
        if e.value == i + 1:
            running += 1
        elif e.value == i:
            running -= 1
        if running > best:
            best = running
    return best


def first_max_position(word: Word, i: int) -> int:
    """Smallest prefix length attaining :func:`m_i` (0 when the maximum is 0)."""
    best = 0
    best_r = 0
    running = 0
    for r, e in enumerate(word, start=1):
        if e.value == i:
            running += 1
        elif e.value == i + 1:
            running -= 1
        if running > best:
            best = running
            best_r = r
    return best_r


def last_max_position(word: Word, i: int) -> int:
    """Largest prefix length attaining :func:`m_i`."""
    best = 0
    best_r = 0
    running = 0
    for r, e in enumerate(word, start=1):
        if e.value == i:
            running += 1
        elif e.value == i + 1:
            running -= 1
        if running >= best:
            best = running
            best_r = r
    return best_r


def brute_prefix_statistic(word: Word, i: int, r: int) -> int:
    """Count value-``i`` letters minus value-``i + 1`` letters among the first ``r``."""
    prefix = list(word)[:r]
    return sum(1 for e in prefix if e.value == i) - sum(
        1 for e in prefix if e.value == i + 1
    )


def brute_max_prefix_statistic(word: Word, i: int) -> int:
    """Maximum of :func:`brute_prefix_statistic` over every prefix length."""
    return max(brute_prefix_statistic(word, i, r) for r in range(len(word) + 1))


def brute_suffix_statistic(word: Word, i: int) -> int:
    """Maximum over suffixes of the count of ``i + 1`` minus the count of ``i``."""
    best = 0
    for r in range(len(word) + 1):
        suffix = list(word)[r:]
        surplus = sum(1 for e in suffix if e.value == i + 1) - sum(
            1 for e in suffix if e.value == i
        )
        best = max(best, surplus)
    return best


def brute_first_max(word: Word, i: int) -> int:
    """Smallest prefix length attaining the maximum prefix statistic."""
    best = brute_max_prefix_statistic(word, i)
    for r in range(len(word) + 1):
        if brute_prefix_statistic(word, i, r) == best:
            return r
    raise AssertionError("maximum not attained by any prefix")


def brute_last_max(word: Word, i: int) -> int:
    """Largest prefix length attaining the maximum prefix statistic."""
    best = brute_max_prefix_statistic(word, i)
    for r in range(len(word), -1, -1):
        if brute_prefix_statistic(word, i, r) == best:
            return r
    raise AssertionError("maximum not attained by any prefix")


def brute_cancel_pairs(
    word: Word, i: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """Match ``i + 1`` letters with later ``i`` letters by repeated cancellation.

    Scans for a value-``i + 1`` letter immediately followed (among the still
    unmatched letters of values ``i`` and ``i + 1``) by a value-``i`` letter,
    removes the pair, and repeats until no such adjacency remains.  Returns
    ``(pairs, free_low_positions, free_high_positions)`` with 1-based
    positions, mirroring :class:`crystals.PairingResult`.
    """
    active = [
        (pos, e.value) for pos, e in enumerate(word, start=1) if e.value in (i, i + 1)
    ]
    pairs: list[tuple[int, int]] = []
    while True:
        hit = next(
            (
                k
                for k in range(len(active) - 1)
                if active[k][1] == i + 1 and active[k + 1][1] == i
            ),
            None,
        )
        if hit is None:
            break
        pairs.append((active[hit][0], active[hit + 1][0]))
        del active[hit : hit + 2]
    free_low = tuple(pos for pos, v in active if v == i)
    free_high = tuple(pos for pos, v in active if v == i + 1)
    return tuple(sorted(pairs)), free_low, free_high


def apply_until_none(start: T, step: Callable[[T, int], T | None], i: int) -> int:
    """Number of times ``step(x, i)`` succeeds starting from ``start``."""
    count = 0
    current: T | None = start
    while True:
        current = step(current, i)
        if current is None:
            return count
        count += 1
        if count > 10_000:  # pragma: no cover - guards a runaway operator
            raise AssertionError("operator applied more than 10000 times")


def brute_yamanouchi(shape: Sequence[int], n: int) -> list[ShiftedTableau]:
    """Tableaux of the given shape on which every raising operator vanishes.

    Filters the full enumeration by the suffix statistic, independently of the
    structural generator in the package.
    """
    return [
        t
        for t in enumerate_ssht(shape, n)
        if all(shifted_eps(t, i) == 0 for i in range(1, n))
    ]


def profile_yamanouchi(shape: Sequence[int], n: int) -> list[ShiftedTableau]:
    """Yamanouchi tableaux in the package's order, from the row-profile product.

    Row ``r`` of such a tableau is a run of unmarked ``r`` followed by strictly
    increasing marked values larger than ``r``.  Every combination of such
    rows is tried, and kept when it is a valid filling on which every raising
    operator vanishes.  The result is ordered lexicographically by hook
    reading word.
    """
    shape = tuple(shape)
    if not shape:
        return [ShiftedTableau((), ())]
    row_options: list[list[tuple[Entry, ...]]] = []
    for r, length in enumerate(shape, start=1):
        options: list[tuple[Entry, ...]] = []
        for run in range(1, length + 1):
            for combo in itertools.combinations(range(r + 1, n + 1), length - run):
                options.append(
                    tuple([Entry(r)] * run) + tuple(Entry(v, True) for v in combo)
                )
        row_options.append(options)

    results: list[ShiftedTableau] = []
    for rows in itertools.product(*row_options):
        try:
            t = entry_validate_shifted(shape, rows, n)
        except CrystalError:
            continue
        if all(shifted_eps(t, i) == 0 for i in range(1, n)):
            results.append(t)
    results.sort(key=lambda t: tuple(e.sort_key for _, e in hook_reading_cells(t)))
    return results


def _raise_path(graph, vid: str, colors: tuple[int, ...]) -> str | None:
    cur = vid
    for color in colors:
        nxt = graph.in_edge(cur, color)
        if nxt is None:
            return None
        cur = nxt
    return cur


def _lower_path(graph, vid: str, colors: tuple[int, ...]) -> str | None:
    cur = vid
    for color in colors:
        nxt = graph.out_edge(cur, color)
        if nxt is None:
            return None
        cur = nxt
    return cur


class Collector:
    """Violations in report order; in fast mode one violation stops the caller."""

    def __init__(self, exhaustive: bool) -> None:
        self.exhaustive = exhaustive
        self.items: list[Violation] = []

    def add(self, axiom: str, vertices: tuple[str, ...], detail: str) -> None:
        self.items.append(Violation(axiom, vertices, detail))

    @property
    def done(self) -> bool:
        return bool(self.items) and not self.exhaustive

    def verdict(self, notes: list[str] | None = None) -> Verdict:
        return Verdict(not self.items, tuple(self.items), tuple(notes or ()))


def vertex_rows(graph) -> list[Vertex]:
    """The graph's vertices as :class:`Vertex` rows in id order, read off its
    id, payload and weight columns."""
    return [*map(Vertex, graph.vertex_ids, graph.payloads, graph.weights)]


def edge_ends(graph) -> tuple[dict, dict]:
    """``(targets, sources)``: per ``(vertex id, color)``, the sorted ends of
    its outgoing and of its incoming edges, read off ``graph.edges``; a pair
    without such edges has no key."""
    targets: dict = {}
    sources: dict = {}
    for src, color, dst in graph.edges:
        targets.setdefault((src, color), []).append(dst)
        sources.setdefault((dst, color), []).append(src)
    return ({key: tuple(sorted(ends)) for key, ends in targets.items()},
            {key: tuple(sorted(ends)) for key, ends in sources.items()})


def _walk_length(graph, vid: str, color, step) -> int | None:
    """Moves of ``color`` from ``vid`` along ``step`` (``graph.out_edge`` or
    ``graph.in_edge``) until none is defined; ``None`` when the walk comes
    back to ``vid`` first."""
    cur, length = vid, 0
    while (cur := step(cur, color)) is not None:
        length += 1
        if cur == vid or length > len(graph):
            return None
    return length


def definition_string_data(graph, colors, out: Collector):
    """A2 and A1 color by color, from the definitions, and the string lengths.

    A2: no vertex has two edges of one color out of it or into it.  A1: no
    walk along a color returns to its start; once A2 holds, such walks are
    exactly the cycles, and the smallest vertex id on one names it.  For the
    colors that pass both, ``phi`` and ``eps`` count the lowering and raising
    moves from each vertex, keyed by color and then vertex id.
    """
    phi: dict = {}
    eps: dict = {}
    targets, sources = edge_ends(graph)
    for color in colors:
        clean = True
        for vid in graph.vertex_ids:
            for way, ends in (("outgoing", targets.get((vid, color), ())),
                              ("incoming", sources.get((vid, color), ()))):
                if len(ends) > 1:
                    out.add("A2", (vid,), f"{len(ends)} {way} edges of color {color}")
                    clean = False
        if not clean:
            continue
        down = {vid: _walk_length(graph, vid, color, graph.out_edge) for vid in graph.vertex_ids}
        on_cycle = [vid for vid, length in down.items() if length is None]
        if on_cycle:
            out.add("A1", (), f"color {color} cycle through {on_cycle[0]!r}")
            continue
        phi[color] = down
        eps[color] = {vid: _walk_length(graph, vid, color, graph.in_edge)
                      for vid in graph.vertex_ids}
    return phi, eps


def definition_weight_rules(graph, phi, eps, out: Collector) -> None:
    """W1: a color-``i`` edge moves weight by ``alpha_i = e_i - e_{i+1}``;
    W2: ``phi_i - eps_i = wt_i - wt_{i+1}`` on the colors of ``phi``."""
    n = graph.n
    for src, color, dst in graph.edges:
        if not isinstance(color, int) or color < 1:
            continue
        if color >= n:
            out.add("W1", (src, dst), f"edge color {color} outside weight range 1..{n - 1}")
            continue
        before, after = graph.weight_of(src), graph.weight_of(dst)
        expected = tuple(w - (k == color - 1) + (k == color) for k, w in enumerate(before))
        if after != expected:
            out.add("W1", (src, dst),
                    f"color {color} edge moves weight {before} to {after}, expected {expected}")
    for color in phi:
        if color >= n:
            continue
        for vid in graph.vertex_ids:
            weight = graph.weight_of(vid)
            measured = phi[color][vid] - eps[color][vid]
            diff = weight[color - 1] - weight[color]
            if measured != diff:
                out.add("W2", (vid,), f"phi_{color} - eps_{color} = {measured}, "
                        f"weight difference = {diff}")


def mirrored_stembridge(graph, exhaustive: bool = True):
    """The even checker with its dual A5/A6 pass written out a second time.

    The raising forms walk incoming edges and measure ``eps`` (then ``phi``
    at the top); the dual forms are a separate copy that walks outgoing
    edges and measures ``phi`` (then ``eps`` at the bottom).  Every phase,
    fast-mode stop and detail string is spelled out independently of the
    package's folded routine, so the two must agree verdict for verdict.
    """
    out = Collector(exhaustive)
    colors = sorted({*range(1, graph.n), *(c for c in graph.colors if isinstance(c, int) and c)})
    phi, eps = definition_string_data(graph, colors, out)
    if out.done:
        return out.verdict()
    definition_weight_rules(graph, phi, eps, out)
    if out.done:
        return out.verdict()

    usable = [c for c in colors if c in phi]
    for x in graph.vertex_ids:
        for i in usable:
            y = graph.in_edge(x, i)
            if y is None:
                continue
            # A3/A4: neighbor-color difference tables.
            for j in usable:
                d_eps = eps[j][x] - eps[j][y]
                d_phi = phi[j][y] - phi[j][x]
                if j == i:
                    expected = 2
                elif abs(i - j) == 1:
                    expected = -1
                else:
                    expected = 0
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
            return out.verdict()

    for x in graph.vertex_ids:
        for i in usable:
            yi = graph.in_edge(x, i)
            if yi is None:
                continue
            for j in usable:
                if j == i:
                    continue
                yj = graph.in_edge(x, j)
                if yj is None:
                    continue
                d_eps = eps[j][x] - eps[j][yi]
                if d_eps == 0:
                    # A5: raising square must close, with flat phi across it.
                    a = graph.in_edge(yi, j)
                    b = graph.in_edge(yj, i)
                    if a is None or b is None or a != b:
                        out.add(
                            "A5",
                            (x,),
                            f"colors {i},{j}: raising square does not close "
                            f"({a!r} vs {b!r})",
                        )
                    else:
                        down = graph.out_edge(a, j)
                        nabla = phi[i][a] - phi[i][down]
                        if nabla != 0:
                            out.add(
                                "A5",
                                (x, a),
                                f"colors {i},{j}: nabla phi_{i} at closed square "
                                f"top = {nabla}, expected 0",
                            )
                if i < j:
                    d_ij = eps[j][x] - eps[j][yi]
                    d_ji = eps[i][x] - eps[i][yj]
                    if d_ij == -1 and d_ji == -1:
                        # A6: degenerate octagon through double raising.
                        a = _raise_path(graph, x, (i, j, j, i))
                        b = _raise_path(graph, x, (j, i, i, j))
                        if a is None or b is None or a != b:
                            out.add(
                                "A6",
                                (x,),
                                f"colors {i},{j}: octagon does not close "
                                f"({a!r} vs {b!r})",
                            )
                        else:
                            fi = graph.out_edge(a, i)
                            fj = graph.out_edge(a, j)
                            n_ij = phi[j][a] - phi[j][fi]
                            n_ji = phi[i][a] - phi[i][fj]
                            if n_ij != -1 or n_ji != -1:
                                out.add(
                                    "A6",
                                    (x, a),
                                    f"colors {i},{j}: nabla phi at octagon top = "
                                    f"({n_ij}, {n_ji}), expected (-1, -1)",
                                )
        if out.done:
            return out.verdict()

    # Dual forms, phrased through lowering moves.
    for x in graph.vertex_ids:
        for i in usable:
            yi = graph.out_edge(x, i)
            if yi is None:
                continue
            for j in usable:
                if j == i:
                    continue
                yj = graph.out_edge(x, j)
                if yj is None:
                    continue
                n_phi = phi[j][x] - phi[j][yi]
                if n_phi == 0:
                    a = graph.out_edge(yi, j)
                    b = graph.out_edge(yj, i)
                    if a is None or b is None or a != b:
                        out.add(
                            "A5",
                            (x,),
                            f"colors {i},{j}: lowering square does not close "
                            f"({a!r} vs {b!r})",
                        )
                    else:
                        up = graph.in_edge(a, j)
                        delta = eps[i][a] - eps[i][up]
                        if delta != 0:
                            out.add(
                                "A5",
                                (x, a),
                                f"colors {i},{j}: delta eps_{i} at closed square "
                                f"bottom = {delta}, expected 0",
                            )
                if i < j:
                    n_ij = phi[j][x] - phi[j][yi]
                    n_ji = phi[i][x] - phi[i][yj]
                    if n_ij == -1 and n_ji == -1:
                        a = _lower_path(graph, x, (i, j, j, i))
                        b = _lower_path(graph, x, (j, i, i, j))
                        if a is None or b is None or a != b:
                            out.add(
                                "A6",
                                (x,),
                                f"colors {i},{j}: lowering octagon does not close "
                                f"({a!r} vs {b!r})",
                            )
                        else:
                            ei = graph.in_edge(a, i)
                            ej = graph.in_edge(a, j)
                            d_ij = eps[j][a] - eps[j][ei]
                            d_ji = eps[i][a] - eps[i][ej]
                            if d_ij != -1 or d_ji != -1:
                                out.add(
                                    "A6",
                                    (x, a),
                                    f"colors {i},{j}: delta eps at octagon bottom = "
                                    f"({d_ij}, {d_ji}), expected (-1, -1)",
                                )
        if out.done:
            return out.verdict()

    return out.verdict()


def subgraph(graph: CrystalGraph, colors) -> CrystalGraph:
    """Same vertices, edges restricted to the given colors."""
    keep = set(colors)
    return CrystalGraph(
        graph.n,
        vertex_rows(graph),
        [e for e in graph.edges if e[1] in keep],
    )


def restrict(graph: CrystalGraph, vertex_ids) -> CrystalGraph:
    """Induced subgraph on the given vertices."""
    keep = set(vertex_ids)
    return CrystalGraph(
        graph.n,
        [v for v in vertex_rows(graph) if v.id in keep],
        [e for e in graph.edges if e[0] in keep and e[2] in keep],
    )


def copying_components(graph: CrystalGraph) -> list[CrystalGraph]:
    """Weakly connected components as induced copies (what ``restrict`` makes
    of each group, with one pass over the edges for all of them), ordered by
    smallest id; the groups come from a union-find over ``graph.edges``."""
    edges = graph.edges
    parent = {vid: vid for vid in graph.vertex_ids}

    def root(vid: str) -> str:
        while parent[vid] != vid:
            parent[vid] = vid = parent[parent[vid]]
        return vid

    for src, _, dst in edges:
        a, b = sorted((root(src), root(dst)))
        parent[b] = a
    groups: dict[str, tuple[list, list]] = {}
    for vertex in vertex_rows(graph):
        groups.setdefault(root(vertex.id), ([], []))[0].append(vertex)
    for edge in edges:
        groups[root(edge[0])][1].append(edge)
    return [CrystalGraph(graph.n, *parts) for _, parts in sorted(groups.items())]


def _component_witness(comp: CrystalGraph) -> str:
    return comp.vertex_ids[0]


def copying_check_01_components(graph: CrystalGraph) -> Verdict:
    """The {0,1} classifier on copies: ``subgraph``, then ``components``.

    Classify every {0,1}-colored component against its known shapes.

    Valid shapes: an isolated vertex, or a color-1 chain ``a_0 .. a_k`` whose
    final edge is doubled by a parallel 0-edge, together with a shadow chain
    ``b_0 .. b_{k-2}`` attached by 0-edges ``a_j -> b_j``.
    """
    out = Collector(True)
    notes: list[str] = []
    sub = subgraph(graph, [0, 1])
    for comp in copying_components(sub):
        witness = _component_witness(comp)
        if len(comp) == 1 and not comp.edges:
            notes.append(f"{witness}: isolated vertex")
            continue
        edge_set = set(comp.edges)
        pairs = [
            (u, v) for (u, c, v) in comp.edges if c == 1 and (u, 0, v) in edge_set
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
        while len(chain) <= len(comp):
            prev = comp.in_edge(chain[0], 1)
            if prev is None:
                break
            chain.insert(0, prev)
        a = chain + [tail_dst]
        k = len(a) - 1
        b: list[str] = []
        broken = False
        for j in range(k - 1):
            target = comp.out_edge(a[j], 0)
            if target is None:
                out.add(
                    "C01",
                    (a[j],),
                    "chain vertex lacks the required 0-edge to its shadow",
                )
                broken = True
                break
            b.append(target)
        if broken:
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
            or set(comp.vertex_ids) != expected_vertices
            or edge_set != expected_edges
        ):
            out.add(
                "C01",
                (witness,),
                f"component does not match the doubled-chain shape with k={k}",
            )
            continue
        notes.append(f"{witness}: doubled chain, k={k}")
    return out.verdict(notes)


def _fit_ladder(comp: CrystalGraph, source: str) -> tuple[list[str], list[str]] | None:
    """Fit ``source`` as the head of a ladder; return (z-chain, x-chain)."""
    z = [source]
    while len(z) <= len(comp):
        nxt = comp.out_edge(z[-1], 2)
        if nxt is None:
            break
        z.append(nxt)
    x: list[str] = []
    for zj in z:
        rung = comp.out_edge(zj, 0)
        if rung is None:
            return None
        x.append(rung)
    for j in range(len(x) - 1):
        if comp.out_edge(x[j], 2) != x[j + 1]:
            return None
    last = comp.out_edge(x[-1], 2)
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


def copying_check_02_components(graph: CrystalGraph) -> Verdict:
    """The {0,2} classifier on copies: ``subgraph``, then ``components``.

    Classify every {0,2}-colored component against the ladder shapes.

    Valid shapes: an isolated vertex; a ladder (a color-2 chain of rung
    sources, a one-longer color-2 chain of rung targets, and the 0-rungs);
    or two ladders of consecutive sizes joined by one optional 0-edge
    between their final rung-target vertices.  The notes record which shape
    occurred and whether the optional 0-link is present.  When the whole
    graph has no color-2 edges, a bare 0-edge pair is the degenerate ladder.
    """
    out = Collector(True)
    notes: list[str] = []
    has_two = any(c == 2 for _, c, _ in graph.edges)
    sub = subgraph(graph, [0, 2])
    for comp in copying_components(sub):
        witness = _component_witness(comp)
        if len(comp) == 1 and not comp.edges:
            notes.append(f"{witness}: isolated vertex")
            continue
        if not has_two:
            if (
                len(comp) == 2
                and len(comp.edges) == 1
                and comp.edges[0][1] == 0
            ):
                notes.append(f"{witness}: bare 0-edge (graph has no color-2 edges)")
                continue
            out.add(
                "C02",
                (witness,),
                "without color-2 edges only bare 0-edges are admissible",
            )
            continue
        into = edge_ends(comp)[1]
        sources = [
            vid
            for vid in comp.vertex_ids
            if (vid, 0) not in into and (vid, 2) not in into
        ]
        z_sources = [s for s in sources if comp.out_edge(s, 0) is not None]
        if sources != z_sources or not 1 <= len(z_sources) <= 2:
            out.add(
                "C02",
                (witness,),
                f"expected 1 or 2 ladder heads, found sources {sources}",
            )
            continue
        fits = [_fit_ladder(comp, s) for s in z_sources]
        if any(f is None for f in fits):
            out.add("C02", (witness,), "a source does not head a well-formed ladder")
            continue
        if len(fits) == 1:
            z, x = fits[0]
            vertices, edges = _ladder_facts(z, x)
            m = len(z)
            if set(comp.vertex_ids) == vertices and set(comp.edges) == edges:
                notes.append(f"{witness}: single ladder m={m}, 0-link absent")
                continue
            link = comp.out_edge(x[-1], 0)
            if link is not None:
                vertices2 = vertices | {link}
                edges2 = edges | {(x[-1], 0, link)}
                if set(comp.vertex_ids) == vertices2 and set(comp.edges) == edges2:
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
            comp.out_edge(x1[-1], 0) == x2[-1]
            and set(comp.vertex_ids) == v1 | v2
            and set(comp.edges) == e1 | e2 | {link_edge}
        ):
            notes.append(f"{witness}: double ladder m={m1}, 0-link present")
            continue
        out.add(
            "C02",
            (witness,),
            f"component does not match the linked double ladder m={m1}",
        )
    return out.verdict(notes)


def _strip_trailing_zeros(exponent: Sequence[int]) -> tuple[int, ...]:
    values = list(exponent)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def greedy_p_expansion(poly: SparsePolynomial) -> dict[tuple[int, ...], int]:
    """Expand a polynomial over the shifted basis by leading-term subtraction.

    Repeatedly takes the lexicographically greatest exponent with a nonzero
    coefficient, checks that it is a strict partition with a positive
    coefficient, subtracts that multiple of the corresponding basis
    polynomial, and records the term.  Raises ``AssertionError`` if the
    remainder ever has a leading term that is not a strict partition or a
    positive integer coefficient, or if the loop fails to terminate.
    """
    remaining = poly
    expansion: dict[tuple[int, ...], int] = {}
    for _ in range(10_000):
        exponents = [m for m, c in remaining.sorted_terms() if c]
        if not exponents:
            return expansion
        lead = max(exponents)
        coeff = remaining.coefficient(lead)
        shape = _strip_trailing_zeros(lead)
        assert all(
            a > b for a, b in zip(shape, shape[1:])
        ), f"leading exponent {lead} is not strictly decreasing"
        assert all(part > 0 for part in shape), f"leading exponent {lead} not positive"
        assert coeff > 0, f"leading coefficient {coeff} is not positive"
        expansion[shape] = expansion.get(shape, 0) + coeff
        remaining = remaining - schur_p(shape, poly.n) * coeff
    raise AssertionError("expansion did not terminate")  # pragma: no cover


def evaluate(poly: SparsePolynomial, values: Sequence[int]) -> int:
    """Evaluate ``poly`` at integer values, one per variable."""
    if len(values) != poly.n:
        raise DimensionMismatch(f"expected {poly.n} values, got {len(values)}")
    total = 0
    for exponent, coefficient in poly.terms.items():
        prod = coefficient
        for value, power in zip(values, exponent):
            prod *= value**power
        total += prod
    return total


def swap_adjacent(poly: SparsePolynomial, index: int) -> SparsePolynomial:
    """Exchange variables ``x<index>`` and ``x<index+1>``, 1-based."""
    if not 1 <= index <= poly.n - 1:
        raise IndexOutOfRange(f"swap index {index} outside 1..{poly.n - 1}")
    j = index - 1
    terms: dict[tuple[int, ...], int] = {}
    for exponent, coefficient in poly.terms.items():
        swapped = list(exponent)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        key = tuple(swapped)
        terms[key] = terms.get(key, 0) + coefficient
    return SparsePolynomial(poly.n, terms)


def is_symmetric(poly: SparsePolynomial) -> bool:
    """True when ``poly`` is invariant under every adjacent-variable swap."""
    return all(swap_adjacent(poly, i) == poly for i in range(1, poly.n))


def materialized_product(
    gamma: Sequence[int], delta: Sequence[int], n: int
) -> dict[tuple[int, ...], int]:
    """Queer highest weights of ``B(gamma) ⊗ B(delta)`` grouped by weight.

    Builds both queer factor graphs in full and searches a
    :class:`TensorView` of them, whose even candidates are the highest
    weights of the left graph times every vertex of the right one.
    """
    for shape in (gamma, delta):
        if not all(a > b for a, b in zip(shape, shape[1:])) or not all(
            part > 0 for part in shape
        ):
            raise ShapeMismatch(f"{tuple(shape)} is not a strict partition")
    product = TensorView(queer_graph(gamma, n), queer_graph(delta, n), queer=True)
    counts: Counter[tuple[int, ...]] = Counter()
    for pair in queer_highest_weights(product):
        counts[_strip_trailing_zeros(product.weight_of(pair))] += 1
    return dict(counts)


def enumerated_rows(crystal: QueerTableauCrystal) -> list[int]:
    """The row of every tableau of ``crystal``, in enumeration order: each
    tableau is enumerated here and given its row, a new one if not yet met."""
    return [*map(crystal._row, enumerate_codes(crystal._geometry, crystal.n, crystal._limit))]


def scanned_even_highest_weights(view: TensorView) -> list[tuple[int, int]]:
    """The row pairs of ``view`` with no incoming even edge, by a scan of every
    row of the right factor (a :class:`QueerTableauCrystal`, whose rows
    :func:`enumerated_rows` lists) against each row of the left factor within
    bounds 0: ``eps_i(b2) <= phi_i(b1)`` for every even color, as the library
    found them before it filled the right factor's rows within each bound."""
    colors = view.even_colors
    phi = {c: view.left.string_lengths(c)[0] for c in colors}
    eps = {c: view.right.string_lengths(c)[1] for c in colors}
    rows = enumerated_rows(view.right)
    return [
        (b1, b2)
        for b1 in view.left.rows_within(dict.fromkeys(colors, 0))
        for b2 in rows
        if all(eps[c][b2] <= phi[c][b1] for c in colors)
    ]


def scanned_product(
    gamma: Sequence[int], delta: Sequence[int], n: int
) -> dict[tuple[int, ...], int]:
    """``product_expand``'s search on the pairs :func:`scanned_even_highest_weights`
    finds, each kept when every odd raising operator (:func:`odd_e`) is undefined."""
    n = min(n, max(sum(gamma) + sum(delta), 2))
    if sum(delta) > sum(gamma):
        gamma, delta = delta, gamma
    view = TensorView(QueerTableauCrystal(gamma, n), QueerTableauCrystal(delta, n), queer=True)
    counts: Counter[tuple[int, ...]] = Counter()
    for pair in scanned_even_highest_weights(view):
        if all(odd_e(view, pair, k) is None for k in range(1, n)):
            counts[_strip_trailing_zeros(view.weight_of(pair))] += 1
    return dict(counts)


def partitions(total: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing positive tuples summing to ``total``."""
    if total == 0:
        yield ()
        return
    top = total if cap is None else min(cap, total)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, first):
            yield (first, *rest)


def strict_partitions(total: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All strictly decreasing positive tuples summing to ``total``."""
    if total == 0:
        yield ()
        return
    top = total if cap is None else min(cap, total)
    for first in range(top, 0, -1):
        for rest in strict_partitions(total - first, first - 1):
            yield (first, *rest)


# -- Entry-based tableau operators and enumerations ----------------------------
#
# The library's operators and enumerators as they read before the packed
# tableau core, copied verbatim together with the Entry-level helpers they
# used (cell lookup, cell replacement and both reading orders), so that no
# part of the packed geometry is shared with the code under test.


def column_start(t: Tableau, r: int) -> int:
    """Column of the first cell of row ``r``: ``r`` if shifted, else 1."""
    return r if isinstance(t, ShiftedTableau) else 1


def cell_entry(t: Tableau, r: int, c: int) -> Entry:
    """The entry at ``(r, c)``, which must be a cell of ``t``."""
    return t.rows[r - 1][c - column_start(t, r)]


def cells_of(t: Tableau) -> Iterator[tuple[Cell, Entry]]:
    """Yield ``((row, col), entry)`` in row-major order, bottom row first."""
    for r, row in enumerate(t.rows, start=1):
        start = column_start(t, r)
        for j, entry in enumerate(row):
            yield (r, start + j), entry


def has_cell(t: Tableau, r: int, c: int) -> bool:
    if not 1 <= r <= len(t.shape):
        return False
    start = column_start(t, r)
    return start <= c < start + t.shape[r - 1]


def entry_at(t: Tableau, r: int, c: int) -> Entry | None:
    return cell_entry(t, r, c) if has_cell(t, r, c) else None


def replace_cells(t: Tableau, updates: dict[Cell, Entry]) -> Tableau:
    """Return a copy of ``t`` with the given cells replaced (no validation)."""
    new_rows = []
    for r, row in enumerate(t.rows, start=1):
        start = column_start(t, r)
        new_rows.append(
            tuple(
                updates.get((r, start + j), entry) for j, entry in enumerate(row)
            )
        )
    return type(t)(t.shape, tuple(new_rows))


def row_reading_cells(t: YoungTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in row reading order: top row first, each row left to right."""
    out: list[tuple[Cell, Entry]] = []
    for r in range(len(t.shape), 0, -1):
        for j, entry in enumerate(t.rows[r - 1]):
            out.append(((r, 1 + j), entry))
    return tuple(out)


def hook_reading_cells(t: ShiftedTableau) -> tuple[tuple[Cell, Entry], ...]:
    """Cells in hook reading order.

    For each index ``i`` from the widest column down to 1: the marked entries of
    column ``i`` from bottom to top, then the unmarked entries of row ``i`` from
    left to right.
    """
    if not t.shape:
        return ()
    top = max(t.shape[0], len(t.shape))
    out: list[tuple[Cell, Entry]] = []
    for i in range(top, 0, -1):
        for r in range(1, len(t.shape) + 1):
            if has_cell(t, r, i) and cell_entry(t, r, i).marked:
                out.append(((r, i), cell_entry(t, r, i)))
        if i <= len(t.shape):
            start = column_start(t, i)
            for j, entry in enumerate(t.rows[i - 1]):
                if not entry.marked:
                    out.append(((i, start + j), entry))
    return tuple(out)


def reading_cells(t: Tableau) -> tuple[tuple[Cell, Entry], ...]:
    if isinstance(t, YoungTableau):
        return row_reading_cells(t)
    return hook_reading_cells(t)


def reading_word(t: Tableau) -> Word:
    return tuple(entry for _, entry in reading_cells(t))


def entry_phi(t: Tableau, i: int) -> int:
    """``phi_i`` of a Young or shifted tableau from its Entry reading word."""
    return m_i(reading_word(t), i)


def entry_eps(t: Tableau, i: int) -> int:
    """``eps_i`` of a Young or shifted tableau from its Entry reading word."""
    return eps_i(reading_word(t), i)


def _in_class(entry: Entry | None, value: int) -> bool:
    return entry is not None and entry.value == value


def _ribbon_head(t: ShiftedTableau, cell: Cell) -> Cell:
    """Walk northwest along the ribbon of ``cell``'s value to its head."""
    value = cell_entry(t, *cell).value
    r, c = cell
    while True:
        if _in_class(entry_at(t, r + 1, c), value):
            r += 1
        elif _in_class(entry_at(t, r, c - 1), value):
            c -= 1
        else:
            return (r, c)


def _ribbon_tail_cells(t: ShiftedTableau, cell: Cell) -> list[Cell]:
    """Cells from ``cell`` walking southeast along its value's ribbon."""
    value = cell_entry(t, *cell).value
    r, c = cell
    out = [(r, c)]
    while True:
        if _in_class(entry_at(t, r - 1, c), value):
            r -= 1
        elif _in_class(entry_at(t, r, c + 1), value):
            c += 1
        else:
            return out
        out.append((r, c))


def shifted_lower(t: ShiftedTableau, i: int) -> ShiftedTableau | None:
    """Apply ``f_i``, or return ``None`` when the lowering string is exhausted."""
    cells = hook_reading_cells(t)
    word = tuple(e for _, e in cells)
    if m_i(word, i) <= 0:
        return None
    p = first_max_position(word, i)
    (r, c), x = cells[p - 1]
    assert x.value == i
    north = entry_at(t, r + 1, c)
    east = entry_at(t, r, c + 1)

    if not x.marked:
        if east == Entry(i + 1, True):
            return replace_cells(
                t, {(r, c): Entry(i + 1, True), (r, c + 1): Entry(i + 1)}
            )
        if north is None or north > Entry(i + 1):
            return replace_cells(t, {(r, c): Entry(i + 1)})
        head = _ribbon_head(t, (r + 1, c))
        if cell_entry(t, *head).marked:
            return replace_cells(
                t, {(r, c): Entry(i + 1, True), head: Entry(i + 1)}
            )
        return replace_cells(t, {(r, c): Entry(i + 1, True)})

    if north == Entry(i):
        return replace_cells(t, {(r, c): Entry(i), (r + 1, c): Entry(i + 1, True)})
    if east is None or east > Entry(i + 1, True):
        return replace_cells(t, {(r, c): Entry(i + 1, True)})
    changed = replace_cells(t, {(r, c): Entry(i)})
    for cell in _ribbon_tail_cells(changed, (r, c)):
        if cell_entry(changed, *cell) != Entry(i):
            continue
        neighbor = entry_at(changed, cell[0], cell[1] + 1)
        if neighbor != Entry(i) and neighbor != Entry(i + 1, True):
            return replace_cells(changed, {cell: Entry(i + 1, True)})
    raise AssertionError("lowering walk found no cell to change")


def shifted_raise(t: ShiftedTableau, i: int) -> ShiftedTableau | None:
    """Apply ``e_i``, or return ``None`` when the raising string is exhausted."""
    cells = hook_reading_cells(t)
    word = tuple(e for _, e in cells)
    q = last_max_position(word, i)
    if q == len(word):
        return None
    (r, c), x = cells[q]
    assert x.value == i + 1
    south = entry_at(t, r - 1, c)
    west = entry_at(t, r, c - 1)

    if not x.marked:
        if west == Entry(i + 1, True):
            return replace_cells(
                t, {(r, c): Entry(i + 1, True), (r, c - 1): Entry(i)}
            )
        if south is None or south < Entry(i):
            return replace_cells(t, {(r, c): Entry(i)})
        changed = replace_cells(t, {(r, c): Entry(i + 1, True)})
        for cell in _ribbon_tail_cells(changed, (r, c)):
            if cell_entry(changed, *cell) != Entry(i + 1, True):
                continue
            neighbor = entry_at(changed, cell[0] - 1, cell[1])
            if neighbor != Entry(i) and neighbor != Entry(i + 1, True):
                return replace_cells(changed, {cell: Entry(i)})
        raise AssertionError("raising walk found no cell to change")

    if south == Entry(i):
        return replace_cells(t, {(r, c): Entry(i), (r - 1, c): Entry(i, True)})
    if west is None or west < Entry(i, True):
        return replace_cells(t, {(r, c): Entry(i, True)})
    head = _ribbon_head(t, (r, c - 1))
    if head[0] != head[1]:
        return replace_cells(t, {(r, c): Entry(i), head: Entry(i, True)})
    return replace_cells(t, {(r, c): Entry(i)})


def young_lower(t: YoungTableau, i: int) -> YoungTableau | None:
    """Apply ``f_i``: change one ``i`` to ``i + 1``, or return ``None``."""
    cells = row_reading_cells(t)
    word = tuple(e for _, e in cells)
    if m_i(word, i) <= 0:
        return None
    p = first_max_position(word, i)
    (r, c), entry = cells[p - 1]
    assert entry.value == i
    return replace_cells(t, {(r, c): Entry(i + 1)})


def young_raise(t: YoungTableau, i: int) -> YoungTableau | None:
    """Apply ``e_i``: change one ``i + 1`` to ``i``, or return ``None``."""
    cells = row_reading_cells(t)
    word = tuple(e for _, e in cells)
    q = last_max_position(word, i)
    if q == len(word):
        return None
    (r, c), entry = cells[q]
    assert entry.value == i + 1
    return replace_cells(t, {(r, c): Entry(i)})


def queer_f0(t: ShiftedTableau) -> ShiftedTableau | None:
    """Queer lowering move: rightmost ``1`` of row 1 becomes ``2``/``2'``.

    Undefined (``None``) when the tableau holds no ``1`` or already holds a
    ``2'``.
    """
    ones: list[int] = []
    for (r, c), entry in cells_of(t):
        if entry == Entry(2, True):
            return None
        if entry.value == 1:
            ones.append(c)
    if not ones:
        return None
    column = max(ones)
    replacement = Entry(2) if column == 1 else Entry(2, True)
    return replace_cells(t, {(1, column): replacement})


def queer_e0(t: ShiftedTableau) -> ShiftedTableau | None:
    """Queer raising move: the ``2'``, or a leading diagonal ``2``, becomes ``1``.

    Undefined (``None``) when the tableau has no ``2'`` and the first cell of
    row 1 is not an unmarked ``2``.
    """
    for (r, c), entry in cells_of(t):
        if entry == Entry(2, True):
            return replace_cells(t, {(r, c): Entry(1)})
    if t.shape and t.rows[0] and t.rows[0][0] == Entry(2):
        return replace_cells(t, {(1, 1): Entry(1)})
    return None


def _conjugated_0_move(
    graph: CrystalGraph, vid: str, k: int, move: Callable[[str, int], str | None]
) -> str | None:
    """``move`` along color 0, conjugated by the ``k``-th reflection word."""
    if not 1 <= k <= graph.n - 1:
        raise IndexOutOfRange(f"odd index {k} outside 1..{graph.n - 1}")
    word = odd_word(k)
    moved = move(apply_weyl_word(graph, vid, word), 0)
    if moved is None:
        return None
    return apply_weyl_word(graph, moved, tuple(reversed(word)))


def odd_f(graph: CrystalGraph, vid: str, k: int) -> str | None:
    """The ``k``-th odd lowering operator; ``odd_f(C, v, 1)`` is the 0-move.

    Returns ``None`` when the conjugated 0-move is undefined.

    Raises:
        IndexOutOfRange: ``k`` outside ``1..n-1``.
        StringTruncated: A reflection walk left the graph.
    """
    return _conjugated_0_move(graph, vid, k, graph.out_edge)


def odd_e(graph: CrystalGraph, vid: str, k: int) -> str | None:
    """The ``k``-th odd raising operator, inverse to :func:`odd_f`."""
    return _conjugated_0_move(graph, vid, k, graph.in_edge)


def _word_sort_key(t: Tableau) -> tuple[int, ...]:
    return tuple(entry.sort_key for entry in reading_word(t))


def _keep(results: list, tableau: Tableau, limit: int | None) -> None:
    """Append ``tableau``; refuse the ``limit + 1``-st before enumerating on."""
    results.append(tableau)
    if limit is not None and len(results) > limit:
        kind = "Young" if isinstance(tableau, YoungTableau) else "shifted"
        raise ClosureBudgetExceeded(
            f"enumeration of {kind} tableaux of shape {tableau.shape} reached "
            f"{len(results)} tableaux, over the budget of {limit} vertices"
        )


def entry_enumerate_ssyt(
    shape: Sequence[int], n: int, limit: int | None = None
) -> list[YoungTableau]:
    """All semistandard Young tableaux of ``shape`` with entries at most ``n``.

    The result is ordered lexicographically by row reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    shape = tuple(shape)
    if shape and not is_partition(shape):
        raise ShapeMismatch(f"{shape} is not a partition")
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")

    results: list[YoungTableau] = []
    rows: list[list[Entry]] = [[] for _ in shape]

    def fill(r: int, c: int) -> None:
        if r == len(shape):
            _keep(results, YoungTableau(shape, tuple(tuple(row) for row in rows)), limit)
            return
        if c > shape[r]:
            fill(r + 1, 1)
            return
        low = 1
        if c > 1:
            low = max(low, rows[r][c - 2].value)
        if r > 0 and c <= shape[r - 1]:
            low = max(low, rows[r - 1][c - 1].value + 1)
        for v in range(low, n + 1):
            rows[r].append(Entry(v))
            fill(r, c + 1)
            rows[r].pop()

    fill(0, 1)
    results.sort(key=_word_sort_key)
    return results


def entry_enumerate_ssht(
    shape: Sequence[int], n: int, limit: int | None = None
) -> list[ShiftedTableau]:
    """All semistandard shifted tableaux of strict ``shape`` with values at most ``n``.

    The result is ordered lexicographically by hook reading word.

    Raises:
        ShapeMismatch: ``shape`` is not a strict partition.
        ValueOutOfRange: ``n`` is not positive.
        ClosureBudgetExceeded: There are more than ``limit`` tableaux; raised
            when the ``limit + 1``-st is found.
    """
    shape = tuple(shape)
    if shape and not is_strict_partition(shape):
        raise ShapeMismatch(f"{shape} is not a strict partition")
    if n < 1:
        raise ValueOutOfRange(f"alphabet bound must be positive, got {n}")

    results: list[ShiftedTableau] = []
    rows: list[list[Entry]] = [[] for _ in shape]

    def candidates(r: int, c: int) -> Iterator[Entry]:
        # r, c are 1-based; the cell's row list index is c - r.
        left = rows[r - 1][c - r - 1] if c > r else None
        below = None
        if r > 1:
            below_row = rows[r - 2]
            start = r - 1
            if start <= c < start + shape[r - 2]:
                below = below_row[c - start]
        for v in range(1, n + 1):
            for marked in (True, False):
                e = Entry(v, marked)
                if marked and r == c:
                    continue
                if left is not None:
                    if left > e or (left == e and e.marked):
                        continue
                if below is not None:
                    if below > e or (below == e and not e.marked):
                        continue
                yield e

    def fill(r: int, c: int) -> None:
        if r > len(shape):
            _keep(results, ShiftedTableau(shape, tuple(tuple(row) for row in rows)), limit)
            return
        end = r + shape[r - 1] - 1
        if c > end:
            fill(r + 1, r + 1)
            return
        for e in candidates(r, c):
            rows[r - 1].append(e)
            fill(r, c + 1)
            rows[r - 1].pop()

    fill(1, 1)
    results.sort(key=_word_sort_key)
    return results


# -- Entry-based validators ------------------------------------------------------
#
# The library's validators as they read before one semistandardness check on
# packed codes served both kinds of tableau, copied verbatim with their shape
# and value checks; cell lookup goes through the Entry helpers above.


def _check_shape(shape: Sequence[int], rows: Sequence[Sequence[Entry]], strict: bool) -> None:
    if strict:
        if not is_strict_partition(shape):
            raise ShapeMismatch(f"{tuple(shape)} is not a strict partition")
    elif not is_partition(shape):
        raise ShapeMismatch(f"{tuple(shape)} is not a partition")
    if len(rows) != len(shape):
        raise ShapeMismatch(
            f"expected {len(shape)} rows, got {len(rows)}"
        )
    for r, (length, row) in enumerate(zip(shape, rows), start=1):
        if len(row) != length:
            raise ShapeMismatch(
                f"row {r} has {len(row)} cells, expected {length}"
            )


def _check_values(t: Tableau, n: int | None) -> None:
    for (r, c), entry in cells_of(t):
        if entry.value < 1:
            raise ValueOutOfRange(
                f"entry {entry.render()} at cell ({r}, {c}) must be positive"
            )
        if n is not None and entry.value > n:
            raise ValueOutOfRange(
                f"entry {entry.render()} at cell ({r}, {c}) outside 1..{n}"
            )


def entry_validate_young(
    shape: Sequence[int], rows: Sequence[Sequence[Entry]], n: int | None = None
) -> YoungTableau:
    """Build a :class:`YoungTableau`, checking semistandardness.

    Rows must weakly increase left to right and columns strictly increase bottom
    to top; marked entries are not allowed.

    Raises:
        ShapeMismatch: Shape is not a partition or rows do not match it.
        RowViolation / ColumnViolation: An adjacent pair is out of order; the
            message carries the 1-based cell coordinates.
        ValueOutOfRange: A marked entry appears, or a value falls outside 1..n.
    """
    _check_shape(shape, rows, strict=False)
    t = YoungTableau(tuple(shape), tuple(tuple(row) for row in rows))
    for (r, c), entry in cells_of(t):
        if entry.marked:
            raise ValueOutOfRange(
                f"marked entry {entry.render()} at cell ({r}, {c}) not allowed here"
            )
    _check_values(t, n)
    for (r, c), entry in cells_of(t):
        left = entry_at(t, r, c - 1)
        if left is not None and left.value > entry.value:
            raise RowViolation(
                f"cells ({r}, {c - 1}) and ({r}, {c}) decrease: "
                f"{left.render()} > {entry.render()}"
            )
        below = entry_at(t, r - 1, c)
        if below is not None and below.value >= entry.value:
            raise ColumnViolation(
                f"cells ({r - 1}, {c}) and ({r}, {c}) do not increase: "
                f"{below.render()} >= {entry.render()}"
            )
    return t


def entry_validate_shifted(
    shape: Sequence[int], rows: Sequence[Sequence[Entry]], n: int | None = None
) -> ShiftedTableau:
    """Build a :class:`ShiftedTableau`, checking semistandardness.

    Entries weakly increase along rows and columns in the order
    ``1' < 1 < 2' < 2 < ...``; each row repeats a marked value at most once, each
    column repeats an unmarked value at most once, and cells on the main diagonal
    (column equal to row) are unmarked.

    Raises:
        ShapeMismatch: Shape is not strict or rows do not match it.
        RowViolation / ColumnViolation: Order or repetition broken along a line.
        DuplicateMarkInRow: The same marked value twice in one row.
        DiagonalMarkViolation: A marked entry on the main diagonal.
        ValueOutOfRange: A value falls outside 1..n.
    """
    _check_shape(shape, rows, strict=True)
    t = ShiftedTableau(tuple(shape), tuple(tuple(row) for row in rows))
    _check_values(t, n)
    for (r, c), entry in cells_of(t):
        if entry.marked and r == c:
            raise DiagonalMarkViolation(
                f"marked entry {entry.render()} on the diagonal at ({r}, {c})"
            )
        left = entry_at(t, r, c - 1)
        if left is not None:
            if left > entry:
                raise RowViolation(
                    f"cells ({r}, {c - 1}) and ({r}, {c}) decrease: "
                    f"{left.render()} > {entry.render()}"
                )
            if left == entry and entry.marked:
                raise DuplicateMarkInRow(
                    f"marked value {entry.render()} repeats in row {r} "
                    f"at columns {c - 1} and {c}"
                )
        below = entry_at(t, r - 1, c)
        if below is not None:
            if below > entry:
                raise ColumnViolation(
                    f"cells ({r - 1}, {c}) and ({r}, {c}) decrease: "
                    f"{below.render()} > {entry.render()}"
                )
            if below == entry and not entry.marked:
                raise ColumnViolation(
                    f"unmarked value {entry.render()} repeats in column {c} "
                    f"at rows {r - 1} and {r}"
                )
    return t


# -- json.dumps graph writers ------------------------------------------------------
#
# The library's JSON and DOT writers as they read before they formatted the
# bytes directly, copied verbatim with the DOT palette and escaping.


def export_json(graph: CrystalGraph) -> str:
    """Canonical JSON text (sorted vertices and edges, trailing newline)."""
    data = {
        "n": graph.n,
        "vertices": [
            {"id": v.id, "payload": v.payload, "weight": list(v.weight)}
            for v in vertex_rows(graph)
        ],
        "edges": [
            {"src": src, "color": str(color), "dst": dst}
            for src, color, dst in graph.edges
        ],
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


_INT_PALETTE = {0: "green", 1: "red", 2: "blue", 3: "purple"}
_INT_CYCLE = ("orange", "brown", "teal")
_ODD_PALETTE = {"1p": "magenta", "2p": "cyan"}
_ODD_CYCLE = ("magenta", "cyan", "gold", "gray")


def dot_color(color: Color) -> str:
    if isinstance(color, int):
        if color in _INT_PALETTE:
            return _INT_PALETTE[color]
        return _INT_CYCLE[(color - 4) % len(_INT_CYCLE)]
    if color in _ODD_PALETTE:
        return _ODD_PALETTE[color]
    digits = re.match(r"\d+", color)
    index = int(digits.group()) - 1 if digits else 0
    return _ODD_CYCLE[index % len(_ODD_CYCLE)]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: CrystalGraph) -> str:
    """Graphviz text with the fixed edge palette and payload labels."""
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for vertex in vertex_rows(graph):
        lines.append(f'  "{_dot_escape(vertex.id)}" [label="{_dot_escape(vertex.payload)}"];')
    for src, color, dst in graph.edges:
        lines.append(
            f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" '
            f'[color={dot_color(color)}, label="{_dot_escape(str(color))}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- string-edge graph builders ----------------------------------------------------
#
# The library's tableau and tensor builders as they read when every edge was
# a string triple and ``CrystalGraph.__init__`` looked both ends up again,
# copied verbatim but for the one line that takes the lowering cells, and
# for the Young rule: the library lowers Young tableaux with the shifted
# body, and the tableau builder here with its own one-letter rule.


def _lowering_cells(codes: tuple[int, ...], g: Geometry, n: int) -> list[int]:
    """Per color ``0..n-1``, the cell of the letter ending the first maximal
    prefix of the reading word of ``codes`` (``-1`` when there is none)."""
    read = [c for c, marked in g.reading if codes[c] & 1 == marked]
    word = [Entry((codes[c] + 1) >> 1, bool(codes[c] & 1)) for c in read]
    positions = [first_max_position(word, i) for i in range(1, n)]
    return [-1] + [read[r - 1] if r else -1 for r in positions]


def _young_lower_at(codes: tuple[int, ...], g: Geometry, i: int, cell: int) -> tuple[int, ...]:
    """The Young ``f_i`` of packed ``codes``: the ``i`` at ``cell`` becomes an ``i + 1``."""
    return codes[:cell] + (2 * i + 2,) + codes[cell + 1:]


def string_edge_tableau_graph(
    shifted_shape: bool,
    shape: Sequence[int],
    n: int,
    config: Config | None,
    queer_move: bool = False,
) -> CrystalGraph:
    """The graph on all tableaux of ``shape`` with an edge ``t -> f_i(t)`` for
    each color ``1..n-1`` where ``f_i`` is defined, and ``t -> f0(t)`` too
    when ``queer_move`` is set; ``CrystalGraph`` refuses an ``f(t)`` outside
    the enumeration."""
    config = config or DEFAULT_CONFIG
    g = checked_geometry(shape, n, shifted_shape)
    lower = lower_at if shifted_shape else _young_lower_at
    ids = {
        codes: render_codes(codes, g)
        for codes in enumerate_codes(g, n, config.max_vertices)
    }
    vertices = []
    edges = []
    for codes, tid in ids.items():
        vertices.append((tid, tid, weight_codes(codes, n)))
        down = _lowering_cells(codes, g, n)
        for i in range(1, n):
            if down[i] >= 0:
                moved = lower(codes, g, i, down[i])
                edges.append((tid, i, ids.get(moved) or render_codes(moved, g)))
        if queer_move and (moved := queer.f0_codes(codes)) is not None:
            edges.append((tid, 0, ids.get(moved) or render_codes(moved, g)))
    return CrystalGraph(n, vertices, edges)


def string_edge_tensor_graphs(
    g1: CrystalGraph,
    g2: CrystalGraph,
    queer: bool = False,
    config: Config | None = None,
) -> CrystalGraph:
    """Tensor product graph on the full cartesian product of vertices, with
    the edges of :class:`TensorView` over every pair; vertex ids are the
    view's payloads."""
    config = config or DEFAULT_CONFIG
    _check_lengths(g1, g2)
    size = len(g1) * len(g2)
    if size > config.max_vertices:
        raise ClosureBudgetExceeded(
            f"tensor product of {len(g1)} x {len(g2)} = {size} vertices "
            f"exceeds {config.max_vertices} vertices"
        )
    width = len(g2)
    right = [_wrap_factor(p) for p in g2.payloads]
    ids = [f"{_wrap_factor(p)}⊗{q}" for p in g1.payloads for q in right]
    weights = [tuple(map(add, w1, w2)) for w1 in g1.weights for w2 in g2.weights]
    even = sorted({c for c in (*g1.down, *g2.down) if isinstance(c, int) and c >= 1})
    # Per color, ``(phi, eps)``: a move acts on the left factor of ``(a, b)``
    # exactly when ``eps[b] < phi[a]``.
    rules = [(c, string_length_maps(g1, c)[0]) for c in even]
    rules = [(c, phi, string_length_maps(g2, c)[1]) for c, phi in rules]
    if queer:
        # The 0-move acts on the left exactly when wt_1 = wt_2 = 0 on the right.
        rules.append((0, [1] * len(g1), [1 if any(w[:2]) else 0 for w in g2.weights]))
    none1, none2 = [-1] * len(g1), [-1] * width
    edges = []
    for color, phi, eps in rules:
        down1, down2 = g1.down.get(color, none1), g2.down.get(color, none2)
        for a, (bound, t1) in enumerate(zip(phi, down1)):
            base = a * width
            for b, (e, t2) in enumerate(zip(eps, down2)):
                if e < bound:
                    if t1 >= 0:
                        edges.append((ids[base + b], color, ids[t1 * width + b]))
                elif t2 >= 0:
                    edges.append((ids[base + b], color, ids[base + t2]))
    return CrystalGraph(g1.n, zip(ids, ids, weights), edges)


# -- one-loop graph tables ------------------------------------------------------------
#
# ``CrystalGraph.__init__``'s table-building loop as it read before the
# constructors shared ``_place`` and ``_link``, copied verbatim.


def edge_loop_tables(
    n: int, vertices: Sequence[Vertex], edges: Sequence[Edge]
) -> tuple[tuple[str, ...], dict, dict, dict, dict]:
    """``(vertex_ids, down, up, multi_down, multi_up)`` of
    ``CrystalGraph(n, vertices, edges)``, for vertices and edges it accepts."""
    rows = sorted(vertices, key=itemgetter(0))
    vertex_ids = tuple(map(itemgetter(0), rows))
    index = {vid: k for k, vid in enumerate(vertex_ids)}
    lists: dict[Color, tuple[list[int], list[int]]] = {}
    extra: tuple[dict, dict] = ({}, {})  # color -> vertex -> all targets (sources)
    for src, color, dst in edges:
        s, d = index[src], index[dst]
        if color not in lists:
            lists[color] = ([-1] * len(rows), [-1] * len(rows))
        down, up = lists[color]
        if down[s] < 0:
            down[s] = d
        elif down[s] != d:
            extra[0].setdefault(color, {}).setdefault(s, {down[s]}).add(d)
        if up[d] < 0:
            up[d] = s
        elif up[d] != s:
            extra[1].setdefault(color, {}).setdefault(d, {up[d]}).add(s)
    order = sorted(lists, key=color_key)
    downs = {c: lists[c][0] for c in order}
    ups = {c: lists[c][1] for c in order}
    for table, firsts in zip(extra, (downs, ups)):
        for color, ends in table.items():
            for k, targets in ends.items():
                ends[k] = tuple(sorted(targets))
                firsts[color][k] = ends[k][0]
    return vertex_ids, downs, ups, extra[0], extra[1]
