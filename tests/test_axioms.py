"""Local axiom checkers: clean passes, targeted breakage, component shapes.

Checks:
* every constructed crystal family passes the even-color checker, and queer
  constructions additionally pass the full family checker and both
  two-color component classifiers (the queer standard crystal on every
  alphabet of 2 to 7 letters),
* verdicts serialize to the documented dictionary shape,
* hand-built pathological graphs trigger exactly the intended axiom labels
  (cycles, forked edges, wrong edge weights, inconsistent vertex weights,
  doubled or chained zero edges),
* deleting a zero edge out of the source breaks the pairing axiom,
* the component classifiers report the hand-derived chain and ladder shapes,
* fast mode agrees with exhaustive mode on the overall verdict while
  reporting no more violations; on the seeded mutants below, whose swaps
  let fast mode reach A3-A6 and B3-B6, for both the even and the queer
  checker, it reports a prefix of the exhaustive violations, empty only when
  they are, within one group (a phase, and in A3-A6 and B3-B6 one vertex of
  it), and the first exhaustive violation past it opens another group,
* on seeded mutants (an edge dropped, added or retargeted, or a weight
  coordinate nudged, or two same-color edge targets swapped keeping every
  weight and string length) the even checker agrees verdict for verdict with
  the oracle that spells the dual A5/A6 pass out a second time and has its
  own A1/A2 and W1/W2 phases written from the definitions, every A5/A6
  detail form fires, and the queer checker's ``B0/`` violations are the even
  checker's verdict on the positive-color subgraph,
* the {0,1} and {0,2} classifiers agree verdict for verdict with the oracle
  that runs them on restricted graph copies, on every queer crystal with
  |λ| <= 7 and n <= 5, on queer tensors with |γ| + |δ| <= 5, and on seeded
  mutants over colors 0-2 (edges deleted, added, reversed, redirected,
  recolored, made into self-loops, or closing a color-2 cycle),
* a graph with n = 3,000 and no edges, with no vertex or with one, checks
  in under a second: colors without edges cost no color pairs,
* no checker builds a ``CrystalGraph``.
"""

from __future__ import annotations

import random
import re
import time

import pytest

from crystals import (
    CrystalGraph,
    check_01_components,
    check_02_components,
    check_queer_regular,
    check_stembridge,
    queer_graph,
    queer_standard_graph,
    shifted_graph,
    standard_graph,
    tensor_graphs,
    young_graph,
)
from crystals.graph import Vertex
from oracles import (
    copying_check_01_components,
    copying_check_02_components,
    mirrored_stembridge,
    restrict,
    strict_partitions,
    subgraph,
    vertex_rows,
)
from reference_data import QUEER31_01_SHAPES, QUEER31_02_SHAPES


def graph_of(n, vertex_weights, edge_list):
    """Tiny helper: vertices as {id: weight}, edges as (src, color, dst)."""
    return CrystalGraph(
        n,
        [Vertex(vid, vid, tuple(wt)) for vid, wt in vertex_weights.items()],
        edge_list,
    )


def axiom_labels(verdict):
    return {v.axiom for v in verdict.violations}


@pytest.mark.parametrize(
    "make",
    [
        lambda: standard_graph(4),
        lambda: young_graph((2, 2), 3),
        lambda: shifted_graph((3, 1), 3),
        lambda: tensor_graphs(standard_graph(3), standard_graph(3)),
    ],
    ids=["chain", "young", "shifted", "tensor-square"],
)
def test_clean_graphs_pass_even_checker(make):
    verdict = check_stembridge(make())
    assert verdict.ok
    assert verdict.violations == ()


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (2, 1), (3, 1), (3, 2)], ids=str
)
def test_clean_queer_graphs_pass_all_checkers(shape):
    g = queer_graph(shape, 3)
    assert check_stembridge(g).ok
    assert check_queer_regular(g).ok
    assert check_01_components(g).ok
    assert check_02_components(g).ok


def test_verdict_serialization(queer31):
    verdict = check_queer_regular(queer31)
    data = verdict.to_dict()
    assert data == {"ok": True, "violations": [], "notes": []}
    broken = restrict(
        queer31, [v for v in queer31.vertex_ids if v != "[[2,3',3],[3]]"]
    )
    data = check_queer_regular(broken).to_dict()
    assert data["ok"] is False
    assert data["violations"]
    first = data["violations"][0]
    assert set(first) == {"axiom", "vertices", "detail"}
    assert isinstance(first["vertices"], list)


def test_cycle_is_reported():
    g = graph_of(2, {"a": (0, 0)}, [("a", 1, "a")])
    assert "A1" in axiom_labels(check_stembridge(g))


def test_forked_edge_is_reported():
    g = graph_of(
        2,
        {"a": (1, 0), "b": (0, 1), "c": (0, 1)},
        [("a", 1, "b"), ("a", 1, "c")],
    )
    assert "A2" in axiom_labels(check_stembridge(g))


def test_wrong_edge_weight_is_reported():
    g = graph_of(2, {"a": (1, 0), "b": (1, 0)}, [("a", 1, "b")])
    assert "W1" in axiom_labels(check_stembridge(g))


def test_inconsistent_vertex_weight_is_reported():
    g = graph_of(2, {"a": (1, 0)}, [])
    assert "W2" in axiom_labels(check_stembridge(g))


def test_doubled_zero_edge_is_reported():
    g = graph_of(
        2,
        {"a": (1, 1), "b": (0, 2), "c": (0, 2)},
        [("a", 0, "b"), ("a", 0, "c")],
    )
    assert "B2" in axiom_labels(check_queer_regular(g))


def test_zero_edge_chain_is_reported():
    g = graph_of(
        3,
        {"a": (1, 1, 0), "b": (0, 2, 0), "c": (-1, 3, 0)},
        [("a", 0, "b"), ("b", 0, "c")],
    )
    assert "B1" in axiom_labels(check_queer_regular(g))


def test_even_violations_reported_under_delegation_label(queer31):
    broken = CrystalGraph(
        queer31.n,
        [Vertex(v, v, queer31.weight_of(v)) for v in queer31.vertex_ids],
        [e for e in queer31.edges if e != ("[[1,1,1],[2]]", 1, "[[1,1,2],[2]]")],
    )
    labels = axiom_labels(check_queer_regular(broken))
    assert any(label.startswith("B0/") for label in labels)


def test_missing_source_zero_edge_breaks_pairing(queer31):
    broken = CrystalGraph(
        queer31.n,
        [Vertex(v, v, queer31.weight_of(v)) for v in queer31.vertex_ids],
        [e for e in queer31.edges if e != ("[[1,1,1],[2]]", 0, "[[1,1,2'],[2]]")],
    )
    labels = axiom_labels(check_queer_regular(broken))
    assert "B1" in labels


def test_component_shapes_match_reference(queer31):
    chains = check_01_components(queer31)
    assert chains.ok
    ks = sorted(int(m.group(1)) for m in
                (re.search(r"doubled chain, k=(\d+)", note) for note in chains.notes)
                if m)
    assert ks == QUEER31_01_SHAPES

    ladders = check_02_components(queer31)
    assert ladders.ok
    ms = sorted(
        (int(m.group(1)), "present" in note)
        for note, m in (
            (note, re.search(r"ladder m=(\d+)", note)) for note in ladders.notes
        )
        if m
    )
    assert ms == sorted(QUEER31_02_SHAPES)


def test_single_ladders_occur_in_tensor_squares():
    g = tensor_graphs(queer_graph((1,), 3), queer_graph((1,), 3), queer=True)
    verdict = check_02_components(g)
    assert verdict.ok
    assert any("single ladder" in note for note in verdict.notes)
    assert any("double ladder" in note for note in verdict.notes)


def test_component_checkers_flag_broken_chains(queer31):
    broken = CrystalGraph(
        queer31.n,
        [Vertex(v, v, queer31.weight_of(v)) for v in queer31.vertex_ids],
        [e for e in queer31.edges if e != ("[[1,1,1],[3]]", 0, "[[1,1,2'],[3]]")],
    )
    assert not check_01_components(broken).ok
    assert not check_02_components(broken).ok


def test_fast_mode_matches_exhaustive_verdict(queer31, shifted31):
    for g, checker in [
        (shifted31, check_stembridge),
        (queer31, check_queer_regular),
    ]:
        broken = CrystalGraph(
            g.n,
            [Vertex(v, v, g.weight_of(v)) for v in g.vertex_ids],
            list(g.edges)[:-3],
        )
        fast = checker(broken, exhaustive=False)
        full = checker(broken, exhaustive=True)
        assert checker(g, exhaustive=False).ok
        assert not fast.ok and not full.ok
        assert len(fast.violations) <= len(full.violations)
        assert set(fast.violations) <= set(full.violations)


def test_queer_standard_crystal_passes(queer31):
    for n in range(2, 8):
        g = queer_standard_graph(n)
        assert check_queer_regular(g).ok
        assert check_01_components(g).ok
        assert check_02_components(g).ok


A5_A6_FORMS = (
    r"colors \d+,\d+: raising square does not close",
    r"colors \d+,\d+: nabla phi_\d+ at closed square top = ",
    r"colors \d+,\d+: lowering square does not close",
    r"colors \d+,\d+: delta eps_\d+ at closed square bottom = ",
    r"colors \d+,\d+: octagon does not close",
    r"colors \d+,\d+: nabla phi at octagon top = ",
    r"colors \d+,\d+: lowering octagon does not close",
    r"colors \d+,\d+: delta eps at octagon bottom = ",
)


def seeded_mutants(graph, seed, count):
    """Copies of ``graph`` with one edge dropped, added or retargeted, or one
    weight coordinate moved by one."""
    rng = random.Random(seed)
    vids = graph.vertex_ids
    colors = sorted({c for _, c, _ in graph.edges})
    for _ in range(count):
        edges = list(graph.edges)
        weights = {v: list(graph.weight_of(v)) for v in vids}
        kind = rng.choice(("drop", "add", "retarget", "nudge"))
        if kind == "drop":
            del edges[rng.randrange(len(edges))]
        elif kind == "add":
            edges.append((rng.choice(vids), rng.choice(colors), rng.choice(vids)))
        elif kind == "retarget":
            k = rng.randrange(len(edges))
            edges[k] = (edges[k][0], edges[k][1], rng.choice(vids))
        else:
            weights[rng.choice(vids)][rng.randrange(graph.n)] += rng.choice((-1, 1))
        yield CrystalGraph(
            graph.n,
            [Vertex(v, graph.payload_of(v), tuple(weights[v])) for v in vids],
            edges,
        )


def even_mutant_bases():
    return {
        "queer 2,1/3": queer_graph((2, 1), 3),
        "queer 3,1/4": queer_graph((3, 1), 4),
        "queer 3,2/4": queer_graph((3, 2), 4),
        "queer 4,2,1/4": queer_graph((4, 2, 1), 4),
        "young 2,1/3": young_graph((2, 1), 3),
        "young 3,2,1/4": young_graph((3, 2, 1), 4),
        "tensor 2x1/3": tensor_graphs(
            queer_graph((2,), 3), queer_graph((1,), 3), queer=True
        ),
    }


def test_folded_squares_match_the_mirrored_oracle_on_mutants():
    bases = even_mutant_bases()
    details = []
    for name, base in bases.items():
        for mutant in [*seeded_mutants(base, name, 40), *string_keeping_swaps(base, name, 20)]:
            even = subgraph(
                mutant, [c for c in mutant.colors if isinstance(c, int) and c >= 1]
            )
            for exhaustive in (True, False):
                verdict = check_stembridge(mutant, exhaustive)
                oracle = mirrored_stembridge(mutant, exhaustive)
                assert verdict.to_dict() == oracle.to_dict(), name
                details += [v.detail for v in verdict.violations]
                delegated = [
                    v.to_dict()
                    for v in check_queer_regular(mutant, exhaustive).violations
                    if v.axiom.startswith("B0/")
                ]
                expected = [
                    dict(v.to_dict(), axiom=f"B0/{v.axiom}")
                    for v in check_stembridge(even, exhaustive).violations
                ]
                assert delegated == expected, name
    for form in A5_A6_FORMS:
        assert any(re.match(form, detail) for detail in details), form


PHASES = {"A1": "A1/A2", "A2": "A1/A2", "W1": "W1/W2", "W2": "W1/W2", "A3": "A3/A4",
          "A4": "A3/A4", "B3": "B3/B4", "B4": "B3/B4"}
READ_BY_VERTEX = {"A3/A4", "raising A5/A6", "lowering A5/A6", "B3/B4", "B5", "B6"}


def fast_mode_group(violation):
    """The phase of a violation, with its first vertex where the phase is read
    vertex by vertex; the lowering A5/A6 details say "lowering" or "bottom"."""
    axiom = violation.axiom.removeprefix("B0/")
    prefix = violation.axiom[: len(violation.axiom) - len(axiom)]
    phase = PHASES.get(axiom, axiom)
    if axiom in ("A5", "A6"):
        lowering = "lowering" in violation.detail or "bottom" in violation.detail
        phase = f"{'lowering' if lowering else 'raising'} A5/A6"
    return prefix + phase, violation.vertices[0] if phase in READ_BY_VERTEX else None


def string_keeping_swaps(graph, seed, count):
    """Copies of ``graph`` with the targets of two edges of one color swapped,
    where the sources share their weight and their place in their strings:
    every weight and string length stays, so only A3-A6 and B3-B6 can fail."""
    rng = random.Random(seed)
    edges = list(graph.edges)
    buckets = {}
    for k, (src, color, _) in enumerate(edges):
        eps, up = 0, src
        while (up := graph.in_edge(up, color)) is not None:
            eps += 1
        buckets.setdefault((color, graph.weight_of(src), eps), []).append(k)
    pairs = [ks for ks in buckets.values() if len(ks) > 1]
    for _ in range(count if pairs else 0):
        k, m = rng.sample(rng.choice(pairs), 2)
        swapped = list(edges)
        swapped[k] = (edges[k][0], edges[k][1], edges[m][2])
        swapped[m] = (edges[m][0], edges[m][1], edges[k][2])
        yield CrystalGraph(graph.n, vertex_rows(graph), swapped)


def test_fast_mode_stops_at_the_first_failing_group_on_mutants():
    cuts = set()
    for name, base in even_mutant_bases().items():
        for mutant in [*seeded_mutants(base, name, 40), *string_keeping_swaps(base, name, 20)]:
            for checker in (check_stembridge, check_queer_regular):
                full = checker(mutant, exhaustive=True).violations
                fast = checker(mutant, exhaustive=False).violations
                assert fast == full[: len(fast)], name
                assert bool(fast) == bool(full), name
                assert len({fast_mode_group(v) for v in fast}) <= 1, name
                if len(full) > len(fast):
                    cut, after = fast_mode_group(fast[-1]), fast_mode_group(full[len(fast)])
                    assert after != cut, name
                    cuts.add((cut[0].removeprefix("B0/")[0], after[0] == cut[0]))
    # The cut falls between phases, and between vertices of an A and a B phase.
    assert {("A", True), ("B", True)} <= cuts
    assert any(not same_phase for _, same_phase in cuts)


def component_mutants(graph, seed, count):
    """Copies of ``graph`` with one to three edge changes over colors 0-2.

    An edge is deleted, added, reversed, redirected, recolored or made into a
    self-loop, or a color-2 string is closed back onto one of its vertices,
    which makes a cycle or a walk that runs into one; when that string's
    vertices all have 0-edges, their targets' color-2 string is closed onto
    the same step.
    """
    rng = random.Random(seed)
    vids = graph.vertex_ids
    for _ in range(count):
        edges = list(graph.edges)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(edges))
            src, color, dst = edges[k]
            kind = rng.choice(
                ("delete", "add", "reverse", "redirect", "recolor", "loop", "cycle2")
            )
            if kind == "delete":
                del edges[k]
            elif kind == "add":
                edges.append((rng.choice(vids), rng.randint(0, 2), rng.choice(vids)))
            elif kind == "reverse":
                edges[k] = (dst, color, src)
            elif kind == "redirect":
                edges[k] = (src, color, rng.choice(vids))
            elif kind == "recolor":
                edges[k] = (src, rng.randint(0, 2), dst)
            elif kind == "loop":
                edges[k] = (src, color, src)
            else:
                z = [rng.choice(vids)]
                while (nxt := graph.out_edge(z[-1], 2)) is not None:
                    z.append(nxt)
                j = rng.randrange(len(z))
                edges.append((z[-1], 2, z[j]))
                x = [graph.out_edge(v, 0) for v in z]
                if None not in x:
                    # Close the rung targets' string too, so that a ladder
                    # walk from the head runs on until its size bound.
                    last = (x[-1], 2, graph.out_edge(x[-1], 2))
                    edges = [e for e in edges if e != last]
                    edges.append((x[-1], 2, x[j]))
        yield CrystalGraph(graph.n, vertex_rows(graph), edges)


def _component_verdicts_match(g, label):
    for checker, oracle in (
        (check_01_components, copying_check_01_components),
        (check_02_components, copying_check_02_components),
    ):
        assert checker(g).to_dict() == oracle(g).to_dict(), label


def test_component_checkers_match_the_copying_oracle():
    for size in range(1, 8):
        for n in range(2, 6):
            for shape in strict_partitions(size):
                if len(shape) <= n:
                    _component_verdicts_match(queer_graph(shape, n), (shape, n))
    for total in range(2, 6):
        for left_size in range(1, total):
            for gamma in strict_partitions(left_size):
                for delta in strict_partitions(total - left_size):
                    g = tensor_graphs(
                        queer_graph(gamma, 3), queer_graph(delta, 3), queer=True
                    )
                    _component_verdicts_match(g, (gamma, delta))


def test_component_checkers_match_the_copying_oracle_on_mutants():
    bases = {
        "queer 2,1/3": queer_graph((2, 1), 3),
        "queer 3,1/4": queer_graph((3, 1), 4),
        "queer 4,2,1/4": queer_graph((4, 2, 1), 4),
        "standard 4": queer_standard_graph(4),
        "tensor 2x1/3": tensor_graphs(
            queer_graph((2,), 3), queer_graph((1,), 3), queer=True
        ),
    }
    details = []
    for name, base in bases.items():
        for mutant in component_mutants(base, name, 120):
            _component_verdicts_match(mutant, name)
            details += [v.detail for v in check_02_components(mutant).violations]
    assert any("well-formed ladder" in d for d in details)
    assert any("ladder of size" in d for d in details)


def test_ladder_with_cyclic_rails_is_rejected():
    # Color-2 rails z0 -> z1 -> z1 and x0 -> x1 -> x1 with 0-rungs z0 -> x0
    # and z1 -> x1: walked up to the component's size, the rails once read
    # as a ladder of m = 5 whose repeated vertices collapsed back onto the
    # component.
    g = graph_of(
        3,
        {v: (1, 1, 0) for v in ("x0", "x1", "z0", "z1")},
        [
            ("z0", 2, "z1"),
            ("z1", 2, "z1"),
            ("x0", 2, "x1"),
            ("x1", 2, "x1"),
            ("z0", 0, "x0"),
            ("z1", 0, "x1"),
        ],
    )
    for checker in (check_02_components, copying_check_02_components):
        verdict = checker(g)
        assert not verdict.ok
        assert [v.detail for v in verdict.violations] == [
            "a source does not head a well-formed ladder"
        ]


def test_colors_without_edges_cost_no_color_pairs():
    # Every color 1..n-1 is checked, but a color with no edge takes part in
    # no difference table or square: n = 3,000 colors check in well under a
    # second, where a loop over all color pairs takes several.
    n = 3000
    graphs = [
        CrystalGraph(n, [], []),
        CrystalGraph(n, [Vertex("v", "v", (0,) * n)], []),
    ]
    start = time.perf_counter()
    for g in graphs:
        for exhaustive in (True, False):
            assert check_stembridge(g, exhaustive).ok
            assert check_queer_regular(g, exhaustive).ok
    assert time.perf_counter() - start < 1.0


def test_no_checker_builds_a_graph(monkeypatch):
    g = queer_graph((3, 1), 4)
    built = []
    init = CrystalGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CrystalGraph, "__init__", counting_init)
    for checker in (
        check_stembridge,
        check_queer_regular,
        check_01_components,
        check_02_components,
    ):
        assert checker(g).ok
    assert built == []
