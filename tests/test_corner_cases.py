"""Hand-built corner cases pinned as literals.

The verdicts and file bytes below were recorded from the string-keyed
adjacency that the integer-indexed graph core replaced, so the multi-edge
side table and the sorted-order rules cannot drift.

Checks, on a relabeled queer crystal (2,1) at n = 3 with
* doubled color-1 and color-0 edges (A2/B2 counts),
* an identical edge listed twice (deduplicated),
* odd ``"1p"`` edges,
* an edge of color 3 >= n (W1),
* a color-2 cycle (A1),
that ``Verdict.to_dict()`` of the even, queer and component checkers in both
modes, and the sha256 of the ``export_json``/``export_dot`` bytes, match the
pinned values; that the graph's edges are the pinned sorted tuple; that the
string walks raise the pinned ``CycleDetected`` messages; and that an edge
to an unknown vertex, a duplicate id or a short weight raise the pinned
errors and exit 2 from ``verify``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from crystals import (
    CrystalGraph,
    CycleDetected,
    DimensionMismatch,
    ParseError,
    Vertex,
    check_01_components,
    check_02_components,
    check_queer_regular,
    check_stembridge,
    export_dot,
    export_json,
    queer_graph,
    string_length_maps,
)
from crystals.cli import main
from oracles import vertex_rows


def _base() -> CrystalGraph:
    """Queer (2,1) at n = 3 with vertex ``k`` (in sorted order) renamed ``vk``."""
    g = queer_graph((2, 1), 3)
    name = {vid: f"v{k}" for k, vid in enumerate(g.vertex_ids)}
    vertices = [Vertex(name[vid], g.payload_of(vid), g.weight_of(vid)) for vid in g.vertex_ids]
    edges = [(name[s], c, name[d]) for s, c, d in g.edges]
    return CrystalGraph(3, vertices, edges)


def _with(*extra) -> CrystalGraph:
    base = _base()
    return CrystalGraph(base.n, vertex_rows(base), [*base.edges, *extra])


CASES = {
    "doubled": lambda: _with(("v0", 1, "v4"), ("v1", 0, "v2")),
    "repeated": lambda: _with(("v4", 0, "v6"), ("v0", 2, "v1")),
    "odd": lambda: _with(("v0", "1p", "v3"), ("v3", "1p", "v0")),
    "color3": lambda: _with(("v6", 3, "v7")),
    "cycle2": lambda: _with(("v7", 2, "v6")),
}


def _outcome(check, *args):
    try:
        return check(*args).to_dict()
    except Exception as exc:  # pinned as the raised type and message
        return [type(exc).__name__, str(exc)]


def _record(graph: CrystalGraph) -> dict:
    return {
        "edges": [list(e) for e in graph.edges],
        "json_sha256": hashlib.sha256(export_json(graph).encode()).hexdigest(),
        "dot_sha256": hashlib.sha256(export_dot(graph).encode()).hexdigest(),
        "stembridge": _outcome(check_stembridge, graph, True),
        "stembridge_fast": _outcome(check_stembridge, graph, False),
        "queer": _outcome(check_queer_regular, graph, True),
        "queer_fast": _outcome(check_queer_regular, graph, False),
        "components01": _outcome(check_01_components, graph),
        "components02": _outcome(check_02_components, graph),
    }


PINNED = {'color3': {'components01': {'notes': ['v0: doubled chain, k=1',
                                                'v1: doubled chain, k=2',
                                                'v5: doubled chain, k=1'],
                                      'ok': True,
                                      'violations': []},
                     'components02': {'notes': ['v0: double ladder m=2, 0-link present'],
                                      'ok': True,
                                      'violations': []},
                     'dot_sha256': '3b7915adf0d16c54d2d127b85702185d2534eccc4ec8392a47b313a10cc9c303',
                     'edges': [['v0', 0, 'v2'],
                               ['v0', 1, 'v2'],
                               ['v0', 2, 'v1'],
                               ['v1', 0, 'v3'],
                               ['v1', 1, 'v4'],
                               ['v2', 2, 'v3'],
                               ['v3', 2, 'v5'],
                               ['v4', 0, 'v6'],
                               ['v4', 1, 'v6'],
                               ['v5', 0, 'v7'],
                               ['v5', 1, 'v7'],
                               ['v6', 2, 'v7'],
                               ['v6', 3, 'v7']],
                     'json_sha256': '7fae11d1dbf54a27ec81854b3c6adae7c169ae8761ddc38d6fb6c40d265f86c4',
                     'queer': {'notes': [],
                               'ok': False,
                               'violations': [{'axiom': 'B0/W1',
                                               'detail': 'edge color 3 outside weight range 1..2',
                                               'vertices': ['v6', 'v7']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 2: delta eps_3 + delta phi_3 = 0, '
                                                         'expected -1',
                                               'vertices': ['v1']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 2: delta eps_3 + delta phi_3 = 0, '
                                                         'expected -1',
                                               'vertices': ['v3']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 2: delta eps_3 + delta phi_3 = 0, '
                                                         'expected -1',
                                               'vertices': ['v5']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 1: delta eps_3 + delta phi_3 = -1, '
                                                         'expected 0',
                                               'vertices': ['v6']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 1: delta eps_3 + delta phi_3 = 1, '
                                                         'expected 0',
                                               'vertices': ['v7']},
                                              {'axiom': 'B0/A4',
                                               'detail': 'raising color 1: delta eps_3 = 1, delta phi_3 = '
                                                         '0, expected both <= 0',
                                               'vertices': ['v7']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 2: delta eps_3 + delta phi_3 = 2, '
                                                         'expected -1',
                                               'vertices': ['v7']},
                                              {'axiom': 'B0/A4',
                                               'detail': 'raising color 2: delta eps_3 = 1, delta phi_3 = '
                                                         '1, expected both <= 0',
                                               'vertices': ['v7']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 3: delta eps_1 + delta phi_1 = -1, '
                                                         'expected 0',
                                               'vertices': ['v7']},
                                              {'axiom': 'B0/A3',
                                               'detail': 'raising color 3: delta eps_2 + delta phi_2 = 2, '
                                                         'expected -1',
                                               'vertices': ['v7']},
                                              {'axiom': 'B0/A4',
                                               'detail': 'raising color 3: delta eps_2 = 1, delta phi_2 = '
                                                         '1, expected both <= 0',
                                               'vertices': ['v7']}]},
                     'queer_fast': {'notes': [],
                                    'ok': False,
                                    'violations': [{'axiom': 'B0/W1',
                                                    'detail': 'edge color 3 outside weight range 1..2',
                                                    'vertices': ['v6', 'v7']}]},
                     'stembridge': {'notes': [],
                                    'ok': False,
                                    'violations': [{'axiom': 'W1',
                                                    'detail': 'edge color 3 outside weight range 1..2',
                                                    'vertices': ['v6', 'v7']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 2: delta eps_3 + delta phi_3 = '
                                                              '0, expected -1',
                                                    'vertices': ['v1']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 2: delta eps_3 + delta phi_3 = '
                                                              '0, expected -1',
                                                    'vertices': ['v3']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 2: delta eps_3 + delta phi_3 = '
                                                              '0, expected -1',
                                                    'vertices': ['v5']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 1: delta eps_3 + delta phi_3 = '
                                                              '-1, expected 0',
                                                    'vertices': ['v6']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 1: delta eps_3 + delta phi_3 = '
                                                              '1, expected 0',
                                                    'vertices': ['v7']},
                                                   {'axiom': 'A4',
                                                    'detail': 'raising color 1: delta eps_3 = 1, delta '
                                                              'phi_3 = 0, expected both <= 0',
                                                    'vertices': ['v7']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 2: delta eps_3 + delta phi_3 = '
                                                              '2, expected -1',
                                                    'vertices': ['v7']},
                                                   {'axiom': 'A4',
                                                    'detail': 'raising color 2: delta eps_3 = 1, delta '
                                                              'phi_3 = 1, expected both <= 0',
                                                    'vertices': ['v7']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 3: delta eps_1 + delta phi_1 = '
                                                              '-1, expected 0',
                                                    'vertices': ['v7']},
                                                   {'axiom': 'A3',
                                                    'detail': 'raising color 3: delta eps_2 + delta phi_2 = '
                                                              '2, expected -1',
                                                    'vertices': ['v7']},
                                                   {'axiom': 'A4',
                                                    'detail': 'raising color 3: delta eps_2 = 1, delta '
                                                              'phi_2 = 1, expected both <= 0',
                                                    'vertices': ['v7']}]},
                     'stembridge_fast': {'notes': [],
                                         'ok': False,
                                         'violations': [{'axiom': 'W1',
                                                         'detail': 'edge color 3 outside weight range 1..2',
                                                         'vertices': ['v6', 'v7']}]}},
          'cycle2': {'components01': {'notes': ['v0: doubled chain, k=1',
                                                'v1: doubled chain, k=2',
                                                'v5: doubled chain, k=1'],
                                      'ok': True,
                                      'violations': []},
                     'components02': {'notes': [],
                                      'ok': False,
                                      'violations': [{'axiom': 'C02',
                                                      'detail': 'component does not match the linked double '
                                                                'ladder m=2',
                                                      'vertices': ['v0']}]},
                     'dot_sha256': '947a48f78715240daaf03a6126b9dc3c0cea51f82477906c9dc238b21f9c23c5',
                     'edges': [['v0', 0, 'v2'],
                               ['v0', 1, 'v2'],
                               ['v0', 2, 'v1'],
                               ['v1', 0, 'v3'],
                               ['v1', 1, 'v4'],
                               ['v2', 2, 'v3'],
                               ['v3', 2, 'v5'],
                               ['v4', 0, 'v6'],
                               ['v4', 1, 'v6'],
                               ['v5', 0, 'v7'],
                               ['v5', 1, 'v7'],
                               ['v6', 2, 'v7'],
                               ['v7', 2, 'v6']],
                     'json_sha256': 'e206b0a1036071780f3a448d60d1674685b4d0037cc10af5b5a0bf978ff7f863',
                     'queer': {'notes': [],
                               'ok': False,
                               'violations': [{'axiom': 'B0/A1',
                                               'detail': "color 2 cycle through 'v6'",
                                               'vertices': []},
                                              {'axiom': 'B0/W1',
                                               'detail': 'color 2 edge moves weight (0, 1, 2) to (0, 2, 1), '
                                                         'expected (0, 0, 3)',
                                               'vertices': ['v7', 'v6']}]},
                     'queer_fast': {'notes': [],
                                    'ok': False,
                                    'violations': [{'axiom': 'B0/A1',
                                                    'detail': "color 2 cycle through 'v6'",
                                                    'vertices': []}]},
                     'stembridge': {'notes': [],
                                    'ok': False,
                                    'violations': [{'axiom': 'A1',
                                                    'detail': "color 2 cycle through 'v6'",
                                                    'vertices': []},
                                                   {'axiom': 'W1',
                                                    'detail': 'color 2 edge moves weight (0, 1, 2) to (0, '
                                                              '2, 1), expected (0, 0, 3)',
                                                    'vertices': ['v7', 'v6']}]},
                     'stembridge_fast': {'notes': [],
                                         'ok': False,
                                         'violations': [{'axiom': 'A1',
                                                         'detail': "color 2 cycle through 'v6'",
                                                         'vertices': []}]}},
          'doubled': {'components01': {'notes': ['v5: doubled chain, k=1'],
                                       'ok': False,
                                       'violations': [{'axiom': 'C01',
                                                       'detail': 'expected exactly one parallel {0,1} edge '
                                                                 'pair, found 2',
                                                       'vertices': ['v0']}]},
                      'components02': {'notes': [],
                                       'ok': False,
                                       'violations': [{'axiom': 'C02',
                                                       'detail': 'a source does not head a well-formed '
                                                                 'ladder',
                                                       'vertices': ['v0']}]},
                      'dot_sha256': 'a2064cef4227b595221b780d22e0afac896f3ba342818ea6016a0274a97c1434',
                      'edges': [['v0', 0, 'v2'],
                                ['v0', 1, 'v2'],
                                ['v0', 1, 'v4'],
                                ['v0', 2, 'v1'],
                                ['v1', 0, 'v2'],
                                ['v1', 0, 'v3'],
                                ['v1', 1, 'v4'],
                                ['v2', 2, 'v3'],
                                ['v3', 2, 'v5'],
                                ['v4', 0, 'v6'],
                                ['v4', 1, 'v6'],
                                ['v5', 0, 'v7'],
                                ['v5', 1, 'v7'],
                                ['v6', 2, 'v7']],
                      'json_sha256': 'b5262ed92d3a6c9f71d563f4c07e79f37af535e1bb0451a7c2c5c7089b1aadde',
                      'queer': {'notes': [],
                                'ok': False,
                                'violations': [{'axiom': 'B0/A2',
                                                'detail': '2 outgoing edges of color 1',
                                                'vertices': ['v0']},
                                               {'axiom': 'B0/A2',
                                                'detail': '2 incoming edges of color 1',
                                                'vertices': ['v4']},
                                               {'axiom': 'B0/W1',
                                                'detail': 'color 1 edge moves weight (2, 1, 0) to (1, 1, '
                                                          '1), expected (1, 2, 0)',
                                                'vertices': ['v0', 'v4']},
                                               {'axiom': 'W1',
                                                'detail': '0-edge moves weight (2, 0, 1) to (1, 2, 0), '
                                                          'expected (1, 1, 1)',
                                                'vertices': ['v1', 'v2']},
                                               {'axiom': 'B2',
                                                'detail': '2 outgoing 0-edges',
                                                'vertices': ['v1']},
                                               {'axiom': 'B2',
                                                'detail': '2 incoming 0-edges',
                                                'vertices': ['v2']},
                                               {'axiom': 'B5',
                                                'detail': 'color 2: lowering square with the 0-move does '
                                                          "not close ('v3' vs 'v2')",
                                                'vertices': ['v0']}]},
                      'queer_fast': {'notes': [],
                                     'ok': False,
                                     'violations': [{'axiom': 'B0/A2',
                                                     'detail': '2 outgoing edges of color 1',
                                                     'vertices': ['v0']},
                                                    {'axiom': 'B0/A2',
                                                     'detail': '2 incoming edges of color 1',
                                                     'vertices': ['v4']}]},
                      'stembridge': {'notes': [],
                                     'ok': False,
                                     'violations': [{'axiom': 'A2',
                                                     'detail': '2 outgoing edges of color 1',
                                                     'vertices': ['v0']},
                                                    {'axiom': 'A2',
                                                     'detail': '2 incoming edges of color 1',
                                                     'vertices': ['v4']},
                                                    {'axiom': 'W1',
                                                     'detail': 'color 1 edge moves weight (2, 1, 0) to (1, '
                                                               '1, 1), expected (1, 2, 0)',
                                                     'vertices': ['v0', 'v4']}]},
                      'stembridge_fast': {'notes': [],
                                          'ok': False,
                                          'violations': [{'axiom': 'A2',
                                                          'detail': '2 outgoing edges of color 1',
                                                          'vertices': ['v0']},
                                                         {'axiom': 'A2',
                                                          'detail': '2 incoming edges of color 1',
                                                          'vertices': ['v4']}]}},
          'odd': {'components01': {'notes': ['v0: doubled chain, k=1',
                                             'v1: doubled chain, k=2',
                                             'v5: doubled chain, k=1'],
                                   'ok': True,
                                   'violations': []},
                  'components02': {'notes': ['v0: double ladder m=2, 0-link present'],
                                   'ok': True,
                                   'violations': []},
                  'dot_sha256': 'e2326893a307c27af7c8160650dbfcfe3a6d66e6d31f3e84bb812644b415ac6e',
                  'edges': [['v0', 0, 'v2'],
                            ['v0', 1, 'v2'],
                            ['v0', 2, 'v1'],
                            ['v0', '1p', 'v3'],
                            ['v1', 0, 'v3'],
                            ['v1', 1, 'v4'],
                            ['v2', 2, 'v3'],
                            ['v3', 2, 'v5'],
                            ['v3', '1p', 'v0'],
                            ['v4', 0, 'v6'],
                            ['v4', 1, 'v6'],
                            ['v5', 0, 'v7'],
                            ['v5', 1, 'v7'],
                            ['v6', 2, 'v7']],
                  'json_sha256': '21198f327997979825df91569378b941b90385e199fe5802d09ee993ecc3726c',
                  'queer': {'notes': [], 'ok': True, 'violations': []},
                  'queer_fast': {'notes': [], 'ok': True, 'violations': []},
                  'stembridge': {'notes': [], 'ok': True, 'violations': []},
                  'stembridge_fast': {'notes': [], 'ok': True, 'violations': []}},
          'repeated': {'components01': {'notes': ['v0: doubled chain, k=1',
                                                  'v1: doubled chain, k=2',
                                                  'v5: doubled chain, k=1'],
                                        'ok': True,
                                        'violations': []},
                       'components02': {'notes': ['v0: double ladder m=2, 0-link present'],
                                        'ok': True,
                                        'violations': []},
                       'dot_sha256': 'ff60db02242c30c244bef5772c1320e755c975534159bcbb6419e1dc2d117ec4',
                       'edges': [['v0', 0, 'v2'],
                                 ['v0', 1, 'v2'],
                                 ['v0', 2, 'v1'],
                                 ['v1', 0, 'v3'],
                                 ['v1', 1, 'v4'],
                                 ['v2', 2, 'v3'],
                                 ['v3', 2, 'v5'],
                                 ['v4', 0, 'v6'],
                                 ['v4', 1, 'v6'],
                                 ['v5', 0, 'v7'],
                                 ['v5', 1, 'v7'],
                                 ['v6', 2, 'v7']],
                       'json_sha256': '21e79f89c4df79c4c77da5a14f74daa41efbbdc0d4741d4c0568f89141ef77de',
                       'queer': {'notes': [], 'ok': True, 'violations': []},
                       'queer_fast': {'notes': [], 'ok': True, 'violations': []},
                       'stembridge': {'notes': [], 'ok': True, 'violations': []},
                       'stembridge_fast': {'notes': [], 'ok': True, 'violations': []}}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_corner_case_matches_the_pinned_record(name):
    assert _record(CASES[name]()) == PINNED[name]


def test_repeated_edges_are_deduplicated():
    assert _with(("v4", 0, "v6")) == _base()
    assert export_json(CASES["repeated"]()) == export_json(_base())


def test_string_walks_raise_the_pinned_cycle_messages():
    with pytest.raises(CycleDetected, match=r"^color 2 cycle through 'v6'$"):
        string_length_maps(CASES["cycle2"](), 2)
    # x -> y -> z -> y: the walk from the head x revisits y.
    revisit = CrystalGraph(
        1,
        [Vertex(v, v, (0,)) for v in "xyz"],
        [("x", 1, "y"), ("y", 1, "z"), ("z", 1, "y")],
    )
    with pytest.raises(CycleDetected, match=r"^color 1 walk from 'x' revisits 'y'$"):
        string_length_maps(revisit, 1)


def test_construction_errors_keep_their_sorted_order_messages():
    vertices = [Vertex(v, v, (0,)) for v in "abc"]
    with pytest.raises(ParseError, match=r"^edge target 'zy' is not a vertex$"):
        CrystalGraph(1, vertices, [("c", 1, "zz"), ("b", 1, "zy")])
    with pytest.raises(ParseError, match=r"^edge source 'a0' is not a vertex$"):
        CrystalGraph(1, vertices, [("c", 1, "zz"), ("a0", 1, "b")])
    with pytest.raises(ParseError, match=r"^edge target 'zy' is not a vertex$"):
        CrystalGraph(1, vertices, [("c", 1, "a"), ("b", "1p", "zz"), ("b", 1, "zy")])
    with pytest.raises(DimensionMismatch, match=r"^vertex 'a' has weight of length 2, expected 1$"):
        CrystalGraph(1, [Vertex("b", "b", (0,)), Vertex("b", "b", (0,)), Vertex("a", "a", (0, 0))], [])
    with pytest.raises(ParseError, match=r"^duplicate vertex id 'b'$"):
        CrystalGraph(1, [Vertex("c", "c", (0, 0)), Vertex("b", "b", (0,)), Vertex("b", "b", (0,))], [])


def test_verify_refuses_an_edge_to_an_unknown_vertex(tmp_path, capsys):
    path = tmp_path / "unknown.json"
    data = json.loads(export_json(_base()))
    data["edges"].append({"src": "v7", "color": "1", "dst": "nowhere"})
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--axioms", "queer"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "edge target 'nowhere' is not a vertex" in err
