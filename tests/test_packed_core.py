"""Differential guard: the packed tableau core against the Entry-based oracles.

The library computes every tableau operator on tuples of integer codes
(``i'`` is ``2i - 1``, ``i`` is ``2i``) over a cached per-shape geometry.
``tests/oracles.py`` keeps the operators and enumerations as they were
written on ``Entry`` rows, with their own cell lookups and reading orders.

Checks:
* the ordered enumerations agree for every strict shape of size 1..8 at
  n = 1..5 (65,604 shifted tableaux) and every partition of size 1..6 at
  n = 1..4 (Young);
* at every one of those tableaux and every color 1..n-1, ``lower``,
  ``raise_``, ``phi`` and ``eps`` agree, and on shifted tableaux so do
  ``f0`` and ``e0``;
* colors past the largest entry, the empty shape and the codes themselves
  (pack/unpack round trip, render, weight) agree on a small sample;
* a one-color scan of a tableau or a word (``phi``, ``lower``, ``m_i``)
  peaks under 1 MB however large the color or the entries are;
* the graph builders emit exactly the oracle's lowering edges, and refuse
  (``ParseError``) a lowering whose target the enumeration did not list;
* a budget refuses an enumeration with the message of its first tableau
  past it, the empty shape included, and an over-budget enumeration fills
  no tableau however large the alphabet is; the Yamanouchi enumeration
  tries no value past the number of cells;
* each fill (the full enumeration, and the ballot fill at bounds 0 and above)
  returns a result that only its caller holds, so it is freed by reference
  counting and not left to the cyclic collector;
* ``validate_young`` and ``validate_shifted`` return the same tableau, or
  raise the same exception with the same message, as the Entry-based
  validators on every filling of every shape of up to 3 cells with values
  0..3, marked or not, and on seeded fillings of shapes of 4 to 6 cells;
* the characters, the Schur expansion, the product and the graph builders
  give their usual answers with ``pack``, ``unpack`` and both validators
  made to raise wherever the package binds them, so none of them builds or
  checks an Entry tableau.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import tracemalloc

import pytest

import oracles
from crystals import (
    ClosureBudgetExceeded,
    CrystalError,
    ParseError,
    enumerate_yamanouchi,
    pairing,
    product_expand,
    queer,
    schur,
    schur_p,
    schur_p_to_schur,
    shifted,
    young,
)
from crystals.models import queer_graph, shifted_graph, young_graph
from crystals.tableaux import (
    Entry,
    ShiftedTableau,
    YoungTableau,
    enumerate_codes,
    enumerate_ssht,
    enumerate_ssyt,
    geometry,
    pack,
    parse_shifted,
    parse_young,
    render_codes,
    render_tableau,
    unpack,
    validate_shifted,
    validate_young,
    weight,
    weight_codes,
    with_codes,
)

SHIFTED_SWEEP = [
    (shape, n)
    for size in range(1, 9)
    for shape in oracles.strict_partitions(size)
    for n in range(1, 6)
]
YOUNG_SWEEP = [
    (shape, n)
    for size in range(1, 7)
    for shape in oracles.partitions(size)
    for n in range(1, 5)
]


def test_shifted_enumeration_and_operators_match_the_entry_oracles(monkeypatch):
    # The oracle operators each read the hook word anew.  Remembering it by
    # object keeps the sweep short without changing any oracle body; the
    # memo is emptied whenever tableaux it may hold are freed, so no id is
    # read twice for two objects.
    words: dict[int, tuple] = {}
    read = oracles.hook_reading_cells

    def remembered(t):
        word = words.get(id(t))
        if word is None:
            word = words[id(t)] = read(t)
        return word

    monkeypatch.setattr(oracles, "hook_reading_cells", remembered)
    # Mismatches are collected and asserted once: a million rewritten
    # asserts would cost pytest more than the comparisons themselves.
    total = 0
    mismatches = []
    for shape, n in SHIFTED_SWEEP:
        tableaux = enumerate_ssht(shape, n)
        words.clear()
        expected = oracles.entry_enumerate_ssht(shape, n)
        words.clear()
        assert tableaux == expected, (shape, n)
        total += len(tableaux)
        for t in tableaux:
            if queer.f0(t) != oracles.queer_f0(t) or queer.e0(t) != oracles.queer_e0(t):
                mismatches.append((t, 0))
            for i in range(1, n):
                if (
                    shifted.lower(t, i) != oracles.shifted_lower(t, i)
                    or shifted.raise_(t, i) != oracles.shifted_raise(t, i)
                    or shifted.phi(t, i) != oracles.entry_phi(t, i)
                    or shifted.eps(t, i) != oracles.entry_eps(t, i)
                ):
                    mismatches.append((t, i))
    assert mismatches[:5] == []
    assert total == 65_604


def test_young_enumeration_and_operators_match_the_entry_oracles():
    mismatches = []
    for shape, n in YOUNG_SWEEP:
        tableaux = enumerate_ssyt(shape, n)
        assert tableaux == oracles.entry_enumerate_ssyt(shape, n), (shape, n)
        for t in tableaux:
            for i in range(1, n):
                if (
                    young.lower(t, i) != oracles.young_lower(t, i)
                    or young.raise_(t, i) != oracles.young_raise(t, i)
                    or young.phi(t, i) != oracles.entry_phi(t, i)
                    or young.eps(t, i) != oracles.entry_eps(t, i)
                ):
                    mismatches.append((t, i))
    assert mismatches[:5] == []


def test_colors_past_the_entries_match_the_oracles():
    cases = [
        *enumerate_ssht((3, 1), 3),
        parse_shifted("[[1,2',3,5'],[4,5]]"),
        ShiftedTableau((), ()),
    ]
    for t in cases:
        for i in range(1, 9):
            assert shifted.lower(t, i) == oracles.shifted_lower(t, i), (t, i)
            assert shifted.raise_(t, i) == oracles.shifted_raise(t, i), (t, i)
            assert shifted.phi(t, i) == oracles.entry_phi(t, i), (t, i)
            assert shifted.eps(t, i) == oracles.entry_eps(t, i), (t, i)
        assert queer.f0(t) == oracles.queer_f0(t)
        assert queer.e0(t) == oracles.queer_e0(t)
    for t in [*enumerate_ssyt((2, 1), 3), YoungTableau((), ())]:
        for i in range(1, 7):
            assert young.lower(t, i) == oracles.young_lower(t, i), (t, i)
            assert young.raise_(t, i) == oracles.young_raise(t, i), (t, i)
            assert young.phi(t, i) == oracles.entry_phi(t, i), (t, i)
            assert young.eps(t, i) == oracles.entry_eps(t, i), (t, i)


def test_one_color_scans_do_not_grow_with_the_color_or_the_entries():
    cases = [
        (shifted.phi, parse_shifted("[[1]]"), 10**6, oracles.entry_phi),
        (young.lower, parse_young("[[1000000]]"), 1, oracles.young_lower),
        (pairing.m_i, (Entry(1),), 10**6, oracles.m_i),
    ]
    for function, argument, i, oracle in cases:
        tracemalloc.start()
        try:
            answer = function(argument, i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (function.__qualname__, peak)
        assert answer == oracle(argument, i), function.__qualname__


def test_empty_shape_enumerates_one_tableau():
    for n in range(1, 4):
        assert enumerate_ssht((), n) == oracles.entry_enumerate_ssht((), n)
        assert enumerate_ssyt((), n) == oracles.entry_enumerate_ssyt((), n)


def test_codes_round_trip_and_render_like_entries():
    for t in [*enumerate_ssht((4, 2, 1), 4), *enumerate_ssyt((3, 2), 3)]:
        g = geometry(t.shape, isinstance(t, ShiftedTableau))
        codes = pack(t)
        assert codes == tuple(e.sort_key for row in t.rows for e in row)
        assert unpack(codes, g) == t
        assert render_codes(codes, g) == render_tableau(t)
        assert weight_codes(codes, 4) == weight(t, 4)
    assert unpack((1, 2, 3, 4), geometry((4,), True)).rows[0] == (
        Entry(1, True), Entry(1), Entry(2, True), Entry(2),
    )


@pytest.mark.parametrize(
    "build, enumerate_, lower, colors",
    [
        (young_graph, oracles.entry_enumerate_ssyt, oracles.young_lower, range(1, 4)),
        (shifted_graph, oracles.entry_enumerate_ssht, oracles.shifted_lower, range(1, 4)),
    ],
)
def test_builders_emit_the_oracle_lowering_edges(build, enumerate_, lower, colors):
    shape = (3, 2) if build is young_graph else (4, 2)
    expected = set()
    for t in enumerate_(shape, 4):
        for i in colors:
            target = lower(t, i)
            if target is not None:
                expected.add((render_tableau(t), i, render_tableau(target)))
    assert set(build(shape, 4).edges) == expected


def test_queer_builder_emits_the_oracle_zero_edges():
    expected = {
        (render_tableau(t), 0, render_tableau(target))
        for t in oracles.entry_enumerate_ssht((4, 2, 1), 4)
        if (target := oracles.queer_f0(t)) is not None
    }
    graph = queer_graph((4, 2, 1), 4)
    assert {e for e in graph.edges if e[1] == 0} == expected


def test_builder_refuses_a_lowering_outside_the_enumeration(monkeypatch):
    import crystals.models

    monkeypatch.setattr(
        crystals.models, "lower_at", lambda codes, g, i, cell: with_codes(codes, cell, 99)
    )
    with pytest.raises(ParseError, match="is not a vertex"):
        shifted_graph((2, 1), 3)


def test_enumeration_budget_counts_the_first_tableau_past_it():
    for enumerate_, shape in ((enumerate_ssht, (3, 1)), (enumerate_ssyt, (2, 2))):
        with pytest.raises(ClosureBudgetExceeded, match="reached 4 tableaux, over the budget of 3"):
            enumerate_(shape, 3, limit=3)
        with pytest.raises(ClosureBudgetExceeded, match="reached 1 tableaux, over the budget of 0"):
            enumerate_((), 3, limit=0)


def test_an_over_budget_enumeration_holds_no_tableau(fills_entered):
    for shape, shifted_shape in (((1,), False), ((2, 1), False), ((2, 1), True), ((3,), True)):
        with pytest.raises(ClosureBudgetExceeded, match="reached 4 tableaux, over the budget of 3"):
            enumerate_codes(geometry(shape, shifted_shape), 10**6, limit=3)
    assert fills_entered == []
    assert len(enumerate_codes(geometry((2, 1), True), 2, limit=3)) == 2
    assert set(fills_entered) == {"enumerate_codes"}  # the record sees a fill


def test_each_fill_frees_its_result_by_reference_counting():
    # A recursive closure still holding its result list would keep it alive
    # until the cyclic collector runs: a third reference.
    g = geometry((3, 1), True)
    fills = (
        lambda: enumerate_codes(g, 3),
        lambda: shifted.ballot_codes(g, 4),
        lambda: shifted.ballot_codes(g, 3, [1, 1]),
    )
    gc.disable()
    try:
        for fill in fills:
            result = fill()
            assert result
            assert sys.getrefcount(result) == 2  # the name and the argument
    finally:
        gc.enable()


def test_yamanouchi_enumeration_does_not_grow_with_the_alphabet():
    assert enumerate_yamanouchi((2, 1), 10**15) == enumerate_yamanouchi((2, 1), 3)
    assert enumerate_yamanouchi((4, 2, 1), 10**15) == enumerate_yamanouchi((4, 2, 1), 7)


def _outcome(validate, shape, rows, n):
    try:
        return validate(shape, rows, n)
    except CrystalError as err:
        return type(err), str(err)


VALIDATORS = {
    "young": (validate_young, oracles.entry_validate_young),
    "shifted": (validate_shifted, oracles.entry_validate_shifted),
}


def _validators_agree(kinds, shape, rows, n, mismatches):
    for kind in kinds:
        validate, oracle = VALIDATORS[kind]
        got, want = _outcome(validate, shape, rows, n), _outcome(oracle, shape, rows, n)
        if got != want:
            mismatches.append((kind, shape, rows, n, got, want))


def _compositions(total):
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def test_validators_match_the_entry_oracles():
    entries = [Entry(v, m) for v in range(4) for m in (False, True)]
    mismatches = []
    for size in range(4):
        for shape in _compositions(size):
            for filling in itertools.product(entries, repeat=size):
                it = iter(filling)
                rows = [[next(it) for _ in range(length)] for length in shape]
                for n in (None, 3):
                    _validators_agree(VALIDATORS, shape, rows, n, mismatches)
    for shape, rows in (((2,), [[Entry(1)]]), ((1,), [[Entry(1)], [Entry(2)]]), ((1,), [])):
        _validators_agree(VALIDATORS, shape, rows, None, mismatches)

    # Seeded fillings of 4 to 6 cells: a few uniform ones, most a valid
    # tableau of the kind with one or two cells rewritten, so that every rule
    # is reached past the first cells.
    rng = random.Random(9)
    unmarked = [Entry(v) for v in range(6)]
    entries = unmarked + [Entry(v, True) for v in range(6)]
    for size in range(4, 7):
        for kind, shapes, enumerate_, pool in (
            ("young", oracles.partitions(size), enumerate_ssyt, unmarked),
            ("shifted", oracles.strict_partitions(size), enumerate_ssht, entries),
        ):
            for shape in shapes:
                valid = [t.rows for t in enumerate_(shape, max(4, len(shape)))]
                for _ in range(300):
                    if rng.random() < 0.2:
                        rows = [[rng.choice(entries) for _ in range(k)] for k in shape]
                    else:
                        rows = [list(row) for row in rng.choice(valid)]
                        for _ in range(rng.randint(0, 2)):
                            r = rng.randrange(len(shape))
                            choices = entries if rng.random() < 0.1 else pool
                            rows[r][rng.randrange(shape[r])] = rng.choice(choices)
                    for n in (None, 3):
                        _validators_agree((kind,), shape, rows, n, mismatches)
    assert not mismatches, mismatches[:5]


def test_characters_products_and_builders_unpack_no_tableau(monkeypatch):
    calls = {
        "schur": lambda: schur((2, 1), 3),
        "schur_p": lambda: schur_p((3, 1), 3),
        "schur_p_to_schur": lambda: schur_p_to_schur((3, 1)),
        "product_expand": lambda: product_expand((2, 1), (1,), 4),
        "queer_graph": lambda: queer_graph((2, 1), 3).edges,
        "shifted_graph": lambda: shifted_graph((2, 1), 3).edges,
        "young_graph": lambda: young_graph((2, 1), 3).edges,
    }
    expected = {name: call() for name, call in calls.items()}
    originals = {f.__name__: f for f in (pack, unpack, validate_shifted, validate_young)}

    def refuse(*args, **kwargs):
        raise AssertionError("an Entry tableau was packed, unpacked or validated")

    for name, module in list(sys.modules.items()):
        if name == "crystals" or name.startswith("crystals."):
            for attr, original in originals.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, refuse)
    for name, call in calls.items():
        assert call() == expected[name], name

