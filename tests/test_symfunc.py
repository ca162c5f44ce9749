"""Character polynomials, basis expansions, and staircase coincidences.

Checks:
* both character polynomials reproduce hand-transcribed coefficient tables,
* characters are symmetric, specialize at all-ones to enumeration counts, and
  vanish exactly when the shape has too many rows,
* the shifted-to-ordinary expansion reconstructs its input exactly, also in
  four variables for shapes of size 11 and 13, and rejects alphabets that are
  too small,
* the product expansion has positive integer coefficients, reconstructs the
  product exactly, agrees with a greedy leading-term oracle, and is
  symmetric in its two factors,
* the product expansion, which builds no graph, equals the search on the two
  materialized queer factor graphs for every strict pair of total size at
  most 6 with the full and a one-smaller alphabet, and the greedy oracle in
  four variables for every strict pair of total size 7 or 8,
* it never calls ``queer_graph`` or constructs a ``CrystalGraph``, and it
  refuses non-strict shapes and alphabets smaller than 2,
* on the benchmark's product pairs it gives the materialized search's answer
  for every alphabet from the total size m to m + 3, and it never builds a
  factor over more than m letters, so a huge alphabet costs what m does,
* staircase shapes are exactly the ones with coinciding characters, and every
  non-staircase shape admits at least two fillings killed by all raising
  operators,
* rendering of expansions and polynomials, ``str`` included, with a
  constant term rendered as its coefficient,
* a polynomial multiplies by an integer from either side, is false exactly
  when zero, merges exponent keys that are equal as tuples, and refuses to
  add, subtract or multiply anything but a polynomial or an integer (and is
  never equal to one),
* a polynomial refuses a negative variable count, an exponent of the wrong
  length or with a negative entry, and a sum or product of polynomials in
  different numbers of variables, each with its own message.
"""

from __future__ import annotations

import pytest

import crystals.graph
import crystals.models
import crystals.symfunc
from crystals import (
    DimensionMismatch,
    ShapeMismatch,
    SparsePolynomial,
    ValueOutOfRange,
    enumerate_ssht,
    enumerate_ssyt,
    enumerate_yamanouchi,
    is_staircase,
    product_expand,
    render_expansion,
    schur,
    schur_p,
    schur_p_to_schur,
    staircase_check,
)
from oracles import (
    evaluate,
    greedy_p_expansion,
    is_symmetric,
    materialized_product,
    strict_partitions,
)
from reference_data import (
    P31_EXPANSION,
    P431_EXPANSION,
    SCHUR31_COEFFS,
    SCHUR_P31_COEFFS,
)


def coefficients(poly):
    return {m: c for m, c in poly.sorted_terms() if c}


def test_ordinary_character_table():
    assert coefficients(schur((3, 1), 3)) == SCHUR31_COEFFS


def test_shifted_character_table():
    assert coefficients(schur_p((3, 1), 3)) == SCHUR_P31_COEFFS


def test_characters_specialize_to_counts():
    for shape, n in [((2, 1), 3), ((3, 1), 3), ((3, 2), 4)]:
        ones = (1,) * n
        assert evaluate(schur(shape, n), ones) == len(enumerate_ssyt(shape, n))
        assert evaluate(schur_p(shape, n), ones) == len(enumerate_ssht(shape, n))


def test_characters_are_symmetric():
    for shape in [(2,), (2, 1), (3, 1)]:
        assert is_symmetric(schur(shape, 3))
        assert is_symmetric(schur_p(shape, 3))


def test_character_vanishes_iff_too_many_rows():
    assert schur((2, 2, 2), 2) == SparsePolynomial.zero(2)
    assert schur((2, 2), 2) != SparsePolynomial.zero(2)
    assert schur_p((3, 2, 1), 2) == SparsePolynomial.zero(2)


def test_expansion_reference_values():
    assert schur_p_to_schur((3, 1)) == P31_EXPANSION
    assert schur_p_to_schur((4, 3, 1)) == P431_EXPANSION


@pytest.mark.parametrize("total", range(1, 7))
def test_expansion_reconstructs_exactly(total):
    for shape in strict_partitions(total):
        expansion = schur_p_to_schur(shape)
        n = max(total, 1)
        rebuilt = SparsePolynomial.zero(n)
        for lam, coeff in expansion.items():
            rebuilt = rebuilt + schur(lam, n) * coeff
        assert rebuilt == schur_p(shape, n)
        assert all(c > 0 for c in expansion.values())


@pytest.mark.parametrize("shape, tableaux", [((5, 4, 2), 22), ((6, 4, 2, 1), 32)])
def test_expansion_of_large_shapes_reconstructs_in_four_variables(shape, tableaux):
    # Terms with more than four rows vanish in four variables.
    expansion = schur_p_to_schur(shape)
    assert sum(expansion.values()) == tableaux
    rebuilt = SparsePolynomial.zero(4)
    for lam, coeff in expansion.items():
        rebuilt = rebuilt + schur(lam, 4) * coeff
    assert rebuilt == schur_p(shape, 4)


def test_expansion_rejects_small_alphabet():
    with pytest.raises(DimensionMismatch):
        schur_p_to_schur((3, 1), n=2)  # expansion contains a three-row term
    assert schur_p_to_schur((2, 1), n=3) == {(2, 1): 1}


def test_product_reference_case_with_multiplicity():
    assert product_expand((3, 1), (2,), 6) == {
        (5, 1): 1,
        (4, 2): 2,
        (3, 2, 1): 1,
    }


@pytest.mark.parametrize(
    "gamma, delta",
    [((1,), (1,)), ((2,), (1,)), ((2, 1), (1,)), ((2,), (2,)), ((2, 1), (2, 1))],
    ids=str,
)
def test_product_expansion_reconstructs_and_matches_oracle(gamma, delta):
    n = sum(gamma) + sum(delta)
    expansion = product_expand(gamma, delta, n)
    assert all(isinstance(c, int) and c > 0 for c in expansion.values())
    product = schur_p(gamma, n) * schur_p(delta, n)
    rebuilt = SparsePolynomial.zero(n)
    for shape, coeff in expansion.items():
        rebuilt = rebuilt + schur_p(shape, n) * coeff
    assert rebuilt == product
    assert expansion == greedy_p_expansion(product)
    assert expansion == product_expand(delta, gamma, n)


def test_product_rejects_non_strict_shapes():
    with pytest.raises(ShapeMismatch):
        product_expand((2, 2), (1,), 5)
    with pytest.raises(ShapeMismatch):
        product_expand((1,), (0,), 3)


def test_product_rejects_alphabets_below_two():
    with pytest.raises(ShapeMismatch):  # the shapes are checked first
        product_expand((1,), (2, 2), 1)
    for n in (1, 0):
        with pytest.raises(ValueOutOfRange):
            product_expand((1,), (1,), n)
        with pytest.raises(ValueOutOfRange):
            materialized_product((1,), (1,), n)


def _strict_pairs(totals):
    return [
        (g, d)
        for total in totals
        for k in range(1, total)
        for g in strict_partitions(k)
        for d in strict_partitions(total - k)
    ]


def test_product_equals_the_materialized_factor_search():
    cases = 0
    for gamma, delta in _strict_pairs(range(2, 7)):
        full = sum(gamma) + sum(delta)
        for n in (full, full - 1):
            if n >= 2:
                assert product_expand(gamma, delta, n) == materialized_product(
                    gamma, delta, n
                ), (gamma, delta, n)
                cases += 1
    assert cases == 59


# The ``product`` benchmark's pairs: total size 4 to 6, both sides of size
# at least 2, or delta = (1) with a total of 5 or 6.
BENCHMARK_PAIRS = [
    (gamma, delta)
    for gamma, delta in _strict_pairs(range(4, 7))
    if min(sum(gamma), sum(delta)) >= 2 or (delta == (1,) and sum(gamma) >= 4)
]


def test_product_past_the_total_size_searches_the_total_size(monkeypatch):
    assert len(BENCHMARK_PAIRS) == 18
    built = []

    class Recording(crystals.models.QueerTableauCrystal):
        def __init__(self, shape, n, config=None):
            built.append(n)
            super().__init__(shape, n, config)

    monkeypatch.setattr(crystals.symfunc, "QueerTableauCrystal", Recording)
    for gamma, delta in BENCHMARK_PAIRS:
        m = sum(gamma) + sum(delta)
        for n in range(m, m + 4):
            built.clear()
            assert product_expand(gamma, delta, n) == materialized_product(gamma, delta, n), (
                gamma, delta, n)
            assert built == [m, m]
    built.clear()
    assert product_expand((2, 1), (1,), 10**8) == {(3, 1): 1}
    assert built == [4, 4]


def test_product_in_four_variables_matches_greedy_oracle_to_size_eight():
    pairs = _strict_pairs((7, 8))
    assert len(pairs) == 56
    for gamma, delta in pairs:
        product = schur_p(gamma, 4) * schur_p(delta, 4)
        assert product_expand(gamma, delta, 4) == greedy_p_expansion(product), (
            gamma,
            delta,
        )


def test_product_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("product_expand built a graph")

    monkeypatch.setattr(crystals.models, "queer_graph", refuse)
    monkeypatch.setattr(crystals.symfunc, "queer_graph", refuse, raising=False)
    monkeypatch.setattr(crystals.graph.CrystalGraph, "__init__", refuse)
    monkeypatch.setattr(crystals.graph.CrystalGraph, "_indexed", refuse)
    monkeypatch.setattr(crystals.graph, "string_length_maps", refuse)
    assert product_expand((3, 1), (2,), 6) == {(5, 1): 1, (4, 2): 2, (3, 2, 1): 1}
    assert product_expand((1,), (4, 2), 7) == product_expand((4, 2), (1,), 7)


def test_staircase_predicate():
    assert is_staircase(())
    assert is_staircase((1,))
    assert is_staircase((2, 1))
    assert is_staircase((3, 2, 1))
    assert not is_staircase((2,))
    assert not is_staircase((3, 1))
    assert not is_staircase((3, 2))


def test_staircase_characters_coincide():
    for k in (2, 3):
        for n in (2, 3, 4):
            assert staircase_check(k, n)
    with pytest.raises(ValueOutOfRange):
        staircase_check(1, 3)


def test_non_staircase_characters_differ():
    assert schur_p((2,), 3) != schur((2,), 3)
    assert schur_p((3, 1), 3) != schur((3, 1), 3)


@pytest.mark.parametrize("total", range(1, 6))
def test_non_staircases_have_extra_top_fillings(total):
    for shape in strict_partitions(total):
        n = max(len(shape), 2) + 1
        count = len(enumerate_yamanouchi(shape, n))
        if is_staircase(shape):
            assert count == 1
        else:
            assert count >= 2


def test_render_expansion():
    assert render_expansion({}) == "0"
    assert render_expansion(P31_EXPANSION) == "s[3,1] + s[2,2] + s[2,1,1]"
    assert render_expansion({(5, 1): 1, (4, 2): 2}, basis="P") == "P[5,1] + 2*P[4,2]"


def test_polynomial_rendering_round_trip():
    poly = schur((2,), 2)
    assert poly.render() == "x1^2 + x1*x2 + x2^2"
    assert schur_p((1,), 2).render() == "x1 + x2"
    assert SparsePolynomial.zero(2).render() == "0"
    assert str(poly) == poly.render()
    assert schur((), 2).render() == "1"


def test_polynomial_arithmetic_with_other_types():
    poly = schur((1,), 2)
    assert 3 * poly == poly * 3
    assert (3 * poly).render() == "3*x1 + 3*x2"
    assert bool(poly) and not bool(SparsePolynomial.zero(2))
    for combine in (lambda: poly + 1, lambda: poly - 1, lambda: poly * "x", lambda: "x" * poly):
        with pytest.raises(TypeError):
            combine()
    assert (poly == 1) is False


def test_polynomial_merges_exponent_keys_equal_as_tuples():
    merged = SparsePolynomial(1, {(1,): 1, range(1, 2): -1})
    assert merged == SparsePolynomial.zero(1)
    assert merged.terms == {}
    assert SparsePolynomial(1, {(1,): 1, range(1, 2): 1}).render() == "2*x1"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SparsePolynomial(-1), "variable count must be non-negative, got -1"),
        (lambda: SparsePolynomial(2, {(1, 0, 0): 1}), "exponent (1, 0, 0) has 3 entries, expected 2"),
        (lambda: SparsePolynomial(2, {(1, -1): 1}), "exponent (1, -1) has a negative entry"),
        (lambda: SparsePolynomial.zero(2) + SparsePolynomial.zero(3),
         "cannot combine polynomials in 2 and 3 variables"),
        (lambda: SparsePolynomial.zero(3) * SparsePolynomial.zero(2),
         "cannot combine polynomials in 3 and 2 variables"),
    ],
    ids=["negative-n", "exponent-length", "negative-exponent", "add", "mul"],
)
def test_polynomial_refuses_mismatched_dimensions(make, message):
    with pytest.raises(DimensionMismatch) as caught:
        make()
    assert str(caught.value) == message
