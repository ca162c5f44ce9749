"""The right factor's candidates of a product, filled rather than scanned.

Checks:
* the view's even highest weights, named by their payloads, are the pairs
  the full scan of :func:`oracles.scanned_even_highest_weights` finds, and
  ``product_expand`` is :func:`oracles.scanned_product`, for every ordered
  strict pair of total size at most 8, at n the total size and at the
  smallest alphabet on which both shapes have tableaux,
* the one fill within raising bounds is the full enumeration filtered by the
  raising strings :func:`~crystals.pairing.string_scan` reads, for every
  strict shape of size at most 6, n up to 5 and bounds in {0, 1, 2}^(n-1),
  and meets each tableau once, semistandard; for every strict shape of size
  at most 7 at n its length and its size, it is
  :func:`oracles.brute_yamanouchi` with no bounds, and with every bound 1 it
  meets each tableau once, semistandard,
* the tableau count equals the enumeration's for every strict shape
  (shifted) and every partition (Young) of size at most 7 at alphabets up
  to 5, and a budget of that count admits the enumeration while one less
  refuses it with no tableau filled,
* ``product_expand((5,3,1), (4,2,1), 9)`` keeps its value with the
  enumerations patched to raise, and its right factor meets fewer rows than
  there are candidate pairs,
* ``product`` refuses a right factor over the budget by its count, with the
  enumerations patched to raise: (2,1)·(2,1) asked at n = 6 is searched at
  n = 4, the sum of the lengths, where (2,1) has 20 tableaux, so the product
  exits 0 at ``--max-vertices 20`` and 4 at 19 with the message an
  enumeration reaching the 20th tableau gave.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

import crystals.models
import crystals.tableaux
from crystals import (
    ClosureBudgetExceeded,
    QueerTableauCrystal,
    TensorView,
    product_expand,
    queer_highest_weights,
)
from crystals.cli import main
from crystals.pairing import string_scan
from crystals.shifted import ballot_codes, tableau_count
from crystals.tableaux import check_codes, checked_geometry, enumerate_codes, pack
from oracles import (
    brute_yamanouchi,
    partitions,
    scanned_even_highest_weights,
    scanned_product,
    strict_partitions,
)

SHAPES = [lam for size in range(1, 8) for lam in strict_partitions(size)]


@pytest.mark.parametrize(
    "gamma, delta",
    [(g, d) for g in SHAPES for d in SHAPES if sum(g) + sum(d) <= 8],
    ids=str,
)
def test_filled_candidates_equal_the_full_scan(gamma, delta):
    full = sum(gamma) + sum(delta)
    for n in sorted({full, max(2, len(gamma), len(delta))}):
        views = [
            TensorView(QueerTableauCrystal(gamma, n), QueerTableauCrystal(delta, n), queer=True)
            for _ in range(2)
        ]
        filled = [*map(views[0].payload_of, views[0].even_highest_weights())]
        scanned = [*map(views[1].payload_of, scanned_even_highest_weights(views[1]))]
        assert len(set(filled)) == len(filled)
        assert sorted(filled) == sorted(scanned), n
        assert product_expand(gamma, delta, n) == scanned_product(gamma, delta, n), n


def _raising_strings(codes: tuple[int, ...], g, n: int) -> list[int]:
    phi, balance, _ = string_scan(codes, g.reading, n)
    return [phi[i] - balance[i] for i in range(1, n)]


@pytest.mark.parametrize("shape", [(), *(lam for lam in SHAPES if sum(lam) <= 6)], ids=str)
def test_the_fill_is_the_enumeration_within_the_bounds(shape):
    for n in range(1, 6):
        g = checked_geometry(shape, n, True)
        strings = [(codes, _raising_strings(codes, g, n)) for codes in enumerate_codes(g, n)]
        for bounds in product(range(3), repeat=n - 1):
            filled = ballot_codes(g, n, bounds)
            assert len(set(filled)) == len(filled), (n, bounds)
            for codes in filled:
                check_codes(codes, g, n)
            within = [codes for codes, eps in strings if all(map(int.__le__, eps, bounds))]
            assert sorted(filled) == sorted(within), (n, bounds)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_ballot_fill_at_zero_is_the_yamanouchi_fill(shape):
    for n in (len(shape), sum(shape)):
        g = checked_geometry(shape, n, True)
        assert sorted(ballot_codes(g, n)) == sorted(map(pack, brute_yamanouchi(shape, n))), n
        filled = ballot_codes(g, n, [1] * (n - 1))
        assert len(set(filled)) == len(filled)
        for codes in filled:
            check_codes(codes, g, n)


# Every strict shape of size at most 7, shifted, and every partition, Young.
COUNTED = [((), True), *((lam, True) for lam in SHAPES),
           *((lam, False) for size in range(8) for lam in partitions(size))]


def test_tableau_count_equals_the_enumeration(fills_entered):
    for shape, shifted in COUNTED:
        for n in range(1, 6):
            g = checked_geometry(shape, n, shifted)
            count = tableau_count(g, n)
            assert len(enumerate_codes(g, n, count)) == count, (shape, shifted, n)
            if count:  # one tableau fewer is refused by the count, none filled
                fills_entered.clear()
                with pytest.raises(ClosureBudgetExceeded, match=f"reached {count} tableaux"):
                    enumerate_codes(g, n, count - 1)
                assert fills_entered == [], (shape, shifted, n)


def _refuse(*args, **kwargs):
    raise AssertionError("the product enumerated a factor")


PRODUCT_531_421 = {
    (9, 5, 2): 1, (9, 4, 3): 1, (9, 4, 2, 1): 1, (8, 6, 2): 2, (8, 5, 3): 4,
    (8, 5, 2, 1): 4, (8, 4, 3, 1): 4, (7, 6, 3): 3, (7, 6, 2, 1): 3, (7, 5, 4): 3,
    (7, 5, 3, 1): 8, (7, 4, 3, 2): 3, (6, 5, 4, 1): 3, (6, 5, 3, 2): 3,
    (6, 4, 3, 2, 1): 1,
}


def test_product_fills_without_enumerating_a_factor(monkeypatch):
    for module in (crystals.tableaux, crystals.models):
        monkeypatch.setattr(module, "enumerate_codes", _refuse)
    assert product_expand((5, 3, 1), (4, 2, 1), 9) == PRODUCT_531_421
    view = TensorView(
        QueerTableauCrystal((5, 3, 1), 9), QueerTableauCrystal((4, 2, 1), 9), queer=True
    )
    found = queer_highest_weights(view)
    # The weights are partitions, so dropping zeros drops the trailing ones.
    assert Counter(tuple(filter(None, view.weight_of(pair))) for pair in found) == PRODUCT_531_421
    candidates = len(view.even_highest_weights())
    assert candidates == 6842
    # Every row the right factor met, by the fill and by the odd walks.
    assert len(view.right.weights) < candidates


def test_product_budget_comes_from_the_count(monkeypatch, capsys):
    for module in (crystals.tableaux, crystals.models):
        monkeypatch.setattr(module, "enumerate_codes", _refuse)
    argv = ["product", "--gamma", "2,1", "--delta", "2,1", "--n", "6"]
    assert main(["--max-vertices", "20", *argv]) == 0
    assert capsys.readouterr().out == "P[4,2]\n"
    assert main(["--max-vertices", "19", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration of shifted tableaux of shape (2, 1) reached 20 tableaux, "
        "over the budget of 19 vertices\n"
    )
