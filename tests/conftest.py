"""Shared fixtures: small crystal graphs reused across test modules, and a record
of the full-enumeration fills a test enters."""

from __future__ import annotations

import sys
from types import CodeType

import pytest

from crystals import queer_graph, shifted_graph, young_graph
from crystals.shifted import ballot_codes
from crystals.tableaux import enumerate_codes


@pytest.fixture(scope="session")
def shifted31():
    return shifted_graph((3, 1), 3)


@pytest.fixture(scope="session")
def queer31():
    return queer_graph((3, 1), 3)


@pytest.fixture(scope="session")
def young31():
    return young_graph((3, 1), 3)


def _inner(function, name: str) -> CodeType:
    """The code of the function ``name`` defined in ``function``'s body."""
    return next(c for c in function.__code__.co_consts
                if isinstance(c, CodeType) and c.co_name == name)


# The recursive fill of every enumeration of all tableaux of a shape, whole
# (enumerate_codes) or within raising bounds (ballot_codes); the Yamanouchi
# fills, which stop at the budget as they fill, are not among them.
FILLS = {
    _inner(enumerate_codes, "fill"): "enumerate_codes",
    _inner(ballot_codes, "step"): "ballot_codes",
}


@pytest.fixture
def fills_entered():
    """A list that names each :data:`FILLS` fill every time the test enters it."""
    entered: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in FILLS:
            entered.append(FILLS[frame.f_code])

    sys.setprofile(profile)
    yield entered
    sys.setprofile(None)
