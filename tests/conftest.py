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


# The fill of every enumeration of all tableaux of a shape, whole (the recursive fill
# of enumerate_codes) or within raising bounds (ballot_codes entered with a bound above
# 0), each with its test of the entered frame.  At bounds 0 the ballot fill finds the
# Yamanouchi tableaux and stops at the budget as it fills, so it is not among them.
FILLS = {
    _inner(enumerate_codes, "fill"): ("enumerate_codes", lambda frame: True),
    ballot_codes.__code__: ("ballot_codes", lambda frame: any(frame.f_locals["bounds"])),
}


@pytest.fixture
def fills_entered():
    """A list that names each :data:`FILLS` fill every time the test enters it."""
    entered: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and (fill := FILLS.get(frame.f_code)) and fill[1](frame):
            entered.append(fill[0])

    sys.setprofile(profile)
    yield entered
    sys.setprofile(None)
