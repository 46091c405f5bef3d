"""Enumerations shared by every test module: each catalog set is built once per session."""

from functools import lru_cache
from typing import NamedTuple

import pytest

import commuting_reference
from coclass_lab.constructions import default_catalog
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.search import BudgetExceededError, enumerate_central, enumerate_commuting


class CatalogRun(NamedTuple):
    """One catalog row at one prime; each set is an AutomorphismSet or its refusal."""

    name: str
    algebra: object
    commuting: object
    central: object


def _attempt(enumerate_set, algebra):
    try:
        return enumerate_set(algebra, budget=SUITE_BUDGET)
    except BudgetExceededError as exc:
        return exc


@lru_cache(maxsize=None)
def enumerate_catalog(p: int) -> tuple:
    """The default catalog over F_p, each row's two sets enumerated at SUITE_BUDGET."""
    return tuple(
        CatalogRun(
            entry.name,
            entry.algebra,
            _attempt(enumerate_commuting, entry.algebra),
            _attempt(enumerate_central, entry.algebra),
        )
        for entry in default_catalog(FieldSpec.prime(p))
    )


@pytest.fixture(scope="session")
def catalog_runs():
    """p -> tuple of CatalogRun for the default catalog over F_p, computed once."""
    return enumerate_catalog


@pytest.fixture(scope="session")
def derivation_sets():
    """algebra -> commuting_reference.derivation_path(algebra), computed once."""
    return lru_cache(maxsize=None)(commuting_reference.derivation_path)
