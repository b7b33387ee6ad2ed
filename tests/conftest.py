"""Shared fixtures: the canonical representation and the packaged catalog.

Hypothesis runs with deadlines off, so no property test can fail on timing.
"""

import pytest
from hypothesis import settings

from g2jones import LaurentPoly, RepDefinition, SquareMatrix, build_rep, builtin_catalog

settings.register_profile("g2jones", deadline=None)
settings.load_profile("g2jones")


@pytest.fixture(scope="session")
def rep6():
    """The validated 5-dimensional representation at (eta, a, m) = (1, -4, 5)."""
    return build_rep(1, -4, 5)


@pytest.fixture(scope="session")
def mixed_rep(rep6):
    """rep6 conjugated by P = I + (1 + u) E_01.

    Its entries mix parities in u, so it has no sign twist, and g(u^-1)
    is not the inverse of its generators g.
    """
    shear = LaurentPoly({0: 1, 1: 1})
    p = SquareMatrix(tuple(tuple(1 if i == j else (shear if (i, j) == (0, 1) else 0)
                                 for j in range(5)) for i in range(5)))
    p_inv = SquareMatrix.identity(5) * 2 - p
    assert p * p_inv == SquareMatrix.identity(5)
    gens = tuple(p * g * p_inv for g in rep6.generators)
    return RepDefinition(dim=5, generators=gens, normalization=None, provenance="constructed")


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture()
def shear_document():
    """Five copies of the unipotent shear I + E_01: determinants, braids and
    commutation hold, the chain relation does not."""
    one, zero = [[0, "1"]], []
    shear = [[one if i == j or (i, j) == (0, 1) else zero for j in range(5)]
             for i in range(5)]
    return {"dim": 5, "variable": "u", "generators": [shear] * 5, "normalization": None}
