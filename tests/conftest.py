"""Shared fixtures: the canonical representation and the packaged catalog."""

import pytest

from g2jones import build_rep, builtin_catalog


@pytest.fixture(scope="session")
def rep6():
    """The validated 5-dimensional representation at (eta, a, m) = (1, -4, 5)."""
    return build_rep(1, -4, 5)


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
