"""Action on first homology: symplectic transvections.

The five twist generators act on H_1 of the closed genus-2 surface,
which is Z^4 with the standard symplectic form in the ordered basis
(A1, B1, A2, B2).  A twist along a simple closed curve with homology
class v acts by the transvection x -> x + <x, v> v.  The kernel of this
action is the Torelli subgroup; membership is decided by evaluating the
word and comparing with the identity.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IndexRangeError
from .matrices import SquareMatrix
from .words import Evaluator, MCGWord

# symplectic form <x, y> = x^T J y in the basis (A1, B1, A2, B2)
INTERSECTION_FORM = SquareMatrix((
    (0, 1, 0, 0),
    (-1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, -1, 0),
))

# homology classes of the five twist curves in the chain
CHAIN_CLASSES: tuple[tuple[int, int, int, int], ...] = (
    (1, 0, 0, 0),   # A1
    (0, 1, 0, 0),   # B1
    (1, 0, 1, 0),   # A1 + A2
    (0, 0, 0, 1),   # B2
    (0, 0, 1, 0),   # A2
)


def intersection(x, y) -> int:
    """Value of the symplectic form on two integer vectors."""
    jy = [
        sum(INTERSECTION_FORM.entry(i, j) * y[j] for j in range(4))
        for i in range(4)
    ]
    return sum(x[i] * jy[i] for i in range(4))


def transvection(v) -> SquareMatrix:
    """Matrix of x -> x + <x, v> v, acting on column vectors."""
    cols = []
    for j in range(4):
        basis = [1 if i == j else 0 for i in range(4)]
        pairing = intersection(basis, v)
        cols.append([basis[i] + pairing * v[i] for i in range(4)])
    return SquareMatrix(tuple(zip(*cols)))


def symplectic_generator(i: int) -> SquareMatrix:
    if not 1 <= i <= len(CHAIN_CLASSES):
        raise IndexRangeError(f"generator index {i} outside 1..{len(CHAIN_CLASSES)}")
    return transvection(CHAIN_CLASSES[i - 1])


def symplectic_generators() -> tuple[SquareMatrix, ...]:
    return tuple(symplectic_generator(i) for i in range(1, 6))


_EVALUATOR = Evaluator(symplectic_generators())


def is_symplectic(matrix: SquareMatrix) -> bool:
    """Check M^T J M = J."""
    return matrix.transpose() * INTERSECTION_FORM * matrix == INTERSECTION_FORM


def symplectic_image(word: MCGWord) -> SquareMatrix:
    return _EVALUATOR.evaluate(word)


@lru_cache(maxsize=16)
def is_torelli(word: MCGWord) -> bool:
    """True when the word acts trivially on homology.

    Kept for the most recent words: the answer does not depend on the
    sign of u, so both signs of a report and the analyses inside the
    calculus checks share one symplectic product per word.
    """
    return symplectic_image(word) == SquareMatrix.identity(4)
