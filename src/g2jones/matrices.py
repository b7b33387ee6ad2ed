"""Square matrices over exact rings.

Entries may be ints, ``Fraction``, :class:`~g2jones.rings.LaurentPoly` or
:class:`~g2jones.rings.TruncSeries`; the matrix code only needs ring
arithmetic plus coercion from small ints.  Inverses are taken over
ints, ``Fraction`` and ``LaurentPoly`` only; series matrices are
multiplied, never inverted.  Determinants come in two independent
flavours on purpose: a division-free dynamic program over column subsets
(the workhorse), and a direct permutation sum, the tests' oracle for
determinant identities.  They share no code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import NotUnipotentError, ValuationExceedsOrderError
from .rings import LaurentPoly, TruncSeries, power


@dataclass(frozen=True)
class SquareMatrix:
    entries: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(row) for row in self.entries)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "SquareMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, dim: int) -> "SquareMatrix":
        return cls(tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        ))

    @classmethod
    def zero(cls, dim: int) -> "SquareMatrix":
        return cls(tuple(tuple(0 for _ in range(dim)) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(tuple(zip(*self.entries)))

    def map_entries(self, fn: Callable) -> "SquareMatrix":
        return SquareMatrix(tuple(tuple(fn(x) for x in row) for row in self.entries))

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return SquareMatrix(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return SquareMatrix(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __neg__(self):
        return self.map_entries(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            # an entry with no nonzero product keeps the type of a product
            zero = self.entries[0][0] * 0 * other.entries[0][0] if self.dim else 0
            cols = _nonzero_columns(other)
            return SquareMatrix(tuple(
                tuple(_sparse_dot(row, col, zero) for col in cols) for row in self.entries
            ))
        return self.map_entries(lambda x: x * other)

    def __rmul__(self, other):
        # scalar * matrix; matrix * matrix is handled by __mul__
        return self.map_entries(lambda x: other * x)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return matrix_inverse(self) ** (-n)
        return power(self, n, SquareMatrix.identity(self.dim))

    def __str__(self) -> str:
        cells = [[str(x) for x in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


def _nonzero_columns(matrix: SquareMatrix) -> tuple:
    """Per column j, the (k, entry) pairs of its nonzero entries."""
    return tuple(
        tuple((k, row[j]) for k, row in enumerate(matrix.entries) if row[j])
        for j in range(matrix.dim)
    )


def _sparse_dot(row: Sequence, column: tuple, zero):
    """row times a column of :func:`_nonzero_columns`, from the nonzero products only."""
    acc = None
    for k, entry in column:
        x = row[k]
        if x:
            term = x * entry
            acc = term if acc is None else acc + term
    return zero if acc is None else acc


def matrix_trace(matrix: SquareMatrix):
    acc = matrix.entries[0][0]
    for i in range(1, matrix.dim):
        acc = acc + matrix.entries[i][i]
    return acc


def matrix_determinant(matrix: SquareMatrix):
    """Division-free determinant via dynamic programming over column subsets.

    ``minors[S]`` holds the determinant of the submatrix on the first
    ``popcount(S)`` rows and the column set S.  O(2^n * n) ring
    operations and no division, so it works over Z[u, u^-1] directly;
    products with a zero minor or a zero entry are skipped, which on the
    sparse generator matrices leaves most of them out.
    """
    n = matrix.dim
    rows = matrix.entries
    minors = [0] * (1 << n)
    minors[0] = 1
    for mask in range(1, 1 << n):
        r = mask.bit_count() - 1
        row = rows[r]
        acc = None
        # expansion along row r: sign of column j is (-1)^(r + position of j in mask)
        sign = 1 if r % 2 == 0 else -1
        for j in range(n):
            bit = 1 << j
            if not (mask & bit):
                continue
            minor = minors[mask ^ bit]
            if minor and row[j]:  # a zero factor adds nothing
                term = minor * row[j]
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
        # a zero minor keeps the type of its row's entries
        minors[mask] = row[0] * 0 if acc is None else acc
    return minors[(1 << n) - 1]


_PERM_DET_MAX_DIM = 6


def determinant_by_permutations(matrix: SquareMatrix):
    """Determinant as a signed sum over permutations: public API and test oracle.

    Independent of :func:`matrix_determinant`; kept deliberately naive so
    the two routes cannot share a bug, except that a term stops at its
    first zero factor.  No report runs it.  Guarded to dim <= 6 because
    the sum has dim! terms.
    """
    n = matrix.dim
    if n > _PERM_DET_MAX_DIM:
        raise ValueError(f"permutation-sum determinant limited to dim <= {_PERM_DET_MAX_DIM}")
    rows = matrix.entries
    total = rows[0][0] * 0
    for perm in permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            if not term:
                break
            term = term * rows[i][perm[i]]
        if not term:  # a zero factor: the term adds nothing
            continue
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        total = total - term if inversions % 2 else total + term
    return total


def _cofactor(matrix: SquareMatrix, i: int, j: int):
    sub = tuple(
        tuple(x for cj, x in enumerate(row) if cj != j)
        for ri, row in enumerate(matrix.entries)
        if ri != i
    )
    minor = matrix_determinant(SquareMatrix(sub))
    return -minor if (i + j) % 2 else minor


def adjugate(matrix: SquareMatrix) -> SquareMatrix:
    n = matrix.dim
    if n == 1:
        return SquareMatrix(((1,),))
    # adj[j][i] = cofactor(i, j): transpose of the cofactor matrix
    return SquareMatrix(tuple(
        tuple(_cofactor(matrix, i, j) for i in range(n)) for j in range(n)
    ))


def _invert_entry(value):
    if isinstance(value, int):
        if value in (1, -1):
            return value
        raise ValueError(f"integer {value} is not invertible")
    if isinstance(value, Fraction):
        if value == 0:
            raise ValueError("zero is not invertible")
        return 1 / value
    if isinstance(value, LaurentPoly):
        return value.unit_inverse()
    raise TypeError(f"cannot invert {type(value).__name__}")


def matrix_inverse(matrix: SquareMatrix) -> SquareMatrix:
    """Exact inverse: adjugate scaled by the determinant's inverse.

    Requires the determinant to be a unit of the entry ring: +/-1, any
    nonzero rational, or a signed power of u.
    """
    det = matrix_determinant(matrix)
    inv_det = _invert_entry(det)
    return adjugate(matrix).map_entries(lambda x: x * inv_det)


def series_matrix_valuation(matrix: SquareMatrix) -> tuple[int, SquareMatrix]:
    """Leading h-power and coefficient matrix of a unipotent series matrix.

    For M = I + h^k * C + O(h^(k+1)) with C nonzero, returns (k, C) where
    C has Fraction entries.  Raises :class:`NotUnipotentError` when the
    constant term is not the identity and
    :class:`ValuationExceedsOrderError` when M is the identity through
    the truncation order.
    """
    n = matrix.dim
    first = matrix.entries[0][0]
    if not isinstance(first, TruncSeries):
        raise TypeError("expected a matrix of TruncSeries entries")
    order = first.order
    for i in range(n):
        for j in range(n):
            if matrix.entries[i][j].constant_term() != (1 if i == j else 0):
                raise NotUnipotentError(
                    f"constant term differs from identity at ({i}, {j})"
                )
    for k in range(1, order + 1):
        lead = tuple(
            tuple(matrix.entries[i][j].coefficient(k) for j in range(n))
            for i in range(n)
        )
        if any(c != 0 for row in lead for c in row):
            return k, SquareMatrix(lead)
    raise ValuationExceedsOrderError(order)


def exact_rank(matrix: SquareMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Entries must be ints or Fractions; each row with a Fraction entry is
    scaled to integers first, which does not change the rank.
    """
    rows = []
    for row in matrix.entries:
        if all(isinstance(x, int) for x in row):
            rows.append(list(row))
            continue
        fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        scale = 1
        for f in fracs:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        rows.append([int(f * scale) for f in fracs])
    n = matrix.dim
    rank = 0
    prev_pivot = 1
    for col in range(n):
        pivot_row = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, n):
            for c in range(col + 1, n):
                q, rem = divmod(pivot * rows[r][c] - rows[r][col] * rows[rank][c], prev_pivot)
                if rem:  # Bareiss updates divide exactly; anything else is a bug
                    raise ArithmeticError("inexact division in fraction-free elimination")
                rows[r][c] = q
            rows[r][col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n:
            break
    return rank
