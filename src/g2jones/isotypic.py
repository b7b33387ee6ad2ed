"""Degree-0 image and isotypic decomposition of the conjugation module.

At u = eps the five generator matrices become involutions satisfying the
Coxeter relations of S6, so they generate a finite matrix group Phi (720
elements, found by closure).  Conjugation m -> Phi(s) m Phi(s)^-1 makes
the 5 x 5 matrices a 25-dimensional module; its isotypic pieces are
computed two independent ways:

* multiplicities by character inner products (the module character is
  the square of the trace character of Phi), and
* ranks of the averaged projectors
  P_lam = (dim_lam / 720) * sum_s chi_lam(s) * (conjugation by Phi(s)).

The trivial summand is one-dimensional, spanned by the identity; its
coefficient in any matrix is trace / 5, exposed as
:func:`project_trivial`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul, sub

from .errors import GroupClosureError, NotInvolutiveError, RelationFailureError
from .characters import CharacterTable
from .matrices import SquareMatrix, exact_rank, matrix_trace
from .presentation import COXETER_RELATIONS, require_relations
from .rep import RepDefinition, degree0_generators

Perm = tuple[int, ...]


def _adjacent_transposition(i: int, n: int = 6) -> Perm:
    # swaps positions i-1 and i (0-based) for the generator index i in 1..5
    perm = list(range(n))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def _compose(sigma: Perm, tau: Perm) -> Perm:
    """(sigma . tau)(x) = sigma(tau(x))."""
    return tuple(map(sigma.__getitem__, tau))


def _invert(sigma: Perm) -> Perm:
    out = [0] * len(sigma)
    for i, s in enumerate(sigma):
        out[s] = i
    return tuple(out)


def cycle_type(sigma: Perm) -> tuple[int, ...]:
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = sigma[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_representative(mu: tuple[int, ...]) -> Perm:
    """A permutation of cycle type mu: consecutive blocks, each cycled."""
    perm = []
    start = 0
    for part in mu:
        block = list(range(start + 1, start + part)) + [start]
        perm.extend(block)
        start += part
    return tuple(perm)


def permutation_matrix_image(sigma: Perm, generators) -> SquareMatrix:
    """Image of a permutation: decompose into adjacent swaps, multiply images.

    Well-defined because the generator images satisfy the Coxeter
    relations; bubble sort supplies one adjacent-swap decomposition.
    """
    gens = tuple(generators)
    dim = gens[0].dim
    work = list(sigma)
    result = SquareMatrix.identity(dim)
    # swapping one-line entries precomposes with s_i, so sigma equals the
    # sorting swaps composed in reverse; images accumulate on the left
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                result = gens[i] * result
                changed = True
    return result


def verify_coxeter(generators) -> None:
    """Involutivity, braid and distant commutation for the constant images."""
    gens = tuple(generators)
    identity = SquareMatrix.identity(gens[0].dim)
    for i, g in enumerate(gens, 1):
        if g * g != identity:
            raise NotInvolutiveError(f"constant image of c{i} does not square to 1")
    require_relations(gens, COXETER_RELATIONS, " at degree 0")


def group_closure(generators, cap: int = 1000) -> dict[Perm, SquareMatrix]:
    """Map from permutations to matrices, built by breadth-first closure.

    Each step left-multiplies a known image by a generator image:
    rho(s_i . sigma) = rho(s_i) rho(sigma).  Only the rows where the
    generator differs from the identity are recomputed, as integer
    combinations of the known rows; the others are shared.  Every
    rediscovered element must agree with the stored matrix, which makes
    the closure a whole-group homomorphism check.  Exceeding the cap
    raises :class:`GroupClosureError`.
    """
    gens = tuple(generators)
    verify_coxeter(gens)
    n = 6
    identity_perm = tuple(range(n))
    steps = [
        (_adjacent_transposition(i, n), _moved_rows(g)) for i, g in enumerate(gens, 1)
    ]
    rows_of: dict[Perm, tuple] = {identity_perm: SquareMatrix.identity(gens[0].dim).entries}
    frontier = [identity_perm]
    while frontier:
        next_frontier = []
        for sigma in frontier:
            base = rows_of[sigma]
            for perm, moved in steps:
                product = _compose(perm, sigma)
                rows = list(base)
                for r, terms in moved:
                    rows[r] = _combine_rows(base, terms)
                rows = tuple(rows)
                known = rows_of.get(product)
                if known is None:
                    rows_of[product] = rows
                    next_frontier.append(product)
                    if len(rows_of) > cap:
                        raise GroupClosureError(
                            f"closure exceeded {cap} elements without stabilizing"
                        )
                elif known != rows:
                    raise RelationFailureError(
                        "group closure inconsistency: images do not define a homomorphism"
                    )
        frontier = next_frontier
    return {sigma: SquareMatrix(rows) for sigma, rows in rows_of.items()}


def _moved_rows(matrix: SquareMatrix) -> tuple:
    """Per row that is not the unit row e_r: (r, its nonzero (k, entry) pairs)."""
    units = SquareMatrix.identity(matrix.dim).entries
    return tuple(
        (r, tuple((k, x) for k, x in enumerate(row) if x))
        for r, row in enumerate(matrix.entries)
        if row != units[r]
    )


def _combine_rows(rows: tuple, terms: tuple) -> tuple:
    """sum(entry * rows[k] for k, entry in terms), as a tuple.

    Built from lazy element-wise maps; unit entries add or subtract a row
    without multiplying it.  ``terms`` is never empty: the generators
    passed :func:`verify_coxeter`, so they are invertible.
    """
    (k, entry), *rest = terms
    acc = rows[k] if entry == 1 else map(mul, repeat(entry), rows[k])
    for k, entry in rest:
        if entry == 1:
            acc = map(add, acc, rows[k])
        elif entry == -1:
            acc = map(sub, acc, rows[k])
        else:
            acc = map(add, acc, map(mul, repeat(entry), rows[k]))
    return tuple(acc)


def _slot_width(bound: int) -> int:
    """Bits per balanced slot holding any integer in [-bound, bound]."""
    return bound.bit_length() + 1


def _pack(values, width: int) -> int:
    """One integer with values[q] in the balanced slot at bit width * q."""
    packed = 0
    for q, value in enumerate(values):
        if value:
            packed += value << (width * q)
    return packed


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """Inverse of :func:`_pack` for slots in [-2^(width-1), 2^(width-1))."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    # biased by half per slot (a geometric series), every slot becomes a
    # nonnegative base-2^width digit
    biased = packed + half * (((1 << (width * count)) - 1) // mask)
    return [((biased >> (width * q)) & mask) - half for q in range(count)]


class ConjugationModule:
    """Conjugation action of the degree-0 group on dim x dim matrices."""

    def __init__(self, generators, table: CharacterTable | None = None):
        self.generators = tuple(generators)
        self.dim = self.generators[0].dim
        self.table = table or CharacterTable.build(6)
        self.image = group_closure(self.generators)
        self._class_sums: dict[tuple[int, ...], SquareMatrix] | None = None

    @classmethod
    def from_rep(cls, rep: RepDefinition, eps: int, table: CharacterTable | None = None):
        return cls(degree0_generators(rep, eps), table)

    @property
    def order(self) -> int:
        return len(self.image)

    def trace_character(self) -> dict[tuple[int, ...], int]:
        """chi_V(mu): trace of the image of one representative per class."""
        values = {}
        for mu in self.table.partitions:
            rep_matrix = permutation_matrix_image(class_representative(mu), self.generators)
            values[mu] = matrix_trace(rep_matrix)
        return values

    def module_character(self) -> dict[tuple[int, ...], int]:
        """Character of the conjugation module: chi_V squared, classwise."""
        return {mu: v * v for mu, v in self.trace_character().items()}

    def multiplicities(self) -> dict[tuple[int, ...], int]:
        """Isotypic multiplicities by character inner products."""
        module = self.module_character()
        out = {}
        for lam in self.table.partitions:
            value = self.table.multiplicity(lam, module)
            if value.denominator != 1 or value < 0:
                raise ArithmeticError(
                    f"multiplicity of {lam} is {value}, not a nonnegative integer"
                )
            out[lam] = int(value)
        return out

    def class_sums(self) -> dict[tuple[int, ...], SquareMatrix]:
        """For each class, the sum of conjugation operators over its elements.

        Operators act on row-major vec coordinates (matrix entry (i, j)
        lands at index dim*i + j); each is kron(g, (g^-1)^T) with integer
        entries, so the sum's entry (dim*i + k, dim*j + l) is the class
        total of g[i][j] * g^-1[l][k].  Each g^-1 is packed into one
        integer with a balanced slot per entry (:func:`_pack`) and added
        g[i][j] times to the class accumulator of (i, j).  No slot ever
        exceeds |G| * M^2 in size, M the largest entry size in the image,
        and the slot width holds that bound.
        """
        if self._class_sums is not None:
            return self._class_sums
        dim = self.dim
        size = dim * dim
        vecs = {
            sigma: [x for row in m.entries for x in row] for sigma, m in self.image.items()
        }
        largest = max(max(map(abs, v)) for v in vecs.values())
        width = _slot_width(len(vecs) * largest * largest)
        packed = {sigma: _pack(v, width) for sigma, v in vecs.items()}
        totals = {mu: [0] * size for mu in self.table.partitions}
        for sigma, v in vecs.items():
            acc = totals[cycle_type(sigma)]
            inverse = packed[_invert(sigma)]
            for p, x in enumerate(v):
                if x:
                    acc[p] += x * inverse
        self._class_sums = {}
        for mu, acc in totals.items():
            rows = [[0] * size for _ in range(size)]
            for p, total in enumerate(acc):
                i, j = divmod(p, dim)
                values = _unpack(total, width, size)
                for k in range(dim):
                    # slots dim*l + k, l = 0..dim-1, fill row dim*i + k
                    rows[dim * i + k][dim * j:dim * (j + 1)] = values[k::dim]
            self._class_sums[mu] = SquareMatrix(tuple(map(tuple, rows)))
        return self._class_sums

    def projector_numerator(self, lam: tuple[int, ...]) -> SquareMatrix:
        """Integer matrix Q with projector = (dim_lam / 720) * Q."""
        sums = self.class_sums()
        size = self.dim * self.dim
        acc = [0] * (size * size)
        for mu in self.table.partitions:
            chi = self.table.value(lam, mu)
            if chi:
                flat = chain.from_iterable(sums[mu].entries)
                acc = [a + chi * x for a, x in zip(acc, flat)]
        return SquareMatrix(tuple(
            tuple(acc[size * r:size * (r + 1)]) for r in range(size)
        ))

    def projector(self, lam: tuple[int, ...]) -> SquareMatrix:
        """Averaged isotypic projector with Fraction entries."""
        scale = Fraction(self.table.dimension(lam), self.order)
        return self.projector_numerator(lam).map_entries(lambda x: x * scale)

    def projector_rank(self, lam: tuple[int, ...]) -> int:
        return exact_rank(self.projector_numerator(lam))


def decompose_conjugation_module(
    rep: RepDefinition, eps: int, table: CharacterTable | None = None
) -> dict[tuple[int, ...], int]:
    return ConjugationModule.from_rep(rep, eps, table).multiplicities()


def isotypic_projector(
    lam: tuple[int, ...],
    rep: RepDefinition,
    eps: int,
    table: CharacterTable | None = None,
) -> SquareMatrix:
    return ConjugationModule.from_rep(rep, eps, table).projector(lam)


def project_trivial(matrix: SquareMatrix) -> Fraction:
    """Coefficient of the identity in the trivial-summand projection: trace / dim."""
    return Fraction(matrix_trace(matrix)) / matrix.dim
