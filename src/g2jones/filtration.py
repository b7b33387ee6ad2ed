"""h-adic expansion of Torelli words and their leading matrices.

Substituting u = eps * e^h (eps = +1 or -1) into the evaluated word
matrix yields a series matrix.  For a word acting trivially on homology
the constant term is the identity, so the matrix reads I + h^k * C +
O(h^(k+1)); the exponent k is the word's filtration depth and C its
leading matrix.  :func:`analyze` packages depth, leading matrix, trace,
a determinant identity check, and the projection onto scalars into one
report.

No series is formed: c * u^e becomes c * eps^e * e^(e*h), so j! times
the h^j coefficient is an integer moment of the Laurent image, taken
for j = 0 .. k only; ``order`` bounds the search for k.

The determinant identity asserted for every analyzed word: det of the
series matrix agrees with 1 + h^k * trace(C) modulo h^(k+1).  It is
checked on the series of order k built from moments 0 .. k with the
permutation-sum determinant, deliberately a different code path from
the subset dynamic program used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import factorial

from .errors import (
    Degree0NontrivialError,
    DepthMismatchError,
    NotTorelliError,
    ValuationExceedsOrderError,
)
from .matrices import SquareMatrix, determinant_by_permutations, matrix_trace
from .rep import Normalization, RepDefinition, degree0_generators
from .rings import LaurentPoly, TruncSeries, laurent_to_series
from .symplectic import is_torelli
from .words import MCGWord, evaluate_word

DEFAULT_ORDER = 12


def word_series(rep: RepDefinition, word: MCGWord, eps: int, order: int) -> SquareMatrix:
    """Evaluate the word over Z[u, u^-1], then substitute u = eps * e^h.

    Substitution is a ring homomorphism, so this equals evaluating the
    word in the already-substituted generator matrices.  The reports
    read the same coefficients as integer moments instead; this series
    route is their independent reference.
    """
    laurent = evaluate_word(word, rep.generators)
    return laurent.map_entries(lambda p: laurent_to_series(p, eps, order))


def degree0_matrix(rep: RepDefinition, word: MCGWord, eps: int) -> SquareMatrix:
    """Constant term of the word's series: the word in the generators at u = eps."""
    return evaluate_word(word, degree0_generators(rep, eps))


@dataclass(frozen=True)
class FiltrationReport:
    word: str
    epsilon: int
    order: int
    torelli: bool
    degree0_trivial: bool
    depth: int
    delta: SquareMatrix
    trace: Fraction
    det_lemma_ok: bool
    trivial_projection: Fraction
    normalization: Normalization | None

    def to_document(self) -> dict:
        return {
            "word": self.word,
            "epsilon": self.epsilon,
            "order": self.order,
            "torelli": self.torelli,
            "degree0_trivial": self.degree0_trivial,
            "depth": self.depth,
            "delta": [[str(x) for x in row] for row in self.delta.entries],
            "trace": str(self.trace),
            "det_lemma_ok": self.det_lemma_ok,
            "trivial_projection": str(self.trivial_projection),
            "normalization": self.normalization.as_dict() if self.normalization else None,
        }


def _moments(image: SquareMatrix, eps: int):
    """Yield j! times the h^j coefficient matrix of the image at u = eps * e^h.

    For j = 0, 1, 2, ...; a term c * u^e contributes c * eps^e * e^j, so
    the entries are integer moments of the Laurent entries.
    """
    terms = image.map_entries(lambda p: [
        (e, c if eps == 1 or e % 2 == 0 else -c)
        for e, c in (p.items() if isinstance(p, LaurentPoly) else ((0, p),))
    ])
    for j in count():
        yield terms.map_entries(lambda entry: sum(c * e ** j for e, c in entry))


def _coefficient(moment: SquareMatrix, k: int) -> SquareMatrix:
    return moment.map_entries(lambda x: Fraction(x, factorial(k)))


def _leading_term(image: SquareMatrix, eps: int, order: int, word: MCGWord):
    """Depth k <= order and leading matrix of an image that is I + h^k * C + ...

    Raises :class:`Degree0NontrivialError` at the first entry where the
    constant term differs from the identity, and
    :class:`ValuationExceedsOrderError` when no k <= order has C != 0.
    """
    moments = _moments(image, eps)
    for i, row in enumerate(next(moments).entries):
        for j, x in enumerate(row):
            if x != int(i == j):
                raise Degree0NontrivialError(
                    f"constant term of {word.abbreviated()} differs from the identity at ({i}, {j})"
                )
    # a nonzero entry of image - I with t terms has a nonzero moment at
    # some j < t (Vandermonde), so only the identity searches up to order
    if image == SquareMatrix.identity(image.dim):
        raise ValuationExceedsOrderError(order)
    zero = SquareMatrix.zero(image.dim)
    for k, moment in zip(range(1, order + 1), moments):
        if moment != zero:
            return k, _coefficient(moment, k)
    raise ValuationExceedsOrderError(order)


def _det_identity_holds(image: SquareMatrix, eps: int, depth: int, lead: SquareMatrix) -> bool:
    # the image's coefficients of h^0 .. h^depth, read from its moments
    # apart from _leading_term, form a matrix of series of order depth
    coeffs = [_coefficient(m, j) for j, m in enumerate(islice(_moments(image, eps), depth + 1))]
    dim = image.dim
    series = SquareMatrix(tuple(
        tuple(TruncSeries(depth, [c.entry(i, j) for c in coeffs]) for j in range(dim))
        for i in range(dim)
    ))
    expected = TruncSeries(depth, [1] + [0] * (depth - 1) + [matrix_trace(lead)])
    return determinant_by_permutations(series) == expected


def analyze(rep: RepDefinition, word: MCGWord, eps: int, order: int = DEFAULT_ORDER) -> FiltrationReport:
    """Full h-adic report for one Torelli word at one sign of u.

    Raises :class:`NotTorelliError` for words acting nontrivially on
    homology, :class:`Degree0NontrivialError` when the series constant
    term is not the identity, and :class:`ValuationExceedsOrderError`
    when the word is the identity through the requested order.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not isinstance(order, int) or order < 2:
        raise ValueError("order must be an integer >= 2")
    if not is_torelli(word):
        raise NotTorelliError(f"word {word.abbreviated()} acts nontrivially on homology")
    image = evaluate_word(word, rep.generators)
    depth, lead = _leading_term(image, eps, order, word)
    trace = Fraction(matrix_trace(lead))
    return FiltrationReport(
        word=str(word),
        epsilon=eps,
        order=order,
        torelli=True,
        degree0_trivial=True,
        depth=depth,
        delta=lead,
        trace=trace,
        det_lemma_ok=_det_identity_holds(image, eps, depth, lead),
        trivial_projection=trace / lead.dim,
        normalization=rep.normalization,
    )


def verify_det_lemma(rep: RepDefinition, word: MCGWord, eps: int, order: int = DEFAULT_ORDER) -> bool:
    """Stand-alone check of the determinant identity for one word."""
    image = evaluate_word(word, rep.generators)
    return _det_identity_holds(image, eps, *_leading_term(image, eps, order, word))


@dataclass(frozen=True)
class LeadingTermCheck:
    """Whether an image is I + O(h^depth) with h^depth coefficient ``expected``.

    ``deeper`` is True when that holds with ``expected`` zero: the image
    sits strictly deeper, which confirms the prediction, not refutes it.
    """

    holds: bool
    deeper: bool
    depth: int
    expected: SquareMatrix
    actual: SquareMatrix

    def __bool__(self) -> bool:
        return self.holds


def _check_leading_term(
    image: SquareMatrix, eps: int, depth: int, expected: SquareMatrix
) -> LeadingTermCheck:
    """Compare the image at u = eps * e^h with I + h^depth * expected + O(h^(depth+1))."""
    moments = list(islice(_moments(image, eps), depth + 1))
    zero = SquareMatrix.zero(image.dim)
    below = moments[0] == SquareMatrix.identity(image.dim) and all(
        m == zero for m in moments[1:depth]
    )
    actual = _coefficient(moments[depth], depth)
    holds = below and actual == expected
    return LeadingTermCheck(
        holds=holds,
        deeper=holds and expected == zero,
        depth=depth,
        expected=expected,
        actual=actual,
    )


def check_delta_additivity(
    rep: RepDefinition, x: MCGWord, y: MCGWord, eps: int, order: int = DEFAULT_ORDER
) -> LeadingTermCheck:
    """Leading matrix of x*y against the sum of leading matrices at equal depth.

    Requires x and y to have the same depth k; otherwise raises
    :class:`DepthMismatchError`.  When the sum vanishes, the product
    must be trivial through h^k (it lies deeper), reported with
    ``deeper=True``.
    """
    rx = analyze(rep, x, eps, order)
    ry = analyze(rep, y, eps, order)
    if rx.depth != ry.depth:
        raise DepthMismatchError(
            f"depth {rx.depth} for {x} vs depth {ry.depth} for {y}"
        )
    image = evaluate_word(x * y, rep.generators)
    return _check_leading_term(image, eps, rx.depth, rx.delta + ry.delta)


def check_equivariance(
    rep: RepDefinition, g: MCGWord, x: MCGWord, eps: int, order: int = DEFAULT_ORDER
) -> bool:
    """Conjugating the word conjugates its leading matrix by the degree-0 image.

    Checks depth(g x g^-1) == depth(x) and lead(g x g^-1) ==
    G0 * lead(x) * G0^-1 where G0 is the constant term of g's series.
    """
    base = analyze(rep, x, eps, order)
    conjugated = analyze(rep, g * x * g.inverse(), eps, order)
    g0 = degree0_matrix(rep, g, eps)
    g0_inv = degree0_matrix(rep, g.inverse(), eps)
    if conjugated.depth != base.depth:
        return False
    return conjugated.delta == g0 * base.delta * g0_inv


def check_bracket(
    rep: RepDefinition, x: MCGWord, y: MCGWord, eps: int, order: int = DEFAULT_ORDER
) -> LeadingTermCheck:
    """Compare the commutator word's leading behaviour with the matrix bracket.

    For x of depth j and y of depth k, the group commutator [x, y] is
    trivial through h^(j + k - 1) and its coefficient at h^(j + k)
    equals the matrix commutator of the leading matrices.  ``deeper``
    records the case where that commutator vanishes and [x, y] sits
    strictly deeper.  Raises :class:`ValuationExceedsOrderError` when
    j + k exceeds the order.
    """
    rx = analyze(rep, x, eps, order)
    ry = analyze(rep, y, eps, order)
    target = rx.depth + ry.depth
    if target > order:
        raise ValuationExceedsOrderError(
            order, f"depths {rx.depth} + {ry.depth} exceed order {order}"
        )
    image = evaluate_word(x.commutator(y), rep.generators)
    return _check_leading_term(image, eps, target, rx.delta * ry.delta - ry.delta * rx.delta)
