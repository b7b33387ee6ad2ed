"""h-adic expansion of Torelli words and their leading matrices.

Substituting u = eps * e^h (eps = +1 or -1) into the evaluated word
matrix yields a series matrix.  For a word acting trivially on homology
the constant term is the identity, so the matrix reads I + h^k * C +
O(h^(k+1)); the exponent k is the word's filtration depth and C its
leading matrix.  :func:`analyze` packages depth, leading matrix, trace,
a determinant identity check, and the projection onto scalars into one
report.

No series is formed: the expansion is read in t = e^h - 1, where u =
eps * (1 + t) and u^-1 = eps * (1 - t + t^2 - ...) have integer
coefficients.  Each word is multiplied out over Z[t]/(t^(K+1)), its
entries tuples of K + 1 integers however long the word, for K = 2, 4,
8, ... until a nonzero t^k coefficient appears or K reaches ``order``.
As t = h + O(h^2), depth and C are the same in t as in h.  A word still
trivial through t^MAX_T_ORDER is read from its image over Z[u, u^-1]
instead, where c * u^e has the t^j coefficient c * eps^e * binom(e, j);
an identity image there ends the search at once for any order.

The determinant identity asserted for every analyzed word: det of the
series matrix agrees with 1 + h^k * trace(C) modulo h^(k+1), so also
with 1 + t^k * trace(C) modulo t^(k+1).  It is checked on the entries'
t^0 .. t^k integer coefficient tuples by a permutation sum cut after
t^k, deliberately a third code path beside both determinants of
:mod:`~g2jones.matrices`.

Both signs share one evaluation.  Every entry of eta * u^a * (I + u^m *
e_i) has one parity in u, so rho(-u) = S rho(u) S with S a diagonal
sign matrix (the Temperley-Lieb symmetry e_i -> -e_i), and a word's
image at u = -(1 + t) is parity^(exponent sum) * S (image at 1 + t) S;
:func:`~g2jones.words.sign_twist` finds S and the parity.  Generators
without that symmetry, such as a loaded document whose entries mix
parities, are multiplied out at each sign, and that direct route at -1
is the reference the tests hold the twisted image to.  The minus report
still runs the identity test, the doubling, the determinant identity and
the leading-term checks on its own image.  Images are kept in small
memos keyed on the word and the rep's evaluator, hashed by identity, so
a report's determinant check and the calculus checks reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, product
from math import comb

from .errors import (
    Degree0NontrivialError,
    DepthMismatchError,
    NotTorelliError,
    ValuationExceedsOrderError,
)
from .matrices import SquareMatrix, matrix_trace
from .rep import Normalization, RepDefinition
from .rings import LaurentPoly, laurent_to_series
from .symplectic import is_torelli
from .words import Evaluator, MCGWord, evaluate_truncated

DEFAULT_ORDER = 12
# largest K for which a word is multiplied out over Z[t]/(t^(K+1)); a
# word trivial through t^MAX_T_ORDER is read from its Laurent image
MAX_T_ORDER = 16


def word_series(rep: RepDefinition, word: MCGWord, eps: int, order: int) -> SquareMatrix:
    """Evaluate the word over Z[u, u^-1], then substitute u = eps * e^h.

    Substitution is a ring homomorphism, so this equals evaluating the
    word in the already-substituted generator matrices.  The reports
    read the expansion in t = e^h - 1 instead, multiplying the word out
    over Z[t]/(t^(K+1)); this series route is their independent
    reference.
    """
    laurent = rep.evaluator.evaluate(word)
    return laurent.map_entries(lambda p: laurent_to_series(p, eps, order))


def degree0_matrix(rep: RepDefinition, word: MCGWord, eps: int) -> SquareMatrix:
    """Constant term of the word's series: the word in the generators at u = eps."""
    return rep.degree0_evaluators[eps].evaluate(word)


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


def _coefficients(image, eps: int):
    """Yield the integer t^j coefficient matrix of the image at u = eps * (1 + t).

    For j = 0, 1, 2, ...; a term c * u^e contributes c * eps^e *
    binom(e, j), with the weight eps^e * binom(e, j) computed once per
    distinct exponent.  For e < 0, binom(e, j) = (-1)^j * binom(j - e - 1, j).
    An image already evaluated in t, the tuple of its t^0 .. t^K
    coefficient matrices, yields those and stops.
    """
    if isinstance(image, tuple):
        yield from image
        return
    terms = image.map_entries(
        lambda p: tuple(p.items()) if isinstance(p, LaurentPoly) else ((0, p),)
    )
    exponents = {e for row in terms.entries for entry in row for e, _ in entry}
    for j in count():
        weights = {}
        for e in exponents:
            w = comb(e, j) if e >= 0 else (-1) ** j * comb(j - e - 1, j)
            # eps ** e is a float for e < 0, so the sign comes from e's parity
            weights[e] = -w if eps == -1 and e % 2 else w
        yield terms.map_entries(lambda entry: sum(c * weights[e] for e, c in entry))


def _require_identity(constant: SquareMatrix, word: MCGWord) -> None:
    """Raise :class:`Degree0NontrivialError` at the first entry where the constant term is not I."""
    for i, row in enumerate(constant.entries):
        for j, x in enumerate(row):
            if x != int(i == j):
                raise Degree0NontrivialError(
                    f"constant term of {word.abbreviated()} differs from the identity at ({i}, {j})"
                )


def _first_nonzero(coefficients, order: int):
    """(k, C) for the first nonzero coefficient C at 1 <= k <= order, or None."""
    for k, coefficient in zip(range(1, order + 1), coefficients):
        if any(any(row) for row in coefficient.entries):
            return k, coefficient
    return None


def _leading_term(image: SquareMatrix, eps: int, order: int, word: MCGWord):
    """Depth k <= order and leading matrix of a Laurent image that is I + h^k * C + ...

    Raises :class:`Degree0NontrivialError` at the first entry where the
    constant term differs from the identity, and
    :class:`ValuationExceedsOrderError` when no k <= order has C != 0.
    """
    coefficients = _coefficients(image, eps)
    _require_identity(next(coefficients), word)
    # a nonzero entry of image - I with n terms has a nonzero t^j
    # coefficient at some j < n: the binom(e, j) with j < n span the same
    # polynomials in e as the e^j (Vandermonde), so only the identity
    # searches up to order
    if image == SquareMatrix.identity(image.dim):
        raise ValuationExceedsOrderError(order)
    found = _first_nonzero(coefficients, order)
    if found is None:
        raise ValuationExceedsOrderError(order)
    return found


def _truncated_determinant(image, eps: int, depth: int) -> tuple:
    """The t^0 .. t^depth coefficients of det of the image's expansion in t = e^h - 1.

    A permutation sum on coefficient tuples cut after t^depth, depth first over
    each row's nonzero entries, the used columns a bitmask, a new column adding
    one inversion per used column to its right.  A branch ends once its product
    vanishes mod t^(depth+1), as any two off-diagonal factors of a Torelli image do.
    """
    coeffs = list(islice(_coefficients(image, eps), depth + 1))
    rows = [[(b, [(j, x) for j, x in enumerate(entry) if x]) for b, entry in enumerate(zip(*row))
             if any(entry)] for row in zip(*(c.entries for c in coeffs))]
    det = [0] * (depth + 1)

    def extend(a: int, used: int, term: list, sign: int) -> None:
        if a == len(rows):
            for j, x in term:
                det[j] += sign * x
            return
        for b, entry in rows[a]:
            if used >> b & 1:
                continue
            cut = [0] * (depth + 1)
            for (i, x), (j, y) in product(term, entry):
                if i + j <= depth:
                    cut[i + j] += x * y
            if any(cut):
                extend(a + 1, used | 1 << b, [(j, x) for j, x in enumerate(cut) if x],
                       -sign if (used >> b).bit_count() % 2 else sign)

    extend(0, 0, [(0, 1)], 1)
    return tuple(det)


def _det_identity_holds(image, eps: int, depth: int, lead: SquareMatrix) -> bool:
    expected = (1,) + (0,) * (depth - 1) + (matrix_trace(lead),)
    return _truncated_determinant(image, eps, depth) == expected


@lru_cache(maxsize=4)
def _laurent_image(word: MCGWord, evaluator: Evaluator) -> SquareMatrix:
    """The word's image over Z[u, u^-1], for words trivial through t^MAX_T_ORDER.

    Keyed on the evaluator too, so a representation never reads another
    one's image; both signs share it.
    """
    return evaluator.evaluate(word)


def _t_columns(matrix: SquareMatrix, eps: int, order: int) -> tuple:
    """A Laurent letter matrix's nonzero columns of t^0 .. t^order coefficient tuples."""
    coefficients = list(islice(_coefficients(matrix, eps), order + 1))
    dim = matrix.dim
    entries = [[tuple(c.entries[i][j] for c in coefficients) for j in range(dim)]
               for i in range(dim)]
    return tuple(
        tuple((i, entries[i][j]) for i in range(dim) if any(entries[i][j]))
        for j in range(dim)
    )


@lru_cache(maxsize=8)
def _t_image(word: MCGWord, evaluator: Evaluator, eps: int, order: int) -> tuple:
    """The t^0 .. t^order coefficient matrices of the word's image at u = eps * (1 + t).

    At eps = -1, generators with a :func:`~g2jones.words.sign_twist` read
    them off the memoised image at +1: w(-u) = parity^(exponent sum) *
    S w(u) S, so entry (i, j) of each coefficient takes the sign
    parity^(exponent sum) * s_i * s_j.  Otherwise the word is multiplied
    out by :func:`_evaluate_in_t`.  Eight entries: a calculus check holds
    three images per sign.
    """
    twist = evaluator.twist if eps == -1 else None
    if twist is None:
        return _evaluate_in_t(word, evaluator, eps, order)
    parity, signs = twist
    sign = parity if word.exponent_sum() % 2 else 1
    flips = [[sign * r * s for s in signs] for r in signs]
    return tuple(
        SquareMatrix(tuple(
            tuple(x * f for x, f in zip(row, flip)) for row, flip in zip(c.entries, flips)
        ))
        for c in _t_image(word, evaluator, 1, order)
    )


def _evaluate_in_t(word: MCGWord, evaluator: Evaluator, eps: int, order: int) -> tuple:
    """:func:`_t_image` by multiplying the word out over Z[t]/(t^(order+1)).

    No Laurent image is formed.  This is the route at +1, for generators
    without a sign twist, and the reference for the twisted image at -1.
    """
    columns = evaluator.t_letters(eps, order)
    for letter in set(word.letters) - columns.keys():
        columns[letter] = _t_columns(evaluator.letter(letter)[0], eps, order)
    rows = evaluate_truncated(word, columns, evaluator.dim, order)
    return tuple(
        SquareMatrix(tuple(tuple(entry[j] for entry in row) for row in rows))
        for j in range(order + 1)
    )


def _image_through(word: MCGWord, evaluator: Evaluator, eps: int, depth: int):
    """An image whose coefficients reach t^depth: over Z[t] up to MAX_T_ORDER, else Laurent."""
    if depth <= MAX_T_ORDER:
        return _t_image(word, evaluator, eps, max(depth, 2))
    return _laurent_image(word, evaluator)


def _expansion(word: MCGWord, evaluator: Evaluator, eps: int, order: int):
    """(image, depth k <= order, leading matrix) of a word's image I + t^k * C + ...

    Evaluates over Z[t]/(t^(K+1)) for K = 2, 4, 8, .. up to order; K = 2
    settles depths 1 and 2 at once.  A word still trivial at
    MAX_T_ORDER is read from its Laurent image, whose identity test and
    Vandermonde bound end the search at once for any order.
    """
    K = 2
    while K <= MAX_T_ORDER:
        K = min(K, order)
        image = _t_image(word, evaluator, eps, K)
        coefficients = iter(image)
        _require_identity(next(coefficients), word)
        found = _first_nonzero(coefficients, K)
        if found is not None:
            return (image, *found)
        if K == order:
            raise ValuationExceedsOrderError(order)
        K *= 2
    image = _laurent_image(word, evaluator)
    return (image, *_leading_term(image, eps, order, word))


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
    image, depth, lead = _expansion(word, rep.evaluator, eps, order)
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
    image, depth, lead = _expansion(word, rep.evaluator, eps, order)
    return _det_identity_holds(image, eps, depth, lead)


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
    coefficients = list(islice(_coefficients(image, eps), depth + 1))
    dim = coefficients[0].dim
    zero = SquareMatrix.zero(dim)
    below = coefficients[0] == SquareMatrix.identity(dim) and all(
        c == zero for c in coefficients[1:depth]
    )
    actual = coefficients[depth]
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
    image = _image_through(x * y, rep.evaluator, eps, rx.depth)
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
    image = _image_through(x.commutator(y), rep.evaluator, eps, target)
    return _check_leading_term(image, eps, target, rx.delta * ry.delta - ry.delta * rx.delta)
