"""Construction, validation, search and serialization of the twist representation.

Each twist generator is represented on link patterns of n = 6 points as

    rho(c_i) = eta * u^a * (I + u^m * e_i)

for a sign eta and integer exponents (a, m).  The determinant of each
generator is eta^d * (-1)^r * u^(d*a + 2*r*m) where d is the number of
patterns and r the rank of a cup generator, so determinants land in
{+1, -1} exactly when d*a + 2*r*m = 0; :func:`solve_normalization`
solves that constraint and :func:`search_valid_rep` finds exponents for
which all defining relations hold.  A :class:`RepDefinition` holds the
:class:`~g2jones.words.Evaluator` of its generators, and one of its
degree-0 generators per sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import (
    DeterminantNotUnitSignError,
    NoSolutionError,
    SchemaError,
    SearchExhaustedError,
)
from .linkpatterns import enumerate_link_patterns, tl_generator
from .matrices import SquareMatrix, matrix_determinant
from .presentation import RelationCheck, RelationReport, check_presentation, require_relations
from .rings import LaurentPoly
from .words import NUM_GENERATORS, Evaluator

REP_VARIABLE = "u"


@dataclass(frozen=True)
class Normalization:
    eta: int
    a: int
    m: int

    def __post_init__(self):
        if self.eta not in (1, -1):
            raise ValueError("eta must be +1 or -1")
        if self.m < 1:
            raise ValueError("m must be a positive integer")

    def as_dict(self) -> dict:
        return {"eta": self.eta, "a": self.a, "m": self.m}


@dataclass(frozen=True)
class RepDefinition:
    """A concrete matrix representation of the five twist generators."""

    dim: int
    generators: tuple[SquareMatrix, ...]
    normalization: Normalization | None
    provenance: str  # "constructed" or "loaded"

    def __post_init__(self):
        if len(self.generators) != NUM_GENERATORS:
            raise ValueError(f"expected {NUM_GENERATORS} generators")
        if any(g.dim != self.dim for g in self.generators):
            raise ValueError("generator dimension disagrees with dim")

    # evaluators live outside the fields: no part in equality, hashing or the document

    @cached_property
    def evaluator(self) -> Evaluator:
        """The :class:`~g2jones.words.Evaluator` of the generators."""
        return Evaluator(self.generators)

    @cached_property
    def degree0_evaluators(self) -> dict[int, Evaluator]:
        """Per sign eps, the evaluator of :func:`degree0_generators` at eps."""
        return {eps: Evaluator(degree0_generators(self, eps)) for eps in (1, -1)}


def solve_normalization(n: int = 6, m: int | None = None) -> tuple[int, int]:
    """Exponents (a, m) making generator determinants constant of modulus 1.

    Solves d*a + 2*r*m = 0 over the integers with m >= 1 minimal when m
    is not supplied; raises :class:`NoSolutionError` when a forced m
    admits no integer a.
    """
    if n % 2 != 0 or n < 4:
        raise NoSolutionError(f"need an even boundary count >= 4, got {n}")
    d = len(enumerate_link_patterns(n))
    r = len(enumerate_link_patterns(n - 2))
    if m is None:
        g = gcd(d, 2 * r)
        m = d // g
    if (2 * r * m) % d != 0:
        raise NoSolutionError(
            f"no integer a with {d}*a + {2 * r}*{m} = 0; try m divisible by {d // gcd(d, 2 * r)}"
        )
    return (-(2 * r * m) // d, m)


def build_rep(eta: int, a: int, m: int) -> RepDefinition:
    """Generator matrices eta * u^a * (I + u^m * e_i) over Z[u, u^-1].

    Always on n = 6 boundary points, so the dimension is 5 and there are
    five generators.
    """
    if eta not in (1, -1):
        raise ValueError("eta must be +1 or -1")
    n = 6
    dim = len(enumerate_link_patterns(n))
    scalar = LaurentPoly.monomial(a, eta)
    gens = []
    for i in range(1, n):
        cup = tl_generator(i, n, m)
        shifted = SquareMatrix.identity(dim) + cup.map_entries(
            lambda x: LaurentPoly.monomial(m) * x
        )
        gens.append(shifted.map_entries(lambda x: scalar * x))
    return RepDefinition(
        dim=dim,
        generators=tuple(gens),
        normalization=Normalization(eta, a, m),
        provenance="constructed",
    )


def rep_determinant_sign(rep: RepDefinition) -> int:
    """Common determinant of the generators; must be the constant +1 or -1."""
    dets = [matrix_determinant(g) for g in rep.generators]
    sign = None
    for i, det in enumerate(dets, 1):
        if det == 1:
            value = 1
        elif det == -1:
            value = -1
        else:
            raise DeterminantNotUnitSignError(
                f"det of generator c{i} is {det}, not +1 or -1"
            )
        if sign is None:
            sign = value
        elif value != sign:
            raise DeterminantNotUnitSignError("generator determinants disagree")
    return sign


def degree0_generators(rep: RepDefinition, eps: int) -> tuple[SquareMatrix, ...]:
    """Constant terms of the generators at u = eps; integer matrices."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return tuple(
        g.map_entries(lambda p: p.evaluate_at_sign(eps)) for g in rep.generators
    )


def validate_representation(rep: RepDefinition) -> RelationReport:
    """Determinant gate plus every defining relation, reported by name."""
    try:
        sign = rep_determinant_sign(rep)
        gate = RelationCheck(f"determinants constant {'+1' if sign == 1 else '-1'}", True)
    except DeterminantNotUnitSignError as exc:
        sign = None
        gate = RelationCheck(f"determinants in {{+1, -1}} ({exc})", False)
    report = check_presentation(rep.generators)
    return RelationReport((gate,) + report.checks, determinant=sign)


# most (eta, a, m) candidates one search scans; counted before the scan
MAX_SEARCH_CANDIDATES = 100_000
# most failed candidates an exhausted search lists; the rest are counted
MAX_LISTED_FAILURES = 100


def generator_determinant(eta: int, a: int, m: int) -> LaurentPoly:
    """det of each generator of :func:`build_rep`: eta^d * (-1)^r * u^(d*a + 2*r*m)."""
    d = len(enumerate_link_patterns(6))
    r = len(enumerate_link_patterns(4))
    return LaurentPoly.monomial(d * a + 2 * r * m, eta ** d * (-1) ** r)


def search_valid_rep(
    eta_candidates=(1, -1),
    a_values=range(-8, 1),
    m_values=range(1, 7),
) -> RepDefinition:
    """First (eta, m, a) candidate, in deterministic order, passing all checks.

    A candidate whose generator determinant, read from the formula of
    :func:`generator_determinant`, is not +1 or -1 is rejected without
    building it; the others are built and get the full determinant gate
    and relation checks.  Ranges of more than ``MAX_SEARCH_CANDIDATES``
    raise :class:`SchemaError` before any scan.  When nothing passes, the
    raised :class:`SearchExhaustedError` carries one (eta, a, m, reason)
    record for each of the first ``MAX_LISTED_FAILURES`` candidates.
    """
    total = len(eta_candidates) * len(m_values) * len(a_values)
    if total > MAX_SEARCH_CANDIDATES:
        raise SchemaError(
            f"search range holds {total} candidates, more than {MAX_SEARCH_CANDIDATES}"
        )
    failures = []

    def fail(eta, a, m, reason):
        if len(failures) < MAX_LISTED_FAILURES:
            failures.append((eta, a, m, reason))

    for eta in eta_candidates:
        for m in m_values:
            for a in a_values:
                det = generator_determinant(eta, a, m)
                if det != 1 and det != -1:
                    fail(eta, a, m, f"det of generator c1 is {det}, not +1 or -1")
                    continue
                candidate = build_rep(eta, a, m)
                try:
                    rep_determinant_sign(candidate)
                except DeterminantNotUnitSignError as exc:
                    fail(eta, a, m, str(exc))
                    continue
                report = check_presentation(candidate.generators)
                if report.passed:
                    return candidate
                fail(eta, a, m, f"relation failed: {report.first_failure().name}")
    raise SearchExhaustedError(failures, tried=total)


def _entry_to_pairs(poly: LaurentPoly) -> list:
    return [[e, str(c)] for e, c in poly.items()]


def _pairs_to_entry(pairs, where: str) -> LaurentPoly:
    if not isinstance(pairs, list):
        raise SchemaError(f"{where}: entry must be a list of [exponent, coefficient] pairs")
    coeffs: dict[int, int] = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{where}: malformed pair {pair!r}")
        exp, coeff = pair
        if not isinstance(exp, int) or isinstance(exp, bool):
            raise SchemaError(f"{where}: exponent must be an integer, got {exp!r}")
        if not isinstance(coeff, str):
            raise SchemaError(f"{where}: coefficient must be a decimal string, got {coeff!r}")
        try:
            value = int(coeff)
        except ValueError:
            raise SchemaError(f"{where}: bad coefficient string {coeff!r}") from None
        if exp in coeffs:
            raise SchemaError(f"{where}: duplicate exponent {exp}")
        coeffs[exp] = value
    return LaurentPoly(coeffs)


def rep_to_document(rep: RepDefinition) -> dict:
    """JSON-ready description; exact inverse of :func:`rep_from_document`."""
    return {
        "dim": rep.dim,
        "variable": REP_VARIABLE,
        "generators": [
            [[_entry_to_pairs(g.entry(i, j)) for j in range(rep.dim)]
             for i in range(rep.dim)]
            for g in rep.generators
        ],
        "normalization": rep.normalization.as_dict() if rep.normalization else None,
    }


def rep_from_document(doc) -> RepDefinition:
    """Parse and fully re-validate a representation document.

    Schema violations raise :class:`SchemaError`; a document that parses
    must then pass the determinant gate (else
    :class:`DeterminantNotUnitSignError`) and every defining relation
    (else :class:`RelationFailureError` naming the first that fails).
    """
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    expected_keys = {"dim", "variable", "generators", "normalization"}
    if set(doc) != expected_keys:
        missing = expected_keys - set(doc)
        extra = set(doc) - expected_keys
        raise SchemaError(
            f"document keys must be exactly {sorted(expected_keys)}"
            + (f"; missing {sorted(missing)}" if missing else "")
            + (f"; unexpected {sorted(extra)}" if extra else "")
        )
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"dim must be a positive integer, got {dim!r}")
    if doc["variable"] != REP_VARIABLE:
        raise SchemaError(f"variable must be {REP_VARIABLE!r}, got {doc['variable']!r}")
    raw_gens = doc["generators"]
    if not isinstance(raw_gens, list) or len(raw_gens) != NUM_GENERATORS:
        raise SchemaError(f"generators must be a list of {NUM_GENERATORS} matrices")
    gens = []
    for gi, raw in enumerate(raw_gens, 1):
        if not isinstance(raw, list) or len(raw) != dim:
            raise SchemaError(f"generator c{gi}: expected {dim} rows")
        rows = []
        for ri, raw_row in enumerate(raw):
            if not isinstance(raw_row, list) or len(raw_row) != dim:
                raise SchemaError(f"generator c{gi} row {ri}: expected {dim} entries")
            rows.append(tuple(
                _pairs_to_entry(raw_entry, f"generator c{gi} entry ({ri}, {ci})")
                for ci, raw_entry in enumerate(raw_row)
            ))
        gens.append(SquareMatrix(tuple(rows)))
    norm = _parse_normalization(doc["normalization"])
    rep = RepDefinition(dim=dim, generators=tuple(gens), normalization=norm, provenance="loaded")
    rep_determinant_sign(rep)
    require_relations(rep.generators)
    return rep


def _parse_normalization(raw) -> Normalization | None:
    if raw is None:
        return None
    if not isinstance(raw, dict) or set(raw) != {"eta", "a", "m"}:
        raise SchemaError("normalization must be null or {eta, a, m}")
    eta, a, m = raw["eta"], raw["a"], raw["m"]
    for name, value in (("eta", eta), ("a", a), ("m", m)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"normalization {name} must be an integer")
    if eta not in (1, -1):
        raise SchemaError("normalization eta must be +1 or -1")
    if m < 1:
        raise SchemaError("normalization m must be >= 1")
    return Normalization(eta, a, m)
