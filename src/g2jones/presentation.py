"""Defining relations of the genus-2 twist generators.

The group generated by the five chain twists c1..c5 has the presentation
with braid relations for adjacent pairs, commutation for distant pairs,
the chain relation (c1 c2 c3 c4 c5)^6 = 1, an involutive hyperelliptic
element iota = c1 c2 c3 c4 c5 c5 c4 c3 c2 c1, and iota central.
:data:`RELATIONS` is the one table of them; it opens with
:data:`COXETER_RELATIONS`, the braids and distant commutations the
degree-0 images share with S6.  :func:`check_presentation` reports each
by name, and :func:`require_relations` raises at the first that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import RelationFailureError
from .matrices import SquareMatrix
from .words import Evaluator, MCGWord


def chain_word() -> MCGWord:
    return MCGWord(tuple((i, 1) for i in range(1, 6)))


def hyperelliptic_word() -> MCGWord:
    ascending = tuple((i, 1) for i in range(1, 6))
    return MCGWord(ascending + tuple(reversed(ascending)))


def braid_relation_words(i: int) -> tuple[MCGWord, MCGWord]:
    a, b = MCGWord.generator(i), MCGWord.generator(i + 1)
    return a * b * a, b * a * b


_c = MCGWord.generator
_CHAIN = chain_word()
_IOTA = hyperelliptic_word()

# (name, lhs, rhs) per relation, in report order
COXETER_RELATIONS = tuple(
    (f"braid c{i} c{i + 1}", *braid_relation_words(i)) for i in range(1, 5)
) + tuple(
    (f"commute c{i} c{j}", _c(i) * _c(j), _c(j) * _c(i))
    for i in range(1, 6)
    for j in range(i + 2, 6)
)
RELATIONS = COXETER_RELATIONS + (
    ("chain (c1 c2 c3 c4 c5)^6 = 1", _CHAIN ** 6, MCGWord.identity()),
    ("hyperelliptic iota^2 = 1", _IOTA ** 2, MCGWord.identity()),
) + tuple(
    (f"iota central: [iota, c{i}] = 1", _IOTA * _c(i), _c(i) * _IOTA) for i in range(1, 6)
)
# relation sides the gate multiplies from the images of two factors, so
# iota and the chain are multiplied out once per gate, not once per side
_FACTORS = {
    _CHAIN ** 2: (_CHAIN, _CHAIN),
    _CHAIN ** 3: (_CHAIN ** 2, _CHAIN),
    _CHAIN ** 6: (_CHAIN ** 3, _CHAIN ** 3),
    _IOTA ** 2: (_IOTA, _IOTA),
    **{_IOTA * _c(i): (_IOTA, _c(i)) for i in range(1, 6)},
    **{_c(i) * _IOTA: (_c(i), _IOTA) for i in range(1, 6)},
}


@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool
    difference: SquareMatrix | None = None


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...] = field(default_factory=tuple)
    # the generators' common determinant when a determinant gate ran and
    # passed; None when it failed or did not run
    determinant: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> RelationCheck | None:
        return next((c for c in self.checks if not c.passed), None)

    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = [
            f"[{'ok' if c.passed else 'FAIL'}] {c.name}" for c in self.checks
        ]
        return "\n".join(lines)


def _evaluate_relations(generators, relations):
    """Yield (name, lhs image, rhs image) per relation, in table order.

    Each side is multiplied out once per call: a side in ``_FACTORS`` as
    the product of its factors' images, any other by one shared evaluator.
    """
    evaluator = Evaluator(generators)
    images = {}

    def image(word):
        if word not in images:
            factors = _FACTORS.get(word)
            images[word] = (evaluator.evaluate(word) if factors is None
                            else image(factors[0]) * image(factors[1]))
        return images[word]

    for name, lhs, rhs in relations:
        yield name, image(lhs), image(rhs)


def check_presentation(generators) -> RelationReport:
    """Evaluate all defining relations on the given generator matrices.

    The report is kept for the few most recent generator tuples, so a
    loaded representation's relations run once for the loader and
    ``validate`` together.
    """
    return _presentation_report(tuple(generators))


@lru_cache(maxsize=4)
def _presentation_report(generators: tuple) -> RelationReport:
    return RelationReport(tuple(
        RelationCheck(name, True) if lhs == rhs else RelationCheck(name, False, lhs - rhs)
        for name, lhs, rhs in _evaluate_relations(generators, RELATIONS)
    ))


def require_relations(generators, relations=RELATIONS, suffix: str = "") -> None:
    """Raise :class:`RelationFailureError` naming the first relation that fails.

    The error's ``relation`` is the table name followed by ``suffix``.
    The whole table is read from :func:`check_presentation`'s report.
    """
    if relations is RELATIONS:
        failure = check_presentation(generators).first_failure()
        if failure is not None:
            raise RelationFailureError(failure.name + suffix)
        return
    for name, lhs, rhs in _evaluate_relations(generators, relations):
        if lhs != rhs:
            raise RelationFailureError(name + suffix)
