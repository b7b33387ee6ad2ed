"""The benchmark workloads: seeded inputs, timed items, output checks.

A workload is a stream of passes.  Each pass is a list of items built
from the seed before any timing starts; the runner gives every pass a
fresh import of g2jones and the set-up of a later run of the
command-line tool, so no state survives from one pass to the next.  An item is a text-only input plus two callables:

* ``run(ctx)`` calls the library through ``ctx.g`` (the freshly
  imported package) and is the only part that is timed;
* ``check(output)`` decides whether the output is correct; a False
  result or an exception counts the item as failed.

Words reach the library as expression text, so parsing is part of
every item, as it is for the command-line tool.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

ORDER = 12
SIGNS = (1, -1)

# degree-0 expectations: the S6 isotypic pieces and their projector ranks
EXPECTED_ORDER = 720
EXPECTED_MULTIPLICITIES = {(6,): 1, (4, 2): 1, (2, 2, 2): 1, (3, 1, 1, 1): 1}
EXPECTED_RANKS = {(6,): 1, (4, 2): 9, (2, 2, 2): 5, (3, 1, 1, 1): 10}


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


def canonical_json(document) -> str:
    """The serialization ``g2jones analyze --json`` uses for its documents."""
    return json.dumps(document, indent=2, sort_keys=True)


class Golden:
    """Reports ``g2jones analyze --json`` printed for the packaged catalog."""

    def __init__(self, document: dict):
        reports = document["reports"]
        self.words = list(dict.fromkeys(r["word"] for r in reports))
        self.serialized = {(r["word"], r["epsilon"]): canonical_json(r) for r in reports}
        if len(self.serialized) != len(self.words) * len(SIGNS):
            raise ValueError("golden document lacks a report for some (word, sign)")
        depth = {(r["word"], r["epsilon"]): r["depth"] for r in reports}
        self.depth_one = [w for w in self.words if all(depth[(w, eps)] == 1 for eps in SIGNS)]

    @classmethod
    def load(cls, path) -> "Golden":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))


# ---------------------------------------------------------------- catalog

def _catalog_report(text: str, eps: int):
    def run(ctx):
        report = ctx.g.analyze(ctx.rep, ctx.g.parse_word(text), eps, ORDER)
        document = report.to_document()
        document["word"] = text  # the CLI reports the source line
        return document
    return run


def catalog_groups(golden: Golden) -> list[list[Item]]:
    """The packaged catalog: per word, its plus and minus reports."""
    return [
        [Item("report", _catalog_report(text, eps),
              lambda doc, expected=golden.serialized[(text, eps)]: canonical_json(doc) == expected)
         for eps in SIGNS]
        for text in golden.words
    ]


# ------------------------------------------------------------- long-words

# (conjugator letter length, k) for the conjugates g (c_i c_i+1)^(6k) g^-1
# of one pass: 152, 214, 252 and 314 letters before free reduction
CONJUGATE_SHAPES = ((70, 1), (95, 2), (120, 1), (145, 2))
# conjugator letter lengths for the commutators of one pass, which reduce
# to 150, 200 and 250 letters
COMMUTATOR_SHAPES = (51, 76, 101)


def random_word_text(rng: random.Random, letters: int) -> str:
    """A freely reduced word of the given letter length, exponents in +-1, +-2."""
    parts = []
    previous = None
    remaining = letters
    while remaining:
        gen = rng.choice([g for g in range(1, 6) if g != previous])
        exp = rng.choice((1, 2)) if remaining > 1 else 1
        remaining -= exp
        if rng.random() < 0.5:
            exp = -exp
        parts.append(f"c{gen}" if exp == 1 else f"c{gen}^{exp}")
        previous = gen
    return " ".join(parts)


def conjugate_text(rng: random.Random, letters: int, k: int) -> str:
    i = rng.randint(1, 4)
    g = random_word_text(rng, letters)
    return f"{g} (c{i} c{i + 1})^{6 * k} ({g})^-1"


def commutator_text(rng: random.Random, letters: int) -> str:
    """[g X g^-1, g Y g^-1] for overlapping pairs X = (c_i c_i+1)^6, Y = (c_i+1 c_i+2)^6.

    It equals g [X, Y] g^-1, and [X, Y] has depth exactly 2 (its bracket
    of leading terms is nonzero), so conjugation keeps the depth at 2.
    Independent conjugators could make the two conjugates commute, and
    the commutator would then be trivial through any order.
    """
    i = rng.randint(1, 3)
    g = random_word_text(rng, letters)
    return (f"[{g} (c{i} c{i + 1})^6 ({g})^-1, "
            f"{g} (c{i + 1} c{i + 2})^6 ({g})^-1]")


def _long_word_report(text: str, eps: int):
    def run(ctx):
        return ctx.g.analyze(ctx.rep, ctx.g.parse_word(text), eps, ORDER)
    return run


def _long_word_check(min_depth: int, max_depth: int):
    def check(report):
        return (
            report.torelli
            and report.degree0_trivial
            and min_depth <= report.depth <= max_depth
            and report.trace == 0
            and report.det_lemma_ok
            and report.trivial_projection == 0
        )
    return check


def long_word_groups(rng: random.Random) -> list[list[Item]]:
    """Fresh Torelli words built by construction: per word, both signs.

    Conjugates of (c_i c_i+1)^(6k) have depth 1; commutators of two
    conjugates have depth at least 2.  Every pass draws new words, so
    no (word, sign) pair repeats within a run.
    """
    words = [
        (conjugate_text(rng, letters, k), 1, 1) for letters, k in CONJUGATE_SHAPES
    ]
    words += [(commutator_text(rng, letters), 2, ORDER) for letters in COMMUTATOR_SHAPES]
    return [
        [Item("conjugate" if low == 1 else "commutator",
              _long_word_report(text, eps), _long_word_check(low, high))
         for eps in SIGNS]
        for text, low, high in words
    ]


# --------------------------------------------------------------- calculus

def _additivity(x: str, y: str, eps: int) -> Item:
    def run(ctx):
        g = ctx.g
        return g.check_delta_additivity(ctx.rep, g.parse_word(x), g.parse_word(y), eps, ORDER)
    return Item("additivity", run, lambda result: result.holds)


def _scaling(x: str, exponent: int, eps: int) -> Item:
    """Leading matrix of x^n is n times that of x, at the same depth."""
    def run(ctx):
        g = ctx.g
        base = g.analyze(ctx.rep, g.parse_word(x), eps, ORDER)
        powered = g.analyze(ctx.rep, g.parse_word(f"({x})^{exponent}"), eps, ORDER)
        return base, powered
    def check(result):
        base, powered = result
        return powered.depth == base.depth and powered.delta == base.delta * exponent
    return Item("negation" if exponent == -1 else "power", run, check)


def _equivariance(conjugator: str, x: str, eps: int) -> Item:
    def run(ctx):
        g = ctx.g
        return g.check_equivariance(ctx.rep, g.parse_word(conjugator), g.parse_word(x), eps, ORDER)
    return Item("equivariance", run, lambda result: result is True)


def _bracket(x: str, y: str, eps: int) -> Item:
    def run(ctx):
        g = ctx.g
        return g.check_bracket(ctx.rep, g.parse_word(x), g.parse_word(y), eps, ORDER)
    return Item("bracket", run, lambda result: result.holds and result.depth == 2)


POWER_EXPONENTS = (2, 3, -2)
CHECKS_PER_KIND = 10
ADDITIVITY_OFFSET = 4
SIXTH_POWERS = tuple(f"(c{i} c{i + 1})^6" for i in range(1, 5))


def calculus_groups(golden: Golden, rng: random.Random) -> list[list[Item]]:
    """First-order calculus on the catalog's depth-1 words: per check, both signs.

    The pattern of acceptance criteria 8 and 9, on the depth-1 words in
    catalog order: ten additivity pairs (w_i, w_i+4), negation and a
    power (exponent 2, 3, -2 by position) of the first ten words,
    equivariance of w_i under ten seeded short conjugators, and the
    graded bracket on every pair of sixth powers.  The seed draws the
    conjugators, so every pass does nearly the same work; the same
    words recur across the checks of a pass, so reuse of analyses
    within a pass shows here.
    """
    words = golden.depth_one
    checks = []
    for i in range(CHECKS_PER_KIND):
        x = words[i % len(words)]
        conjugator = random_word_text(rng, rng.randint(1, 3))
        checks += [
            (_additivity, x, words[(i + ADDITIVITY_OFFSET) % len(words)]),
            (_scaling, x, -1),
            (_scaling, x, POWER_EXPONENTS[i % len(POWER_EXPONENTS)]),
            (_equivariance, conjugator, x),
        ]
    checks += [(_bracket, x, y) for x, y in itertools.combinations(SIXTH_POWERS, 2)]
    return [[make(*args, eps) for eps in SIGNS] for make, *args in checks]


# ------------------------------------------------------------------ hadic

def hadic_pass(golden: Golden, rng: random.Random) -> list[Item]:
    """The catalog, seven fresh long words and the calculus checks, shuffled.

    The unit of shuffling is a word or a check with both of its signs,
    plus before minus as in ``g2jones analyze``, so sharing between the
    two signs of a word shows as it would for the CLI.  Shuffling makes
    any prefix of a pass a fair sample of its mix.
    """
    groups = catalog_groups(golden) + long_word_groups(rng) + calculus_groups(golden, rng)
    rng.shuffle(groups)
    return [item for group in groups for item in group]


# ---------------------------------------------------------------- degree0

def _validate(ctx):
    return ctx.g.validate_representation(ctx.rep)


def _decompose(eps: int):
    def run(ctx):
        module = ctx.g.ConjugationModule.from_rep(ctx.rep, eps, ctx.table)
        multiplicities = {lam: c for lam, c in module.multiplicities().items() if c}
        ranks = {lam: module.projector_rank(lam) for lam in multiplicities}
        return module.order, multiplicities, ranks
    return run


def _decomposition_check(result) -> bool:
    order, multiplicities, ranks = result
    return (
        order == EXPECTED_ORDER
        and multiplicities == EXPECTED_MULTIPLICITIES
        and ranks == EXPECTED_RANKS
    )


def degree0_pass(rng: random.Random) -> list[Item]:
    """``g2jones validate`` plus one decomposition per sign, in seeded order."""
    items = [Item("validate", _validate, lambda report: report.passed)]
    items += [Item("decompose", _decompose(eps), _decomposition_check) for eps in SIGNS]
    rng.shuffle(items)
    return items


# ------------------------------------------------------------------ table

@dataclass(frozen=True)
class Workload:
    name: str
    uses_chartable: bool
    make_pass: Callable[[Golden, random.Random], list[Item]]


WORKLOADS = {
    w.name: w for w in (
        Workload("hadic", False, hadic_pass),
        Workload("degree0", True, lambda golden, rng: degree0_pass(rng)),
    )
}
