"""Words in the five twist generators c1..c5.

A word is a freely reduced sequence of (generator, exponent) letters.
The expression grammar is

    word   := atom+
    atom   := base power?
    base   := 'c' digit | '(' word ')' | '[' word ',' word ']'
    power  := '^' '-'? digits

with whitespace allowed between tokens.  Brackets are group commutators:
[x, y] = x y x^-1 y^-1.  Parentheses and brackets nest at most
``MAX_NESTING`` deep, and an expression spells out at most
``MAX_LETTERS`` letters before free reduction.

A word's image is multiplied out letter by letter by an
:class:`Evaluator`, which holds all one generator tuple gives words.  A
generator's inverse is a closed form, kept only when one product
g * candidate == I confirms it: g(u^-1) for the Temperley-Lieb generators
eta * u^a * (I + u^m E_i), as E_i^2 = -(u^m + u^-m) E_i (Jones,
Ann. Math. 1987), and 2I - g for the symplectic transvections
x -> x + <x, v> v.  Any other matrix, such as a loaded representation
without that symmetry, is inverted by adjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import BadGeneratorError, ParseError
from .matrices import SquareMatrix, _nonzero_columns, _sparse_dot, matrix_inverse
from .rings import LaurentPoly

NUM_GENERATORS = 5


@dataclass(frozen=True)
class MCGWord:
    """Freely reduced word; letters are (generator index, nonzero exponent)."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for gen, exp in self.letters:
            if not 1 <= gen <= NUM_GENERATORS:
                raise ValueError(f"generator index {gen} outside 1..{NUM_GENERATORS}")
            if exp == 0:
                raise ValueError("zero exponent in letter")
        object.__setattr__(self, "letters", _reduce(self.letters))

    @classmethod
    def identity(cls) -> "MCGWord":
        return cls(())

    @classmethod
    def generator(cls, index: int, exponent: int = 1) -> "MCGWord":
        return cls(((index, exponent),))

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "MCGWord") -> "MCGWord":
        if not isinstance(other, MCGWord):
            return NotImplemented
        return MCGWord(self.letters + other.letters)

    def inverse(self) -> "MCGWord":
        return MCGWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "MCGWord":
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        return MCGWord(base.letters * abs(n))

    def commutator(self, other: "MCGWord") -> "MCGWord":
        return self * other * self.inverse() * other.inverse()

    def exponent_sum(self) -> int:
        return sum(e for _, e in self.letters)

    def syllable_length(self) -> int:
        return len(self.letters)

    def letter_length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "()"
        return " ".join(
            f"c{g}" if e == 1 else f"c{g}^{e}" for g, e in self.letters
        )

    def abbreviated(self, syllables: int = 8) -> str:
        """The word as printed, cut after a few syllables for messages."""
        if len(self.letters) <= syllables:
            return str(self)
        head = MCGWord(self.letters[:syllables])
        return f"{head} \u2026 ({self.letter_length()} letters)"


def _reduce(letters):
    out: list[list[int]] = []
    for gen, exp in letters:
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


def abelianization_class(word: MCGWord) -> int:
    """Image in the abelianization Z/10: total exponent mod 10."""
    return word.exponent_sum() % 10


# deepest bracket nesting accepted; the parser recurses once per level
MAX_NESTING = 100
# most letters an expression may spell out: c_i counts 1, x^n counts
# |n| times x, [x, y] counts twice x plus y; checked before anything is built
MAX_LETTERS = 10_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0

    def error(self, message: str, cls=ParseError):
        raise cls(message, self.pos)

    def checked_length(self, letters: int) -> int:
        if letters > MAX_LETTERS:
            self.error(f"word spells out more than {MAX_LETTERS} letters")
        return letters

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    # parse_word, parse_atom and parse_base return the word and the number
    # of letters its text spells out, so a power or a commutator is
    # checked against MAX_LETTERS before it is expanded

    def parse_word(self, closers: str = "") -> tuple[MCGWord, int]:
        atoms = []
        letters = 0
        self.skip_ws()
        while True:
            ch = self.peek()
            if not ch or ch in closers:
                break
            atom, length = self.parse_atom()
            letters = self.checked_length(letters + length)
            atoms.append(atom)
            self.skip_ws()
        if not atoms:
            self.error("expected a word")
        # one free reduction of all atoms: pairwise products would reduce
        # the growing prefix again for every atom
        return MCGWord(tuple(chain.from_iterable(a.letters for a in atoms))), letters

    def parse_atom(self) -> tuple[MCGWord, int]:
        base, letters = self.parse_base()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.parse_int()
            letters = self.checked_length(letters * abs(exponent))
            return base ** exponent, letters
        return base, letters

    def parse_base(self) -> tuple[MCGWord, int]:
        ch = self.peek()
        if ch in ("(", "[") and self.nesting == MAX_NESTING:
            self.error(f"brackets nested deeper than {MAX_NESTING}")
        if ch == "c":
            self.pos += 1
            digit = self.peek()
            if not digit.isdigit():
                self.error("expected a generator digit after 'c'")
            if digit not in "12345":
                self.error(f"generator c{digit} outside c1..c5", BadGeneratorError)
            self.pos += 1
            return MCGWord.generator(int(digit)), 1
        if ch == "(":
            self.pos += 1
            self.nesting += 1
            inner = self.parse_word(closers=")")
            if self.peek() != ")":
                self.error("unclosed '('")
            self.pos += 1
            self.nesting -= 1
            return inner
        if ch == "[":
            self.pos += 1
            self.nesting += 1
            left, left_letters = self.parse_word(closers=",")
            if self.peek() != ",":
                self.error("expected ',' in commutator")
            self.pos += 1
            right, right_letters = self.parse_word(closers="]")
            if self.peek() != "]":
                self.error("unclosed '['")
            self.pos += 1
            self.nesting -= 1
            letters = self.checked_length(2 * (left_letters + right_letters))
            return left.commutator(right), letters
        self.error("expected 'c', '(' or '['")

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            self.error("expected an integer exponent")
        while self.peek().isdigit():
            self.pos += 1
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            self.error("exponent has too many digits")


def parse_word(text: str) -> MCGWord:
    """Parse a word expression; see the module docstring for the grammar."""
    parser = _Parser(text)
    word, _ = parser.parse_word()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("unexpected trailing input")
    return word


class Evaluator:
    """All one tuple of five generator matrices gives words; hashed by identity.

    The letter table maps each letter (generator, exponent) a word needs
    to its matrix and nonzero columns, so each inverse is computed once
    per evaluator.  Beside it sit the :func:`sign_twist` and the letter
    tables over Z[t]/(t^(K+1)) that :mod:`~g2jones.filtration` fills.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)
        if len(self.generators) != NUM_GENERATORS:
            raise ValueError(f"expected {NUM_GENERATORS} generator matrices")
        self.dim = self.generators[0].dim
        self._letters = {}
        self._t_letters = {}

    def letter(self, letter: tuple) -> tuple:
        """The matrix of c_gen^exp for the letter (gen, exp), and its nonzero columns."""
        if letter not in self._letters:
            gen, exp = letter
            g = self.generators[gen - 1]
            if exp == -1:
                matrix = _generator_inverse(g)
            elif exp == 1:
                matrix = g
            else:
                matrix = (g if exp > 0 else self.letter((gen, -1))[0]) ** abs(exp)
            self._letters[letter] = matrix, _nonzero_columns(matrix)
        return self._letters[letter]

    def evaluate(self, word: MCGWord) -> SquareMatrix:
        """Multiply out a word, each letter once, by the nonzero entries of its matrix.

        A twist generator's powers a*I + b*g are sparse, a few entries per column.
        """
        rows = SquareMatrix.identity(self.dim).entries
        for letter in word.letters:
            columns = self.letter(letter)[1]
            rows = [tuple(_sparse_dot(row, col, 0) for col in columns) for row in rows]
        return SquareMatrix(rows)

    @cached_property
    def twist(self) -> tuple[int, tuple[int, ...]] | None:
        """The generators' :func:`sign_twist`."""
        return sign_twist(self.generators)

    def t_letters(self, eps: int, order: int) -> dict:
        """The letter table at u = eps * (1 + t) over Z[t]/(t^(order+1)), filled by its reader."""
        return self._t_letters.setdefault((eps, order), {})


def evaluate_word(word: MCGWord, generators) -> SquareMatrix:
    """Multiply out a word in the given generator matrices, by a one-shot :class:`Evaluator`."""
    return Evaluator(generators).evaluate(word)


def evaluate_truncated(word: MCGWord, columns: dict, dim: int, order: int) -> list:
    """Multiply out a word over Z[t]/(t^(order+1)).

    ``columns`` maps each letter of the word to its matrix's nonzero
    columns, as (k, entry) pairs whose entry is the tuple of its t^0 ..
    t^order integer coefficients.  Entries never grow past order + 1
    coefficients, however long the word.  Returns the product's rows,
    lists of such tuples.
    """
    zero = (0,) * (order + 1)
    rows = [[(1,) + zero[1:] if i == j else zero for j in range(dim)] for i in range(dim)]
    step = _truncated_step2 if order == 2 else _truncated_step
    for letter in word.letters:
        rows = step(rows, columns[letter])
    return rows


def _truncated_step(rows: list, columns: tuple) -> list:
    """rows times the sparse columns, each entry product cut after t^order."""
    n = len(rows[0][0])
    out = []
    for row in rows:
        new = []
        for column in columns:
            acc = [0] * n
            for k, b in column:
                for i, a in enumerate(row[k]):
                    if a:
                        for j in range(n - i):
                            acc[i + j] += a * b[j]
            new.append(tuple(acc))
        out.append(new)
    return out


def _truncated_step2(rows: list, columns: tuple) -> list:
    """:func:`_truncated_step` at order 2, unrolled: most words settle there."""
    out = []
    for row in rows:
        new = []
        for column in columns:
            s0 = s1 = s2 = 0
            for k, (b0, b1, b2) in column:
                a0, a1, a2 = row[k]
                s0 += a0 * b0
                s1 += a0 * b1 + a1 * b0
                s2 += a0 * b2 + a1 * b1 + a2 * b0
            new.append((s0, s1, s2))
        out.append(new)
    return out


def _generator_inverse(g: SquareMatrix) -> SquareMatrix:
    """g^-1: g(u^-1) or 2I - g, the first that g * candidate == I confirms, else the adjugate.

    Over a commutative ring a one-sided inverse is the inverse, so the
    check is a proof.  An integer matrix is its own first candidate.
    """
    identity = SquareMatrix.identity(g.dim)
    mirrored = g.map_entries(_mirror)
    if g * mirrored == identity:
        return mirrored
    opposite = identity * 2 - g  # built only when g(u^-1) fails: it costs as much as the check
    if g * opposite == identity:
        return opposite
    return matrix_inverse(g)


def _mirror(entry):
    """entry(u^-1): every exponent negated."""
    if isinstance(entry, LaurentPoly):
        return LaurentPoly({-e: c for e, c in entry.items()})
    return entry


def _terms(entry) -> tuple:
    """(exponent, coefficient) pairs of a Laurent or integer entry."""
    if isinstance(entry, LaurentPoly):
        return tuple(entry.items())
    return ((0, entry),) if entry else ()


def sign_twist(generators: tuple) -> tuple[int, tuple[int, ...]] | None:
    """(parity, signs) with g(-u) = parity * S g(u) S for every generator g, else None.

    S = diag(signs).  In eta * u^a * (I + u^m * e_i) every entry has one
    parity in u: the diagonal ones that of a, the others that of a + m.
    So u -> -u is conjugation by S, the Temperley-Lieb sign symmetry
    e_i -> -e_i, with parity (-1)^a.  The signs 2-colour the off-diagonal
    support (s_i * s_j = parity * (-1)^e, s_i = +1 first in each
    component), and the result is verified on every term c * u^e of
    every entry; an entry mixing parities, or a failed colouring, gives
    None.  A word then satisfies w(-u) = parity^(exponent sum) * S w(u) S.
    """
    dim = generators[0].dim
    parities = [
        (i, j, {-1 if e % 2 else 1 for e, _ in _terms(g.entries[i][j])})
        for g in generators for i in range(dim) for j in range(dim)
    ]
    parities = [(i, j, p) for i, j, p in parities if p]
    for parity in (1, -1):
        neighbours = [[] for _ in range(dim)]
        for i, j, p in parities:
            if i != j:
                neighbours[i].append((j, parity * min(p)))
                neighbours[j].append((i, parity * min(p)))
        signs = [0] * dim
        for root in range(dim):
            if signs[root]:
                continue
            signs[root] = 1
            stack = [root]
            while stack:
                i = stack.pop()
                for j, q in neighbours[i]:
                    if not signs[j]:
                        signs[j] = q * signs[i]
                        stack.append(j)
        if all(p == {parity * signs[i] * signs[j]} for i, j, p in parities):
            return parity, tuple(signs)
    return None
