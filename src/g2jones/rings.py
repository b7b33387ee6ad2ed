"""Exact coefficient rings.

Two rings cover everything the package computes with:

* :class:`LaurentPoly` -- Z[u, u^-1], stored sparsely as a map from
  exponent to integer coefficient.
* :class:`TruncSeries` -- Q[[h]]/(h^(N+1)), stored densely as a tuple of
  ``Fraction`` coefficients h^0 .. h^N.

Both are immutable, support mixed arithmetic with plain ints (series
also with ``Fraction``), and compare equal to scalars when they are
constant.  The bridge between them is :func:`laurent_to_series`, which
substitutes u = eps * e^h and truncates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping


def power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply: bit_length(n) - 1 squarings,
    popcount(n) - 1 products by ``base``, and ``one`` returned for n = 0 only."""
    if n == 0:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class LaurentPoly:
    """Laurent polynomial in one variable with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    clean[exp] = c
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        return cls({1: 1})

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate (exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._coeffs.items()))

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_unit(self) -> bool:
        """True when the polynomial is +/- a single power of the variable."""
        if len(self._coeffs) != 1:
            return False
        (c,) = self._coeffs.values()
        return c in (1, -1)

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ValueError(f"not a unit: {self}")
        ((e, c),) = self._coeffs.items()
        return LaurentPoly({-e: c})

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in rhs._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = {e: -c for e, c in self._coeffs.items()}
        return result

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._coeffs, rhs._coeffs
        if len(a) > len(b):
            a, b = b, a
        result = LaurentPoly.__new__(LaurentPoly)
        if len(a) == 1:
            # a monomial shifts exponents and scales; no coefficient can cancel
            ((ea, ca),) = a.items()
            result._coeffs = {ea + eb: ca * cb for eb, cb in b.items()}
            return result
        out: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        result._coeffs = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, n, LaurentPoly.one())

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):  # a constant hashes as the int it equals
        coeffs = self._coeffs
        return hash(coeffs.get(0, 0)) if coeffs.keys() <= {0} else hash(frozenset(coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def evaluate_at_sign(self, eps: int) -> int:
        """Evaluate at u = eps for eps in {+1, -1}; stays an integer."""
        if eps == 1:
            return sum(self._coeffs.values())
        if eps == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self._coeffs.items())
        raise ValueError("eps must be +1 or -1")

    def evaluate(self, value) -> Fraction:
        """Evaluate at a nonzero rational point."""
        x = Fraction(value)
        if x == 0:
            raise ValueError("Laurent polynomials cannot be evaluated at 0")
        return sum((c * x**e for e, c in self._coeffs.items()), Fraction(0))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                term = str(c)
            else:
                var = "u" if e == 1 else f"u^{e}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"


class TruncSeries:
    """Truncated power series over Q: coefficients of h^0 .. h^order.

    Arithmetic between two series requires equal orders; there is no
    implicit truncation, so the order is part of the value's identity.
    Scalars (int, Fraction) mix freely.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs=()):
        if not isinstance(order, int) or order < 1:
            raise ValueError("series order must be an integer >= 1")
        vec = [Fraction(0)] * (order + 1)
        for j, c in enumerate(coeffs):
            if j > order:
                break
            vec[j] = c if isinstance(c, Fraction) else Fraction(c)
        self._order = order
        self._coeffs = tuple(vec)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, (1,))

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        return cls(order, (value,))

    @property
    def order(self) -> int:
        return self._order

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, j: int) -> Fraction:
        if not 0 <= j <= self._order:
            raise IndexError(f"coefficient index {j} outside 0..{self._order}")
        return self._coeffs[j]

    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        for j, c in enumerate(self._coeffs):
            if c != 0:
                return j
        return None

    def truncate(self, new_order: int) -> "TruncSeries":
        if not 1 <= new_order <= self._order:
            raise ValueError(f"cannot truncate order {self._order} to {new_order}")
        return TruncSeries(new_order, self._coeffs[: new_order + 1])

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other._order != self._order:
                raise ValueError(
                    f"series order mismatch: {self._order} vs {other._order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries.constant(other, self._order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return TruncSeries(
            self._order, tuple(a + b for a, b in zip(self._coeffs, rhs._coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self._order, tuple(-a for a in self._coeffs))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self._order, tuple(c * other for c in self._coeffs))
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = self._order
        a, b = self._coeffs, rhs._coeffs
        out = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, n, TruncSeries.one(self._order))

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self._order == other._order and self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs[0] == other and all(
                c == 0 for c in self._coeffs[1:]
            )
        return NotImplemented

    def __hash__(self):  # a constant hashes as the scalar it equals
        coeffs = self._coeffs
        return hash((self._order, coeffs)) if any(coeffs[1:]) else hash(coeffs[0])

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*h" if abs(c) != 1 else ("h" if c > 0 else "-h"))
            else:
                parts.append(f"{c}*h^{j}" if abs(c) != 1 else
                             (f"h^{j}" if c > 0 else f"-h^{j}"))
        if not parts:
            return f"0 (mod h^{self._order + 1})"
        return " + ".join(parts).replace("+ -", "- ") + f" (mod h^{self._order + 1})"

    def __repr__(self) -> str:
        return f"TruncSeries(order={self._order}, coeffs={self._coeffs!r})"


@lru_cache(maxsize=1024)
def exp_series(multiplier: int, order: int) -> TruncSeries:
    """The series of e^(m*h) truncated at the given order.

    Coefficient of h^j is m^j / j!, exact in Q.
    """
    coeffs = []
    term = Fraction(1)
    for j in range(order + 1):
        coeffs.append(term)
        term = term * multiplier / (j + 1)
    return TruncSeries(order, coeffs)


def laurent_to_series(poly: LaurentPoly | int, eps: int, order: int) -> TruncSeries:
    """Substitute u = eps * e^h into a Laurent polynomial and truncate.

    A monomial c*u^k becomes c * eps^k * e^(k*h); substitution is a ring
    homomorphism for each fixed eps in {+1, -1}.  Plain ints are treated
    as constants.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not isinstance(order, int) or order < 1:
        raise ValueError("order must be an integer >= 1")
    if isinstance(poly, int):
        poly = LaurentPoly({0: poly})
    total = [Fraction(0)] * (order + 1)
    for e, c in poly.items():
        signed = c if (eps == 1 or e % 2 == 0) else -c
        expo = exp_series(e, order).coefficients
        for j in range(order + 1):
            if expo[j]:
                total[j] += signed * expo[j]
    return TruncSeries(order, total)
