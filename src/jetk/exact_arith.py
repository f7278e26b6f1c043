"""Exact integer and rational arithmetic primitives.

Two polynomial representations are used throughout the package:

* ``TruncPoly`` -- an element of Z[t]/t^M, stored as a dense tuple of M
  arbitrary-precision integers (coefficient of t^i at index i).  Trailing
  zeros are stored, never trimmed, so the modulus is always recoverable
  from the length.

* ``LaurentPoly`` -- a one-variable Laurent polynomial with exact ``int``
  or ``Fraction`` coefficients, each kept as given, stored sparsely as a
  map {exponent: coefficient}.  Zero coefficients are never stored; the
  zero polynomial is the empty map.  It also represents a sum of twists
  sum_d m_d O(d) as sum_d m_d x^d with x = [O(1)]: '+' is direct sum,
  '*' is tensor product and ``dual`` substitutes 1/x for x.

The text format for Laurent polynomials is a sum of terms ``c*u^e`` with
integer ``c``, read as an ``int``, or rational ``c`` written ``p/q``, read as
a ``Fraction``, e.g. ``3*u^-2 + 1 - 1/2*u^3``.  Whitespace is insignificant.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction


class Record:
    """Immutable value with positional fields named by ``__slots__``, equal
    only to a record of the same class with equal fields.  A subclass's
    ``__init__`` takes its fields in slot order; unpickling calls it so."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} expects fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k! for any integer n.

    k must be nonnegative.  For n >= 0 this is the usual binomial
    coefficient (zero when n < k); for n < 0 it is the falling-factorial
    extension, e.g. binom(-2, 3) = (-2)(-3)(-4)/3! = -4.
    """
    if k < 0:
        raise ValueError(f"binom: k must be nonnegative, got {k}")
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def _coerced(op):
    """op with its right operand made a polynomial by the class's _coerce."""
    @functools.wraps(op)
    def coerced(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return coerced


class TruncPoly(Record):
    """Element of Z[t]/t^modulus_exponent with dense integer coefficients."""

    __slots__ = ("modulus_exponent", "coeffs")

    def __init__(self, modulus_exponent: int, coeffs=()) -> None:
        if modulus_exponent < 1:
            raise ValueError("modulus_exponent must be positive")
        coeffs = tuple(operator.index(c) for c in coeffs)
        if len(coeffs) > modulus_exponent:
            raise ValueError(
                f"got {len(coeffs)} coefficients for modulus t^{modulus_exponent}"
            )
        coeffs = coeffs + (0,) * (modulus_exponent - len(coeffs))
        object.__setattr__(self, "modulus_exponent", modulus_exponent)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, modulus_exponent: int) -> "TruncPoly":
        return cls(modulus_exponent)

    @classmethod
    def one(cls, modulus_exponent: int) -> "TruncPoly":
        return cls(modulus_exponent, (1,))

    def _coerce(self, other) -> "TruncPoly":
        if isinstance(other, TruncPoly):
            if other.modulus_exponent != self.modulus_exponent:
                raise ValueError(
                    f"modulus mismatch: t^{self.modulus_exponent} vs "
                    f"t^{other.modulus_exponent}"
                )
            return other
        if isinstance(other, int):
            return TruncPoly(self.modulus_exponent, (other,))
        return NotImplemented

    @_coerced
    def __add__(self, other):
        return TruncPoly(
            self.modulus_exponent,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.modulus_exponent, tuple(-a for a in self.coeffs))

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __mul__(self, other):
        m = self.modulus_exponent
        out = [0] * m
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]  # one term for an int scale
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    if i + j >= m:
                        break
                    out[i + j] += a * b
        return TruncPoly(m, out)

    __rmul__ = __mul__

    def __str__(self):
        return _render(enumerate(self.coeffs), "t", "")

    def __repr__(self):
        return f"TruncPoly({self.modulus_exponent}, {self.coeffs})"


def _render(terms, var: str, times: str) -> str:
    """A sum of (exponent, coefficient) terms in the given order, zeros
    skipped, e.g. '1 + 5t' (times '') or '3*u^-2 - 1/2*u^3' (times '*')."""
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}{times}{power}"
        if parts:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) if parts else "0"


class LaurentPoly(Record):
    """Laurent polynomial in one variable u with int or Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None) -> None:
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
                if c != 0:
                    clean[operator.index(e)] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, exponent: int, coefficient=1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    def coefficient(self, exponent: int):
        return self._coeffs.get(exponent, 0)

    def items(self):
        """A read-only view of the (exponent, coefficient) terms."""
        return self._coeffs.items()

    @property
    def rank(self):
        """The sum of the coefficients: the rank of a sum of twists."""
        return sum(self._coeffs.values())

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_degree(self):
        """Smallest exponent with nonzero coefficient; None for zero."""
        return min(self._coeffs) if self._coeffs else None

    @property
    def max_degree(self):
        """Largest exponent with nonzero coefficient; None for zero."""
        return max(self._coeffs) if self._coeffs else None

    def is_monomial(self) -> bool:
        return len(self._coeffs) == 1

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other})
        return NotImplemented

    @_coerced
    def __add__(self, other):
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __mul__(self, other):
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by u^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def dual(self) -> "LaurentPoly":
        """The polynomial p(1/u); for a sum of twists, its dual."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d/du."""
        return LaurentPoly({e - 1: c * e for e, c in self._coeffs.items() if e != 0})

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __str__(self):
        return _render(sorted(self._coeffs.items()), "u", "*")

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))})"


_TERM_RE = re.compile(  # ASCII digits only: int() would also read '٣' as 3
    r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?P<var>u(?:\^(?P<exp>-?\d+))?)?$", re.ASCII
)


def laurent_from_string(text: str) -> LaurentPoly:
    """Parse the Laurent text format, e.g. '3*u^-2 + 1 - 1/2*u^3'."""
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise ValueError("empty Laurent polynomial text")
    # Split into sign-prefixed terms.  A '-' directly after '^' is an
    # exponent sign, not a term separator.  A leading '+' is permitted;
    # the split leaves an empty piece before the first sign.
    if compact[0] not in "+-":
        compact = "+" + compact
    result = {}
    for term in re.split(r"(?<!\^)(?=[+-])", compact)[1:]:
        sign = -1 if term[0] == "-" else 1
        m = _TERM_RE.match(term[1:])
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"malformed term {term!r} in {text!r}")
        coeff = m.group("coeff") or "1"
        try:
            coeff = Fraction(coeff) if "/" in coeff else int(coeff)
            exp = int(m.group("exp") or 1) if m.group("var") else 0
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {term!r} of {text!r}") from None
        except ValueError:  # more digits than int() converts
            digits = max(len(d) for d in re.findall(r"\d+", term))
            raise ValueError(f"a number of {digits} digits is too long") from None
        result[exp] = result.get(exp, 0) + sign * coeff
    return LaurentPoly(result)
