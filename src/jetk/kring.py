"""Grothendieck ring of projective space P^N in exact coordinates.

A class is a ``TruncPoly`` with modulus N+1: its coefficients are the
coordinates in the basis {1, t, ..., t^N} of Z[t]/t^(N+1), where
t = 1 - [O(-1)].  For every integer d

    [O(d)] = sum_i binom(d+i-1, i) t^i,    i = 0..N,

with generalized binomials; for d <= 0 this is (1-t)^(-d).  On P^1 the
coordinates of a class are (rank, degree) in the basis {1, t}.

Sym^k and Wedge^k of any sum of twists m_d O(d), virtual ones included, are
the s^k coefficients of prod_d (1 - s O(d))^(-m_d) and prod_d (1 + s O(d))^(m_d).
``sym_omega`` instead runs the recursion

    sum_{i<=k} [Sym^i Omega^1] = binom(N+k, N) * [O(-k)]

induced by the Euler sequence 0 -> Omega^1 -> O(-1)^(N+1) -> O -> 0.  It
shares no code with the series, so each checks the other.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_arith import Record, TruncPoly, binom


class LineBundleSum(Record):
    """Formal integer combination of twists O(d) on P^N.

    Multiplicities may be negative (virtual classes); zero multiplicities
    are never stored.
    """

    __slots__ = ("ambient_dim", "_terms")

    def __init__(self, ambient_dim: int, terms=None) -> None:
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        clean = {}
        if terms:
            for d, mult in terms.items():
                if mult != 0:
                    clean[int(d)] = int(mult)
        super().__init__(ambient_dim, clean)

    @classmethod
    def line(cls, ambient_dim: int, d: int, mult: int = 1) -> "LineBundleSum":
        return cls(ambient_dim, {d: mult})

    @property
    def rank(self) -> int:
        return sum(self._terms.values())

    @property
    def degree(self) -> int:
        return sum(d * m for d, m in self._terms.items())

    def __add__(self, other):
        if not isinstance(other, LineBundleSum):
            return NotImplemented
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        out = dict(self._terms)
        for d, m in other._terms.items():
            out[d] = out.get(d, 0) + m
        return LineBundleSum(self.ambient_dim, out)

    def tensor(self, other: "LineBundleSum") -> "LineBundleSum":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        out = {}
        for d1, m1 in self._terms.items():
            for d2, m2 in other._terms.items():
                d = d1 + d2
                out[d] = out.get(d, 0) + m1 * m2
        return LineBundleSum(self.ambient_dim, out)

    def dual(self) -> "LineBundleSum":
        return LineBundleSum(self.ambient_dim, {-d: m for d, m in self._terms.items()})

    def __hash__(self):  # Record's would hash the dict of terms
        return hash((self.ambient_dim, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for d in sorted(self._terms, reverse=True):
            m = self._terms[d]
            parts.append(f"O({d})" if m == 1 else f"O({d})^{m}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LineBundleSum(N={self.ambient_dim}, {self._terms})"


def class_of_twist(N: int, d: int) -> TruncPoly:
    """The class of O(d) in K(P^N)."""
    return sum_to_class(LineBundleSum.line(N, d))


def sum_to_class(s: LineBundleSum) -> TruncPoly:
    """Evaluate a sum of twists to its class; additive and multiplicative.

    m O(d) adds c_i = m * binom(d+i-1, i) to the coefficient of t^i, by the
    ratio c_i = c_{i-1} * (d+i-1) / i, which reaches 0 and stays there
    exactly when d <= 0.
    """
    N = s.ambient_dim
    coeffs = [0] * (N + 1)
    for d, c in s._terms.items():
        coeffs[0] += c
        for i in range(1, N + 1):
            c = c * (d + i - 1) // i
            if not c:
                break
            coeffs[i] += c
    return TruncPoly(N + 1, coeffs)


def _series_coefficient(s: LineBundleSum, k: int, sign: int) -> LineBundleSum:
    """The s^k coefficient of prod_d (1 + sign*s*O(d))^(sign*m_d), whose
    factors expand to sum_r sign^r * binom(sign*m_d, r) * s^r O(r*d)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    series = [{0: 1}] + [{}] * k
    for d, m in s._terms.items():
        factor = [sign**r * binom(sign * m, r) for r in range(k + 1)]
        product = []
        for j in range(k + 1):
            out = {}
            for r in range(j + 1):
                if factor[r]:
                    for e, n in series[j - r].items():
                        out[e + r * d] = out.get(e + r * d, 0) + factor[r] * n
            product.append(out)
        series = product
    return LineBundleSum(s.ambient_dim, series[k])


def sym_power(s: LineBundleSum, k: int) -> LineBundleSum:
    """Sym^k of any sum: the s^k coefficient of prod_d (1 - s O(d))^(-m_d)."""
    return _series_coefficient(s, k, -1)


def wedge_power(s: LineBundleSum, k: int) -> LineBundleSum:
    """Wedge^k of any sum: the s^k coefficient of prod_d (1 + s O(d))^(m_d)."""
    return _series_coefficient(s, k, 1)


@lru_cache(maxsize=None)
def sym_omega(N: int, k: int) -> TruncPoly:
    """The class of Sym^k Omega^1 on P^N via the Euler-sequence recursion."""
    if N < 1:
        raise ValueError("N must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return TruncPoly.one(N + 1)
    total = binom(N + k, N) * class_of_twist(N, -k)
    for i in range(k):
        total = total - sym_omega(N, i)
    return total


def cohomology_dim(N: int, d: int, i: int) -> int:
    """dim H^i(P^N, O(d)).

    Nonzero only in degrees 0 and N: h^0 = binom(N+d, N) for d >= 0 and
    h^N = binom(-d-1, N) for -d-1 >= N.  Total on all inputs.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if i < 0:
        raise ValueError("i must be nonnegative")
    if i == 0:
        return binom(N + d, N) if d >= 0 else 0
    if i == N:
        return binom(-d - 1, N) if -d - 1 >= N else 0
    return 0
