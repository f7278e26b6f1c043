"""Grothendieck ring of projective space P^N in exact coordinates.

A class is a ``TruncPoly`` with modulus N+1: its coefficients are the
coordinates in the basis {1, t, ..., t^N} of Z[t]/t^(N+1), where
t = 1 - [O(-1)].  For every integer d

    [O(d)] = sum_i binom(d+i-1, i) t^i,    i = 0..N,

with generalized binomials; for d <= 0 this is (1-t)^(-d).  On P^1 the
coordinates of a class are (rank, degree) in the basis {1, t}.

A sum of twists sum_d m_d O(d), virtual ones included, is the Laurent
polynomial sum_d m_d x^d in x = [O(1)], a ``LaurentPoly`` with int
coefficients; ``sum_to_class`` maps it to its class.  Sym^k and Wedge^k of
such a sum are the s^k coefficients of prod_d (1 - s O(d))^(-m_d) and
prod_d (1 + s O(d))^(m_d).
``sym_omega`` instead runs the recursion

    sum_{i<=k} [Sym^i Omega^1] = binom(N+k, N) * [O(-k)]

induced by the Euler sequence 0 -> Omega^1 -> O(-1)^(N+1) -> O -> 0.  It
shares no code with the series and no answer comes from it: it is the
reference ``jetcalc.verify_ktheory_equality`` checks the series against.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_arith import LaurentPoly, TruncPoly, binom


def class_of_twist(N: int, d: int) -> TruncPoly:
    """The class of O(d) in K(P^N)."""
    return sum_to_class(LaurentPoly.monomial(d), N)


def sum_to_class(s: LaurentPoly, N: int) -> TruncPoly:
    """The class in K(P^N) of a sum of twists; additive and multiplicative.

    m O(d) adds c_i = m * binom(d+i-1, i) to the coefficient of t^i, by the
    ratio c_i = c_{i-1} * (d+i-1) / i, which reaches 0 and stays there
    exactly when d <= 0.
    """
    if N < 1:
        raise ValueError("N must be positive")
    coeffs = [0] * (N + 1)
    for d, c in s.items():
        coeffs[0] += c
        for i in range(1, N + 1):
            c = c * (d + i - 1) // i
            if not c:
                break
            coeffs[i] += c
    return TruncPoly(N + 1, coeffs)


def _series_coefficient(s: LaurentPoly, k: int, sign: int) -> LaurentPoly:
    """The s^k coefficient of prod_d (1 + sign*s*O(d))^(sign*m_d), whose
    factors expand to sum_r sign^r * binom(sign*m_d, r) * s^r O(r*d).

    A factor's terms vanish past r = |m_d| when sign*m_d > 0, and `series`
    holds only the levels the factors so far reach, so each twist steps
    through the pairs (j - r, r) of a held level and a nonzero term alone."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    series = [{0: 1}]
    for d, m in s.items():
        rmax = min(abs(m), k) if sign * m > 0 else k
        factor = [1]  # sign^r binom(sign*m, r), by the ratio of consecutive terms
        for r in range(1, rmax + 1):
            factor.append(factor[-1] * (m - sign * (r - 1)) // r)
        product = []
        for j in range(min(len(series) - 1 + rmax, k) + 1):
            out = {}
            for r in range(max(0, j - len(series) + 1), min(j, rmax) + 1):
                for e, n in series[j - r].items():
                    out[e + r * d] = out.get(e + r * d, 0) + factor[r] * n
            product.append(out)
        series = product
    return LaurentPoly(series[k] if k < len(series) else None)


def sym_power(s: LaurentPoly, k: int) -> LaurentPoly:
    """Sym^k of any sum: the s^k coefficient of prod_d (1 - s O(d))^(-m_d)."""
    return _series_coefficient(s, k, -1)


def wedge_power(s: LaurentPoly, k: int) -> LaurentPoly:
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
