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
prod_d (1 + s O(d))^(m_d).  The series counts its own work as it runs, in
units of MAX_WORK spent from a ``Budget``, and stops with a ValueError once
that is spent; ``sum_to_class`` charges all its work first.  Each takes a
fresh budget by default; ``sheafdsl.evaluate`` passes one to all its steps.
``sym_omega`` instead runs the recursion

    sum_{i<=k} [Sym^i Omega^1] = binom(N+k, N) * [O(-k)]

induced by the Euler sequence 0 -> Omega^1 -> O(-1)^(N+1) -> O -> 0.  It
shares no code with the series and no answer comes from it: it is the
reference ``jetcalc.verify_ktheory_equality`` checks the series against.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact_arith import LaurentPoly, TruncPoly, binom

# Most work one evaluation, matrix or jet table may do, in units of about one
# loop step on small ints: a series level pair or ratio step, a sum_to_class
# ratio step, a new term.  A product added into a sum costs PRODUCT_WORK in a
# series, a pair of terms of a tensor product PAIR_WORK (0.19-0.24 us a pair
# against 0.10-0.17 us a series unit), and any product of an a-bit and a b-bit
# int product_work(a, b) more.  Fitted on 34 series shapes on a
# 2-vCPU machine (Python 3.11), a unit took 0.04-0.14 us in a series, up to
# 0.2 us in sum_to_class: a budget is a second or two.
MAX_WORK = 10**7
MUL_BITS, PRODUCT_WORK, PAIR_WORK = 10**5, 2, 1.5


def product_work(a_bits: int, b_bits: int, times: int = 1) -> int:
    """The units a product of an a-bit and a b-bit int adds to its loop step,
    for `times` such products: their total is floored once, so many small
    products charge their sum rather than 0 each."""
    return (a_bits + 100) * (b_bits + 100) * times // MUL_BITS


class Budget:
    """The work one evaluation has spent, against MAX_WORK, and the name of
    the step that is running."""

    __slots__ = ("spent", "step")

    def __init__(self, step: str = "") -> None:
        self.spent, self.step = 0, step

    def spend(self, units: int, step: str | None = None) -> None:
        """Count units of work.  A named step is charged its whole estimated
        cost at once; units without a name belong to the running self.step,
        which is charged as it goes.  Past MAX_WORK a ValueError names the
        step and gives the total as its need, or for a running step as a
        lower bound."""
        self.spent += units
        if self.spent > MAX_WORK:
            need = f"about {self.spent}" if step else f"at least {self.spent}"
            raise ValueError(f"{step or self.step} needs {need} coefficient operations, "
                             f"over the budget of {MAX_WORK}")


def binom_bits(n: int, k: int) -> int:
    """At least log2 binom(n + k, k) for n, k >= 0, as binom(a, m) <= (e a/m)^m."""
    m = min(n, k)
    return math.ceil(m * (math.log2(n + k) - math.log2(m) + 1.45)) if m else 0


def extent(s: LaurentPoly) -> tuple:
    """Term count, largest |multiplicity|, lowest and highest twist of a sum."""
    sizes = [abs(c) for _, c in s.items()]
    return len(sizes), max(sizes, default=0), s.min_degree or 0, s.max_degree or 0


def class_of_twist(N: int, d: int) -> TruncPoly:
    """The class of O(d) in K(P^N)."""
    return sum_to_class(LaurentPoly.monomial(d), N)


def sum_to_class(s: LaurentPoly, N: int, budget: Budget | None = None) -> TruncPoly:
    """The class in K(P^N) of a sum of twists; additive and multiplicative.

    m O(d) adds c_i = m * binom(d+i-1, i) to the coefficient of t^i, by the
    ratio c_i = c_{i-1} * (d+i-1) / i, which reaches 0 and stays there
    exactly when d <= 0: N steps, or 1 - d if fewer, by factors up to
    |d| + N on multiples of binom(|d| + N, N).  They, or the N + 1
    coefficients when those are more, are charged to `budget`, a fresh one
    by default, before the first runs, so no N is too large to be refused."""
    if N < 1:
        raise ValueError("N must be positive")
    n, big, lo, hi = extent(s)
    top = max(-lo, hi)
    bits = big.bit_length() + binom_bits(top, N)
    steps = n * (N if hi > 0 else min(N, 1 - lo))
    work = 2 * n + steps + product_work(bits, (top + N).bit_length(), steps)
    work = max(work, 2 * n + N + 1)  # a step fills one coefficient; all N + 1 are built
    (budget or Budget()).spend(work, f"the class on P^{N} of a twist sum of length {n}")
    coeffs = [0] * (N + 1)
    for d, c in s.items():
        coeffs[0] += c
        for i in range(1, N + 1):
            c = c * (d + i - 1) // i
            if not c:
                break
            coeffs[i] += c
    return TruncPoly(N + 1, coeffs)


def _series_coefficient(s: LaurentPoly, k: int, sign: int, budget: Budget) -> LaurentPoly:
    """The s^k coefficient of prod_d (1 + sign*s*O(d))^(sign*m_d), whose
    factors expand to sum_r sign^r * binom(sign*m_d, r) * s^r O(r*d).

    A factor's terms vanish past r = |m_d| when sign*m_d > 0, and `series`
    holds only the levels the factors so far reach, so each twist steps
    through the pairs (j - r, r) of a held level and a nonzero term alone.
    The work is spent from `budget` as the loops run: a twist's ratio steps
    before its factor is built, a level's pairs and products before it is
    computed, and a twist's new terms once its levels are built."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    series, held = [{0: 1}], 0
    for d, m in s.items():
        rmax = min(abs(m), k) if sign * m > 0 else k
        bits = binom_bits(abs(m) - 1, k)  # a factor coefficient is at most binom(|m|+k-1, k)
        budget.spend(rmax * (1 + product_work(bits, abs(m).bit_length())))
        factor = [1]  # sign^r binom(sign*m, r), by the ratio of consecutive terms
        for r in range(1, rmax + 1):
            factor.append(factor[-1] * (m - sign * (r - 1)) // r)
        # a held coefficient is at most binom(R+k, k), R the |multiplicity| so far
        held_bits, top, held = binom_bits(held, k), len(series) - 1, held + abs(m)
        product = []
        for j in range(min(top + rmax, k) + 1):
            lo, hi = max(0, j - top), min(j, rmax)
            read = sum(map(len, series[j - hi:j - lo + 1]))  # the levels the pairs read
            budget.spend(hi - lo + 1 + read * PRODUCT_WORK + product_work(bits, held_bits, read))
            out = {}
            for r in range(lo, hi + 1):
                for e, n in series[j - r].items():
                    out[e + r * d] = out.get(e + r * d, 0) + factor[r] * n
            product.append(out)
        budget.spend(sum(map(len, product)))
        series = product
    return LaurentPoly(series[k] if k < len(series) else None)


def sym_power(s: LaurentPoly, k: int, budget: Budget | None = None) -> LaurentPoly:
    """Sym^k of any sum: the s^k coefficient of prod_d (1 - s O(d))^(-m_d).
    Its work is spent from `budget`, a fresh one by default."""
    return _series_coefficient(s, k, -1, budget or Budget(f"Sym{k}"))


def wedge_power(s: LaurentPoly, k: int, budget: Budget | None = None) -> LaurentPoly:
    """Wedge^k of any sum: the s^k coefficient of prod_d (1 + s O(d))^(m_d).
    Its work is spent from `budget`, a fresh one by default."""
    return _series_coefficient(s, k, 1, budget or Budget(f"Wedge{k}"))


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
