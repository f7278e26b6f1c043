"""Reference code and accessors the tests share; jetk itself needs none of it."""

from fractions import Fraction

from jetk.exact_arith import LaurentPoly, TruncPoly, binom
from jetk.p1lab import LaurentMatrix


class NotInvertibleError(ArithmeticError):
    """Raised when a series inverse does not exist over the integers."""


def power(p: TruncPoly, n: int) -> TruncPoly:
    """p^n for n >= 0 by repeated multiplication."""
    out = TruncPoly.one(p.modulus_exponent)
    for _ in range(n):
        out = out * p
    return out


def inverse(p: TruncPoly) -> TruncPoly:
    """Multiplicative inverse by series recursion.

    Exists over Z exactly when the constant coefficient is +1 or -1.
    """
    c0 = p.coeffs[0]
    if c0 not in (1, -1):
        raise NotInvertibleError(f"constant term {c0} is not a unit of the integers")
    m = p.modulus_exponent
    inv = [0] * m
    inv[0] = c0
    for n in range(1, m):
        acc = sum(p.coeffs[i] * inv[n - i] for i in range(1, n + 1))
        inv[n] = -c0 * acc
    return TruncPoly(m, inv)


def dense_product(p: TruncPoly, q: TruncPoly) -> TruncPoly:
    """p*q mod t^m by the schoolbook loop over every pair of coefficients."""
    m = p.modulus_exponent
    out = [0] * m
    for i in range(m):
        for j in range(m - i):
            out[i + j] += p.coeffs[i] * q.coeffs[j]
    return TruncPoly(m, out)


def degree(s) -> int:
    """The degree of a sum of twists: sum of d * m_d over its terms m_d O(d)."""
    return sum(d * m for d, m in s.items())


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


def section_count(splitting) -> int:
    """h^0 of the split bundle with these degrees: sum of max(0, d+1)."""
    return sum(max(0, d + 1) for d in splitting.degrees)


def diagonal(exponents) -> LaurentMatrix:
    """The diagonal matrix diag(u^e) of these exponents."""
    exponents = list(exponents)
    return LaurentMatrix([[LaurentPoly.monomial(e) if i == j else 0 for j in range(len(exponents))]
                          for i, e in enumerate(exponents)])


def step_values(report, fragment: str) -> dict:
    """Values of the first step whose description contains fragment."""
    for step in report.steps:
        if fragment in step.description:
            return step.values
    raise KeyError(f"no step matching {fragment!r}")


def rref(rows, ncols):
    """In-place reduced row echelon form over Fraction; returns pivot columns."""
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return pivots
