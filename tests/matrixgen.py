"""Random transition matrices and unimodular factors for splitting tests,
and the matrix products that build them."""

from fractions import Fraction

from jetk.exact_arith import LaurentPoly
from jetk.p1lab import LaurentMatrix

from helpers import diagonal


def random_poly(rng, var_sign, max_deg=3):
    """Random polynomial in u (var_sign=+1) or in 1/u (var_sign=-1)."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = var_sign * rng.randint(0, max_deg)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        terms[e] = terms.get(e, Fraction(0)) + c
    return LaurentPoly(terms)


def identity(size):
    return diagonal([0] * size)


def matmul(*factors):
    """The product of square matrices of one size, left to right."""
    out = factors[0]
    n = out.size
    for f in factors[1:]:
        if f.size != n:
            raise ValueError("size mismatch")
        a, b = out.rows(), f.rows()
        out = LaurentMatrix(
            [
                [
                    sum((a[i][k] * b[k][j] for k in range(n)), LaurentPoly.zero())
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
    return out


def random_unimodular(rng, size, var_sign, max_factors=5):
    """Product of at most max_factors elementary matrices over the chosen ring."""
    m = identity(size)
    for _ in range(rng.randint(1, max_factors)):
        kind = rng.choice(["add", "swap", "scale"])
        rows = [
            [
                LaurentPoly.monomial(0) if i == j else LaurentPoly.zero()
                for j in range(size)
            ]
            for i in range(size)
        ]
        if kind == "add":
            i, j = rng.sample(range(size), 2)
            rows[i][j] = random_poly(rng, var_sign)
        elif kind == "swap":
            i, j = rng.sample(range(size), 2)
            rows[i][i] = rows[j][j] = LaurentPoly.zero()
            rows[i][j] = rows[j][i] = LaurentPoly.monomial(0)
        else:
            i = rng.randrange(size)
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            rows[i][i] = LaurentPoly({0: c})
        m = matmul(m, LaurentMatrix(rows))
    return m
