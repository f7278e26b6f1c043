"""Tests for binomials, truncated series, and Laurent polynomials."""

import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetk.exact_arith import LaurentPoly, TruncPoly, binom, laurent_from_string

from helpers import NotInvertibleError, dense_product, inverse, power


def test_binom_small_factorial_case():
    assert binom(5, 2) == 10


def test_binom_empty_product():
    for d in range(-9, 10):
        assert binom(d, 0) == 1


def test_binom_falling_factorial_negative():
    # (-2)(-3)(-4)/3! = -4
    assert binom(-2, 3) == -4
    for n in range(-8, 0):
        for k in range(0, 6):
            product = 1
            for i in range(k):
                product *= n - i
            assert binom(n, k) * math.factorial(k) == product


def test_binom_vanishes_between_zero_and_k():
    for k in range(1, 8):
        for n in range(0, k):
            assert binom(n, k) == 0


def test_binom_matches_comb_for_nonnegative():
    for n in range(0, 12):
        for k in range(0, 12):
            assert binom(n, k) == math.comb(n, k)


def test_binom_pascal_rule():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(-30, 30)
        k = rng.randint(1, 10)
        assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


def test_binom_rejects_negative_k():
    with pytest.raises(ValueError):
        binom(4, -1)


def test_trunc_telescoping_product():
    assert TruncPoly(3, (1, -1)) * TruncPoly(3, (1, 1, 1)) == TruncPoly.one(3)


def test_trunc_multiplicative_identity():
    rng = random.Random(11)
    for _ in range(20):
        a = TruncPoly(5, [rng.randint(-9, 9) for _ in range(5)])
        assert a * TruncPoly.one(5) == a


def test_trunc_binomial_square():
    assert power(TruncPoly(3, (1, 1)), 2) == TruncPoly(3, (1, 2, 1))


def test_trunc_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncPoly(3, (1,)) * TruncPoly(4, (1,))


def test_trunc_stores_trailing_zeros():
    a = TruncPoly(4, (1,))
    assert a.coeffs == (1, 0, 0, 0)
    assert len(a.coeffs) == a.modulus_exponent


def test_trunc_ring_axioms_randomized():
    rng = random.Random(2026)
    for _ in range(60):
        m = rng.randint(2, 7)
        a, b, c = (
            TruncPoly(m, [rng.randint(-9, 9) for _ in range(m)]) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _classes(m):
    """Classes mod t^m from sparse to dense: up to m nonzero coefficients."""
    terms = st.dictionaries(st.integers(0, m - 1),
                            st.integers(-9, 9) | st.integers(-10**40, 10**40), max_size=m)
    return terms.map(lambda d: TruncPoly(m, [d.get(i, 0) for i in range(m)]))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.data())
def test_trunc_product_matches_dense_oracle(data):
    m = data.draw(st.integers(1, 12))
    a, b = data.draw(_classes(m)), data.draw(_classes(m))
    c = data.draw(st.integers(-3, 3) | st.integers(-10**40, 10**40))
    assert a * b == dense_product(a, b) == b * a
    assert a * c == dense_product(a, TruncPoly(m, (c,))) == c * a


def test_trunc_product_costs_the_terms_of_both_sides():
    # a scale or a two-term class times a dense class of 2001 terms reads each
    # term once, as an addition does, not every pair of coefficients
    m = 2001
    dense, sparse = TruncPoly(m, [(-1) ** i * (i + 1) for i in range(m)]), TruncPoly(m, (1, -1))

    def best(f):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            f()
            times.append(time.perf_counter() - start)
        return min(times)

    add = best(lambda: dense + dense)
    for product in (lambda: dense * 7, lambda: 7 * dense, lambda: dense * sparse):
        assert best(product) < 40 * add


def _long_division_inverse(coeffs, modulus):
    """Grade-school long division of 1 by the given unit series."""
    remainder = [0] * modulus
    remainder[0] = 1
    quotient = [0] * modulus
    lead = coeffs[0]
    for n in range(modulus):
        q = remainder[n] * lead  # 1/lead == lead for lead = +-1
        quotient[n] = q
        for i in range(n, modulus):
            remainder[i] -= q * coeffs[i - n]
    return quotient


def test_inverse_geometric_series():
    assert inverse(TruncPoly(3, (1, -1))) == TruncPoly(3, (1, 1, 1))


def test_inverse_of_one():
    assert inverse(TruncPoly.one(6)) == TruncPoly.one(6)


def test_inverse_of_squared_geometric():
    # long-division oracle agrees with the frozen expansion sum binom(j+1, j) t^j
    square = power(TruncPoly(3, (1, -1)), 2)
    oracle = _long_division_inverse(list(square.coeffs), 3)
    assert oracle == [1, 2, 3]
    assert inverse(square) == TruncPoly(3, oracle)


def test_inverse_law_randomized():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(2, 8)
        coeffs = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(m - 1)]
        a = TruncPoly(m, coeffs)
        assert a * inverse(a) == TruncPoly.one(m)
        oracle = _long_division_inverse(coeffs, m)
        assert inverse(a) == TruncPoly(m, oracle)


def test_inverse_rejects_non_unit():
    with pytest.raises(NotInvertibleError):
        inverse(TruncPoly(3, (2, 1)))
    with pytest.raises(NotInvertibleError):
        inverse(TruncPoly(3, (0, 1)))


def u(e, c=1):
    return LaurentPoly.monomial(e, c)


def test_laurent_exponent_shift():
    assert (u(1) + u(-1)) * u(1) == u(2) + u(0)


def test_laurent_additive_identity():
    a = laurent_from_string("3*u^-2 + 1 - 1/2*u^3")
    assert a + LaurentPoly.zero() == a


def test_laurent_difference_of_squares():
    assert (u(0) - u(-1)) * (u(0) + u(-1)) == u(0) - u(-2)


def test_laurent_zero_pruned():
    assert (u(3) - u(3)).is_zero()
    assert LaurentPoly({5: 0}).is_zero()
    assert LaurentPoly.zero().min_degree is None
    # coefficients are kept as given, and only exact ones are accepted
    assert type(LaurentPoly({1: 2}).coefficient(1)) is int
    assert type(LaurentPoly({1: Fraction(2)}).coefficient(1)) is Fraction
    for bad in (0.1, 2.0, "1"):
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
        with pytest.raises(TypeError):
            LaurentPoly.monomial(3, bad)


def test_laurent_degree_bounds_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        a = LaurentPoly(
            {rng.randint(-6, 6): rng.randint(1, 5) for _ in range(rng.randint(1, 4))}
        )
        b = LaurentPoly(
            {rng.randint(-6, 6): rng.randint(1, 5) for _ in range(rng.randint(1, 4))}
        )
        ab = a * b
        assert ab.min_degree == a.min_degree + b.min_degree
        assert ab.max_degree == a.max_degree + b.max_degree


def test_laurent_derivative():
    p = laurent_from_string("u^3 + 2*u - 5 + u^-2")
    assert p.derivative() == laurent_from_string("3*u^2 + 2 - 2*u^-3")


def test_laurent_text_format_parses():
    p = laurent_from_string("3*u^-2 + 1 - 1/2*u^3")
    assert p == LaurentPoly({-2: 3, 0: 1, 3: Fraction(-1, 2)})


def test_laurent_text_whitespace_insignificant():
    assert laurent_from_string("3*u^-2+1-1/2*u^3") == laurent_from_string(
        " 3 * u^-2 + 1 - 1/2 * u^3 "
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.dictionaries(
        st.integers(-12, 12),
        st.integers(-10**6, 10**6) | st.fractions(max_denominator=30),
        max_size=6,
    )
)
def test_laurent_text_round_trip(coeffs):
    p = LaurentPoly(coeffs)
    parsed = laurent_from_string(str(p))
    assert parsed == p
    # an integral coefficient comes back as an int, any other as a Fraction
    for e, c in p.items():
        assert (type(parsed.coefficient(e)) is int) == (c.denominator == 1)


def test_laurent_text_rejects_malformed():
    for bad in ["", "u^", "3**u", "u + + u", "x^2", "u^2^3"]:
        with pytest.raises(ValueError):
            laurent_from_string(bad)


def test_laurent_text_names_a_zero_denominator():
    with pytest.raises(ValueError, match=r"zero denominator in term '\+3/0\*u\^2'"):
        laurent_from_string("1 + 3/0*u^2")


def test_polynomials_are_immutable_values():
    for value, name in ((TruncPoly(2, (1, 1)), "coeffs"), (LaurentPoly({1: 2}), "_coeffs")):
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            setattr(value, name, ())
        assert pickle.loads(pickle.dumps(value)) == value
    # equal only to a polynomial of the same kind, and then of equal hash
    for one, same in (
        (TruncPoly.one(3), TruncPoly(3, [1, 0, 0])),
        (LaurentPoly.monomial(0), laurent_from_string("2/2")),
    ):
        assert one != 1 and 1 != one
        assert one == same and hash(one) == hash(same)
    assert TruncPoly.one(3) != TruncPoly.one(4)
    assert TruncPoly.one(1) != LaurentPoly.monomial(0)
