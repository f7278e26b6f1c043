"""Tests for the exact K(P^N) coordinates and line-bundle combinatorics."""

import random
import time
from itertools import combinations, combinations_with_replacement

import pytest

from jetk.exact_arith import LaurentPoly, TruncPoly, binom
from jetk.kring import (
    MAX_WORK,
    Budget,
    class_of_twist,
    cohomology_dim,
    sum_to_class,
    sym_omega,
    sym_power,
    wedge_power,
)

from helpers import degree, inverse


def _one_minus_t_power(N, d):
    """Brute-force truncation of (1-t)^d by repeated multiplication."""
    out = TruncPoly.one(N + 1)
    for _ in range(d):
        out = out * TruncPoly(N + 1, (1, -1))
    return out


def test_structure_sheaf_is_one():
    for N in range(1, 6):
        assert class_of_twist(N, 0) == TruncPoly.one(N + 1)


def test_line_coordinates_of_positive_twist():
    assert class_of_twist(1, 5).coeffs == (1, 5)


def test_negative_twist_matches_brute_force():
    assert class_of_twist(2, -3).coeffs == (1, -3, 3)
    for N in range(1, 9):
        for d in range(0, 13):
            assert class_of_twist(N, -d) == _one_minus_t_power(N, d)


def test_positive_twist_is_inverse_of_negative():
    for N in range(1, 9):
        for d in range(1, 13):
            assert class_of_twist(N, d) == inverse(_one_minus_t_power(N, d))


def test_twist_classes_multiply_like_twists():
    for N in range(1, 9):
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert class_of_twist(N, a) * class_of_twist(N, b) == class_of_twist(
                    N, a + b
                )


def test_twist_inverse_law():
    for N in range(1, 9):
        for d in range(-12, 13):
            assert class_of_twist(N, d) * class_of_twist(N, -d) == TruncPoly.one(N + 1)


def test_sum_to_class_pairs():
    assert sum_to_class(LaurentPoly({1: 2}), 1).coeffs == (2, 2)
    assert sum_to_class(LaurentPoly({0: 1, 2: 1}), 1).coeffs == (2, 2)
    assert sum_to_class(LaurentPoly({}), 1) == TruncPoly.zero(2)


def test_sum_to_class_charges_its_budget():
    # without a budget it charges a fresh one, so a direct call is bounded:
    # unbounded, this class ran for about a minute
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the class on P\^1000 of a twist sum of length 1 "
                                         r"needs about \d+ coefficient operations"):
        class_of_twist(1000, 10**4000)
    assert time.perf_counter() - start < 1
    # a budget passed in is the one charged
    budget = Budget()
    sum_to_class(LaurentPoly({1: 2, -3: 1}), 4, budget)
    assert budget.spent > 0
    budget.spent = MAX_WORK
    with pytest.raises(ValueError, match=r"^the class on P\^4 of a twist sum of length 2 "):
        sum_to_class(LaurentPoly({1: 2, -3: 1}), 4, budget)
    # its N + 1 coefficients are charged too, whatever its twists; this
    # budget records the named charge and stops there, before any list is built
    class Charged(Exception):
        pass

    class Recording(Budget):
        def spend(self, units, step=None):
            self.spent += units
            raise Charged(step)

    for N in (10**6, 10**9):
        budget = Recording()
        with pytest.raises(Charged, match=rf"^the class on P\^{N} of a twist sum of length 1$"):
            sum_to_class(LaurentPoly.monomial(0), N, budget)
        assert budget.spent > N
    # so a direct call with a huge N is refused before it allocates
    with pytest.raises(ValueError, match=r"^the class on P\^1000000000 of a twist sum of length 1 "
                                         r"needs about \d+ coefficient operations"):
        class_of_twist(10**9, 0)


def test_sum_to_class_additive_and_multiplicative():
    rng = random.Random(17)
    for _ in range(30):
        N = rng.randint(1, 4)
        s1 = LaurentPoly({rng.randint(-5, 5): rng.randint(-3, 3) for _ in range(3)})
        s2 = LaurentPoly({rng.randint(-5, 5): rng.randint(-3, 3) for _ in range(3)})
        assert sum_to_class(s1 + s2, N) == sum_to_class(s1, N) + sum_to_class(s2, N)
        assert sum_to_class(s1 * s2, N) == sum_to_class(s1, N) * sum_to_class(s2, N)


def test_deg_rk_componentwise():
    s = LaurentPoly({3: 1, -1: 1})
    assert (degree(s), s.rank) == (2, 2)
    for d in range(-6, 7):
        s = LaurentPoly.monomial(d)
        assert (degree(s), s.rank) == (d, 1)


def test_deg_rk_of_first_order_jet_summands():
    # both decompositions of the first-order jet of O(2) have degree 2, rank 2
    for s in (LaurentPoly({1: 2}), LaurentPoly({0: 1, 2: 1})):
        assert (degree(s), s.rank) == (2, 2)


def test_deg_rk_equals_class_coordinates():
    rng = random.Random(23)
    for _ in range(30):
        s = LaurentPoly({rng.randint(-8, 8): rng.randint(-4, 4) for _ in range(4)})
        assert sum_to_class(s, 1).coeffs == (s.rank, degree(s))


def test_sym_square_of_three_lines():
    # size-2 multisets out of three O(-1) summands: binom(4, 2) = 6 of them
    assert sym_power(LaurentPoly({-1: 3}), 2) == LaurentPoly({-2: 6})


def test_sym_of_single_line():
    for d in range(-4, 5):
        for k in range(0, 5):
            assert sym_power(LaurentPoly.monomial(d), k) == LaurentPoly.monomial(k * d)


def test_top_wedge_is_determinant_twist():
    assert wedge_power(LaurentPoly({3: 1, 5: 1}), 2) == LaurentPoly.monomial(8)
    s = LaurentPoly({1: 2, -2: 1})
    assert wedge_power(s, 3) == LaurentPoly.monomial(0)


def test_sym_wedge_ranks():
    rng = random.Random(41)
    for _ in range(25):
        s = LaurentPoly(
            {rng.randint(-3, 3): rng.randint(1, 2) for _ in range(rng.randint(1, 3))}
        )
        r = s.rank
        for k in range(0, 4):
            assert sym_power(s, k).rank == binom(r + k - 1, k)
            assert wedge_power(s, k).rank == binom(r, k)


def _enumerated_power(s, k, wedge):
    """Sym^k / Wedge^k of an effective sum, one O(degree sum) per size-k
    multiset / subset of its twists: the reference for the series."""
    twists = [d for d, m in s.items() for _ in range(m)]
    choose = combinations if wedge else combinations_with_replacement
    out = {}
    for chosen in choose(twists, k):
        out[sum(chosen)] = out.get(sum(chosen), 0) + 1
    return LaurentPoly(out)


def _random_sum(rng, low):
    return LaurentPoly(
        {rng.randint(-4, 4): rng.randint(low, 3) for _ in range(rng.randint(1, 4))}
    )


def test_series_matches_enumeration_on_effective_sums():
    rng = random.Random(43)
    for _ in range(40):
        s = _random_sum(rng, 1)
        for k in range(0, 6):
            assert sym_power(s, k) == _enumerated_power(s, k, wedge=False)
            assert wedge_power(s, k) == _enumerated_power(s, k, wedge=True)


def test_powers_of_virtual_sums_obey_addition_formula():
    rng = random.Random(47)
    for _ in range(30):
        a, b = _random_sum(rng, -3), _random_sum(rng, -3)
        for k in range(0, 5):
            for power in (sym_power, wedge_power):
                expected = LaurentPoly.zero()
                for i in range(k + 1):
                    expected = expected + power(a, i) * power(b, k - i)
                assert power(a + b, k) == expected


def test_series_spends_its_loops():
    # On small ints a ratio step and a level pair cost 1 unit, a product 2
    # and a new term 1, counted by hand from the series' loops.
    cases = [
        # one twist: 5 ratio steps, levels 0..5 of one pair and product each, 6 terms
        (sym_power, LaurentPoly({4: 1}), 5, 5 + 6 * (1 + 2) + 6),
        # the second twist makes level j from levels 0..j: 6 pairs and products
        (sym_power, LaurentPoly({0: 1, 1: 1}), 2, (2 + 3 * (1 + 2) + 3) + (2 + 6 * (1 + 2) + 6)),
        # a Wedge factor ends at the multiplicity: 1 ratio step a twist, and
        # levels 0..2 of 1, 2, 1 pairs and products stop short of level 3
        (wedge_power, LaurentPoly({0: 1, 1: 1}), 3, (1 + 2 * (1 + 2) + 2) + (1 + 4 * (1 + 2) + 4)),
        # J3 on P^2 is Sym3 of 3 O(-1)
        (sym_power, LaurentPoly({-1: 3}), 3, 3 + 4 * (1 + 2) + 4),
    ]
    for power, s, k, units in cases:
        budget = Budget("the series")
        assert power(s, k, budget) == power(s, k)
        assert budget.spent == units
        budget.spent = MAX_WORK - units
        power(s, k, budget)
        # one unit short: refused at the last charge, before returning
        budget.spent = MAX_WORK - units + 1
        with pytest.raises(ValueError, match=f"^the series needs at least {MAX_WORK + 1} "):
            power(s, k, budget)
    # without a budget a series gets a full one of its own
    with pytest.raises(ValueError, match="^Sym1000 needs at least "):
        sym_power(LaurentPoly({0: binom(2000, 1000)}), 1000)


def test_sym_omega_base_cases():
    for N in range(1, 6):
        assert sym_omega(N, 0) == TruncPoly.one(N + 1)
    assert sym_omega(2, 1).coeffs == (2, -3, 0)
    # on the line the cotangent sheaf is O(-2)
    assert sym_omega(1, 1) == class_of_twist(1, -2)
    assert sym_omega(1, 1).coeffs == (1, -2)


def test_sym_omega_rank():
    for N in range(1, 6):
        for k in range(0, 6):
            assert sym_omega(N, k).coeffs[0] == binom(N + k - 1, k)


def test_sym_omega_euler_identity():
    for N in range(1, 7):
        for k in range(0, 7):
            total = TruncPoly.zero(N + 1)
            for i in range(k + 1):
                total = total + sym_omega(N, i)
            assert total == binom(N + k, N) * class_of_twist(N, -k)


def _count_monomials(nvars, degree):
    if nvars == 1:
        return 1
    return sum(_count_monomials(nvars - 1, degree - d) for d in range(degree + 1))


def test_h0_counts_monomials():
    # degree-3 monomials in 3 variables
    assert cohomology_dim(2, 3, 0) == 10
    for N in range(1, 5):
        for d in range(0, 6):
            assert cohomology_dim(N, d, 0) == _count_monomials(N + 1, d)


def test_o_minus_one_has_no_cohomology():
    for N in range(1, 7):
        for i in range(0, N + 2):
            assert cohomology_dim(N, -1, i) == 0


def test_top_cohomology_by_serre_duality():
    assert cohomology_dim(1, -2, 1) == 1
    for N in range(1, 6):
        for d in range(-12, 0):
            assert cohomology_dim(N, d, N) == cohomology_dim(N, -d - N - 1, 0)


def test_middle_cohomology_vanishes():
    for N in range(2, 7):
        for d in range(-12, 13):
            for i in range(1, N):
                assert cohomology_dim(N, d, i) == 0
    assert cohomology_dim(3, 5, 7) == 0


def test_euler_characteristic_is_binomial():
    for N in range(1, 7):
        for d in range(-12, 13):
            chi = sum((-1) ** i * cohomology_dim(N, d, i) for i in range(N + 1))
            assert chi == binom(N + d, N)
