"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (tolerance zero).  Run with ``pytest -s`` to see the
per-criterion lines on success.
"""

import random

from jetk.exact_arith import LaurentPoly, TruncPoly, binom
from jetk.jetcalc import jet_class, prove_non_isomorphic, verify_ktheory_equality
from jetk.kring import (
    class_of_twist,
    sum_to_class,
    sym_omega,
)
from jetk.p1lab import (
    SplittingType,
    atiyah_class_p1,
    birkhoff_split,
    h0_count,
    jet_transition,
    splitting_via_h0,
    verify_corr_p1,
)
from jetk.report import INAPPLICABLE, REFUTED, VERIFIED
from jetk.sheafdsl import Sum, Tensor, evaluate, parse, print_expr

from helpers import degree as sum_degree, diagonal, inverse, section_count, step_values
from matrixgen import matmul, random_unimodular
from test_sheafdsl import _random_expr, _random_split_expr


def _passed(n, label):
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_kring_twist_formulas():
    for N in range(1, 9):
        one = TruncPoly.one(N + 1)
        geometric = TruncPoly(N + 1, (1, -1))
        power = one
        for d in range(1, 13):
            power = power * geometric  # brute-force (1-t)^d
            assert class_of_twist(N, -d) == power
            assert class_of_twist(N, d) == inverse(power)
            assert class_of_twist(N, d) * class_of_twist(N, -d) == TruncPoly.one(N + 1)
    _passed(1, "K-ring twist formulas")


def test_criterion_2_line_coordinates():
    for d in range(0, 21):
        assert class_of_twist(1, d).coeffs == (1, d)
        assert class_of_twist(1, -d).coeffs == (1, -d)
    rng = random.Random(52)
    for _ in range(50):
        terms = {rng.randint(-9, 9): rng.randint(-5, 5) for _ in range(rng.randint(1, 5))}
        s = LaurentPoly(terms)
        degree = sum(d * m for d, m in terms.items() if m != 0)
        rank = sum(m for m in terms.values() if m != 0)
        assert (sum_degree(s), s.rank) == (degree, rank)
        assert sum_to_class(s, 1).coeffs == (rank, degree)
    _passed(2, "P^1 coordinates and deg/rk")


def test_criterion_3_sym_omega_euler_identity():
    for N in range(1, 7):
        for k in range(0, 7):
            total = TruncPoly.zero(N + 1)
            for i in range(k + 1):
                total = total + sym_omega(N, i)
            assert total == binom(N + k, N) * class_of_twist(N, -k)
    _passed(3, "symmetric-power Euler identity")


def test_criterion_4_ktheory_equality_desk_scale():
    for N in range(1, 7):
        for k in range(1, 7):
            for l in range(-10, 11):
                assert verify_ktheory_equality(N, k, l).verdict == VERIFIED
    _passed(4, "jet K-class equality grid")


def test_criterion_5_non_isomorphism_certificates():
    for N in range(1, 9):
        for l in range(1, 11):
            report = prove_non_isomorphic(N, l)
            assert report.verdict == VERIFIED
            hom_step = step_values(report, "H^0(O(-1))")
            assert hom_step["hom_dim"] == 0
        assert prove_non_isomorphic(N, 0).verdict == REFUTED
    _passed(5, "non-isomorphism certificates")


def test_criterion_6_explicit_line_splittings():
    for l in range(1, 11):
        assert birkhoff_split(jet_transition(l, "left")) == SplittingType((l - 1, l - 1))
        assert birkhoff_split(jet_transition(l, "right")) == SplittingType((l - 2, l))
    for l in range(-5, 11):
        for side in ("left", "right"):
            m = jet_transition(l, side)
            split = birkhoff_split(m)
            assert splitting_via_h0(m) == split
            assert h0_count(m) == section_count(split)
    _passed(6, "explicit jet splittings on the line")


def test_criterion_7_atiyah_correspondence():
    for l in range(-10, 11):
        assert atiyah_class_p1(l) == l
    for l in range(-5, 11):
        report = verify_corr_p1(l)
        assert report.verdict == VERIFIED
        final = report.steps[-1].values
        assert final["class_zero"] == (l == 0)
        assert final["splittings_equal"] == (l == 0)
    _passed(7, "Atiyah class and first Chern class correspondence")


def test_criterion_8_birkhoff_invariance():
    rng = random.Random(808)
    base = [
        jet_transition(3, "left"),
        jet_transition(-2, "left"),
        jet_transition(4, "right"),
        diagonal([2, -1]),
        diagonal([1, 0, -3]),
    ]
    cases = 0
    while cases < 20:
        m = rng.choice(base)
        transformed = matmul(
            random_unimodular(rng, m.size, +1), m, random_unimodular(rng, m.size, -1)
        )
        split = birkhoff_split(transformed)
        assert split == birkhoff_split(m)
        _, det_exp = transformed.det_monomial()
        assert sum(split.degrees) == det_exp
        cases += 1
    _passed(8, "Birkhoff invariance under unimodular factors")


def test_criterion_9_dsl_round_trip_and_homomorphism():
    rng = random.Random(909)
    corpus = [_random_expr(rng, rng.randint(0, 4)) for _ in range(20)]
    for expr in corpus:
        assert parse(print_expr(expr)) == expr
    for _ in range(30):
        N = rng.randint(1, 4)
        a = _random_split_expr(rng, rng.randint(0, 2))
        b = _random_split_expr(rng, rng.randint(0, 2))
        assert evaluate(Sum((a, b)), N) == evaluate(a, N) + evaluate(b, N)
        assert evaluate(Tensor((a, b)), N) == evaluate(a, N) * evaluate(b, N)
    _passed(9, "DSL round trip and ring homomorphism")


def test_jet_class_closed_form_consistency():
    # cross-module consistency used throughout the suite
    for N in range(1, 5):
        for k in range(1, 4):
            for l in range(-4, 5):
                assert jet_class(N, k, l) == binom(N + k, N) * class_of_twist(N, l - k)
