"""Tests for jet-bundle classes and the module-structure certificates."""

import pytest

from jetk import jetcalc, kring
from jetk.exact_arith import LaurentPoly, TruncPoly, binom
from jetk.jetcalc import jet_class, prove_non_isomorphic, verify_ktheory_equality
from jetk.kring import Budget, class_of_twist, sym_omega
from jetk.p1lab import birkhoff_split, jet_transition
from jetk.report import INAPPLICABLE, REFUTED, VERIFIED
from jetk.sheafdsl import evaluate, parse

from helpers import step_values


def test_jet_class_validation():
    with pytest.raises(ValueError):
        jet_class(0, 1, 2, Budget())
    with pytest.raises(ValueError):
        jet_class(1, 0, 2, Budget())


def test_first_order_jet_on_line():
    assert jet_class(1, 1, 2, Budget()).coeffs == (2, 2)


def test_jet_of_structure_sheaf():
    for N in range(1, 6):
        expected = sym_omega(N, 1) + TruncPoly.one(N + 1)
        assert jet_class(N, 1, 0, Budget()) == expected


def test_second_order_jet_closed_form():
    value = jet_class(2, 2, 3, Budget())
    assert value == 6 * class_of_twist(2, 1)
    assert value.coeffs == (6, 6, 6)
    # term-by-term: sum over i <= 2 of [Sym^i Omega^1] * [O(3)]
    terms = [sym_omega(2, i) * class_of_twist(2, 3) for i in range(3)]
    total = terms[0] + terms[1] + terms[2]
    assert value == total


def test_jet_class_is_side_independent():
    # the side is a parameter of the expression language only
    for N in range(1, 5):
        for k in range(1, 4):
            for l in range(-6, 7):
                for side in ("left", "right"):
                    got = evaluate(parse(f"J{k}(O({l}), {side})"), N)
                    assert got == jet_class(N, k, l, Budget())


def test_jet_rank_bookkeeping():
    for N in range(1, 6):
        for k in range(1, 5):
            rank = jet_class(N, k, 3, Budget()).coeffs[0]
            assert rank == binom(N + k, N)
            if k == 1:
                assert rank == N + 1


def _left_splitting(N, l):
    """The left splitting that prove_non_isomorphic reports, as a sum."""
    values = step_values(prove_non_isomorphic(N, l), "left structure splits")
    return LaurentPoly({values["twist"]: values["multiplicity"]})


def test_left_splitting_values():
    assert _left_splitting(3, 2) == LaurentPoly({1: 4})
    assert _left_splitting(1, 1) == LaurentPoly({0: 2})
    assert _left_splitting(2, 1) == LaurentPoly({0: 3})
    assert step_values(prove_non_isomorphic(3, 2), "left structure")["rank"] == 4


def test_left_splitting_matches_birkhoff_oracle_on_line():
    for l in range(1, 8):
        split = birkhoff_split(jet_transition(l, "left"))
        expected = _left_splitting(1, l)
        assert expected == LaurentPoly({d: split.degrees.count(d) for d in split.degrees})


def test_left_splitting_inapplicable_below_one():
    for l in (0, -1, -5):
        report = prove_non_isomorphic(2, l)
        assert not any("left structure splits" in s.description for s in report.steps)


def test_right_decomposition_values():
    # on the line Omega^1 (x) O(2) = O(0)
    values = step_values(prove_non_isomorphic(1, 2), "right structure")
    assert values["omega_part"] == list(TruncPoly.one(2).coeffs)
    assert values["free_summand_twist"] == 2

    values = step_values(prove_non_isomorphic(4, 1), "right structure")
    assert values["omega_part"] == list((sym_omega(4, 1) * class_of_twist(4, 1)).coeffs)
    assert values["free_summand_twist"] == 1

    values = step_values(prove_non_isomorphic(2, 1), "right structure")
    assert values["omega_part"] == list((sym_omega(2, 1) * class_of_twist(2, 1)).coeffs)
    assert values["free_summand_twist"] == 1


def test_decompositions_share_the_jet_class():
    for N in range(1, 5):
        for l in range(1, 6):
            report = prove_non_isomorphic(N, l)
            values = step_values(report, "class-level consistency")
            jet = list(jet_class(N, 1, l, Budget()).coeffs)
            assert values["left"] == values["right"] == jet


def test_unequal_classes_refute_non_isomorphism(monkeypatch):
    # a class_of_twist that returns [O(2d)] breaks the class-level consistency
    real = jetcalc.class_of_twist
    monkeypatch.setattr(jetcalc, "class_of_twist", lambda N, d, *budget: real(N, 2 * d, *budget))
    for N, l in ((3, 2), (1, 1), (4, 7)):
        report = prove_non_isomorphic(N, l)
        values = step_values(report, "class-level consistency")
        assert values["left"] != values["right"]
        assert step_values(report, "H^0(O(-1))")["hom_dim"] == 0
        assert report.verdict == REFUTED


def test_certificates_charge_their_twist_classes(monkeypatch):
    # each certificate's twist classes, and mainsplit's Omega (x) O(l), are
    # summed on the one budget the certificate built
    built, seen = [], []

    class Recorded(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recording(s, N, budget=None):
        seen.append((s, budget))
        return original(s, N, budget)

    original = kring.sum_to_class
    monkeypatch.setattr(jetcalc, "Budget", Recorded)
    monkeypatch.setattr(kring, "sum_to_class", recording)
    kring.sym_omega(4, 3)  # the Euler recursion's own classes, cached first
    for certify, args, twists in ((verify_ktheory_equality, (4, 3, 7), {7, 4}),
                                  (prove_non_isomorphic, (4, 7), {7, 6})):
        built.clear()
        seen.clear()
        assert certify(*args).verdict == VERIFIED
        assert len(built) == 1
        assert {s.min_degree for s, _ in seen if s.is_monomial()} == twists
        assert all(budget is built[0] for _, budget in seen)


def test_ktheory_equality_line_case():
    report = verify_ktheory_equality(1, 1, 2)
    assert report.verdict == VERIFIED
    sides = [s.values["coefficients"] for s in report.steps if "coefficients" in s.values]
    assert sides == [[2, 2], [2, 2], [2, 2]]


def test_ktheory_equality_rejects_order_zero():
    with pytest.raises(ValueError):
        verify_ktheory_equality(1, 0, 2)


def test_ktheory_equality_is_bounded_before_computing():
    with pytest.raises(ValueError, match="over the budget"):
        verify_ktheory_equality(1000, 1000, 0)
    # a negative order is the jet's own input error, not a budget overrun
    with pytest.raises(ValueError, match="jet order"):
        verify_ktheory_equality(3, -5000, 0)
    assert verify_ktheory_equality(90, 90, 0).verdict == VERIFIED


def test_ktheory_certificate_refutes_a_wrong_twist_class(monkeypatch):
    # the series never calls class_of_twist, so [O(2d)] in place of [O(d)]
    # moves the recursion and the closed form away from it; cached
    # sym_omega classes would hide the patch, and must not outlive it
    real = kring.class_of_twist
    kring.sym_omega.cache_clear()
    try:
        with monkeypatch.context() as patch:
            for module in (kring, jetcalc):
                patch.setattr(module, "class_of_twist",
                              lambda N, d, *budget: real(N, 2 * d, *budget))
            for N, k, l in ((3, 2, 5), (4, 3, 7), (10, 10, -3), (1, 1, 2)):
                assert verify_ktheory_equality(N, k, l).verdict == REFUTED
            # at l = k every side is binom(N+k, N) * [O(0)]: no class tells
            assert verify_ktheory_equality(1, 1, 1).verdict == VERIFIED
    finally:
        kring.sym_omega.cache_clear()


def test_ktheory_equality_desk_scale():
    assert verify_ktheory_equality(4, 3, 7).verdict == VERIFIED
    for N in range(1, 5):
        for k in range(1, 4):
            for l in range(-5, 6):
                assert verify_ktheory_equality(N, k, l).verdict == VERIFIED


def test_non_isomorphism_certified_for_positive_twists():
    report = prove_non_isomorphic(3, 1)
    assert report.verdict == VERIFIED
    hom_step = step_values(report, "H^0(O(-1))")
    assert hom_step["hom_dim"] == 0


def test_non_isomorphism_refuted_for_structure_sheaf(monkeypatch):
    report = prove_non_isomorphic(2, 0)
    assert report.verdict == REFUTED
    assert step_values(report, "J^1(O)") == {"atiyah_class_vanishes": True, "c1": 0}
    # c1 is read from the class of O(l): one that gives [O(d+1)] makes it 1
    real = jetcalc.class_of_twist
    monkeypatch.setattr(jetcalc, "class_of_twist", lambda N, d, *budget: real(N, d + 1, *budget))
    report = prove_non_isomorphic(2, 0)
    assert step_values(report, "J^1(O)") == {"atiyah_class_vanishes": False, "c1": 1}
    assert report.verdict == VERIFIED


def test_non_isomorphism_inapplicable_for_negative_twists():
    report = prove_non_isomorphic(2, -1)
    assert report.verdict == INAPPLICABLE
    pointer = report.steps[0].values["pointer"]
    assert "p1lab" in pointer


def test_non_isomorphism_grid():
    for N in range(1, 9):
        for l in range(-3, 11):
            verdict = prove_non_isomorphic(N, l).verdict
            if l >= 1:
                assert verdict == VERIFIED
            elif l == 0:
                assert verdict == REFUTED
            else:
                assert verdict == INAPPLICABLE


def test_non_isomorphism_agrees_with_line_oracle():
    # on the line the Birkhoff splittings decide every twist, including l < 0
    report = prove_non_isomorphic(1, 5)
    left = birkhoff_split(jet_transition(5, "left"))
    right = birkhoff_split(jet_transition(5, "right"))
    assert report.verdict == VERIFIED
    assert sorted(left.degrees) == [4, 4]
    assert sorted(right.degrees) == [3, 5]
    for l in range(-3, 11):
        splittings_differ = birkhoff_split(jet_transition(l, "left")) != birkhoff_split(
            jet_transition(l, "right")
        )
        verdict = prove_non_isomorphic(1, l).verdict
        if verdict == VERIFIED:
            assert splittings_differ
        elif verdict == REFUTED:
            assert not splittings_differ
        else:
            assert l < 0 and splittings_differ

