"""Tests for jet-bundle classes and the module-structure certificates."""

import pytest

from jetk.exact_arith import TruncPoly, binom
from jetk.jetcalc import (
    InapplicableError,
    JetSpec,
    jet_class,
    left_splitting_first_order,
    prove_non_isomorphic,
    right_decomposition_first_order,
    verify_ktheory_equality,
)
from jetk.kring import LineBundleSum, class_of_twist, sum_to_class, sym_omega
from jetk.p1lab import birkhoff_split, jet_transition
from jetk.report import INAPPLICABLE, REFUTED, VERIFIED


def test_jet_spec_validation():
    with pytest.raises(ValueError):
        JetSpec(0, 1, 2, "left")
    with pytest.raises(ValueError):
        JetSpec(1, 0, 2, "left")
    with pytest.raises(ValueError):
        JetSpec(1, 1, 2, "sideways")


def test_first_order_jet_on_line():
    for side in ("left", "right"):
        assert jet_class(JetSpec(1, 1, 2, side)).coeffs == (2, 2)


def test_jet_of_structure_sheaf():
    for N in range(1, 6):
        expected = sym_omega(N, 1) + TruncPoly.one(N + 1)
        assert jet_class(JetSpec(N, 1, 0, "left")) == expected


def test_second_order_jet_closed_form():
    value = jet_class(JetSpec(2, 2, 3, "left"))
    assert value == 6 * class_of_twist(2, 1)
    assert value.coeffs == (6, 6, 6)
    # term-by-term: sum over i <= 2 of [Sym^i Omega^1] * [O(3)]
    terms = [sym_omega(2, i) * class_of_twist(2, 3) for i in range(3)]
    total = terms[0] + terms[1] + terms[2]
    assert value == total


def test_jet_class_is_side_independent():
    for N in range(1, 5):
        for k in range(1, 4):
            for l in range(-6, 7):
                assert jet_class(JetSpec(N, k, l, "left")) == jet_class(
                    JetSpec(N, k, l, "right")
                )


def test_jet_rank_bookkeeping():
    for N in range(1, 6):
        for k in range(1, 5):
            rank = jet_class(JetSpec(N, k, 3, "left")).coeffs[0]
            assert rank == binom(N + k, N)
            if k == 1:
                assert rank == N + 1


def test_left_splitting_values():
    assert left_splitting_first_order(3, 2) == LineBundleSum(3, {1: 4})
    assert left_splitting_first_order(1, 1) == LineBundleSum(1, {0: 2})
    assert left_splitting_first_order(2, 1) == LineBundleSum(2, {0: 3})


def test_left_splitting_matches_birkhoff_oracle_on_line():
    for l in range(1, 8):
        split = birkhoff_split(jet_transition(l, "left"))
        expected = left_splitting_first_order(1, l)
        assert expected == LineBundleSum(1, {d: split.degrees.count(d) for d in split.degrees})


def test_left_splitting_inapplicable_below_one():
    for l in (0, -1, -5):
        with pytest.raises(InapplicableError):
            left_splitting_first_order(2, l)


def test_right_decomposition_values():
    omega_part, free_part = right_decomposition_first_order(1, 2)
    # on the line Omega^1 (x) O(2) = O(0)
    assert omega_part == TruncPoly.one(2)
    assert free_part == LineBundleSum.line(1, 2)

    omega_part, free_part = right_decomposition_first_order(4, 0)
    assert omega_part == sym_omega(4, 1)
    assert free_part == LineBundleSum.line(4, 0)

    omega_part, free_part = right_decomposition_first_order(2, 1)
    assert omega_part == sym_omega(2, 1) * class_of_twist(2, 1)
    assert free_part == LineBundleSum.line(2, 1)


def test_decompositions_share_the_jet_class():
    for N in range(1, 5):
        for l in range(1, 6):
            omega_part, free_part = right_decomposition_first_order(N, l)
            right = omega_part + sum_to_class(free_part)
            left = sum_to_class(left_splitting_first_order(N, l))
            assert left == right == jet_class(JetSpec(N, 1, l, "left"))


def test_ktheory_equality_line_case():
    report = verify_ktheory_equality(1, 1, 2)
    assert report.verdict == VERIFIED
    sides = [s.values["coefficients"] for s in report.steps if "coefficients" in s.values]
    assert sides == [[2, 2], [2, 2]]


def test_ktheory_equality_rejects_order_zero():
    with pytest.raises(ValueError):
        verify_ktheory_equality(1, 0, 2)


def test_ktheory_equality_desk_scale():
    assert verify_ktheory_equality(4, 3, 7).verdict == VERIFIED
    for N in range(1, 5):
        for k in range(1, 4):
            for l in range(-5, 6):
                assert verify_ktheory_equality(N, k, l).verdict == VERIFIED


def test_non_isomorphism_certified_for_positive_twists():
    report = prove_non_isomorphic(3, 1)
    assert report.verdict == VERIFIED
    hom_step = report.step_values("H^0(O(-1))")
    assert hom_step["hom_dim"] == 0


def test_non_isomorphism_refuted_for_structure_sheaf():
    report = prove_non_isomorphic(2, 0)
    assert report.verdict == REFUTED


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

