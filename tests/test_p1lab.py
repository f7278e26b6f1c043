"""Tests for transition matrices, Birkhoff splitting, and Cech residues."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetk import p1lab
from jetk.cli import run
from jetk.exact_arith import LaurentPoly, laurent_from_string
from jetk.kring import MAX_WORK, MUL_BITS, Budget
from jetk.p1lab import (
    LaurentMatrix,
    NotATransitionError,
    SplittingType,
    atiyah_class_p1,
    birkhoff_split,
    dlog_of_monomial,
    h0_count,
    jet_transition,
    matrix_from_text,
    splitting_via_h0,
    verify_corr_p1,
)
from jetk.report import VERIFIED

from helpers import degree, diagonal, rref, section_count, step_values
from matrixgen import identity, matmul, random_unimodular


def u(e, c=1):
    return LaurentPoly.monomial(e, c)


def test_left_transition_frozen_values():
    m = jet_transition(2, "left")
    assert m.rows()[0][0] == u(2)
    assert m.rows()[0][1].is_zero()
    assert m.rows()[1][0] == u(1, 2)
    assert m.rows()[1][1] == u(0, -1)


def test_left_transition_no_twist_is_pure_chain_rule():
    m = jet_transition(0, "left")
    assert m.rows()[0][0] == u(0)
    assert m.rows()[0][1].is_zero()
    assert m.rows()[1][0].is_zero()
    assert m.rows()[1][1] == u(-2, -1)


def test_left_transition_differentiation_oracle():
    # for random f1(v), the matrix must carry (f1, df1/dv) to (f0, df0/du)
    # where f0(u) = u^l * f1(1/u)
    rng = random.Random(13)
    for _ in range(25):
        l = rng.randint(-4, 5)
        m = jet_transition(l, "left")
        f1 = LaurentPoly({rng.randint(0, 4): rng.randint(-5, 5) for _ in range(3)})
        df1 = f1.derivative()  # derivative in the variable of f1
        f1_u = f1.dual()  # f1(1/u)
        df1_u = df1.dual()
        f0 = u(l) * f1_u
        assert m.rows()[0][0] * f1_u + m.rows()[0][1] * df1_u == f0
        assert m.rows()[1][0] * f1_u + m.rows()[1][1] * df1_u == f0.derivative()


def test_right_transition_is_block_diagonal():
    m = jet_transition(2, "right")
    assert m == diagonal([0, 2])
    m = jet_transition(-1, "right")
    assert m == diagonal([-3, -1])


def test_transition_rejects_unknown_side():
    with pytest.raises(ValueError):
        jet_transition(2, "middle")


def test_birkhoff_of_diagonal():
    assert birkhoff_split(diagonal([2, -1])) == SplittingType(
        (2, -1)
    )


def test_birkhoff_of_unipotent_over_inverse_ring():
    m = LaurentMatrix([[u(0), u(-3)], [LaurentPoly.zero(), u(0)]])
    assert birkhoff_split(m) == SplittingType((0, 0))


def test_birkhoff_of_jet_transitions():
    assert birkhoff_split(jet_transition(2, "left")) == SplittingType((1, 1))
    assert birkhoff_split(jet_transition(3, "right")) == SplittingType((1, 3))


def test_birkhoff_rejects_non_monomial_determinant():
    m = LaurentMatrix([[u(0), LaurentPoly.zero()], [LaurentPoly.zero(), u(0) + u(1)]])
    with pytest.raises(NotATransitionError, match="transition"):
        birkhoff_split(m)
    singular = LaurentMatrix([[u(1), u(1)], [u(1), u(1)]])
    with pytest.raises(NotATransitionError):
        birkhoff_split(singular)


def test_birkhoff_recovers_known_factorizations():
    # A * diag(u^a_i) * B has splitting {a_i} by uniqueness
    rng = random.Random(20260810)
    for _ in range(25):
        size = rng.choice([2, 2, 3])
        degrees = [rng.randint(-4, 4) for _ in range(size)]
        left = random_unimodular(rng, size, +1)
        right = random_unimodular(rng, size, -1)
        m = matmul(left, diagonal(degrees), right)
        assert birkhoff_split(m) == SplittingType(tuple(degrees))


# Rank 1 has no elementary row operations to draw, so ranks start at 2.
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_birkhoff_invariance_under_unimodular_factors(seed, rank):
    rng = random.Random(seed)
    base = [diagonal([rng.randint(-3, 3) for _ in range(rank)])]
    if rank == 2:
        base.append(jet_transition(rng.randint(-3, 3), rng.choice(["left", "right"])))
    m = rng.choice(base)
    transformed = matmul(
        random_unimodular(rng, rank, +1), m, random_unimodular(rng, rank, -1)
    )
    assert birkhoff_split(transformed) == birkhoff_split(m)
    _, det_exp = transformed.det_monomial()
    assert sum(birkhoff_split(transformed).degrees) == det_exp


def _long_entry(n):
    """[[1, u + u^2 + ... + u^n], [0, 1]]: a reduction of n steps of up to n terms."""
    return LaurentMatrix([[u(0), LaurentPoly(dict.fromkeys(range(1, n + 1), 1))],
                          [LaurentPoly.zero(), u(0)]])


def _unitriangular(rng, r, lower):
    """A dense constant unitriangular matrix with entries in [-3, 3]."""
    return LaurentMatrix([[1 if i == j else rng.randint(-3, 3) if (j < i) == lower else 0
                           for j in range(r)] for i in range(r)])


class _RecordedBudget(Budget):
    """A Budget that keeps every charge, and the last one built, to read
    what a call spent."""

    last = None

    def __init__(self, step=""):
        super().__init__(step)
        self.charges = []
        _RecordedBudget.last = self

    def spend(self, units, step=None):
        self.charges.append(units)
        super().spend(units, step)


def test_birkhoff_reduction_spends_a_budget(monkeypatch):
    monkeypatch.setattr(p1lab, "Budget", _RecordedBudget)
    # its determinant multiplies one pair of int terms, and its n reduction
    # steps read n + 2, n + 1, ..., 3 terms of unit coefficients (test_cli
    # refuses n = 6000 in both output modes)
    assert birkhoff_split(_long_entry(500)) == SplittingType((0, 0))
    assert _RecordedBudget.last.step == "the Birkhoff reduction of a rank-2 matrix"
    assert _RecordedBudget.last.spent == p1lab.DET_WORK + p1lab.REDUCTION_WORK * sum(range(3, 503))
    # the largest entry admitted, and the smallest refused
    assert birkhoff_split(_long_entry(1410)) == SplittingType((0, 0))
    assert _RecordedBudget.last.spent <= MAX_WORK
    with pytest.raises(ValueError, match="^the Birkhoff reduction of a rank-2 matrix needs at least"):
        birkhoff_split(_long_entry(1420))
    # dense rank 6 as the p1-split benchmark draws them: constant factors
    # around degrees 0 or 1 plus a common twist
    rng = random.Random(6)
    for _ in range(5):
        shift = rng.randint(-1, 1)
        degrees = [rng.randint(0, 1) + shift for _ in range(6)]
        m = matmul(_unitriangular(rng, 6, True), _unitriangular(rng, 6, False),
                   diagonal(degrees),
                   _unitriangular(rng, 6, True), _unitriangular(rng, 6, False))
        m.det_monomial()
        assert _RecordedBudget.last.spent < MAX_WORK / 100
        # with the determinant remembered, the reduction alone
        assert birkhoff_split(m) == SplittingType(degrees)
        assert _RecordedBudget.last.spent < MAX_WORK / 1000


def _elementary_product(rng, count, digits):
    """A product of count elementary 2x2 matrices [[1, c u], [0, 1]] and
    [[1, 0], [c u, 1]], alternating, with c of the given number of digits:
    unimodular over polynomials in u, so of splitting type {0, 0}."""
    factors = []
    for k in range(count):
        e = u(1, rng.randint(10 ** (digits - 1), 10 ** digits - 1))
        zero, one = LaurentPoly.zero(), u(0)
        factors.append(LaurentMatrix([[one, e], [zero, one]] if k % 2 else [[one, zero], [e, one]]))
    return matmul(*factors)


def test_birkhoff_rows_stay_primitive(monkeypatch):
    # each step multiplies the target row by an integer from the leading
    # coefficients; unless the row's content is divided out, the coefficient
    # sizes grow like Fibonacci numbers (multipliers of 400,000 bits after 20
    # one-digit factors) and this reduction runs over the budget
    monkeypatch.setattr(p1lab, "Budget", _RecordedBudget)
    rng = random.Random(15)
    assert birkhoff_split(_elementary_product(rng, 40, 1)) == SplittingType((0, 0))
    assert _RecordedBudget.last.spent < MAX_WORK / 100
    # with Fraction coefficients too: scaling a row by a rational is unimodular
    m = _elementary_product(rng, 20, 2)
    m = LaurentMatrix([[e * Fraction(1, 3) for e in m.rows()[0]], m.rows()[1]])
    assert birkhoff_split(m) == SplittingType((0, 0))


def test_birkhoff_charges_large_coefficients(monkeypatch):
    # 40 elementary factors with 100-digit entries: the term count of 40
    # one-digit ones, but rows and step multipliers of about 13,000 bits,
    # whose products the budget counts by size as kring does
    monkeypatch.setattr(p1lab, "Budget", _RecordedBudget)
    spent = []
    for digits in (1, 100):
        m = _elementary_product(random.Random(1), 40, digits)
        m.det_monomial()  # remembered, so the reduction's budget counts the reduction alone
        assert birkhoff_split(m) == SplittingType((0, 0))
        spent.append(_RecordedBudget.last.spent)
    assert spent[1] > 50 * spent[0]
    # with 400-digit entries (up to 53,000 bits) the determinant, charged by
    # each coefficient's own size, is admitted, and the reduction is refused
    m = _elementary_product(random.Random(1), 40, 400)
    m.det_monomial()
    assert _RecordedBudget.last.spent < 0.6 * MAX_WORK
    with pytest.raises(ValueError, match="^the Birkhoff reduction of a rank-2 matrix needs at least"):
        birkhoff_split(m)


def test_cofactor_determinant_spends_a_budget():
    # a rank-8 file of 15-term entries with exponents up to 200 (9 KB as
    # text): its cofactor expansion ran 41 s before it was found not to be a
    # transition.  Each product is charged at least DET_WORK per term pair
    # before it runs, so the expansion stops after at most MAX_WORK / DET_WORK
    # pairs.
    rng = random.Random(8)
    m = LaurentMatrix([[LaurentPoly({rng.randint(0, 200): rng.randint(1, 9) for _ in range(15)})
                        for _ in range(8)] for _ in range(8)])
    log = _RecordedBudget()
    with pytest.raises(ValueError, match="^the determinant of a rank-8 matrix needs at least"):
        m.det_monomial(log)
    assert sum(log.charges[:-1]) <= MAX_WORK < sum(log.charges)
    # far fewer products than the 69,280 of the whole expansion
    int_products = len(log.charges)
    assert int_products < 10_000
    # the same shape with a p/q entry: the products whose minors hold it are
    # charged FRACTION_DET_WORK a pair, so fewer run
    rows = m.rows()
    rows[7][7] = rows[7][7] * Fraction(1, 2)
    log = _RecordedBudget()
    with pytest.raises(ValueError, match="^the determinant of a rank-8 matrix needs at least"):
        LaurentMatrix(rows).det_monomial(log)
    assert sum(log.charges[:-1]) <= MAX_WORK < sum(log.charges)
    assert len(log.charges) < int_products / 4


def test_cofactor_product_work():
    # each product is charged by its own operands: a rate per term pair, by
    # whether the pair holds a p/q, and x y / MUL_BITS per pair of x- and
    # y-bit coefficients, a p/q counting the bits of p and q
    def work(a, b):
        return p1lab._product_work(p1lab._size(a), p1lab._size(b))

    a, b = LaurentPoly({0: 3, 1: -5}), LaurentPoly({0: 1, 2: 7, 3: -2})
    assert work(a, b) == work(b, a) == 6 * p1lab.DET_WORK
    half = LaurentPoly({0: 1, 2: Fraction(7, 2), 3: -2})
    assert work(a, half) == 4 * p1lab.DET_WORK + 2 * p1lab.FRACTION_DET_WORK
    assert work(LaurentPoly({0: Fraction(1, 3)}), half) == 3 * p1lab.FRACTION_DET_WORK
    big = LaurentPoly({0: 2**5000, 1: -(2**5000)})
    huge = LaurentPoly({4: 2**20000})
    assert work(big, huge) == 2 * p1lab.DET_WORK + (2 * 5001) * 20001 // MUL_BITS
    assert work(LaurentPoly({0: Fraction(1, 2**20000)}), big) == (
        2 * p1lab.FRACTION_DET_WORK + (1 + 20001) * (2 * 5001) // MUL_BITS)


def test_section_count_scan_spends_one_budget(monkeypatch):
    monkeypatch.setattr(p1lab, "Budget", _RecordedBudget)
    m = jet_transition(3, "left")
    assert splitting_via_h0(m) == SplittingType((2, 2))
    scan = _RecordedBudget.last
    assert scan.step == "the section count of a twist of a rank-2 matrix"
    # the scan's counts all spend from it: a count on its own spends less
    assert 0 < h0_count(m, 1) and 0 < _RecordedBudget.last.spent < scan.spent
    # with the determinant and the primitive rows remembered from a first
    # count, a count spends a unit per coefficient it reads into its
    # equations (2 rows of 4 exponents of 8 unknowns here), then
    # ELIMINATION_WORK per entry of each equation the elimination rewrites
    rng = random.Random(77)
    conjugate = matmul(random_unimodular(rng, 2, +1), diagonal([2, 0]),
                       random_unimodular(rng, 2, -1))
    assert h0_count(conjugate) == h0_count(conjugate) == 4
    charges = _RecordedBudget.last.charges
    assert charges[0] == 2 * 4 * 8 and set(charges[1:]) == {p1lab.ELIMINATION_WORK * 8}
    # an entry u^-600 gives each count about 1,200 unknowns; the scan stops
    # at the last degree, two counts in, within the budget
    wide = LaurentMatrix([[u(0), u(-600)], [LaurentPoly.zero(), u(0)]])
    assert splitting_via_h0(wide) == SplittingType((0, 0))
    assert _RecordedBudget.last.spent <= MAX_WORK
    # at u^-1500 the first count's reads alone are over it: refused in the
    # same step, before any elimination
    monkeypatch.setattr(p1lab, "_eliminate", lambda *args: pytest.fail("eliminated"))
    wider = LaurentMatrix([[u(0), u(-1500)], [LaurentPoly.zero(), u(0)]])
    with pytest.raises(ValueError, match="^the section count of a twist of a rank-2 matrix needs at least"):
        splitting_via_h0(wider)


def test_primitive_rows_are_built_once_and_budgeted(monkeypatch):
    calls = []
    original = p1lab._primitive
    monkeypatch.setattr(p1lab, "_primitive", lambda row: calls.append(row) or original(row))
    # a scan of a rank-3 conjugate with p/q entries scales each row once
    rng = random.Random(3)
    m = matmul(random_unimodular(rng, 3, +1), diagonal([1, 0, -1]),
               random_unimodular(rng, 3, -1))
    m = LaurentMatrix([[e * Fraction(1, i + 2) for e in row] for i, row in enumerate(m.rows())])
    assert splitting_via_h0(m) == SplittingType((1, 0, -1))
    assert len(calls) == 3
    # and the reduction reuses them: it scales only the rows it makes
    calls.clear()
    assert birkhoff_split(m) == SplittingType((1, 0, -1))
    assert all(type(row) is list for row in calls)
    # an entry of 300 terms with distinct 100-digit denominators, whose lcm
    # has about 100,000 bits: clearing it takes about 0.9 s (minutes at 1,000
    # terms of 300 digits), while the lcm's size charge refuses it at once,
    # in the step that asked for the rows
    f = LaurentPoly({i: Fraction(1, rng.randrange(10**99, 10**100)) for i in range(300)})
    unit = LaurentMatrix([[u(0), f], [LaurentPoly.zero(), u(0)]])
    for split, step in ((birkhoff_split, "the Birkhoff reduction"),
                        (splitting_via_h0, "the section count of a twist")):
        with pytest.raises(ValueError, match=f"^{step} of a rank-2 matrix needs at least"):
            split(unit)
    # and a matrix that is no transition never has its rows scaled
    calls.clear()
    with pytest.raises(NotATransitionError):
        birkhoff_split(LaurentMatrix([[f, u(0)], [LaurentPoly.zero(), u(0)]]))
    assert calls == []


def test_determinant_law():
    for l in range(-5, 11):
        for side in ("left", "right"):
            m = jet_transition(l, side)
            _, det_exp = m.det_monomial()
            assert sum(birkhoff_split(m).degrees) == det_exp


def test_h0_of_identity():
    assert h0_count(identity(2)) == 2


def test_h0_of_twisted_diagonal():
    assert h0_count(diagonal([1, 1])) == 4


def test_h0_of_first_jet_of_hyperplane():
    # J^1(O(1)) is twice the structure sheaf: two constant sections
    assert h0_count(jet_transition(1, "left")) == 2


def test_h0_matches_splitting_formula():
    for l in range(-5, 11):
        for side in ("left", "right"):
            m = jet_transition(l, side)
            assert h0_count(m) == section_count(birkhoff_split(m))


def test_splitting_via_h0_examples():
    assert splitting_via_h0(LaurentMatrix([[u(3)]])) == SplittingType((3,))
    assert splitting_via_h0(jet_transition(3, "right")) == SplittingType((1, 3))


def test_section_oracles_require_unit_determinant():
    bad = LaurentMatrix([[u(0) + u(1), LaurentPoly.zero()], [LaurentPoly.zero(), u(0)]])
    with pytest.raises(NotATransitionError):
        h0_count(bad)
    with pytest.raises(NotATransitionError):
        splitting_via_h0(bad)


@pytest.fixture
def scanned(monkeypatch):
    """splitting_via_h0, checked to count just the twists k = -hi-1, ...,
    -min(degrees), hi the highest entry exponent: hi - min(degrees) + 2."""
    twists = []
    original = p1lab.h0_count
    monkeypatch.setattr(p1lab, "h0_count", lambda m, k, budget: twists.append(k) or original(m, k, budget))

    def scan(m):
        twists.clear()
        split = splitting_via_h0(m)
        hi = max(e.max_degree for row in m.rows() for e in row if not e.is_zero())
        assert twists == list(range(-hi - 1, -min(split.degrees) + 1)), m
        return split

    return scan


def test_splitting_via_h0_on_unimodular_conjugates(scanned):
    # the factors carry Fraction entries, so the section counts run on the
    # matrix rows made primitive; degrees spread over -4..4 make large count
    # systems, and a scan of the determinant's whole twist range was refused
    # by its budget on the rank-5 ones
    rng = random.Random(77)
    spread = [[4, -4], [4, 4, -4], [3, -4, 0, 2], [-4, 3, -3, 3, 1], [4, -1, 2, -4, 0]]
    for degrees in [[2, 0, -1, 1, 0][:rank] for rank in range(2, 6)] + spread:
        base = diagonal(degrees)
        for _ in range(5):
            m = matmul(random_unimodular(rng, base.size, +1), base,
                       random_unimodular(rng, base.size, -1))
            assert scanned(m) == birkhoff_split(m) == SplittingType(degrees)


# Systems up to 8x8 of ints, or of ints and p/q; the rows past a random
# number of free ones are integer combinations of them, so many systems are
# rank-deficient.  The integer kernel runs on the rows made primitive, as
# the section counts and Birkhoff steps pass them; the oracle on the rows.
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_elimination_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    nrows, ncols, fractions = rng.randint(1, 8), rng.randint(1, 8), rng.random() < 0.5

    def entry():
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-9, 9)

    free = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, nrows))]
    rows = free + [
        [sum(rng.randint(-2, 2) * row[j] for row in free) for j in range(ncols)]
        for _ in range(nrows - len(free))
    ]
    rng.shuffle(rows)
    reduced = [list(row) for row in rows]
    pivots = rref(reduced, ncols)
    cleared = [[p.coefficient(0) for p in p1lab._primitive([LaurentPoly({0: x}) for x in row])]
               for row in rows]
    assert all(type(x) is int for row in cleared for x in row)
    rank, kernel = p1lab._eliminate(cleared, ncols, Budget())
    assert rank == len(pivots)
    if rank == ncols:
        assert kernel is None
        return
    # integral, a multiple of the oracle's kernel vector for the first
    # non-pivot column, and so zero on every row
    assert all(type(x) is int for x in kernel)
    first = min(set(range(ncols)).difference(pivots))
    expected = [0] * ncols
    expected[first] = 1
    for row, col in zip(reduced, pivots):
        expected[col] = -row[first]
    assert kernel[first] != 0
    assert kernel == [kernel[first] * x for x in expected]
    assert all(sum(a * x for a, x in zip(row, kernel)) == 0 for row in rows)


def test_oracles_agree_on_jet_corpus(scanned):
    for l in range(-6, 11):
        for side in ("left", "right"):
            m = jet_transition(l, side)
            assert scanned(m) == birkhoff_split(m)


def test_jet_splitting_values():
    for l in range(1, 11):
        assert birkhoff_split(jet_transition(l, "left")) == SplittingType(
            (l - 1, l - 1)
        )
        assert birkhoff_split(jet_transition(l, "right")) == SplittingType(
            (l - 2, l)
        )
    for l in range(-5, 11):
        left = birkhoff_split(jet_transition(l, "left"))
        right = birkhoff_split(jet_transition(l, "right"))
        assert (left == right) == (l == 0)


def test_jet_splittings_have_equal_degree_and_rank():
    for l in range(-5, 11):
        left = birkhoff_split(jet_transition(l, "left"))
        right = birkhoff_split(jet_transition(l, "right"))
        left_sum = LaurentPoly(_multiset_to_terms(left))
        right_sum = LaurentPoly(_multiset_to_terms(right))
        assert (degree(left_sum), left_sum.rank) == (degree(right_sum), right_sum.rank)


def _multiset_to_terms(splitting):
    terms = {}
    for d in splitting.degrees:
        terms[d] = terms.get(d, 0) + 1
    return terms


def test_splitting_type_normalization():
    s = SplittingType((0, 2, -1))
    assert s.degrees == (2, 0, -1)
    assert str(s) == "{-1, 0, 2}"
    assert len(s.degrees) == 3 and sum(s.degrees) == 1
    assert SplittingType((2, 0, -1)) == s


def test_atiyah_class_values():
    assert atiyah_class_p1(0) == 0
    assert atiyah_class_p1(3) == 3
    assert atiyah_class_p1(-4) == -4


def test_atiyah_class_additive():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert atiyah_class_p1(a + b) == atiyah_class_p1(a) + atiyah_class_p1(b)


def test_dlog_residue_extraction():
    form = dlog_of_monomial(LaurentPoly.monomial(3))
    assert form == LaurentPoly({-1: 3})
    assert form.coefficient(-1) == Fraction(3)
    with pytest.raises(ValueError):
        dlog_of_monomial(u(0) + u(1))


def test_dlog_divides_exactly_in_ints():
    # c*u^e has dlog e*u^-1 whatever the unit c, and e stays an int
    for c in (1, -1, 7, -12, Fraction(1, 2), Fraction(-3, 5), Fraction(10**30, 7)):
        for e in (-5, -1, 1, 2, 9):
            form = dlog_of_monomial(LaurentPoly.monomial(e, c))
            assert dict(form.items()) == {-1: e}
            assert type(form.coefficient(-1)) is int
        assert dlog_of_monomial(LaurentPoly.monomial(0, c)).is_zero()
    assert all(type(atiyah_class_p1(l)) is int for l in (-4, 0, 3))


def test_corr_at_zero():
    report = verify_corr_p1(0)
    assert report.verdict == VERIFIED
    left = step_values(report, "left jet transition")["splitting"]
    right = step_values(report, "right jet transition")["splitting"]
    assert sorted(left) == sorted(right) == [-2, 0]


def test_corr_at_one():
    report = verify_corr_p1(1)
    assert report.verdict == VERIFIED
    assert step_values(report, "residue")["residue"] == 1
    assert sorted(step_values(report, "left jet transition")["splitting"]) == [0, 0]
    assert sorted(step_values(report, "right jet transition")["splitting"]) == [-1, 1]


def test_corr_range():
    for l in range(-5, 11):
        assert verify_corr_p1(l).verdict == VERIFIED


def test_matrix_text_round_trip():
    text = "u^2 ; 0\n2*u ; -1"
    m = matrix_from_text(text)
    assert m == jet_transition(2, "left")
    assert matrix_from_text(str(m)) == m


def test_matrix_text_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_text("u ; v\n1 ; 1")
    with pytest.raises(ValueError):
        matrix_from_text("")
    with pytest.raises(ValueError):
        matrix_from_text("u ; 1")  # not square


@pytest.fixture
def expansions(monkeypatch):
    """Sizes of the top-level cofactor expansions run while the test runs;
    the minors an expansion recurses into are not counted."""
    sizes = []
    depth = 0
    real = p1lab._det

    def counting(rows, *charge):
        nonlocal depth
        if depth == 0:
            sizes.append(len(rows))
        depth += 1
        try:
            return real(rows, *charge)
        finally:
            depth -= 1

    monkeypatch.setattr(p1lab, "_det", counting)
    return sizes


def test_one_expansion_per_matrix(expansions, tmp_path, capsys):
    rng = random.Random(5)
    m = matmul(
        random_unimodular(rng, 3, +1),
        diagonal([2, 0, -1]),
        random_unimodular(rng, 3, -1),
    )
    path = tmp_path / "rank3.txt"
    path.write_text(str(m), encoding="utf-8")
    # jetk birkhoff reports the determinant and then splits the matrix
    assert run(["birkhoff", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "{-1, 0, 2}"
    assert expansions == [3]
    # the section counts of every twist read the one determinant
    assert splitting_via_h0(matrix_from_text(str(m))) == SplittingType((2, 0, -1))
    assert expansions == [3, 3]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.randoms(use_true_random=False), st.integers(2, 3), st.integers(-3, 3))
def test_twisted_section_counts_match_the_twisted_matrix(rng, size, k):
    # unimodular conjugates with Fraction entries, so the counts read the
    # rows made primitive at an exponent offset
    degrees = [rng.randint(-3, 3) for _ in range(size)]
    m = matmul(
        random_unimodular(rng, size, +1),
        diagonal(degrees),
        random_unimodular(rng, size, -1),
    )
    unasked = LaurentMatrix(m.rows())
    twisted = LaurentMatrix([[e.shift(k) for e in row] for row in m.rows()])
    assert h0_count(m, k) == h0_count(twisted) == section_count(SplittingType(d + k for d in degrees))
    # whether the determinant and the primitive rows were asked for never shows
    assert m == unasked
    assert hash(m) == hash(unasked)
    assert repr(m) == repr(unasked)
    assert pickle.dumps(m) == pickle.dumps(unasked)
    assert pickle.loads(pickle.dumps(m)) == unasked


def test_non_monomial_determinant_is_never_remembered(expansions, tmp_path, capsys):
    bad = LaurentMatrix(
        [
            [u(1), u(0), LaurentPoly.zero()],
            [u(0), u(0), u(2)],
            [LaurentPoly.zero(), u(0), u(1)],
        ]
    )  # determinant -u^3 + u^2 - u
    for check in (LaurentMatrix.det_monomial, birkhoff_split, h0_count, splitting_via_h0):
        for _ in range(2):
            with pytest.raises(NotATransitionError, match="not a unit monomial"):
                check(bad)
    assert expansions == [3] * 8
    path = tmp_path / "bad.txt"
    path.write_text(str(bad), encoding="utf-8")
    for _ in range(2):
        assert run(["birkhoff", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: determinant of 3 terms is not a unit monomial; "
            "not a vector-bundle transition\n"
        )
