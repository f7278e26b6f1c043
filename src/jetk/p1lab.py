"""Explicit bundle computations on the projective line.

Chart conventions, fixed once for the whole module:

* U0 has coordinate u, U1 has v = 1/u, so dv = -u^-2 du on the overlap.
* A section of O(d) is a pair (f0(u), f1(v)) with f0(u) = u^d * f1(1/u);
  consequently the 1x1 transition matrix (u^d) has splitting type {d}.
* A first-order jet is written in the coordinates (value, derivative),
  i.e. (f, df/du) over U0 and (f, df/dv) over U1.
* The scalar attached to a Cech one-form w(u) du on U0 n U1 is the
  coefficient of u^-1: coboundaries on this cover only contribute
  exponents >= 0 or <= -2, so the coefficient is well defined on
  cohomology classes.  Under this normalization the Atiyah class of
  O(l) evaluates to l.

Coefficients are exact: an integral one stays an ``int`` from the matrix
file to the determinant, and a ``Fraction`` appears only as a literal
``p/q``.  No floating point and no algebraic closure is ever needed.

The splitting type of a transition matrix is computed two independent
ways: ``birkhoff_split`` row-reduces the matrix over u-polynomials until
the leading-coefficient matrix is invertible (the row degrees are then
the splitting degrees, because the residual factor diag(u^-d_i) * M is
unimodular over polynomials in 1/u), and ``splitting_via_h0`` recovers
the degrees from exact global-section counts of twists.  Both start from
the rows made primitive (int coefficients, gcd 1), built once per
matrix: a rational row scale changes neither the splitting nor any
equation's solutions, so their elimination kernel works over Z.  The
determinant, the reduction and the section counts spend from a
``kring.Budget``.
"""

from __future__ import annotations

import functools
import math

from .exact_arith import LaurentPoly, Record, laurent_from_string
from .kring import MUL_BITS, Budget, product_work
from .report import REFUTED, VERIFIED, Report, Step


class NotATransitionError(ValueError):
    """Raised when a matrix determinant is not a unit monomial."""


class SplittingType(Record):
    """Multiset of twist degrees of a bundle on the line, stored descending."""

    __slots__ = ("degrees",)

    def __init__(self, degrees) -> None:
        super().__init__(tuple(sorted((int(d) for d in degrees), reverse=True)))

    def __str__(self):
        return "{" + ", ".join(str(d) for d in sorted(self.degrees)) + "}"


class LaurentMatrix(Record):
    """Square matrix of Laurent polynomials; a transition matrix when its
    determinant is a nonzero monomial.

    The only field is the entry grid.  ``_det_monomial`` and ``_int_rows``
    remember the determinant monomial and the primitive rows once computed;
    they are not fields, so equality, hashing, ``repr`` and pickling never
    see them."""

    __slots__ = ("_entries", "_det_monomial", "_int_rows")

    def __init__(self, entries) -> None:
        rows = [
            tuple(e if isinstance(e, LaurentPoly) else LaurentPoly({0: e}) for e in row)
            for row in entries
        ]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("entries must form a nonempty square grid")
        object.__setattr__(self, "_entries", tuple(rows))
        object.__setattr__(self, "_det_monomial", None)
        object.__setattr__(self, "_int_rows", None)

    def _fields(self) -> tuple:
        return (self._entries,)

    @property
    def size(self) -> int:
        return len(self._entries)

    def rows(self):
        return [list(row) for row in self._entries]

    def det_monomial(self, budget: Budget | None = None) -> tuple:
        """(coefficient, exponent) of the determinant; must be a monomial.

        The cofactor expansion runs at most once per matrix, and spends its
        products from `budget`, a fresh one by default; a determinant that
        is not a monomial is never remembered, so it raises on every call."""
        if self._det_monomial is None:
            budget = budget or Budget()
            budget.step = f"the determinant of a rank-{self.size} matrix"
            sizes = {id(p): _size(p) for row in self._entries for p in row}
            d = _det(self.rows(), budget, sizes)
            if not d.is_monomial():  # zero has no terms
                raise NotATransitionError(
                    f"determinant of {len(d.items())} terms is not a unit monomial; "
                    "not a vector-bundle transition"
                )
            e = d.min_degree
            object.__setattr__(self, "_det_monomial", (d.coefficient(e), e))
        return self._det_monomial

    def _primitive_rows(self, budget: Budget) -> tuple:
        """The rows made primitive, which both elimination kernels start
        from; built once per matrix.  Before that each row spends kring's
        size charge per coefficient at b bits, b those of its largest
        numerator plus those of its distinct denominators, which bound
        their lcm."""
        if self._int_rows is None:
            for row in self._entries:
                ratios = [c.as_integer_ratio() for p in row for _, c in p.items()]
                bits = max((abs(n).bit_length() for n, _ in ratios), default=0)
                bits += sum(d.bit_length() for d in {d for _, d in ratios})
                budget.spend(len(ratios) * product_work(bits, bits))
            object.__setattr__(self, "_int_rows", tuple(map(_primitive, self._entries)))
        return self._int_rows

    def __str__(self):
        return "\n".join(
            " ; ".join(str(e) for e in row) for row in self._entries
        )

    def __repr__(self):
        return f"LaurentMatrix({self.rows()!r})"


# Largest rank a matrix file may have.  The cofactor determinant costs r!
# products: on a 2-vCPU machine a benchmark-shaped rank 8 takes up to about
# 2.5 s and spends up to 83% of its budget, and a dense constant unimodular rank 9
# takes about 4.2 s; rank 10 costs 10x that.
MAX_RANK = 8


def matrix_from_text(text: str) -> LaurentMatrix:
    """Parse a matrix: one row per line, entries separated by ';'."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no matrix rows found")
    if len(lines) > MAX_RANK:
        raise ValueError(f"a matrix of {len(lines)} rows exceeds the limit of {MAX_RANK}")
    return LaurentMatrix(
        [[laurent_from_string(c) for c in line.split(";")] for line in lines]
    )


# Units per term pair a cofactor product multiplies and adds, spent against
# kring.MAX_WORK: DET_WORK for a pair of int terms, FRACTION_DET_WORK for a
# pair with a p/q.  A pair took 0.27 us on ints (rank 8, 15-term entries)
# and 3.8-9.6 us on the p1-split benchmark's dense p/q matrices, overhead
# included (2-vCPU machine shared with other load, Python 3.11), so a unit
# is 0.13-0.38 us.
DET_WORK, FRACTION_DET_WORK = 2, 25


def _size(p: LaurentPoly) -> tuple:
    """(terms, int terms, coefficient bits summed) of p; a p/q counts the
    bits of p and q."""
    ints = bits = 0
    for _, c in p.items():
        if type(c) is int:
            ints += 1
            bits += c.bit_length()
        else:
            num, den = c.as_integer_ratio()
            bits += num.bit_length() + den.bit_length()
    return len(p.items()), ints, bits


def _product_work(a: tuple, b: tuple) -> int:
    """Units of a product of polynomials of _size a and b: each term pair
    at its rate, plus x y / MUL_BITS for a pair of x- and y-bit
    coefficients (kring's size charge less the constant the rates cover),
    summed over the pairs as (sum of x) (sum of y) / MUL_BITS."""
    (na, ia, xa), (nb, ib, xb) = a, b
    return FRACTION_DET_WORK * (na * nb - ia * ib) + DET_WORK * ia * ib + xa * xb // MUL_BITS


def _det(rows, budget: Budget, sizes: dict) -> LaurentPoly:
    """Cofactor expansion along the first row, each product charged before
    it runs; `sizes` maps the id of each entry to its _size, so only the
    minors' determinants are measured as they come."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    sign = 1
    for j in range(n):
        if not rows[0][j].is_zero():
            minor = [
                [rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)
            ]
            minor_det = _det(minor, budget, sizes)
            budget.spend(_product_work(sizes[id(rows[0][j])],
                                       sizes.get(id(minor_det)) or _size(minor_det)))
            term = rows[0][j] * minor_det
            total = total + term if sign > 0 else total - term
        sign = -sign
    return total


# Units per entry of a row an elimination step rewrites, plus kring's size
# charge for its pivot; h0_count adds one per coefficient it reads.  On
# section-count scans of rank 2-6 a unit took 0.11-0.32 us (2-vCPU machine
# shared with other load, Python 3.11).
ELIMINATION_WORK = 2


def _eliminate(rows, ncols, budget: Budget) -> tuple:
    """Fraction-free Gauss-Jordan elimination over Z, in place, of int rows:
    at a pivot p, each other row with an entry f != 0 in its column becomes
    (p*row - f*pivot_row)/g, g the gcd of the new entries.  Returns the
    rank, and when it is below ncols an integral kernel vector:
    x_f = L and x_c = -row_c[f] * L/row_c[c] for c < f, f the first
    non-pivot column and L the lcm of the pivots before it; at full rank,
    None.  Each rewritten row spends ELIMINATION_WORK per entry from
    `budget`, and more for a large pivot."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        top = rows[rank]
        p = top[col]
        bits = abs(p).bit_length()
        work = ncols * (ELIMINATION_WORK + product_work(bits, bits))
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                budget.spend(work)
                row = [p * a - f * b for a, b in zip(row, top)]
                # reduce, not gcd(*row): the tuple that builds raised the
                # p1-split benchmark's peak RSS by about 1 MB at equal query counts
                g = functools.reduce(math.gcd, row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    free = min(set(range(ncols)).difference(pivots), default=None)
    if free is None:
        return ncols, None
    scale = functools.reduce(math.lcm, (rows[c][c] for c in range(free)), 1)
    kernel = [-rows[c][free] * (scale // rows[c][c]) for c in range(free)]
    return len(pivots), kernel + [scale] + [0] * (ncols - free - 1)


# Work units per entry term a Birkhoff step reads, spent against
# kring.MAX_WORK, plus product_work(b, b) when its largest multiplier has
# b bits: kring's charge for a product, with the row coefficient taken to be
# as large, since the multipliers come from the rows' leading coefficients.
# On long entries with small coefficients a step takes 1.0-1.9 us a term
# (2-vCPU machine shared with other load, Python 3.11), so a unit is 0.1-0.2
# us, as in kring.  An entry of n terms takes n steps of up to n terms, so n
# above about 1,400 is refused.
REDUCTION_WORK = 10


def _primitive(row) -> list:
    """The row times the positive rational that makes its coefficients ints
    with gcd 1: the row itself when its coefficients already are."""
    fractions = [c for p in row for _, c in p.items() if type(c) is not int]
    den = functools.reduce(math.lcm, (c.denominator for c in fractions), 1)
    g = 0
    for p in row:
        for _, c in p.items():
            g = math.gcd(g, c.numerator * (den // c.denominator))
            if g == 1 and not fractions:
                return row
    return [LaurentPoly({e: c.numerator * (den // c.denominator) // g for e, c in p.items()})
            for p in row]


def birkhoff_split(m: LaurentMatrix, budget: Budget | None = None) -> SplittingType:
    """Splitting degrees {a_i} with m = A * diag(u^a_i) * B, where A is
    invertible over polynomials in u and B over polynomials in 1/u.

    Row-reduce with unimodular u-polynomial row operations until the
    leading-coefficient matrix (coefficient of u^d_i in row i, d_i the
    row's maximal degree) is invertible.  At that point sum(d_i) equals
    the determinant exponent, so diag(u^-d_i) times the matrix has
    constant nonzero determinant and only nonpositive exponents: it is
    the factor B, and the splitting is {d_i}.  Each reduction step
    cancels the leading terms of one row against rows of smaller or
    equal degree, so sum(d_i) strictly decreases toward the determinant
    exponent and the loop terminates.

    The rows start, and each new row is kept, scaled to int coefficients
    with gcd 1, since scaling a row by a rational is unimodular too.
    Without that the integer kernel multipliers compound: on a product of 20
    elementary 2x2 matrices with one-digit entries the multipliers reached
    400,000 bits.  The determinant and each step spend from `budget`, a
    fresh one by default: a step REDUCTION_WORK per entry term, and more for
    large multipliers.  Past kring.MAX_WORK a ValueError names the step.
    """
    budget = budget or Budget()
    _, det_exp = m.det_monomial(budget)
    r = m.size
    budget.step = f"the Birkhoff reduction of a rank-{r} matrix"
    rows = list(m._primitive_rows(budget))
    degs = [max((e.max_degree for e in row if not e.is_zero()), default=None) for row in rows]
    if None in degs:
        raise AssertionError("zero row in a matrix with nonzero determinant")
    while True:
        # a row combination that cancels the leading terms: a kernel vector
        # of the transposed leading-coefficient matrix
        columns = [
            [rows[i][j].coefficient(degs[i]) for i in range(r)] for j in range(r)
        ]
        _, kernel = _eliminate(columns, r, budget)
        if kernel is None:
            break
        support = [i for i in range(r) if kernel[i] != 0]
        bits = max(map(abs, kernel)).bit_length()
        budget.spend((REDUCTION_WORK + product_work(bits, bits))
                     * sum(len(e.items()) for row in rows for e in row))
        target = max(support, key=lambda i: (degs[i], -i))
        new_row = [LaurentPoly.zero() for _ in range(r)]
        for i in support:
            shift = degs[target] - degs[i]
            for j in range(r):
                new_row[j] = new_row[j] + rows[i][j].shift(shift) * kernel[i]
        new_deg = max((e.max_degree for e in new_row if not e.is_zero()), default=None)
        if new_deg is None or new_deg >= degs[target]:
            raise AssertionError("row reduction failed to lower the degree")
        rows[target], degs[target] = _primitive(new_row), new_deg
    if sum(degs) != det_exp:
        raise AssertionError("row-proper degrees do not match the determinant")
    return SplittingType(tuple(degs))


def h0_count(m: LaurentMatrix, k: int = 0, budget: Budget | None = None) -> int:
    """Dimension of the space of global sections of the k-th twist of the
    bundle glued by m.

    A section is a pair of polynomial vectors (F0(u), F1(v)) with
    F0(u) = u^k m(u) * F1(1/u).  Writing adj/det for the inverse shows
    deg_v F1 <= det_exponent + k - (r-1)*lo, lo the least exponent of m's
    entries, so solving on that coefficient range is exhaustive.  Unknowns
    less the rank of their equations, read at an exponent offset from m's
    primitive rows, by fraction-free elimination over Z, all spent from
    `budget`, a fresh one by default.
    """
    budget = budget or Budget()
    _, det_exp = m.det_monomial(budget)
    r = m.size
    budget.step = f"the section count of a twist of a rank-{r} matrix"
    rows = m._primitive_rows(budget)
    lo = min(e.min_degree for row in rows for e in row if not e.is_zero())
    bound = max(0, det_exp + k - (r - 1) * lo)
    unknowns = r * (bound + 1)
    budget.spend(r * max(0, bound - lo - k) * unknowns)  # a unit per coefficient read
    equations = []
    for i in range(r):
        for e in range(lo - bound, -k):
            row = [rows[i][j].coefficient(e + s) for j in range(r) for s in range(bound + 1)]
            if any(row):
                equations.append(row)
    return unknowns - _eliminate(equations, unknowns, budget)[0]


def splitting_via_h0(m: LaurentMatrix) -> SplittingType:
    """Recover the splitting degrees from section counts of twists.

    h^0 of the k-th twist is sum_i max(0, a_i + k + 1), so h0(k) - h0(k-1)
    counts the a_i >= -k.  No a_i exceeds hi, the highest entry exponent,
    since a Birkhoff step only lowers a row's degree: the scan starts at
    k = -hi-1, where the count is 0, and raises k until it has found all r
    degrees, hi - min(a_i) + 2 counts.  Independent of birkhoff_split.  The
    whole scan spends from one budget.
    """
    budget = Budget()
    _, det_exp = m.det_monomial(budget)
    r = m.size
    k = -max(e.max_degree for row in m.rows() for e in row if not e.is_zero()) - 1
    if h0_count(m, k, budget):
        raise AssertionError("section counts are inconsistent with the determinant")
    degrees, last = [], 0
    while len(degrees) < r:
        k += 1
        count = h0_count(m, k, budget)
        if count - last < len(degrees):
            raise AssertionError("section counts decreased across a twist")
        degrees += [-k] * (count - last - len(degrees))
        last = count
    if len(degrees) != r or sum(degrees) != det_exp:
        raise AssertionError("section counts are inconsistent with the determinant")
    return SplittingType(degrees)


def jet_transition(l: int, side: str) -> LaurentMatrix:
    """Transition matrix of the first-order jet bundle of O(l).

    Left structure, in (value, derivative) coordinates: differentiating
    f0(u) = u^l * f1(1/u) gives the chain-rule coupling

        [[u^l,        0     ],
         [l*u^(l-1), -u^(l-2)]].

    Right structure, in the frame adapted to the right splitting
    Omega^1(x)O(l) + O(l): block diagonal diag(u^(l-2), u^l).  The naive
    jet frame differs from this one by a unimodular change of frame,
    which leaves the splitting type unchanged.
    """
    u = LaurentPoly.monomial
    if side == "left":
        return LaurentMatrix([[u(l), 0], [u(l - 1, l), u(l - 2, -1)]])
    if side == "right":
        return LaurentMatrix([[u(l - 2), 0], [0, u(l)]])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def dlog_of_monomial(g: LaurentPoly) -> LaurentPoly:
    """dlog(g) = g'/g for a monomial transition function g = c*u^e.

    As a Cech one-form (g'/g) du on the overlap U0 n U1, its class in
    H^1(P^1, Omega^1) is the u^-1 coefficient.
    """
    if g.is_zero() or not g.is_monomial():
        raise ValueError(f"dlog needs a monomial transition, got {g}")
    e = g.min_degree
    c = g.coefficient(e)
    # each coefficient of g' is c*e, so the division is exact, an int
    return LaurentPoly({k - e: a // c for k, a in g.derivative().items()})


def atiyah_class_p1(l: int) -> int:
    """Atiyah class of O(l) on the line: the residue of dlog(u^l).

    Equals l under the declared sign convention; zero exactly at l = 0,
    and additive in l.
    """
    return dlog_of_monomial(LaurentPoly.monomial(l)).coefficient(-1)


def verify_corr_p1(l: int) -> Report:
    """Check: the Atiyah class of O(l) vanishes iff the left and right
    first-order jet structures have equal Birkhoff splitting.  Both
    reductions spend from one budget."""
    a_class = atiyah_class_p1(l)
    left_matrix = jet_transition(l, "left")
    right_matrix = jet_transition(l, "right")
    budget = Budget()
    left_split = birkhoff_split(left_matrix, budget)
    right_split = birkhoff_split(right_matrix, budget)
    class_zero = a_class == 0
    splittings_equal = left_split == right_split
    steps = [
        Step(
            "Atiyah class as the residue of dlog(u^l)",
            {"l": l, "residue": a_class},
        ),
        Step(
            "left jet transition in (value, derivative) coordinates "
            "and its Birkhoff splitting",
            {
                "matrix": [e for row in left_matrix.rows() for e in row],
                "splitting": list(left_split.degrees),
            },
        ),
        Step(
            "right jet transition, block diagonal in the frame adapted to "
            "the right splitting (the naive jet frame differs by a "
            "unimodular change, invisible to the splitting)",
            {
                "matrix": [e for row in right_matrix.rows() for e in row],
                "splitting": list(right_split.degrees),
            },
        ),
        Step(
            "class vanishes iff the splittings agree",
            {
                "class_zero": class_zero,
                "splittings_equal": splittings_equal,
                "equivalence_holds": class_zero == splittings_equal,
            },
        ),
    ]
    verdict = VERIFIED if class_zero == splittings_equal else REFUTED
    return Report("atiyah-class-detects-structures", {"l": l}, verdict, steps)
