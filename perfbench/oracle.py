"""Reference answers computed without jetk.

Every expected output the benchmark compares against comes from here, so a
jetk bug cannot hide behind a shared code path:

* K(P^N) classes are coefficient lists in t = 1 - [O(-1)], truncated at
  t^(N+1); a twist is [O(d)] = (1 - t)^(-d), expanded with ``math.comb``.
* Sym^k / Wedge^k of a twist sum come from a generating-function DP over
  the degree sums (unbounded / 0-1 knapsack), not from enumeration.
* Sym^k(Omega) uses the closed form from the Euler sequence,
  sigma_s(Omega) = (1 - s[O(-1)])^-(N+1) * (1 - s), so
  Sym^k Omega = binom(N+k, N)[O(-k)] - binom(N+k-1, N)[O(1-k)].
* J^k(O(l)) is binom(N+k, N) * [O(l-k)].
* Transition matrices are built as A * diag(u^a) * B from invertible
  constant factors, so their splitting degrees are the construction
  degrees a.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# --- K(P^N) in the basis {1, t, ..., t^N} ---------------------------------


def twist(N: int, d: int) -> list:
    if d > 0:
        return [comb(d + i - 1, i) for i in range(N + 1)]
    return [(-1) ** i * comb(-d, i) for i in range(N + 1)]


def add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def scale(c: int, a: list) -> list:
    return [c * x for x in a]


def mul(a: list, b: list) -> list:
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def one(N: int) -> list:
    return [1] + [0] * N


def sum_of_twists(N: int, counts: dict) -> list:
    """Class of sum_D counts[D] * O(D)."""
    out = [0] * (N + 1)
    for d, m in counts.items():
        out = add(out, scale(m, twist(N, d)))
    return out


def power_degrees(twists: list, k: int, wedge: bool) -> dict:
    """{degree sum: count} over size-k multisets (Sym) or subsets (Wedge)."""
    # layer[j] maps a degree sum to the number of size-j choices.
    layer = [dict() for _ in range(k + 1)]
    layer[0][0] = 1
    for d in twists:
        order = range(k, 0, -1) if wedge else range(1, k + 1)
        for j in order:
            for s, c in layer[j - 1].items():
                layer[j][s + d] = layer[j].get(s + d, 0) + c
    return layer[k]


def sym_omega(N: int, k: int) -> list:
    if k == 0:
        return one(N)
    return add(
        scale(comb(N + k, N), twist(N, -k)),
        scale(-comb(N + k - 1, N), twist(N, 1 - k)),
    )


def jet(N: int, k: int, l: int) -> list:
    return scale(comb(N + k, N), twist(N, l - k))


def render_class(coeffs: list) -> str:
    """The CLI's text for a class, e.g. '3 - 3t^2'."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = "t" if i == 1 else f"t^{i}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def render_splitting(degrees) -> str:
    """The CLI's text for a splitting type: ascending, e.g. '{0, 2}'."""
    return "{" + ", ".join(str(d) for d in sorted(degrees)) + "}"


# --- first-order jets on the line ------------------------------------------


def jet_splitting(l: int, side: str) -> list:
    """Splitting of J^1(O(l)) on P^1, descending."""
    if side == "left" and l != 0:
        return [l - 1, l - 1]
    return [l, l - 2]


def jet_table(lmin: int, lmax: int) -> str:
    lines = [f"{'l':>4}  {'left':<12}  {'right':<12}  class"]
    for l in range(lmin, lmax + 1):
        left = render_splitting(jet_splitting(l, "left"))
        right = render_splitting(jet_splitting(l, "right"))
        value = render_class(jet(1, 1, l))
        lines.append(f"{l:>4}  {left:<12}  {right:<12}  {value}")
    return "\n".join(lines)


# --- Laurent matrices with known splitting ----------------------------------


def lmul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ladd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def matmul(a: list, b: list) -> list:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                acc = ladd(acc, lmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _triangular(rng, r: int, lower: bool) -> list:
    """Unit-triangular constant matrix with every off-diagonal entry nonzero."""
    return [
        [
            {0: Fraction(1)} if i == j
            else {0: Fraction(rng.choice((-2, -1, 1, 2)))} if (j < i) == lower
            else {}
            for j in range(r)
        ]
        for i in range(r)
    ]


_SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 2))


def transition_matrix(rng, degrees: list) -> tuple:
    """(rows, det coefficient) of A * diag(u^degrees) * B.

    A = D * L * U and B = L' * U' are constant (D a rational diagonal, the
    others unit-triangular), so every entry of the product is nonzero and
    the splitting type is exactly ``degrees``.
    """
    r = len(degrees)
    scales = [rng.choice(_SCALES) for _ in range(r)]
    dmat = [[{0: scales[i]} if i == j else {} for j in range(r)] for i in range(r)]
    a = matmul(dmat, matmul(_triangular(rng, r, True), _triangular(rng, r, False)))
    b = matmul(_triangular(rng, r, True), _triangular(rng, r, False))
    diag = [[{degrees[i]: Fraction(1)} if i == j else {} for j in range(r)] for i in range(r)]
    det = Fraction(1)
    for s in scales:
        det *= s
    return matmul(matmul(a, diag), b), det


def _term(c: Fraction, e: int) -> str:
    mag = abs(c)
    coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    if e == 0:
        return coeff
    var = "u" if e == 1 else f"u^{e}"
    return var if mag == 1 else f"{coeff}*{var}"


def matrix_text(rows: list) -> str:
    """The ';'-separated file format jetk reads."""
    lines = []
    for row in rows:
        cells = []
        for poly in row:
            if not poly:
                cells.append("0")
                continue
            text = ""
            for e in sorted(poly):
                c = poly[e]
                sign = "-" if c < 0 else "+"
                text += f" {sign} {_term(c, e)}" if text else ("-" if c < 0 else "") + _term(c, e)
            cells.append(text)
        lines.append(" ; ".join(cells))
    return "\n".join(lines) + "\n"


def decimal(value) -> str:
    """How jetk's JSON codec writes an int or Fraction."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
