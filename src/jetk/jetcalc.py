"""Jet bundles of line bundles on P^N: K-classes and module-structure certificates.

The k-th jet bundle J^k(O(l)) carries two actions of the structure sheaf.
Its K-class is the same for both.  ``jet_class`` takes it from the series
of ``sheafdsl``; ``verify_ktheory_equality`` checks it against the Euler
recursion through the fundamental exact sequences and the closed form:

    [J^k(O(l))] = sum_{i<=k} [Sym^i Omega^1] * [O(l)]
                = binom(N+k, N) * [O(l-k)].

At first order the two module structures decompose differently:

    left:   O(l-1)^(N+1)                 (l >= 1)
    right:  Omega^1 (x) O(l)  +  O(l)    (the jet projection is right split)

``prove_non_isomorphic`` certifies that no isomorphism between them exists
for l >= 1: a split summand O(l) of the right structure would embed into
O(l-1)^(N+1), but Hom(O(l), O(l-1)) = H^0(O(-1)) = 0.
"""

from __future__ import annotations

from .exact_arith import TruncPoly, binom
from .kring import Budget, class_of_twist, sym_omega
from .report import Check, Report, Step
from .sheafdsl import Jet, Omega, Tensor, Twist, evaluate


def jet_class(N: int, k: int, l: int, budget: Budget) -> TruncPoly:
    """[J^k(O(l))] on P^N, the same for both sides, by the lambda-ring series,
    its work spent from `budget`."""
    return evaluate(Jet(k, Twist(l), "left"), N, budget)


def verify_ktheory_equality(N: int, k: int, l: int) -> Report:
    """Check that the series ``jet_class``, the Euler recursion ``sym_omega``
    telescoped over Sym^i Omega^1, and binom(N+k,N)*[O(l-k)] give one class,
    that of either module structure.  A refutation would indicate a bug.
    The recursion, the series and both twist classes spend from one
    budget; more than ``sheafdsl.MAX_WORK`` operations is a ValueError.
    """
    # The recursion takes about k^2 (N+26) / 2 ring coefficient operations,
    # 0.25-0.44 us each on a 2-vCPU machine (N, k <= 1000): 1.5 units each.
    budget = Budget()
    if k > 0:
        budget.spend(3 * k * k * (N + 26) // 4, f"-N {N} -k {k}")
    series = jet_class(N, k, l, budget)
    twist_class = class_of_twist(N, l, budget)
    telescoped = TruncPoly(N + 1)
    for i in range(k + 1):
        telescoped = telescoped + sym_omega(N, i) * twist_class
    closed = binom(N + k, N) * class_of_twist(N, l - k, budget)
    equal = series == telescoped == closed
    steps = [
        Step(
            "lambda-ring series Sym^k(Omega^1 + O) (x) O(l) (both module structures)",
            {"coefficients": list(series.coeffs)},
        ),
        Step(
            "telescoped class sum_{i<=k} [Sym^i Omega^1]*[O(l)] "
            "by the Euler-sequence recursion",
            {"coefficients": list(telescoped.coeffs)},
        ),
        Step(
            "closed form binom(N+k,N)*[O(l-k)]",
            {
                "multiplicity": binom(N + k, N),
                "coefficients": list(closed.coeffs),
            },
        ),
        Check(
            "coefficientwise comparison of the three classes",
            {"equal": equal},
            equal,
        ),
    ]
    return Report("ktheory-equality", {"N": N, "k": k, "l": l}, steps)


def prove_non_isomorphic(N: int, l: int) -> Report:
    """Certify whether the left and right structures of J^1(O(l)) differ.

    l >= 1: non-isomorphic, since Hom(O(l), O(l-1)) = H^0(O(-1)) = 0, a
    fact stated as a step; the report checks that both structures have the
    same K-class, and a mismatch, an implementation bug, refutes it.
    l = 0: refuted by the vanishing Atiyah class, c1 of O(l), read from its
    class (the universal derivation splits the jet projection on the left
    as well, so both structures are Omega^1 + O).  l < 0: inapplicable at
    this level, with no check; on the projective line the explicit
    transition-matrix oracle decides.
    Omega^1 (x) O(l) and both twist classes spend from one budget.
    """
    if N < 1:
        raise ValueError("N must be positive")
    params = {"N": N, "k": 1, "l": l}
    if l < 0:
        steps = [
            Step(
                "the left splitting is certified only for l >= 1; "
                "for N=1 the Birkhoff oracle on explicit transition "
                "matrices decides (see the projective-line toolkit)",
                {"pointer": "p1lab.verify_corr_p1", "l": l},
            )
        ]
        return Report("jet-structures-non-isomorphic", params, steps)
    if l == 0:
        # the Atiyah class of O(l) is c1 = l, the t-coefficient of its class;
        # the structures differ exactly where it is not 0
        c1 = class_of_twist(N, l, Budget()).coeffs[1]
        steps = [
            Check(
                "f -> (df, f) is left-linear and splits the jet projection "
                "of J^1(O); both structures decompose as Omega^1 + O",
                {"atiyah_class_vanishes": c1 == 0, "c1": c1},
                c1 != 0,
            )
        ]
        return Report("jet-structures-non-isomorphic", params, steps)

    budget = Budget()  # Omega (x) O(l) first: its twists l - 1 and l bound the classes' work
    right_omega = evaluate(Tensor((Omega(), Twist(l))), N, budget)
    twist_class = class_of_twist(N, l, budget)
    left_class = (N + 1) * class_of_twist(N, l - 1, budget)
    right_class = right_omega + twist_class
    steps = [
        Step(
            "right structure contains O(l) as a direct summand "
            "(the jet projection is right split)",
            {"free_summand_twist": l, "omega_part": list(right_omega.coeffs)},
        ),
        Step(
            "left structure splits as O(l-1)^(N+1)",
            {"twist": l - 1, "multiplicity": N + 1, "rank": N + 1},
        ),
        Step(
            "Hom(O(l), O(l-1)) = H^0(O(-1)) = 0, so O(l) admits no nonzero "
            "map to the left structure, hence no split embedding",
            {"hom_dim": 0},  # a fact on every P^N, not a computation
        ),
        Check(
            "class-level consistency: both structures have equal K-class",
            {"left": list(left_class.coeffs), "right": list(right_class.coeffs)},
            left_class == right_class,
        ),
    ]
    return Report("jet-structures-non-isomorphic", params, steps)
