"""Tests for the sheaf-expression parser, printer, and evaluator."""

import copy
import pickle
import random
import re

import pytest

from jetk.exact_arith import LaurentPoly, TruncPoly, binom
from jetk.jetcalc import jet_class
from jetk.kring import Budget, class_of_twist, sum_to_class, sym_omega, sym_power
from jetk.sheafdsl import (
    MAX_DEPTH,
    MAX_POWER,
    MAX_WORK,
    Dual,
    Jet,
    Omega,
    ParseError,
    RangeError,
    Sum,
    Sym,
    Tensor,
    Twist,
    Wedge,
    evaluate,
    parse,
    print_expr,
)


def test_parse_jet():
    assert parse("J1(O(3), left)") == Jet(1, Twist(3), "left")


def test_parse_sym_tensor():
    assert parse("Sym2(Omega) * O(5)") == Tensor((Sym(2, Omega()), Twist(5)))


def test_parse_bare_structure_sheaf():
    assert parse("O") == Twist(0)
    assert parse("O + O(1)") == Sum((Twist(0), Twist(1)))
    assert print_expr(parse("O")) == "O(0)"


def test_parse_negative_twist_and_parens():
    assert parse("(O(-2) + O(1)) * dual(O(3))") == Tensor(
        (Sum((Twist(-2), Twist(1))), Dual(Twist(3)))
    )


def test_parse_left_associativity():
    # a chain is one node; only parentheses nest one chain in another
    assert parse("O(1) + O(2) + O(3)") == Sum((Twist(1), Twist(2), Twist(3)))
    assert parse("(O(1) + O(2)) + O(3)") == Sum((Sum((Twist(1), Twist(2))), Twist(3)))
    assert parse("O(1) * O(2) * O(3)") == Tensor((Twist(1), Twist(2), Twist(3)))
    assert parse("O(1) * (O(2) * O(3))") == Tensor((Twist(1), Tensor((Twist(2), Twist(3)))))
    assert parse("O(1) * O(2) + O(3)") == Sum((Tensor((Twist(1), Twist(2))), Twist(3)))


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as info:
        parse("O(2) + + O(1)")
    assert info.value.position == 7
    assert info.value.expected  # nonempty expected-token set


def test_parse_error_cases():
    for bad in ["", "O(", "O(2", "Sym(O(1))", "J1(O(1))", "J1(Omega, left)",
                "O(2) O(3)", "dual O(1)", "J1(O(1), up)", "O(\u00b2)"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_range_error_for_jet_order_zero():
    with pytest.raises(RangeError) as info:
        parse("J0(O(1), left)")
    assert info.value.position == 1


def test_print_examples():
    assert print_expr(Jet(1, Twist(3), "left")) == "J1(O(3), left)"
    assert print_expr(Sum((Twist(0), Twist(2)))) == "O(0) + O(2)"
    assert print_expr(Tensor((Sum((Twist(1), Twist(2))), Twist(3)))) == "(O(1) + O(2)) * O(3)"
    assert print_expr(Sum((Twist(1), Twist(2), Tensor((Twist(3), Omega()))))) == (
        "O(1) + O(2) + O(3) * Omega"
    )


def test_print_preserves_association():
    a, b, c = Twist(1), Twist(2), Twist(3)
    for nested in (Sum((a, Sum((b, c)))), Sum((Sum((a, b)), c)),
                   Tensor((a, Tensor((b, c)))), Tensor((Tensor((a, b)), c)),
                   Tensor((Sum((a, b)), c))):
        assert parse(print_expr(nested)) == nested
    assert print_expr(Sum((Sum((a, b)), c))) == "(O(1) + O(2)) + O(3)"
    assert print_expr(Tensor((a, Tensor((b, c))))) == "O(1) * (O(2) * O(3))"


def _operands(gen, rng, depth):
    """Two to four subtrees: a chain's operands, same-operator chains included."""
    return tuple(gen(rng, depth - 1) for _ in range(rng.randint(2, 4)))


def _random_expr(rng, depth):
    if depth == 0:
        return Twist(rng.randint(-9, 9)) if rng.random() < 0.7 else Omega()
    kind = rng.choice(["sum", "tensor", "dual", "sym", "wedge", "jet", "leaf"])
    if kind == "leaf":
        return _random_expr(rng, 0)
    if kind == "sum":
        return Sum(_operands(_random_expr, rng, depth))
    if kind == "tensor":
        return Tensor(_operands(_random_expr, rng, depth))
    if kind == "dual":
        return Dual(_random_expr(rng, depth - 1))
    if kind == "sym":
        return Sym(rng.randint(0, 3), _random_expr(rng, depth - 1))
    if kind == "wedge":
        return Wedge(rng.randint(0, 3), _random_expr(rng, depth - 1))
    return Jet(rng.randint(1, 3), Twist(rng.randint(-9, 9)), rng.choice(["left", "right"]))


def test_round_trip_on_generated_corpus():
    rng = random.Random(2718)
    corpus = [_random_expr(rng, rng.randint(0, 4)) for _ in range(25)]
    for expr in corpus:
        assert parse(print_expr(expr)) == expr


def test_evaluate_structure_and_zero_twist():
    for N in range(1, 5):
        assert evaluate(parse("O(0)"), N) == TruncPoly.one(N + 1)
        assert evaluate(parse("O"), N) == TruncPoly.one(N + 1)


def test_evaluate_jet_on_line():
    assert evaluate(parse("J1(O(2), right)"), 1).coeffs == (2, 2)


def test_evaluate_sym_omega_tensor():
    got = evaluate(parse("Sym2(Omega) * O(3)"), 2)
    assert got == sym_omega(2, 2) * class_of_twist(2, 3)


def test_evaluate_split_operations():
    got = evaluate(parse("Sym2(O(1) + O(0))"), 1)
    expected = sum_to_class(sym_power(LaurentPoly({1: 1, 0: 1}), 2), 1)
    assert got == expected
    assert evaluate(parse("dual(O(3) + O(-1))"), 2) == sum_to_class(
        LaurentPoly({-3: 1, 1: 1}), 2
    )
    assert evaluate(parse("Wedge2(O(1) + O(4))"), 1) == class_of_twist(1, 5)


def test_evaluate_wedge_of_omega_on_line():
    assert evaluate(parse("Wedge0(Omega)"), 1) == TruncPoly.one(2)
    assert evaluate(parse("Wedge1(Omega)"), 1) == sym_omega(1, 1)
    assert evaluate(parse("Wedge2(Omega)"), 1) == TruncPoly(2)


def test_wedge_of_omega_is_koszul():
    # 0 -> Omega^p -> Wedge^p O(-1)^(N+1) -> Omega^(p-1) -> 0, unrolled
    for N in range(1, 6):
        for p in range(0, N + 3):
            koszul = TruncPoly(N + 1)
            for j in range(p + 1):
                koszul = koszul + (-1) ** (p - j) * binom(N + 1, j) * class_of_twist(N, -j)
            assert evaluate(parse(f"Wedge{p}(Omega)"), N) == koszul
            if p > N:
                assert koszul == TruncPoly(N + 1)
        assert evaluate(parse(f"Wedge{N}(Omega)"), N) == class_of_twist(N, -N - 1)


def test_dual_of_omega_from_euler_sequence():
    for N in range(1, 6):
        assert evaluate(parse("dual(Omega)"), N) == (N + 1) * class_of_twist(N, 1) - 1


def test_powers_of_first_order_left_jet():
    # J^1(O(l)) is O(l-1)^(N+1) as a left module for l >= 1
    for N in range(1, 4):
        for l in range(1, 4):
            for k in range(0, 5):
                twist = class_of_twist(N, k * (l - 1))
                sym = evaluate(parse(f"Sym{k}(J1(O({l}), left))"), N)
                wedge = evaluate(parse(f"Wedge{k}(J1(O({l}), left))"), N)
                assert sym == binom(N + k, k) * twist
                assert wedge == binom(N + 1, k) * twist
            dual = evaluate(parse(f"dual(J1(O({l}), left))"), N)
            assert dual == (N + 1) * class_of_twist(N, 1 - l)


def test_series_matches_euler_recursion():
    for N in range(1, 6):
        for k in range(0, 9):
            assert evaluate(Sym(k, Omega()), N) == sym_omega(N, k)
        for k in range(1, 7):
            for l in range(-4, 5):
                got = evaluate(parse(f"J{k}(O({l}), right)"), N)
                assert got == jet_class(N, k, l, Budget())


def _random_split_expr(rng, depth):
    if depth == 0:
        return Twist(rng.randint(-6, 6))
    kind = rng.choice(["sum", "tensor", "sym", "wedge", "dual", "leaf"])
    if kind == "leaf":
        return _random_split_expr(rng, 0)
    if kind == "sum":
        return Sum(_operands(_random_split_expr, rng, depth))
    if kind == "tensor":
        return Tensor(_operands(_random_split_expr, rng, depth))
    if kind == "sym":
        return Sym(rng.randint(0, 2), _random_split_expr(rng, depth - 1))
    if kind == "wedge":
        return Wedge(rng.randint(0, 2), _random_split_expr(rng, depth - 1))
    return Dual(_random_split_expr(rng, depth - 1))


def test_evaluate_is_ring_homomorphism_on_split_fragment():
    rng = random.Random(314)
    for gen in (_random_split_expr, _random_expr):
        for _ in range(30):
            N = rng.randint(1, 4)
            a = gen(rng, rng.randint(0, 2))
            b = gen(rng, rng.randint(0, 2))
            assert evaluate(Sum((a, b)), N) == evaluate(a, N) + evaluate(b, N)
            assert evaluate(Tensor((a, b)), N) == evaluate(a, N) * evaluate(b, N)


def test_evaluate_ignores_jet_side():
    for N in range(1, 4):
        for l in range(-4, 5):
            left = evaluate(parse(f"J1(O({l}), left)"), N)
            right = evaluate(parse(f"J1(O({l}), right)"), N)
            assert left == right


def test_node_constructors_validate():
    with pytest.raises(ValueError):
        Sym(-1, Twist(0))
    with pytest.raises(ValueError):
        Wedge(-1, Twist(0))
    with pytest.raises(ValueError):
        Jet(0, Twist(1), "left")
    with pytest.raises(ValueError):
        Jet(1, Omega(), "left")
    with pytest.raises(ValueError):
        Jet(1, Twist(1), "up")
    for chain in (Sum, Tensor):
        for operands in ((), (Twist(1),)):
            with pytest.raises(ValueError, match="needs at least two operands"):
                chain(operands)


def test_nodes_are_immutable_values():
    x, y = Twist(1), Omega()
    assert Sum((x, y)) != Tensor((x, y)) and Sum((x, y)) != Sum((y, x))
    assert parse("O") == Twist(0) != Omega()
    a, b = parse("Sym2(O(1) + O(2)) * dual(O(3))"), parse("Sym2(O(1)+O(2))*dual(O(3))")
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    assert repr(Twist(3)) == "Twist(d=3)"
    assert repr(Sum((Twist(1), Omega()))) == "Sum(terms=(Twist(d=1), Omega()))"
    with pytest.raises(AttributeError, match="Twist is immutable"):
        x.d = 2
    assert x == Twist(1)


def test_parse_depth_limit():
    assert parse(" + ".join(["O(1)"] * (MAX_DEPTH + 1))) is not None
    assert parse("(" * MAX_DEPTH + "O(1)" + ")" * MAX_DEPTH) == Twist(1)
    with pytest.raises(RangeError) as info:
        parse("(" * (MAX_DEPTH + 1) + "O(1)" + ")" * (MAX_DEPTH + 1))
    assert info.value.position == MAX_DEPTH
    with pytest.raises(RangeError):
        parse("dual(" * (MAX_DEPTH + 1) + "O(1)" + ")" * (MAX_DEPTH + 1))
    # a flat chain is one level however long; a Sum/Tensor node inside the
    # deepest group is one too many
    assert evaluate(parse(" + ".join(["O(1)"] * 1500)), 1).coeffs == (1500, 1500)
    assert evaluate(parse(" * ".join(["O(1)"] * 1500)), 1).coeffs == (1, 1500)
    with pytest.raises(RangeError) as info:
        parse("(" * MAX_DEPTH + "O" + "*O+O)" * MAX_DEPTH)
    assert info.value.position == MAX_DEPTH + 1
    assert parse(f"Sym{MAX_POWER}(O(1))") == Sym(MAX_POWER, Twist(1))
    for text, position in [(f"Wedge{MAX_POWER + 1}(O(1))", 5),
                           (f"J{MAX_POWER + 1}(O(0), left)", 1),
                           ("O(2) * Sym99999999999(O(1))", 10),
                           # past the digits int() converts
                           ("O(" + "9" * 5000 + ")", 2),
                           ("O(-" + "9" * 5000 + ")", 3),
                           ("Sym" + "9" * 5000 + "(O(1))", 3),
                           ("J" + "9" * 5000 + "(O(0), left)", 1)]:
        with pytest.raises(RangeError) as info:
            parse(text)
        assert info.value.position == position


# The deepest tree of each shape the parser admits, and the position at which
# one level more is refused: each group, dual/Sym argument and Sum/Tensor node
# is a level, whatever the length of a chain.
_DEEPEST = [
    (lambda k: "(" * k + "O(1)" + ")" * k, MAX_DEPTH, MAX_DEPTH),
    (lambda k: "dual(" * k + "O(1)" + ")" * k, MAX_DEPTH, 5 * MAX_DEPTH + 4),
    (lambda k: "Sym1(" * k + "O(1)" + ")" * k, MAX_DEPTH, 5 * MAX_DEPTH + 4),
    # a Tensor, a group and a Sum a step
    (lambda k: "O * (O + " * k + "O" + ")" * k, 33, 9 * 33 + 4),
    # the chains come after the groups close, so only the innermost counts
    (lambda k: "(" * k + "O*O+O" + ")*O+O" * k, MAX_DEPTH - 1, MAX_DEPTH + 1),
]


def test_deepest_admitted_trees_survive_every_operation():
    for shape, deepest, position in _DEEPEST:
        text = shape(deepest)
        tree = parse(text)
        assert parse(print_expr(tree)) == tree == parse(text)
        assert hash(tree) == hash(parse(text))
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree
        assert isinstance(evaluate(tree, 2), TruncPoly)
        with pytest.raises(RangeError, match=f"deeper than {MAX_DEPTH} levels") as info:
            parse(shape(deepest + 1))
        assert info.value.position == position


def test_evaluate_work_budget():
    # parse charges nothing; evaluate charges each step from its real
    # operands and N, the whole expression against one budget
    admitted = [("Sym24(Sym24(O(1) + O(2)))", 3),
                (f"Sym{MAX_POWER}(O(1) + O(2)) * Sym{MAX_POWER}(O(1) + O(2))", 1),
                # the parser's prediction refused this tower; it runs in ~0.3 s
                ("Sym25(Sym25(O(1) + O(2)))", 3),
                # its factors vanish past multiplicity 1; ~0.1 s
                ("Wedge40(Sym40(O(1) + O(2)))", 3),
                # 9.8e6 units, 0.8-1.0 s
                ("Wedge80(Sym80(O(1) + O(2)))", 3),
                # 9.4e6 units with a tensor pair at 1.5 units, ~1 s
                ("Sym1000(O(1) + O(2)) * Sym1000(O(1) + O(3)) * Sym600(O(1) + O(5))", 1)]
    for text, N in admitted:
        assert isinstance(evaluate(parse(text), N), TruncPoly)
    # a series counts as it runs and stops past the budget, so its number is
    # a lower bound; a product and the final class are charged in full first
    rejected = [("Sym40(Sym40(O(1) + O(2)))", 3, "Sym40 of a twist sum of length 41", "at least"),
                # its series alone takes over 10 s
                ("O(1) * Wedge100(Sym20(O(0) + O(1) + O(5)))", 1,
                 "Wedge100 of a twist sum of length 95", "at least"),
                ("J1(O(1), left) + Sym1000(O(1) + O(2) + O(3))", 1,
                 "Sym1000 of a twist sum of length 3", "at least"),
                # each power fits the budget, the product with the third does not
                ("Sym1000(O(1) + O(2)) * Sym1000(O(1) + O(3)) * Sym1000(O(1) + O(5))", 1,
                 "a product of twist sums of lengths 3001 and 1001", "about"),
                # 1.02e7 units: just over
                ("Sym1000(O(1) + O(2)) * Sym1000(O(1) + O(3)) * Sym700(O(1) + O(5))", 1,
                 "a product of twist sums of lengths 3001 and 701", "about"),
                # sum_to_class takes N steps per positive twist
                (" + ".join(f"O({d})" for d in range(1, 101)), 10**5,
                 "the class on P^100000 of a twist sum of length 100", "about")]
    for text, N, step, need in rejected:
        tree = parse(text)
        with pytest.raises(ValueError) as info:
            evaluate(tree, N)
        assert not isinstance(info.value, ParseError)
        match = re.fullmatch(rf"{re.escape(step)} needs {need} (\d+) coefficient operations, "
                             rf"over the budget of {MAX_WORK}", str(info.value))
        assert match and int(match[1]) > MAX_WORK, str(info.value)
    # a tree built in code is charged the same as a parsed one
    tower = Sym(1000, Sym(1000, Sym(1000, Sum((Twist(0), Twist(0))))))
    with pytest.raises(ValueError, match="^Sym1000 of a twist sum of length 1 needs at least "):
        evaluate(tower, 2)
