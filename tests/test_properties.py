"""Property tests over generated sheaf expressions (derandomized hypothesis)."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from jetk import kring
from jetk.exact_arith import TruncPoly
from jetk.sheafdsl import (
    Dual,
    Jet,
    Omega,
    Sum,
    Sym,
    Tensor,
    Twist,
    Wedge,
    evaluate,
    parse,
    print_expr,
)

# The same examples on every run, and no example database left behind.
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

twists = st.builds(Twist, st.integers(-9, 9))
leaves = st.one_of(
    twists,
    st.just(Omega()),
    st.builds(Jet, st.integers(1, 4), twists, st.sampled_from(["left", "right"])),
)


def expressions(depth: int):
    """Trees at most `depth` nodes deep over every node type, powers <= 4."""
    if depth == 0:
        return leaves
    sub = expressions(depth - 1)
    return st.one_of(
        leaves,
        # chains of two or three operands, same-operator chains included
        st.builds(Sum, st.lists(sub, min_size=2, max_size=3)),
        st.builds(Tensor, st.lists(sub, min_size=2, max_size=3)),
        st.builds(Dual, sub),
        st.builds(Sym, st.integers(0, 4), sub),
        st.builds(Wedge, st.integers(0, 4), sub),
    )


@FIXED
@given(expressions(4))
def test_print_then_parse_is_identity(e):
    assert parse(print_expr(e)) == e


@FIXED
@given(expressions(3), expressions(3), st.integers(1, 4))
def test_evaluate_maps_sum_and_tensor_to_ring_operations(a, b, N):
    x, y = evaluate(a, N), evaluate(b, N)
    assert isinstance(x, TruncPoly) and x.modulus_exponent == N + 1
    assert evaluate(Sum((a, b)), N) == x + y
    assert evaluate(Tensor((a, b)), N) == x * y


@FIXED
@given(expressions(3), st.integers(1, 4))
def test_twist_sums_stay_integral(e, N):
    # the twist sum evaluate hands to sum_to_class, taken from the public path
    with mock.patch.object(kring, "sum_to_class", wraps=kring.sum_to_class) as to_class:
        evaluate(e, N)
    s = to_class.call_args.args[0]
    assert all(type(c) is int for _, c in s.items())
