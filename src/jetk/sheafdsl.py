"""A small expression language for sheaf classes on P^N.

Grammar (whitespace insignificant, ASCII digits, integers may be negative):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := 'O' '(' int ')' | 'O' | 'Omega'
            | 'dual' '(' expr ')'
            | 'Sym' nat '(' expr ')' | 'Wedge' nat '(' expr ')'
            | 'J' nat '(' 'O' '(' int ')' ',' ('left'|'right') ')'
            | '(' expr ')'

'+' is direct sum, '*' is tensor product; both parse left associated.
A bare 'O' is the structure sheaf.  The jet argument is a single twist;
its side does not change the class, but splitting queries dispatch on it.
Evaluation maps every node to a sum of twists, with Omega = (N+1) O(-1) - O
by the Euler sequence.  Powers and jet orders are at most MAX_POWER; the
interpreter charges each power, product and the final map to K(P^N) against
the work budget MAX_WORK from the real operands and N before running it.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import kring
from .exact_arith import LaurentPoly, Record, TruncPoly

SIDES = ("left", "right")  # the two module structures of a jet bundle


class ParseError(ValueError):
    """Syntax error with the offending position and the expected tokens."""

    def __init__(self, position: int, expected, found: str):
        self.position = position
        self.expected = frozenset(expected)
        self.found = found
        wanted = ", ".join(sorted(self.expected))
        super().__init__(f"at position {position}: "
                         + (f"expected {wanted}, found {found}" if wanted else found))


class RangeError(ParseError):
    """A structurally valid expression with an out-of-range parameter or depth."""

    def __init__(self, position: int, message: str):
        super().__init__(position, (), message)


class Twist(Record):
    __slots__ = ("d",)


class Omega(Record):
    __slots__ = ()


class Structure(Record):
    __slots__ = ()


class Sum(Record):
    __slots__ = ("left", "right")


class Tensor(Record):
    __slots__ = ("left", "right")


class Dual(Record):
    __slots__ = ("arg",)


class _Power(Record):
    __slots__ = ()

    def __init__(self, power: int, arg) -> None:
        if power < 0:
            raise ValueError(f"{type(self).__name__} power must be nonnegative")
        super().__init__(power, arg)


class Sym(_Power):
    __slots__ = ("power", "arg")


class Wedge(_Power):
    __slots__ = ("power", "arg")


class Jet(Record):
    __slots__ = ("order", "arg", "side")

    def __init__(self, order: int, arg: Twist, side: str) -> None:
        if order < 1:
            raise ValueError("jet order must be at least 1")
        if not isinstance(arg, Twist):
            raise ValueError("jet argument must be a twist")
        if side not in SIDES:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        super().__init__(order, arg, side)


_FACTOR_EXPECTED = {"'O'", "'Omega'", "'dual'", "'Sym'", "'Wedge'", "'J'", "'('"}


# Deepest tree the parser builds.  Parsing, evaluating and comparing a tree
# recurse per level, so this stays well below the recursion limit (1000).
MAX_DEPTH = 100

# Largest Sym/Wedge power and jet order.  The series behind them costs about
# power^2 products of twist sums, so larger ones would not finish.
MAX_POWER = 1000

_SYMBOLS, _DIGITS = "()+*,-", "0123456789"  # ASCII: int() would also read '٣' as 3


class _Parser:
    def __init__(self, text: str):
        self.tokens, pos, n = [], 0, len(text)
        while pos < n:
            ch, start = text[pos], pos
            if ch.isspace():
                pos += 1
                continue
            if ch in _SYMBOLS:
                kind, pos = ch, pos + 1
            elif ch in _DIGITS:
                kind = "nat"
                while pos < n and text[pos] in _DIGITS:
                    pos += 1
            elif ch.isalpha():
                kind = "word"
                while pos < n and text[pos].isalpha():
                    pos += 1
            else:
                raise ParseError(pos, {"a token"}, repr(ch))
            self.tokens.append((kind, text[start:pos], start))
        self.tokens.append(("end", "", n))
        self.index = self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect(self, kind: str, description: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], {description}, repr(tok[1]) if tok[1] else "end of input")
        return self.advance()

    def _nest(self, position: int) -> None:
        """Count one level of the tree being built: a group or a Sum/Tensor link."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise RangeError(position, f"expression nests deeper than {MAX_DEPTH} levels")

    def _group(self, position: int):
        """An expression one level down, up to its closing ')'."""
        self._nest(position)
        parsed = self._expr()
        self.expect(")", "')'")
        self.depth -= 1
        return parsed

    def _expr(self):
        outer = self.depth
        node = self._term()
        while self.peek()[0] == "+":
            self._nest(self.advance()[2])
            node = Sum(node, self._term())
        self.depth = outer
        return node

    def _term(self):
        outer = self.depth
        node = self._factor()
        while self.peek()[0] == "*":
            self._nest(self.advance()[2])
            node = Tensor(node, self._factor())
        self.depth = outer
        return node

    def _literal(self, what: str) -> tuple:
        """A digit token as an int, and its position."""
        tok = self.expect("nat", what)
        try:
            return int(tok[1]), tok[2]
        except ValueError:  # more digits than int() converts
            raise RangeError(tok[2], f"{what} of {len(tok[1])} digits is too long") from None

    def _int(self) -> int:
        sign = -1 if self.peek()[0] == "-" and self.advance() else 1
        return sign * self._literal("an integer")[0]

    def _nat(self, what: str) -> tuple:
        """A power or jet order, at most MAX_POWER, and its position."""
        value, position = self._literal(what)
        if value > MAX_POWER:
            raise RangeError(position, f"{value} exceeds the limit of {MAX_POWER} for {what}")
        return value, position

    def _factor(self):
        tok = self.peek()
        if tok[0] == "(":
            return self._group(self.advance()[2])
        word = tok[1]
        if tok[0] != "word" or f"'{word}'" not in _FACTOR_EXPECTED:
            raise ParseError(tok[2], _FACTOR_EXPECTED, repr(word) if word else "end of input")
        self.advance()
        if word == "O":
            if self.peek()[0] == "(":
                self.advance()
                d = self._int()
                self.expect(")", "')'")
                return Twist(d)
            return Structure()
        if word == "Omega":
            return Omega()
        if word == "dual":
            return Dual(self._group(self.expect("(", "'('")[2]))
        if word in ("Sym", "Wedge"):
            k, _ = self._nat("a power")
            node = self._group(self.expect("(", "'('")[2])
            return Sym(k, node) if word == "Sym" else Wedge(k, node)
        if word == "J":
            k, kpos = self._nat("a jet order")
            if k < 1:
                raise RangeError(kpos, f"jet order must be at least 1, got {k}")
            self.expect("(", "'('")
            otok = self.expect("word", "'O'")
            if otok[1] != "O":
                raise ParseError(otok[2], {"'O'"}, repr(otok[1]))
            self.expect("(", "'('")
            l = self._int()
            self.expect(")", "')'")
            self.expect(",", "','")
            stok = self.expect("word", "'left' or 'right'")
            if stok[1] not in SIDES:
                raise ParseError(stok[2], {"'left'", "'right'"}, repr(stok[1]))
            self.expect(")", "')'")
            return Jet(k, Twist(l), stok[1])


def parse(text: str):
    """Parse an expression; raises ParseError/RangeError on bad input."""
    parser = _Parser(text)
    expr = parser._expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(tok[2], {"'+'", "'*'", "end of input"}, repr(tok[1]))
    return expr


def print_expr(e) -> str:
    """Canonical text for an expression; parse(print_expr(e)) == e."""
    if isinstance(e, Twist):
        return f"O({e.d})"
    if isinstance(e, Structure):
        return "O"
    if isinstance(e, Omega):
        return "Omega"
    if isinstance(e, Sum):
        right = print_expr(e.right)
        if isinstance(e.right, Sum):
            right = f"({right})"
        return f"{print_expr(e.left)} + {right}"
    if isinstance(e, Tensor):
        left = print_expr(e.left)
        if isinstance(e.left, Sum):
            left = f"({left})"
        right = print_expr(e.right)
        if isinstance(e.right, (Sum, Tensor)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(e, Dual):
        return f"dual({print_expr(e.arg)})"
    if isinstance(e, (Sym, Wedge)):
        return f"{type(e).__name__}{e.power}({print_expr(e.arg)})"
    if isinstance(e, Jet):
        return f"J{e.order}(O({e.arg.d}), {e.side})"
    raise TypeError(f"not an expression node: {e!r}")


# Most work one evaluation may do, in units of about one step of a series or
# product loop on small ints.  On top of its step, a product of an a-bit and
# a b-bit int costs a*b / _MUL_BITS, a ratio step c * f // i of sum_to_class
# bits(c) (100 + bits(f)) / _MUL_BITS, and a new term _TERM_WORK.  Timed over
# 60 shapes on a 2-vCPU machine (Python 3.11), a unit took at most 0.36 us, so
# a budget is a few seconds at most: Sym1000(O(1) + O(2)) at N = 1000 is
# charged 7.4e6 (1.3 s) and Sym40(Sym40(O(1) + O(2))) 1.2e7 (3.3 s).
MAX_WORK = 10**7
_MUL_BITS, _TERM_WORK = 10**5, 4


def charge(spent: int, work: int, what: str) -> int:
    """spent + work; a ValueError naming the step `what` if that exceeds MAX_WORK."""
    spent += work
    if spent > MAX_WORK:
        raise ValueError(f"{what} needs about {spent} coefficient operations, "
                         f"over the budget of {MAX_WORK}")
    return spent


def _bits(n: int, k: int) -> float:
    """At least log2 binom(n + k, k) for n, k >= 0, as binom(a, m) <= (e a/m)^m."""
    m = min(n, k)
    return m * (math.log2(n + k) - math.log2(m) + 1.45) if m else 0.0


def _extent(s: LaurentPoly) -> tuple:
    """Term count, largest |multiplicity|, lowest and highest twist of a sum."""
    sizes = [abs(c) for _, c in s.items()]
    return len(sizes), max(sizes, default=0), s.min_degree or 0, s.max_degree or 0


def _series_cost(s: LaurentPoly, k: int, sign: int) -> int:
    """Work of kring's Sym^k (sign -1) or Wedge^k (sign 1) series, pair for pair.
    Like the series, twist i of multiplicity m makes level j from the held
    levels j - r, r = 0..rmax (rmax = |m| if sign*m > 0, else k); a level holds
    at most the products that made it and j*S + 1 terms, S the span of the
    twists so far.  A product is of the bits of binom(|m|+k-1, k) and of
    binom(R+k-1, k), R the total |multiplicity|.  Counting stops once past
    MAX_WORK, where the step is refused anyway."""
    held = _bits(max(sum(abs(m) for _, m in s.items()) - 1, 0), k) / _MUL_BITS
    work, levels, lo, hi = 0, [1], math.inf, -math.inf  # terms of each held level
    for d, m in s.items():
        lo, hi = min(lo, d), max(hi, d)
        rmax, top = min(abs(m), k) if sign * m > 0 else k, len(levels) - 1
        reach, excess = min(top + rmax, k), max(0, top + rmax - k)
        below = [0, *accumulate(levels)]  # terms in the levels below t
        # level j is made from levels max(0, j - rmax) .. min(j, top)
        upper = below[1:] + below[-1:] * (reach - top)
        products = [u - b for u, b in zip(upper, [0] * rmax + below)]
        levels = [min(p, j * (hi - lo) + 1) for j, p in enumerate(products)]
        pairs = (top + 1) * (rmax + 1) - excess * (excess + 1) // 2  # t + r <= k
        work += reach + 1 + pairs + sum(products) * (1 + _bits(abs(m) - 1, k) * held)
        work += _TERM_WORK * sum(levels)
        if work > MAX_WORK:
            break
    return int(work)


def evaluate(e, N: int) -> TruncPoly:
    """Evaluate an expression to its class in K(P^N).

    Every node becomes a sum of twists, a Laurent polynomial in [O(1)].
    J^k(O(l)) telescopes to sum_{i<=k} Sym^i Omega (x) O(l) = Sym^k(Omega + O)
    (x) O(l), and Omega + O = (N+1) O(-1).  Each power, jet, product and the
    final sum_to_class is charged against MAX_WORK before it runs."""
    if N < 1:
        raise ValueError("N must be positive")
    spent = 0

    def value(e) -> LaurentPoly:
        nonlocal spent
        if isinstance(e, Twist):
            return LaurentPoly.monomial(e.d)
        if isinstance(e, Structure):
            return LaurentPoly.monomial(0)
        if isinstance(e, Omega):
            return LaurentPoly({-1: N + 1, 0: -1})
        if isinstance(e, Sum):
            return value(e.left) + value(e.right)
        if isinstance(e, Tensor):
            a, b = value(e.left), value(e.right)
            (n1, big1, lo1, hi1), (n2, big2, lo2, hi2) = _extent(a), _extent(b)
            work = n1 * n2 * (1 + big1.bit_length() * big2.bit_length() / _MUL_BITS)
            work += _TERM_WORK * min(n1 * n2, hi1 - lo1 + hi2 - lo2 + 1)  # a term per degree
            spent = charge(spent, int(work), f"a product of twist sums of lengths {n1} and {n2}")
            return a * b
        if isinstance(e, Dual):
            return value(e.arg).dual()
        if isinstance(e, (Sym, Wedge)):
            s, k = value(e.arg), e.power
            what = f"{type(e).__name__}{k} of a twist sum of length {len(s.items())}"
            spent = charge(spent, _series_cost(s, k, 1 if isinstance(e, Wedge) else -1), what)
            return (kring.sym_power if isinstance(e, Sym) else kring.wedge_power)(s, k)
        if isinstance(e, Jet):
            s, k = LaurentPoly({-1: N + 1}), e.order
            spent = charge(spent, _series_cost(s, k, -1), f"J{k} on P^{N}")
            return kring.sym_power(s, k).shift(e.arg.d)
        raise TypeError(f"not an expression node: {e!r}")

    # sum_to_class takes N ratio steps per twist O(d), or 1 - d if d <= 0 is
    # fewer, by factors up to |d| + N, on multiples of binom(|d| + N, N).
    n, big, lo, hi = _extent(s := value(e))
    top = max(-lo, hi)
    bits = big.bit_length() + _bits(top, N)
    steps = n * (N if hi > 0 else min(N, 1 - lo))
    work = 2 * n + steps * (1 + bits * (100 + (top + N).bit_length()) / _MUL_BITS)
    charge(spent, int(work), f"the class on P^{N} of a twist sum of length {n}")
    return kring.sum_to_class(s, N)
