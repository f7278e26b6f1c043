"""A small expression language for sheaf classes on P^N.

Grammar (whitespace insignificant, integers may be negative):

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
by the Euler sequence, so every expression the grammar accepts has a class.
Powers and jet orders are at most MAX_POWER, and the parser predicts the
work of the powers and products an expression asks for (see MAX_WORK).
"""

from __future__ import annotations

import math

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
        super().__init__(
            f"at position {position}: expected {wanted}, found {found}"
        )


class RangeError(ParseError):
    """A structurally valid expression with an out-of-range parameter or depth."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.expected = frozenset()
        self.found = message
        ValueError.__init__(self, f"at position {position}: {message}")


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


class Sym(Record):
    __slots__ = ("power", "arg")

    def __init__(self, power: int, arg) -> None:
        if power < 0:
            raise ValueError("Sym power must be nonnegative")
        super().__init__(power, arg)


class Wedge(Record):
    __slots__ = ("power", "arg")

    def __init__(self, power: int, arg) -> None:
        if power < 0:
            raise ValueError("Wedge power must be nonnegative")
        super().__init__(power, arg)


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


_SYMBOLS = "()+*,-"


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
            elif ch in _SYMBOLS:
                self.tokens.append((ch, ch, pos))
                pos += 1
            elif ch.isdecimal():  # int() converts these; isdigit() also takes '²'
                start = pos
                while pos < n and text[pos].isdecimal():
                    pos += 1
                self.tokens.append(("nat", text[start:pos], start))
            elif ch.isalpha():
                start = pos
                while pos < n and text[pos].isalpha():
                    pos += 1
                self.tokens.append(("word", text[start:pos], start))
            else:
                raise ParseError(pos, {"a token"}, repr(ch))
        self.tokens.append(("end", "", n))
        self.index = 0

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


_FACTOR_EXPECTED = {"'O'", "'Omega'", "'dual'", "'Sym'", "'Wedge'", "'J'", "'('"}


# Deepest tree the parser builds.  Parsing, evaluating and comparing a tree
# recurse per level, so this stays well below the recursion limit (1000).
MAX_DEPTH = 100

# Largest Sym/Wedge power and jet order.  The series behind them costs about
# power^2 products of twist sums, so larger ones would not finish.
MAX_POWER = 1000

# Most work an expression may predict, counted in products of a coefficient
# with a term.  Sym^k or Wedge^k of n twists multiplies n factor series into
# k+1 partial sums whose levels hold at most `held` twists: n * k^2 * held.
# A tensor of n1 and n2 twists takes n1 * n2.  Sym1000(O(1) + O(2)) predicts
# 2e6 and J1000(O(0), left) 1e6; a sum of five such powers runs in about 2 s
# on a 2-vCPU machine.  A power of a power grows like k^5 in this count and
# about k^4 in run time: Sym80(Sym80(O(1) + O(2))) predicts 3e9 and did not
# finish in a minute.
MAX_WORK = 10**7


def _shape(lo: int, hi: int, n: int) -> tuple:
    """What the parser predicts of a value: its twists lie in [lo, hi] and
    number at most n."""
    return lo, hi, min(n, hi - lo + 1)


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.depth = 0
        self.work = 0

    def parse(self):
        expr, _ = self._expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], {"'+'", "'*'", "end of input"}, repr(tok[1]))
        return expr

    def _nest(self, position: int) -> None:
        """Count one level of the tree being built: a group or a Sum/Tensor link."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise RangeError(position, f"expression nests deeper than {MAX_DEPTH} levels")

    def _charge(self, work: int, position: int) -> None:
        self.work += work
        if self.work > MAX_WORK:
            raise RangeError(position, f"expression needs about {self.work} term "
                                       f"products, over the budget of {MAX_WORK}")

    def _power(self, shape: tuple, k: int, position: int) -> tuple:
        """The shape of Sym^k or Wedge^k of a value of this shape; charges its series."""
        lo, hi, n = shape
        span = k * (hi - lo) + 1
        held = 1 if n == 1 else min(math.comb(n + k - 2, k), span)
        self._charge(n * k * k * held, position)
        return _shape(k * lo, k * hi, math.comb(n + k - 1, k))

    # Each of _group, _expr, _term and _factor returns (node, shape).

    def _group(self, position: int) -> tuple:
        """An expression one level down, up to its closing ')'."""
        self._nest(position)
        parsed = self._expr()
        self.toks.expect(")", "')'")
        self.depth -= 1
        return parsed

    def _expr(self) -> tuple:
        outer = self.depth
        node, (lo, hi, n) = self._term()
        while self.toks.peek()[0] == "+":
            self._nest(self.toks.advance()[2])
            right, (lo2, hi2, n2) = self._term()
            node, (lo, hi, n) = Sum(node, right), _shape(min(lo, lo2), max(hi, hi2), n + n2)
        self.depth = outer
        return node, (lo, hi, n)

    def _term(self) -> tuple:
        outer = self.depth
        node, (lo, hi, n) = self._factor()
        while self.toks.peek()[0] == "*":
            position = self.toks.advance()[2]
            self._nest(position)
            right, (lo2, hi2, n2) = self._factor()
            self._charge(n * n2, position)
            node, (lo, hi, n) = Tensor(node, right), _shape(lo + lo2, hi + hi2, n * n2)
        self.depth = outer
        return node, (lo, hi, n)

    def _literal(self, what: str) -> tuple:
        """A digit token as an int, and its position."""
        tok = self.toks.expect("nat", what)
        try:
            return int(tok[1]), tok[2]
        except ValueError:  # more digits than int() converts
            raise RangeError(tok[2], f"{what} of {len(tok[1])} digits is too long") from None

    def _int(self) -> int:
        negative = self.toks.peek()[0] == "-"
        if negative:
            self.toks.advance()
        value, _ = self._literal("an integer")
        return -value if negative else value

    def _nat(self, what: str) -> tuple:
        """A power or jet order, at most MAX_POWER, and its position."""
        value, position = self._literal(what)
        if value > MAX_POWER:
            raise RangeError(position, f"{value} exceeds the limit of {MAX_POWER} for {what}")
        return value, position

    def _factor(self) -> tuple:
        tok = self.toks.peek()
        if tok[0] == "(":
            return self._group(self.toks.advance()[2])
        if tok[0] != "word":
            raise ParseError(tok[2], _FACTOR_EXPECTED, repr(tok[1]) if tok[1] else "end of input")
        word = tok[1]
        if word == "O":
            self.toks.advance()
            if self.toks.peek()[0] == "(":
                self.toks.advance()
                d = self._int()
                self.toks.expect(")", "')'")
                return Twist(d), (d, d, 1)
            return Structure(), (0, 0, 1)
        if word == "Omega":
            self.toks.advance()
            return Omega(), (-1, 0, 2)
        if word == "dual":
            self.toks.advance()
            node, (lo, hi, n) = self._group(self.toks.expect("(", "'('")[2])
            return Dual(node), (-hi, -lo, n)
        if word in ("Sym", "Wedge"):
            self.toks.advance()
            k, _ = self._nat("a power")
            node, shape = self._group(self.toks.expect("(", "'('")[2])
            shape = self._power(shape, k, tok[2])
            return (Sym(k, node) if word == "Sym" else Wedge(k, node)), shape
        if word == "J":
            self.toks.advance()
            k, kpos = self._nat("a jet order")
            if k < 1:
                raise RangeError(kpos, f"jet order must be at least 1, got {k}")
            self.toks.expect("(", "'('")
            otok = self.toks.expect("word", "'O'")
            if otok[1] != "O":
                raise ParseError(otok[2], {"'O'"}, repr(otok[1]))
            self.toks.expect("(", "'('")
            l = self._int()
            self.toks.expect(")", "')'")
            self.toks.expect(",", "','")
            stok = self.toks.expect("word", "'left' or 'right'")
            if stok[1] not in SIDES:
                raise ParseError(stok[2], {"'left'", "'right'"}, repr(stok[1]))
            self.toks.expect(")", "')'")
            # Sym^k of the single twist (N+1) O(-1), tensored with O(l)
            self._power((-1, -1, 1), k, tok[2])
            return Jet(k, Twist(l), stok[1]), (l - k, l - k, 1)
        raise ParseError(tok[2], _FACTOR_EXPECTED, repr(word))


def parse(text: str):
    """Parse an expression; raises ParseError/RangeError on bad input."""
    return _Parser(text).parse()


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
    if isinstance(e, Sym):
        return f"Sym{e.power}({print_expr(e.arg)})"
    if isinstance(e, Wedge):
        return f"Wedge{e.power}({print_expr(e.arg)})"
    if isinstance(e, Jet):
        return f"J{e.order}(O({e.arg.d}), {e.side})"
    raise TypeError(f"not an expression node: {e!r}")


def _value(e, N: int) -> LaurentPoly:
    """An expression as a formal sum of twists, a Laurent polynomial in
    [O(1)].  J^k(O(l)) telescopes to sum_{i<=k} Sym^i Omega (x) O(l), which
    is Sym^k(Omega + O) (x) O(l), and Omega + O = (N+1) O(-1)."""
    if isinstance(e, Twist):
        return LaurentPoly.monomial(e.d)
    if isinstance(e, Structure):
        return LaurentPoly.monomial(0)
    if isinstance(e, Omega):
        return LaurentPoly({-1: N + 1, 0: -1})
    if isinstance(e, Sum):
        return _value(e.left, N) + _value(e.right, N)
    if isinstance(e, Tensor):
        return _value(e.left, N) * _value(e.right, N)
    if isinstance(e, Dual):
        return _value(e.arg, N).dual()
    if isinstance(e, Sym):
        return kring.sym_power(_value(e.arg, N), e.power)
    if isinstance(e, Wedge):
        return kring.wedge_power(_value(e.arg, N), e.power)
    if isinstance(e, Jet):
        return kring.sym_power(LaurentPoly({-1: N + 1}), e.order) * _value(e.arg, N)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e, N: int) -> TruncPoly:
    """Evaluate an expression to its class in K(P^N)."""
    if N < 1:
        raise ValueError("N must be positive")
    return kring.sum_to_class(_value(e, N), N)
