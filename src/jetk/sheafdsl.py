"""A small expression language for sheaf classes on P^N.

Grammar (whitespace insignificant, ASCII digits, integers may be negative):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := 'O' '(' int ')' | 'O' | 'Omega'
            | 'dual' '(' expr ')'
            | 'Sym' nat '(' expr ')' | 'Wedge' nat '(' expr ')'
            | 'J' nat '(' 'O' '(' int ')' ',' ('left'|'right') ')'
            | '(' expr ')'

'+' is direct sum and '*' is tensor product; a chain of either is one node,
``Sum(terms)`` or ``Tensor(factors)``.  A bare 'O' is O(0).  The jet
argument is a single twist; its side does not change the class, but
splitting queries dispatch on it.
Evaluation maps every node to a sum of twists, with Omega = (N+1) O(-1) - O
by the Euler sequence.  Powers and jet orders are at most MAX_POWER.  One
evaluation spends one ``kring.Budget`` of MAX_WORK units: each product and
the final map to K(P^N) is charged from the real operands and N before it
runs, and each power or jet series counts its own work as it runs.
"""

from __future__ import annotations

from . import kring
from .exact_arith import LaurentPoly, Record, TruncPoly
from .kring import MAX_WORK, PAIR_WORK, Budget, extent

SIDES = ("left", "right")  # the two module structures of a jet bundle


class ParseError(ValueError):
    """Syntax error with the offending position and the expected tokens."""

    def __init__(self, position: int, expected, found: str):
        self.position = position
        self.expected = frozenset(expected)
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


class _Chain(Record):
    """Two or more operands joined by one operator, as a tuple."""

    __slots__ = ()

    def __init__(self, operands) -> None:
        if len(operands) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        super().__init__(tuple(operands))

    def __deepcopy__(self, memo):
        return self  # immutable; a copy recurses 8 frames a level, past the limit


class Sum(_Chain):
    __slots__ = ("terms",)


class Tensor(_Chain):
    __slots__ = ("factors",)


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


# Deepest nesting: a level per group, dual/Sym/Wedge argument and Sum/Tensor
# node.  Evaluating and comparing recurse per level, below the limit (1000).
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
        """Count one level down: a group, an argument or a Sum/Tensor node."""
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

    def _chain(self, op: str, node, operand):
        """operand (op operand)*: two or more operands make one node, a level
        down from its first op."""
        operands = [operand()]
        if self.peek()[0] == op:
            self._nest(self.peek()[2])
            while self.peek()[0] == op:
                self.advance()
                operands.append(operand())
            self.depth -= 1
        return node(operands) if len(operands) > 1 else operands[0]

    def _expr(self):
        return self._chain("+", Sum, lambda: self._chain("*", Tensor, self._factor))

    def _literal(self, what: str) -> tuple:
        """A digit token as an int, and its position."""
        tok = self.expect("nat", what)
        try:
            return int(tok[1]), tok[2]
        except ValueError:  # more digits than int() converts
            raise RangeError(tok[2], f"{what} of {len(tok[1])} digits is too long") from None

    def _int(self) -> int:
        """A twist degree in parentheses: '(' ['-'] nat ')'."""
        self.expect("(", "'('")
        sign = -1 if self.peek()[0] == "-" and self.advance() else 1
        value = sign * self._literal("an integer")[0]
        self.expect(")", "')'")
        return value

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
            return Twist(self._int() if self.peek()[0] == "(" else 0)
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
            l = self._int()
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
    if isinstance(e, Omega):
        return "Omega"
    if isinstance(e, _Chain):
        # a chain inside a chain it would merge into keeps its parentheses
        op, grouped = (" + ", Sum) if isinstance(e, Sum) else (" * ", _Chain)
        return op.join(f"({print_expr(x)})" if isinstance(x, grouped) else print_expr(x)
                       for x in e._fields()[0])
    if isinstance(e, Dual):
        return f"dual({print_expr(e.arg)})"
    if isinstance(e, (Sym, Wedge)):
        return f"{type(e).__name__}{e.power}({print_expr(e.arg)})"
    if isinstance(e, Jet):
        return f"J{e.order}(O({e.arg.d}), {e.side})"
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e, N: int, budget: Budget | None = None) -> TruncPoly:
    """Evaluate an expression to its class in K(P^N).

    Every node becomes a sum of twists, a Laurent polynomial in [O(1)].
    J^k(O(l)) telescopes to sum_{i<=k} Sym^i Omega (x) O(l) = Sym^k(Omega + O)
    (x) O(l), and Omega + O = (N+1) O(-1).  All steps spend from one Budget,
    the caller's or a fresh one; the step that takes it past MAX_WORK raises
    a ValueError naming it."""
    if N < 1:
        raise ValueError("N must be positive")
    budget = budget or Budget()

    def value(e) -> LaurentPoly:
        if isinstance(e, Twist):
            return LaurentPoly.monomial(e.d)
        if isinstance(e, Omega):
            return LaurentPoly({-1: N + 1, 0: -1})
        if isinstance(e, Sum):
            total = {}
            for term in e.terms:
                for d, m in value(term).items():
                    total[d] = total.get(d, 0) + m
            return LaurentPoly(total)
        if isinstance(e, Tensor):
            a = value(e.factors[0])
            for b in map(value, e.factors[1:]):  # charged and multiplied left to right
                (n1, big1, lo1, hi1), (n2, big2, lo2, hi2) = extent(a), extent(b)
                work = int(n1 * n2 * PAIR_WORK) + min(n1 * n2, hi1 - lo1 + hi2 - lo2 + 1)
                work += kring.product_work(big1.bit_length(), big2.bit_length(), n1 * n2)
                budget.spend(work, f"a product of twist sums of lengths {n1} and {n2}")
                a = a * b
            return a
        if isinstance(e, Dual):
            return value(e.arg).dual()
        if isinstance(e, (Sym, Wedge)):
            s, k = value(e.arg), e.power
            budget.step = f"{type(e).__name__}{k} of a twist sum of length {len(s.items())}"
            return (kring.sym_power if isinstance(e, Sym) else kring.wedge_power)(s, k, budget)
        if isinstance(e, Jet):
            budget.step = f"J{e.order} on P^{N}"
            return kring.sym_power(LaurentPoly({-1: N + 1}), e.order, budget).shift(e.arg.d)
        raise TypeError(f"not an expression node: {e!r}")

    return kring.sum_to_class(value(e), N, budget)
