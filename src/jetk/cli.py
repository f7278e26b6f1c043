"""Command-line interface.

Subcommands:

    kclass   -N <n> "<expr>"            evaluate a class in K(P^N)
    split    -N 1 "<J-expr>"            Birkhoff splitting of a jet on P^1
    verify   mainsplit -N <n> -l <l>    non-isomorphism certificate
    verify   ktheory -N <n> -k <k> -l <l>
    verify   atiyah -l <l>
    birkhoff --matrix <path>            factor an ingested transition matrix
    table    jets -N 1 --lmin <a> --lmax <b>

Each verify claim takes the flags shown and no others.  Every flag error is
a usage error under the usage line of the level it was typed at (jetk, the
subcommand or the claim): an unknown flag, a missing one, an integer flag
other than an optional '-' and the ASCII digits 0-9, and an -N outside
1..MAX_N or a -k outside 1..sheafdsl.MAX_POWER.  The table's --lmax - --lmin
over MAX_N is an input error.

Each subcommand's handler returns one Report and prints nothing; ``run``
alone turns it into output.  Text mode prints the last step's ``rendered``
value when it has one (a class, a splitting, the jet table) and the whole
report otherwise.  With ``--json`` it emits the report object {claim,
params, verdict, steps}; all numbers are serialized as decimal strings so
arbitrary precision survives any consumer.  ``_encode`` turns values into
text for both modes; a number too long for str() is an input error.

Exit codes: 0 verified/success, 1 refuted claim, 2 usage or input error
(an out-of-range query's inapplicable verdict, or a stdout closed by its
reader), 3 internal fault: any other exception, reported on stderr as
``error: internal fault: <Type>: <message>`` without a traceback.  A stderr
closed by its reader loses the message, never the code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import jetcalc, p1lab, sheafdsl
from .exact_arith import LaurentPoly, TruncPoly
from .kring import Budget, product_work
from .report import INAPPLICABLE, REFUTED, VERIFIED, Report, Step

_EXIT_BY_VERDICT = {VERIFIED: 0, REFUTED: 1, INAPPLICABLE: 2}

# Largest -N and --lmax - --lmin.  A class on P^N holds N+1 coefficients; at
# N = 1000 the largest power the expression language admits,
# Sym1000(O(1) + O(2)), evaluates in about 1.4 s on a 2-vCPU machine, and a
# jet table of 1001 rows takes about 0.35 s.
MAX_N = 1000


def _encode(value):
    """A report value as JSON: numbers, polynomials, splittings and matrices
    (a line per row) become text.  Both output modes encode here and only here."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    matrix = isinstance(value, p1lab.LaurentMatrix)
    if matrix or isinstance(value, (int, Fraction, TruncPoly, LaurentPoly, p1lab.SplittingType)):
        try:
            text = str(value)
        except ValueError:  # only int -> str conversion can fail here
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"a number in the result has more than {limit} digits") from None
        return text.splitlines() if matrix else text
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(report: Report) -> str:
    """Serialize a report; numbers become decimal strings."""
    import json  # here, not at the top: most CLI processes never touch JSON
    steps = [{"description": s.description, "values": _encode(s.values)} for s in report.steps]
    payload = {"claim": report.claim, "params": _encode(report.params),
               "verdict": report.verdict, "steps": steps}
    return json.dumps(payload, indent=2)


def _render_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render_value(v)}" for k, v in value.items()) + "}"
    return str(value)


def _render_report(report: Report) -> str:
    params = ", ".join(f"{k}={_render_value(v)}" for k, v in _encode(report.params).items())
    lines = [f"claim: {report.claim}", f"params: {params}", f"verdict: {report.verdict}"]
    for idx, step in enumerate(report.steps, start=1):
        lines.append(f"  {idx}. {step.description}")
        for key, value in _encode(step.values).items():
            lines.append(f"     {key} = {_render_value(value)}")
    return "\n".join(lines)


def _text(report: Report) -> str:
    """Text mode: the last step's rendered value if it has one, else the report."""
    final = report.steps[-1].values if report.steps else {}
    return _encode(final["rendered"]) if "rendered" in final else _render_report(report)


def _splitting_step(splitting) -> Step:
    return Step("Birkhoff splitting degrees",
                {"splitting": list(splitting.degrees), "rendered": splitting})


def _cmd_kclass(args):
    value = sheafdsl.evaluate(sheafdsl.parse(args.expr), args.N)
    step = Step(f"class in the basis {{1, t, ..., t^{args.N}}}",
                {"coefficients": list(value.coeffs), "rendered": value})
    return Report("kclass", {"N": args.N, "expr": args.expr}, VERIFIED, [step])


def _cmd_split(args):
    if args.N != 1:
        raise ValueError("splitting types are algorithmic only on the line; use -N 1")
    expr = sheafdsl.parse(args.expr)
    if not isinstance(expr, sheafdsl.Jet):
        raise ValueError(
            f"split expects a jet expression like J1(O(2), left), got {args.expr!r}"
        )
    if expr.order != 1:
        raise ValueError("explicit transition matrices exist only at first order; use J1")
    matrix = p1lab.jet_transition(expr.arg.d, expr.side)
    steps = [
        Step("first-order jet transition matrix",
             {"matrix": [e for row in matrix.rows() for e in row]}),
        _splitting_step(p1lab.birkhoff_split(matrix)),
    ]
    params = {"N": 1, "expr": args.expr, "l": expr.arg.d, "side": expr.side}
    return Report("birkhoff-splitting", params, VERIFIED, steps)


def _cmd_birkhoff(args):
    matrix = p1lab.matrix_from_text(Path(args.matrix).read_text(encoding="utf-8"))
    budget = Budget()
    coeff, exponent = matrix.det_monomial(budget)
    steps = [
        Step("ingested matrix", {"rows": matrix}),
        Step("determinant monomial", {"coefficient": coeff, "exponent": exponent}),
        _splitting_step(p1lab.birkhoff_split(matrix, budget)),
    ]
    params = {"matrix": args.matrix, "size": matrix.size}
    return Report("birkhoff-splitting", params, VERIFIED, steps)


def _cmd_table(args):
    if args.N != 1:
        raise ValueError("the jet table tabulates splittings on the line; use -N 1")
    if args.lmin > args.lmax:
        raise ValueError(f"--lmin {args.lmin} exceeds --lmax {args.lmax}")
    if args.lmax - args.lmin > MAX_N:
        raise ValueError(f"--lmax - --lmin exceeds the limit of {MAX_N}")
    steps, budget = [], Budget()  # one for all the rows
    lines = [f"{'l':>4}  {'left':<12}  {'right':<12}  class"]
    for l in range(args.lmin, args.lmax + 1):
        left = p1lab.birkhoff_split(p1lab.jet_transition(l, "left"), budget)
        right = p1lab.birkhoff_split(p1lab.jet_transition(l, "right"), budget)
        value = jetcalc.jet_class(1, 1, l, budget)
        # the decimal text of a b-bit int costs about product_work(b, b)
        # units (0.13 us a unit up to 4,000 digits)
        bits = [abs(n).bit_length() for n in (l, *left.degrees, *right.degrees, *value.coeffs)]
        budget.spend(sum(product_work(b, b) for b in bits), "the text of the jet table")
        steps.append(Step(f"first-order jet of O({l})", {
            "l": l, "left": list(left.degrees), "right": list(right.degrees),
            "class": list(value.coeffs),
        }))
        lines.append("{:>4}  {:<12}  {:<12}  {}".format(*_encode([l, left, right, value])))
    steps.append(Step("the rows above as a table", {"rendered": "\n".join(lines)}))
    return Report("jet-table", {"N": 1, "lmin": args.lmin, "lmax": args.lmax}, VERIFIED, steps)


def _int_flag(text: str, limit: int | None = None) -> int:
    """An integer flag: an optional '-' and the ASCII digits 0-9, as an int in
    an expression (argparse's int also takes other digits, '_' and blanks).
    A size flag, given its limit, is also at least 1 and at most the limit."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts: not echoed
        raise argparse.ArgumentTypeError(f"a number of {len(digits)} digits is too long") from None
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"{value} exceeds the limit of {limit}")
    if limit is not None and value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below the minimum of 1")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser that names an unknown argument under its own usage line; the
    subcommands and claims get this class too (add_subparsers' default)."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@functools.cache  # one parser per process, however often run() is called
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetk",
        description="Exact jet-bundle classes and splitting types on projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sizes = {"N": functools.partial(_int_flag, limit=MAX_N),
             "k": functools.partial(_int_flag, limit=sheafdsl.MAX_POWER)}

    p = sub.add_parser("kclass", help="evaluate an expression in K(P^N)")
    p.add_argument("-N", type=sizes["N"], required=True, help="ambient dimension")
    p.add_argument("expr", help="sheaf expression, e.g. 'Sym2(Omega) * O(5)'")
    p.set_defaults(handler=_cmd_kclass)

    p = sub.add_parser("split", help="Birkhoff splitting of a jet bundle on P^1")
    p.add_argument("-N", type=sizes["N"], required=True)
    p.add_argument("expr", help="jet expression, e.g. 'J1(O(2), right)'")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("verify", help="run a verification certificate")
    claims = p.add_subparsers(dest="claim", required=True)
    # one parser per claim; each handler looks its certificate up when it runs
    for claim, flags, text, handler in (
        ("mainsplit", "Nl", "the left and right structures of J^1(O(l)) on P^N differ",
         lambda a: jetcalc.prove_non_isomorphic(a.N, a.l)),
        ("ktheory", "Nkl", "both structures of J^k(O(l)) have one class in K(P^N)",
         lambda a: jetcalc.verify_ktheory_equality(a.N, a.k, a.l)),
        ("atiyah", "l", "on P^1 the Atiyah class of O(l) detects the difference",
         lambda a: p1lab.verify_corr_p1(a.l)),
    ):
        p = claims.add_parser(claim, help=text)
        for flag in flags:
            p.add_argument(f"-{flag}", type=sizes.get(flag, _int_flag), required=True)
        p.set_defaults(handler=handler)

    p = sub.add_parser("birkhoff", help="factor a transition matrix from a file")
    p.add_argument("--matrix", required=True, help="path to a ';'-separated matrix")
    p.set_defaults(handler=_cmd_birkhoff)

    p = sub.add_parser("table", help="tabulate jet splittings and classes")
    p.add_argument("what", choices=["jets"])
    p.add_argument("-N", type=sizes["N"], required=True)
    p.add_argument("--lmin", type=_int_flag, required=True)
    p.add_argument("--lmax", type=_int_flag, required=True)
    p.set_defaults(handler=_cmd_table)

    # last, so each usage line keeps its order; unset unless given, so a
    # --json before a verify claim stands
    parser.set_defaults(json=False)
    for p in (*sub.choices.values(), *claims.choices.values()):
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; prints the report, returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        report = args.handler(args)
        # flushed here, so a stdout closed by its reader is an input error
        print(emit_json(report) if args.json else _text(report), flush=True)
    except (ValueError, OSError, ArithmeticError) as exc:
        code, message = 2, str(exc)
    except Exception as exc:  # a bug in jetk, never a verdict on the input
        code, message = 3, f"internal fault: {type(exc).__name__}: {exc}"
    else:
        return _EXIT_BY_VERDICT[report.verdict]
    with contextlib.suppress(OSError):  # a stderr closed by its reader loses the line
        print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # closed by its reader, which run allowed for: drop what it holds
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
