"""Tests for the command-line surface and its JSON reports."""

import contextlib
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetk
from jetk import cli, kring, p1lab, sheafdsl
from jetk.cli import _render_report, emit_json, run
from jetk.exact_arith import binom
from jetk.report import REFUTED, VERIFIED, Report, Step


def test_kclass_text_output(capsys):
    code = run(["kclass", "-N", "1", "O(5)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "1 + 5t"


def test_kclass_json_output(capsys):
    code = run(["kclass", "-N", "2", "--json", "Sym2(Omega) * O(3)"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["claim"] == "kclass"
    assert payload["verdict"] == "verified"
    assert payload["steps"][0]["values"]["coefficients"] == ["3", "0", "-3"]


def test_kclass_bad_expression_exits_2(capsys):
    code = run(["kclass", "-N", "1", "O(2) + + O(1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position 7" in err


def _chain(n):
    """(O(0) + O(1)) * (O(0) + O(2)) * ...: n factors, 2^n twists, one product at a time."""
    return " * ".join(f"(O(0) + O({2 ** i}))" for i in range(n))


def _assert_over_budget(err, step, need):
    """err is the budget error of `step`, with a count past the budget."""
    budget = sheafdsl.MAX_WORK
    match = re.fullmatch(rf"error: {re.escape(step)} needs {need} (\d+) coefficient "
                         rf"operations, over the budget of {budget}\n", err)
    assert match and int(match[1]) > budget, err


def test_deep_expressions_are_input_errors(capsys):
    deep = [
        "(" * 2000 + "O(1)" + ")" * 2000,
        "dual(" * 400 + "O(1)" + ")" * 400,
        "(" * 100 + "O" + "*O+O)" * 100,
        "Sym99999999999(O(1))",
        "J1001(O(0), left)",
        "O(" + "9" * 5000 + ")",
        "Sym" + "9" * 5000 + "(O(1))",
    ]
    for N in (1, 2):
        for expr in deep:
            assert run(["kclass", "-N", str(N), expr]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: at position")
            assert "Traceback" not in err
    # a flat chain is one level deep, however long
    for op, expected in ((" + ", "1500 + 1500t"), (" * ", "1 + 1500t")):
        assert run(["kclass", "-N", "1", op.join(["O(1)"] * 1500)]) == 0
        assert capsys.readouterr().out == expected + "\n"
    # Over the work budget: the interpreter names the step that went over,
    # and no position.  A product or the final class is charged its whole
    # estimate before it runs; a series counts its work as it runs, so its
    # number is a lower bound.  The tower's third power has a multiplicity of
    # 1996 bits, the 14 factors have 16384 twists on P^1000, and the chains
    # of 22 and 41 factors stop at the product that would make 2^21.
    over = [
        ("2", "Sym1000(Sym1000(Sym1000(O + O)))", "Sym1000 of a twist sum of length 1", "at least"),
        ("1000", _chain(14), "the class on P^1000 of a twist sum of length 16384", "about"),
        ("2", _chain(22), "a product of twist sums of lengths 1048576 and 2", "about"),
        ("1", "Sym80(Sym80(O(1) + O(2)))", "Sym80 of a twist sum of length 81", "at least"),
        ("2", _chain(41), "a product of twist sums of lengths 1048576 and 2", "about"),
    ]
    for N, expr, step, need in over:
        for mode in ([], ["--json"]) if len(expr) < 300 else ([],):
            assert run(["kclass", "-N", N, *mode, expr]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            _assert_over_budget(captured.err, step, need)
    # a class too large to print is an input error in jetk's own terms,
    # in text and JSON mode alike
    nines = "O(" + "9" * 2000 + ")"
    for mode in ([], ["--json"]):
        assert run(["kclass", "-N", "3", *mode, nines]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a number in the result has more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        )
    # the largest power and order, also at the largest N, and the largest
    # kclass shapes of the kring-mix benchmark still evaluate
    assert run(["kclass", "-N", "3", "Sym1000(O(1) + O(2))"]) == 0
    assert run(["kclass", "-N", "24", "J1000(O(0), left)"]) == 0
    assert run(["kclass", "-N", "1000", "Sym1000(O(1) + O(2))"]) == 0
    assert run(["kclass", "-N", "1000", "J1000(O(0), left)"]) == 0
    widest = "(Sym8(O(-3) + O(5) + O(-2) + O(4) + O(0) + O(1)))"
    assert run(["kclass", "-N", "24", f"{widest} * {widest} + J12(O(8), left) * Sym24(Omega)"]) == 0
    capsys.readouterr()


def test_only_ascii_digits_are_numbers(capsys, tmp_path):
    # int() reads any Unicode decimal digit; both parsers take only 0-9
    path = tmp_path / "arabic.txt"
    path.write_text("\u0663*u ; 0\n0 ; 1\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        assert run(["kclass", "-N", "2", *mode, "O(\u0663)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: at position 2: expected a token, found '\u0663'\n"
        assert run(["birkhoff", "--matrix", str(path), *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "\u0663" in captured.err
        # argparse's int also takes other digits, '_' and blanks in a flag
        for argv, flag, text in (
            (["kclass", "-N", "\u0663", "O(1)"], "-N", "\u0663"),
            (["kclass", "-N", "1_0", "O(1)"], "-N", "1_0"),
            (["verify", "atiyah", "-l", " 2"], "-l", " 2"),
            (["verify", "atiyah", "-l", "+2"], "-l", "+2"),
            (["verify", "ktheory", "-N", "3", "-k", "\uff13", "-l", "1"], "-k", "\uff13"),
            (["table", "jets", "-N", "1", "--lmin", "-\u0662", "--lmax", "3"], "--lmin", "-\u0662"),
        ):
            assert run([*argv, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")
        # a flag too long for int() is named by its length, not echoed
        for argv, flag in ((["kclass", "-N", "1" * 4400, "O"], "-N"),
                           (["table", "jets", "-N", "1", "--lmin", "-" + "1" * 4400,
                             "--lmax", "1"], "--lmin")):
            assert run([*argv, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(
                f"error: argument {flag}: a number of 4400 digits is too long\n")
            assert len(captured.err) < 300


# each level of the command line: its usage prog, the words that reach it,
# and a valid rest; a flag typed at a level goes between the two
_LEVELS = (
    ("jetk", [], ["kclass", "-N", "2", "O"]),
    ("jetk kclass", ["kclass"], ["-N", "2", "O"]),
    ("jetk split", ["split"], ["-N", "1", "J1(O(2), left)"]),
    ("jetk verify", ["verify"], ["atiyah", "-l", "1"]),
    ("jetk verify mainsplit", ["verify", "mainsplit"], ["-N", "2", "-l", "1"]),
    ("jetk verify ktheory", ["verify", "ktheory"], ["-N", "2", "-k", "1", "-l", "1"]),
    ("jetk verify atiyah", ["verify", "atiyah"], ["-l", "1"]),
    ("jetk birkhoff", ["birkhoff"], ["--matrix", "matrix.txt"]),
    ("jetk table", ["table"], ["jets", "-N", "1", "--lmin", "0", "--lmax", "1"]),
)


def _assert_usage_error(argv, prog, message, capsys):
    """argv, in text and --json mode, is exit 2 with argparse's message under
    the usage line of prog's level, and prints nothing on stdout."""
    for args in (argv, [*argv, "--json"]):
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: {prog} [-h] "), (args, captured.err)
        assert captured.err.endswith(f"\n{prog}: error: {message}\n"), (args, captured.err)


def test_size_flags_are_bounded(capsys):
    # an -N or -k out of range, non-ASCII or too long is a usage error at its
    # level (the flags in jetk's valid rest are kclass's)
    for prog, words, rest in _LEVELS[1:]:
        for at in (i for i, arg in enumerate(rest) if arg in ("-N", "-k")):
            flag = rest[at]
            limit = sheafdsl.MAX_POWER if flag == "-k" else cli.MAX_N
            for value, message in (("0", "0 is below the minimum of 1"),
                                   ("-1", "-1 is below the minimum of 1"),
                                   (str(limit + 1), f"{limit + 1} exceeds the limit of {limit}"),
                                   ("100000000000", f"100000000000 exceeds the limit of {limit}"),
                                   ("\u0663", "invalid int value: '\u0663'"),
                                   ("1" * 4400, "a number of 4400 digits is too long")):
                argv = [*words, *rest[:at + 1], value, *rest[at + 2:]]
                _assert_usage_error(argv, prog, f"argument {flag}: {message}", capsys)
    # the table's span is an input error, its value not printed however long
    nines = "9" * 4300
    for lmin, lmax in (("-100000", "100000"), ("0", str(cli.MAX_N + 1)), (f"-{nines}", nines)):
        for mode in ([], ["--json"]):
            assert run(["table", "jets", "-N", "1", "--lmin", lmin, "--lmax", lmax, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --lmax - --lmin exceeds the limit of {cli.MAX_N}\n"
    # the limits themselves are admitted; every N that README, tests and
    # perfbench use (at most 300) lies below them
    assert cli.MAX_N >= 300
    assert run(["kclass", "-N", str(cli.MAX_N), "O(1)"]) == 0
    assert run(["verify", "mainsplit", "-N", str(cli.MAX_N), "-l", "1"]) == 0
    assert run(["table", "jets", "-N", "1", "--lmin", "-500", "--lmax", str(cli.MAX_N - 500)]) == 0
    capsys.readouterr()
    # verify ktheory charges its Euler recursion against sheafdsl.MAX_WORK
    # before computing; the benchmark's and README's shapes stay admitted
    for N, k in (("1000", "1000"), ("3", "1000"), ("200", "300")):
        for mode in ([], ["--json"]):
            assert run(["verify", "ktheory", "-N", N, "-k", k, "-l", "0", *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: -N {N} -k {k} needs about ")
            assert captured.err.endswith(f"over the budget of {sheafdsl.MAX_WORK}\n")
    for N, k, l in (("90", "90", "0"), ("40", "40", "3"), ("4", "3", "7")):
        assert run(["verify", "ktheory", "-N", N, "-k", k, "-l", l]) == 0
    capsys.readouterr()


def _flag(name, values):
    """An argv fragment: the flag with a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_small = st.integers(-3, 4).map(str)
_dims = st.one_of(_small, st.just("100000000000"))
_exprs = st.sampled_from([
    "O", "O(2)", "Omega", "Sym2(Omega) * O(3)", "Wedge3(O(1) + O(-1) + Omega)",
    "dual(J2(O(1), left))", "J1(O(2), right)", "J1(O(-1), left)", "J2(O(3), right)",
    "O(2) + + O(1)", "Sym(O)", "",
])
_entries = st.sampled_from(["0", "1", "-2", "u", "u^-1", "2*u^2", "1/2*u^-2", "1 - u"])
_matrices = st.lists(st.lists(_entries, min_size=1, max_size=3), min_size=1, max_size=3)
_argvs = st.one_of(
    st.tuples(st.sampled_from([["kclass"], ["split"]]), _flag("-N", _dims), _exprs.map(lambda e: [e])),
    st.tuples(
        st.sampled_from(["mainsplit", "ktheory", "atiyah"]).map(lambda c: ["verify", c]),
        _flag("-N", _dims), _flag("-k", _small), _flag("-l", _small),
    ),
    st.tuples(st.just(["table", "jets"]), _flag("-N", _dims), _flag("--lmin", _small), _flag("--lmax", _small)),
    st.just((["birkhoff", "--matrix", "{matrix}"],)),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_argvs, _matrices, st.booleans())
def test_run_never_reports_an_internal_fault(tmp_path_factory, argv, rows, as_json):
    path = tmp_path_factory.getbasetemp() / "matrix.txt"
    path.write_text("\n".join(" ; ".join(row) for row in rows), encoding="utf-8")
    argv = [str(path) if arg == "{matrix}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, "--json"] if as_json else argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "internal fault" not in err.getvalue() and "Traceback" not in err.getvalue()


_unreadable, _out_of_size = ("1" * 4400, "\u0663"), ("0", "-1", "-3", "1001")
_pairs = st.tuples(st.sampled_from(["-N", "-k", "-l", "--lmin", "--lmax"]),
                   st.sampled_from(["1", "2", *_out_of_size, *_unreadable]))
_words = st.one_of(_pairs, st.sampled_from([("--json",), ("--bogus",), ("O(2)",), ("jets",),
                                            ("J1(O(2), left)",), ("--matrix", "no-such.txt")]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.sampled_from([words for _, words, _ in _LEVELS]), st.lists(_words, max_size=5))
def test_any_argv_is_one_error_at_most(level, words):
    # a level and flags in any order: a verdict, or one usage or input error
    argv = [*level, *(token for word in words for token in word)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        one_line = err.startswith("error: ") and err.count("\n") == 1
        assert err.startswith("usage: jetk") or one_line, (argv, err)
    # an integer flag that is no number, or a size out of range, is a usage
    # error at whichever level it was typed
    if any(word[-1] in _unreadable or word[0] in ("-N", "-k") and word[1] in _out_of_size
           for word in words):
        assert code == 2 and err.startswith("usage: jetk"), (argv, err)


def test_internal_fault_exits_3_without_traceback(monkeypatch, capsys):
    def broken(matrix):
        raise AssertionError("row-proper degrees do not match the determinant")

    monkeypatch.setattr(p1lab, "birkhoff_split", broken)
    assert run(["split", "-N", "1", "J1(O(2), right)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal fault: AssertionError: "
        "row-proper degrees do not match the determinant\n"
    )

    def recursing(matrix):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(p1lab, "birkhoff_split", recursing)
    assert run(["split", "-N", "1", "--json", "J1(O(2), right)"]) == 3
    assert capsys.readouterr().err == (
        "error: internal fault: RecursionError: maximum recursion depth exceeded\n"
    )


def test_split_text_output(capsys):
    code = run(["split", "-N", "1", "J1(O(2), right)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "{0, 2}"


def test_split_dispatches_on_side(capsys):
    run(["split", "-N", "1", "J1(O(2), left)"])
    left = capsys.readouterr().out.strip()
    run(["split", "-N", "1", "J1(O(2), right)"])
    right = capsys.readouterr().out.strip()
    assert left == "{1, 1}" and right == "{0, 2}"


def test_split_rejects_higher_dimension(capsys):
    code = run(["split", "-N", "2", "J1(O(2), left)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


def test_split_rejects_non_jet_and_higher_order(capsys):
    assert run(["split", "-N", "1", "O(2) + O(1)"]) == 2
    capsys.readouterr()
    assert run(["split", "-N", "1", "J2(O(2), left)"]) == 2
    capsys.readouterr()


def test_verify_mainsplit_exit_codes(capsys):
    assert run(["verify", "mainsplit", "-N", "3", "-l", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: verified" in out
    assert run(["verify", "mainsplit", "-N", "3", "-l", "0"]) == 1
    out = capsys.readouterr().out
    assert "verdict: refuted" in out
    assert run(["verify", "mainsplit", "-N", "3", "-l", "-1"]) == 2
    capsys.readouterr()


def test_verify_mainsplit_charges_its_twist_classes(capsys):
    # the charged Omega (x) O(l) comes before the classes of O(l) and O(l-1),
    # so a twist of 4001 digits is refused before any class of it is built
    huge, original, built = "1" + "0" * 4000, kring.sum_to_class, []

    def to_class(s, N, budget=None):
        result = original(s, N, budget)  # charges its work before building
        built.append(max(abs(d) for d, _ in s.items()))
        return result

    with mock.patch.object(kring, "sum_to_class", to_class):
        for mode in ([], ["--json"]):
            assert run(["verify", "mainsplit", "-N", "1000", "-l", huge, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            _assert_over_budget(captured.err, "the class on P^1000 of a twist sum of length 2", "about")
        assert built == []
        assert run(["verify", "mainsplit", "-N", "1000", "-l", "7"]) == 0
    assert built and max(built) < 100
    capsys.readouterr()


def test_verify_requires_parameters(capsys):
    assert run(["verify", "mainsplit", "-N", "3"]) == 2
    assert "-l" in capsys.readouterr().err
    assert run(["verify", "ktheory", "-N", "2", "-l", "1"]) == 2
    assert "-k" in capsys.readouterr().err


def test_verify_claims_take_only_their_flags(capsys):
    # mainsplit takes -N -l, ktheory -N -k -l and atiyah -l; any other flag
    # is a usage error that names it under the claim's own usage line, never
    # silently dropped; an unknown flag of another subcommand is named alike
    for argv, flag in ((["verify", "mainsplit", "-N", "2", "-k", "5", "-l", "1"], "-k 5"),
                       (["verify", "atiyah", "-N", "7", "-l", "1"], "-N 7"),
                       (["verify", "atiyah", "-k", "5", "-l", "1"], "-k 5"),
                       (["verify", "atiyah"], "required: -l"),
                       (["verify", "ktheory", "-N", "2", "-k", "2"], "required: -l"),
                       (["kclass", "-N", "2", "O", "--bogus"], "--bogus")):
        prog = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
        for args in (argv, [*argv, "--json"], [*argv[:1], "--json", *argv[1:]]):
            assert run(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"usage: jetk {prog} "), (args, captured.err)
            assert captured.err.endswith(f"{flag}\n"), (args, captured.err)
    # --json before or after the claim
    for argv in (["verify", "--json", "atiyah", "-l", "1"], ["verify", "atiyah", "-l", "1", "--json"]):
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"l": "1"}
    assert run(["verify", "atiyah", "-l", "1"]) == 0
    assert capsys.readouterr().out.startswith("claim: atiyah-class-detects-structures\n")
    # an unknown flag is named under the usage of the level it was typed at,
    # before or after the flags of the levels below
    for prog, words, rest in _LEVELS:
        _assert_usage_error([*words, "--bogus", *rest], prog, "unrecognized arguments: --bogus",
                            capsys)
    _assert_usage_error(["verify", "--json", "--bogus", "atiyah", "-l", "1"], "jetk verify",
                        "unrecognized arguments: --bogus", capsys)
    _assert_usage_error(["--bogus", "verify", "atiyah", "-l", "1"], "jetk",
                        "unrecognized arguments: --bogus", capsys)
    # with unknown flags at two levels, the lower level names its own
    _assert_usage_error(["--bogus", "kclass", "-N", "2", "O", "--other"], "jetk kclass",
                        "unrecognized arguments: --other", capsys)
    _assert_usage_error(["verify", "--bogus", "atiyah", "-l", "1", "--other"], "jetk verify atiyah",
                        "unrecognized arguments: --other", capsys)


def _closed_stdout_run(argv, stdout=True, stderr=False):
    """jetk in a fresh process whose stdout, stderr or both, as chosen, are a
    pipe with its read end closed, block-buffered as a shell pipe is: (exit
    code, stderr, empty when closed)."""
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(jetk.__file__).resolve().parent.parent)
    try:
        proc = subprocess.run([sys.executable, "-m", "jetk.cli", *argv],
                              stdout=write if stdout else subprocess.DEVNULL,
                              stderr=write if stderr else subprocess.PIPE,
                              env=env, text=True, timeout=60)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr or ""


def test_closed_stdout_is_an_input_error():
    # a whole report, the 1,001-row table and a --json report
    for argv in (["verify", "mainsplit", "-N", "2", "-l", "1"],
                 ["table", "jets", "-N", "1", "--lmin", "-500", "--lmax", "500"],
                 ["verify", "ktheory", "-N", "3", "-k", "2", "-l", "1", "--json"]):
        code, err = _closed_stdout_run(argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Broken pipe" in err


def test_closed_stderr_keeps_the_exit_code(tmp_path):
    # a success, a usage error and an input error: a closed stderr loses the
    # message, never the code, and a closed stdout as well fails the success
    for argv, alone, both in ((["kclass", "-N", "2", "O"], 0, 2),
                              (["--bogus", "kclass", "-N", "2", "O"], 2, 2),
                              (["birkhoff", "--matrix", str(tmp_path / "none.txt")], 2, 2)):
        assert _closed_stdout_run(argv, stdout=False, stderr=True)[0] == alone, argv
        assert _closed_stdout_run(argv, stderr=True)[0] == both, argv


class _ClosedStream(io.StringIO):
    """A stream whose reader has gone: every write is a broken pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stderr_in_process(monkeypatch):
    # an internal fault stays 3 when its error line cannot be written
    def broken(matrix):
        raise RuntimeError("a bug")

    monkeypatch.setattr(p1lab, "birkhoff_split", broken)
    monkeypatch.setattr(sys, "stderr", _ClosedStream())
    assert run(["split", "-N", "1", "J1(O(2), right)"]) == 3
    assert run(["split", "-N", "2", "J1(O(2), right)"]) == 2
    assert run(["--bogus", "split", "-N", "1", "J1(O(2), right)"]) == 2


def test_closed_stdout_in_process(capsys):
    # run reports the closed stdout and leaves every file descriptor as it was
    read, write = os.pipe()
    os.close(read)
    stdout, before = os.fdopen(write, "w"), os.fstat(1)
    try:
        with contextlib.redirect_stdout(stdout):
            assert run(["verify", "mainsplit", "-N", "2", "-l", "1"]) == 2
        assert stat.S_ISFIFO(os.fstat(write).st_mode)
        assert (os.fstat(1).st_dev, os.fstat(1).st_ino) == (before.st_dev, before.st_ino)
    finally:
        with contextlib.suppress(BrokenPipeError):  # the output it still holds
            stdout.close()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Broken pipe" in captured.err and captured.err.count("\n") == 1


def test_verify_ktheory(capsys):
    assert run(["verify", "ktheory", "-N", "4", "-k", "3", "-l", "7"]) == 0
    assert "verified" in capsys.readouterr().out
    assert run(["verify", "ktheory", "-N", "1", "-k", "0", "-l", "2"]) == 2
    capsys.readouterr()


def test_verify_atiyah(capsys):
    assert run(["verify", "atiyah", "-l", "-3"]) == 0
    assert "verified" in capsys.readouterr().out


def test_usage_error_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["kclass", "O(1)"]) == 2  # missing -N
    capsys.readouterr()
    assert run(["verify", "nonsense", "-l", "1"]) == 2
    capsys.readouterr()


def test_birkhoff_from_file(tmp_path, capsys):
    path = tmp_path / "matrix.txt"
    path.write_text("u^2 ; 0\n1 - u ; u^-1\n", encoding="utf-8")
    code = run(["birkhoff", "--matrix", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "{0, 1}"


def test_birkhoff_file_errors(tmp_path, capsys):
    assert run(["birkhoff", "--matrix", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("u ; zebra\n1 ; 1\n", encoding="utf-8")
    assert run(["birkhoff", "--matrix", str(bad)]) == 2
    capsys.readouterr()
    nonunit = tmp_path / "nonunit.txt"
    nonunit.write_text("1 ; 0\n0 ; 1 + u\n", encoding="utf-8")
    assert run(["birkhoff", "--matrix", str(nonunit)]) == 2
    assert "transition" in capsys.readouterr().err
    zero_denominator = tmp_path / "zero.txt"
    zero_denominator.write_text("u ; 1/0\n0 ; 1\n", encoding="utf-8")
    assert run(["birkhoff", "--matrix", str(zero_denominator)]) == 2
    assert "zero denominator in term '+1/0'" in capsys.readouterr().err
    # more rows than the cofactor determinant can afford
    rank9 = tmp_path / "rank9.txt"
    rank9.write_text(
        "\n".join(" ; ".join("1" if i == j else "0" for j in range(9)) for i in range(9)),
        encoding="utf-8",
    )
    assert run(["birkhoff", "--matrix", str(rank9)]) == 2
    assert capsys.readouterr().err == (
        f"error: a matrix of 9 rows exceeds the limit of {p1lab.MAX_RANK}\n"
    )
    # a literal past the digits int() converts, as a coefficient or an
    # exponent, is named by its length, not echoed
    for entry in ("9" * 5000 + "*u", "u^" + "9" * 5000, "1/" + "7" * 5000):
        long_literal = tmp_path / "long.txt"
        long_literal.write_text(f"{entry} ; 0\n0 ; 1\n", encoding="utf-8")
        assert run(["birkhoff", "--matrix", str(long_literal)]) == 2
        assert capsys.readouterr().err == "error: a number of 5000 digits is too long\n"


def test_birkhoff_reduction_is_budgeted(tmp_path, capsys):
    # u + u^2 + ... + u^6000 takes 6000 reduction steps of up to 6002 terms;
    # unbudgeted, they ran for about 22 s
    path = tmp_path / "long.txt"
    entry = " + ".join(f"u^{i}" for i in range(1, 6001))
    path.write_text(f"1 ; {entry}\n0 ; 1\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        start = time.perf_counter()
        assert run(["birkhoff", "--matrix", str(path), *mode]) == 2
        assert time.perf_counter() - start < 4
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_over_budget(captured.err, "the Birkhoff reduction of a rank-2 matrix", "at least")


def test_birkhoff_numbers_too_long_to_print(tmp_path, capsys):
    too_long = f"error: a number in the result has more than {sys.get_int_max_str_digits()} digits\n"
    # the determinant coefficient c^2 has 5999 digits; text mode never prints it
    c = "7" * 3000
    path = tmp_path / "matrix.txt"
    path.write_text(f"{c}*u ; 0\n0 ; {c}\n", encoding="utf-8")
    assert run(["birkhoff", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == "{0, 1}\n"
    assert run(["birkhoff", "--matrix", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == too_long
    # an entry of a matrix too long to print is named in the same words
    nines = "9" * sys.get_int_max_str_digits()
    for argv in (["verify", "atiyah", "-l", f"-{nines}"],
                 ["split", "-N", "1", f"J1(O(-{nines}), left)"]):
        for mode in ([], ["--json"]):
            assert run([*argv, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == too_long
    # text mode prints the splitting, never the ingested matrix
    path.write_text(f"{nines}*u + {nines}*u\n", encoding="utf-8")
    assert run(["birkhoff", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == "{1}\n"
    assert run(["birkhoff", "--matrix", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == too_long
    # a determinant that is not a monomial is named by its term count, not
    # printed: c^2 u^2 + 3c u + 1 has a 6000-digit coefficient
    c = "9" * 3000
    path.write_text(f"{c}*u + 1 ; 1\n1 ; {c}*u + 2\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        assert run(["birkhoff", "--matrix", str(path), *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: determinant of 3 terms is not a unit monomial; "
                                "not a vector-bundle transition\n")
    # the degrees print, but the determinant exponent has one digit more
    n = "9" * sys.get_int_max_str_digits()
    path.write_text(f"u^{n} ; 0\n0 ; u^{n}\n", encoding="utf-8")
    assert run(["birkhoff", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == f"{{{n}, {n}}}\n"
    assert run(["birkhoff", "--matrix", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == too_long


def test_one_budget_per_invocation(monkeypatch, tmp_path, capsys):
    # a table's rows, verify ktheory's recursion and series, and birkhoff's
    # determinant and reduction each spend from the budget the command built:
    # no callee builds one of its own
    def second_budget(*args):
        raise AssertionError("a second budget")

    for module in (p1lab, sheafdsl, kring):
        monkeypatch.setattr(module, "Budget", second_budget)
    path = tmp_path / "matrix.txt"
    path.write_text("u^2 ; 0\n1 - u ; u^-1\n", encoding="utf-8")
    for argv in (["table", "jets", "-N", "1", "--lmin", "-3", "--lmax", "4"],
                 ["birkhoff", "--matrix", str(path)]):
        assert run(argv) == 0, capsys.readouterr().err
    monkeypatch.setattr(kring, "Budget", cli.Budget)  # each twist class has its own
    assert run(["verify", "ktheory", "-N", "4", "-k", "3", "-l", "7"]) == 0
    built = []

    def first_budget():
        assert not built, "a second budget"
        built.append(cli.Budget())
        return built[0]

    monkeypatch.setattr(p1lab, "Budget", first_budget)  # verify atiyah builds its own
    assert run(["verify", "atiyah", "-l", "-3"]) == 0 and len(built) == 1
    monkeypatch.undo()
    capsys.readouterr()
    # so 1,001 rows of 4,000-digit twists, 2.3 s of work at a budget a row,
    # go over the one budget; the decimal text of their numbers is charged too
    lmin = 10**4000
    assert run(["table", "jets", "-N", "1", "--lmin", str(lmin), "--lmax", str(lmin + 1000)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_over_budget(captured.err, "the Birkhoff reduction of a rank-2 matrix", "at least")


def test_table_text_sorted(capsys):
    code = run(["table", "jets", "-N", "1", "--lmin", "-2", "--lmax", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 6  # header + 5 rows
    ls = [int(line.split()[0]) for line in lines[1:]]
    assert ls == [-2, -1, 0, 1, 2]


def test_table_json(capsys):
    argv = ["table", "jets", "-N", "1", "--lmin", "1", "--lmax", "3"]
    code = run([*argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    *rows, table = payload["steps"]
    assert [s["values"]["l"] for s in rows] == ["1", "2", "3"]
    assert rows[1]["values"]["left"] == ["1", "1"]
    assert rows[1]["values"]["right"] == ["2", "0"]
    # the last step holds the table text mode prints
    assert run(argv) == 0
    assert capsys.readouterr().out == table["values"]["rendered"] + "\n"


def test_table_rejects_bad_range(capsys):
    assert run(["table", "jets", "-N", "1", "--lmin", "3", "--lmax", "1"]) == 2
    capsys.readouterr()
    assert run(["table", "jets", "-N", "2", "--lmin", "0", "--lmax", "1"]) == 2
    capsys.readouterr()


def test_exit_code_is_function_of_verdict(capsys):
    # same claim, three verdicts, three exit codes
    for l, expected in ((2, 0), (0, 1), (-1, 2)):
        assert run(["verify", "mainsplit", "-N", "2", "-l", str(l)]) == expected
        capsys.readouterr()


def _report_from_payload(payload):
    steps = [Step(s["description"], s["values"]) for s in payload["steps"]]
    return Report(payload["claim"], payload["params"], payload["verdict"], steps)


def test_json_report_round_trip():
    report = Report(
        "demo",
        {"N": 3, "l": 2},
        VERIFIED,
        [
            Step("values survive", {"big": binom(70, 35), "list": [1, -2], "half": Fraction(1, 2)}),
            Step("flags survive", {"ok": True, "note": "text stays text"}),
        ],
    )
    payload = json.loads(emit_json(report))
    assert payload["claim"] == report.claim
    assert payload["verdict"] == report.verdict
    assert payload["params"] == {"N": "3", "l": "2"}
    values = payload["steps"][0]["values"]
    assert values["big"] == str(binom(70, 35))
    assert values["list"] == ["1", "-2"]
    assert values["half"] == "1/2"
    assert payload["steps"][1]["values"] == {"ok": True, "note": "text stays text"}
    # the text renderer prints the decimal strings as it prints the numbers
    assert _render_report(_report_from_payload(payload)) == _render_report(report)


def test_report_is_a_checked_immutable_value():
    with pytest.raises(ValueError):
        Report("demo", {}, "bogus")
    report = Report("demo", {"N": 1}, VERIFIED, [Step("s", {"x": 1})])
    assert report == Report("demo", {"N": 1}, VERIFIED, [Step("s", {"x": 1})])
    with pytest.raises(AttributeError, match="Report is immutable"):
        report.verdict = REFUTED


def test_import_loads_jetk_without_heavy_stdlib_modules():
    probe = (
        "import sys, jetk.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules)); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('jetk.'))))"
    )
    src = str(Path(jetk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    heavy, loaded = proc.stdout.split("\n")[:2]
    assert heavy == ""
    assert loaded.split() == [
        "jetk.cli", "jetk.exact_arith", "jetk.jetcalc", "jetk.kring",
        "jetk.p1lab", "jetk.report", "jetk.sheafdsl",
    ]


def test_json_preserves_arbitrary_precision():
    value = binom(70, 35)
    report = Report("precision", {}, VERIFIED, [Step("huge", {"value": value})])
    payload = json.loads(emit_json(report))
    assert payload["steps"][0]["values"]["value"] == str(value)
    assert int(payload["steps"][0]["values"]["value"]) == value


def test_refuted_report_serialization(capsys):
    code = run(["verify", "mainsplit", "-N", "2", "-l", "0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == REFUTED


def _readme_commands():
    """The argv of each `jetk ...` line in README's command-line examples."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.startswith("jetk ")]


def test_text_and_json_present_identical_values(tmp_path, capsys):
    # text mode prints the final step's rendered value, or the whole report
    # when it has none, for every command README shows
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"kclass", "split", "verify", "birkhoff", "table"}
    (tmp_path / "trans.txt").write_text("u^2 ; 0\n2*u ; -1\n", encoding="utf-8")
    for argv in commands:
        argv = [str(tmp_path / arg) if arg == "trans.txt" else arg for arg in argv]
        assert run(argv) == 0, argv
        text_out = capsys.readouterr().out
        assert run([*argv, "--json"]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        final = payload["steps"][-1]["values"]
        if "rendered" in final:
            assert text_out == final["rendered"] + "\n", argv
        else:
            assert text_out == _render_report(_report_from_payload(payload)) + "\n", argv


def test_golden_verify_atiyah_json(capsys):
    run(["verify", "atiyah", "-l", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["claim"] == "atiyah-class-detects-structures"
    assert payload["params"] == {"l": "1"}
    assert payload["verdict"] == "verified"
    values = {s["description"]: s["values"] for s in payload["steps"]}
    assert values["Atiyah class as the residue of dlog(u^l)"]["residue"] == "1"
    final = payload["steps"][-1]["values"]
    assert final == {
        "class_zero": False,
        "splittings_equal": False,
        "equivalence_holds": True,
    }


def test_public_names_resolve():
    assert len(set(jetk.__all__)) == len(jetk.__all__)
    for name in jetk.__all__:
        assert hasattr(jetk, name), name
    # the list README's "Python API" section documents
    assert sorted(jetk.__all__) == sorted([
        "parse", "evaluate", "print_expr", "ParseError", "RangeError", "TruncPoly",
        "verify_ktheory_equality", "prove_non_isomorphic", "verify_corr_p1",
        "jet_transition", "matrix_from_text", "birkhoff_split", "splitting_via_h0",
        "SplittingType", "LaurentMatrix", "Report", "Step",
        "VERIFIED", "REFUTED", "INAPPLICABLE",
    ])
