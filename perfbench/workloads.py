"""Seeded query streams and their expected answers.

A query is one call into jetk's public surface: ``jetk.cli.run(argv)``
in-process (``via="cli"``), a ``p1lab.matrix_from_text`` +
``p1lab.splitting_via_h0`` call (``via="h0"``), or a fresh
``python -m jetk.cli`` process (``via="proc"``).  Each carries a checker
built from ``oracle``; jetk only ever sees the argv strings and matrix
files made here.

Streams are built in shuffled blocks with a fixed mix of query kinds, so
the share of each kind in a run does not depend on the seed; the seed
picks the order and the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

import oracle

JSON_SHARE = 0.1  # share of in-process CLI queries that pass --json
REUSE_SHARE = 0.5  # kring-mix kclass/mainsplit: chance N revisits one seen in the session
H0_RANK4_SHARE = 0.5  # p1-split: share of rank-4 matrices also solved by h0


class Mismatch(Exception):
    """jetk's answer differs from the reference."""


@dataclass
class Query:
    kind: str
    via: str  # "cli", "h0" or "proc"
    args: list  # argv, or [matrix text] for "h0"
    check: object  # check(code, stdout) raises Mismatch
    N: int = None
    revisit: bool = False
    rank: int = None
    json: bool = False
    session: int = None  # kring-mix: queries of one session share a jetk import


# --- checkers ----------------------------------------------------------------


def _render(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def _encode(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, str):
        return value
    return oracle.decimal(value)


def expect_stdout(text: str, code: int = 0):
    def check(got_code, stdout):
        if got_code != code or stdout != text + "\n":
            raise Mismatch(f"exit {got_code}, stdout {stdout[:200]!r}; expected {text[:200]!r}")
    return check


def expect_report(verdict: str, code: int, pairs: list, as_json: bool):
    """A report with this verdict whose step values include every
    (key, value) pair, as often as it is listed."""

    def check(got_code, stdout):
        if got_code != code:
            raise Mismatch(f"exit {got_code}, expected {code}")
        if as_json:
            payload = json.loads(stdout)
            got_verdict = payload["verdict"]
            seen = [
                (k, json.dumps(v, sort_keys=True))
                for step in payload["steps"]
                for k, v in step["values"].items()
            ]
            wanted = [(k, json.dumps(_encode(v), sort_keys=True)) for k, v in pairs]
        else:
            lines = [line.strip() for line in stdout.splitlines()]
            got_verdict = next(
                (line[len("verdict: "):] for line in lines if line.startswith("verdict: ")), None
            )
            seen = lines
            wanted = [f"{k} = {_render(v)}" for k, v in pairs]
        if got_verdict != verdict:
            raise Mismatch(f"verdict {got_verdict!r}, expected {verdict!r}")
        for item in set(wanted):
            if seen.count(item) < wanted.count(item):
                raise Mismatch(f"missing {item!r} in {stdout[:300]!r}")
    return check


def expect_degrees(degrees: list):
    want = tuple(sorted(degrees, reverse=True))

    def check(_code, got):
        if got != want:
            raise Mismatch(f"h0 splitting {got}, expected {want}")
    return check


# --- queries ------------------------------------------------------------------------


def kclass_query(N: int, expr: str, ref: list, as_json: bool) -> Query:
    argv = ["kclass", "-N", str(N), expr]
    if as_json:
        check = expect_report(
            "verified", 0, [("coefficients", ref), ("rendered", oracle.render_class(ref))], True
        )
        argv.append("--json")
    else:
        check = expect_stdout(oracle.render_class(ref))
    return Query("kclass", "cli", argv, check, N=N, json=as_json)


def ktheory_query(N: int, k: int, l: int, as_json: bool) -> Query:
    ref = oracle.jet(N, k, l)
    pairs = [("coefficients", ref), ("coefficients", ref),
             ("multiplicity", comb(N + k, N)), ("equal", True)]
    argv = ["verify", "ktheory", "-N", str(N), "-k", str(k), "-l", str(l)]
    return Query("ktheory", "cli", argv + ["--json"] * as_json,
                 expect_report("verified", 0, pairs, as_json), N=N, json=as_json)


def mainsplit_query(N: int, l: int, as_json: bool) -> Query:
    if l >= 1:
        left = oracle.scale(N + 1, oracle.twist(N, l - 1))
        verdict, code = "verified", 0
        pairs = [("free_summand_twist", l), ("twist", l - 1), ("multiplicity", N + 1),
                 ("hom_dim", 0), ("left", left), ("right", left)]
    elif l == 0:
        verdict, code = "refuted", 1
        pairs = [("atiyah_class_vanishes", True), ("c1", 0)]
    else:
        verdict, code = "inapplicable", 2
        pairs = [("l", l)]
    argv = ["verify", "mainsplit", "-N", str(N), "-l", str(l)]
    return Query("mainsplit", "cli", argv + ["--json"] * as_json,
                 expect_report(verdict, code, pairs, as_json), N=N, json=as_json)


def atiyah_query(l: int, as_json: bool) -> Query:
    pairs = [("residue", l), ("splitting", oracle.jet_splitting(l, "left")),
             ("splitting", oracle.jet_splitting(l, "right")), ("equivalence_holds", True)]
    argv = ["verify", "atiyah", "-l", str(l)]
    return Query("atiyah", "cli", argv + ["--json"] * as_json,
                 expect_report("verified", 0, pairs, as_json), json=as_json)


def split_query(l: int, side: str) -> Query:
    argv = ["split", "-N", "1", f"J1(O({l}), {side})"]
    return Query("split", "cli", argv,
                 expect_stdout(oracle.render_splitting(oracle.jet_splitting(l, side))))


def table_query(lmin: int, lmax: int) -> Query:
    argv = ["table", "jets", "-N", "1", "--lmin", str(lmin), "--lmax", str(lmax)]
    return Query("table", "cli", argv, expect_stdout(oracle.jet_table(lmin, lmax)))


def birkhoff_query(path: Path, degrees: list, det: object, as_json: bool) -> Query:
    argv = ["birkhoff", "--matrix", str(path)]
    if as_json:
        pairs = [("splitting", sorted(degrees, reverse=True)),
                 ("coefficient", det), ("exponent", sum(degrees))]
        check = expect_report("verified", 0, pairs, True)
        argv.append("--json")
    else:
        check = expect_stdout(oracle.render_splitting(degrees))
    return Query("birkhoff", "cli", argv, check, rank=len(degrees), json=as_json)


def h0_query(text: str, degrees: list) -> Query:
    return Query("h0", "h0", [text], expect_degrees(degrees), rank=len(degrees))


# --- expression generator (kring-mix) -------------------------------------------


def _twist_sum(rng, max_terms: int) -> tuple:
    twists = [rng.randint(-3, 5) for _ in range(rng.randint(1, max_terms))]
    return " + ".join(f"O({d})" for d in twists), twists


def _factor(rng, N: int) -> tuple:
    """(text, class) of one factor."""
    kind = rng.choices(
        ["sym", "wedge", "symomega", "jet", "dual", "twist", "omega"],
        weights=[5, 3, 3, 3, 2, 2, 1],
    )[0]
    if kind in ("sym", "wedge"):
        text, twists = _twist_sum(rng, 6)
        k = rng.randint(0, 8) if kind == "sym" else rng.randint(0, len(twists))
        counts = oracle.power_degrees(twists, k, wedge=kind == "wedge")
        name = "Sym" if kind == "sym" else "Wedge"
        return f"{name}{k}({text})", oracle.sum_of_twists(N, counts)
    if kind == "symomega":
        k = rng.randint(0, 24)
        return f"Sym{k}(Omega)", oracle.sym_omega(N, k)
    if kind == "jet":
        k, l = rng.randint(1, 12), rng.randint(-5, 8)
        side = rng.choice(["left", "right"])
        return f"J{k}(O({l}), {side})", oracle.jet(N, k, l)
    if kind == "dual":
        text, twists = _twist_sum(rng, 4)
        counts = {}
        for d in twists:
            counts[-d] = counts.get(-d, 0) + 1
        return f"dual({text})", oracle.sum_of_twists(N, counts)
    if kind == "twist":
        d = rng.randint(-6, 9)
        return f"O({d})", oracle.twist(N, d)
    return "Omega", oracle.sym_omega(N, 1)


def expression(rng, N: int) -> tuple:
    """(text, class): a sum of 1-3 terms, each a product of 1-2 factors."""
    texts, total = [], [0] * (N + 1)
    for _ in range(rng.randint(1, 3)):
        text, value = _factor(rng, N)
        if rng.random() < 0.4:
            text2, value2 = _factor(rng, N)
            text, value = f"({text}) * ({text2})", oracle.mul(value, value2)
        texts.append(text)
        total = oracle.add(total, value)
    return " + ".join(texts), total


class _NPicker:
    """Draws N for one kind of query from ``values``.

    With ``revisits`` None, a draw revisits an N seen earlier in the
    session with probability REUSE_SHARE (always, once none is unseen).
    Otherwise ``revisits`` is the session's list of draws, True for a
    revisit: the unseen values are then each drawn once, in seeded order."""

    def __init__(self, rng, values, revisits=None):
        self.rng = rng
        self.unseen = list(values)
        rng.shuffle(self.unseen)
        self.seen = []
        self.revisits = revisits

    def pick(self) -> tuple:
        if self.revisits is not None:
            revisit = self.revisits.pop()
        else:
            revisit = not self.unseen or (self.seen and self.rng.random() < REUSE_SHARE)
        if revisit:
            return self.rng.choice(self.seen), True
        self.seen.append(self.unseen.pop())
        return self.seen[-1], False


# --- streams -----------------------------------------------------------------------

KRING_BLOCK = ["kclass"] * 12 + ["ktheory"] * 5 + ["mainsplit"] * 3
KTHEORY_RUNGS = range(10, 91, 5)  # the N = k ladder
# A session is a fresh import of jetk (cold sym_omega cache) followed by
# this many blocks.  In a session every rung of the ladder is asked cold
# once and the other ktheory queries revisit a rung already asked, so all
# sessions do the same cold work.  With one import for the whole run the
# rungs would run out, later queries would all hit the cache, and a run's
# throughput would depend on how far it got.
SESSION_BLOCKS = 7


def _json_flags(rng, n: int) -> list:
    flags = [False] * n
    for i in rng.sample(range(n), round(JSON_SHARE * n)):
        flags[i] = True
    return flags


def kring_mix(rng, workdir: Path):
    session = 0
    n_ktheory = SESSION_BLOCKS * KRING_BLOCK.count("ktheory")
    while True:
        revisits = [True] * (n_ktheory - len(KTHEORY_RUNGS)) + [False] * (len(KTHEORY_RUNGS) - 1)
        rng.shuffle(revisits)
        revisits.append(False)  # pop() takes from the end: the first draw is cold
        pickers = {
            "kclass": _NPicker(rng, range(1, 25)),
            "ktheory": _NPicker(rng, KTHEORY_RUNGS, revisits),
            "mainsplit": _NPicker(rng, range(1, 91)),
        }
        for _ in range(SESSION_BLOCKS):
            block = KRING_BLOCK[:]
            rng.shuffle(block)
            for kind, as_json in zip(block, _json_flags(rng, len(block))):
                N, revisit = pickers[kind].pick()
                if kind == "kclass":
                    text, ref = expression(rng, N)
                    q = kclass_query(N, text, ref, as_json)
                elif kind == "ktheory":
                    q = ktheory_query(N, N, rng.randint(-20, 20), as_json)
                else:
                    q = mainsplit_query(N, rng.choice([-1, 0] + list(range(1, 21))), as_json)
                q.revisit = revisit
                q.session = session
                yield q
        session += 1


# Matrix ranks in one block of p1-split; every rank <= 3 matrix and
# H0_RANK4_SHARE of the rank-4 ones get a splitting_via_h0 query as well.
# Rank 7 is left out: one dense rank-7 query takes over a second, so the
# handful a run could hold would set the tail by themselves.
P1_RANKS = [2] * 5 + [3] * 5 + [4] * 5 + [5] * 4 + [6] * 4
P1_EXTRAS = ["split"] * 4 + ["atiyah"] * 4 + ["table"] * 4


def random_matrix(rng, r: int) -> tuple:
    """(text, degrees, det coefficient) of a dense rank-r transition.

    Degrees are 0 or 1 plus a common twist in [-1, 1]: wider exponent
    ranges make cofactor det and the h0 systems grow with the range as
    well as with r, and a rank-6 query would no longer fit a run."""
    shift = rng.randint(-1, 1)
    degrees = [rng.randint(0, 1) + shift for _ in range(r)]
    rows, det = oracle.transition_matrix(rng, degrees)
    return oracle.matrix_text(rows), degrees, det


def p1_split(rng, workdir: Path):
    serial = 0
    while True:
        block = [("matrix", r) for r in P1_RANKS] + [(kind, None) for kind in P1_EXTRAS]
        rng.shuffle(block)
        for (kind, r), as_json in zip(block, _json_flags(rng, len(block))):
            if kind == "matrix":
                text, degrees, det = random_matrix(rng, r)
                path = workdir / f"m{serial}.txt"
                serial += 1
                path.write_text(text, encoding="utf-8")
                yield birkhoff_query(path, degrees, det, as_json)
                if r <= 3 or (r == 4 and rng.random() < H0_RANK4_SHARE):
                    yield h0_query(text, degrees)
            elif kind == "split":
                yield split_query(rng.randint(-6, 8), rng.choice(["left", "right"]))
            elif kind == "atiyah":
                yield atiyah_query(rng.randint(-8, 8), as_json)
            else:
                lmin = rng.randint(-8, 8)
                yield table_query(lmin, lmin + rng.randint(0, 6))


README_MATRIX = "u^2 ; 0\n2*u ; -1\n"


def cli_cold(rng, workdir: Path):
    """The README examples of all five subcommands, one moderate
    verify ktheory and one Sym/Wedge of a twist sum, in seeded order."""
    path = workdir / "trans.txt"
    path.write_text(README_MATRIX, encoding="utf-8")
    twists = [1, 2, 3]
    sym_wedge = oracle.add(
        oracle.sum_of_twists(3, oracle.power_degrees(twists[:2], 3, wedge=False)),
        oracle.sum_of_twists(3, oracle.power_degrees(twists, 2, wedge=True)),
    )
    cycle = [
        kclass_query(2, "Sym2(Omega) * O(3)", oracle.mul(oracle.sym_omega(2, 2), oracle.twist(2, 3)), False),
        kclass_query(1, "O(5)", oracle.twist(1, 5), True),
        kclass_query(3, "Sym3(O(1) + O(2)) + Wedge2(O(1) + O(2) + O(3))", sym_wedge, False),
        split_query(2, "right"),
        mainsplit_query(3, 2, False),
        ktheory_query(4, 3, 7, False),
        ktheory_query(40, 40, 3, True),
        atiyah_query(-3, False),
        Query("birkhoff", "cli", ["birkhoff", "--matrix", str(path)], expect_stdout("{1, 1}")),
        table_query(-2, 5),
    ]
    while True:
        order = cycle[:]
        rng.shuffle(order)
        for q in order:
            yield Query(q.kind, "proc", q.args, q.check, N=q.N, json=q.json)


STREAMS = {"kring-mix": kring_mix, "p1-split": p1_split, "cli-cold": cli_cold}


def warmup(workdir: Path) -> list:
    """One query per public entry point the streams use, from a fixed seed."""
    rng = random.Random("warm-up")
    text2, deg2, _ = random_matrix(rng, 2)
    text3, deg3, det3 = random_matrix(rng, 3)
    path = workdir / "warm3.txt"
    path.write_text(text3, encoding="utf-8")
    return [
        kclass_query(2, "Sym2(Omega) * O(3)", oracle.mul(oracle.sym_omega(2, 2), oracle.twist(2, 3)), False),
        kclass_query(3, "Sym3(O(1) + O(2)) + Wedge2(O(1) + O(2) + O(3)) + dual(O(1))",
                     oracle.add(oracle.sum_of_twists(3, oracle.power_degrees([1, 2], 3, False)),
                                oracle.add(oracle.sum_of_twists(3, oracle.power_degrees([1, 2, 3], 2, True)),
                                           oracle.twist(3, -1))), True),
        kclass_query(2, "J2(O(3), left)", oracle.jet(2, 2, 3), False),
        ktheory_query(4, 3, 7, False),
        mainsplit_query(3, 2, True),
        atiyah_query(-3, False),
        split_query(2, "right"),
        table_query(-2, 2),
        birkhoff_query(path, deg3, det3, True),
        h0_query(text2, deg2),
    ]
