"""Mutant ratchet: how many of jetk's verdicts are earned by a check.

Each mutant below is a plausible bug, patched into jetk with monkeypatch.
README's command-line examples run through ``cli.run`` under it, and the
commands recorded against it must refute it (exit 1); no command may fault
(exit 3).  A command left out still exits 0 with a wrong result: it checks
nothing the mutant breaks.  A new check adds the commands it makes refute a
mutant to REFUTED_BY; an entry is never taken out.
"""

import pytest

from jetk import cli, jetcalc, kring, p1lab
from jetk.exact_arith import LaurentPoly, TruncPoly
from jetk.p1lab import SplittingType

from test_cli import _readme_commands


def _twice_the_twist(monkeypatch):
    """class_of_twist(N, d) gives the class of O(2d)."""
    original = kring.class_of_twist

    def mutant(N, d, *rest):
        return original(N, 2 * d, *rest)

    for module in (kring, jetcalc):
        monkeypatch.setattr(module, "class_of_twist", mutant)


def _top_coefficient_off(monkeypatch):
    """sum_to_class adds the multiplicity sum to t^N; still additive."""
    original = kring.sum_to_class

    def mutant(s, N, *rest):
        coeffs = list(original(s, N, *rest).coeffs)
        coeffs[N] += sum(m for _, m in s.items())
        return TruncPoly(N + 1, coeffs)

    monkeypatch.setattr(kring, "sum_to_class", mutant)


def _series_adds_a_trivial_summand(monkeypatch):
    """The lambda-ring series adds O(0) at k >= 2."""
    original = kring._series_coefficient

    def mutant(s, k, sign, budget):
        return original(s, k, sign, budget) + (LaurentPoly.monomial(0) if k >= 2 else 0)

    monkeypatch.setattr(kring, "_series_coefficient", mutant)


def _splitting_moves_a_unit(monkeypatch):
    """birkhoff_split moves one unit from its lowest degree to its highest."""
    original = p1lab.birkhoff_split

    def mutant(m, *rest):
        degrees = list(original(m, *rest).degrees)  # descending
        degrees[0], degrees[-1] = degrees[0] + 1, degrees[-1] - 1
        return SplittingType(degrees)

    monkeypatch.setattr(p1lab, "birkhoff_split", mutant)


def _splitting_raises_a_degree(monkeypatch):
    """birkhoff_split adds 1 to its highest degree."""
    original = p1lab.birkhoff_split

    def mutant(m, *rest):
        degrees = list(original(m, *rest).degrees)  # descending
        degrees[0] += 1
        return SplittingType(degrees)

    monkeypatch.setattr(p1lab, "birkhoff_split", mutant)


# The commands that exit 1 under each mutant, by subcommand and claim.  kclass
# compares chi of the class with chi of its twist sum, which the t^N mutant
# moves by the multiplicity sum (nonzero in both README sums); each table row
# compares its class's degree with both splittings' degree sums; every
# splitting shown is checked against its determinant's exponent.
REFUTED_BY = {
    _twice_the_twist: {"verify mainsplit", "verify ktheory"},
    _top_coefficient_off: {"verify ktheory", "kclass", "table"},
    _series_adds_a_trivial_summand: {"verify ktheory"},
    _splitting_moves_a_unit: set(),
    _splitting_raises_a_degree: {"split", "birkhoff", "table", "verify atiyah"},
}


def _name(argv) -> str:
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


@pytest.fixture
def commands(tmp_path):
    (tmp_path / "trans.txt").write_text("u^2 ; 0\n2*u ; -1\n", encoding="utf-8")
    kring.sym_omega.cache_clear()  # the Euler recursion must run under the mutant
    yield [[str(tmp_path / a) if a == "trans.txt" else a for a in argv]
           for argv in _readme_commands()]
    kring.sym_omega.cache_clear()  # and leave none of its classes behind


@pytest.mark.parametrize("mutate", list(REFUTED_BY), ids=lambda f: f.__name__.strip("_"))
def test_recorded_commands_refute_each_mutant(mutate, commands, monkeypatch, capsys):
    assert len(commands) == 8
    for argv in commands:
        assert cli.run(argv) == 0, argv  # the unmutated code verifies each
    capsys.readouterr()
    kring.sym_omega.cache_clear()
    mutate(monkeypatch)
    codes = {}
    for argv in commands:
        for mode in ([], ["--json"]):
            code = cli.run([*argv, *mode])
            err = capsys.readouterr().err
            assert code != 3, (argv, mode, err)
            codes.setdefault(_name(argv), set()).add(code)
    refuted = {name for name, seen in codes.items() if seen == {1}}
    assert REFUTED_BY[mutate] <= refuted, codes
