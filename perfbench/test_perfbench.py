"""Tests of the benchmark itself: tiny runs of every workload and the
tracer's clean-up.  Run with ``python -m pytest perfbench``."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Printed by every untraced run next to the gated metrics; it is 0 on a
# correct run, so it cannot be a gated metric itself.
PRINTED_ONLY = [("failed_ratio", "ratio")]


def _printed(lines: list, name: str, unit: str) -> str:
    prefix = f"  {name} = "
    found = [line for line in lines if line.startswith(prefix)]
    assert found, f"{name} not printed"
    value, got_unit = found[0][len(prefix):].split()[:2]
    assert got_unit == unit, f"{name}: unit {got_unit}, expected {unit}"
    return value


def test_every_workload_reports_its_metrics_and_no_failures():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {w["name"] for w in SPEC["workloads"]}
    assert declared == set(run.workloads.STREAMS)
    for workload in declared:
        start = lines.index(f"== {workload} (trace 0)")
        untraced = lines[start:lines.index(f"== {workload} (trace 1)")]
        traced = lines[lines.index(f"== {workload} (trace 1)"):]
        for metric in SPEC["end_to_end"]:
            _printed(untraced, metric["name"], metric["unit"])
            assert result["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
        for name, unit in PRINTED_ONLY:
            assert float(_printed(untraced, name, unit)) == 0
        for metric in SPEC["per_layer"]:
            _printed(traced, metric["name"], metric["unit"])
            assert result["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]


def test_missing_sources_give_no_result(monkeypatch):
    monkeypatch.setattr(run, "SRC", ROOT / "no-such-dir")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", "kring-mix", "--seed", "1", "--seconds", "1"])
    assert code != 0 and out.getvalue() == ""


def test_traced_run_leaves_jetk_unpatched():
    sys.path.insert(0, str(ROOT / "src"))
    import jetk.cli
    from jetk import jetcalc, kring, p1lab

    before = {id(ns): dict(vars(ns)) for ns in tracer._jetk_namespaces()}
    rec = tracer.Recorder()
    rec.install()
    try:
        # Names other modules imported are rebound too.
        assert hasattr(jetcalc.sym_omega, tracer.MARK)
        assert hasattr(jetcalc.class_of_twist, tracer.MARK)
        assert kring.sym_omega is jetcalc.sym_omega
        with contextlib.redirect_stdout(io.StringIO()):
            assert jetk.cli.run(["verify", "ktheory", "-N", "3", "-k", "3", "-l", "1"]) == 0
        p1lab.splitting_via_h0(p1lab.jet_transition(2, "left"))
    finally:
        rec.uninstall()
    assert tracer.leftover_wrappers() == []
    after = {id(ns): dict(vars(ns)) for ns in tracer._jetk_namespaces()}
    assert before.keys() == after.keys()
    for key, names in before.items():
        assert all(after[key][n] is v for n, v in names.items())
    totals = rec.totals()
    assert totals["cli.run"][2] == 1
    assert totals["jetcalc.verify_ktheory_equality"][2] == 1
    assert totals["p1lab.h0_count"][2] > 0
    assert rec.counts["kring.class_of_twist"] > 0
