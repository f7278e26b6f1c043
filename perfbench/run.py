"""Seeded end-to-end benchmark for jetk.

    python3 perfbench/run.py --workload kring-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports jetk from ``src/``
and exits with code 2, printing no result, when that is missing.
``--workload all`` runs every workload untraced and traced, one process
each.

One process, one closed-loop client: each query starts when the previous
one has returned and been checked.  Every answer is compared with a
reference computed by ``oracle.py``, never by jetk.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it runs the stream for a third of the time to fix the
queries, then replays the warm-up and those queries twice from a fresh
import of jetk, once plain and once with its public functions wrapped
(``tracer.py``), alternating in chunks.  The throughput ratio of the two
replays is the tracing overhead.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Spans of the traced replay go to ``.perfbench_out/spans-<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 5  # set-ups before and again after an untraced run; setup_s is their median
PROBES = 7  # pairs of probe processes when not interleaved with queries
QUERY_TIMEOUT_S = 120
CHUNK = 20  # queries per plain/traced alternation outside kring-mix sessions
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import jetk.cli; "
    "print(time.perf_counter() - t)"
)
LAYERS = ["cli", "sheafdsl", "kring", "jetcalc", "p1lab", "exact_arith"]
SRC_MODULES = ["__init__", "cli", "exact_arith", "jetcalc", "kring", "p1lab", "report", "sheafdsl"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- running queries ---------------------------------------------------------


def load_jetk() -> SimpleNamespace:
    """Import jetk afresh: new module objects, cold caches."""
    for name in [n for n in sys.modules if n == "jetk" or n.startswith("jetk.")]:
        del sys.modules[name]
    cli = importlib.import_module("jetk.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"imported jetk from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, p1lab=importlib.import_module("jetk.p1lab"))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _alarm(signum, frame):
    raise TimeoutError(f"no answer within {QUERY_TIMEOUT_S} s")


def spawn(cmd: list) -> tuple:
    """(seconds, exit code, stdout) of one child process.

    The timeout is a SIGALRM, not subprocess's own, which waits by polling
    with sleeps of up to 50 ms and so would add that to every latency."""
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    signal.alarm(QUERY_TIMEOUT_S)
    try:
        out, _ = proc.communicate()
    except TimeoutError:
        proc.kill()
        proc.communicate()
        raise
    finally:
        signal.alarm(0)
    return time.perf_counter() - t0, proc.returncode, out


def execute(q, jetk, span_file=None) -> tuple:
    """(seconds, exit code, output) of one query."""
    if q.via == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = jetk.cli.run(q.args)
            dt = time.perf_counter() - t0
        return dt, code, out.getvalue()
    if q.via == "h0":
        t0 = time.perf_counter()
        split = jetk.p1lab.splitting_via_h0(jetk.p1lab.matrix_from_text(q.args[0]))
        return time.perf_counter() - t0, 0, tuple(split.degrees)
    if span_file is None:
        cmd = [sys.executable, "-m", "jetk.cli", *q.args]
    else:
        cmd = [sys.executable, str(HERE / "tracechild.py"), str(span_file), *q.args]
    return spawn(cmd)


class Loop:
    """Closed-loop client: latencies, failures and the queries it ran.

    A query that starts a new session gets a fresh import of jetk first,
    outside the timed wall time; when tracing, the wrappers move to it."""

    def __init__(self, jetk, rec=None):
        self.jetk = jetk
        self.rec = rec
        self.session = None
        self.queries = []
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.busy = 0.0  # timed wall time: issuing and checking queries

    def run(self, stream, seconds=float("inf"), between=None):
        """Issue queries until ``seconds`` of timed wall time have passed or
        the stream ends; ``between`` runs after each query, untimed."""
        rec = self.rec
        for q in stream:
            if self.busy >= seconds:
                break
            if q.session is not None and q.session != self.session:
                self.session = q.session
                if rec is not None:
                    rec.uninstall()
                self.jetk = load_jetk()
                gc.collect()  # free the last session's modules now, not mid-query
                if rec is not None:
                    rec.install()
            t0 = time.perf_counter()
            span = None
            if rec is not None:
                rec.query_id += 1
                span = rec.open(0)
            span_file = OUT / "child-spans.json" if rec is not None and q.via == "proc" else None
            try:
                dt, code, out = execute(q, self.jetk, span_file)
                q.check(code, out)
            except Exception as exc:  # any failure of a query is counted, not fatal
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{q.kind} {q.args[:6]}: {type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
            if span is not None:
                rec.close(span)
                if span_file is not None and span_file.exists():
                    rec.merge(json.loads(span_file.read_text(encoding="utf-8")), span)
                    span_file.unlink()
            self.busy += time.perf_counter() - t0
            self.queries.append(q)
            self.latencies.append(dt)
            if between is not None:
                between()
        return self

    @property
    def qps(self) -> float:
        return len(self.latencies) / self.busy


def setup(warm: list, workload: str) -> tuple:
    """(seconds, loop): import jetk and run the warm-up queries; the loop
    holds the imported jetk and the warm-up's checks."""
    t0 = time.perf_counter()
    loop = Loop(load_jetk()).run(iter(warm))
    if workload == "cli-cold":
        first = warm[0]
        loop.run(iter([workloads.Query(first.kind, "proc", first.args, first.check)]))
    return time.perf_counter() - t0, loop


class Probes:
    """Bare interpreters and "import jetk.cli" processes, run alternately."""

    def __init__(self):
        self.floor = []  # seconds of "python -c pass"
        self.imports = []  # seconds of "import jetk.cli", timed inside the child

    def __call__(self) -> None:
        if len(self.floor) <= len(self.imports):
            seconds, code, _ = spawn([sys.executable, "-c", "pass"])
            self.floor.append(seconds)
        else:
            _, code, out = spawn([sys.executable, "-c", IMPORT_PROBE])
            self.imports.append(float(out) if code == 0 else 0.0)
        if code:
            raise BenchError("a probe process failed")

    def run(self, pairs: int) -> "Probes":
        for _ in range(2 * pairs):
            self()
        return self

    def medians_ms(self) -> tuple:
        return statistics.median(self.floor) * 1e3, statistics.median(self.imports) * 1e3


# --- metrics -------------------------------------------------------------------


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def src_lines() -> dict:
    """Lines per module of src/jetk (0 for a module that is gone) and in all."""
    counts = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
              for path in (SRC / "jetk").glob("*.py")}
    out = {module: counts.get(module, 0) for module in SRC_MODULES}
    out["total"] = sum(counts.values())
    return out


def properties(workload: str, seed: int, queries: list) -> list:
    """Input properties that decide which layer works, measured on the
    queries the run issued."""
    lines = [f"generator seed: {workload}:{seed}"]
    calls = [q for q in queries if q.via != "h0"]
    lines.append(f"--json share: {sum(q.json for q in calls)}/{len(calls)} CLI queries")
    if workload == "kring-mix":
        for kind in ("ktheory", "kclass", "mainsplit"):
            of_kind = [q for q in queries if q.kind == kind]
            lines.append(f"{kind} N revisit share: {sum(q.revisit for q in of_kind)}/{len(of_kind)}")
        lines.append(f"sessions (fresh jetk imports): {len({q.session for q in queries})}")
    if workload == "p1-split":
        ranks = Counter(q.rank for q in queries if q.kind == "birkhoff")
        h0 = Counter(q.rank for q in queries if q.kind == "h0")
        hist = ", ".join(f"r{r}: {ranks[r]}" for r in sorted(ranks))
        lines.append(f"birkhoff rank histogram: {hist}")
        lines.append(
            f"h0 cross-check share: {sum(h0.values())}/{sum(ranks.values())} matrices "
            f"(rank 4: {h0[4]}/{ranks[4]})"
        )
    kinds = Counter(q.kind for q in queries)
    lines.append("query kinds: " + ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items())))
    return lines


def end_to_end(workload: str, setups: list, loop: Loop) -> dict:
    value, _ = tail(loop.latencies)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "throughput_qps": (loop.qps, "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(rec, traced: int, overhead: float, floor_ms: float, import_ms: float) -> dict:
    totals = rec.totals()

    def ms(name, which=0):
        return (totals.get(name, [0, 0, 0])[which] / 1e6 / traced, "ms/query")

    def calls(name):
        return (totals.get(name, [0, 0, 0])[2] / traced, "calls/query")

    def counted(name, unit="calls/query"):
        return (rec.counts.get(name, 0) / traced, unit)

    hits, misses = rec.cache
    m = {
        "cli.run.self_ms": ms("cli.run", 1),
        "cli.emit_json.ms": ms("cli.emit_json"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.python_floor_ms": (floor_ms, "ms"),
        "sheafdsl.parse.ms": ms("sheafdsl.parse"),
        "sheafdsl.parse.calls": calls("sheafdsl.parse"),
        "sheafdsl.evaluate.self_ms": ms("sheafdsl.evaluate", 1),
        "kring.sym_omega.ms": ms("kring.sym_omega"),
        "kring.sym_omega.calls": calls("kring.sym_omega"),
        "kring.sym_omega.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "kring.sym_power.ms": ms("kring.sym_power"),
        "kring.sym_power.terms": counted("kring.sym_power.terms", "terms/query"),
        "kring.wedge_power.ms": ms("kring.wedge_power"),
        "kring.sum_to_class.ms": ms("kring.sum_to_class"),
        "kring.class_of_twist.calls": counted("kring.class_of_twist"),
        "jetcalc.jet_class.ms": ms("jetcalc.jet_class"),
        "jetcalc.verify_ktheory_equality.self_ms": ms("jetcalc.verify_ktheory_equality", 1),
        "jetcalc.prove_non_isomorphic.ms": ms("jetcalc.prove_non_isomorphic"),
        "p1lab.det.ms": ms("p1lab.det"),
        "p1lab.det.calls": calls("p1lab.det"),
        "p1lab.birkhoff_split.self_ms": ms("p1lab.birkhoff_split", 1),
        "p1lab.h0_count.ms": ms("p1lab.h0_count"),
        "p1lab.h0_count.calls": calls("p1lab.h0_count"),
        "p1lab.splitting_via_h0.self_ms": ms("p1lab.splitting_via_h0", 1),
        "p1lab.matrix_from_text.ms": ms("p1lab.matrix_from_text"),
        "exact_arith.TruncPoly.mul.calls": calls("exact_arith.TruncPoly.mul"),
        "exact_arith.TruncPoly.mul.ms": ms("exact_arith.TruncPoly.mul"),
        "exact_arith.LaurentPoly.mul.calls": calls("exact_arith.LaurentPoly.mul"),
        "exact_arith.LaurentPoly.mul.ms": ms("exact_arith.LaurentPoly.mul"),
        "exact_arith.binom.calls": counted("exact_arith.binom"),
    }
    traced_ns = totals[tracer.ROOT][0]
    for layer in LAYERS:
        own = sum(row[1] for name, row in totals.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = (own / traced_ns, "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    for module, count in src_lines().items():
        m[f"src_lines.{module}"] = (count, "lines")
    return m


# --- one workload -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(printed lines, result object)."""
    workdir = OUT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        stream = workloads.STREAMS[workload](random.Random(f"{workload}:{seed}"), workdir)
        warm = workloads.warmup(workdir)
        if trace:
            return _traced(workload, seed, seconds, stream, warm)
        return _untraced(workload, seed, seconds, stream, warm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, seed, seconds, stream, warm):
    # Set-ups on both sides of the loop, so that their median does not
    # rest on one moment of the machine's speed.
    setups = [setup(warm, workload) for _ in range(SETUPS)]
    loop = Loop(setups[-1][1].jetk).run(stream, seconds)
    setups += [setup(warm, workload) for _ in range(SETUPS)]
    warmups = [warmed for _, warmed in setups]
    metrics = end_to_end(workload, [elapsed for elapsed, _ in setups], loop)
    lines = properties(workload, seed, loop.queries)
    n = len(loop.latencies)
    _, pct = tail(loop.latencies)
    notes = {
        "latency_tail_ms": f"p{pct:.2f} of {n} queries, {min(n, 10)} beyond it",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    lines += [_metric_line(k, v, notes.get(k, "")) for k, v in metrics.items()]
    lines.append(_metric_line("failed_ratio", (loop.failed / n, "ratio"),
                              f"{loop.failed} failed of {n} attempted"))
    if workload == "cli-cold":
        floor_ms, _ = Probes().run(PROBES).medians_ms()
        lines.append(_metric_line("python_floor_ms", (floor_ms, "ms"), "bare python -c pass"))
    return lines + _errors(loop, *warmups), _result(loop, *warmups, metrics=metrics)


def _chunks(queries: list) -> list:
    """A kring-mix session each, or CHUNK queries at a time."""
    out = []
    for i, q in enumerate(queries):
        if q.session is None:
            starts = i % CHUNK == 0
        else:
            starts = i == 0 or q.session != queries[i - 1].session
        if starts:
            out.append([])
        out[-1].append(q)
    return out


def _compare(queries: list, warm: list, rec, between=None) -> tuple:
    """(plain, traced): ``queries`` replayed from a fresh import, without
    and with the wrappers, after a traced warm-up that gives every layer
    spans.  The two alternate chunk by chunk, so both see the machine at
    the same moments; a session is replayed from a fresh import each time."""
    jetk = load_jetk()
    plain, traced, warmed = Loop(jetk), Loop(jetk, rec), Loop(jetk, rec)
    rec.install()
    try:
        warmed.run(iter(warm))
        for chunk in _chunks(queries):
            rec.uninstall()
            plain.run(iter(chunk), between=between)
            rec.install()
            traced.run(iter(chunk))
    finally:
        rec.uninstall()
    return plain, traced, warmed


def _traced(workload, seed, seconds, stream, warm):
    # The first pass fixes the queries, so that the plain and the traced
    # replay do the same work, without input generation in between.
    _, first_warm = setup(warm, workload)
    first = Loop(first_warm.jetk).run(stream, seconds / 3)
    # cli-cold compares its latency with the probes, so it takes them
    # between its queries rather than minutes apart.
    probes = Probes()
    rec = tracer.Recorder()
    plain, traced, warmed = _compare(first.queries, warm, rec,
                                     between=probes if workload == "cli-cold" else None)
    leftover = tracer.leftover_wrappers()
    if leftover:
        raise BenchError("wrappers left in jetk: " + ", ".join(leftover))
    rec.write(OUT / f"spans-{workload}.tsv.gz")
    if not probes.floor:
        probes.run(PROBES)
    floor_ms, import_ms = probes.medians_ms()
    overhead = plain.qps / traced.qps
    metrics = per_layer(rec, rec.query_id + 1, overhead, floor_ms, import_ms)
    lines = properties(workload, seed, plain.queries)
    lines.append(
        f"traced {rec.query_id + 1} queries ({len(warm)} warm-up + {len(plain.queries)} "
        f"replayed); per-query figures divide by that count"
    )
    hits, misses = rec.cache
    traced_ms = rec.totals()[tracer.ROOT][0] / 1e6
    notes = {
        "kring.sym_omega.cache_hit_ratio": f"{hits} hits of {hits + misses} cache_info lookups",
        "trace.overhead_ratio": f"{plain.qps:.4g} plain / {traced.qps:.4g} traced queries/s",
        "cli.import_ms": f"median of {len(probes.imports)} processes",
        "cli.python_floor_ms": f"median of {len(probes.floor)} processes",
    }
    notes.update({f"{layer}.self_share": f"of {traced_ms:.1f} ms traced" for layer in LAYERS})
    lines += [_metric_line(k, v, notes.get(k, "")) for k, v in metrics.items()]
    if rec.missing:
        lines.append("not traced, gone from jetk: " + ", ".join(rec.missing))
    if workload == "cli-cold":
        above = statistics.median(plain.latencies) * 1e3 - floor_ms
        run_ms = rec.totals(len(warm)).get("cli.run", [0])[0] / 1e6 / len(traced.queries)
        lines.append(
            f"median latency above the python floor: {above:.1f} ms = cli.import_ms "
            f"{import_ms:.1f} + mean cli.run {run_ms:.1f} + other {above - import_ms - run_ms:.1f} "
            f"(-m start-up, interpreter exit)"
        )
    loops = (first_warm, first, plain, traced, warmed)
    return lines + _errors(*loops), _result(*loops, metrics=metrics)


def _metric_line(name, value_unit, note="") -> str:
    value, unit = value_unit
    text = f"  {name} = {value:.6g} {unit}"
    return f"{text}  ({note})" if note else text


def _errors(*loops) -> list:
    """The first few failures, warm-up checks included."""
    return [error for loop in loops for error in loop.errors][:5]


def _result(*loops, metrics: dict) -> dict:
    """Every checked query counts, warm-up queries included."""
    failed = sum(loop.failed for loop in loops)
    return {
        "correct": failed == 0,
        "attempted": sum(len(loop.queries) for loop in loops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.STREAMS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            *lines, last = proc.stdout.splitlines()
            print(f"== {workload} (trace {trace})")
            print("\n".join(lines))
            result = json.loads(last)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.STREAMS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jetk" / "__init__.py").is_file():
        print(f"error: no jetk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(f"== {args.workload} (trace {args.trace})")
            print("\n".join(lines))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
