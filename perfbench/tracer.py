"""Span recorder that times jetk's public functions from outside.

``Recorder.install`` replaces each target function or method with a
wrapper that records a span (name, start, end, parent span, query id).
It rebinds every name bound to the original in any loaded ``jetk`` module
or class, so calls through names other modules imported (``jetcalc``'s
``sym_omega`` and ``class_of_twist``, the package re-exports) are seen as
well.  ``uninstall`` puts every original back.  Spans stay in memory in
flat arrays and are written out once, at the end of a run.

A span's self time is its duration minus the time its direct child spans
cover; its inclusive time counts only the outermost span of a name, so
recursion (``sym_omega``, ``evaluate``) is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns

# (module, attribute, span name); an attribute "Class.method" is a method.
SPANNED = [
    ("jetk.cli", "run", "cli.run"),
    ("jetk.cli", "emit_json", "cli.emit_json"),
    ("jetk.sheafdsl", "parse", "sheafdsl.parse"),
    ("jetk.sheafdsl", "evaluate", "sheafdsl.evaluate"),
    ("jetk.kring", "sym_omega", "kring.sym_omega"),
    ("jetk.kring", "sym_power", "kring.sym_power"),
    ("jetk.kring", "wedge_power", "kring.wedge_power"),
    ("jetk.kring", "sum_to_class", "kring.sum_to_class"),
    ("jetk.jetcalc", "jet_class", "jetcalc.jet_class"),
    ("jetk.jetcalc", "verify_ktheory_equality", "jetcalc.verify_ktheory_equality"),
    ("jetk.jetcalc", "prove_non_isomorphic", "jetcalc.prove_non_isomorphic"),
    ("jetk.p1lab", "LaurentMatrix.det", "p1lab.det"),
    ("jetk.p1lab", "birkhoff_split", "p1lab.birkhoff_split"),
    ("jetk.p1lab", "h0_count", "p1lab.h0_count"),
    ("jetk.p1lab", "splitting_via_h0", "p1lab.splitting_via_h0"),
    ("jetk.p1lab", "matrix_from_text", "p1lab.matrix_from_text"),
    ("jetk.exact_arith", "TruncPoly.__mul__", "exact_arith.TruncPoly.mul"),
    ("jetk.exact_arith", "LaurentPoly.__mul__", "exact_arith.LaurentPoly.mul"),
]

# Called too often for a span each; only counted.
COUNTED = [
    ("jetk.kring", "class_of_twist", "kring.class_of_twist"),
    ("jetk.exact_arith", "binom", "exact_arith.binom"),
]

ROOT = "bench.query"
MARK = "_perfbench_wraps"


def _lookup(module: str, attr: str):
    """The function or method object itself, or None when jetk no longer
    has it (its metric then reads 0)."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return vars(owner).get(name) if owner is not None else None


def _jetk_namespaces() -> list:
    """Every loaded jetk module and every class defined in one."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "jetk" or name.startswith("jetk.")):
            continue
        out.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                out.append(value)
    return out


def leftover_wrappers() -> list:
    """Names in jetk that are still bound to a wrapper."""
    return [
        f"{getattr(ns, '__name__', ns)}.{name}"
        for ns in _jetk_namespaces()
        for name, value in vars(ns).items()
        if hasattr(value, MARK)
    ]


class Recorder:
    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.query = array("l")
        self.nested = array("b")  # 1 if a span of the same name is open
        self.counts = {}
        self.cache = [0, 0]  # sym_omega lru_cache hits, misses
        self.query_id = -1
        self._stack = []
        self._open = {}
        self._patched = []
        self._installed = False
        self._cache_fn = None
        self._cache_base = None
        self.missing = []  # targets jetk no longer has

    # --- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        depth = self._open.get(nid, 0)
        self.nested.append(1 if depth else 0)
        self._open[nid] = depth + 1
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()
        self._open[self.name[i]] -= 1

    def merge(self, child: dict, parent: int) -> None:
        """Attach spans recorded by a child process under span ``parent``."""
        remap = [self._id(n) for n in child["names"]]
        base = len(self.start)
        for nid, start, end, par, nested in child["spans"]:
            self.name.append(remap[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else base + par)
            self.query.append(self.query_id)
            self.nested.append(nested)
        for key, value in child["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.cache[0] += child["cache"][0]
        self.cache[1] += child["cache"][1]

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in zip(self.name, self.start, self.end, self.parent, self.nested)],
            "counts": self.counts,
            "cache": self.cache,
        }

    # --- patching ----------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for ns in _jetk_namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)
                    self._patched.append((ns, name, original))

    def _spanned(self, fn, name: str):
        nid = self._id(name)
        rec = self

        def traced(*args, **kwargs):
            i = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i)

        setattr(traced, MARK, fn)
        return traced

    def _counted(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, MARK, fn)
        return counted

    def install(self) -> None:
        self.missing = []
        for module, attr, name in SPANNED + COUNTED:
            original = _lookup(module, attr)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if (module, attr, name) in COUNTED:
                wrapper = self._counted(original, name)
            else:
                wrapper = self._spanned(original, name)
            if name == "kring.sym_power":
                wrapper = self._with_terms(original, wrapper)
            if name == "kring.sym_omega" and hasattr(original, "cache_info"):
                info = original.cache_info()
                self._cache_fn, self._cache_base = original, (info.hits, info.misses)
            self._rebind(original, wrapper)
        self._installed = True

    def _with_terms(self, original, spanned):
        """sym_power's span plus the rank of each result: the number of
        multisets it enumerated."""
        counts = self.counts
        counts.setdefault("kring.sym_power.terms", 0)

        def traced(*args, **kwargs):
            result = spanned(*args, **kwargs)
            counts["kring.sym_power.terms"] += result.rank
            return result

        setattr(traced, MARK, original)
        return traced

    def uninstall(self) -> None:
        if not self._installed:
            return
        if self._cache_fn is not None:
            info = self._cache_fn.cache_info()
            self.cache[0] += info.hits - self._cache_base[0]
            self.cache[1] += info.misses - self._cache_base[1]
            self._cache_fn = None
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()
        self._installed = False

    # --- results -----------------------------------------------------------

    def totals(self, first_query: int = -1) -> dict:
        """{name: [inclusive ns, self ns, calls]} over the spans of queries
        numbered first_query and up (spans outside any query are -1)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            if self.query[i] < first_query:
                continue
            row = out[self.names[self.name[i]]]
            if not self.nested[i]:
                row[0] += dur[i]
            row[1] += dur[i] - child[i]
            row[2] += 1
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("query\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.query[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
