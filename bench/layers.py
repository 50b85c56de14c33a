"""Traced runs: spans and counts recorded around calls into each module.

The wrappers are installed from outside the library, in the namespace of
every module that binds a traced function -- ``toeplitz_index`` is bound
by name in ``analyzer``, ``sections``, ``sampling``, ``cli`` and
``wiener_hopf`` -- so each call through any of those names is seen.
``evaluate_array`` is left unwrapped in ``symbols`` itself: a span there
marks a call from another module, and its recursion over the symbol tree
is not traced.

A span records (name, start, end, parent).  Spans stay in memory and are
written when the run ends; self time is a span's duration minus the
durations of its children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

import th_invert

# (span name, defining module, function): each call gives a span and counts
# toward <name>.calls; exceptions are counted by type.
SPANS = (
    ("symbols.evaluate", "symbols", "evaluate_array"),
    ("symbols.coeff", "symbols", "coefficient_range"),
    ("symbols.jumps", "symbols", "jump_set"),
    ("calculus.toeplitz_index", "calculus", "toeplitz_index"),
    ("calculus.matrix_index", "calculus", "matrix_toeplitz_index"),
    ("calculus.th_index", "calculus", "th_index"),
    ("calculus.fredholm_check", "calculus", "th_fredholm_check"),
    ("matching.u_matrix", "matching", "build_u_matrix"),
    ("matching.u_matrix", "matching", "build_u_matrix_general"),
    ("analyzer.classify", "analyzer", "classify"),
    ("analyzer.probe", "analyzer", "probe_limit_index"),
    ("analyzer.witness", "analyzer", "verified_kernel_witnesses"),
    ("sections.section", "sections", "th_section"),
    ("sections.svd", "sections", "numerical_kernel"),
    ("sections.formula", "sections", "kernel_formula_eval"),
)

# Curve builders: counted (builds, points), not timed as spans.
CURVES = ("toeplitz_symbol_curve", "matrix_symbol_curve", "th_pc_symbol_curve")

# Functions whose own recursion or internal use stays untraced.
OUTSIDE_ONLY = {("symbols", "evaluate_array")}


def _modules():
    mods = [th_invert]
    for info in pkgutil.iter_modules(th_invert.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"th_invert.{info.name}"))
    return mods


def lru_caches() -> dict:
    """Every functools cache in the library, by qualified name."""
    out = {}
    for mod in _modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                out[f"{mod.__name__}.{name}"] = obj
    return out


class Tracer:
    """Installs wrappers, records spans and counts, and removes them again."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.active: Counter = Counter()
        self.op_index_keys: set = set()
        self.distinct_index_keys = 0
        self._saved: list = []

    # wrappers --------------------------------------------------------------

    def _span(self, name, fn, before=None):
        spans, stack, counts, active = self.spans, self.stack, self.counts, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(idx)
            active[name] += 1
            counts[f"{name}.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                record[2] = clock()
                active[name] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _coefficients(self, fn):
        signature = inspect.signature(fn)
        symbols = importlib.import_module("th_invert.symbols")
        cache = getattr(symbols, "_coefficient_cached", None)
        span = self._span("symbols.coeff", fn)
        counts = self.counts

        def hits():
            return 0 if cache is None else cache.cache_info().hits

        def readback(a):
            before = hits()
            quadrature = sum(
                symbols.fourier_coefficient(a["sym"], n, a["method"], a["tol"]).provenance
                == "quadrature"
                for n in range(a["lo"], a["hi"] + 1))
            counts["symbols.coeff.readback_hits"] += hits() - before
            counts["symbols.coeff.count"] += a["hi"] - a["lo"] + 1
            counts["symbols.coeff.quadrature"] += quadrature

        # a span of its own, so that the read-back is no layer's self time
        readback = self._span("trace.readback", readback)

        def traced(*args, **kwargs):
            values = span(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            readback(bound.arguments)
            return values

        traced.__wrapped__ = fn
        return traced

    def _evaluations(self, fn):
        span = self._span("symbols.evaluate", fn)
        counts = self.counts

        def traced(sym, thetas, *args, **kwargs):
            values = span(sym, thetas, *args, **kwargs)
            counts["symbols.evaluate.points"] += values.size
            return values

        traced.__wrapped__ = fn
        return traced

    def _curve(self, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            curve = fn(*args, **kwargs)
            counts["calculus.curve.builds"] += 1
            counts["calculus.curve.points"] += len(curve)
            return curve

        traced.__wrapped__ = fn
        return traced

    def _index_call(self, args, kwargs):
        """Before each toeplitz_index: count it, inside probing too, and
        remember its (symbol, p) to count repeated facts per op."""
        p = args[1] if len(args) > 1 else kwargs["p"]
        sym = args[0] if args else kwargs["a"]
        self.op_index_keys.add((sym, float(getattr(p, "p", p))))
        if self.active["analyzer.probe"]:
            self.counts["analyzer.probe.index_calls"] += 1

    def end_op(self):
        self.distinct_index_keys += len(self.op_index_keys)
        self.op_index_keys = set()

    # installation ------------------------------------------------------------

    def install(self):
        modules = _modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        targets = []
        for name, home, func in SPANS:
            fn = getattr(by_name[home], func)
            if name == "symbols.coeff":
                wrapper = self._coefficients(fn)
            elif name == "symbols.evaluate":
                wrapper = self._evaluations(fn)
            elif name == "calculus.toeplitz_index":
                wrapper = self._span(name, fn, before=self._index_call)
            else:
                wrapper = self._span(name, fn)
            targets.append((home, func, fn, wrapper))
        for func in CURVES:
            fn = getattr(by_name["calculus"], func)
            targets.append(("calculus", func, fn, self._curve(fn)))
        for home, func, fn, wrapper in targets:
            for mod in modules:
                if mod is by_name[home] and (home, func) in OUTSIDE_ONLY:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    # results -----------------------------------------------------------------

    def self_times(self) -> dict:
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: str):
        """Spans as gzipped CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
