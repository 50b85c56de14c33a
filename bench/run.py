"""th-invert benchmark: one command, three workloads, end-to-end and per-layer.

    python3 bench/run.py --workload {catalog,routes,sections} --seed N \
        --seconds S --trace {0,1}

Load model: one process, one client, a closed loop that issues one op at a
time, as fast as it can -- the way a batch ``th-invert analyze`` or
``verify`` uses the library.  Before every op all of the library's
``functools`` caches are cleared, because a fresh process pays for them.
Building the inputs is set-up and is not part of any op.

``--trace 0`` cycles through the inputs, pass by pass, until ``--seconds``
have passed (and at least MIN_OPS ops are done) and reports the end-to-end
metrics, every time scaled by the host speed sampled around it
(``hostspeed.py``; the unscaled values are printed beside them).
``--trace 1`` runs a fixed set of ops untraced and again with the
wrappers of ``layers.py`` installed and reports the per-layer metrics;
fixed work makes every count repeat exactly.

Every op goes through the correctness gate of ``gate.py``.  The last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
an op failed the gate and 2 when the benchmark could not run at all.
The metrics, workloads and baseline numbers are described in README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the box is small and shared, and the load model is one
# client.  Set before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3          # fresh processes timed for setup_s
SETUP_SPEED_SAMPLES = 30  # host speed samples of each set-up probe, 0.1 s
MIN_OPS = 20              # so that the median has ten samples beyond it
SPEED_WINDOW_S = 5.0      # host speed samples within this of an op scale it
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
DEFAULT_SEED = 0


def die(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    """Import th_invert from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import th_invert
    except ImportError as exc:
        die(f"cannot import th_invert from {SRC}: {exc}")
    if not os.path.abspath(th_invert.__file__).startswith(SRC + os.sep):
        die(f"th_invert was imported from {th_invert.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """``kinds`` are (kind, compress) entries of inputs.random_case, one op
    per entry and pass; ``passes`` distinct passes are generated and run in
    turn.  The traced run covers the first ``trace_passes`` passes."""

    kinds: tuple
    passes: int
    trace_passes: int


WORKLOADS = {
    # the five worked examples at three exponents; the seed orders them
    "catalog": Workload((), 1, 1),
    # every prefactor has a power arc and steps, so every curve has jumps
    "routes": Workload((
        ("mono:arc*steps", None), ("arc:arc*steps", None), ("half:arc*steps", None),
        ("mono*arc:arc*steps", None), ("arc*half:arc*steps", None),
        ("mono*half:arc*steps", None), ("arc*arc:arc*steps", None),
        ("half*half:arc*steps", None),
    ), 12, 4),
    # prefactors have at most one non-constant factor, so b keeps closed-form
    # coefficients and the quadrature comes from a = a0 * c; the three
    # two-arc ops sit in the middle of every pass's costs, which keeps the
    # median op one of them
    "sections": Workload((
        ("mono:arc", False),       # closed-form coefficients throughout
        ("mono*arc:", True),       # kernel formula on 512-sections, closed-form
        ("arc0:arc*m0", False),    # two power arcs: quadrature on 2 panels
        ("arc0:arc*m0", False),
        ("arc0:arc*m0", False),
        ("arc0:steps*m0", False),  # power arc times steps: quadrature
        ("half:m0", False),        # half-circle extension: quadrature
    ), 6, 1),
}


def build_cases(workload: str, seed: int):
    """(cases in generation order, the order they run in, ops per pass)."""
    import inputs
    spec = WORKLOADS[workload]
    if workload == "catalog":
        cases = inputs.catalog_cases()
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        return cases, [cases[i] for i in order], len(cases)
    cases = inputs.random_cases(seed, spec.kinds, spec.passes)
    return cases, cases, len(spec.kinds)


def op_function(workload: str):
    from th_invert.analyzer import classify_with_probing, cross_check
    if workload == "catalog":
        return lambda case: classify_with_probing(case.pair, case.p)
    if workload == "routes":
        return lambda case: cross_check(case.pair, case.p, with_sections=False)
    return lambda case: cross_check(case.pair, case.p)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs ops, times them and passes every verdict through the gate."""

    def __init__(self, workload, cases, pinned, caches, tracer=None):
        import gate
        self.gate = gate
        self.op = op_function(workload)
        self.cases = cases
        self.pinned = pinned
        self.caches = list(caches.values())
        self.coeff_cache = caches.get("th_invert.symbols._coefficient_cached")
        self.jump_cache = caches.get("th_invert.symbols._jump_set_cached")
        self.cache_stats = {"coeff": [0, 0], "jump": [0, 0]}
        self.tracer = tracer
        self.latencies: list[float] = []
        self.slots: list[tuple] = []   # (start, duration) of run_op, timed loop only
        self.speed: list[tuple] = []   # (time, host factor), timed loop only
        self.case_latencies: dict = {}
        self.verdicts: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, case):
        for cache in self.caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        try:
            result, error = self.op(case), None
        except self.gate.REFUSALS as exc:
            result, error = exc, None
        except Exception as exc:  # any other exception is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        self.attempted += 1
        self.latencies.append(latency)
        self.case_latencies.setdefault(case.name, []).append(latency)
        if self.tracer is not None:
            self.tracer.end_op()
            for key, cache in (("coeff", self.coeff_cache), ("jump", self.jump_cache)):
                if cache is not None:
                    info = cache.cache_info()
                    self.cache_stats[key][0] += info.hits
                    self.cache_stats[key][1] += info.misses
        if error is None:
            v = (self.gate.refusal(result) if isinstance(result, BaseException)
                 else self.gate.verdict(result))
            errors = self.gate.invariant_errors(v, self.gate.discrepancies(result),
                                                case.kappas)
            errors += self.gate.reference_errors(case.name, v, self.pinned)
            first = self.verdicts.setdefault(case.name, v)
            if v != first:
                errors.append(f"{case.name}: verdict changed between repeats")
        else:
            errors = [f"{case.name}: {error}"]
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def run_all(self, count: int):
        for case in self.cases[:count]:
            self.run_op(case)

    def run_for(self, seconds: float) -> float:
        """Ops, cycling through the cases in pass order, until ``seconds``
        have passed and at least MIN_OPS ops are done; returns the wall
        time.  The run stops after the op in progress, not at the end of a
        pass, so that it overshoots ``seconds`` by one op at most.  The host
        speed is sampled before the first op and after every op."""
        import hostspeed
        t0 = time.perf_counter()
        self.speed.append((0.0, hostspeed.factor()))
        while True:
            start = time.perf_counter()
            self.run_op(self.cases[len(self.slots) % len(self.cases)])
            end = time.perf_counter()
            self.slots.append((start - t0, end - start))
            self.speed.append((end - t0, hostspeed.factor()))
            wall = time.perf_counter() - t0
            if wall >= seconds and len(self.slots) >= MIN_OPS:
                return wall

    def op_factors(self) -> list[float]:
        """Host factor of every timed op: the mean of the speed samples
        taken just before and just after it and of those within
        SPEED_WINDOW_S seconds of its middle.  The samples fall into a fast
        and a slow mode; their mean follows the share of time the host
        spends in each, where their median would snap to one of them."""
        factors = []
        for i, (start, duration) in enumerate(self.slots):
            middle = start + duration / 2
            near = [f for j, (t, f) in enumerate(self.speed)
                    if j in (i, i + 1) or abs(t - middle) <= SPEED_WINDOW_S]
            factors.append(statistics.fmean(near))
        return factors


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.  It
    draws on every sample near the quantile, so it moves smoothly where the
    nearest-rank quantile jumps from one cluster of op costs (or one speed
    phase of a shared host) to the next."""
    from scipy.special import betainc
    n = len(values)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], sorted(values))))


def tail(latencies):
    """(percentile, value, samples beyond): the highest percentile of the
    ladder with at least ten samples beyond it, and its estimate."""
    n = len(latencies)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            chosen = q
    return chosen, quantile(latencies, chosen / 100.0), n - math.ceil(chosen / 100.0 * n)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int):
    """Child process: import, build the inputs, print their digest; then
    print the host factor, the mean of SETUP_SPEED_SAMPLES samples."""
    import_library()
    import inputs
    cases, _, _ = build_cases(workload, seed)
    print(inputs.digest(cases), flush=True)
    import hostspeed
    print(statistics.fmean(hostspeed.factor() for _ in range(SETUP_SPEED_SAMPLES)),
          flush=True)


def measure_setup(workload: str, seed: int, digest: str) -> tuple[list, list]:
    """Time fresh processes from start until their inputs are built;
    returns the times and the host factor each process measured after."""
    times, factors = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line != digest or len(rest) != 1:
            die(f"set-up probe exited {code} with digest {line!r}, expected {digest}")
        times.append(elapsed)
        factors.append(float(rest[0]))
    return times, factors


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, wall: float, setup_times: list, setup_factors: list
               ) -> tuple[dict, dict]:
    """Every time divided by the host factor measured around it (see
    hostspeed.py); the notes give the unscaled values."""
    factors = loop.op_factors()
    scaled = [lat / f for lat, f in zip(loop.latencies, factors)]
    busy = sum(duration / f for (_, duration), f in zip(loop.slots, factors))
    q, tail_value, beyond = tail(scaled)
    n = len(scaled)
    metrics = {
        "setup_s": metric(statistics.median(t / f for t, f in zip(setup_times, setup_factors)),
                          "s"),
        "ops_per_s": metric(n / busy, "1/s"),
        "op_s.p50": metric(quantile(scaled, 0.5), "s"),
        "op_s.tail": metric(tail_value, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes; "
                   f"unscaled {statistics.median(setup_times):.4g} s",
        "ops_per_s": f"{n} ops; unscaled {n / wall:.4g} 1/s over {wall:.2f} s "
                     f"with speed samples",
        "op_s.p50": f"unscaled {quantile(loop.latencies, 0.5):.4g} s",
        "op_s.tail": f"p{q:g}, {beyond} of {n} samples beyond it; "
                     f"unscaled {tail(loop.latencies)[1]:.4g} s",
        "host_factor": f"mean {statistics.fmean(factors):.4g}, "
                       f"range {min(factors):.3g}-{max(factors):.3g} over the timed ops",
    }
    return metrics, notes


def per_layer(tracer, loop: Loop, overhead: float) -> dict:
    st = tracer.self_times()
    c = tracer.counts
    m = {}

    def calls_and_self(prefix):
        m[f"{prefix}.calls"] = metric(c[f"{prefix}.calls"], "count")
        m[f"{prefix}.self_s"] = metric(st[prefix], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    calls_and_self("symbols.evaluate")
    m["symbols.evaluate.points"] = metric(c["symbols.evaluate.points"], "count")
    m["symbols.coeff.count"] = metric(c["symbols.coeff.count"], "count")
    m["symbols.coeff.quadrature"] = metric(c["symbols.coeff.quadrature"], "count")
    m["symbols.coeff.self_s"] = metric(st["symbols.coeff"], "s")
    calls_and_self("symbols.jumps")
    hits, misses = loop.cache_stats["coeff"]
    hits -= c["symbols.coeff.readback_hits"]
    m["symbols.cache.coeff_hit_ratio"] = metric(ratio(hits, hits + misses), "ratio")
    hits, misses = loop.cache_stats["jump"]
    m["symbols.cache.jump_hit_ratio"] = metric(ratio(hits, hits + misses), "ratio")
    for name in ("toeplitz_index", "matrix_index", "th_index", "fredholm_check"):
        calls_and_self(f"calculus.{name}")
    index_calls = sum(c[f"calculus.{k}.calls"]
                      for k in ("toeplitz_index", "matrix_index", "th_index"))
    m["calculus.curve.builds"] = metric(c["calculus.curve.builds"], "count")
    m["calculus.curve.points"] = metric(c["calculus.curve.points"], "count")
    m["calculus.curve.rebuild_ratio"] = metric(
        ratio(c["calculus.curve.builds"], index_calls), "ratio")
    m["calculus.index.distinct_ratio"] = metric(
        ratio(tracer.distinct_index_keys, c["calculus.toeplitz_index.calls"]), "ratio")
    calls_and_self("analyzer.probe")
    m["analyzer.probe.index_calls"] = metric(c["analyzer.probe.index_calls"], "count")
    m["analyzer.classify.calls"] = metric(c["analyzer.classify.calls"], "count")
    m["analyzer.witness.self_s"] = metric(st["analyzer.witness"], "s")
    for name in ("section", "svd", "formula"):
        calls_and_self(f"sections.{name}")
    for name in ("svd", "formula"):
        m[f"sections.{name}.refusals"] = metric(
            tracer.errors[(f"sections.{name}", "NoSpectralGap")], "count")
    m["matching.u_matrix.self_s"] = metric(st["matching.u_matrix"], "s")
    m["trace.overhead_frac"] = metric(overhead, "ratio")
    return m


def write_result(name: str, doc: dict):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def pin(workload: str, seeds) -> int:
    """Run every input of each seed once and store the verdicts in the
    reference file, after the invariant checks; entries of other inputs are
    kept."""
    import_library()
    import gate
    import inputs
    from layers import lru_caches

    try:
        reference = gate.load_reference()
    except FileNotFoundError:
        reference = {}
    entries = reference.setdefault(workload, {})
    for seed in seeds:
        cases, order, _ = build_cases(workload, seed)
        loop = Loop(workload, order, None, lru_caches())
        loop.run_all(len(order))
        if loop.failed:
            die("not pinning, ops failed: " + "; ".join(loop.failures[:5]), 1)
        entries[inputs.digest(cases)] = {"seed": seed, "verdicts": loop.verdicts}
        print(f"pinned {workload} seed {seed}: {len(cases)} cases", file=sys.stderr)
    gate.save_reference(reference)
    return 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pin", type=int, nargs="+", metavar="SEED",
                    help="run one pass per seed and store its verdicts as the "
                         "pinned reference of the workload (no other output)")
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.pin:
        return pin(args.workload, args.pin)

    env = environment()
    import_library()
    import gate
    import inputs
    from layers import Tracer, lru_caches

    cases, order, pass_len = build_cases(args.workload, args.seed)
    digest = inputs.digest(cases)
    reference = gate.load_reference()
    gate.self_test(reference)
    pinned = gate.pinned_verdicts(reference, args.workload, digest)
    caches = lru_caches()

    print(f"bench: workload={args.workload} seed={args.seed} cases={len(cases)} "
          f"digest={digest} pinned={'yes' if pinned is not None else 'no'} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace == 0:
        setup_times, setup_factors = measure_setup(args.workload, args.seed, digest)
        timed = Loop(args.workload, order, pinned, caches)
        wall = timed.run_for(args.seconds)
        metrics, notes = end_to_end(timed, wall, setup_times, setup_factors)
        failures, attempted, failed = timed.failures, timed.attempted, timed.failed
    else:
        traced_ops = pass_len * WORKLOADS[args.workload].trace_passes
        timed = Loop(args.workload, order, pinned, caches)
        timed.run_all(traced_ops)
        tracer = Tracer()
        traced = Loop(args.workload, order, pinned, caches, tracer)
        tracer.install()
        try:
            traced.run_all(traced_ops)
        finally:
            tracer.uninstall()
        failures = timed.failures + traced.failures
        failed = timed.failed + traced.failed
        for name, v in traced.verdicts.items():
            if timed.verdicts.get(name) != v:
                failures.append(f"{name}: traced verdict differs from the untraced one")
                failed += 1
        # paired by op, so that a slow moment of the machine moves one op
        overhead = statistics.median(
            t / u for t, u in zip(traced.latencies, timed.latencies)) - 1.0
        metrics = per_layer(tracer, traced, overhead)
        notes = {"trace.overhead_frac": f"median over ops of traced / untraced latency - 1; "
                                        f"{sum(traced.latencies):.2f} s traced, "
                                        f"{sum(timed.latencies):.2f} s untraced"}
        attempted = timed.attempted + traced.attempted
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))

    failed = min(failed, attempted)
    for msg in failures[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        note = f"   ({notes[key]})" if key in notes else ""
        print(f"{key:<{width}}  {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_frac':<{width}}  {failed / attempted:.6g} ratio   "
          f"({failed} of {attempted} ops failed the gate)")
    if "host_factor" in notes:
        print(f"host factor: {notes['host_factor']} (times above are divided by it)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    write_result(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                 {**result, "env": env, "digest": digest, "notes": notes,
                  "seconds": args.seconds, "latencies_s": timed.latencies,
                  "slots_s": timed.slots, "host_factors": timed.speed,
                  "case_median_s": {name: statistics.median(ts)
                                    for name, ts in timed.case_latencies.items()}})
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
