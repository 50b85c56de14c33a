"""Command line interface: analyze, curve, verify, selftest.

Exit codes: 0 on success, 1 when a requested check fails, 2 for usage or
configuration errors.  Reports are deterministic JSON documents; curves
are CSV with header ``segment,param,re,im``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import catalog
from .analyzer import Analysis, classify_with_probing, cross_check
from .calculus import toeplitz_index, toeplitz_symbol_curve, weight_functions, y_grid
from .config import AnalysisConfig, check_exponent, check_section_size, encode_symbol, parse_config
from .errors import ConfigError, THInvertError, ValidationError
from .matching import MatchingPair, MatchRejection, is_matching_pair
from .sampling import random_matching_pair
from .sections import (
    apply_operator,
    block_assembly,
    idempotent_identity_residual,
    numerical_kernel,
    th_section,
    verify_product_identities,
)
from . import symbols as sy
from .symbols import Monomial, PCSymbol
from .wiener_hopf import c0_coefficient, c0_quadrature, rising_stream


def _write_artifact(path: str | None, text: str) -> None:
    """Write atomically; no partial artifact survives an error."""
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".th-invert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str | None) -> AnalysisConfig:
    if path is None:
        raise ConfigError("this command requires --config")
    with open(path) as fh:
        return parse_config(fh.read())


def _matching_pair(cfg: AnalysisConfig) -> MatchingPair:
    """The config's (a, b); a pair that violates the matching condition is a
    config error."""
    tol = cfg.tolerances
    result = is_matching_pair(cfg.symbol("a"), cfg.symbol("b"), tol.matching,
                              invertibility_tol=tol.invertibility)
    if isinstance(result, MatchRejection):
        raise ConfigError(
            f"(a, b) is not a matching pair (residual {result.max_residual:.3e}); "
            "the one-sided classification rules require the matching condition")
    return result


def _resolve_symbol(cfg: AnalysisConfig, name: str) -> PCSymbol:
    if name in cfg.symbols:
        return cfg.symbols[name]
    if name in ("c", "d"):
        pair = _matching_pair(cfg)
        return pair.c if name == "c" else pair.d
    raise ConfigError(f"unknown symbol '{name}' (config names: {sorted(cfg.symbols)})")


def _exponents(text: str) -> list[float]:
    """The exponents of a --p override, validated like the config's p_values."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"--p: expected comma-separated numbers, got {text!r}") from None
    return [check_exponent(p, "--p") for p in values]


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    p_values = _exponents(args.p) if args.p else cfg.p_values
    if not p_values:
        raise ConfigError("no exponents: provide p_values in the config or --p")
    n = cfg.finite_section_n if args.n is None else check_section_size(args.n, "--n")
    pair = _matching_pair(cfg)
    reports = [classify_with_probing(pair, p, n_section=n, tolerances=cfg.tolerances).to_dict()
               for p in p_values]
    doc = {
        "tool": "th-invert",
        "command": "analyze",
        "symbols": {name: encode_symbol(s) for name, s in cfg.symbols.items()},
        "finite_section_n": n,
        "reports": reports,
    }
    out = args.out or cfg.outputs.get("report")
    _write_artifact(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    exponents = _exponents(args.p) if args.p else []
    if len(exponents) != 1:
        raise ConfigError(f"curve takes exactly one exponent in --p, got {args.p!r}")
    p = exponents[0]
    symbol = _resolve_symbol(cfg, args.symbol)
    curve = toeplitz_symbol_curve(symbol, p)
    lines = ["segment,param,re,im"]
    for sid, par, val in zip(curve.seg_ids, curve.params, curve.values):
        lines.append(f"{sid},{par:.12g},{val.real:.17g},{val.imag:.17g}")
    out = args.out or cfg.outputs.get("curve")
    _write_artifact(out, "\n".join(lines) + "\n")
    return 0


def _verify_checks(seed: int):
    """Identity suites: operator products, block conjugation, weights."""
    rng = np.random.default_rng(seed)
    checks = []

    def rand_poly(deg):
        ks = rng.integers(-deg, deg + 1, size=deg)
        coeffs = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        return sy.add(*(sy.Const(c) * Monomial(int(k)) for c, k in zip(coeffs, ks)))

    worst_prod = 0.0
    worst_block = 0.0
    worst_idem = 0.0
    for _ in range(50):
        a = rand_poly(6)
        b = rand_poly(6)
        worst_prod = max(worst_prod, verify_product_identities(a, b, 16))
        asm = block_assembly(a, b, 12)
        worst_block = max(worst_block, asm.identity_residual(), asm.conjugation_residual)
        m = np.kron(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), np.eye(8)) \
            + rng.normal(size=(16, 16))
        pmat = np.diag(rng.integers(0, 2, size=16).astype(float))
        worst_idem = max(worst_idem, idempotent_identity_residual(m, pmat))
    checks.append(("product identities T(ab), H(ab) on 50 random band-limited pairs",
                   worst_prod < 1e-12, f"max err {worst_prod:.2e}"))
    checks.append(("block conjugation identity and flip relations",
                   worst_block < 1e-12, f"max err {worst_block:.2e}"))
    checks.append(("idempotent factorization identity",
                   worst_idem < 1e-12, f"max err {worst_idem:.2e}"))

    nus, _ = weight_functions(2.0, y_grid())
    seg_ok = float(np.max(np.abs(nus.imag))) < 1e-12
    checks.append(("p=2 arc weights are real (segment case)", seg_ok,
                   f"max |Im nu| {np.max(np.abs(nus.imag)):.2e}"))
    parity = 0.0
    for p in (1.2, 2.0, 4.0):
        _, finite = weight_functions(p, y_grid())
        parity = max(parity, float(np.max(np.abs(finite.real + finite.real[::-1]))),
                     float(np.max(np.abs(finite.imag - finite.imag[::-1]))))
    checks.append(("jump weight parity (odd real part, even imaginary part)",
                   parity < 1e-12, f"max asymmetry {parity:.2e}"))

    agree = True
    for i in range(20):
        pair = random_matching_pair(rng, 1.7)
        cc = cross_check(pair, 1.7, with_sections=False)
        agree &= cc.consistent and (
            cc.subordinated_sum == cc.matrix_route == cc.th_route)
    checks.append(("index route agreement on 20 random matching pairs", agree, ""))
    return checks


def _selftest_checks():
    """Regressions against the worked examples."""
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    idx = [toeplitz_index(Monomial(n), 1.7).index for n in range(-5, 6)]
    add("ind T(t^n) = -n for |n| <= 5", idx == list(range(5, -6, -1)))

    pair = catalog.quarter_twist_pair()
    add("quarter twist: ind T(d) = -1 on H^1.5",
        toeplitz_index(pair.d, 1.5).index == -1)
    add("quarter twist: T(d) not Fredholm on H^2",
        not toeplitz_index(pair.d, 2.0).fredholm)
    add("quarter twist: ind T(d) = -2 on H^3",
        toeplitz_index(pair.d, 3.0).index == -2)
    add("quarter twist: ind T(c) = 1", toeplitz_index(pair.c, 1.5).index == 1)

    rep = classify_with_probing(pair, 1.5)
    add("quarter twist p=1.5: T(a)+H(at) invertible",
        rep.operators["T(a)+H(b)"].classification == "invertible")
    rep = classify_with_probing(pair, 3.0)
    add("quarter twist p=3: T(a)+H(at) left-invertible, cokernel 1",
        rep.operators["T(a)+H(b)"].classification == "left_invertible"
        and rep.operators["T(a)+H(b)"].cokernel_dim == 1)
    add("quarter twist p=3: T(a)-H(at) not one-sided invertible",
        rep.operators["T(a)-H(b)"].classification == "not_one_sided_invertible")
    res = apply_operator(pair.a, pair.b, -1, np.array([1.0 + 0j]), 256)
    add("constant function annihilated by T(a)-H(at)",
        float(np.linalg.norm(res)) < 1e-10)

    hp = catalog.half_plane_hankel_pair()
    add("half-plane sign p=1.5: index of iI+H(a) is +2",
        classify_with_probing(hp, 1.5).operators["T(a)+H(b)"].index == 2)
    add("half-plane sign p=3: index of iI+H(a) is -2",
        classify_with_probing(hp, 3.0).operators["T(a)+H(b)"].index == -2)
    add("half-plane sign: iI-H(a) invertible at p=2",
        classify_with_probing(hp, 2.0).operators["T(a)-H(b)"].classification
        == "invertible")

    rh = catalog.right_half_pair()
    rep = classify_with_probing(rh, 2.0)
    add("Re-sign pair: T(a)+H(at) invertible, T(a)-H(at) not one-sided",
        rep.operators["T(a)+H(b)"].classification == "invertible"
        and rep.operators["T(a)-H(b)"].classification == "not_one_sided_invertible")

    qm = catalog.quarter_twist_pair(-1)
    add("shift -1 pair p=1.5: joint kernel dimension 0",
        Analysis(qm, 1.5).formula().dimension == 0)
    add("shift -1 pair p=3: T(a)-H(at^-1) invertible",
        classify_with_probing(qm, 3.0).operators["T(a)-H(b)"].classification
        == "invertible")

    c0, _ = c0_coefficient(0.25, 1e-12)
    q, _ = c0_quadrature(0.25)
    add("c0 series vs quadrature within 1e-8", abs(c0.real - q) < 1e-8,
        f"series {c0.real:.10f}, quadrature {q:.10f}")

    stream = rising_stream(0.25, 3)
    add("binomial stream: k=2 coefficient is 5/32", abs(stream[2] - 5 / 32) < 1e-15)

    a = catalog.quarter_twist()
    k1 = numerical_kernel(th_section(a, a * Monomial(3), 1, 256)).dimension
    k2 = numerical_kernel(th_section(a, a * Monomial(3), -1, 256)).dimension
    add("kernel dimensions of T(a)+-H(at^3) sections are 1 and 2",
        (k1, k2) == (1, 2))
    return checks


def _run_table(checks, out):
    lines = []
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        suffix = f"  [{detail}]" if detail else ""
        lines.append(f"{status}  {name}{suffix}")
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _write_artifact(out, "\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    return _run_table(_verify_checks(args.seed), args.out)


def cmd_selftest(args) -> int:
    return _run_table(_selftest_checks(), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="th-invert",
        description="Fredholm and invertibility analysis of Toeplitz-plus-Hankel "
                    "operators with piecewise continuous generating functions")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--config": dict(help="path to the JSON analysis config"),
        "--p": dict(help="comma-separated exponents, overrides the config"),
        "--n": dict(type=int, help="finite section size override"),
        "--out": dict(help="output path (default: config outputs or stdout)"),
    }

    def add(name, fn, summary, *names):
        p = sub.add_parser(name, help=summary)
        for opt in names:
            p.add_argument(opt, **options[opt])
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "classify T(a)+H(b) and T(a)-H(b) per exponent",
        "--config", "--p", "--n", "--out")
    pc = add("curve", cmd_curve, "export an arc-completed symbol curve as CSV",
             "--config", "--p", "--out")
    pc.add_argument("--symbol", default="a", help="config symbol name, or c/d of the pair")
    pv = add("verify", cmd_verify, "run the operator-identity and weight suites", "--out")
    pv.add_argument("--seed", type=int, default=0)
    add("selftest", cmd_selftest, "run the worked-example regressions", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except THInvertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
