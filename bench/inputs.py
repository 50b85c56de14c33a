"""Seeded inputs for the benchmark workloads.

Random matching pairs are built here, from the library's public symbol
constructors only, and never through ``sampling.random_matching_pair``:
that sampler retries until ``toeplitz_index`` accepts a pair, so a change
to the index code could change the inputs it is measured on.  Instead the
generator keeps, next to every symbol it builds, the jumps of that symbol
in closed form, and rejects a pair when a subordinated function has a jump
whose Gohberg-Krupnik phase ``arg(w/u)/2pi + 1/p`` comes within
``MARGIN`` of an integer (the condition for T(c) or T(d) to lose
Fredholmness on H^p).  The inputs therefore depend on the seed alone.

Every pass of a workload holds the same number of pairs of each structural
kind, so two seeds cost about the same to run.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from th_invert import catalog
from th_invert.matching import MatchingPair, make_matching_pair
from th_invert.symbols import (
    CirclePoint,
    Const,
    HalfCircleExtension,
    Monomial,
    PCSymbol,
    PiecewiseConst,
    PowerArc,
    product,
)

TWO_PI = 2.0 * math.pi

# Exponents away from 4/3, 2 and 4, the critical exponents of the power
# arcs exp(i*beta*theta) with beta = +-1/4, +-1/2 used below.
GENERIC_P = (1.45, 1.7, 2.6, 3.3)

# Minimal distance of a jump phase arg(w/u)/2pi + 1/p from the integers.
MARGIN = 0.08

CATALOG_PAIRS = (
    ("quarter_twist_pair(1)", lambda: catalog.quarter_twist_pair(1)),
    ("quarter_twist_pair(-1)", lambda: catalog.quarter_twist_pair(-1)),
    ("quarter_twist_pair(3)", lambda: catalog.quarter_twist_pair(3)),
    ("half_plane_hankel_pair()", catalog.half_plane_hankel_pair),
    ("right_half_pair()", catalog.right_half_pair),
)
CATALOG_P = (1.5, 2.0, 3.0)


@dataclass(frozen=True)
class Factor:
    """A symbol with its jumps as (angle, w/u), u = f(t-0), w = f(t+0), and
    the winding, in turns, of its continuous part."""

    symbol: PCSymbol
    jumps: tuple
    wind: float


@dataclass(frozen=True)
class Case:
    """One op input: a matching pair at an exponent, with a stable name."""

    name: str
    pair: MatchingPair
    p: float
    spec: str  # kind, exponent and generator draws, hashed into the digest
    kappas: tuple = ()  # generator's (kappa1, kappa2); empty for catalog pairs


def _merge(*groups) -> tuple:
    ratios: dict[float, complex] = {}
    for jumps in groups:
        for angle, ratio in jumps:
            key = round(angle % TWO_PI, 9)
            if key == round(TWO_PI, 9):
                key = 0.0
            ratios[key] = ratios.get(key, 1.0) * ratio
    return tuple((a, r) for a, r in sorted(ratios.items()) if abs(r - 1.0) > 1e-9)


def _times(*factors: Factor) -> Factor:
    return Factor(product(*(f.symbol for f in factors)),
                  _merge(*(f.jumps for f in factors)),
                  sum(f.wind for f in factors))


def _tilde_inverse_jumps(jumps) -> tuple:
    """Jumps of 1/f(1/t): the reflection reverses orientation and the
    inversion reverses the ratio, so each jump keeps its ratio at -angle."""
    return tuple((TWO_PI - a, r) for a, r in jumps)


def _phase(u: float) -> complex:
    return cmath.exp(1j * TWO_PI * u)


def _monomial(n: int) -> Factor:
    return Factor(Monomial(n), (), float(n))


def _power_arc(beta: float, anchor: float) -> Factor:
    """exp(i*beta*(theta - anchor - pi)): winds beta turns, then jumps back
    by exp(-2*pi*i*beta) at the anchor."""
    return Factor(PowerArc(beta, CirclePoint(anchor)),
                  ((anchor, cmath.exp(-2j * math.pi * beta)),), beta)


def _steps(b1: float, b2: float, v1: complex, v2: complex) -> Factor:
    return Factor(PiecewiseConst((b1, b2), (v1, v2)),
                  ((b1, v1 / v2), (b2, v2 / v1)), 0.0)


class Generator:
    """Draws symbols from a numpy Generator; the draw order is part of the
    input definition and must not change once a reference is pinned.
    Every drawn value is kept in ``draws``, which the digest hashes: it
    names the inputs independently of how the library represents them."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.draws: list = []

    def uniform(self, lo: float, hi: float) -> float:
        value = float(self.rng.uniform(lo, hi))
        self.draws.append(value)
        return value

    def choice(self, options):
        value = options[int(self.rng.integers(0, len(options)))]
        self.draws.append(value)
        return value

    # matching functions: f * ~f = 1 ------------------------------------

    def monomial(self) -> Factor:
        return _monomial(self.choice((-2, -1, 1, 2)))

    def power_arc(self, anchors=(0.0, math.pi)) -> Factor:
        beta = self.choice((0.25, 0.5)) * self.choice((1.0, -1.0))
        return _power_arc(beta, self.choice(anchors))

    def half_circle(self) -> Factor:
        """g0 on the upper half-circle and 1/g0(conj t) on the lower one."""
        b1 = self.uniform(0.3, 1.4)
        b2 = b1 + self.uniform(0.4, math.pi - 0.3 - b1)
        inner = _phase(self.uniform(0.0, 1.0)) * self.uniform(0.5, 2.0)
        edge = self.choice((1.0, -1.0))
        g0 = PiecewiseConst((b1, b2), (inner, edge))
        jumps = ((b1, inner / edge), (b2, edge / inner),
                 (TWO_PI - b2, edge / inner), (TWO_PI - b1, inner / edge))
        return Factor(HalfCircleExtension(g0), jumps, 0.0)

    def matching(self, parts) -> Factor:
        draw = {"mono": self.monomial, "arc": self.power_arc, "half": self.half_circle,
                "arc0": lambda: self.power_arc((0.0,)),
                "arcpi": lambda: self.power_arc((math.pi,))}
        return _times(*(draw[k]() for k in parts))

    # invertible prefactors -----------------------------------------------

    def prefactor(self, parts) -> Factor:
        """const * t^m times the named non-constant factors ("arc", "steps");
        with "m0" in ``parts`` m = 0, otherwise m is drawn from -1, 0, 1."""
        factors = [
            Factor(Const(_phase(self.uniform(0.0, 1.0)) * self.uniform(0.5, 1.5)), (), 0.0),
        ]
        if "m0" not in parts:
            factors.append(_monomial(self.choice((-1, 0, 1))))
        if "arc" in parts:
            factors.append(_power_arc(self.choice((0.25, 0.5)),
                                      self.uniform(0.2, TWO_PI - 0.2)))
        if "steps" in parts:
            b1 = self.uniform(0.1, math.pi)
            b2 = b1 + self.uniform(0.5, TWO_PI - 0.1 - b1)
            factors.append(_steps(b1, b2,
                                  _phase(self.uniform(0.0, 1.0)) * self.uniform(0.6, 1.6),
                                  _phase(self.uniform(0.0, 1.0)) * self.uniform(0.6, 1.6)))
        return _times(*factors)


def _critical_margin(jumps, p: float) -> float:
    """Distance of the jump phases from the non-Fredholm condition on H^p."""
    worst = 1.0
    for _, ratio in jumps:
        x = cmath.phase(ratio) / TWO_PI + 1.0 / p
        worst = min(worst, abs(x - round(x)))
    return worst


def expected_index(f: Factor, p: float) -> int:
    """ind T(f) on H^p by the Gohberg-Krupnik formula: minus the continuous
    winding plus, at each jump, arg(w/u)/2pi reduced into (-1/p, 1 - 1/p)."""
    turns = f.wind
    for _, ratio in f.jumps:
        x = cmath.phase(ratio) / TWO_PI
        turns += x + math.floor(-1.0 / p - x) + 1
    return -round(turns)


def random_case(gen: Generator, kind: str, p: float, name: str,
                compress=None, max_tries: int = 400) -> Case:
    """A matching pair (a0*c, a0) whose c and d = a0*c/~a0 stay MARGIN away
    from degeneracy at p.  ``kind`` is "<parts of c>:<parts of a0>", e.g.
    "mono*arc:steps".  With ``compress`` given, the pair is kept only when
    kappa1 = ind T(d) > 0 > kappa2 = ind T(c) -- the quadrant in which
    ``classify`` compresses 512-sections in the kernel formula -- is as
    requested.  The exponents of GENERIC_P are tried in turn, starting at
    ``p``."""
    c_parts, a0_parts = (part.split("*") for part in kind.split(":"))
    start = GENERIC_P.index(p)
    for attempt in range(max_tries):
        first_draw = len(gen.draws)
        p = GENERIC_P[(start + attempt * len(GENERIC_P) // max_tries) % len(GENERIC_P)]
        c = gen.matching(c_parts)
        a0 = gen.prefactor(a0_parts)
        d = Factor(None, _merge(a0.jumps, c.jumps, _tilde_inverse_jumps(a0.jumps)),
                   2 * a0.wind + c.wind)
        if min(_critical_margin(c.jumps, p), _critical_margin(d.jumps, p)) < MARGIN:
            continue
        kappa1, kappa2 = expected_index(d, p), expected_index(c, p)
        if compress is not None and compress != (kappa1 > 0 > kappa2):
            continue
        pair = make_matching_pair(product(a0.symbol, c.symbol), a0.symbol)
        spec = f"{kind}|{p!r}|{gen.draws[first_draw:]!r}"
        return Case(name, pair, p, spec, (kappa1, kappa2))
    raise RuntimeError(f"no pair of kind {kind} clears the margin")


def random_cases(seed: int, kinds, passes: int) -> list[Case]:
    """``passes`` passes of one pair per (kind, compress) entry; the entries
    take the exponents of GENERIC_P in turn, shifted by one every pass."""
    gen = Generator(seed)
    cases = []
    for k in range(passes):
        for j, (kind, compress) in enumerate(kinds):
            p = GENERIC_P[(j + k) % len(GENERIC_P)]
            case = random_case(gen, kind, p, f"{kind}#{k * len(kinds) + j}", compress)
            cases.append(replace(case, name=f"{case.name}@{case.p:g}"))
    return cases


def catalog_cases() -> list[Case]:
    return [Case(f"{name}@{p:g}", make(), p, f"{name}|{p!r}")
            for name, make in CATALOG_PAIRS for p in CATALOG_P]


def digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(case.spec.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
