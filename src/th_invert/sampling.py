"""Randomized matching pairs for the route-agreement and identity suites."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .calculus import toeplitz_index
from .matching import MatchingPair, make_matching_pair
from . import symbols as sy
from .symbols import (
    Const,
    HalfCircleExtension,
    Monomial,
    PCSymbol,
    PiecewiseConst,
    PowerArc,
)


def random_matching_function(rng: np.random.Generator, depth: int = 1) -> PCSymbol:
    """A random function with f * ~f = 1: monomials, power arcs anchored at
    +-1, half-circle extensions of piecewise constants, and their products."""
    kind = rng.integers(0, 4 if depth > 0 else 3)
    if kind == 0:
        return Monomial(int(rng.integers(-3, 4)))
    if kind == 1:
        beta = rng.choice([0.25, 0.5]) * rng.choice([1.0, -1.0])
        anchor = rng.choice([0.0, math.pi])
        return PowerArc(float(beta), sy.CirclePoint(float(anchor)))
    if kind == 2:
        b1, b2 = sorted(rng.uniform(0.3, math.pi - 0.3, size=2))
        if b2 - b1 < 0.1:
            b2 = min(math.pi - 0.2, b1 + 0.3)
        inner = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.5, 2.0)
        edge = float(rng.choice([1.0, -1.0]))
        g0 = PiecewiseConst((float(b1), float(b2)), (inner, edge))
        return HalfCircleExtension(g0)
    return sy.product(random_matching_function(rng, 0), random_matching_function(rng, 0))


def random_invertible_symbol(rng: np.random.Generator) -> PCSymbol:
    factors: list[PCSymbol] = [
        Const(cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.5, 1.5)),
        Monomial(int(rng.integers(-2, 3))),
    ]
    if rng.random() < 0.6:
        beta = float(rng.choice([0.25, 0.5]))
        anchor = sy.CirclePoint(rng.uniform(0, 2 * math.pi))
        factors.append(PowerArc(beta, anchor))
    if rng.random() < 0.4:
        b1, b2 = np.sort(rng.uniform(0.1, 2 * math.pi - 0.1, size=2))
        if b2 - b1 < 0.1:
            # widen to 0.2 without passing 2 pi, where the breaks would wrap
            b1, b2 = (b1, b1 + 0.2) if b1 + 0.2 < 2 * math.pi else (b2 - 0.2, b2)
        v1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.6, 1.6)
        v2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.6, 1.6)
        factors.append(PiecewiseConst((float(b1), float(b2)), (v1, v2)))
    return sy.product(*factors)


def random_matching_pair(rng: np.random.Generator, p=None,
                         max_tries: int = 40) -> MatchingPair:
    """A matching pair (a0*c, a0); with p given, retried until the
    subordinated Toeplitz operators are Fredholm on H^p."""
    for _ in range(max_tries):
        c = random_matching_function(rng)
        a0 = random_invertible_symbol(rng)
        pair = make_matching_pair(sy.product(a0, c), a0)
        if p is None:
            return pair
        if toeplitz_index(pair.c, p).fredholm and toeplitz_index(pair.d, p).fredholm:
            return pair
    raise RuntimeError("could not sample a Fredholm matching pair")
