import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from th_invert import catalog
from th_invert import symbols as sy
from th_invert.symbols import (CirclePoint, Const, ExpArcs, Monomial, PCSymbol, PiecewiseConst,
                               PowerArc)

TWO_PI = 2 * math.pi


@pytest.fixture
def quarter_twist():
    return catalog.quarter_twist()


@pytest.fixture
def quarter_pair():
    return catalog.quarter_twist_pair()


@pytest.fixture
def half_plane_pair():
    return catalog.half_plane_hankel_pair()


@pytest.fixture
def right_half_pair():
    return catalog.right_half_pair()


def grid_values(sym: PCSymbol, n: int = 1024):
    """Brute-force one-sided evaluation over the grid (oracle helper)."""
    from th_invert.symbols import evaluate_both_sides, grid_angles

    angles = grid_angles(sym, n)
    left, right = evaluate_both_sides(sym, angles)
    return angles, left, right


def max_grid_deviation(s1: PCSymbol, s2: PCSymbol, n: int = 1024) -> float:
    """max over grid and both sides of |s1 - s2| (pointwise oracle)."""
    from th_invert.symbols import evaluate_both_sides, grid_angles

    angles = grid_angles([s1, s2], n)
    l1, r1 = evaluate_both_sides(s1, angles)
    l2, r2 = evaluate_both_sides(s2, angles)
    return float(max(np.max(np.abs(l1 - l2)), np.max(np.abs(r1 - r2))))


@st.composite
def exp_linear_leaves(draw, allow_extension=True):
    """One exp-linear symbol: a constant, monomial, power arc, step function,
    exp-linear arcs, or the half-circle extension of one of these."""
    moduli = st.floats(0.5, 2.0)
    phases = st.floats(-math.pi, math.pi)
    choice = draw(st.integers(0, 5 if allow_extension else 4))
    if choice == 0:
        return Const(draw(moduli) * cmath.exp(1j * draw(phases)))
    if choice == 1:
        return Monomial(draw(st.integers(-3, 3)))
    if choice == 2:
        beta = complex(draw(st.floats(-0.9, 0.9)), draw(st.floats(-0.3, 0.3)))
        return PowerArc(beta, CirclePoint(draw(st.floats(0, TWO_PI - 1e-6))))
    if choice == 3:
        breaks = sorted(draw(st.lists(st.floats(0, TWO_PI - 1e-3), min_size=1, max_size=3,
                                      unique=True)))
        if any(b - a < 1e-3 for a, b in zip(breaks, breaks[1:])):
            breaks = breaks[:1]
        values = [draw(moduli) * cmath.exp(1j * draw(phases)) for _ in breaks]
        return PiecewiseConst(tuple(breaks), tuple(values))
    if choice == 4:
        # breaks[0] = 0, so the last arc wraps onto the first break
        inner = sorted(draw(st.lists(st.floats(0.1, TWO_PI - 0.1), max_size=2, unique=True)))
        if len(inner) == 2 and inner[1] - inner[0] < 0.05:
            inner = inner[:1]
        breaks = [0.0] + inner
        c = [draw(moduli) * cmath.exp(1j * draw(phases)) for _ in breaks]
        lam = [complex(draw(st.floats(-2.5, 2.5)), draw(st.floats(-0.2, 0.2))) for _ in breaks]
        return ExpArcs(tuple(breaks), tuple(c), tuple(lam))
    return sy.HalfCircleExtension(draw(exp_linear_leaves(allow_extension=False)))
