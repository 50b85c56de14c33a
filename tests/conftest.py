import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from th_invert import catalog
from th_invert import symbols as sy
from th_invert.defaults import INVERTIBILITY_TOL
from th_invert.errors import DivisionBySmallModulus
from th_invert.sections import toeplitz_matrix
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


def entry_tree(u, i: int, j: int) -> PCSymbol:
    """Entry (i, j) of a MatrixSymbol as a symbol tree: the reference for its
    value formulas."""
    a, b, ta_inv, tb = u.a, u.b, sy.inverse(sy.tilde(u.a)), sy.tilde(u.b)
    if u.general:
        rows = ((a - b * tb * ta_inv, -(b * ta_inv)), (tb * ta_inv, ta_inv))
    else:
        rows = ((Const(0.0), -sy.product(b, ta_inv)), (sy.product(a, sy.inverse(b)), ta_inv))
    return rows[i][j]


def tree_evaluate_array(sym: PCSymbol, thetas) -> np.ndarray:
    """Vectorized evaluation by a walk over the whole tree, node by node: the
    reference for ``evaluate_array``, which reads the terms of a symbol."""
    thetas = np.asarray(thetas, dtype=float)
    if isinstance(sym, Const):
        return np.full(thetas.shape, sym.value, dtype=complex)
    if isinstance(sym, Monomial):
        return np.exp(1j * sym.n * thetas)
    if isinstance(sym, PowerArc):
        zeta = np.mod(thetas - sym.anchor.angle, TWO_PI)
        return np.exp(1j * sym.beta * (zeta - math.pi))
    if isinstance(sym, PiecewiseConst):
        angles = np.array([b.angle for b in sym.breaks])
        idx = np.mod(np.searchsorted(angles, thetas, side="right") - 1, len(angles))
        return np.asarray(sym.values, dtype=complex)[idx]
    if isinstance(sym, ExpArcs):
        thetas = np.mod(thetas, TWO_PI)
        j = np.searchsorted(np.array(sym.breaks), thetas, side="right") - 1
        return np.array(sym.c)[j] * np.exp(1j * np.array(sym.lam)[j] * thetas)
    if isinstance(sym, sy.HalfCircleExtension):
        upper = thetas <= math.pi
        out = np.empty(thetas.shape, dtype=complex)
        out[upper] = tree_evaluate_array(sym.g0, thetas[upper])
        out[~upper] = 1.0 / tree_evaluate_array(sym.g0, np.mod(TWO_PI - thetas[~upper], TWO_PI))
        return out
    if isinstance(sym, sy.Sum):
        return np.sum([tree_evaluate_array(t, thetas) for t in sym.terms], axis=0)
    if isinstance(sym, sy.Product):
        out = np.ones(thetas.shape, dtype=complex)
        for f in sym.factors:
            out *= tree_evaluate_array(f, thetas)
        return out
    if isinstance(sym, sy.Inverse):
        v = tree_evaluate_array(sym.child, thetas)
        if v.size and np.min(np.abs(v)) < INVERTIBILITY_TOL:
            raise DivisionBySmallModulus("modulus below tolerance")
        return 1.0 / v
    if isinstance(sym, sy.Conjugate):
        return np.conj(tree_evaluate_array(sym.child, thetas))
    if isinstance(sym, sy.Tilde):
        return tree_evaluate_array(sym.child, np.mod(-thetas, TWO_PI))
    raise TypeError(f"unknown symbol node {type(sym)!r}")


def dense_compression(u0: PCSymbol, v0: PCSymbol, w: PCSymbol, kappa1: int, size: int,
                      tol: float) -> np.ndarray:
    """T_size^-1(u0) T_size(w) T_size^-1(v0) on the first kappa1 unit vectors by
    dense LU on the sections: the reference for ``sections._compression``."""
    a_u0 = toeplitz_matrix(u0, size, tol).entries
    a_v0 = toeplitz_matrix(v0, size, tol).entries
    a_w = toeplitz_matrix(w, size, tol).entries
    rhs = np.zeros((size, kappa1), dtype=complex)
    for j in range(kappa1):
        rhs[j, j] = 1.0
    z = np.linalg.solve(a_v0, rhs)     # T^-1(v0) on im P_{kappa1-1}
    return np.linalg.solve(a_u0, a_w @ z)


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
