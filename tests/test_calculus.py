import cmath
import math

import numpy as np
import pytest

from th_invert import symbols as sy
from th_invert.calculus import (
    HardyExponent,
    arc,
    matrix_toeplitz_index,
    split_generating_pair,
    th_fredholm_check,
    th_index,
    th_pc_symbol_curve,
    th_symbol,
    toeplitz_index,
    toeplitz_symbol_curve,
    weight_functions,
    winding,
    y_grid,
)
from th_invert.errors import (
    CurveThroughOrigin,
    DegenerateArc,
    NotFredholm,
    OutOfDomain,
    PreconditionViolation,
)
from th_invert.symbols import CirclePoint, Const, Monomial, PiecewiseConst, PowerArc

from conftest import max_grid_deviation

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


def test_weight_limits_exact():
    for p in (1.2, 2.0, 4.0):
        nu_m, h_m = weight_functions(p, -math.inf)
        nu_p, h_p = weight_functions(p, math.inf)
        assert (nu_m, h_m) == (0.0, 0.0)
        assert (nu_p, h_p) == (1.0, 0.0)


def test_weights_at_zero():
    nu, h = weight_functions(2.0, 0.0)
    assert nu == pytest.approx(0.5)
    assert h == pytest.approx(-1j)
    _, h4 = weight_functions(4.0, 0.0)
    assert abs(h4.imag) == pytest.approx(math.sqrt(2.0))  # 1/sin(pi/4)


def test_exponent_validation():
    with pytest.raises(PreconditionViolation):
        HardyExponent(1.0)
    with pytest.raises(PreconditionViolation):
        HardyExponent(math.inf)
    assert HardyExponent(4.0).q == pytest.approx(4.0 / 3.0)


def test_h_parity_and_range():
    ys = y_grid(257)
    for p in (1.2, 2.0, 4.0):
        z = math.pi * (ys + 1j / p)
        h = 1.0 / np.sinh(z)
        assert np.max(np.abs(h.real + h.real[::-1])) < 1e-12  # odd real part
        assert np.max(np.abs(h.imag - h.imag[::-1])) < 1e-12  # even imaginary part
        assert np.all(h.imag < 0)  # lower half-plane for finite y


def test_h_inequality_strict_off_zero():
    for p in (1.2, 2.0, 4.0):
        ys = y_grid(257)
        h = 1.0 / np.sinh(math.pi * (ys + 1j / p))
        bound = 1.0 / math.sin(math.pi / p)
        mid = len(ys) // 2
        assert ys[mid] == 0.0
        assert abs(abs(h.imag[mid]) - bound) < 1e-12  # equality exactly at y = 0
        off = np.abs(h.imag[np.arange(len(ys)) != mid])
        assert np.all(off < bound - 1e-15)


def test_h_quadrant_walk():
    ys = y_grid(257)
    for p, reversed_walk in ((1.5, False), (3.0, True)):
        h = 1.0 / np.sinh(math.pi * (ys + 1j / p))
        neg, pos = h[ys < 0], h[ys > 0]
        if not reversed_walk:
            assert np.all(neg.real >= -1e-15) and np.all(pos.real <= 1e-15)
        else:
            assert np.all(neg.real <= 1e-15) and np.all(pos.real >= -1e-15)


# ---------------------------------------------------------------------------
# arcs
# ---------------------------------------------------------------------------


def test_arc_p2_is_segment():
    seg = arc(0.0, 1.0, 2.0)
    assert np.max(np.abs(seg.values.imag)) < 1e-12
    assert np.all(seg.values.real >= -1e-12) and np.all(seg.values.real <= 1 + 1e-12)
    assert seg.values[0] == 0.0 and seg.values[-1] == 1.0


def test_arc_p2_through_origin():
    seg = arc(-1j, 1j, 2.0)
    assert seg.min_modulus < 1e-12


def test_arc_inscribed_angle():
    # from any interior point the chord subtends 2*pi/max(p, q)
    u, w, p = 1.0, 1j, 4.0
    seg = arc(u, w, p)
    interior = seg.values[len(seg.values) // 6:: len(seg.values) // 6][:5]
    for z in interior:
        ang = abs(cmath.phase((u - z) / (w - z)))
        assert abs(ang - math.pi / 2) < 1e-9


def test_arc_side_convention():
    # p < 2: left of the directed chord; p > 2: right of it
    for p, sign in ((1.5, 1.0), (3.0, -1.0)):
        seg = arc(0.0, 1.0, p)
        mid = seg.values[len(seg.values) // 2]
        assert sign * mid.imag > 0


def test_arc_rejects_equal_endpoints():
    with pytest.raises(DegenerateArc):
        arc(1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# curves and winding
# ---------------------------------------------------------------------------


def test_monomial_curve_windings():
    for n in range(-5, 6):
        curve = toeplitz_symbol_curve(Monomial(n), 1.7)
        assert curve.min_modulus == pytest.approx(1.0)
        assert winding(curve) == n


def test_winding_requires_distance_from_origin():
    curve = toeplitz_symbol_curve(sy.add(Monomial(1), Const(-1.0)), 2.0)
    with pytest.raises(CurveThroughOrigin):
        winding(curve)


def test_quarter_twist_d_windings(quarter_pair):
    assert winding(toeplitz_symbol_curve(quarter_pair.d, 3.0)) == 2
    assert winding(toeplitz_symbol_curve(quarter_pair.d, 1.5)) == 1
    curve2 = toeplitz_symbol_curve(quarter_pair.d, 2.0)
    assert curve2.min_modulus < 1e-7


def test_half_plane_sign_winding(half_plane_pair):
    assert winding(toeplitz_symbol_curve(half_plane_pair.b, 1.5)) == -1
    assert winding(toeplitz_symbol_curve(half_plane_pair.b, 3.0)) == 1


def test_power_arc_curve_stays_invertible():
    curve = toeplitz_symbol_curve(PowerArc(0.5), 1.5)
    assert curve.min_modulus > 0.1


# ---------------------------------------------------------------------------
# Toeplitz indices
# ---------------------------------------------------------------------------


def test_toeplitz_index_monomials():
    for n in range(-5, 6):
        assert toeplitz_index(Monomial(n), 1.7).index == -n


def test_quarter_twist_d_indices(quarter_pair):
    assert toeplitz_index(quarter_pair.d, 1.5).index == -1
    assert not toeplitz_index(quarter_pair.d, 2.0).fredholm
    assert toeplitz_index(quarter_pair.d, 3.0).index == -2
    for p in (1.5, 2.0, 3.0):
        assert toeplitz_index(quarter_pair.c, p).index == 1


def test_half_plane_sign_indices(half_plane_pair):
    a = half_plane_pair.b
    assert toeplitz_index(a, 1.5).index == 1
    assert toeplitz_index(a, 3.0).index == -1
    assert not toeplitz_index(a, 2.0).fredholm


# ---------------------------------------------------------------------------
# the 2x2 symbol of T(a) + H(b)
# ---------------------------------------------------------------------------


def test_symbol_diagonal_for_continuous_b(quarter_twist):
    t = CirclePoint(1.0)
    m = th_symbol(quarter_twist, Monomial(2), 2.0, t, 0.3)
    assert m.shape == (2, 2)
    assert abs(m[0, 1]) < 1e-14 and abs(m[1, 0]) < 1e-14
    det = m[0, 0] * m[1, 1]
    expected = (sy.evaluate(quarter_twist, t, "right")
                * sy.evaluate(quarter_twist, CirclePoint(-1.0), "right"))
    assert det == pytest.approx(expected)


def test_symbol_out_of_domain(quarter_twist):
    with pytest.raises(OutOfDomain):
        th_symbol(quarter_twist, quarter_twist, 2.0, CirclePoint(4.0), 0.0)


def test_half_plane_scalar_branch_stays_upper(half_plane_pair):
    # the symbol of iI - H(a) at t = +-1, p = 2 lives in the upper half-plane
    a = half_plane_pair.b
    for theta in (0.0, math.pi):
        for y in (-2.0, -0.5, 0.0, 0.5, 2.0, math.inf, -math.inf):
            val = th_symbol(Const(1j), -a, 2.0, CirclePoint(theta), y)
            assert val.imag > 0
    # while the symbol of iI + H(a) touches zero at y = 0
    val = th_symbol(Const(1j), a, 2.0, CirclePoint(0.0), 0.0)
    assert abs(val) < 1e-12


def test_continuous_symbols_fredholm_iff_nonvanishing():
    smooth = sy.add(Monomial(1), Const(3.0))
    assert th_fredholm_check(smooth, smooth, 2.0).fredholm
    vanishing = sy.add(Monomial(1), Const(-1.0))
    assert not th_fredholm_check(vanishing, Const(0.0), 2.0).fredholm


def test_fredholm_check_quarter_pair(quarter_pair):
    a, b = quarter_pair.a, quarter_pair.b
    assert not th_fredholm_check(a, b, 2.0).fredholm
    assert th_fredholm_check(a, -b, 2.0).fredholm
    assert th_fredholm_check(Const(1.0), Const(0.0), 2.0).fredholm


# ---------------------------------------------------------------------------
# the index of T(a) + H(b)
# ---------------------------------------------------------------------------


def test_th_index_quarter_twist(quarter_pair):
    a, b = quarter_pair.a, quarter_pair.b
    for p in (1.5, 2.0, 3.0):
        assert th_index(a, -b, p) == 0
    assert th_index(a, b, 1.5) == 0
    assert th_index(a, b, 3.0) == -1
    with pytest.raises(NotFredholm):
        th_index(a, b, 2.0)


def test_th_index_half_plane(half_plane_pair):
    a, b = half_plane_pair.a, half_plane_pair.b
    for p in (1.3, 1.5, 3.0, 5.0):
        assert th_index(a, -b, p) == 0
    assert th_index(a, b, 1.5) == 2
    assert th_index(a, b, 3.0) == -2


def test_th_index_right_half(right_half_pair):
    a, b = right_half_pair.a, right_half_pair.b
    for p in (1.5, 2.0, 3.0):
        assert th_index(a, b, p) == 0
        assert th_index(a, -b, p) == 0


def test_th_index_reduces_to_toeplitz_for_zero_b():
    rng = np.random.default_rng(11)
    from th_invert.sampling import random_invertible_symbol

    checked = 0
    while checked < 20:
        a = random_invertible_symbol(rng)
        res = toeplitz_index(a, 1.7)
        if not res.fredholm:
            continue
        assert th_index(a, Const(0.0), 1.7) == res.index
        checked += 1


def test_split_interpolants_match_pair_at_fixed_points(quarter_pair):
    a, b = quarter_pair.a, quarter_pair.b
    g, b0 = split_generating_pair(a, b)
    for theta in (0.0, math.pi):
        for side in ("left", "right"):
            t = CirclePoint(theta)
            assert abs(sy.evaluate(g, t, side) - sy.evaluate(a, t, side)) < 1e-12
            assert abs(sy.evaluate(b0, t, side) - sy.evaluate(b, t, side)) < 1e-12
    # b - b0 vanishes at +-1 and g is invertible on the grid
    diff = b - b0
    for theta in (0.0, math.pi):
        for side in ("left", "right"):
            assert abs(sy.evaluate(diff, CirclePoint(theta), side)) < 1e-12
    sy.check_invertible(g)


def test_split_index_difference_bound():
    # the indices of T(g) +- H(b0) differ by at most 2
    rng = np.random.default_rng(5)
    from th_invert.sampling import random_invertible_symbol

    checked = 0
    while checked < 10:
        a = random_invertible_symbol(rng)
        b = random_invertible_symbol(rng)
        try:
            g, b0 = split_generating_pair(a, b)
            wp = winding(th_pc_symbol_curve(g, b0, 1.7))
            wm = winding(th_pc_symbol_curve(g, -b0, 1.7))
        except CurveThroughOrigin:
            continue
        assert abs(wp - wm) <= 2
        checked += 1


def test_matrix_index_of_triangular_symbol(quarter_pair):
    from th_invert.matching import build_u_matrix

    u = build_u_matrix(quarter_pair)
    assert matrix_toeplitz_index(u, 3.0).index == -1  # ind T(c) + ind T(d)
    assert matrix_toeplitz_index(u, 1.5).index == 0
    assert not matrix_toeplitz_index(u, 2.0).fredholm


def test_y_grid_symmetric_with_zero():
    ys = y_grid(257)
    assert len(ys) == 257
    assert ys[len(ys) // 2] == 0.0
    assert np.max(np.abs(ys + ys[::-1])) < 1e-12


def test_close_origin_approach_resolved_adaptively():
    # a piecewise-constant symbol whose completing chords at p = 2 pass the
    # origin at distance eps: the curve must resolve the true distance and
    # still produce the flat loop's zero winding
    eps = 1e-4
    s = PiecewiseConst((0.0, math.pi), (1.0 - eps * 1j, -1.0 - eps * 1j))
    res = toeplitz_index(s, 2.0)
    assert res.fredholm
    assert res.index == 0
    assert res.min_modulus < 2 * eps  # coarse grids overestimate this 40x


def test_through_origin_detected_at_p2():
    s = PiecewiseConst((0.0, math.pi), (1.0, -1.0))
    res = toeplitz_index(s, 2.0)
    assert not res.fredholm


def test_hankel_contribution_reduces_to_scalar_form(quarter_twist):
    # for b continuous off +-1 the symbol at +-1 is the Toeplitz interpolation
    # plus +-(jump of b)/2 * h_p(y); the interior matrix stays diagonal
    from th_invert.symbols import PiecewiseLinear, evaluate

    b = PiecewiseLinear((0.0, math.pi), (2.0, 1j), (1.0 + 1j, -3.0))
    a = quarter_twist
    p, y = 2.5, 0.7
    nu, h = weight_functions(p, y)
    for theta, sign in ((0.0, 1.0), (math.pi, -1.0)):
        t = CirclePoint(theta)
        al = evaluate(a, t, "left")
        ar = evaluate(a, t, "right")
        bl = evaluate(b, t, "left")
        br = evaluate(b, t, "right")
        manual = ar * nu + al * (1.0 - nu) + sign * (br - bl) / 2.0 * h
        assert th_symbol(a, b, p, t, y) == pytest.approx(manual)
    interior = th_symbol(a, b, p, CirclePoint(1.2), y)
    assert abs(interior[0, 1]) < 1e-14 and abs(interior[1, 0]) < 1e-14
