import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from th_invert import calculus, symbols as sy
from th_invert.calculus import (
    AUTO,
    EXACT,
    SAMPLED,
    HardyExponent,
    _base_weights,
    _flip_arc,
    _matrix_arc,
    _scalar_arc,
    _y_axis,
    arc,
    critical_exponents,
    exact_index,
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
from th_invert.defaults import GRID_N
from th_invert.errors import (
    CurveThroughOrigin,
    DegenerateArc,
    NonIntegerWinding,
    NotFredholm,
    OutOfDomain,
    PreconditionViolation,
)
from th_invert.symbols import (POINT_ONE, CirclePoint, Const, ExpArcs, Monomial, PiecewiseConst,
                               PowerArc)
from th_invert.sampling import random_matching_pair

from conftest import exp_linear_leaves, max_grid_deviation

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
    ys = y_grid()
    for p in (1.2, 2.0, 4.0):
        z = math.pi * (ys + 1j / p)
        h = 1.0 / np.sinh(z)
        assert np.max(np.abs(h.real + h.real[::-1])) < 1e-12  # odd real part
        assert np.max(np.abs(h.imag - h.imag[::-1])) < 1e-12  # even imaginary part
        assert np.all(h.imag < 0)  # lower half-plane for finite y


def test_h_inequality_strict_off_zero():
    for p in (1.2, 2.0, 4.0):
        ys = y_grid()
        h = 1.0 / np.sinh(math.pi * (ys + 1j / p))
        bound = 1.0 / math.sin(math.pi / p)
        mid = len(ys) // 2
        assert ys[mid] == 0.0
        assert abs(abs(h.imag[mid]) - bound) < 1e-12  # equality exactly at y = 0
        off = np.abs(h.imag[np.arange(len(ys)) != mid])
        assert np.all(off < bound - 1e-15)


def test_h_quadrant_walk():
    ys = y_grid()
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


def test_winding_refuses_a_step_that_may_cross_the_origin():
    # the steps sum to a whole turn count (0), but a step of 2.9 rad may
    # pass either side of the origin: refinement stopped short of resolving it
    values = np.array([1.0, cmath.exp(2.9j), 1.0])
    curve = calculus.SymbolCurve(np.zeros(3, dtype=int), np.arange(3.0), values, True, 1.0)
    with pytest.raises(NonIntegerWinding):
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


def test_critical_exponents_of_the_catalog(quarter_pair, half_plane_pair):
    assert critical_exponents(PowerArc(0.25)) == [4.0]
    assert critical_exponents(quarter_pair.d) == [2.0]
    assert critical_exponents(quarter_pair.c) == []
    assert critical_exponents(half_plane_pair.b) == [2.0, 2.0]
    assert critical_exponents(PiecewiseConst((0.0, math.pi), (1.0, 0.0))) == []


@pytest.mark.parametrize("sym", [
    sy.product(Monomial(1), PowerArc(0.3 + 0.05j, CirclePoint(2.0)),
               PiecewiseConst((1.0, 4.0), (1.5j, -0.7 + 0.2j))),
    sy.HalfCircleExtension(PiecewiseConst((0.5, 2.0), (2.0 - 1j, -1.0))),
    sy.product(PowerArc(0.45), PowerArc(-0.2, CirclePoint(math.pi)), Const(-2.0)),
], ids=["steps", "extension", "two-arcs"])
def test_critical_exponents_of_a_term_match_the_value_quotient(sym):
    # one term reads each turn from its phases, a sum from the quotient of
    # its one-sided values; adding the constant 0 makes the same function a sum
    as_sum = sy.Sum((sym, Const(0.0)))
    assert len(sy.side_rules(sym)) == 1 and len(sy.side_rules(as_sum)) == 2
    from_terms = critical_exponents(sym)
    assert len(from_terms) >= 2
    assert from_terms == pytest.approx(critical_exponents(as_sum), rel=1e-12)


def test_critical_exponents_of_a_jump_with_a_subnormal_phase():
    # atan2(5e-324, 2.5) underflows to a subnormal, where cmath.phase raises
    # OverflowError; the jump has turn 0 and so no critical exponent
    sym = sy.Sum((PiecewiseConst((0.0, 1.0), (1.0, 2.5 + 5e-324j)), Const(0.0)))
    assert critical_exponents(sym) == []
    assert sy.phase(2.5 + 5e-324j) == math.atan2(5e-324, 2.5)


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_phase_is_cmath_phase_bit_for_bit(z):
    try:
        expected = cmath.phase(z)
    except OverflowError:
        assume(False)
    assert math.copysign(1.0, sy.phase(z)) == math.copysign(1.0, expected)
    assert sy.phase(z) == expected


_GRID = [TWO_PI * k / 24 for k in range(24)]


@st.composite
def jump_symbols(draw):
    """Nonvanishing products of a monomial, power arcs with real beta at
    random anchors, a piecewise constant and a half-circle extension."""
    betas = st.floats(-0.95, 0.95)
    factors = [Monomial(draw(st.integers(-2, 2)))]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(PowerArc(draw(betas), CirclePoint(draw(st.sampled_from(_GRID)))))
    if draw(st.booleans()):
        breaks = sorted(draw(st.sets(st.sampled_from(_GRID), min_size=1, max_size=3)))
        values = [cmath.rect(draw(st.floats(0.5, 2.0)), draw(st.floats(-3.0, 3.0)))
                  for _ in breaks]
        factors.append(PiecewiseConst(tuple(breaks), tuple(values)))
    if draw(st.booleans()):
        anchor = CirclePoint(draw(st.sampled_from(_GRID[1:12])))
        factors.append(sy.HalfCircleExtension(PowerArc(draw(betas), anchor)))
    return sy.Product(tuple(factors))


@given(jump_symbols())
@settings(max_examples=60, deadline=None)
def test_critical_exponents_match_the_winding(sym):
    crit = critical_exponents(sym)
    lo, hi = 1.25, 6.0
    distinct = []
    for s in crit:
        if lo < s < hi and not (distinct and s <= distinct[-1] * (1 + 1e-9)):
            distinct.append(s)
    edges = [lo, *distinct, hi]
    # clusters closer than the probes below are left to other draws
    assume(all(b > a * (1 + 1e-2) for a, b in zip(edges, edges[1:])))

    def index(s):
        # the closed form decides, and the sampled curve agrees with it
        res = toeplitz_index(sym, s, min_modulus_tol=1e-7, route=EXACT)
        assert res is not None and res.fredholm, s
        assert res.index == toeplitz_index(sym, s, min_modulus_tol=1e-7, route=SAMPLED).index, s
        return res.index

    for a, b in zip(edges, edges[1:]):  # constant between critical exponents
        assert index(a + (b - a) / 3) == index(a + 2 * (b - a) / 3)
    for s in distinct:  # one step down per jump that degenerates at s
        shared = sum(1 for x in crit if abs(x - s) <= 1e-9 * s)
        assert index(s * (1 - 1e-3)) - index(s * (1 + 1e-3)) == shared
        for near in (s * (1 - 1e-12), s * (1 + 1e-12)):  # both routes see the degeneracy
            assert not toeplitz_index(sym, near, min_modulus_tol=1e-7, route=EXACT).fredholm
            assert not toeplitz_index(sym, near, min_modulus_tol=1e-7, route=SAMPLED).fredholm


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


def test_split_interpolants_wrap_onto_one(quarter_pair):
    # an angle just below 2*pi, or just above 0, snaps onto the break at 1
    a, b = quarter_pair.a, quarter_pair.b
    g, b0 = split_generating_pair(a, b)
    for f, ref in ((g, a), (b0, b)):
        for side, theta in (("right", -1e-13), ("left", 1e-13)):
            at_one = sy.evaluate(f, POINT_ONE, side)
            assert at_one == pytest.approx(sy.evaluate(ref, POINT_ONE, side), abs=1e-12)
            assert sy.evaluate(f, CirclePoint(theta), side) == pytest.approx(at_one, abs=1e-12)


@st.composite
def small_laurent_polynomials(draw):
    coeffs = st.floats(-0.5, 0.5)
    return sy.add(*(Const(complex(draw(coeffs), draw(coeffs))) * Monomial(k)
                    for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))))


@given(exp_linear_leaves(), exp_linear_leaves(), small_laurent_polynomials(),
       st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=25, deadline=None)
def test_th_index_ignores_continuous_changes_of_b(a, b, c, p):
    # H(c) is compact and b + c has the jumps of b, so the index is the same.
    assume(th_fredholm_check(a, b, p).min_modulus > 1e-3)

    def index(b_):
        try:
            return th_index(a, b_, p)
        except NotFredholm:
            return "not Fredholm"

    assert index(b + c) == index(b)


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


def test_matrix_index_with_steps_in_a_and_b_and_continuous_c():
    # (a0 * c, a0): a and b jump together at the steps of a0, while c = t^-1
    # is continuous; d = a0 / (~a0 * ~c) jumps at the steps and their mirrors
    from th_invert.matching import build_u_matrix, make_matching_pair

    a0 = sy.product(Const(0.8 + 0.3j), PiecewiseConst((0.9, 4.0), (1.2, -0.7 + 0.5j)))
    pair = make_matching_pair(sy.product(a0, Monomial(-1)), a0)
    assert not sy.jump_set(pair.c) and len(sy.jump_set(pair.a)) == 2
    for p in (1.5, 3.0):
        subordinated = toeplitz_index(pair.c, p).index + toeplitz_index(pair.d, p).index
        assert matrix_toeplitz_index(build_u_matrix(pair), p).index == subordinated
        # U1 of th_index has b2 = 0 at +-1; the index sum rule splits the sum
        assert th_index(pair.a, pair.b, p) + th_index(pair.a, -pair.b, p) == subordinated


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_base_arc_weights_are_computed_once_and_exactly(p):
    nus, hs = _base_weights(p)
    ref_nus, ref_hs = weight_functions(p, _y_axis())
    assert np.array_equal(nus, ref_nus) and np.array_equal(hs, ref_hs)
    assert _base_weights(p)[0] is nus  # shared by every arc
    assert not nus.flags.writeable and not hs.flags.writeable


@pytest.mark.parametrize("brk", [1e-12, 2e-12, 1e-9])
def test_a_jump_next_to_zero_keeps_its_arc(brk):
    # the curve closes the jump at brk with its p-arc: index -1 at p = 7
    a = PiecewiseConst((brk, 1.0), (1.0, cmath.exp(1j)))
    for route in (AUTO, EXACT, SAMPLED):
        res = toeplitz_index(a, 7.0, min_modulus_tol=1e-7, route=route)
        assert res is None or (res.fredholm, res.index) in ((True, -1), (False, None))
    assert toeplitz_index(a, 7.0).index == -1


def test_a_power_arc_anchored_next_to_one_is_refused_or_indexed():
    # a jump at 1e-11 whose arc passes through the origin at p = 2
    a = PowerArc(0.5, CirclePoint(1e-11))
    for b in (Const(1.0), Const(-1.0)):
        for route in (AUTO, EXACT, SAMPLED):
            try:
                res = th_index(a, b, 2.0, min_modulus_tol=1e-7, route=route)
            except NotFredholm:
                continue
            assert res is None or isinstance(res, int)
    assert not toeplitz_index(a, 2.0).fredholm


def test_y_grid_symmetric_with_zero():
    ys = y_grid()
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
    from th_invert.symbols import evaluate

    b = (PiecewiseConst((0.0, math.pi), (1.5 + 0.5j, -1.5 + 0.5j))
         + PiecewiseConst((0.0, math.pi), (0.5 - 0.5j, -1.5 - 0.5j)) * Monomial(1))
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


def test_fredholm_check_finds_a_zero_between_samples():
    # at p = 2 the arc at each jump of a is the segment from 1 to -2, which
    # crosses the origin between two samples of the fixed y grid
    check = th_fredholm_check(PiecewiseConst((1.0, 2.0), (1, -2)), Const(1.0), 2.0)
    assert not check.fredholm
    assert check.min_modulus <= 1e-7


def test_fredholm_checks_of_both_signs_share_the_smooth_part():
    a = sy.product(PowerArc(0.3 + 0.2j, CirclePoint(1.0)), Monomial(1))
    b = PiecewiseConst((0.5, 4.0), (1.0, 2j))
    calculus._smooth_minimum.cache_clear()
    checks = [th_fredholm_check(a, sign * b, p) for p in (1.5, 3.0) for sign in (1, -1)]
    info = calculus._smooth_minimum.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # the smooth part, sampled as before it was shared
    special = [0.5, 1.0, TWO_PI - 4.0]
    thetas = np.linspace(0.0, math.pi, GRID_N // 2)[1:-1]
    smooth = thetas[np.all(np.abs(thetas[:, None] - np.array(special)) > 1e-12, axis=1)]
    dets = np.abs(sy.evaluate_array(a, smooth) * sy.evaluate_array(a, TWO_PI - smooth))
    i = int(np.argmin(dets))
    assert calculus._smooth_minimum(a, tuple(special)) == (dets[i], (smooth[i], 0.0))
    for check in checks:
        assert check.min_modulus <= dets[i]


DENSE_Y = np.concatenate([[-np.inf], np.arctanh(np.linspace(-1 + 1e-6, 1 - 1e-6, 20_000)),
                          [np.inf]])


def th_symbol_modulus(a, b, p, theta, ys):
    """|th_symbol| over ys: of the 2x2 determinant in the open upper half-circle."""
    m = th_symbol(a, b, p, CirclePoint(theta), ys)
    return np.abs(m if m.ndim < 2 else m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def dense_check_minimum(a, b, p):
    """The smallest modulus of the T+H symbol over the smooth samples of
    th_fredholm_check and 20 002 values of y on each of its arcs: the 2x2
    determinant at the jumps in the open upper half-circle, the scalar
    branch at +-1."""
    jumps = {pt.angle for pt, _, _ in sy.jump_set(a)} | {pt.angle for pt, _, _ in sy.jump_set(b)}
    special = sy.dedupe_angles({th for th in jumps if 0.0 < th < math.pi}
                               | {TWO_PI - th for th in jumps if math.pi < th < TWO_PI})
    thetas = np.linspace(0.0, math.pi, 512)[1:-1]
    smooth = thetas[[all(abs(th - s) > 1e-12 for s in special) for th in thetas]]
    moduli = [np.abs(sy.evaluate_array(a, smooth) * sy.evaluate_array(a, TWO_PI - smooth))]
    moduli += [th_symbol_modulus(a, b, p, th, DENSE_Y) for th in special + [0.0, math.pi]]
    return float(np.min(np.concatenate(moduli)))


def one_or_two_terms():
    return st.one_of(exp_linear_leaves(), st.builds(sy.add, exp_linear_leaves(),
                                                    exp_linear_leaves()))


# two roots near different points of an arc, where the product of their
# distances is far below the modulus: of the 2x2 determinant at t = e^i
# (roots about 0.5 + 1e-4 i and 0.25, modulus at least 3.7e-5), and of the
# scalar branch at t = +-1 (roots 0.5i + 1e-4 and its -1/r, modulus about 1.2e-4)
_R = 0.5j + 1e-4


# two roots of very different size near the ray of the branch at t = 1,
# 0.01i + 1e-5 and 100i + 0.1: modulus about 1e-5, where pairing each root
# with +-1 bounds it by 3.3e-8 only
_R0, _R1 = 0.01j + 1e-5, 100j + 0.1


@given(one_or_two_terms(), one_or_two_terms(), st.floats(1.1, 8.0))
@example(sy.add(Monomial(1), Const(0.5)), sy.HalfCircleExtension(Const(cmath.exp(1j))), 2.0)
@example(PiecewiseConst((0.0, math.pi), (0.01, -0.01 * _R0 * _R1)),
         PiecewiseConst((0.0, 1.0), (-0.01 * (_R0 + _R1), 0.0)), 2.0)
@example(PiecewiseConst((1.0, 2.0, TWO_PI - 1.0), (-1 + 4e-4j, -1 / 3 + 1e-4j, 1.0)),
         Const(0.0), 2.0)
@example(Const(1.0), PiecewiseConst((0.0, math.pi), (1 / _R - _R, 0.0)), 2.0)
@settings(max_examples=60, deadline=None)
def test_fredholm_check_certifies_what_a_dense_sweep_sees(a, b, p):
    # the check's margin is a lower bound of the symbol's modulus, so never
    # above a dense sampling of it; away from the tolerance both decide
    # alike.  The sweep also reads the symbol at the check's witness: a zero
    # on an arc, as in the first example at t = -1, lies between its samples.
    tol = 1e-7
    check = th_fredholm_check(a, b, p, min_modulus_tol=tol)
    at_witness = float(th_symbol_modulus(a, b, p, *check.witness))
    dense_min = min(dense_check_minimum(a, b, p), at_witness)
    assert check.min_modulus <= dense_min * (1 + 1e-9)
    if not tol / 10 <= dense_min <= 10 * tol:
        assert check.fredholm == (dense_min > tol)


@given(st.floats(1.1, 8.0), st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-6.0, -1.0),
                                               st.sampled_from([-1.0, 1.0])),
                                     min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_flip_arc_bound_stays_below_a_dense_sweep(p, placements):
    # two roots of sizes 1e-2 to 1e2 within 1e-6 to 1e-1 of the ray of the
    # branch at t = 1, relative to their size: the certified bound is a lower
    # bound of the branch's modulus, so never above a dense sampling of it.
    # An infinite tolerance makes _flip_arc take both of its bounds.
    ray = cmath.exp(1j * math.pi / p)
    r0, r1 = (ray * 10 ** size * (1 + 1j * side * 10 ** offset)
              for size, offset, side in placements)
    gl, k = -r0 * r1, -(r0 + r1)
    found = _flip_arc((gl, 1.0, 0.0, k), 0.0, p, math.inf)
    nu, h = weight_functions(p, DENSE_Y)
    assert found.bound <= np.min(np.abs(nu + gl * (1.0 - nu) + k / 2.0 * h)) * (1 + 1e-9)


def test_fredholm_check_refuses_an_arc_out_of_reach():
    # at p = 1e5 the p-arc of a jump off +-1 is beyond the root distances,
    # which certify nothing there, so the check cannot decide; at p = 100
    # the same symbol is certified
    a = PiecewiseConst((1.0, 2.0), (1.0, 2.0))
    assert th_fredholm_check(a, Const(0.0), 100.0).fredholm
    with pytest.raises(PreconditionViolation):
        th_fredholm_check(a, Const(0.0), 1e5)
    # an arc end at 0 decides without a certificate: a vanishes on (1, 1.001),
    # between two angle samples, and t - 1 at t = 1, where its flip arc has no
    # root to measure
    gap = PiecewiseConst((1.0, 1.001, 2.0), (0.0, 3.0, 2.0))
    expected = calculus.FredholmCheck(False, 0.0, (1.0, math.inf))
    assert th_fredholm_check(gap, Const(0.0), 1e5) == expected
    check = th_fredholm_check(sy.add(Monomial(1), Const(-1.0)), Const(0.0), 2.0)
    assert not check.fredholm and check.min_modulus == 0.0 and check.witness[0] == 0.0


# ---------------------------------------------------------------------------
# exact windings
# ---------------------------------------------------------------------------


def _curve_agrees(exact, curve):
    """The closed form decided as the curve did, with a lower modulus bound."""
    assert exact is not None
    assert (exact.fredholm, exact.index) == (curve.fredholm, curve.index)
    assert exact.min_modulus <= curve.min_modulus * (1 + 1e-9)


@given(exp_linear_leaves(), exp_linear_leaves(), st.floats(1.1, 8.0))
@settings(max_examples=60, deadline=None)
def test_exact_toeplitz_index_matches_the_curve(f, g, p):
    a = sy.product(f, g)  # one exp-linear term
    assume(all(abs(s - p) > 0.02 * p for s in critical_exponents(a)))
    exact = toeplitz_index(a, p, min_modulus_tol=1e-7, route=EXACT)
    _curve_agrees(exact, toeplitz_index(a, p, min_modulus_tol=1e-7, route=SAMPLED))


@given(exp_linear_leaves(), exp_linear_leaves(), st.floats(1.1, 8.0))
@example(Const(1.0), PowerArc(2.2e-309 + 0.25j, CirclePoint(1.25)), 2.0)  # subnormal root term
@settings(max_examples=40, deadline=None)
def test_exact_matrix_index_matches_the_curve(a, b, p):
    from th_invert.matching import build_u_matrix_general

    u = build_u_matrix_general(a, b)
    exact = matrix_toeplitz_index(u, p, min_modulus_tol=1e-7, route=EXACT)
    curve = matrix_toeplitz_index(u, p, min_modulus_tol=1e-7, route=SAMPLED)
    assume(curve.min_modulus > 1e-3)  # away from the exponents where an arc degenerates
    _curve_agrees(exact, curve)


@given(exp_linear_leaves(), exp_linear_leaves(), st.floats(1.1, 8.0))
@example(Monomial(1), ExpArcs((0.0, 1.0), (0.5, 1.0), (0.0, 2.7e-297)), 2.0)  # subnormal lam
@settings(max_examples=40, deadline=None)
def test_exact_th_index_matches_the_curves(a, b, p):
    # the +-1 branch of the T+H symbol and the determinant of U1
    check = th_fredholm_check(a, b, p)
    assume(check.min_modulus > 1e-3)

    def index(route):
        try:
            return th_index(a, b, p, min_modulus_tol=1e-7, check=check, route=route)
        except NotFredholm:
            return "not Fredholm"

    assert index(EXACT) == index(SAMPLED)


def _curve_near_origin(kind, gap):
    """(jumps, stretch, arc kind) of a curve at p = 2 whose smallest modulus is gap."""
    if kind == "flip":
        # (s^2 + k s - 1)/(s^2 - 1) on the ray s = i t, t > 0, with k = -2i (1 - gap),
        # is (t^2 - 2 (1 - gap) t + 1)/(t^2 + 1), gap at t = 1
        k = -2j * (1.0 - gap)
        return {0.0: (1.0, 1.0, 0.0, k), math.pi: (1.0, 1.0, 0.0, 0.0)}, Const(1.0), _flip_arc
    # the segment from 1 to w passes the origin at distance |Im w|/3
    w = -2.0 + 3j * gap
    stretch = PiecewiseConst((0.0, math.pi), (1.0, w))
    if kind == "scalar":
        return {0.0: (w, 1.0), math.pi: (1.0, w)}, stretch, _scalar_arc
    one, step = np.eye(2, dtype=complex), np.diag([w, 1.0])
    return {0.0: (step, one), math.pi: (one, step)}, stretch, _matrix_arc


@pytest.mark.parametrize("kind", ["scalar", "matrix", "flip"])
def test_exact_index_decides_only_outside_the_grey_band(kind):
    # the tolerance is 1e-7: above it the closed form says Fredholm, at
    # most 1e-9 from the origin it says not Fredholm, in between the curve decides
    def exact(gap):
        jumps, stretch, arc_kind = _curve_near_origin(kind, gap)
        return exact_index(jumps, calculus._Stretch(stretch, False), arc_kind, 2.0, 1e-7)

    res = exact(1e-5)
    assert res.fredholm and res.index == 0 and 1e-7 < res.min_modulus <= 1e-5 * (1 + 1e-6)
    for gap in (3e-9, 3e-8, 1e-7):
        assert exact(gap) is None
    for gap in (1e-9, 1e-12):
        res = exact(gap)
        assert not res.fredholm and res.min_modulus <= 1e-9


def test_grey_band_toeplitz_index_falls_back_to_the_curve():
    a = PiecewiseConst((0.0, math.pi), (1.0, -2.0 + 9e-8j))
    assert toeplitz_index(a, 2.0, min_modulus_tol=1e-7, route=EXACT) is None
    res = toeplitz_index(a, 2.0)
    assert not res.fredholm and res.min_modulus <= 1e-7


def test_a_sampled_index_builds_one_curve(monkeypatch):
    from th_invert.matching import build_u_matrix, make_matching_pair

    # the closed form declines for sums, so each index reads its sampled curve
    builds = {}
    for name in ("toeplitz_symbol_curve", "matrix_symbol_curve", "th_pc_symbol_curve"):
        def spy(*args, _name=name, _build=getattr(calculus, name)):
            builds[_name] = builds.get(_name, 0) + 1
            return _build(*args)

        monkeypatch.setattr(calculus, name, spy)
    a = sy.add(Const(3.0), Monomial(1))
    pair = make_matching_pair(a, a * Monomial(-1))
    assert toeplitz_index(a, 3.0).index == 0
    assert builds == {"toeplitz_symbol_curve": 1}
    builds.clear()
    assert matrix_toeplitz_index(build_u_matrix(pair), 3.0).fredholm
    assert builds == {"matrix_symbol_curve": 1}
    builds.clear()
    calculus._u1_index.cache_clear()
    assert isinstance(th_index(pair.a, pair.b, 3.0, min_modulus_tol=1e-7, route=SAMPLED), int)
    assert builds == {"th_pc_symbol_curve": 1, "matrix_symbol_curve": 1}


# ---------------------------------------------------------------------------
# whole-curve assembly against per-segment assembly
# ---------------------------------------------------------------------------


def _reference_polyline(params, values, evaluator, max_points=400_000):
    """One segment refined on its own: midpoints until no step subtends more
    than 0.35 rad at the origin, for at most 48 rounds and while the segment
    has at most ``max_points`` points."""
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=complex)
    for _ in range(48):
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.abs(np.angle(values[1:] / values[:-1]))
        bad = dphi > 0.35
        if not bad.any() or len(params) > max_points:
            break
        mids = 0.5 * (params[:-1][bad] + params[1:][bad])
        mvals = evaluator(mids)
        idx = np.nonzero(bad)[0] + 1
        params = np.insert(params, idx, mids)
        values = np.insert(values, idx, mvals)
    return params, values


def _reference_curve(sides, cont_values, arc_values, p, max_points=400_000):
    """The closed curve assembled and refined segment by segment, with
    ``arc_values(angle, nu, h)`` called once per arc: the reference that the
    whole-curve assembly must match bit for bit."""
    us0 = np.tanh(_y_axis())
    weights0 = _base_weights(p)
    pieces, seg_ids, params = [], [], []

    def emit(par, vals):
        pieces.append(np.asarray(vals, dtype=complex))
        params.append(np.asarray(par, dtype=float))
        seg_ids.append(np.full(len(vals), len(seg_ids), dtype=int))

    def stretch(thetas):
        return cont_values(np.mod(thetas, TWO_PI))

    def arc_at(theta):
        def ev(us):
            with np.errstate(divide="ignore"):
                return arc_values(theta, *weight_functions(p, np.arctanh(us)))
        return ev

    angles = list(sides)
    if not angles:
        thetas = np.concatenate([np.linspace(0.0, TWO_PI, GRID_N, endpoint=False), [TWO_PI]])
        thetas, vals = _reference_polyline(thetas, stretch(thetas), stretch, max_points)
        emit(thetas[:-1], vals[:-1])
        start = vals[0]
    else:
        start = sides[angles[0]][1]
        k = len(angles)
        for j in range(k):
            a0, following = angles[j], angles[(j + 1) % k]
            a1 = following if following > a0 else following + TWO_PI
            npts = max(8, int(round(GRID_N * (a1 - a0) / TWO_PI)))
            thetas = np.linspace(a0, a1, npts + 2)[1:-1]
            vals = np.concatenate([[sides[a0][1]], stretch(thetas), [sides[following][0]]])
            emit(*_reference_polyline(np.concatenate([[a0], thetas, [a1]]), vals, stretch,
                                      max_points))
            emit(*_reference_polyline(us0, arc_values(following, *weights0), arc_at(following),
                                      max_points))
    values = np.concatenate(pieces + [[start]])
    return calculus.SymbolCurve(np.concatenate(seg_ids + [[seg_ids[-1][-1]]]),
                                np.concatenate(params + [[params[0][0]]]), values, True,
                                float(np.min(np.abs(values))))


def _scalar_reference_arcs(sides):
    def arc_values(theta, nus, _):
        lv, rv = sides[theta]
        return lv * (1.0 - nus) + rv * nus
    return arc_values


def _matrix_reference_arcs(matrices):
    def arc_values(theta, nus, _):
        ml, mr = matrices[theta]
        m = (1.0 - nus) * ml[..., None] + nus * mr[..., None]
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return arc_values


def _flip_reference_arcs(table):
    def arc_values(theta, nu, h):
        al, ar, bl, br = table[theta]
        sign = 1.0 if theta == 0.0 else -1.0
        return ar * nu + al * (1.0 - nu) + sign * (br - bl) / 2.0 * h
    return arc_values


def _assert_same_curve(curve, ref):
    for name in ("seg_ids", "params", "values"):
        got, want = getattr(curve, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert curve.min_modulus == ref.min_modulus


def _refined(curve, angles):
    """Whether refinement inserted points into the base grid of ``angles``."""
    return len(curve) > len(calculus._base_grid(tuple(angles)).params) + 1


def _evaluate(sym):
    return lambda thetas: sy.evaluate_array(sym, thetas)


@pytest.mark.parametrize("kind", ["scalar", "matrix", "flip"])
@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6])
def test_whole_curve_refinement_inserts_what_each_segment_would(kind, gap):
    jumps, stretch, _ = _curve_near_origin(kind, gap)
    if kind == "flip":
        # _curve_near_origin's flip curve runs along the positive axis to gap
        # and back, without turning; with k = -2i + 2 gap it is
        # ((t - 1)^2 - 2i gap t)/(t^2 + 1) on s = i t, which turns below the
        # origin at distance gap
        jumps = {0.0: (1.0, 1.0, 0.0, -2j + 2 * gap), math.pi: (1.0, 1.0, 0.0, 0.0)}
    if kind == "matrix":
        sides = {th: (calculus._det(l), calculus._det(r)) for th, (l, r) in jumps.items()}
        arcs, reference = calculus._matrix_arc_values(jumps), _matrix_reference_arcs(jumps)
    elif kind == "flip":
        sides = {th: entry[:2] for th, entry in jumps.items()}
        arcs, reference = calculus._flip_arc_values(jumps), _flip_reference_arcs(jumps)
    else:
        sides = jumps
        arcs, reference = calculus._scalar_arc_values(jumps), _scalar_reference_arcs(jumps)
    curve = calculus._assemble_closed_curve(
        sides, calculus._Stretch(stretch, False), arcs, 2.0)
    ref = _reference_curve(sides, _evaluate(stretch), reference, 2.0)
    assert _refined(ref, sides)
    _assert_same_curve(curve, ref)
    assert curve.min_modulus < 10 * gap


@pytest.mark.parametrize("a, p", [
    # test_close_origin_approach_resolved_adaptively's chords, 1e-4 from the origin
    (PiecewiseConst((0.0, math.pi), (1.0 - 1e-4j, -1.0 - 1e-4j)), 2.0),
    # a chord through the origin: refinement runs into the round cap
    (PiecewiseConst((0.0, math.pi), (1.0, -1.0)), 2.0),
    # no jumps: one stretch over the whole circle, 1e-3 from the origin at t = -1
    (sy.add(Monomial(1), Const(1.0 - 1e-3)), 1.7),
])
def test_refined_toeplitz_curves_match_per_segment_refinement(a, p):
    sides = calculus._jump_table(a)
    ref = _reference_curve(sides, _evaluate(a), _scalar_reference_arcs(sides), p)
    assert _refined(ref, sides)
    _assert_same_curve(toeplitz_symbol_curve(a, p), ref)


def test_a_curve_through_the_origin_stops_at_the_round_cap():
    curve = toeplitz_symbol_curve(PiecewiseConst((0.0, math.pi), (1.0, -1.0)), 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.abs(np.angle(curve.values[1:] / curve.values[:-1]))
    # after 48 rounds a step within one segment still turns by more than 0.35 rad
    assert np.max(steps[curve.seg_ids[1:] == curve.seg_ids[:-1]]) > 0.35


def test_the_size_cap_holds_per_segment(monkeypatch):
    # a cap of 270 points stops each arc through the origin (259 points at
    # first) once it is past it, while the stretches, longer from the start,
    # have nothing to refine: the curve is the one each segment would give
    a = PiecewiseConst((0.0, math.pi), (1.0, -1.0))
    sides = calculus._jump_table(a)
    uncapped = toeplitz_symbol_curve(a, 2.0)
    monkeypatch.setattr(calculus, "REFINE_MAX_POINTS", 270)
    curve = toeplitz_symbol_curve(a, 2.0)
    _assert_same_curve(curve, _reference_curve(sides, _evaluate(a), _scalar_reference_arcs(sides),
                                               2.0, max_points=270))
    arc_sizes = np.bincount(curve.seg_ids)[1::2]
    assert np.all(arc_sizes > 270) and np.all(arc_sizes < np.bincount(uncapped.seg_ids)[1::2])


@st.composite
def steps_near_the_origin(draw):
    """A piecewise-constant symbol of 2 to 4 values, two cyclically
    consecutive ones nearly opposite, so that their chord passes near 0."""
    n = draw(st.integers(2, 4))
    breaks = sorted(draw(st.lists(st.floats(0.0, TWO_PI - 0.05), min_size=n, max_size=n,
                                  unique=True)))
    assume(all(b - a > 0.05 for a, b in zip(breaks, breaks[1:])))
    values = [draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
              for _ in breaks]
    j = draw(st.integers(0, n - 1))
    values[(j + 1) % n] = (-values[j] * draw(st.floats(0.5, 2.0))
                           * cmath.exp(1j * draw(st.floats(-1e-3, 1e-3))))
    return PiecewiseConst(tuple(breaks), tuple(values))


@given(steps_near_the_origin(), st.one_of(st.just(2.0), st.floats(1.1, 8.0)))
@settings(max_examples=40, deadline=None)
def test_random_refined_curves_match_per_segment_refinement(a, p):
    from th_invert.matching import build_u_matrix_general

    sides = calculus._jump_table(a)
    _assert_same_curve(toeplitz_symbol_curve(a, p),
                       _reference_curve(sides, _evaluate(a), _scalar_reference_arcs(sides), p))
    u = build_u_matrix_general(a, Const(0.5))
    matrices = u.one_sided()
    ref = _reference_curve({th: (calculus._det(l), calculus._det(r))
                            for th, (l, r) in matrices.items()},
                           calculus._Stretch(u.a, True).values,
                           _matrix_reference_arcs(matrices), p)
    _assert_same_curve(calculus.matrix_symbol_curve(u, p), ref)


def test_both_signs_share_the_stretch_values():
    from th_invert.matching import make_matching_pair

    # the flip curve's g does not depend on the sign of b: the second sign
    # reads its stretch values; det U1 = (a g^-1)/(~a ~g^-1) is read once,
    # since the second sign takes the first one's index of T(U1)
    a = sy.add(Const(3.0), Monomial(1))
    pair = make_matching_pair(a, a * Monomial(-1))
    calculus._base_stretch.cache_clear()
    calculus._u1_index.cache_clear()
    for b in (pair.b, -pair.b):
        assert isinstance(th_index(pair.a, b, 3.0, min_modulus_tol=1e-7, route=SAMPLED), int)
    info = calculus._base_stretch.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _outcome(index, *args, **kwargs):
    """index(*args, **kwargs), or the type of its refusal."""
    try:
        return index(*args, **kwargs)
    except (NotFredholm, CurveThroughOrigin, DegenerateArc, NonIntegerWinding) as exc:
        return type(exc)


@given(st.integers(0, 2**32 - 1), st.floats(1.1, 8.0))
@settings(max_examples=25, deadline=None)
def test_u1_of_minus_b_is_u1_of_b_conjugated_by_diag_1_minus_1(seed, p):
    # U1(a g^-1, -b1 g^-1) = D U1(a g^-1, b1 g^-1) D, D = diag(1, -1), bit for
    # bit: the premise on which both signs of b share one index of T(U1)
    from test_pinned_outputs import curve_digest

    pair = random_matching_pair(np.random.default_rng(seed))
    plus, minus = (calculus._u1_symbol.__wrapped__(pair.a, b) for b in (pair.b, -pair.b))
    assert plus.jump_angles() == minus.jump_angles()
    diagonal = np.array([[True, False], [False, True]])
    for sides_plus, sides_minus in zip(plus.one_sided().values(), minus.one_sided().values()):
        for u, v in zip(sides_plus, sides_minus):
            assert _bits(u[diagonal]) == _bits(v[diagonal])
            # exact negations; a zero entry may keep its sign
            assert np.array_equal(-u[~diagonal], v[~diagonal])
    curves = [_outcome(calculus.matrix_symbol_curve, u, p) for u in (plus, minus)]
    if isinstance(curves[0], type):
        assert curves[0] is curves[1]
    else:
        assert curve_digest(curves[0]) == curve_digest(curves[1])
    for route in (AUTO, EXACT, SAMPLED):
        assert _outcome(matrix_toeplitz_index, plus, p, min_modulus_tol=1e-7, route=route) \
            == _outcome(matrix_toeplitz_index, minus, p, min_modulus_tol=1e-7, route=route)


def test_a_base_grid_takes_one_stretch_call_and_one_arc_call(monkeypatch):
    # four jumps, eight segments, no refinement at p = 3
    a = PiecewiseConst((0.0, 1.0, 2.0, 4.0), (1.0, 1j, -1.0, -1j))
    sides = calculus._jump_table(a)
    arcs, calls = calculus._scalar_arc_values(sides), []

    def counted_arcs(ids, nu, h):
        calls.append("arcs")
        return arcs(ids, nu, h)

    def counted_stretch(sym, thetas):
        calls.append("stretch")
        return sy.evaluate_array(sym, thetas)

    calculus._base_stretch.cache_clear()
    monkeypatch.setattr(calculus, "evaluate_array", counted_stretch)
    curve = calculus._assemble_closed_curve(sides, calculus._Stretch(a, False), counted_arcs, 3.0)
    assert calls == ["stretch", "arcs"]
    assert not _refined(curve, sides) and curve.seg_ids[-1] == 7
    _assert_same_curve(curve, _reference_curve(sides, _evaluate(a),
                                               _scalar_reference_arcs(sides), 3.0))
