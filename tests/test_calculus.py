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
    _matrix_index,
    _scalar_arc,
    _th_index,
    _toeplitz_index,
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
        res = _toeplitz_index(sym, s, 1e-7, EXACT)
        assert res is not None and res.fredholm, s
        assert res.index == _toeplitz_index(sym, s, 1e-7, SAMPLED).index, s
        return res.index

    for a, b in zip(edges, edges[1:]):  # constant between critical exponents
        assert index(a + (b - a) / 3) == index(a + 2 * (b - a) / 3)
    for s in distinct:  # one step down per jump that degenerates at s
        shared = sum(1 for x in crit if abs(x - s) <= 1e-9 * s)
        assert index(s * (1 - 1e-3)) - index(s * (1 + 1e-3)) == shared
        for near in (s * (1 - 1e-12), s * (1 + 1e-12)):  # both routes see the degeneracy
            assert not _toeplitz_index(sym, near, 1e-7, EXACT).fredholm
            assert not _toeplitz_index(sym, near, 1e-7, SAMPLED).fredholm


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
        res = _toeplitz_index(a, 7.0, 1e-7, route)
        assert res is None or (res.fredholm, res.index) in ((True, -1), (False, None))
    assert toeplitz_index(a, 7.0).index == -1


def test_a_power_arc_anchored_next_to_one_is_refused_or_indexed():
    # a jump at 1e-11 whose arc passes through the origin at p = 2
    a = PowerArc(0.5, CirclePoint(1e-11))
    for b in (Const(1.0), Const(-1.0)):
        for route in (AUTO, EXACT, SAMPLED):
            try:
                res = _th_index(a, b, 2.0, 1e-7, None, route)
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
    exact = _toeplitz_index(a, p, 1e-7, EXACT)
    _curve_agrees(exact, _toeplitz_index(a, p, 1e-7, SAMPLED))


@given(exp_linear_leaves(), exp_linear_leaves(), st.floats(1.1, 8.0))
@example(Const(1.0), PowerArc(2.2e-309 + 0.25j, CirclePoint(1.25)), 2.0)  # subnormal root term
@settings(max_examples=40, deadline=None)
def test_exact_matrix_index_matches_the_curve(a, b, p):
    from th_invert.matching import build_u_matrix_general

    u = build_u_matrix_general(a, b)
    exact = _matrix_index(u, p, 1e-7, EXACT)
    curve = _matrix_index(u, p, 1e-7, SAMPLED)
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
            return _th_index(a, b, p, 1e-7, check, route)
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
        return exact_index(jumps, sy._exp_pieces(stretch), arc_kind, 2.0, 1e-7)

    res = exact(1e-5)
    assert res.fredholm and res.index == 0 and 1e-7 < res.min_modulus <= 1e-5 * (1 + 1e-6)
    for gap in (3e-9, 3e-8, 1e-7):
        assert exact(gap) is None
    for gap in (1e-9, 1e-12):
        res = exact(gap)
        assert not res.fredholm and res.min_modulus <= 1e-9


def test_grey_band_toeplitz_index_falls_back_to_the_curve():
    a = PiecewiseConst((0.0, math.pi), (1.0, -2.0 + 9e-8j))
    assert _toeplitz_index(a, 2.0, 1e-7, EXACT) is None
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
    assert isinstance(_th_index(pair.a, pair.b, 3.0, 1e-7, None, SAMPLED), int)
    assert builds == {"th_pc_symbol_curve": 1, "matrix_symbol_curve": 1}
