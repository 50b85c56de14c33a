import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from th_invert import symbols as sy
from th_invert.errors import DivisionBySmallModulus, NotInvertible, PreconditionViolation
from th_invert.symbols import (
    LEFT,
    RIGHT,
    CirclePoint,
    Const,
    ExpArcs,
    Monomial,
    PCSymbol,
    PiecewiseConst,
    PowerArc,
    POINT_ONE,
    evaluate,
    extend_half_circle,
    fourier_coefficient,
    jump_set,
)

from conftest import exp_linear_leaves, max_grid_deviation, tree_evaluate_array

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_power_arc_one_sided_limits():
    phi = PowerArc(0.5)
    assert evaluate(phi, POINT_ONE, RIGHT) == pytest.approx(-1j)
    assert evaluate(phi, POINT_ONE, LEFT) == pytest.approx(1j)


def test_monomial_is_continuous():
    t = CirclePoint(math.pi / 2)
    for side in (LEFT, RIGHT):
        assert evaluate(Monomial(3), t, side) == pytest.approx(cmath.exp(3j * math.pi / 2))


def test_quarter_twist_limits(quarter_twist):
    # const * power arc with beta = 1/4: value 1 forward of the jump, i behind it
    assert evaluate(quarter_twist, POINT_ONE, RIGHT) == pytest.approx(1.0)
    assert evaluate(quarter_twist, POINT_ONE, LEFT) == pytest.approx(1j)


def test_power_arc_explicit_form():
    # phi_beta(e^{i z}) = exp(-i beta pi) exp(i beta z) on (0, 2 pi)
    beta = 0.37
    phi = PowerArc(beta)
    zs = np.linspace(1e-3, TWO_PI - 1e-3, 400)
    vals = sy.evaluate_array(phi, zs)
    expected = np.exp(-1j * beta * math.pi) * np.exp(1j * beta * zs)
    assert np.max(np.abs(vals - expected)) < 1e-12


def test_evaluate_rejects_bad_side(quarter_twist):
    with pytest.raises(PreconditionViolation):
        evaluate(quarter_twist, POINT_ONE, "up")


def test_inverse_small_modulus_raises():
    small = sy.add(Monomial(1), Const(-1.0))  # vanishes at t = 1
    with pytest.raises(DivisionBySmallModulus):
        evaluate(sy.Inverse(small), POINT_ONE, RIGHT)


# ---------------------------------------------------------------------------
# tilde
# ---------------------------------------------------------------------------


def test_tilde_monomial():
    assert sy.tilde(Monomial(5)) == Monomial(-5)


def test_tilde_involution_on_grid(quarter_twist):
    s = sy.product(quarter_twist, sy.add(Monomial(2), Const(3.0)))
    assert max_grid_deviation(sy.tilde(sy.tilde(s)), s) < 1e-12


def test_tilde_reflection_law(quarter_twist):
    angles = np.linspace(0, TWO_PI, 64, endpoint=False)
    ts = sy.tilde(quarter_twist)
    for theta in angles:
        lhs = evaluate(ts, CirclePoint(theta), RIGHT)
        rhs = evaluate(quarter_twist, CirclePoint(-theta), LEFT)
        assert abs(lhs - rhs) < 1e-12


def test_quarter_twist_times_tilde_is_constant(quarter_twist):
    # pointwise product oracle: a(t) * a(1/t) = exp(i zeta/4) exp(i (2pi-zeta)/4) = i
    prod = quarter_twist * sy.tilde(quarter_twist)
    assert max_grid_deviation(prod, Const(1j)) < 1e-12


@st.composite
def symbol_trees(draw, depth=2):
    choice = draw(st.integers(0, 5 if depth > 0 else 3))
    if choice == 0:
        re = draw(st.floats(-2, 2))
        im = draw(st.floats(-2, 2))
        return Const(complex(re, im) + (1.5 if abs(complex(re, im)) < 0.3 else 0))
    if choice == 1:
        return Monomial(draw(st.integers(-3, 3)))
    if choice == 2:
        beta = draw(st.sampled_from([0.25, 0.5, -0.25]))
        anchor = draw(st.floats(0, TWO_PI - 1e-6))
        return PowerArc(beta, CirclePoint(anchor))
    if choice == 3:
        b1 = draw(st.floats(0.1, 2.9))
        b2 = draw(st.floats(3.2, 6.1))
        v1 = 1.0 + 0.5j * draw(st.floats(-1, 1))
        v2 = -1.0 + 0.5 * draw(st.floats(-1, 1))
        return PiecewiseConst((b1, b2), (v1, v2))
    if choice == 4:
        return sy.product(draw(symbol_trees(depth - 1)), draw(symbol_trees(depth - 1)))
    return sy.add(draw(symbol_trees(depth - 1)), draw(symbol_trees(depth - 1)))


@given(symbol_trees())
@settings(max_examples=40, deadline=None)
def test_tilde_involution_random_trees(s):
    angles = np.linspace(0.1, TWO_PI - 0.1, 37)
    tts = sy.tilde(sy.tilde(s))
    for theta in angles:
        for side in (LEFT, RIGHT):
            assert abs(evaluate(tts, CirclePoint(theta), side)
                       - evaluate(s, CirclePoint(theta), side)) < 1e-10


@given(symbol_trees(), symbol_trees(), st.floats(0, TWO_PI - 1e-9),
       st.sampled_from([LEFT, RIGHT]))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_algebra_homomorphism(s1, s2, theta, side):
    t = CirclePoint(theta)
    v1 = evaluate(s1, t, side)
    v2 = evaluate(s2, t, side)
    scale = max(1.0, abs(v1), abs(v2), abs(v1 * v2))
    assert abs(evaluate(sy.product(s1, s2), t, side) - v1 * v2) < 1e-11 * scale
    assert abs(evaluate(sy.add(s1, s2), t, side) - (v1 + v2)) < 1e-11 * scale
    assert abs(evaluate(sy.conjugate(s1), t, side) - v1.conjugate()) < 1e-11 * scale


# ---------------------------------------------------------------------------
# jump sets
# ---------------------------------------------------------------------------


def test_monomial_has_no_jumps():
    assert jump_set(Monomial(4)) == []


def test_quarter_twist_jump(quarter_twist):
    jumps = jump_set(quarter_twist)
    assert len(jumps) == 1
    pt, left, right = jumps[0]
    assert pt == POINT_ONE
    assert left == pytest.approx(1j)
    assert right == pytest.approx(1.0)


def test_right_half_sign_jumps():
    from th_invert.catalog import right_half_sign

    jumps = jump_set(right_half_sign())
    angles = [pt.angle for pt, _, _ in jumps]
    assert angles == pytest.approx([math.pi / 2, 3 * math.pi / 2])
    for _, left, right in jumps:
        assert {round(left.real), round(right.real)} == {-1, 1}


@pytest.mark.parametrize("brk, angle", [(5e-13, 0.0), (1e-12, 1e-12), (2e-12, 2e-12),
                                        (1e-9, 1e-9)])
def test_jump_set_and_evaluation_share_the_snap(brk, angle):
    # a break less than ANGLE_SNAP from the probe at 0 is taken at 0, where
    # evaluation snaps onto it; one ANGLE_SNAP or more away it is a jump of its own
    a = PiecewiseConst((brk, 1.0), (1.0, cmath.exp(1j)))
    jumps = jump_set(a)
    assert [pt.angle for pt, _, _ in jumps] == [angle, 1.0]
    assert (jumps[0][1], jumps[0][2]) == (cmath.exp(1j), 1.0)


def test_reflected_jump_detected_after_tilde():
    # reflection round-off must not hide the mirrored jump
    pc = PiecewiseConst((1.2643976020450467, 2.7875784327361130), (2.0, 1.0))
    reflected = sy.tilde(pc)
    angles = [pt.angle for pt, _, _ in jump_set(reflected)]
    assert len(angles) == 2
    assert min(abs(a - (TWO_PI - 1.2643976020450467)) for a in angles) < 1e-9


# ---------------------------------------------------------------------------
# half-circle extension
# ---------------------------------------------------------------------------


def test_extend_const_one():
    assert extend_half_circle(Const(1.0)) == Const(1.0)


def test_extend_monomial_square():
    g = extend_half_circle(Monomial(2))
    prod = g * sy.tilde(g)
    assert max_grid_deviation(prod, Const(1.0)) < 1e-12


def test_extend_smooth_interpolant_is_matching():
    # g0(1) = 1, g0(-1) = -1, smooth in between: exp(i*theta*(pi - theta)/pi ... )
    # use a trigonometric polynomial g0 = exp of i*sin-free combination
    from th_invert.matching import is_matching_function

    g0 = sy.add(Const(0.0), Monomial(1))  # t itself: t(1) = 1, t(-1) = -1
    g = extend_half_circle(g0)
    prod = g * sy.tilde(g)
    assert max_grid_deviation(prod, Const(1.0)) < 1e-12
    assert is_matching_function(g)


def test_extend_rejects_bad_edge_value():
    with pytest.raises(PreconditionViolation):
        extend_half_circle(Const(1j))


def test_extend_rejects_noninvertible():
    with pytest.raises((NotInvertible, PreconditionViolation)):
        extend_half_circle(sy.add(Monomial(1), Const(-1.0)))


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


def test_monomial_coefficients():
    for n in range(-8, 9):
        c = fourier_coefficient(Monomial(5), n)
        assert c.provenance == "analytic"
        assert c.value == pytest.approx(1.0 if n == 5 else 0.0)


def test_power_arc_coefficient_vs_quadrature():
    # oracle: adaptive quadrature of exp(i (z - pi)/4) over (0, 2 pi)
    phi = PowerArc(0.25)
    exact = fourier_coefficient(phi, 0, method="analytic")
    quad = fourier_coefficient(phi, 0, method="quadrature")
    assert exact.provenance == "analytic"
    assert quad.provenance == "quadrature"
    assert quad.error_bound is not None and quad.error_bound > 0
    assert abs(exact.value - quad.value) < 1e-10


def test_right_half_sign_mean_vanishes():
    # +1 on half the circle, -1 on the other half: integral zero
    from th_invert.catalog import right_half_sign

    c = fourier_coefficient(right_half_sign(), 0)
    assert abs(c.value) < 1e-14


def test_quarter_twist_coefficients_closed_form(quarter_twist):
    # direct integral: a_n = (i - 1) / (2 pi i (1/4 - n))
    for n in (-3, 0, 1, 7):
        expected = (1j - 1) / (2j * math.pi * (0.25 - n))
        got = fourier_coefficient(quarter_twist, n)
        assert got.provenance == "analytic"
        assert got.value == pytest.approx(expected, abs=1e-14)


def test_trig_poly_quadrature_matches_analytic():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    ks = [-7, -2, 0, 3, 6]
    poly = sy.add(*(Const(c) * Monomial(k) for c, k in zip(coeffs, ks)))
    for n in range(-32, 33):
        an = fourier_coefficient(poly, n, method="analytic").value
        qn = fourier_coefficient(poly, n, method="quadrature").value
        assert abs(an - qn) < 1e-12


def test_exp_arcs_limits_at_the_break_at_zero():
    # breaks[0] = 0: the last arc runs up to 2*pi, where it meets the first
    arcs = ExpArcs((0.0, 2.0), (1.5j, 0.5 - 1j), (0.3 + 0.2j, -1.25 + 0.1j))
    start = 1.5j
    end = (0.5 - 1j) * cmath.exp(1j * (-1.25 + 0.1j) * TWO_PI)
    for theta in (0.0, -1e-13, 1e-13):  # snapped onto the break at 0 from either side
        assert evaluate(arcs, CirclePoint(theta), RIGHT) == start
        assert evaluate(arcs, CirclePoint(theta), LEFT) == end
    at_two = CirclePoint(2.0)
    assert evaluate(arcs, at_two, LEFT) == 1.5j * cmath.exp(1j * (0.3 + 0.2j) * 2.0)
    assert evaluate(arcs, at_two, RIGHT) == (0.5 - 1j) * cmath.exp(1j * (-1.25 + 0.1j) * 2.0)
    assert [pt.angle for pt, _, _ in jump_set(arcs)] == [0.0, 2.0]
    reflected = sy.tilde(arcs)
    assert evaluate(reflected, POINT_ONE, RIGHT) == pytest.approx(end, rel=1e-14)
    assert evaluate(reflected, POINT_ONE, LEFT) == pytest.approx(start, rel=1e-14)


_SUM = sy.Sum((Const(3.0), Monomial(1)))
EVERY_NODE_TYPE = [
    Const(2.0 - 1j),
    Monomial(-2),
    PowerArc(0.3 + 0.1j, CirclePoint(1.0)),
    PiecewiseConst((0.5, 2.5), (1.0, -1j)),
    ExpArcs((0.0, 2.0), (1.5j, 0.5 - 1j), (0.3 + 0.2j, -1.25 + 0.1j)),
    sy.HalfCircleExtension(PowerArc(0.25, CirclePoint(1.0))),
    _SUM,
    sy.Product((PowerArc(0.25), Monomial(1))),
    sy.Inverse(_SUM),
]


def test_dispatcher_cases_cover_every_node_type():
    assert {type(sym) for sym in EVERY_NODE_TYPE} == set(PCSymbol.__subclasses__())


@pytest.mark.parametrize("node", EVERY_NODE_TYPE, ids=lambda sym: type(sym).__name__)
def test_every_node_type_passes_every_dispatcher(node):
    thetas = np.array([0.3, 1.7, 4.4])
    for sym in (node, sy.tilde(node), sy.conjugate(node), sy.inverse(node)):
        values = sy.evaluate_array(sym, thetas)
        for theta, value in zip(thetas, values):
            assert evaluate(sym, CirclePoint(theta), RIGHT) == pytest.approx(value, rel=1e-12)
        jump_set(sym)
        sy._exp_terms(sym)


@st.composite
def exp_linear_symbols(draw):
    """Products of exp-linear leaves under a raw inverse node and the
    tilde, inverse and conjugate rewrites."""
    sym = sy.Product(tuple(draw(st.lists(exp_linear_leaves(), min_size=2, max_size=3))))
    wraps = [sy.Inverse, sy.tilde, sy.inverse, sy.conjugate]
    for wrap in draw(st.lists(st.sampled_from(wraps), max_size=2)):
        sym = wrap(sym)
    return sym


def _piece_values(pieces, thetas):
    j = np.searchsorted(pieces.breaks, thetas, side="right") - 1
    return pieces.c[j] * np.exp(1j * pieces.lam[j] * thetas)


def _off_jump_angles(sym, rng, count=64):
    thetas = rng.uniform(0.0, TWO_PI, count)
    jumps = np.array(sorted(sy._breaks(sym) | {math.pi, TWO_PI}))
    gap = np.min(np.abs(thetas[:, None] - jumps[None, :]), axis=1)
    return thetas[gap > 1e-6]


@given(exp_linear_symbols(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_exp_pieces_evaluate_like_the_tree(sym, seed):
    pieces = sy._exp_pieces(sym)
    assert pieces is not None
    thetas = _off_jump_angles(sym, np.random.default_rng(seed))
    expected = tree_evaluate_array(sym, thetas)
    got = _piece_values(pieces, thetas)
    assert np.all(np.abs(got - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


@st.composite
def symbol_algebra(draw, depth=2):
    """Sums, products, tildes, conjugates and inverses of exp-linear leaves;
    inverses and half-circle extensions of sums have no terms and are
    evaluated node by node."""
    kinds = ["leaf", "sum", "product", "tilde", "conjugate", "inverse", "inverse of a sum",
             "extension of a sum"]
    kind = draw(st.sampled_from(kinds if depth else ["leaf"]))
    if kind == "leaf":
        return draw(exp_linear_leaves())
    if kind in ("sum", "product", "inverse of a sum", "extension of a sum"):
        parts = draw(st.lists(symbol_algebra(depth - 1), min_size=2, max_size=3))
        wrap = {"sum": sy.add, "product": sy.product,
                "inverse of a sum": lambda *p: sy.inverse(sy.add(*p)),
                "extension of a sum": lambda *p: sy.HalfCircleExtension(sy.add(*p))}[kind]
        return wrap(*parts)
    wrap = {"tilde": sy.tilde, "conjugate": sy.conjugate, "inverse": sy.inverse}[kind]
    return wrap(draw(symbol_algebra(depth - 1)))


@given(symbol_algebra(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_evaluate_array_matches_the_tree_walk(sym, seed):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, 64)
    breaks = np.array(sorted(sy._breaks(sym) | {TWO_PI}))
    thetas = thetas[np.min(np.abs(thetas[:, None] - breaks[None, :]), axis=1) >= 1e-9]
    try:
        expected = tree_evaluate_array(sym, thetas)
    except DivisionBySmallModulus:
        with pytest.raises(DivisionBySmallModulus):
            sy.evaluate_array(sym, thetas)
        return
    got = sy.evaluate_array(sym, thetas)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@given(symbol_algebra())
@settings(max_examples=60, deadline=None)
def test_breaks_are_the_breaks_of_the_terms(sym):
    # so jump tables probe every angle where the terms, and evaluation, can jump
    try:
        terms = sy._exp_terms(sym)
    except DivisionBySmallModulus:
        terms = None
    assume(terms is not None)
    assert sy._breaks(sym) == {b for p in terms for b in p.breaks[:-1].tolist() if b < TWO_PI}


def _tree_sides(sym, angle):
    try:
        return evaluate(sym, angle, LEFT), evaluate(sym, angle, RIGHT)
    except DivisionBySmallModulus as exc:
        return type(exc)


@given(symbol_algebra(), st.floats(0.0, TWO_PI, exclude_max=True))
@example(PiecewiseConst((1.0, 1.0 + 5e-13), (1.0, 2j)), 3.0)
@example(sy.product(Monomial(2), PiecewiseConst((1.0, 1.0 + 5e-13), (1.0, 2j))), 3.0)
@example(sy.add(PowerArc(0.3, CirclePoint(2.0)), PowerArc(0.5j, CirclePoint(2.0 + 5e-13))), 1.0)
@example(sy.product(Monomial(1), PowerArc(0.4 + 0.1j, CirclePoint(TWO_PI - 5e-13))), 1.0)
@settings(max_examples=60, deadline=None)
def test_evaluate_sides_reads_the_table_and_the_tree(sym, generic):
    # At a table angle, 2*pi - theta of a break, 5e-13 on either side of a
    # break and a generic angle, evaluate_sides gives exactly the tree's two
    # one-sided values, taken at the table angle less than ANGLE_SNAP away if
    # there is one: the snap of the table, where the tree evaluates a factor
    # such as t^n at the angle as given.  Two breaks 5e-13 apart are one
    # table entry, and 5e-13 beyond the dropped one the tree takes both sides.
    try:
        table = sy._one_sided_at_breaks(sym)
    except DivisionBySmallModulus:
        assume(False)
    breaks = sy._breaks(sym)
    angles = ([x for x, _, _ in table] + [TWO_PI - b for b in breaks]
              + [b + d for b in breaks for d in (-5e-13, 5e-13)] + [generic])
    for theta in angles:
        t = CirclePoint(theta)
        snapped = next((x for x, _, _ in table
                        if abs(math.remainder(x - t.angle, TWO_PI)) < sy.ANGLE_SNAP), t.angle)
        expected = _tree_sides(sym, snapped)
        if expected is DivisionBySmallModulus:
            with pytest.raises(DivisionBySmallModulus):
                sy.evaluate_sides(sym, t)
        else:
            assert sy.evaluate_sides(sym, t) == expected


def test_evaluate_array_raises_where_an_inverse_term_comes_close_to_zero():
    # the term of the inverse is refused, so the tree decides at the angles asked for
    sym = sy.Inverse(PiecewiseConst((0.0, math.pi), (1.0, 1e-12)))
    with pytest.raises(DivisionBySmallModulus):
        sy._exp_terms(sym)
    with pytest.raises(DivisionBySmallModulus):
        sy.evaluate_array(sym, np.array([0.5, 4.0]))
    assert np.array_equal(sy.evaluate_array(sym, np.array([0.5, 2.0])), [1.0, 1.0])


def test_exp_pieces_with_a_break_next_to_zero():
    # reflected, the break at 1e-15 rounds onto 2*pi and leaves an arc of one ulp
    g = sy.HalfCircleExtension(PiecewiseConst((1e-15,), (2.0,)))  # 2 above, 1/2 below
    assert fourier_coefficient(g, 0).value == pytest.approx(1.25, abs=1e-14)


@given(exp_linear_symbols())
@settings(max_examples=30, deadline=None)
def test_exp_pieces_coefficients_match_quadrature(sym):
    # |n| = 60 takes the oscillatory-weight branch of the quadrature
    ns = (0, 7, -7, 60, -60)
    pieces = sy._piece_coefficients(sy._exp_pieces(sym), ns)
    for n, from_pieces in zip(ns, pieces):
        closed = fourier_coefficient(sym, n)
        quad = fourier_coefficient(sym, n, method="quadrature").value
        assert closed.provenance == "analytic"
        assert abs(closed.value - quad) < 1e-11
        assert abs(from_pieces - quad) < 1e-11


def test_exp_pieces_near_resonance():
    # beta1 + beta2 = 1 + 1e-9 on the arc between the anchors: (lam - n) L ~ 1e-9 at n = 1
    sym = sy.Product((PowerArc(0.3 + 1e-9, CirclePoint(1.0)), PowerArc(0.7, CirclePoint(4.0))))
    closed = fourier_coefficient(sym, 1)
    assert closed.provenance == "analytic"
    pieces = sy._exp_pieces(sym)  # served by the series branch of the piece path
    assert np.min(np.abs((pieces.lam - 1) * np.diff(pieces.breaks))) < 1e-4
    assert closed.value == sy._piece_coefficients(pieces, [1])[0]
    quad = fourier_coefficient(sym, 1, method="quadrature")
    assert abs(closed.value - quad.value) < 1e-12


def test_inverse_of_conjugated_extension_terminates():
    h = sy.HalfCircleExtension(PowerArc(0.25, CirclePoint(1.0)))
    sym = sy.inverse(sy.conjugate(h))
    thetas = np.array([0.5, 2.0, 4.0])
    expected = 1.0 / np.conj(sy.evaluate_array(h, thetas))
    assert np.max(np.abs(sy.evaluate_array(sym, thetas) - expected)) < 1e-14
    assert sy.inverse(sym) == sy.conjugate(h)


@pytest.mark.parametrize("g0, rel", [
    (PowerArc(0.25 + 0.1j, CirclePoint(1.0)), 0.0),
    # the rewrite reorders the factors, which rounds differently
    (sy.Product((PiecewiseConst((0.5, 2.5), (2.0 - 1j, 1j)), PowerArc(0.3, CirclePoint(2.0)),
                 Monomial(1))), 1e-15),
], ids=["leaf", "product"])
def test_conjugated_extension_takes_the_conjugate_one_sided_values(g0, rel):
    h = sy.HalfCircleExtension(g0)
    conj = sy.conjugate(h)
    assert conj == sy.HalfCircleExtension(sy.conjugate(g0))
    for angle in sorted(sy._breaks(h) | {0.0, math.pi, 0.3, 1.7, 4.4, 5.9}):
        want = [v.conjugate() for v in sy.evaluate_sides(h, angle)]
        tree = [evaluate(conj, angle, side) for side in (LEFT, RIGHT)]
        for got in (sy.evaluate_sides(conj, angle), tree):
            for g, w in zip(got, want):
                assert abs(g - w) <= rel * abs(w)


def test_exp_pieces_inverse_rejects_small_modulus():
    with pytest.raises(DivisionBySmallModulus):
        sy._exp_pieces(sy.Inverse(PiecewiseConst((0.0, math.pi), (1.0, 1e-12))))


def test_inverse_of_sum_keeps_quadrature():
    sym = sy.inverse(sy.add(Const(3.0), Monomial(1)))
    assert fourier_coefficient(sym, 2).provenance == "quadrature"
    with pytest.raises(PreconditionViolation):
        fourier_coefficient(sym, 2, method="analytic")


def test_coefficient_range_matches_single_coefficients():
    arcs = sy.product(PowerArc(0.3 + 0.1j, CirclePoint(1.0)),
                      sy.HalfCircleExtension(PowerArc(0.25, CirclePoint(2.0))))
    poly = sy.add(Const(2.0) * Monomial(-3), Const(1j) * Monomial(2), Const(0.5))
    lo, hi = -40, 70
    for sym in (arcs, poly, sy.add(arcs, poly), sy.product(arcs, poly)):
        assert sy._exp_terms(sym) is not None
        single = np.array([fourier_coefficient(sym, n).value for n in range(lo, hi + 1)])
        assert np.max(np.abs(sy.coefficient_range(sym, lo, hi) - single)) <= 1e-15


@st.composite
def exp_linear_sums(draw):
    """Sums of exp-linear products, some terms with two non-constant factors,
    possibly times a leaf (which distributes over the sum) and reflected or
    conjugated."""
    sym = sy.Sum(tuple(draw(st.lists(exp_linear_symbols(), min_size=2, max_size=3))))
    if draw(st.booleans()):
        sym = sy.Product((sym, draw(exp_linear_leaves())))
    for wrap in draw(st.lists(st.sampled_from([sy.tilde, sy.conjugate]), max_size=1)):
        sym = wrap(sym)
    return sym


@given(exp_linear_sums())
@settings(max_examples=20, deadline=None)
def test_sums_of_exp_linear_terms_match_quadrature(sym):
    for n in (0, 7, -7, 60, -60):
        closed = fourier_coefficient(sym, n)
        quad = fourier_coefficient(sym, n, method="quadrature").value
        assert closed.provenance == "analytic"
        assert abs(closed.value - quad) < 1e-11


@st.composite
def laurent_polynomials(draw, depth=2):
    choice = draw(st.integers(0, 3 if depth > 0 else 1))
    if choice == 0:
        c = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) / 4
        return sy.product(Const(c), Monomial(draw(st.integers(-4, 4))))
    if choice == 1:
        return sy.tilde(draw(laurent_polynomials(depth - 1))) if depth > 0 else Monomial(
            draw(st.integers(-4, 4)))
    pair = (draw(laurent_polynomials(depth - 1)), draw(laurent_polynomials(depth - 1)))
    return sy.Sum(pair) if choice == 2 else sy.Product(pair)


def _convolved_coefficients(sym):
    """Coefficients of a Laurent polynomial tree by direct convolution."""
    if isinstance(sym, Const):
        return {0: sym.value}
    if isinstance(sym, Monomial):
        return {sym.n: 1.0}
    out = {}
    if isinstance(sym, sy.Sum):
        for term in sym.terms:
            for k, v in _convolved_coefficients(term).items():
                out[k] = out.get(k, 0) + v
        return out
    out = {0: 1.0}
    for factor in sym.factors:
        nxt = {}
        for k1, v1 in out.items():
            for k2, v2 in _convolved_coefficients(factor).items():
                nxt[k1 + k2] = nxt.get(k1 + k2, 0) + v1 * v2
        out = nxt
    return out


@given(laurent_polynomials(), st.sampled_from([lambda s: s, sy.conjugate, sy.tilde]))
@settings(max_examples=60, deadline=None)
def test_laurent_coefficients_match_coefficient_range(poly, wrap):
    sym = wrap(poly)
    coeffs = sy.laurent_coefficients(sym)
    # quarter-integer coefficients: every sum and product is exact in floating point
    assert coeffs == {k: v for k, v in _convolved_coefficients(sym).items() if v != 0}
    lo, hi = -20, 20
    values = sy.coefficient_range(sym, lo, hi)
    for n in range(lo, hi + 1):
        assert values[n - lo] == coeffs.get(n, 0.0)  # exact, zeros included
    assert set(coeffs) <= set(range(lo, hi + 1))


def test_products_of_sums_merge_like_terms():
    rng = np.random.default_rng(0)
    polys = [sy.Sum(tuple(Const(complex(*rng.normal(size=2))) * Monomial(int(k))
                          for k in range(-3 + i % 2, 3 + i % 2))) for i in range(4)]
    product = sy.Product(tuple(polys))
    terms = sy._exp_terms(product)
    degrees = [sy._laurent_degree(p) for p in terms]
    assert len(terms) == len(set(degrees)) == 21
    assert list(sy.laurent_coefficients(product)) == degrees
    # a sum merges its like terms too, keeping the first position of each
    twice = sy._exp_terms(sy.Sum((Monomial(2), Monomial(-1), Monomial(2))))
    assert [(sy._laurent_degree(p), complex(p.c[0])) for p in twice] == [(2, 2), (-1, 1)]


@pytest.mark.parametrize("sym", [PowerArc(0.25), PiecewiseConst((0.0, math.pi), (1.0, -1.0)),
                                 sy.inverse(sy.add(Const(3.0), Monomial(1)))])
def test_laurent_coefficients_reject_non_polynomials(sym):
    with pytest.raises(sy.NotPolynomial):
        sy.laurent_coefficients(sym)


def test_laurent_coefficients_roundtrip():
    poly = sy.add(Const(2.0) * Monomial(-3), Const(1j) * Monomial(2))
    coeffs = sy.laurent_coefficients(poly)
    assert coeffs == {-3: 2.0 + 0j, 2: 1j}
    with pytest.raises(sy.NotPolynomial):
        sy.laurent_coefficients(PowerArc(0.25))


def test_circle_point_canonicalization():
    assert CirclePoint(TWO_PI + 0.5) == CirclePoint(0.5)
    assert CirclePoint(-math.pi) == CirclePoint(math.pi)
    assert CirclePoint(0.0).value == 1.0
    assert CirclePoint(math.pi / 2).reflected() == CirclePoint(3 * math.pi / 2)
    with pytest.raises(PreconditionViolation):
        CirclePoint.from_complex(2.0 + 0j)


def test_algebra_homomorphism_full_grid(quarter_twist):
    # product and sum evaluate pointwise over the whole 1024-point grid
    other = sy.add(Const(0.5), Monomial(2), PowerArc(0.5, CirclePoint(math.pi)))
    angles = sy.grid_angles([quarter_twist, other], 1024)
    for combo, op in ((sy.product(quarter_twist, other), lambda x, y: x * y),
                      (sy.add(quarter_twist, other), lambda x, y: x + y)):
        la, ra = sy.evaluate_both_sides(quarter_twist, angles)
        lb, rb = sy.evaluate_both_sides(other, angles)
        lc, rc = sy.evaluate_both_sides(combo, angles)
        assert np.max(np.abs(lc - op(la, lb))) < 1e-12
        assert np.max(np.abs(rc - op(ra, rb))) < 1e-12


def test_tilde_reflection_law_full_grid(quarter_twist):
    angles = sy.grid_angles(quarter_twist, 1024)
    ts = sy.tilde(quarter_twist)
    lt, rt = sy.evaluate_both_sides(ts, angles)
    for i, theta in enumerate(angles):
        assert abs(rt[i] - evaluate(quarter_twist, CirclePoint(-theta), LEFT)) < 1e-12
