import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from th_invert import matching, symbols as sy
from th_invert.calculus import _Stretch
from th_invert.defaults import JUMP_TOL
from th_invert.errors import NotInvertible, PreconditionViolation
from th_invert.matching import (
    MatchRejection,
    build_u_matrix,
    build_u_matrix_general,
    is_matching_function,
    is_matching_pair,
    make_matching_pair,
    pair_product,
)
from th_invert.symbols import LEFT, RIGHT, CirclePoint, Const, Monomial, PiecewiseConst, PowerArc

from conftest import entry_tree, exp_linear_leaves, max_grid_deviation


def test_quarter_twist_pair_is_matching(quarter_pair):
    # c = t^-1 and d = a * (~a)^-1 * t; the common product a*~a equals i
    assert quarter_pair.residual < 1e-9
    assert quarter_pair.match_constant == pytest.approx(1j)
    assert max_grid_deviation(quarter_pair.c, Monomial(-1)) < 1e-12
    d_expected = quarter_pair.a * sy.inverse(sy.tilde(quarter_pair.a)) * Monomial(1)
    assert max_grid_deviation(quarter_pair.d, d_expected) < 1e-12


def test_half_plane_pair_matching(half_plane_pair):
    # c = i * a for the sign symbol; common product is -1
    assert half_plane_pair.match_constant == pytest.approx(-1.0)
    c_expected = Const(1j) * half_plane_pair.b
    assert max_grid_deviation(half_plane_pair.c, c_expected) < 1e-12


def test_subordinated_function_cancels_the_common_factor():
    # c = a b^-1 of (3 + t, (3 + t) t^-1) is t, with closed-form coefficients
    a = sy.add(Const(3.0), Monomial(1))
    assert make_matching_pair(a, a * Monomial(-1)).c == Monomial(1)


def test_evaluate_matrix_rejects_a_bad_side(quarter_pair):
    u = build_u_matrix(quarter_pair)
    with pytest.raises(PreconditionViolation, match="side must be 'left' or 'right'"):
        u.evaluate_matrix(sy.POINT_ONE, "up")


def test_monomials_are_matching_functions():
    pair = make_matching_pair(Monomial(1), Const(1.0))
    assert max_grid_deviation(pair.c, Monomial(1)) < 1e-14
    assert max_grid_deviation(pair.d, Monomial(1)) < 1e-14
    assert isinstance(is_matching_pair(Monomial(1), Monomial(2)), type(pair))


def test_non_matching_rejected():
    result = is_matching_pair(sy.add(Monomial(1), Const(3.0)), Const(1.0))
    assert isinstance(result, MatchRejection)
    assert result.max_residual > 1.0


def test_noninvertible_raises():
    with pytest.raises(NotInvertible):
        is_matching_pair(sy.add(Monomial(1), Const(-1.0)), Const(1.0))


def test_subordination_consistency(quarter_pair, half_plane_pair, right_half_pair):
    # b*c = a and d*~a = b on the grid
    for pair in (quarter_pair, half_plane_pair, right_half_pair):
        assert max_grid_deviation(pair.b * pair.c, pair.a) < 1e-10
        assert max_grid_deviation(pair.d * sy.tilde(pair.a), pair.b) < 1e-10


def test_matching_functions_satisfy_unit_product(quarter_pair):
    for f in (quarter_pair.c, quarter_pair.d):
        assert max_grid_deviation(f * sy.tilde(f), Const(1.0)) < 1e-10


def test_right_half_pair_subordinated(right_half_pair):
    # with ~a = a and a^2 = 1: c = t^-1, d = t
    assert max_grid_deviation(right_half_pair.c, Monomial(-1)) < 1e-12
    assert max_grid_deviation(right_half_pair.d, Monomial(1)) < 1e-12


def test_pair_with_itself():
    a = sy.product(Const(1j), PowerArc(0.25))
    pair = make_matching_pair(a, a)
    assert max_grid_deviation(pair.c, Const(1.0)) < 1e-12
    # d = a * (~a)^-1; for a*~a = const k: d = a^2 / k
    k = pair.match_constant
    assert max_grid_deviation(pair.d, a * a * Const(1.0 / k)) < 1e-10


# ---------------------------------------------------------------------------
# matrix symbol
# ---------------------------------------------------------------------------


def test_triangular_matrix_entries(quarter_pair):
    u = build_u_matrix(quarter_pair)
    assert max_grid_deviation(entry_tree(u, 0, 0), Const(0.0)) < 1e-14
    assert max_grid_deviation(entry_tree(u, 0, 1), -quarter_pair.d) < 1e-12
    assert max_grid_deviation(entry_tree(u, 1, 0), quarter_pair.c) < 1e-12
    assert max_grid_deviation(entry_tree(u, 1, 1), sy.inverse(sy.tilde(quarter_pair.a))) < 1e-12


def test_general_matrix_against_direct_formulas():
    # non-matching pair (t^2, t): evaluate entries pointwise from scratch
    a, b = Monomial(2), Monomial(1)
    u = build_u_matrix_general(a, b)
    angles = np.linspace(0.05, 2 * math.pi - 0.05, 101)
    for theta in angles[::10]:
        t = np.exp(1j * theta)
        at, bt = t ** 2, t
        ta, tb = t ** -2, t ** -1  # ~a, ~b values
        direct = np.array([[at - bt * tb / ta, -bt / ta], [tb / ta, 1 / ta]])
        got = u.evaluate_matrix(CirclePoint(theta), "right")
        assert np.max(np.abs(got - direct)) < 1e-12


def test_matrix_determinant_equals_cd(quarter_pair, half_plane_pair):
    # for matching pairs det U = c*d on the grid
    for pair in (quarter_pair, half_plane_pair):
        u = build_u_matrix(pair)
        e = [[entry_tree(u, i, j) for j in range(2)] for i in range(2)]
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        assert max_grid_deviation(det, pair.c * pair.d) < 1e-10


@st.composite
def matching_leaves(draw):
    """A leaf f with f * ~f = 1: monomial, power arc anchored at +-1, or
    half-circle extension."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return Monomial(draw(st.integers(-3, 3)))
    if choice == 1:
        beta = complex(draw(st.floats(-0.9, 0.9)), draw(st.floats(-0.3, 0.3)))
        return PowerArc(beta, CirclePoint(draw(st.sampled_from([0.0, math.pi]))))
    return sy.HalfCircleExtension(draw(exp_linear_leaves(allow_extension=False)))


@st.composite
def matrix_symbols(draw):
    """U of a random pair: the triangular or general matrix of a matching
    pair (a0 * c, a0), or the general matrix of an arbitrary pair."""
    def leaf_product(leaves):
        return sy.product(*draw(st.lists(leaves, min_size=1, max_size=3)))

    kind = draw(st.sampled_from(["triangular", "matching-general", "general"]))
    a0 = leaf_product(exp_linear_leaves())
    if kind == "general":
        return build_u_matrix_general(a0, leaf_product(exp_linear_leaves()))
    pair = make_matching_pair(sy.product(a0, leaf_product(matching_leaves())), a0)
    if kind == "triangular":
        return build_u_matrix(pair)
    return build_u_matrix_general(pair.a, pair.b)


# a and b jump 6.3e-10 at angle 0, below JUMP_TOL, and the entry -b/~a twice that
TINY_JUMPS = PowerArc(1e-10j)


@given(matrix_symbols(), st.integers(0, 2**32 - 1))
@example(build_u_matrix_general(TINY_JUMPS, TINY_JUMPS), 0)
@example(build_u_matrix(make_matching_pair(TINY_JUMPS, TINY_JUMPS)), 0)
@settings(max_examples=60, deadline=None)
def test_matrix_values_match_the_entry_trees(u, seed):
    # the entry trees are the reference for the value formulas
    def close(got, ref):
        return np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    trees = [[entry_tree(u, i, j) for j in range(2)] for i in range(2)]

    def entries(t, side):
        return np.array([[sy.evaluate(trees[i][j], t, side) for j in range(2)] for i in range(2)])

    table = u.one_sided()
    assert list(table) == u.jump_angles()
    for pt, _, _ in (jump for row in trees for tree in row for jump in sy.jump_set(tree)):
        assert any(abs(math.remainder(pt.angle - angle, 2 * math.pi)) < 1e-9 for angle in table)
    for angle, one_sided in table.items():
        t = CirclePoint(angle)
        for side, value in zip((LEFT, RIGHT), one_sided):
            assert close(value, entries(t, side))
            assert close(u.evaluate_matrix(t, side), entries(t, side))

    thetas = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 48)
    jumps = np.array(u.jump_angles() + [0.0, 2 * math.pi])
    thetas = thetas[np.min(np.abs(thetas[:, None] - jumps[None, :]), axis=1) > 1e-6]
    for theta in thetas[:6]:
        for side in (LEFT, RIGHT):
            assert close(u.evaluate_matrix(theta, side), entries(CirclePoint(theta), side))
    e = [[sy.evaluate_array(trees[i][j], thetas) for j in range(2)] for i in range(2)]
    assert close(_Stretch(u.a, True).values(thetas), e[0][0] * e[1][1] - e[0][1] * e[1][0])


@given(matrix_symbols())
@example(build_u_matrix_general(TINY_JUMPS, TINY_JUMPS))
@settings(max_examples=60, deadline=None)
def test_one_sided_matrices_read_each_value_once(u):
    # the reference reads all four one-sided pairs of every angle by evaluate_sides
    angles = {x for f in (u.a, u.b) for x, _, _ in sy._one_sided_at_breaks(f)}
    reference = {}
    for angle in sy.dedupe_angles(angles | {CirclePoint(-x).angle for x in angles}):
        left, right = u._sides(angle)
        if np.max(np.abs(left - right)) > JUMP_TOL:
            reference[angle] = (left, right)

    reads = []

    def counted(f, angle):
        reads.append((f, angle))
        return sy.evaluate_sides(f, angle)

    with mock.patch.object(matching, "evaluate_sides", counted):
        table = u._one_sided_matrices()
    assert list(table) == list(reference)
    for angle, (left, right) in table.items():
        assert left.tobytes() == reference[angle][0].tobytes()
        assert right.tobytes() == reference[angle][1].tobytes()
    assert len(set(reads)) == len(reads)
    assert not [(f, x) for f, x in reads if x in {y for y, _, _ in sy._one_sided_at_breaks(f)}]


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


def test_pair_product_with_inverse(quarter_pair):
    prod = pair_product(quarter_pair, quarter_pair.inverse_pair())
    assert max_grid_deviation(prod.a, Const(1.0)) < 1e-10
    assert max_grid_deviation(prod.b, Const(1.0)) < 1e-10


def test_monomial_pair_product():
    p1 = make_matching_pair(Monomial(2), Const(1.0))
    p2 = make_matching_pair(Monomial(3), Const(1.0))
    prod = pair_product(p1, p2)
    assert max_grid_deviation(prod.a, Monomial(5)) < 1e-14


def test_quarter_pair_squared(quarter_pair):
    sq = pair_product(quarter_pair, quarter_pair)
    assert sq.residual < 1e-9
    assert max_grid_deviation(sq.c, Monomial(-2)) < 1e-12


@given(st.integers(-3, 3), st.sampled_from([0.25, 0.5]), st.sampled_from([0.0, math.pi]))
@settings(max_examples=20, deadline=None)
def test_matching_set_closed_under_products(n, beta, anchor):
    c1 = Monomial(n)
    c2 = PowerArc(beta, CirclePoint(anchor))
    assert is_matching_function(sy.product(c1, c2))
    g = sy.extend_half_circle(PiecewiseConst((0.8, 2.1), (0.5 + 0.25j, 1.0)))
    assert is_matching_function(sy.product(c2, g))
