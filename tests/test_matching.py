import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from th_invert import symbols as sy
from th_invert.errors import NotInvertible
from th_invert.matching import (
    MatchRejection,
    build_u_matrix,
    build_u_matrix_general,
    is_matching_function,
    is_matching_pair,
    make_matching_pair,
    pair_product,
)
from th_invert.symbols import CirclePoint, Const, Monomial, PiecewiseConst, PowerArc

from conftest import max_grid_deviation


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
    assert max_grid_deviation(u[0, 0], Const(0.0)) < 1e-14
    assert max_grid_deviation(u[0, 1], -quarter_pair.d) < 1e-12
    assert max_grid_deviation(u[1, 0], quarter_pair.c) < 1e-12
    assert max_grid_deviation(u[1, 1], sy.inverse(sy.tilde(quarter_pair.a))) < 1e-12


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
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert max_grid_deviation(det, pair.c * pair.d) < 1e-10


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
