import math

import numpy as np
import pytest

from th_invert import symbols as sy
from th_invert.analyzer import Analysis
from th_invert.catalog import quarter_twist, quarter_twist_pair
from th_invert.errors import NoSpectralGap, NotPolynomial
from th_invert.matching import make_matching_pair
from th_invert.sections import (
    apply_operator,
    block_assembly,
    hankel_matrix,
    idempotent_identity_residual,
    kernel_formula_eval,
    numerical_kernel,
    projection_upper,
    th_section,
    toeplitz_matrix,
    verify_product_identities,
)
from th_invert.symbols import Const, Monomial, PowerArc, fourier_coefficient


def hankel_entry_oracle(b, j, k):
    """Symbolic application of P b Q J to t^k: J t^k = t^(-k-1) stays in the
    negative range, so the entry is the (j+k+1)-st coefficient of b."""
    coeffs = sy.laurent_coefficients(b)
    return coeffs.get(j + k + 1, 0.0)


# ---------------------------------------------------------------------------
# section structure
# ---------------------------------------------------------------------------


def test_toeplitz_shift_structure():
    m = toeplitz_matrix(Monomial(1), 4).entries
    expected = np.diag(np.ones(3), -1)
    assert np.array_equal(m, expected)


def test_toeplitz_constant_diagonal():
    m = toeplitz_matrix(Const(1j), 5).entries
    assert np.array_equal(m, 1j * np.eye(5))


def test_toeplitz_diagonal_constancy():
    m = toeplitz_matrix(quarter_twist(), 12).entries
    for off in range(-11, 12):
        diag = np.diagonal(m, off)
        assert np.max(np.abs(diag - diag[0])) == 0.0


def test_quarter_twist_corner_value():
    # closed form: a_0 = (i - 1)/(2 pi i / 4) / ... = 2(1+i)/pi, checked by quadrature
    m = toeplitz_matrix(quarter_twist(), 8).entries
    expected = (1j - 1) / (2j * math.pi * 0.25)
    assert m[0, 0] == pytest.approx(expected)
    quad = fourier_coefficient(quarter_twist(), 0, method="quadrature")
    assert m[0, 0] == pytest.approx(quad.value, abs=1e-9)


def test_hankel_entries_match_symbolic_oracle():
    b = sy.add(Const(2.0) * Monomial(2), Const(1j) * Monomial(1), Const(3.0) * Monomial(-4))
    m = hankel_matrix(b, 6).entries
    for j in range(6):
        for k in range(6):
            assert m[j, k] == pytest.approx(hankel_entry_oracle(b, j, k))


def test_hankel_shift_cases():
    m = hankel_matrix(Monomial(1), 3).entries
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(m, expected)
    assert np.array_equal(hankel_matrix(Monomial(-1), 4).entries, np.zeros((4, 4)))


def test_hankel_continuous_symbol_finite_rank():
    b = sy.add(Monomial(2), Monomial(1))
    m = hankel_matrix(b, 16).entries
    assert np.linalg.matrix_rank(m) <= 2


def test_hankel_antidiagonal_constancy():
    m = hankel_matrix(quarter_twist(), 10).entries
    for s in range(19):
        anti = [m[j, s - j] for j in range(max(0, s - 9), min(10, s + 1))]
        assert np.max(np.abs(np.array(anti) - anti[0])) == 0.0


def test_adjoint_section_is_conjugate_transpose():
    a = quarter_twist()
    m = th_section(a, a * Monomial(1), 1, 16)
    adj = m.adjoint()
    assert np.array_equal(adj.entries, m.entries.conj().T)


# ---------------------------------------------------------------------------
# block assembly on the Laurent window
# ---------------------------------------------------------------------------


def test_flip_relations_exact():
    asm = block_assembly(Monomial(1), Monomial(2), 8)
    n = 16
    assert np.array_equal(asm.J @ asm.J, np.eye(n))
    assert np.array_equal(asm.J @ asm.P @ asm.J, asm.Q)
    assert np.array_equal(asm.J @ asm.Q @ asm.J, asm.P)


def test_block_identity_laurent_polys():
    rng = np.random.default_rng(0)
    for _ in range(5):
        ka = rng.integers(-4, 5, size=3)
        kb = rng.integers(-4, 5, size=3)
        a = sy.add(*(Const(rng.normal() + 1j * rng.normal()) * Monomial(int(k)) for k in ka))
        b = sy.add(*(Const(rng.normal() + 1j * rng.normal()) * Monomial(int(k)) for k in kb))
        asm = block_assembly(a, b, 10)
        assert asm.identity_residual() < 1e-12
        assert asm.conjugation_residual < 1e-12


def test_idempotent_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        p = np.diag(rng.integers(0, 2, size=12).astype(float))
        assert idempotent_identity_residual(m, p) < 1e-12


# ---------------------------------------------------------------------------
# product identities at the entry level
# ---------------------------------------------------------------------------


def test_product_identities_shift():
    assert verify_product_identities(Monomial(1), Monomial(1), 8) == 0.0


def test_product_identities_random_band_limited():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        ka = rng.integers(-6, 7, size=4)
        kb = rng.integers(-6, 7, size=4)
        a = sy.add(*(Const(rng.normal() + 1j * rng.normal()) * Monomial(int(k)) for k in ka))
        b = sy.add(*(Const(rng.normal() + 1j * rng.normal()) * Monomial(int(k)) for k in kb))
        worst = max(worst, verify_product_identities(a, b, 16))
    assert worst < 1e-12


def test_product_identities_cancellation_case():
    # ab = t^-1: the Hankel side vanishes identically
    assert verify_product_identities(Monomial(2), Monomial(-3), 12) < 1e-15


def test_product_identities_reject_non_polynomial():
    with pytest.raises(NotPolynomial):
        verify_product_identities(PowerArc(0.25), Monomial(1), 8)


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------


def test_shift_kernel_dimensions():
    assert numerical_kernel(toeplitz_matrix(Monomial(1), 8)).dimension == 0
    adj = toeplitz_matrix(Monomial(1), 8).adjoint()
    assert numerical_kernel(adj).dimension == 1


def test_kernel_gap_enforced():
    m = np.diag([1.0, 1e-7, 1e-9])
    with pytest.raises(NoSpectralGap):
        numerical_kernel(m, sv_threshold=1e-8)


def test_quarter_twist_shift3_kernels():
    a = quarter_twist()
    b = a * Monomial(3)
    plus = numerical_kernel(th_section(a, b, 1, 256))
    minus = numerical_kernel(th_section(a, b, -1, 256))
    assert plus.dimension == 1
    assert minus.dimension == 2
    # the kernel contains the t^2 - 1 direction
    direction = np.zeros(256, dtype=complex)
    direction[0], direction[2] = -1.0, 1.0
    direction /= np.linalg.norm(direction)
    proj = plus.basis @ (plus.basis.conj().T @ direction)
    assert np.linalg.norm(proj - direction) < 1e-8
    # and the minus kernel spans {t, t^2 + 1}
    for vec_idx in ((1,), (0, 2)):
        v = np.zeros(256, dtype=complex)
        for i in vec_idx:
            v[i] = 1.0
        v /= np.linalg.norm(v)
        proj = minus.basis @ (minus.basis.conj().T @ v)
        assert np.linalg.norm(proj - v) < 1e-8


def test_kernel_dimensions_stabilize():
    a = quarter_twist()
    b = a * Monomial(1)
    dims = []
    for n in (128, 256, 512):
        dims.append((numerical_kernel(th_section(a, b, 1, n)).dimension,
                     numerical_kernel(th_section(a, b, -1, n)).dimension))
    assert dims[0] == dims[1] == dims[2] == (0, 1)


# ---------------------------------------------------------------------------
# coefficient-level application
# ---------------------------------------------------------------------------


def test_apply_operator_zero_input():
    a = quarter_twist()
    out = apply_operator(a, a * Monomial(1), 1, np.zeros(3, dtype=complex), 64)
    assert np.array_equal(out, np.zeros(64, dtype=complex))


def test_apply_operator_constant_annihilated():
    a = quarter_twist()
    out = apply_operator(a, a * Monomial(1), -1, np.array([1.0 + 0j]), 256)
    assert np.linalg.norm(out) < 1e-10


def test_apply_operator_even_shift_witness():
    a = quarter_twist()
    out = apply_operator(a, a * Monomial(2), 1, np.array([1.0, -1.0], dtype=complex), 256)
    assert np.linalg.norm(out) < 1e-10


def test_apply_operator_matches_section():
    a = quarter_twist()
    b = a * Monomial(2)
    x = np.array([0.3, -1j, 0.5], dtype=complex)
    out = apply_operator(a, b, 1, x, 32)
    m = th_section(a, b, 1, 32).entries
    xx = np.zeros(32, dtype=complex)
    xx[:3] = x
    assert np.max(np.abs(out - m @ xx)) < 1e-12


# ---------------------------------------------------------------------------
# the kernel dimension formula
# ---------------------------------------------------------------------------


def test_projection_upper_matches_shift_identity():
    n = 16
    for m in (0, 1, 3):
        direct = np.eye(n) - (toeplitz_matrix(Monomial(m), n).entries
                              @ toeplitz_matrix(Monomial(-m), n).entries)
        assert np.array_equal(projection_upper(m, n), direct)


def test_kernel_formula_trivial_pair():
    pair = make_matching_pair(Const(1.0), Const(1.0))
    assert kernel_formula_eval(pair, 0, 0).dimension == 0
    assert Analysis(pair, 2.0).formula().dimension == 0


def test_kernel_formula_nonneg_quadrant():
    # kappa1, kappa2 >= 0: dimension = kappa1 + kappa2; oracle via sections of
    # t^-kappa * psi0 is the one-sided invertibility of scalar Toeplitz operators
    pair = make_matching_pair(Monomial(-2), Const(1.0))  # c = t^-2, d = t^-2
    res = Analysis(pair, 2.0).formula()
    assert (res.kappa1, res.kappa2) == (2, 2)
    assert res.dimension == 4
    k_plus = numerical_kernel(th_section(pair.a, pair.b, 1, 64)).dimension
    k_minus = numerical_kernel(th_section(pair.a, pair.b, -1, 64)).dimension
    assert k_plus + k_minus == 4


def test_kernel_formula_mixed_quadrant_shiftminus(quarter_pair):
    pair = quarter_twist_pair(-1)
    res = Analysis(pair, 1.5).formula()
    assert (res.kappa1, res.kappa2) == (1, -1)
    assert res.quadrant == "k1>=0,k2<0"
    assert res.dimension == 0 and res.rank == 1
    # the 1x1 compression is exp(-i pi/4) * c0 up to section truncation
    from th_invert.wiener_hopf import c0_coefficient

    c0, _ = c0_coefficient(0.25, 1e-12)
    entry = res.reduced_matrix[0, 0]
    assert abs(entry - np.exp(-1j * math.pi / 4) * c0.real) < 1e-3
    assert abs(entry) > 1.0


def test_kernel_formula_mixed_quadrant_alt_projection(quarter_pair):
    res = Analysis(quarter_twist_pair(-1), 1.5).formula()
    assert res.alt_dimension is not None  # both projection variants computed


def test_matrix_csv_dump():
    from th_invert.sections import matrix_to_csv

    text = matrix_to_csv(toeplitz_matrix(Monomial(1), 2))
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert lines[1:] == ["0,0,0,0", "0,1,0,0", "1,0,1,0", "1,1,0,0"]
