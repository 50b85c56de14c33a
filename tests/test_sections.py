import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import hankel as scipy_hankel, toeplitz as scipy_toeplitz

from th_invert import sections
from th_invert import symbols as sy
from th_invert.analyzer import Analysis, classify
from th_invert.config import Tolerances
from th_invert.catalog import quarter_twist, quarter_twist_pair
from th_invert.errors import NoSpectralGap, NotPolynomial, PreconditionViolation
from th_invert.matching import MatchingPair, make_matching_pair
from th_invert.sampling import random_matching_pair
from th_invert.defaults import SPECTRAL_GAP, SV_THRESHOLD
from th_invert.sections import (
    NumericalKernel,
    apply_operator,
    block_assembly,
    hankel_matrix,
    idempotent_identity_residual,
    kernel_dimension,
    kernel_formula_eval,
    numerical_kernel,
    th_section,
    toeplitz_matrix,
    verify_product_identities,
)
from th_invert.symbols import (CirclePoint, Const, Monomial, PiecewiseConst, PowerArc,
                               coefficient_range, fourier_coefficient)

from conftest import dense_compression

# a singular LU in the one-vector stage of kernel_dimension is expected and
# must stay silent
pytestmark = pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")


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


@pytest.mark.parametrize("n", [1, 2, 17, 256])
@pytest.mark.parametrize("sign", [1, -1])
def test_sections_equal_the_dense_scipy_sections(n, sign):
    # the strided views, copied or summed, against scipy's own copies
    a = quarter_twist()
    b = sy.product(PowerArc(0.25 + 0.1j, CirclePoint(2.0)), Monomial(-2))
    ca, cb = coefficient_range(a, -(n - 1), n - 1), coefficient_range(b, 1, 2 * n - 1)
    t = scipy_toeplitz(ca[n - 1:], ca[n - 1::-1])
    h = scipy_hankel(cb[:n], cb[n - 1:])
    ref = t + h if sign > 0 else t - h
    assert toeplitz_matrix(a, n).entries.tobytes() == t.tobytes()
    assert hankel_matrix(b, n).entries.tobytes() == h.tobytes()
    section = th_section(a, b, sign, n).entries
    assert section.flags.c_contiguous and section.flags.writeable
    assert section.tobytes() == ref.tobytes()
    out = np.full((n, n), np.nan, dtype=complex)
    assert th_section(a, b, sign, n, out=out).entries is out
    assert out.tobytes() == ref.tobytes()


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


def reference_kernel(entries, sv_threshold=SV_THRESHOLD, gap_factor=SPECTRAL_GAP):
    """The kernel from one full SVD: numerical_kernel before the values-only screen."""
    _, s, vh = np.linalg.svd(entries)
    dropped = s < sv_threshold
    n_dropped = int(np.count_nonzero(dropped))
    largest_dropped = float(s[dropped].max()) if n_dropped else None
    smallest_kept = float(s[~dropped].min()) if n_dropped < len(s) else None
    if n_dropped and smallest_kept is not None:
        if largest_dropped > 0 and smallest_kept / largest_dropped < gap_factor:
            raise NoSpectralGap(
                f"kept/dropped ratio {smallest_kept / largest_dropped:.1f} "
                f"below required {gap_factor:.0f}")
        if smallest_kept < sv_threshold:
            raise NoSpectralGap("smallest kept singular value below the threshold")
    cols = entries.shape[1]
    vectors = []
    edge = 0
    top = int(0.75 * cols)
    for row in vh[len(s) - n_dropped:]:
        v = row.conj()
        if np.linalg.norm(v[top:]) ** 2 > 0.5:
            edge += 1
        else:
            vectors.append(v)
    basis = np.stack(vectors, axis=1) if vectors else np.zeros((cols, 0))
    return NumericalKernel(len(vectors), basis, sv_threshold, smallest_kept,
                           largest_dropped, edge)


def _kernel_or_refusal(fn, entries):
    try:
        return fn(entries), None
    except NoSpectralGap as exc:
        return None, type(exc)


def assert_kernel_matches_reference(entries):
    got, got_refusal = _kernel_or_refusal(numerical_kernel, entries)
    ref, ref_refusal = _kernel_or_refusal(reference_kernel, entries)
    assert got_refusal == ref_refusal
    if ref is None:
        return
    assert (got.dimension, got.edge_dimension) == (ref.dimension, ref.edge_dimension)
    for mine, theirs in ((got.smallest_kept_sv, ref.smallest_kept_sv),
                         (got.largest_dropped_sv, ref.largest_dropped_sv)):
        assert (mine is None) == (theirs is None)
        if theirs is not None:
            assert mine == pytest.approx(theirs, rel=1e-12, abs=0)
    cols = entries.shape[1]
    assert got.basis.shape == ref.basis.shape
    if ref.largest_dropped_sv is None and cols <= entries.shape[0]:
        assert got.basis.shape == (cols, 0)
    # equal spans: equal orthogonal projectors
    assert np.allclose(got.basis @ got.basis.conj().T, ref.basis @ ref.basis.conj().T,
                       rtol=0, atol=1e-10)


# singular values well above, around, at and below the threshold and the gap
planted_values = st.one_of(
    st.floats(-6, 2).map(lambda e: 10.0 ** e),
    st.floats(-10, -6).map(lambda e: 10.0 ** e),
    st.floats(-17, -9).map(lambda e: 10.0 ** e),
    st.just(0.0),
    st.sampled_from([SV_THRESHOLD * (1 - 1e-13), SV_THRESHOLD, SV_THRESHOLD * (1 + 1e-13)]),
)


@st.composite
def planted_matrices(draw):
    """U diag(s) V^H with planted s; the right singular vectors of the
    smallest values may be unit vectors at the top edge of the window."""
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    k = min(rows, cols)
    s = sorted(draw(st.lists(planted_values, min_size=k, max_size=k)))
    n_edge = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unitary(x):
        return np.linalg.qr(x)[0]

    def gaussian(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    x = gaussian(cols)
    x[:, :n_edge] = np.eye(cols)[:, cols - n_edge:]
    v = unitary(x)[:, :k]
    u = unitary(gaussian(rows))[:, :k]
    return (u * np.array(s)) @ v.conj().T


@given(planted_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_full_svd_reference(entries):
    assert_kernel_matches_reference(entries)


@pytest.mark.parametrize("entries", [
    toeplitz_matrix(Monomial(1), 8).entries,
    toeplitz_matrix(Monomial(1), 8).adjoint().entries,    # kills e_0: one kernel vector
    toeplitz_matrix(Monomial(-2), 12).adjoint().entries,  # kills the top edge
    th_section(quarter_twist(), quarter_twist() * Monomial(3), -1, 64).entries,
    np.diag([1.0, 1e-7, 1e-9]),                            # gap violation
    np.diag([1.0, SV_THRESHOLD]),                          # a value at the threshold
    np.eye(3)[:2],                                         # more columns than rows
    np.zeros((3, 3)),
    np.zeros((3, 0)),                                      # no columns, no values
])
def test_kernel_matches_the_full_svd_reference_on_sections(entries):
    assert_kernel_matches_reference(entries)


def test_kernel_with_nothing_dropped_is_empty():
    m = toeplitz_matrix(sy.add(Const(2.0), Monomial(1)), 8).entries
    k = numerical_kernel(m)
    assert k.dimension == 0 and k.edge_dimension == 0
    assert k.basis.shape == (8, 0)
    assert k.largest_dropped_sv is None
    assert k.smallest_kept_sv == pytest.approx(np.linalg.svd(m)[1].min(), rel=1e-12)
    assert k.smallest_kept_sv > 0.9


def test_kernel_dimensions_stabilize():
    a = quarter_twist()
    b = a * Monomial(1)
    dims = []
    for n in (128, 256, 512):
        dims.append((numerical_kernel(th_section(a, b, 1, n)).dimension,
                     numerical_kernel(th_section(a, b, -1, n)).dimension))
    assert dims[0] == dims[1] == dims[2] == (0, 1)


# ---------------------------------------------------------------------------
# kernel dimensions without the full SVD
# ---------------------------------------------------------------------------


def assert_dimension_matches(entries):
    """kernel_dimension equals numerical_kernel's dimension, or both refuse
    with the same message."""
    out = []
    for fn in (kernel_dimension, lambda e: numerical_kernel(e).dimension):
        try:
            out.append(fn(entries))
        except NoSpectralGap as exc:
            out.append(f"refused: {exc}")
    assert out[0] == out[1]


@given(planted_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_dimension_matches_numerical_kernel(entries):
    assert_dimension_matches(entries)


@st.composite
def one_dropped_matrices(draw):
    """Square U diag(s) V^H with one value below the threshold behind a gap
    of more than 300; the dropped right singular vector lies in the top
    quarter of the window ("edge"), in the rest ("interior") or anywhere."""
    n = draw(st.integers(4, 40))
    kept = draw(st.lists(st.floats(-6, 1).map(lambda e: 10.0 ** e),
                         min_size=n - 1, max_size=n - 1))
    dropped = draw(st.one_of(st.just(0.0), st.floats(-17, -8.5).map(lambda e: 10.0 ** e)))
    where = draw(st.sampled_from(["edge", "interior", "anywhere"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    x = gaussian(n, n)
    top = int(0.75 * n)
    if where == "edge":
        x[:top, 0] = 0.0
    elif where == "interior":
        x[top:, 0] = 0.0
    v = np.linalg.qr(x)[0]  # column 0 spans x[:, 0]
    u = np.linalg.qr(gaussian(n, n))[0]
    return (u * np.array([dropped, *kept])) @ v.conj().T, where


@given(one_dropped_matrices())
@settings(max_examples=100, deadline=None)
def test_one_dropped_value_is_counted_from_one_vector(case):
    entries, where = case
    if where == "anywhere":
        assert_dimension_matches(entries)
        return
    # a vector wholly inside or outside the top quarter is decided without
    # the full SVD
    with mock.patch.object(sections, "numerical_kernel",
                           side_effect=AssertionError("full SVD taken")):
        got = kernel_dimension(entries)
    assert got == numerical_kernel(entries).dimension == (where == "interior")


def _planted(values, rotate: bool, seed: int = 0) -> np.ndarray:
    """diag(values), or U diag(values) V^H for fixed random unitaries."""
    if not rotate:
        return np.diag(np.asarray(values, dtype=complex))
    rng = np.random.default_rng(seed)
    n = len(values)
    u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            for _ in range(2))
    return (u * np.asarray(values)) @ v.conj().T


_TAU = SV_THRESHOLD
_GAP_DROPPED = 5e-9  # below the threshold; the kept value above it sets the gap ratio


@pytest.mark.parametrize("small", [
    [_TAU * (1 + 1e-13)],                          # kept, just
    [_TAU],                                        # kept, at the threshold
    [_TAU * (1 - 1e-13)],                          # dropped, just
    [_TAU * (1 + 1e-13), 1e-12],                   # kept value at the threshold
    [_TAU * (1 - 1e-13), 1e-12],                   # two dropped, gap below 100
    [_GAP_DROPPED * SPECTRAL_GAP * (1 + 1e-13), _GAP_DROPPED],   # gap just clean
    [_GAP_DROPPED * SPECTRAL_GAP, _GAP_DROPPED],                 # gap at the factor
    [_GAP_DROPPED * SPECTRAL_GAP * (1 - 1e-13), _GAP_DROPPED],   # gap just short
], ids=["tau+", "tau", "tau-", "kept-tau+", "kept-tau-", "gap+", "gap", "gap-"])
@pytest.mark.parametrize("where", ["first", "last", "rotated"])
def test_kernel_dimension_at_the_threshold_and_the_gap(small, where):
    values = [1.0, 0.7, 0.5, 0.3, 0.2, 0.1][: 8 - len(small)] + small
    if where == "first":  # interior singular vectors
        values = values[::-1]
    assert_dimension_matches(_planted(values, where == "rotated"))


@pytest.mark.parametrize("rel", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, -1e-9, -1e-7, -1e-5])
@pytest.mark.parametrize("dropped", [5e-9, 1.2e-10])
@pytest.mark.parametrize("n", [8, 64])
def test_kernel_dimension_near_the_gap(rel, dropped, n):
    # kept/dropped ratios within 100 (1 +- 1e-5): the values-only and the
    # full SVD differ by up to n u s[0], far more than rel on 1.2e-10
    kept = dropped * SPECTRAL_GAP * (1 + rel)
    values = list(np.geomspace(1.0, 1e-7, n - 2)) + [kept, dropped]
    for rotate in (False, True):
        for seed in range(3):
            entries = _planted(values, rotate, seed)
            assert_dimension_matches(entries)
            assert_dimension_matches(entries[::-1, ::-1])  # interior vector


@pytest.mark.parametrize("rel", [1e-9, 1e-7, 1e-5, -1e-9, -1e-7, -1e-5])
def test_kernel_dimension_near_the_threshold(rel):
    values = list(np.geomspace(1.0, 1e-6, 62)) + [_TAU * (1 + rel), 1e-12]
    for seed in range(3):
        assert_dimension_matches(_planted(values, True, seed))


def test_one_vector_stage_leaves_margins_within_rounding_to_the_full_svd():
    # the two SVD drivers may differ by n u s[0] = 7e-15 on these 64 x 64
    # matrices: a ratio 100 (1 + 1e-6) over a dropped 1.2e-10, or a value
    # tau (1 - 1e-7), is within that, and only the full SVD may decide it
    def one_vector(small):
        entries = _planted(list(np.geomspace(1.0, 1e-5, 64 - len(small))) + small, True)
        s = np.linalg.svd(entries, compute_uv=False)
        return sections._one_dropped_dimension(entries, s, SV_THRESHOLD)

    assert one_vector([1.2e-8 * (1 + 1e-6), 1.2e-10]) is None
    assert one_vector([1.2e-8 * (1 + 1e-3), 1.2e-10]) == 1
    assert one_vector([_TAU * (1 - 1e-7)]) is None
    assert one_vector([_TAU * (1 - 1e-5)]) == 1


@pytest.mark.parametrize("entries", [
    np.zeros((4, 4)),
    np.ones((5, 5)),                                        # rank one
    np.diag([1.0, 0.0, 1.0, 1.0]),                          # one exact zero inside
    toeplitz_matrix(Monomial(1), 8).entries,                # kills the top edge
    toeplitz_matrix(Monomial(1), 8).adjoint().entries,      # kills e_0
    toeplitz_matrix(Monomial(2), 12).adjoint().entries,     # two exact zeros
    th_section(quarter_twist(), quarter_twist() * Monomial(3), -1, 64).entries,
    th_section(quarter_twist(), quarter_twist() * Monomial(3), 1, 256).entries,
])
def test_kernel_dimension_of_singular_sections(entries):
    assert_dimension_matches(entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0),
                                 complex(1.0, np.inf)])
def test_non_finite_sections_are_refused(bad):
    entries = np.eye(4, dtype=complex)
    entries[1, 2] = bad
    for fn in (numerical_kernel, kernel_dimension):
        with pytest.raises(PreconditionViolation, match="finite"):
            fn(entries)


def _used_gram(n: int) -> np.ndarray:
    """An F-ordered n x n buffer left full of NaN, as a reused one may be."""
    return np.full((n, n), np.nan, dtype=complex).T


@given(st.integers(1, 24), st.floats(0.5, 1.0, exclude_max=True),
       st.floats(-8, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_gram_certificate_never_certifies_below_the_floor(n, frac, log_top, seed):
    floor = 2 * SV_THRESHOLD
    rng = np.random.default_rng(seed)
    smallest = frac * floor
    values = np.sort(np.exp(rng.uniform(np.log(smallest), np.log(max(10.0 ** log_top,
                                                                     smallest)), n)))
    values[0] = smallest
    entries = _planted(values, True, seed)
    assert not sections._certified_full_rank(entries, floor)
    assert not sections._certified_full_rank(entries, floor, _used_gram(n))


def test_gram_certificate_certifies_well_conditioned_sections():
    a = quarter_twist()
    floor = 2 * SV_THRESHOLD
    assert sections._certified_full_rank(np.eye(3), floor)
    section = th_section(a, a * Monomial(1), 1, 256).entries
    assert sections._certified_full_rank(section, floor)
    assert sections._certified_full_rank(section, floor, _used_gram(256))
    assert not sections._certified_full_rank(np.eye(3)[:2], floor)   # not square
    assert not sections._certified_full_rank(np.diag([1.0, 1e-9]), floor)


def test_kernel_dimension_counts_with_the_given_threshold():
    # sigma_min = 1e-4: certified nonsingular at the default threshold, the
    # one dropped value (an interior vector) at 1e-3
    entries = np.diag([1e-4, 1.0, 1.0, 1.0])
    assert kernel_dimension(entries) == numerical_kernel(entries).dimension == 0
    assert kernel_dimension(entries, 1e-3) == numerical_kernel(entries, 1e-3).dimension == 1


def test_section_kernel_counts_with_the_configured_threshold():
    # sigma_min of the plus section is about 6e-6, behind a gap to 0.31
    a0 = sy.product(Monomial(-1), PowerArc(0.5, CirclePoint(1.0)))
    pair = make_matching_pair(sy.product(a0, Monomial(-1)), a0)
    entries = th_section(pair.a, pair.b, 1, 256).entries
    assert Analysis(pair, 1.5).section_kernel(1) == 0
    loose = Analysis(pair, 1.5, Tolerances(sv_threshold=1e-3))
    assert loose.section_kernel(1) == numerical_kernel(entries, 1e-3).dimension == 1


def _shift3_pair():
    a = quarter_twist()
    return make_matching_pair(a, a * Monomial(3))


@pytest.mark.parametrize("seed", range(4))
def test_section_kernel_counts_each_sign_as_kernel_dimension(seed):
    pair = _shift3_pair() if seed == 0 else random_matching_pair(np.random.default_rng(seed))
    an = Analysis(pair, 2.0)
    for sign in (-1, 1):
        assert an.section_kernel(sign) == kernel_dimension(th_section(pair.a, pair.b, sign, 256))


def test_both_section_kernels_share_one_read_and_one_workspace(monkeypatch):
    reads, outs = [], []
    coefficients, build = sections.coefficient_range, sections.th_section

    def counted(*args, **kwargs):
        reads.append(args[1:3])
        return coefficients(*args, **kwargs)

    def recorded(*args, out=None, **kwargs):
        outs.append(out)
        return build(*args, out=out, **kwargs)

    monkeypatch.setattr(sections, "coefficient_range", counted)
    monkeypatch.setattr(sections, "th_section", recorded)
    sections._section_views.cache_clear()
    an = Analysis(_shift3_pair(), 2.0)
    assert (an.section_kernel(-1), an.section_kernel(1)) == (2, 1)
    assert reads == [(-255, 255), (1, 511)]
    assert len(outs) == 2 and np.shares_memory(outs[0], outs[1])


@pytest.mark.parametrize("refused", [1, -1])
def test_a_section_refusal_stays_with_its_sign(monkeypatch, refused):
    # the first count is the plus section's
    count = sections._kernel_dimension
    calls = []

    def refuse_one(entries, sv_threshold, gram=None):
        calls.append(len(calls))
        if calls[-1] == (0 if refused == 1 else 1):
            raise NoSpectralGap("planted refusal")
        return count(entries, sv_threshold, gram)

    monkeypatch.setattr(sections, "_kernel_dimension", refuse_one)
    an = Analysis(_shift3_pair(), 2.0)
    for _ in range(2):
        with pytest.raises(NoSpectralGap, match="planted"):
            an.section_kernel(refused)
        assert an.section_kernel(-refused) == (1 if refused == -1 else 2)
    assert len(calls) == 2


def test_a_hankel_free_pair_counts_its_one_section_once(monkeypatch):
    # b = 3 t^-1 + 1 has no coefficient of positive index: both signs give T_n(a)
    a = sy.add(Const(3.0), Monomial(1))
    pair = make_matching_pair(a, a * Monomial(-1))
    assert not coefficient_range(pair.b, 1, 511).any()
    assert [kernel_dimension(th_section(pair.a, pair.b, sign, 256)) for sign in (1, -1)] == [0, 0]
    count, calls = sections._kernel_dimension, []

    def counted(entries, sv_threshold, gram=None):
        calls.append(len(calls))
        return count(entries, sv_threshold, gram)

    monkeypatch.setattr(sections, "_kernel_dimension", counted)
    an = Analysis(pair, 2.0)
    assert (an.section_kernel(-1), an.section_kernel(1)) == (0, 0)
    assert calls == [0]

    def refused(entries, sv_threshold, gram=None):
        calls.append(len(calls))
        raise NoSpectralGap("planted refusal")

    monkeypatch.setattr(sections, "_kernel_dimension", refused)
    an, refusals = Analysis(pair, 2.0), []
    for sign in (1, -1, 1, -1):
        with pytest.raises(NoSpectralGap, match="planted") as exc:
            an.section_kernel(sign)
        refusals.append(exc.value)
    assert calls == [0, 1] and all(r is refusals[0] for r in refusals)


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


@pytest.mark.parametrize("n", [4, 8])
def test_kernel_formula_refuses_a_section_with_no_smaller_comparison(n):
    # kappas (1, -1): the comparison section has size max(n // 2, 8) >= n, so
    # the convergence refusal could never fire
    with pytest.raises(PreconditionViolation):
        kernel_formula_eval(quarter_twist_pair(-1), 1, -1, n=n)
    with pytest.raises(PreconditionViolation):
        classify(quarter_twist_pair(-1), 1.5, formula_section=n)


@pytest.mark.parametrize("n, entry", [
    (16, 0.8413290583582871 - 0.8413290583582866j),
    (512, 0.8348307822128198 - 0.8348307822128198j),
])
def test_kernel_formula_sizes_above_the_comparison(n, entry):
    res = kernel_formula_eval(quarter_twist_pair(-1), 1, -1, n=n)
    assert (res.dimension, res.rank, res.alt_dimension) == (0, 1, 0)
    assert res.reduced_matrix.shape == (1, 1)
    assert res.reduced_matrix[0, 0] == pytest.approx(entry, rel=1e-12)


def _formula_outcome(pair, kappa1, kappa2, n):
    """(dimension, rank, alt_dimension) and the reduced matrix, or the refusal."""
    try:
        res = kernel_formula_eval(pair, kappa1, kappa2, n=n)
    except (NoSpectralGap, PreconditionViolation) as exc:
        return type(exc), None
    return (res.dimension, res.rank, res.alt_dimension), res.reduced_matrix


def _mixed_quadrant_pair(seed, p):
    """The first random matching pair with kappa1 >= 1 and kappa2 < 0 at p that
    the seeded generator draws (about one in fifteen is)."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        pair = random_matching_pair(rng, p)
        kappas = Analysis(pair, p).kappas
        if kappas is not None and kappas[0] >= 1 and kappas[1] < 0:
            return pair, kappas
    raise AssertionError("no mixed-quadrant pair in 200 draws")


@given(st.integers(0, 2**32 - 1), st.sampled_from((1.5, 2.5, 3.0)))
@settings(max_examples=10, deadline=None)
def test_kernel_formula_matches_the_dense_solves(seed, p):
    pair, (kappa1, kappa2) = _mixed_quadrant_pair(seed, p)
    for n in (16, 64, 256):
        got, got_matrix = _formula_outcome(pair, kappa1, kappa2, n)
        with mock.patch.object(sections, "_compression", dense_compression):
            ref, ref_matrix = _formula_outcome(pair, kappa1, kappa2, n)
        assert got == ref
        if ref_matrix is not None:
            assert np.abs(got_matrix - ref_matrix).max() <= 1e-10 * np.abs(ref_matrix).max()


@pytest.mark.parametrize("v0", [
    # zero mean: the first leading minor is 0 and Levinson stops
    PiecewiseConst((0.0, math.pi), (1.0, -1.0)),
    # two power arcs anchored 0.04 apart: Levinson's backward error is 4.8e-10
    # at n = 512 and 1.8e-12 at 256, LU's about 1e-16
    sy.product(PowerArc(0.5, CirclePoint(3.1632250035974443)),
               PowerArc(0.5, CirclePoint(3.119960303582142)),
               PowerArc(-0.25, CirclePoint(0.0))),
], ids=["singular-minor", "close-arcs"])
def test_kernel_formula_declines_an_uncertified_structured_solve(v0):
    # c = t and d = v0 t^-1, so T(u0) = T(~a^-1) = I and only T(v0) is solved
    # densely, once per section size
    pair = MatchingPair(Const(1.0), Const(1.0), Monomial(1), sy.product(v0, Monomial(-1)), 0.0)
    dense_sizes = []
    solve = np.linalg.solve

    def spy(m, rhs):
        dense_sizes.append(m.shape[0])
        return solve(m, rhs)

    with mock.patch.object(np.linalg, "solve", spy):
        res = kernel_formula_eval(pair, 1, -1, n=512)
    assert dense_sizes == [512, 256]
    with mock.patch.object(sections, "_compression", dense_compression):
        ref = kernel_formula_eval(pair, 1, -1, n=512)
    assert (res.dimension, res.rank, res.alt_dimension) == \
        (ref.dimension, ref.rank, ref.alt_dimension)
    assert res.reduced_matrix[0, 0] == pytest.approx(ref.reduced_matrix[0, 0], rel=1e-12)


def test_kernel_formula_mixed_quadrant_alt_projection(quarter_pair):
    res = Analysis(quarter_twist_pair(-1), 1.5).formula()
    assert res.alt_dimension is not None  # both projection variants computed


def test_matrix_csv_dump():
    from th_invert.sections import matrix_to_csv

    text = matrix_to_csv(toeplitz_matrix(Monomial(1), 2))
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert lines[1:] == ["0,0,0,0", "0,1,0,0", "1,0,1,0", "1,1,0,0"]
