"""Dense truncations of Toeplitz, Hankel and block operators.

In the analytic basis e_k = t^k, k >= 0, the Toeplitz section carries
a_{j-k} and the Hankel section b_{j+k+1} (the image of PbQJ on monomials).
Block identities are checked on the symmetric Laurent window
t^-N .. t^(N-1); with an even window the flip J: t^k -> t^(-k-1) is an
exact involution on the basis and JPJ = Q holds entrywise, so the
operator identities below hold to rounding error for arbitrary symbols,
not only asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .defaults import QUADRATURE_TOL, SPECTRAL_GAP, SV_THRESHOLD
from .errors import NoSpectralGap, PreconditionViolation, THInvertError
from .matching import MatchingPair
from . import symbols as sy
from .symbols import Monomial, PCSymbol, coefficient_range, laurent_coefficients


@dataclass(frozen=True)
class FiniteSectionMatrix:
    """Dense complex truncation in the analytic basis e_k = t^k, k = 0..n-1."""

    entries: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "FiniteSectionMatrix":
        return FiniteSectionMatrix(self.entries.conj().T)


def matrix_to_csv(m: FiniteSectionMatrix | np.ndarray) -> str:
    """Dense complex matrix as CSV rows (row, col, re, im)."""
    entries = m.entries if isinstance(m, FiniteSectionMatrix) else np.asarray(m)
    lines = ["row,col,re,im"]
    for j in range(entries.shape[0]):
        for k in range(entries.shape[1]):
            z = entries[j, k]
            lines.append(f"{j},{k},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


def _column_and_row(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First column a_0 .. a_{n-1} and first row a_0 .. a_{-(n-1)} of the
    n x n section whose coefficients a_{-(n-1)} .. a_{n-1} are ``coeffs``."""
    n = (len(coeffs) + 1) // 2
    return coeffs[n - 1:], coeffs[n - 1::-1]


def _section_times(coeffs: np.ndarray, x: np.ndarray, n_out: int) -> np.ndarray:
    """Entries m-1 .. m-2+n_out of the convolution of ``coeffs`` with x of
    length m (a vector, or each column of an m x k array).  With ``coeffs``
    the symbol coefficients from index -(m-1) on, these are the first n_out
    entries of T x, each an exact finite sum."""
    if x.ndim == 2:
        return np.stack([_section_times(coeffs, col, n_out) for col in x.T], axis=1)
    m = len(x)
    return np.convolve(coeffs, x)[m - 1: m - 1 + n_out]


def _toeplitz_view(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Read-only n x n view with entries a_{j-k} of the coefficients
    a_{-(n-1)} .. a_{n-1}: row j starts at a_j and steps back.  Nothing is
    copied."""
    coeffs = np.ascontiguousarray(coeffs)
    step = coeffs.strides[0]
    return as_strided(coeffs[n - 1:], (n, n), (step, -step), writeable=False)


def _hankel_view(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Read-only n x n view with entries b_{j+k+1} of the coefficients
    b_1 .. b_{2n-1}.  Nothing is copied."""
    coeffs = np.ascontiguousarray(coeffs)
    step = coeffs.strides[0]
    return as_strided(coeffs, (n, n), (step, step), writeable=False)


def _check_size(n: int) -> None:
    if n < 1:
        raise PreconditionViolation("section size must be >= 1")


def toeplitz_matrix(a: PCSymbol, n: int, tol: float = QUADRATURE_TOL) -> FiniteSectionMatrix:
    """n x n section with entries a_{j-k}; ``tol`` bounds quadrature coefficients."""
    _check_size(n)
    return FiniteSectionMatrix(
        _toeplitz_view(coefficient_range(a, -(n - 1), n - 1, tol=tol), n).copy())


def hankel_matrix(b: PCSymbol, n: int, tol: float = QUADRATURE_TOL) -> FiniteSectionMatrix:
    """n x n section with entries b_{j+k+1}; ``tol`` bounds quadrature coefficients."""
    _check_size(n)
    return FiniteSectionMatrix(_hankel_view(coefficient_range(b, 1, 2 * n - 1, tol=tol), n).copy())


@lru_cache(maxsize=1)
def _section_views(a: PCSymbol, b: PCSymbol, n: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(T_n(a), H_n(b)) as read-only views of one coefficient read each; the
    sections of both signs of one pair share them."""
    _check_size(n)
    return (_toeplitz_view(coefficient_range(a, -(n - 1), n - 1, tol=tol), n),
            _hankel_view(coefficient_range(b, 1, 2 * n - 1, tol=tol), n))


def th_section(a: PCSymbol, b: PCSymbol, sign: int, n: int, tol: float = QUADRATURE_TOL,
               out: Optional[np.ndarray] = None) -> FiniteSectionMatrix:
    """Section of T(a) + sign * H(b): the sum of the two views, written into
    ``out`` (an n x n complex array) when given, else into a new array."""
    toeplitz, hankel = _section_views(a, b, n, tol)
    return FiniteSectionMatrix((np.add if sign > 0 else np.subtract)(toeplitz, hankel, out=out))


def section_kernel_counter(a: PCSymbol, b: PCSymbol, n: int, tol: float = QUADRATURE_TOL,
                           sv_threshold: float = SV_THRESHOLD) -> Callable[[int], int]:
    """The function sign -> kernel_dimension(th_section(a, b, sign, n, tol),
    sv_threshold), for both signs of one pair.

    Every call works in one workspace of two n x n halves: the first holds
    the section, the second, transposed so that it is F-ordered, the Gram
    matrix of the certificate.  Fresh 1 MB arrays (n = 256) for each call
    are mapped by the allocator and faulted in page by page; the one
    reused block of 2 n^2 entries is not.

    When b_1 .. b_{2n-1} are all zero, the two sections are one array (up
    to the sign of zero entries): it is counted once, and both signs
    return its count or raise its refusal.
    """
    work = np.empty((2, n, n), dtype=complex)
    hankel_free = []  # the (count, refusal) of the one section of a Hankel-free pair

    def count(sign: int) -> int:
        section = th_section(a, b, sign, n, tol, out=work[0])
        return _kernel_dimension(_entries(section), sv_threshold, work[1].T)

    def counter(sign: int) -> int:
        hankel = _section_views(a, b, n, tol)[1]
        if hankel[0].any() or hankel[-1].any():  # rows b_1 .. b_n and b_n .. b_{2n-1}
            return count(sign)
        if not hankel_free:
            try:
                hankel_free.append((count(1), None))
            except THInvertError as exc:
                hankel_free.append((None, exc))
        value, exc = hankel_free[0]
        if exc is not None:
            raise exc
        return value

    return counter


# ---------------------------------------------------------------------------
# Laurent-window block calculus
# ---------------------------------------------------------------------------


def riesz_projection_matrix(half_window: int) -> np.ndarray:
    """P keeps the coefficients of t^k, k >= 0."""
    n = 2 * half_window
    diag = np.zeros(n)
    diag[half_window:] = 1.0  # basis index i corresponds to power i - N
    return np.diag(diag)


def flip_matrix(half_window: int) -> np.ndarray:
    """J: t^k -> t^(-k-1); a permutation of the even Laurent window."""
    n = 2 * half_window
    j = np.zeros((n, n))
    for i in range(n):
        k = i - half_window
        j[(-k - 1) + half_window, i] = 1.0
    return j


@dataclass(frozen=True)
class BlockAssembly:
    """All matrices of the 2x2 block picture on the Laurent window."""

    half_window: int
    P: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)         # PaP + Q
    Y: np.ndarray = field(repr=False)         # PbQ
    block_operator: np.ndarray = field(repr=False)
    diagonalized: np.ndarray = field(repr=False)
    conjugation_residual: float = 0.0

    def identity_residual(self) -> float:
        """Max entrywise defect of the 2x2 conjugation identity."""
        n = 2 * self.half_window
        eye = np.eye(n)
        left = 0.5 * np.block([[eye, eye], [self.J, -self.J]])
        right = np.block([[eye, self.J], [eye, -self.J]])
        lhs = np.block([[self.X, self.Y],
                        [self.J @ self.Y @ self.J, self.J @ self.X @ self.J]])
        rhs = left @ self.diagonalized @ right
        return float(np.max(np.abs(lhs - rhs)))


def block_assembly(a: PCSymbol, b: PCSymbol, half_window: int) -> BlockAssembly:
    """Assemble P, Q, J, the block operator

        [[PaP + Q, PbQ], [Q ~b P, Q ~a Q + P]]

    and the diagonal factor diag(X + YJ, X - YJ), checking that the second
    row of the block operator equals the flip conjugation of the first.
    The multiplication operators are the sections of size 2N on the window.
    """
    if half_window < 1:
        raise PreconditionViolation("half window must be >= 1")
    n = 2 * half_window
    P = riesz_projection_matrix(half_window)
    Q = np.eye(n) - P
    J = flip_matrix(half_window)
    Ma = toeplitz_matrix(a, n).entries
    Mb = toeplitz_matrix(b, n).entries
    Mat = toeplitz_matrix(sy.tilde(a), n).entries
    Mbt = toeplitz_matrix(sy.tilde(b), n).entries

    X = P @ Ma @ P + Q
    Y = P @ Mb @ Q
    block = np.block([[X, Y], [Q @ Mbt @ P, Q @ Mat @ Q + P]])
    flip_block = np.block([[X, Y], [J @ Y @ J, J @ X @ J]])
    conj_residual = float(np.max(np.abs(block - flip_block)))
    diag = np.block([
        [X + Y @ J, np.zeros((n, n))],
        [np.zeros((n, n)), X - Y @ J],
    ])
    return BlockAssembly(half_window, P, Q, J, X, Y, block, diag, conj_residual)


def idempotent_identity_residual(a_mat: np.ndarray, p_mat: np.ndarray) -> float:
    """Defect of  a p + (e - p) = (p a p + (e - p)) (e + (e - p) a p)."""
    e = np.eye(a_mat.shape[0])
    lhs = a_mat @ p_mat + (e - p_mat)
    rhs = (p_mat @ a_mat @ p_mat + (e - p_mat)) @ (e + (e - p_mat) @ a_mat @ p_mat)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# exact entry-level product identities for band-limited symbols
# ---------------------------------------------------------------------------


def _coeff(d: dict, k: int) -> complex:
    return d.get(k, 0.0 + 0.0j)


def verify_product_identities(a: PCSymbol, b: PCSymbol, window: int) -> float:
    """Max entrywise deviation, over a square window of the infinite matrices, of

        T(ab) = T(a)T(b) + H(a)H(~b)    and    H(ab) = T(a)H(b) + H(a)T(~b).

    All sums are finite convolutions of the exact Laurent coefficients;
    non-band-limited symbols are rejected.
    """
    ca = laurent_coefficients(a)
    cb = laurent_coefficients(b)
    if not ca or not cb:
        return 0.0
    cab: dict[int, complex] = {}
    for k1, v1 in ca.items():
        for k2, v2 in cb.items():
            cab[k1 + k2] = cab.get(k1 + k2, 0.0) + v1 * v2
    lo_a, hi_a = min(ca), max(ca)
    lo_b, hi_b = min(cb), max(cb)

    err = 0.0
    for j in range(window):
        for k in range(window):
            # T(ab) vs T(a)T(b) + H(a)H(~b)
            tt = sum(_coeff(ca, j - m) * _coeff(cb, m - k)
                     for m in range(max(0, j - hi_a), j - lo_a + 1))
            hh = sum(_coeff(ca, j + m + 1) * _coeff(cb, -m - k - 1)
                     for m in range(0, max(0, hi_a - j)))
            err = max(err, abs(_coeff(cab, j - k) - tt - hh))
            # H(ab) vs T(a)H(b) + H(a)T(~b)
            th = sum(_coeff(ca, j - m) * _coeff(cb, m + k + 1)
                     for m in range(max(0, j - hi_a), j - lo_a + 1))
            ht = sum(_coeff(ca, j + m + 1) * _coeff(cb, k - m)
                     for m in range(0, max(0, hi_a - j)))
            err = max(err, abs(_coeff(cab, j + k + 1) - th - ht))
    return err


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericalKernel:
    dimension: int
    basis: np.ndarray = field(repr=False)  # columns span the kernel
    sv_threshold: float = SV_THRESHOLD
    smallest_kept_sv: Optional[float] = None
    largest_dropped_sv: Optional[float] = None
    edge_dimension: int = 0  # truncation artifacts excluded from `dimension`


def numerical_kernel(m: FiniteSectionMatrix | np.ndarray,
                     sv_threshold: float = SV_THRESHOLD) -> NumericalKernel:
    """SVD-based kernel with a mandatory spectral gap.

    A dimension is only reported when the smallest kept singular value
    exceeds the largest dropped one by SPECTRAL_GAP; otherwise the run
    is inconclusive and NoSpectralGap is raised.  Null vectors whose mass
    concentrates at the top edge of the window track the truncation cut
    rather than any fixed H^p function (the shift section T_n(t) kills
    e_{n-1}, for example); they are excluded from ``dimension`` and
    counted in ``edge_dimension``.  Non-finite entries raise
    PreconditionViolation.

    The singular values are computed first, without vectors.  When all of
    them clear ``sv_threshold`` and there are no more columns than rows,
    nothing is dropped, so neither refusal can fire (both need a dropped
    value), and the kernel is empty.  Only otherwise is the full SVD run,
    and the count, the refusals, the edge filter and the basis all come
    from its values and vectors.  The two LAPACK drivers agree to a few
    ulps, so a value that clears the threshold by less than relative 1e-9
    is left to the full SVD as well: a tie is decided as without the screen.

    :func:`kernel_dimension` gives the same ``dimension`` and the same
    refusals, mostly without an SVD: for a square A, a completed Cholesky
    of A^H A - shift I, shift = (2 sv_threshold)^2 + 16 (n + 2) u ||A||_F^2,
    certifies sigma_min(A) >= 2 sv_threshold despite the rounding of the
    Gram product and of the factorization (Higham 2002, ch. 3, Thm 10.3).
    """
    entries = _entries(m)
    cols = entries.shape[1]
    s = np.linalg.svd(entries, compute_uv=False)
    if _nothing_dropped(s, cols, sv_threshold):
        return NumericalKernel(0, np.zeros((cols, 0)), sv_threshold,
                               float(s.min()) if len(s) else None, None, 0)
    _, s, vh = np.linalg.svd(entries)
    dropped = s < sv_threshold
    n_dropped = int(np.count_nonzero(dropped))
    largest_dropped = float(s[dropped].max()) if n_dropped else None
    smallest_kept = float(s[~dropped].min()) if n_dropped < len(s) else None
    if n_dropped and smallest_kept is not None:
        if largest_dropped > 0 and smallest_kept / largest_dropped < SPECTRAL_GAP:
            raise NoSpectralGap(
                f"kept/dropped ratio {smallest_kept / largest_dropped:.1f} "
                f"below required {SPECTRAL_GAP:.0f}")
        if smallest_kept < sv_threshold:
            raise NoSpectralGap("smallest kept singular value below the threshold")
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


def _entries(m: FiniteSectionMatrix | np.ndarray) -> np.ndarray:
    """The matrix of ``m``; PreconditionViolation unless every entry is finite."""
    entries = m.entries if isinstance(m, FiniteSectionMatrix) else np.asarray(m)
    if not np.isfinite(entries).all():
        raise PreconditionViolation("section entries must be finite")
    return entries


def _nothing_dropped(s: np.ndarray, cols: int, sv_threshold: float) -> bool:
    """Every singular value clears the threshold by relative 1e-9 (a tie
    margin for the values of two LAPACK drivers) and there are no more
    columns than values: no value is dropped and neither refusal can fire."""
    return cols <= len(s) and not np.any(s < sv_threshold * (1 + 1e-9))


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_GRAM_SLACK = 16  # covers the complex rounding of the Gram product and of Cholesky


def _certified_full_rank(entries: np.ndarray, floor: float,
                         gram: Optional[np.ndarray] = None) -> bool:
    """True only when sigma_min(A) >= floor, for A square, by one Cholesky.

    G = conj(A^H A) is formed by zherk and shift = floor^2 + 16 (n + 2) u
    ||A||_F^2 is subtracted from its diagonal.  The computed G is
    A^H A + E_gram with ||E_gram||_2 <= sqrt(2) gamma_{n+2} ||A||_F^2
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3,
    complex inner products), and a Cholesky factor R that zpotrf completes
    satisfies R^H R = G - shift I + E_chol with ||E_chol||_2 <=
    gamma_{n+2} trace(R^H R) (Thm 10.3, complex).  Since R^H R is
    positive semidefinite, lambda_min(A^H A) >= shift - ||E_gram|| -
    ||E_chol|| >= floor^2: about 3 (n + 2) u ||A||_F^2 of the slack covers
    the two errors and the rounding of the shift.  So a completed
    factorization certifies the bound; a failed one certifies nothing.
    G is formed and factored in ``gram``, an F-ordered n x n complex
    array, when given.
    """
    from scipy.linalg.blas import zherk
    from scipy.linalg.lapack import zpotrf

    n = entries.shape[0]
    if entries.shape != (n, n) or not n:
        return False
    a = np.asarray(entries, dtype=complex)
    # a.T is the F-ordered view of A^T: upper triangle of conj(A^H A)
    gram = zherk(1.0, a.T, c=gram, overwrite_c=gram is not None)
    shift = floor * floor + _GRAM_SLACK * (n + 2) * _UNIT_ROUNDOFF * gram.diagonal().real.sum()
    gram[np.diag_indices(n)] -= shift
    return zpotrf(gram, lower=0, clean=0, overwrite_a=1)[1] == 0


def _one_dropped_dimension(entries: np.ndarray, s: np.ndarray,
                           sv_threshold: float) -> Optional[int]:
    """The count of the full SVD when exactly one value is dropped behind a
    clean gap, from one vector by inverse iteration; None when undecided.

    The values-only and the full SVD are two LAPACK drivers whose values
    agree to an absolute d = n u s[0], not to a relative margin: a value
    far below s[0] may differ between them by much more than its last
    digits.  So this applies only to a square matrix whose values-only SVD
    has s[-1] + d below the threshold, s[-2] - d at least the threshold and
    s[-2] - d >= SPECTRAL_GAP (s[-1] + d): whatever the full SVD reads
    within d of these values, it drops the same one value and cannot
    refuse.  Three steps of inverse iteration on A^H A, through one LU of A
    with its zero or tiny pivots raised to eps s[0], give a unit x.  With
    r = ||A x|| + n u ||A||_F, which bounds the rounding of A x and of
    s[-2], the angle between x and the dropped singular vector has
    sin(theta) <= r / (s[-2] - r), and the top-edge mass ||x[top:]||^2 is
    within 4 sin(theta) of the full SVD vector's.  An edge vector counts 0,
    any other 1; a mass within that margin of 1/2 is left to the full SVD.
    """
    from scipy.linalg import lu_solve
    from scipy.linalg.lapack import zgetrf

    n = len(s)
    if entries.shape != (n, n) or n < 2:
        return None
    d = n * _UNIT_ROUNDOFF * s[0]
    if not (s[-1] + d < sv_threshold <= s[-2] - d
            and s[-2] - d >= SPECTRAL_GAP * (s[-1] + d)):
        return None
    a = np.asarray(entries, dtype=complex)
    lu, piv, _ = zgetrf(a)  # LAPACK directly: a singular U is expected, not a warning
    pivots = np.abs(lu.diagonal())
    small = np.flatnonzero(pivots < np.finfo(float).eps * s[0])
    lu[small, small] = np.finfo(float).eps * s[0]
    rng = np.random.default_rng(0)  # a fixed start; ones is orthogonal to kernels like t^2 - 1
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # several raised pivots can overflow x; its residual is then NaN and
    # the comparisons below leave the count to the full SVD
    with np.errstate(all="ignore"):
        for _ in range(3):
            x = lu_solve((lu, piv), lu_solve((lu, piv), x, trans=2, check_finite=False),
                         check_finite=False)
            x /= np.linalg.norm(x)
        r = np.linalg.norm(a @ x) + n * _UNIT_ROUNDOFF * np.linalg.norm(s)
        mass = np.linalg.norm(x[int(0.75 * n):]) ** 2
    if not r < s[-2]:
        return None
    sin_theta = r / (s[-2] - r)
    if not abs(mass - 0.5) > 4 * sin_theta:
        return None
    return 0 if mass > 0.5 else 1


def kernel_dimension(m: FiniteSectionMatrix | np.ndarray,
                     sv_threshold: float = SV_THRESHOLD) -> int:
    """``numerical_kernel(m, sv_threshold).dimension``, with the same
    NoSpectralGap refusals, from the cheapest of four stages:

    1. a square section with sigma_min >= 2 sv_threshold certified by a
       shifted Gram-Cholesky test (``_certified_full_rank``: with
       shift = (2 sv_threshold)^2 + 16 (n + 2) u ||A||_F^2, a completed
       Cholesky of A^H A - shift I proves lambda_min(A^H A) >= (2
       sv_threshold)^2) counts 0 without an SVD.  Such a sigma_min also
       exceeds sqrt(13 (n + 2) u) ||A||_F, and the values-only SVD errs by
       O(n u ||A||_2), far less, so it would drop nothing either;
    2. the values-only SVD of ``numerical_kernel``; nothing dropped counts 0;
    3. exactly one dropped value behind a clean gap: its vector, by inverse
       iteration, decides edge (0) or not (1) when its certified angle
       leaves no doubt (``_one_dropped_dimension``);
    4. otherwise ``numerical_kernel`` itself, the only stage that refuses.
    """
    return _kernel_dimension(_entries(m), sv_threshold)


def _kernel_dimension(entries: np.ndarray, sv_threshold: float,
                      gram: Optional[np.ndarray] = None) -> int:
    """:func:`kernel_dimension` of finite ``entries``, with the Gram matrix of
    stage 1 formed in ``gram`` when given."""
    if _certified_full_rank(entries, 2 * sv_threshold, gram):
        return 0
    s = np.linalg.svd(entries, compute_uv=False)
    if _nothing_dropped(s, entries.shape[1], sv_threshold):
        return 0
    dim = _one_dropped_dimension(entries, s, sv_threshold)
    if dim is not None:
        return dim
    return numerical_kernel(entries, sv_threshold).dimension


def apply_operator(a: PCSymbol, b: PCSymbol, sign: int, poly: np.ndarray,
                   n_out: int = 256) -> np.ndarray:
    """First n_out coefficients of (T(a) + sign*H(b)) applied to a polynomial.

    The input is finitely supported, so every output coefficient is an
    exact finite sum of symbol coefficients; there is no truncation error
    on the input side.
    """
    x = np.asarray(poly, dtype=complex)
    deg = len(x) - 1
    ca = coefficient_range(a, -deg, n_out - 1)     # indices -deg .. n_out-1
    cb = coefficient_range(b, 1, n_out + deg)      # indices 1 .. n_out+deg
    return _section_times(ca, x, n_out) + sign * _section_times(cb, x[::-1], n_out)


# ---------------------------------------------------------------------------
# kernel dimension of diag(T(a)+H(b), T(a)-H(b)) from the subordinated pair
# ---------------------------------------------------------------------------


def _solve_section(coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve T_n x = rhs for the section with coefficients a_{-(n-1)} .. a_{n-1}.

    Levinson recursion solves in O(n^2) but is not backward stable: two power
    arcs anchored close together can leave a residual 1e6 times that of LU.
    So its solution is kept only when the normwise backward error
    ||T x - rhs|| / (||T|| ||x|| + ||rhs||), in the max norm of each column
    with ||T|| bounded by the sum of |a_k|, is at most n * eps, which LU with
    partial pivoting attains in practice.  Otherwise, and when a leading
    minor is singular, the dense section is solved by LU.
    """
    from scipy.linalg import LinAlgError, solve_toeplitz

    n = rhs.shape[0]
    try:
        x = solve_toeplitz(_column_and_row(coeffs), rhs)
    except LinAlgError:
        x = None
    if x is not None:
        residual = np.abs(_section_times(coeffs, x, n) - rhs).max(axis=0)
        scale = np.abs(coeffs).sum() * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
        if np.all(residual <= n * np.finfo(float).eps * scale):
            return x
    return np.linalg.solve(_toeplitz_view(coeffs, n), rhs)


def _compression(u0: PCSymbol, v0: PCSymbol, w: PCSymbol, kappa1: int, size: int,
                 tol: float) -> np.ndarray:
    """T_size^-1(u0) T_size(w) T_size^-1(v0) on the first kappa1 unit vectors,
    by structured solves; no dense section is built unless one is declined."""
    if not kappa1:
        return np.zeros((size, 0), dtype=complex)
    c_u0, c_v0, c_w = (coefficient_range(s, -(size - 1), size - 1, tol=tol)
                       for s in (u0, v0, w))
    z = _solve_section(c_v0, np.eye(size, kappa1, dtype=complex))
    return _solve_section(c_u0, _section_times(c_w, z, size))


@dataclass(frozen=True)
class KernelFormulaResult:
    dimension: int
    kappa1: int
    kappa2: int
    quadrant: str
    rank: Optional[int] = None
    alt_dimension: Optional[int] = None
    reduced_matrix: Optional[np.ndarray] = field(default=None, repr=False)


def kernel_formula_eval(pair: MatchingPair, kappa1: int, kappa2: int, n: int = 512,
                        sv_threshold: float = SV_THRESHOLD,
                        tol: float = QUADRATURE_TOL) -> KernelFormulaResult:
    """dim ker diag(T(a)+H(b), T(a)-H(b)) from the subordinated indices
    kappa1 = ind T(d) and kappa2 = ind T(c) of the pair:

    * in the three sign-agreeing quadrants the dimension equals
      dim ker diag(T(d), T(c)) = max(kappa1, 0) + max(kappa2, 0);
    * for kappa1 >= 0 > kappa2 it is the kernel dimension of the
      finite-rank compression

          P_{-kappa2-1} T^-1(c t^kappa2) T((~a)^-1) T^-1(d t^kappa1)

      acting on im P_{kappa1-1}, realized on size-n sections, i.e.
      kappa1 - rank of a (-kappa2) x kappa1 matrix.  The variant with the
      projection of rank -kappa2 + 2 is evaluated alongside for logging.
      The compression is compared with the one on sections of size
      max(n // 2, 8 max(kappa1, -kappa2)), which must be below n
      (PreconditionViolation otherwise).

    The sections are read from their coefficient vectors and solved by
    Levinson recursion, with T(w) applied by convolution, so no dense n x n
    matrix is built.  A structured solution is kept only when its backward
    error is certified at most n * eps; otherwise, or when a leading minor
    is singular, that section is solved densely by LU (see
    ``_solve_section``).  The sizes and the rank rule do not depend on
    which solve was used.

    ``tol`` bounds the quadrature coefficients of the sections.
    """
    if kappa1 >= 0 and kappa2 >= 0:
        return KernelFormulaResult(kappa1 + kappa2, kappa1, kappa2, "k1>=0,k2>=0")
    if kappa1 < 0 and kappa2 >= 0:
        return KernelFormulaResult(kappa2, kappa1, kappa2, "k1<0,k2>=0")
    if kappa1 < 0 and kappa2 < 0:
        return KernelFormulaResult(0, kappa1, kappa2, "k1<0,k2<0")

    # kappa1 >= 0 > kappa2: compress through the one-sided inverse sections
    u0 = sy.product(pair.c, Monomial(kappa2))      # index 0, T(u0) invertible
    v0 = sy.product(pair.d, Monomial(kappa1))      # index 0
    w = sy.inverse(sy.tilde(pair.a))

    n_half = max(n // 2, 8 * max(kappa1, -kappa2))
    if n_half >= n:
        raise PreconditionViolation(
            f"section size {n} leaves no smaller section to compare with "
            f"(the comparison needs {n_half}); use a size above {n_half}")
    m_full = _compression(u0, v0, w, kappa1, n, tol)
    m_half = _compression(u0, v0, w, kappa1, n_half, tol)

    def dims(rows: int) -> tuple[int, int]:
        reduced = m_full[:rows, :]
        if not min(reduced.shape):
            return kappa1, 0
        s = np.linalg.svd(reduced, compute_uv=False)
        s_half = np.linalg.svd(m_half[:rows, :], compute_uv=False)
        scale = max(float(s.max()), 1e-30)
        rank = int(np.count_nonzero(s > max(sv_threshold, 1e-12 * scale)))
        # singular values near the section-error floor that still move when
        # the section size doubles have not converged: refuse to decide
        for sv, sv_half in zip(s, s_half):
            if sv_threshold < sv < 1e-2 * scale \
                    and abs(sv - sv_half) > 0.3 * max(sv, sv_half):
                raise NoSpectralGap(
                    f"compression singular value {sv:.2e} still moving between "
                    f"section sizes (was {sv_half:.2e}); dimension undecidable")
        return kappa1 - rank, rank

    dim, rank = dims(-kappa2)
    alt_dim, _ = dims(min(-kappa2 + 2, n))
    return KernelFormulaResult(dim, kappa1, kappa2, "k1>=0,k2<0", rank, alt_dim,
                               m_full[: -kappa2, :].copy())
