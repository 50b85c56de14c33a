"""Wiener-Hopf factorization of power functions on the circle.

The power function phi_beta (a ``PowerArc`` anchored at 1) factors as

    phi_beta(t) = xi_{-beta}(t) * eta_beta(t),   t != 1,

where xi_beta(t) = (1 - 1/t)^beta extends analytically to |z| > 1 with
value 1 at infinity and eta_beta(t) = (1 - t)^beta extends analytically to
|z| < 1 with value 1 at 0.  Both factors take their values in the half
plane Re > 0 disk around 1, so the principal logarithm realizes the
analytic branches.  The coefficient streams are the rising-factorial
binomial series; their zeroth-order autocorrelation yields the constant

    c0 = 1 + sum_k ((beta)_k / k!)^2,

the Fourier coefficient at t^0 of xi_{-beta} * eta_{-beta}, which decides
a one-dimensional kernel test in the mixed-index regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import toeplitz_index
from .errors import PreconditionViolation, SeriesDiverges
from . import symbols as sy
from .symbols import CirclePoint, Monomial, PCSymbol, POINT_ONE, power_arc


def power_function(beta: complex, anchor: CirclePoint | float = POINT_ONE) -> PCSymbol:
    """The power symbol with one-sided limits exp(-+ i*pi*beta) at the anchor."""
    return power_arc(beta, anchor)


def rising_stream(beta: complex, n_terms: int) -> np.ndarray:
    """Coefficients (beta)_k / k! of (1 - x)^(-beta), k = 0..n_terms-1."""
    if n_terms < 1:
        raise PreconditionViolation("need at least one term")
    out = np.empty(n_terms, dtype=complex)
    out[0] = 1.0
    for k in range(n_terms - 1):
        out[k + 1] = out[k] * (k + beta) / (k + 1)
    return out


def xi_boundary(beta: complex, t: complex) -> complex:
    """Boundary value of the branch of (1 - 1/z)^beta analytic in |z| > 1."""
    w = 1.0 - 1.0 / t
    return complex(np.exp(beta * np.log(w)))  # w lies in the disk around 1, Re w > 0


def eta_boundary(beta: complex, t: complex) -> complex:
    """Boundary value of the branch of (1 - z)^beta analytic in |z| < 1."""
    w = 1.0 - t
    return complex(np.exp(beta * np.log(w)))


@dataclass(frozen=True)
class PowerFactorization:
    """Coefficient streams of the factorization phi_beta = xi_{-beta} * eta_beta.

    ``xi_coeffs[k]`` multiplies t^-k in xi_{-beta}; ``eta_coeffs[k]``
    multiplies t^k in eta_beta.  ``valid_p`` is the open exponent interval
    on which T(phi_beta) is invertible, making this a genuine Wiener-Hopf
    factorization with respect to H^p.
    """

    beta: complex
    xi_coeffs: np.ndarray = field(repr=False)
    eta_coeffs: np.ndarray = field(repr=False)
    valid_p: Optional[tuple[float, float]] = None


def invertibility_window(beta: float) -> tuple[float, float]:
    """Exponent interval on which T(phi_beta) is invertible, for real beta in (0, 1).

    The completing arc joins exp(i*pi*beta) to exp(-i*pi*beta); it sweeps
    through the origin exactly when 1/p = beta (Gohberg-Krupnik, as in
    :func:`calculus.critical_exponents`), and the index vanishes on the
    small-p side of that critical exponent.
    """
    if not (0.0 < beta < 1.0):
        raise PreconditionViolation("window computed for real beta in (0, 1) only")
    return (1.0, 1.0 / beta)


def binomial_streams(beta: complex, n_terms: int) -> PowerFactorization:
    """First ``n_terms`` coefficients of xi_{-beta} and eta_beta."""
    xi = rising_stream(beta, n_terms)           # xi_{-beta}: (beta)_k / k! at t^-k
    eta = rising_stream(-beta, n_terms)         # eta_beta:  (-beta)_k / k! at t^k
    window = None
    if beta.imag == 0 and 0.0 < beta.real < 1.0:
        window = invertibility_window(beta.real)
    return PowerFactorization(complex(beta), xi, eta, window)


def c0_coefficient(beta: float, tail_tol: float = 1e-12,
                   max_terms: int = 200_000_000) -> tuple[complex, float]:
    """The constant c0 = 1 + sum_k ((beta)_k / k!)^2 with a certified tail.

    The terms decay like k^(2*beta - 2), too slowly to reach small
    tolerances by brute summation, so the remainder after K terms is
    completed by the Hurwitz-zeta sandwich obtained from
    (k+beta)^(beta-1) <= Gamma(k+beta)/Gamma(k+1) <= k^(beta-1):

        zeta(s, K+1+beta) <= Gamma(beta)^2 * tail <= zeta(s, K+1),

    with s = 2 - 2*beta > 1.  Returns (value, half-width of the sandwich);
    summation stops once the half-width drops below ``tail_tol``.
    """
    from scipy.special import gamma, zeta

    beta = float(beta)
    if not (0.0 < beta < 0.5):
        raise SeriesDiverges("the squared-term series needs 0 < beta < 1/2")
    s = 2.0 - 2.0 * beta
    gamma_sq = float(gamma(beta)) ** 2

    total = 1.0  # k = 0 term
    term = 1.0   # (beta)_k / k! at current k
    k = 0
    chunk = 4096
    while True:
        ks = np.arange(k, k + chunk, dtype=float)
        ratios = (ks + beta) / (ks + 1.0)
        terms = term * np.cumprod(ratios)
        total += float(np.sum(terms * terms))
        term = float(terms[-1])
        k += chunk
        upper = float(zeta(s, k + 1)) / gamma_sq
        lower = float(zeta(s, k + 1 + beta)) / gamma_sq
        half_width = 0.5 * (upper - lower)
        if half_width < tail_tol:
            return complex(total + 0.5 * (upper + lower)), half_width
        if k >= max_terms:
            raise SeriesDiverges(
                f"tail half-width {half_width:.2e} still above {tail_tol:.1e} "
                f"after {k} terms")
        chunk = min(2 * chunk, 1 << 22)


def c0_quadrature(beta: float) -> tuple[float, float]:
    """Independent oracle: c0 = (1/pi) * integral_0^pi (2 sin u)^(-2*beta) du.

    The integrand is |xi_{-beta} * eta_{-beta}| on the circle (the phases
    of the two factors cancel), so this is the t^0 Fourier coefficient
    computed directly.
    """
    from scipy.integrate import quad

    if not (0.0 < beta < 0.5):
        raise SeriesDiverges("the Fourier integral needs 0 < beta < 1/2")
    val, err = quad(lambda u: (2.0 * math.sin(u)) ** (-2.0 * beta), 0.0, math.pi, limit=400)
    return val / math.pi, err / math.pi


@dataclass(frozen=True)
class OneSidedInversePlan:
    """Composition plan for a one-sided inverse of a Fredholm T(psi).

    psi = psi0 * t^n with T(psi0) invertible and n = -ind T(psi); for
    n <= 0 a right inverse is T^-1(psi0) T(t^-n), for n >= 0 a left
    inverse is T(t^-n) T^-1(psi0).
    """

    n: int
    psi0: PCSymbol
    side: str  # "left" | "right" | "two_sided"
    composition: tuple

    def materialize(self, size: int = 512):
        """Dense realization of the plan plus a truncation-quality residual.

        T^-1(psi0) is the inverse of the ``size`` finite section; the
        residual re-applies the doubled section to the computed first
        column and measures the defect from e0.
        """
        from .sections import toeplitz_matrix

        t_inv_shift = toeplitz_matrix(Monomial(-self.n), size).entries
        a0 = toeplitz_matrix(self.psi0, size).entries
        inv0 = np.linalg.inv(a0)
        big = toeplitz_matrix(self.psi0, 2 * size).entries
        x = np.zeros(2 * size, dtype=complex)
        x[:size] = inv0[:, 0]
        residual = float(np.linalg.norm(big @ x - np.eye(2 * size, 1).ravel()))
        if self.n <= 0:
            plan = inv0 @ t_inv_shift
        else:
            plan = t_inv_shift @ inv0
        return plan, residual


def one_sided_inverse_plan(psi: PCSymbol, p) -> OneSidedInversePlan:
    """Shift bookkeeping for inverting T(psi) from one side on H^p."""
    index = toeplitz_index(psi, p).require()
    n = -index
    psi0 = sy.product(psi, Monomial(-n))
    if n == 0:
        side = "two_sided"
        comp = ("inv(T(psi0))",)
    elif n < 0:
        side = "right"
        comp = ("inv(T(psi0))", f"T(t^{-n})")
    else:
        side = "left"
        comp = (f"T(t^{-n})", "inv(T(psi0))")
    return OneSidedInversePlan(n, psi0, side, comp)
