"""Matching pairs and their subordinated structure.

A pair (a, b) of invertible generating functions is *matching* when
a(t) * a(1/t) = b(t) * b(1/t) on the circle.  The subordinated functions
c = a/b and d = b / ~a then satisfy c * ~c = d * ~d = 1 exactly, and the
2x2 matrix symbol attached to the pair becomes triangular.  The matching
condition is checked in the non-normalized form (the common product
a * ~a may be any invertible function, e.g. a constant i); the reports
record its constant value when it is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .defaults import GRID_N, INVERTIBILITY_TOL, MATCHING_TOL
from .errors import NotInvertible
from . import symbols as sym
from .symbols import PCSymbol, Const, check_invertible, evaluate_both_sides, grid_angles


@dataclass(frozen=True)
class MatchingPair:
    """A matching pair with cached subordinated functions.

    c = a * b^-1 and d = b * (~a)^-1; residual is the grid maximum of
    |a*~a - b*~b|; match_constant is the constant value of a*~a when the
    product is grid-constant (None otherwise).
    """

    a: PCSymbol
    b: PCSymbol
    c: PCSymbol
    d: PCSymbol
    residual: float
    match_constant: Optional[complex] = None

    def inverse_pair(self) -> "MatchingPair":
        return make_matching_pair(sym.inverse(self.a), sym.inverse(self.b))


@dataclass(frozen=True)
class MatrixSymbol:
    """2x2 matrix of symbols, stored row-major."""

    entries: tuple  # ((e00, e01), (e10, e11))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def evaluate_matrix(self, t, side) -> np.ndarray:
        return np.array(
            [[sym.evaluate(self.entries[i][j], t, side) for j in range(2)] for i in range(2)],
            dtype=complex,
        )

    def jump_angles(self) -> list[float]:
        angles: set[float] = set()
        for row in self.entries:
            for entry in row:
                angles |= {pt.angle for pt, _, _ in sym.jump_set(entry)}
        return sym.dedupe_angles(angles)


@dataclass(frozen=True)
class MatchRejection:
    max_residual: float


def matching_residual(a: PCSymbol, b: PCSymbol, n: int = GRID_N) -> tuple[float, Optional[complex]]:
    """Grid maximum of |a*~a - b*~b| and the constant value of a*~a if constant."""
    lhs = a * sym.tilde(a)
    rhs = b * sym.tilde(b)
    angles = grid_angles([lhs, rhs], n)
    ll, lr = evaluate_both_sides(lhs, angles)
    rl, rr = evaluate_both_sides(rhs, angles)
    residual = float(max(np.max(np.abs(ll - rl)), np.max(np.abs(lr - rr))))
    values = np.concatenate([ll, lr])
    center = values.mean()
    constant = complex(center) if float(np.max(np.abs(values - center))) < MATCHING_TOL else None
    return residual, constant


def is_matching_pair(a: PCSymbol, b: PCSymbol, tol: float = MATCHING_TOL,
                     n: int = GRID_N, invertibility_tol: float = INVERTIBILITY_TOL
                     ) -> Union[MatchingPair, MatchRejection]:
    """Check the matching condition a*~a = b*~b on the grid.

    Returns the pair with subordinated functions built on success, or the
    maximal residual on failure.  Both generating functions must be
    invertible (Fredholmness of T(a)+H(b) presumes invertible a): a grid
    modulus below ``invertibility_tol`` raises NotInvertible.
    """
    check_invertible(a, invertibility_tol, n)
    check_invertible(b, invertibility_tol, n)
    residual, constant = matching_residual(a, b, n)
    if residual >= tol:
        return MatchRejection(residual)
    c = sym.product(a, sym.inverse(b))
    d = sym.product(b, sym.inverse(sym.tilde(a)))
    return MatchingPair(a, b, c, d, residual, constant)


def make_matching_pair(a: PCSymbol, b: PCSymbol, tol: float = MATCHING_TOL,
                       invertibility_tol: float = INVERTIBILITY_TOL) -> MatchingPair:
    result = is_matching_pair(a, b, tol, invertibility_tol=invertibility_tol)
    if isinstance(result, MatchRejection):
        raise NotInvertible(
            f"(a, b) is not a matching pair: residual {result.max_residual:.3e}")
    return result


def is_matching_function(c: PCSymbol, tol: float = MATCHING_TOL, n: int = GRID_N) -> bool:
    """Grid check of c * ~c = 1."""
    prod = c * sym.tilde(c)
    angles = grid_angles(prod, n)
    left, right = evaluate_both_sides(prod, angles)
    dev = max(np.max(np.abs(left - 1.0)), np.max(np.abs(right - 1.0)))
    return bool(dev < tol)


def build_u_matrix(pair: MatchingPair) -> MatrixSymbol:
    """Triangular matrix symbol [[0, -d], [c, (~a)^-1]] of a matching pair."""
    ta_inv = sym.inverse(sym.tilde(pair.a))
    return MatrixSymbol(((Const(0.0), -pair.d), (pair.c, ta_inv)))


def build_u_matrix_general(a: PCSymbol, b: PCSymbol) -> MatrixSymbol:
    """The general (not necessarily matching) matrix symbol

        [[a - b*~b*(~a)^-1,  -b*(~a)^-1],
         [     ~b*(~a)^-1,      (~a)^-1]].
    """
    ta_inv = sym.inverse(sym.tilde(a))
    tb = sym.tilde(b)
    return MatrixSymbol((
        (a - b * tb * ta_inv, -(b * ta_inv)),
        (tb * ta_inv, ta_inv),
    ))


def pair_product(p1: MatchingPair, p2: MatchingPair, tol: float = MATCHING_TOL) -> MatchingPair:
    """Group operation (a1, b1)(a2, b2) = (a1*a2, b1*b2)."""
    return make_matching_pair(p1.a * p2.a, p1.b * p2.b, tol)
