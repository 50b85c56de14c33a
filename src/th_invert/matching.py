"""Matching pairs and their subordinated structure.

A pair (a, b) of invertible generating functions is *matching* when
a(t) * a(1/t) = b(t) * b(1/t) on the circle.  The subordinated functions
c = a/b and d = b / ~a then satisfy c * ~c = d * ~d = 1 exactly, and the
2x2 matrix symbol attached to the pair becomes triangular.  Each entry of
that symbol is a rational function of a(t), b(t), ~a(t) = a(1/t) and
~b(t) = b(1/t), so :class:`MatrixSymbol` computes it from those four
values.  The matching condition is checked in the non-normalized form
(the common product a * ~a may be any invertible function, e.g. a
constant i); the reports record its constant value when it is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .defaults import GRID_N, INVERTIBILITY_TOL, MATCHING_TOL
from .errors import DivisionBySmallModulus, NotInvertible
from . import symbols as sym
from .symbols import (LEFT, RIGHT, TWO_PI, CirclePoint, Const, PCSymbol, check_invertible,
                      evaluate_array, evaluate_both_sides, grid_angles)


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


def _reciprocal(v):
    """1/v, refused below the invertibility tolerance as for an inverted symbol."""
    smallest = abs(v) if np.isscalar(v) else np.min(np.abs(v), initial=np.inf)
    if smallest < INVERTIBILITY_TOL:
        raise DivisionBySmallModulus(f"modulus {smallest:.3e} below {INVERTIBILITY_TOL:.1e}")
    return 1.0 / v


@dataclass(frozen=True)
class MatrixSymbol:
    """The 2x2 matrix symbol U(a, b), computed from the values of a and b.

    With a, b, ~a, ~b the one-sided values of a(t), b(t), a(1/t), b(1/t),
    the general matrix is [[a - b*~b/~a, -b/~a], [~b/~a, 1/~a]] and the
    triangular one of a matching pair is [[0, -b/~a], [a/b, 1/~a]], that is
    [[0, -d], [c, (~a)^-1]]; both have determinant a/~a.  If the entries are
    continuous at t, so are ~a, then b, a and ~b (~b = a*~a/b for a matching
    pair): U jumps only where a or b jumps, at t or at 1/t.
    """

    a: PCSymbol
    b: PCSymbol
    general: bool
    _one_sided: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __getitem__(self, idx) -> PCSymbol:
        """Entry (i, j) as a symbol tree: the reference for the value formulas."""
        a, b, ta_inv, tb = self.a, self.b, sym.inverse(sym.tilde(self.a)), sym.tilde(self.b)
        if self.general:
            rows = ((a - b * tb * ta_inv, -(b * ta_inv)), (tb * ta_inv, ta_inv))
        else:
            rows = ((Const(0.0), -sym.product(b, ta_inv)), (sym.product(a, sym.inverse(b)), ta_inv))
        return rows[idx[0]][idx[1]]

    def _matrix(self, a, b, ta, tb) -> np.ndarray:
        ta_inv = _reciprocal(ta)
        top_left, corner = (a - b * tb * ta_inv, tb * ta_inv) if self.general else (
            0.0, a * _reciprocal(b))
        return np.array([[top_left, -(b * ta_inv)], [corner, ta_inv]], dtype=complex)

    def _sides(self, angle: float, sides) -> tuple[np.ndarray, np.ndarray]:
        """(U(t-0), U(t+0)) from sides(f, angle) = (f(t-0), f(t+0)); ~f(t-0) = f(1/t+0)."""
        (al, ar), (bl, br) = sides(self.a, angle), sides(self.b, angle)
        mirror = CirclePoint(-angle).angle
        (tar, tal), (tbr, tbl) = sides(self.a, mirror), sides(self.b, mirror)
        return self._matrix(al, bl, tal, tbl), self._matrix(ar, br, tar, tbr)

    def evaluate_matrix(self, t, side) -> np.ndarray:
        """U(t+0) for side "right", U(t-0) for "left"."""
        angle = t.angle if isinstance(t, CirclePoint) else CirclePoint(t).angle
        return self._sides(angle, sym.evaluate_sides)[(LEFT, RIGHT).index(side)]

    def determinant(self, thetas: np.ndarray) -> np.ndarray:
        """det U = a/~a at angles where neither a nor ~a jumps."""
        return evaluate_array(self.a, thetas) * _reciprocal(
            evaluate_array(self.a, np.mod(-thetas, TWO_PI)))

    def jump_angles(self) -> list[float]:
        """The jump angles of a and b and their reflections."""
        angles = {pt.angle for f in (self.a, self.b) for pt, _, _ in sym.jump_set(f)}
        return sym.dedupe_angles(angles | {CirclePoint(-x).angle for x in angles})

    def one_sided(self) -> dict:
        """{angle: (U(t-0), U(t+0))} at every jump angle, from the jump sets of
        a and b; a function is evaluated only at angles where it does not jump.
        Computed once per instance and shared by every route that reads it."""
        if self._one_sided is None:
            object.__setattr__(self, "_one_sided", self._one_sided_matrices())
        return self._one_sided

    def _one_sided_matrices(self) -> dict:
        jumps = {id(f): sym.jump_set(f) for f in (self.a, self.b)}
        breaks = {id(f): sym._jump_candidates(f) | {0.0} for f in (self.a, self.b)}
        snap = 10 * sym.ANGLE_SNAP

        def sides(f, angle):
            for pt, left, right in jumps[id(f)]:
                if abs(math.remainder(pt.angle - angle, TWO_PI)) <= snap:
                    return left, right
            if any(abs(math.remainder(x - angle, TWO_PI)) <= snap for x in breaks[id(f)]):
                return sym.evaluate_sides(f, angle)
            # away from every break of f both one-sided evaluations take the
            # same path, so one of them gives both values
            value = sym.evaluate(f, angle)
            return value, value

        return {angle: self._sides(angle, sides) for angle in self.jump_angles()}


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
    return MatrixSymbol(pair.a, pair.b, general=False)


def build_u_matrix_general(a: PCSymbol, b: PCSymbol) -> MatrixSymbol:
    """The general (not necessarily matching) matrix symbol of (a, b)."""
    return MatrixSymbol(a, b, general=True)


def pair_product(p1: MatchingPair, p2: MatchingPair, tol: float = MATCHING_TOL) -> MatchingPair:
    """Group operation (a1, b1)(a2, b2) = (a1*a2, b1*b2)."""
    return make_matching_pair(p1.a * p2.a, p1.b * p2.b, tol)
