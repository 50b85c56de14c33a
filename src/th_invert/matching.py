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

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .defaults import INVERTIBILITY_TOL, JUMP_TOL, MATCHING_TOL
from .errors import NotInvertible
from . import symbols as sym
from .symbols import (CirclePoint, PCSymbol, check_invertible, evaluate_both_sides,
                      evaluate_sides, grid_angles, reciprocal)


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
    """The 2x2 matrix symbol U(a, b), computed from the values of a and b.

    With a, b, ~a, ~b the one-sided values of a(t), b(t), a(1/t), b(1/t),
    the general matrix is [[a - b*~b/~a, -b/~a], [~b/~a, 1/~a]] and the
    triangular one of a matching pair is [[0, -b/~a], [a/b, 1/~a]], that is
    [[0, -d], [c, (~a)^-1]]; both have determinant a/~a.  So U can jump
    only at the breaks of a and b and their reflections.
    """

    a: PCSymbol
    b: PCSymbol
    general: bool
    _one_sided: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def _matrix(self, a, b, ta, tb) -> np.ndarray:
        ta_inv = reciprocal(ta)
        top_left, corner = (a - b * tb * ta_inv, tb * ta_inv) if self.general else (
            0.0, a * reciprocal(b))
        return np.array([[top_left, -(b * ta_inv)], [corner, ta_inv]], dtype=complex)

    def _sides(self, angle: float, read: Callable = evaluate_sides
               ) -> tuple[np.ndarray, np.ndarray]:
        """(U(t-0), U(t+0)) from the one-sided values of a and b, each pair
        given by ``read(symbol, angle)``; ~f(t-0) = f(1/t+0)."""
        (al, ar), (bl, br) = read(self.a, angle), read(self.b, angle)
        mirror = CirclePoint(-angle).angle
        (tar, tal), (tbr, tbl) = read(self.a, mirror), read(self.b, mirror)
        return self._matrix(al, bl, tal, tbl), self._matrix(ar, br, tar, tbr)

    def evaluate_matrix(self, t, side) -> np.ndarray:
        """U(t+0) for side "right", U(t-0) for "left"."""
        angle = t.angle if isinstance(t, CirclePoint) else CirclePoint(t).angle
        return self._sides(angle)[sym.side_index(side)]

    def jump_angles(self) -> list[float]:
        """The angles where some entry of U jumps, sorted."""
        return list(self.one_sided())

    def one_sided(self) -> dict:
        """{angle: (U(t-0), U(t+0))} at every angle where some entry of U jumps
        by more than JUMP_TOL.  Computed once per instance and shared by
        every route that reads it."""
        if self._one_sided is None:
            object.__setattr__(self, "_one_sided", self._one_sided_matrices())
        return self._one_sided

    def _one_sided_matrices(self) -> dict:
        """The one-sided matrices at every break of a and b and its reflection,
        kept where an entry jumps: an entry can jump more than a or b does.
        Each (symbol, angle) is read once, and the angle and its reflection
        share the reads: from the symbol's own break table at one of its
        break angles, by evaluate_sides (the same values) elsewhere."""
        breaks = {f: {x: (left, right) for x, left, right in sym._one_sided_at_breaks(f)}
                  for f in (self.a, self.b)}
        angles = {x for at_breaks in breaks.values() for x in at_breaks}
        reads = {}

        def read(f: PCSymbol, angle: float) -> tuple[complex, complex]:
            if (f, angle) not in reads:
                reads[f, angle] = breaks[f].get(angle) or evaluate_sides(f, angle)
            return reads[f, angle]

        table = {}
        for angle in sym.dedupe_angles(angles | {CirclePoint(-x).angle for x in angles}):
            left, right = self._sides(angle, read)
            if np.max(np.abs(left - right)) > JUMP_TOL:
                table[angle] = (left, right)
        return table


@dataclass(frozen=True)
class MatchRejection:
    max_residual: float


def matching_residual(a: PCSymbol, b: PCSymbol) -> tuple[float, Optional[complex]]:
    """Grid maximum of |a*~a - b*~b| and the constant value of a*~a if constant."""
    lhs = a * sym.tilde(a)
    rhs = b * sym.tilde(b)
    angles = grid_angles([lhs, rhs])
    ll, lr = evaluate_both_sides(lhs, angles)
    rl, rr = evaluate_both_sides(rhs, angles)
    residual = float(max(np.max(np.abs(ll - rl)), np.max(np.abs(lr - rr))))
    values = np.concatenate([ll, lr])
    center = values.mean()
    constant = complex(center) if float(np.max(np.abs(values - center))) < MATCHING_TOL else None
    return residual, constant


def is_matching_pair(a: PCSymbol, b: PCSymbol, tol: float = MATCHING_TOL,
                     invertibility_tol: float = INVERTIBILITY_TOL
                     ) -> Union[MatchingPair, MatchRejection]:
    """Check the matching condition a*~a = b*~b on the grid.

    Returns the pair with subordinated functions built on success, or the
    maximal residual on failure.  Both generating functions must be
    invertible (Fredholmness of T(a)+H(b) presumes invertible a): a grid
    modulus below ``invertibility_tol`` raises NotInvertible.
    """
    check_invertible(a, invertibility_tol)
    check_invertible(b, invertibility_tol)
    residual, constant = matching_residual(a, b)
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


def is_matching_function(c: PCSymbol, tol: float = MATCHING_TOL) -> bool:
    """Grid check of c * ~c = 1."""
    prod = c * sym.tilde(c)
    angles = grid_angles(prod)
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
