"""Piecewise-continuous generating functions on the unit circle.

A symbol is an immutable expression tree built from a handful of
primitives (constants, monomials t^n, rotated power functions, piecewise
constants, half-circle extensions, and the internal exp-linear arcs
``ExpArcs`` of the index splitting) and closed under sum, product,
inversion, complex conjugation and the substitution t -> 1/t (written
``~a`` below and called the tilde).

Every sum, product, tilde and conjugate of the primitives, and of inverses
and half-circle extensions of single terms, is a sum of piecewise
exp-linear terms, each c_j * exp(i lam_j theta) on the arcs between its
breaks (:func:`_exp_terms`).  The terms give vectorized evaluation, one
lookup per term, and Fourier coefficients in closed form, one integral per
arc (exactly c or 0 for a term c * t^k).  Inverses of sums such as
``1/(3 + t)``, and what is built on them, are evaluated node by node and
take their coefficients by adaptive quadrature split at the breaks.  The
one-sided limits ``a(t+0)`` / ``a(t-0)``, ``t+0`` the limit along the
counterclockwise-forward side, come from one table per symbol, taken on
the tree at the breaks, where alone a symbol can jump (:func:`evaluate_sides`).

Smart constructors (:func:`product`, :func:`inverse`, :func:`tilde`,
:func:`conjugate`) perform only exact rewrites, e.g. ``~t^n = t^-n`` or
the merging of two power arcs with the same anchor, so derived symbols
keep closed-form coefficients whenever possible.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

import numpy as np
from scipy.integrate import quad

from .defaults import GRID_N, INVERTIBILITY_TOL, JUMP_TOL, QUADRATURE_TOL
from .errors import (
    DivisionBySmallModulus,
    NotInvertible,
    NotPolynomial,
    PreconditionViolation,
    QuadratureNotConverged,
)

TWO_PI = 2.0 * math.pi

LEFT = "left"
RIGHT = "right"

# Reflected angles (2*pi - theta) do not round-trip bit-exactly, so evaluation
# snaps angles less than this from a break onto the break, one-sided tables
# merge breaks less than this apart (dedupe_angles) and evaluate_sides reads the
# entry less than this away: every jump a table drops is seen where it keeps one.
ANGLE_SNAP = 1e-12


def _canonical_angle(angle: float) -> float:
    """Map an angle to [0, 2*pi). Canonicalization is exact: equality of
    circle points is float equality of canonical angles."""
    a = math.fmod(float(angle), TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        a -= TWO_PI
    return a


@dataclass(frozen=True, order=True)
class CirclePoint:
    """A point t = exp(i*angle) on the counterclockwise oriented unit circle."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", _canonical_angle(self.angle))

    @classmethod
    def from_complex(cls, z: complex) -> "CirclePoint":
        if abs(abs(z) - 1.0) > 1e-9:
            raise PreconditionViolation(f"point {z} is not on the unit circle")
        return cls(cmath.phase(z))

    @property
    def value(self) -> complex:
        return cmath.exp(1j * self.angle)

    def reflected(self) -> "CirclePoint":
        """The point 1/t = conj(t)."""
        return CirclePoint(-self.angle)


POINT_ONE = CirclePoint(0.0)
POINT_MINUS_ONE = CirclePoint(math.pi)


def _flip(side: str) -> str:
    return LEFT if side == RIGHT else RIGHT


# ---------------------------------------------------------------------------
# expression tree
# ---------------------------------------------------------------------------


class PCSymbol:
    """Base class; nodes are frozen dataclasses and therefore hashable."""

    def __add__(self, other):
        return add(self, _as_symbol(other))

    def __radd__(self, other):
        return add(_as_symbol(other), self)

    def __sub__(self, other):
        return add(self, product(Const(-1.0), _as_symbol(other)))

    def __mul__(self, other):
        return product(self, _as_symbol(other))

    def __rmul__(self, other):
        return product(_as_symbol(other), self)

    def __neg__(self):
        return product(Const(-1.0), self)

    def inv(self) -> "PCSymbol":
        return inverse(self)

    def tilde(self) -> "PCSymbol":
        return tilde(self)

    def conj(self) -> "PCSymbol":
        return conjugate(self)


def _as_symbol(x) -> PCSymbol:
    if isinstance(x, PCSymbol):
        return x
    return Const(complex(x))


@dataclass(frozen=True)
class Const(PCSymbol):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Monomial(PCSymbol):
    """t^n."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class PowerArc(PCSymbol):
    """Rotated power function with a single jump at ``anchor``.

    Anchored at 1 it is zeta |-> exp(i*beta*(zeta - pi)) for zeta in
    (0, 2*pi), so the one-sided limits at the anchor are exp(-i*pi*beta)
    from the forward side and exp(+i*pi*beta) from the backward side.
    Anchoring at t0 substitutes t -> t/t0.
    """

    beta: complex
    anchor: CirclePoint = POINT_ONE

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))


@dataclass(frozen=True)
class PiecewiseConst(PCSymbol):
    """Constant value ``values[j]`` on the open arc from ``breaks[j]`` to
    ``breaks[j+1]`` (counterclockwise, wrapping at the end)."""

    breaks: tuple
    values: tuple

    def __post_init__(self):
        pts = tuple(b if isinstance(b, CirclePoint) else CirclePoint(b) for b in self.breaks)
        vals = tuple(complex(v) for v in self.values)
        if len(pts) != len(vals) or not pts:
            raise PreconditionViolation("breaks and values must be equal-length and nonempty")
        if any(pts[i].angle >= pts[i + 1].angle for i in range(len(pts) - 1)):
            raise PreconditionViolation("breaks must be strictly increasing in angle")
        object.__setattr__(self, "breaks", pts)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ExpArcs(PCSymbol):
    """``c[j] * exp(i * lam[j] * theta)`` on the arc from ``breaks[j]`` to
    ``breaks[j+1]``, where ``breaks[0] = 0`` and the last arc ends at 2*pi.

    Used internally to build the interpolant g of the index splitting; not
    part of the public config grammar.
    """

    breaks: tuple
    c: tuple
    lam: tuple

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        c = tuple(complex(v) for v in self.c)
        lam = tuple(complex(v) for v in self.lam)
        if not (len(breaks) == len(c) == len(lam)) or not breaks or breaks[0] != 0.0:
            raise PreconditionViolation("breaks/c/lam must be equal-length, with breaks[0] = 0")
        if any(x >= y for x, y in zip(breaks, breaks[1:] + (TWO_PI,))):
            raise PreconditionViolation("breaks must be strictly increasing and below 2*pi")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class HalfCircleExtension(PCSymbol):
    """g equal to g0 on the closed upper half-circle and to 1/g0(conj(t))
    on the lower one; satisfies g(t) * g(1/t) = 1 by construction."""

    g0: PCSymbol


@dataclass(frozen=True)
class Sum(PCSymbol):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Product(PCSymbol):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class Inverse(PCSymbol):
    child: PCSymbol


@dataclass(frozen=True)
class Conjugate(PCSymbol):
    child: PCSymbol


@dataclass(frozen=True)
class Tilde(PCSymbol):
    child: PCSymbol


# ---------------------------------------------------------------------------
# smart constructors (exact rewrites only)
# ---------------------------------------------------------------------------


def add(*terms: PCSymbol) -> PCSymbol:
    flat: list[PCSymbol] = []
    const = 0.0 + 0.0j
    for term in terms:
        if isinstance(term, Sum):
            flat.extend(term.terms)
        elif isinstance(term, Const):
            const += term.value
        else:
            flat.append(term)
    if const != 0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def product(*factors: PCSymbol) -> PCSymbol:
    """Multiply symbols, folding constants, merging monomial exponents and
    same-anchor power arcs (phi_b * phi_c = phi_{b+c} exactly)."""
    const = 1.0 + 0.0j
    mono = 0
    arcs: dict[CirclePoint, complex] = {}
    piecewise: dict[tuple, tuple] = {}
    rest: list[PCSymbol] = []

    def absorb(sym: PCSymbol):
        nonlocal const, mono
        if isinstance(sym, Product):
            for f in sym.factors:
                absorb(f)
        elif isinstance(sym, Const):
            const *= sym.value
        elif isinstance(sym, Monomial):
            mono += sym.n
        elif isinstance(sym, PowerArc):
            arcs[sym.anchor] = arcs.get(sym.anchor, 0.0) + sym.beta
        elif isinstance(sym, PiecewiseConst):
            prev = piecewise.get(sym.breaks)
            vals = sym.values if prev is None else tuple(x * y for x, y in zip(prev, sym.values))
            piecewise[sym.breaks] = vals
        else:
            rest.append(sym)

    for f in factors:
        absorb(f)

    out: list[PCSymbol] = []
    for breaks, vals in piecewise.items():
        if all(v == vals[0] for v in vals):
            const *= vals[0]  # no jumps left: fold into the constant
        else:
            out.append(PiecewiseConst(breaks, vals))
    for anchor, beta in arcs.items():
        if beta == 0:
            continue
        if beta.imag == 0 and float(beta.real).is_integer():
            # phi_m(t/t0) = (-1)^m (t/t0)^m for integer m
            m = int(beta.real)
            const *= (-1) ** m * cmath.exp(-1j * m * anchor.angle)
            mono += m
        else:
            out.append(PowerArc(beta, anchor))
    out.extend(rest)

    if const == 0:
        return Const(0.0)
    # fold a scalar into a lone piecewise-constant factor
    if const != 1 and mono == 0 and len(out) == 1 and isinstance(out[0], PiecewiseConst):
        pc = out[0]
        return PiecewiseConst(pc.breaks, tuple(const * v for v in pc.values))
    if mono != 0:
        out.insert(0, Monomial(mono))
    if const != 1 or not out:
        out.insert(0, Const(const))
    if len(out) == 1:
        return out[0]
    return Product(tuple(out))


def inverse(sym: PCSymbol) -> PCSymbol:
    if isinstance(sym, Const):
        if sym.value == 0:
            raise DivisionBySmallModulus("inverse of the zero constant")
        return Const(1.0 / sym.value)
    if isinstance(sym, Monomial):
        return Monomial(-sym.n)
    if isinstance(sym, PowerArc):
        return PowerArc(-sym.beta, sym.anchor)
    if isinstance(sym, PiecewiseConst):
        if any(v == 0 for v in sym.values):
            raise DivisionBySmallModulus("inverse of a vanishing piecewise constant")
        return PiecewiseConst(sym.breaks, tuple(1.0 / v for v in sym.values))
    if isinstance(sym, ExpArcs):
        if any(v == 0 for v in sym.c):
            raise DivisionBySmallModulus("inverse of vanishing exp-linear arcs")
        return ExpArcs(sym.breaks, tuple(1.0 / v for v in sym.c), tuple(-v for v in sym.lam))
    if isinstance(sym, Product):
        return product(*(inverse(f) for f in sym.factors))
    if isinstance(sym, Inverse):
        return sym.child
    if isinstance(sym, Tilde):
        return tilde(inverse(sym.child))
    if isinstance(sym, Conjugate):
        inner = inverse(sym.child)
        # conjugate(Inverse(x)) rewrites to inverse(Conjugate(x)): stop here
        return Inverse(sym) if isinstance(inner, Inverse) else conjugate(inner)
    return Inverse(sym)


def tilde(sym: PCSymbol) -> PCSymbol:
    """The symbol t |-> sym(1/t); jumps reflect and one-sided limits swap."""
    if isinstance(sym, Const):
        return sym
    if isinstance(sym, Monomial):
        return Monomial(-sym.n)
    if isinstance(sym, PowerArc):
        return PowerArc(-sym.beta, sym.anchor.reflected())
    if isinstance(sym, PiecewiseConst):
        pieces = _reflected_pieces(sym.breaks, sym.values)
        return PiecewiseConst(tuple(b for b, _ in pieces), tuple(v for _, v in pieces))
    if isinstance(sym, ExpArcs):
        r = _reflected(_exp_pieces(sym))
        return ExpArcs(tuple(r.breaks[:-1]), tuple(r.c), tuple(r.lam))
    if isinstance(sym, HalfCircleExtension):
        return Inverse(sym)  # g * ~g = 1 exactly, by construction
    if isinstance(sym, Sum):
        return add(*(tilde(t) for t in sym.terms))
    if isinstance(sym, Product):
        return product(*(tilde(f) for f in sym.factors))
    if isinstance(sym, Inverse):
        return inverse(tilde(sym.child))
    if isinstance(sym, Conjugate):
        return Conjugate(tilde(sym.child))
    if isinstance(sym, Tilde):
        return sym.child
    raise TypeError(f"unknown symbol node {type(sym)!r}")


def _reflected_pieces(breaks, payloads):
    """Reflect arcs (b_j, b_{j+1}) |-> (2*pi - b_{j+1}, 2*pi - b_j), keeping payloads."""
    k = len(breaks)
    items = []
    for j in range(k):
        end = breaks[(j + 1) % k]
        items.append((end.reflected(), payloads[j]))
    items.sort(key=lambda it: it[0].angle)
    return items


def conjugate(sym: PCSymbol) -> PCSymbol:
    """Pointwise complex conjugate (values, not the variable)."""
    if isinstance(sym, Const):
        return Const(sym.value.conjugate())
    if isinstance(sym, Monomial):
        return Monomial(-sym.n)  # conj(t^n) = t^-n on |t| = 1
    if isinstance(sym, PowerArc):
        return PowerArc(-sym.beta.conjugate(), sym.anchor)
    if isinstance(sym, PiecewiseConst):
        return PiecewiseConst(sym.breaks, tuple(v.conjugate() for v in sym.values))
    if isinstance(sym, ExpArcs):
        return ExpArcs(sym.breaks, tuple(v.conjugate() for v in sym.c),
                       tuple(-v.conjugate() for v in sym.lam))
    if isinstance(sym, Sum):
        return add(*(conjugate(t) for t in sym.terms))
    if isinstance(sym, Product):
        return product(*(conjugate(f) for f in sym.factors))
    if isinstance(sym, Inverse):
        return inverse(conjugate(sym.child))
    if isinstance(sym, Conjugate):
        return sym.child
    if isinstance(sym, Tilde):
        return Tilde(conjugate(sym.child))
    return Conjugate(sym)


def power_arc(beta: complex, anchor: CirclePoint | float = POINT_ONE) -> PCSymbol:
    if not isinstance(anchor, CirclePoint):
        anchor = CirclePoint(anchor)
    return product(PowerArc(beta, anchor))  # normalizes integer beta


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(sym: PCSymbol, t: CirclePoint | float, side: str = RIGHT) -> complex:
    """One-sided limit of the symbol at t, by a walk over its tree.

    ``side="right"`` returns a(t+0), the limit along increasing angle
    (counterclockwise-forward); ``side="left"`` returns a(t-0).
    """
    if not isinstance(t, CirclePoint):
        t = CirclePoint(t)
    if side not in (LEFT, RIGHT):
        raise PreconditionViolation(f"side must be 'left' or 'right', got {side!r}")
    return _eval(sym, t.angle, side)


def evaluate_sides(sym: PCSymbol, t: CirclePoint | float) -> tuple[complex, complex]:
    """(sym(t-0), sym(t+0)): the entry of :func:`_one_sided_at_breaks` less
    than ANGLE_SNAP away; both sides on the tree less than 2 * ANGLE_SNAP
    away, where a break that the table merged into another may lie; one walk
    farther away, where both sides take the same path."""
    angle = t.angle if isinstance(t, CirclePoint) else _canonical_angle(t)
    table = _one_sided_at_breaks(sym)
    j = bisect.bisect_left(table, (angle,))
    gap = math.inf
    for x, left, right in sorted((table[j - 1], table[j % len(table)])):
        gap = min(gap, abs(math.remainder(x - angle, TWO_PI)))
        if gap < ANGLE_SNAP:
            return left, right
    if gap < 2 * ANGLE_SNAP:
        return _eval(sym, angle, LEFT), _eval(sym, angle, RIGHT)
    value = _eval(sym, angle, RIGHT)
    return value, value


def _eval(sym: PCSymbol, theta: float, side: str) -> complex:
    if isinstance(sym, Const):
        return sym.value
    if isinstance(sym, Monomial):
        return cmath.exp(1j * sym.n * theta)
    if isinstance(sym, PowerArc):
        zeta = _canonical_angle(theta - sym.anchor.angle)
        if zeta < ANGLE_SNAP or TWO_PI - zeta < ANGLE_SNAP:
            zeta = 0.0 if side == RIGHT else TWO_PI
        return cmath.exp(1j * sym.beta * (zeta - math.pi))
    if isinstance(sym, PiecewiseConst):
        return sym.values[_piece_index([b.angle for b in sym.breaks], theta, side)[0]]
    if isinstance(sym, ExpArcs):
        j, at = _piece_index(sym.breaks, theta, side)
        return sym.c[j] * cmath.exp(1j * sym.lam[j] * at)
    if isinstance(sym, HalfCircleExtension):
        return _eval_half_circle(sym.g0, theta, side)
    if isinstance(sym, Sum):
        return sum(_eval(t_, theta, side) for t_ in sym.terms)
    if isinstance(sym, Product):
        out = 1.0 + 0.0j
        for f in sym.factors:
            out *= _eval(f, theta, side)
        return out
    if isinstance(sym, Inverse):
        v = _eval(sym.child, theta, side)
        if abs(v) < INVERTIBILITY_TOL:
            raise DivisionBySmallModulus(f"modulus {abs(v):.3e} below tolerance "
                                         f"{INVERTIBILITY_TOL:.1e} at angle {theta:.6f} ({side})")
        return 1.0 / v
    if isinstance(sym, Conjugate):
        return _eval(sym.child, theta, side).conjugate()
    if isinstance(sym, Tilde):
        return _eval(sym.child, _canonical_angle(-theta), _flip(side))
    raise TypeError(f"unknown symbol node {type(sym)!r}")


def _piece_index(angles, theta: float, side: str) -> tuple[int, float]:
    """Index j of the arc whose value governs the one-sided limit at theta,
    and the angle of arc j (from angles[j] up to angles[j+1], or to
    angles[0] + 2*pi for the last arc) at which the limit is taken.

    An angle within ANGLE_SNAP of a break, cyclically, is that break: the
    start of the arc after it from the right, the end of the arc before it
    from the left.
    """
    k = len(angles)
    for j, a in enumerate(angles):
        d = abs(theta - a)
        if d < ANGLE_SNAP or abs(d - TWO_PI) < ANGLE_SNAP:
            if side == RIGHT:
                return j, a
            return (j - 1) % k, (a if j else a + TWO_PI)
    # strictly inside an arc: the last break at angle < theta (cyclically)
    j = bisect.bisect_left(angles, theta) - 1
    return j % k, (theta if j >= 0 else theta + TWO_PI)


def _eval_half_circle(g0: PCSymbol, theta: float, side: str) -> complex:
    def g0_at(angle, s):
        return _eval(g0, _canonical_angle(angle), s)

    def inv_g0(angle, s):
        v = g0_at(angle, s)
        if abs(v) < INVERTIBILITY_TOL:
            raise DivisionBySmallModulus("half-circle extension hit a small modulus")
        return 1.0 / v

    if theta < ANGLE_SNAP or TWO_PI - theta < ANGLE_SNAP:
        return g0_at(0.0, RIGHT) if side == RIGHT else inv_g0(0.0, RIGHT)
    if abs(theta - math.pi) < ANGLE_SNAP:
        return g0_at(math.pi, LEFT) if side == LEFT else inv_g0(math.pi, LEFT)
    if theta < math.pi:
        return g0_at(theta, side)
    # lower half: g(t) = 1/g0(conj t); conj reverses orientation
    return inv_g0(TWO_PI - theta, _flip(side))


def evaluate_array(sym: PCSymbol, thetas: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at generic (non-jump) angles.

    At an exact jump angle this returns the forward-side value; callers that
    care about one-sided limits use :func:`evaluate_sides`.  A symbol with terms
    (:func:`_exp_terms`) is evaluated from them, one lookup per term; the
    tree is walked only down to the nodes that have terms, below an inverse
    of a sum or where an inverse comes too close to 0 on an arc.
    """
    thetas = np.asarray(thetas, dtype=float)
    try:
        terms = _exp_terms(sym)
    except DivisionBySmallModulus:  # the tree refuses only the values asked for
        terms = None
    if terms is not None:
        thetas = np.mod(thetas, TWO_PI)
        out = None
        for p in terms:
            c, lam = _pieces_at(p, thetas)
            value = c * np.exp(1j * lam * thetas)
            out = value if out is None else out + value
        return out
    if isinstance(sym, HalfCircleExtension):  # 1/g0(conj t) on the lower half
        lower = thetas > math.pi
        out = evaluate_array(sym.g0, np.where(lower, np.mod(TWO_PI - thetas, TWO_PI), thetas))
        if np.any(lower) and np.min(np.abs(out[lower])) < INVERTIBILITY_TOL:
            raise DivisionBySmallModulus("half-circle extension hit a small modulus")
        out[lower] = 1.0 / out[lower]
        return out
    if isinstance(sym, Sum):
        return np.sum([evaluate_array(t_, thetas) for t_ in sym.terms], axis=0)
    if isinstance(sym, Product):
        out = np.ones(thetas.shape, dtype=complex)
        for f in sym.factors:
            out *= evaluate_array(f, thetas)
        return out
    if isinstance(sym, Inverse):
        v = evaluate_array(sym.child, thetas)
        if v.size and np.min(np.abs(v)) < INVERTIBILITY_TOL:
            raise DivisionBySmallModulus("modulus below tolerance in vectorized inverse")
        return 1.0 / v
    if isinstance(sym, Conjugate):
        return np.conj(evaluate_array(sym.child, thetas))
    if isinstance(sym, Tilde):
        return evaluate_array(sym.child, np.mod(-thetas, TWO_PI))
    raise TypeError(f"unknown symbol node {type(sym)!r}")


# ---------------------------------------------------------------------------
# jumps and grids
# ---------------------------------------------------------------------------


def _breaks(sym: PCSymbol) -> set[float]:
    """The angles where the symbol may jump: the breaks of its terms
    (:func:`_exp_terms`), 0 among them, read off the tree without building
    the terms; a node without terms has those of its children."""
    if isinstance(sym, (Const, Monomial)):
        return {0.0}
    if isinstance(sym, PowerArc):
        return {0.0, sym.anchor.angle}
    if isinstance(sym, PiecewiseConst):
        return {0.0} | {b.angle for b in sym.breaks}
    if isinstance(sym, ExpArcs):
        return set(sym.breaks)
    if isinstance(sym, HalfCircleExtension):
        inner = _breaks(sym.g0)
        return {math.pi} | inner | {_canonical_angle(-a) for a in inner}
    if isinstance(sym, (Sum, Product)):
        return set().union(*map(_breaks, sym.terms if isinstance(sym, Sum) else sym.factors))
    if isinstance(sym, (Inverse, Conjugate)):
        return _breaks(sym.child)
    if isinstance(sym, Tilde):
        return {_canonical_angle(-a) for a in _breaks(sym.child)}
    raise TypeError(f"unknown symbol node {type(sym)!r}")


def dedupe_angles(angles, tol: float = ANGLE_SNAP) -> list[float]:
    """Sorted angles, each dropped when it lies less than ``tol`` after the
    last one kept (cyclically).  At the default, an angle kept is the point
    where one-sided evaluation snaps the ones dropped."""
    out: list[float] = []
    for a in sorted(angles):
        if not out or a - out[-1] >= tol:
            out.append(a)
    if len(out) > 1 and (out[0] + TWO_PI) - out[-1] < tol:
        out.pop()
    return out


@lru_cache(maxsize=50_000)
def _one_sided_at_breaks(sym: PCSymbol) -> tuple:
    """(angle, sym(t-0), sym(t+0)) at every break of the symbol and at +-1,
    sorted by angle, with breaks less than ANGLE_SNAP apart taken as one."""
    return tuple((angle, _eval(sym, angle, LEFT), _eval(sym, angle, RIGHT))
                 for angle in dedupe_angles(_breaks(sym) | {0.0, math.pi}))


@lru_cache(maxsize=50_000)
def _jump_set_cached(sym: PCSymbol, tol: float):
    return tuple((CirclePoint(angle), left, right)
                 for angle, left, right in _one_sided_at_breaks(sym) if abs(left - right) > tol)


def jump_set(sym: PCSymbol, tol: float = JUMP_TOL):
    """Jump points with one-sided values, sorted by angle.

    The points +-1 are always probed; they play a distinguished role for
    Hankel operators (the only fixed points of the flip).  Results are
    cached per symbol (symbols are immutable).
    """
    return list(_jump_set_cached(sym, float(tol)))


def grid_angles(syms: Iterable[PCSymbol] | PCSymbol, n: int = GRID_N) -> np.ndarray:
    """Equispaced angles joined with every jump angle of the given symbols."""
    if isinstance(syms, PCSymbol):
        syms = [syms]
    angles = set(np.linspace(0.0, TWO_PI, n, endpoint=False))
    for sym in syms:
        angles |= _breaks(sym)
    angles |= {0.0, math.pi}
    return np.array(dedupe_angles(angles, tol=1e-13))


def evaluate_both_sides(sym: PCSymbol, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) one-sided values over a set of angles.

    Interior points are evaluated vectorized; angles within snapping
    distance of a candidate jump read both sides from :func:`evaluate_sides`.
    """
    angles = np.asarray(angles, dtype=float)
    right = evaluate_array(sym, angles)
    left = right.copy()
    specials = np.array(sorted(_breaks(sym) | {TWO_PI}))  # 2*pi: the wrap onto 0
    near = np.min(np.abs(angles[:, None] - specials[None, :]), axis=1) < ANGLE_SNAP
    for i in np.nonzero(near)[0]:
        left[i], right[i] = evaluate_sides(sym, angles[i])
    return left, right


def check_invertible(sym: PCSymbol, tol: float = INVERTIBILITY_TOL) -> float:
    """Return the grid minimum modulus, raising if it is below tolerance."""
    left, right = evaluate_both_sides(sym, grid_angles(sym))
    m = float(min(np.min(np.abs(left)), np.min(np.abs(right))))
    if m < tol:
        raise NotInvertible(f"minimum modulus {m:.3e} below tolerance {tol:.1e}")
    return m


# ---------------------------------------------------------------------------
# half-circle extension constructor
# ---------------------------------------------------------------------------


def extend_half_circle(g0: PCSymbol, tol: float = 1e-9) -> PCSymbol:
    """Extend g0 from the closed upper half-circle to a matching function.

    Requires g0 continuous and +-1-valued at the points t = +-1 and
    invertible on the grid; the result g satisfies g(t) * g(1/t) = 1.
    """
    for t in (POINT_ONE, POINT_MINUS_ONE):
        lv, rv = evaluate_sides(g0, t)
        if abs(lv - rv) > tol:
            raise PreconditionViolation(f"g0 must be continuous at t=exp({t.angle:.3f}i)")
        if min(abs(rv - 1.0), abs(rv + 1.0)) > tol:
            raise PreconditionViolation(f"g0({t.value:.0f}) = {rv} is not in {{-1, 1}}")
    check_invertible(g0, tol)
    if isinstance(g0, Monomial) or (isinstance(g0, Const) and g0.value in (1, -1)):
        return g0  # 1/g0(conj t) = g0(t) already
    return HalfCircleExtension(g0)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierCoefficient:
    index: int
    value: complex
    provenance: str  # "analytic" | "quadrature"
    error_bound: Optional[float] = None


class ExpPieces(NamedTuple):
    """A symbol that is c[j] * exp(i * lam[j] * theta) on the arc from
    breaks[j] to breaks[j+1], where 0 = breaks[0] < ... < breaks[-1] = 2*pi."""

    breaks: np.ndarray
    c: np.ndarray
    lam: np.ndarray


def _pieces(breaks, c, lam) -> ExpPieces:
    return ExpPieces(np.asarray(breaks, dtype=float), np.asarray(c, dtype=complex),
                     np.asarray(lam, dtype=complex))


def _pieces_at(pieces: ExpPieces, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, lam) of the arc holding each angle of (0, 2*pi]; an angle that
    rounds onto 2*pi belongs to the last arc."""
    j = np.minimum(np.searchsorted(pieces.breaks, thetas, side="right") - 1, len(pieces.c) - 1)
    return pieces.c[j], pieces.lam[j]


def _common_arcs(*breaks) -> tuple[np.ndarray, np.ndarray]:
    """Union of several break arrays, with the midpoint of each arc."""
    breaks = np.unique(np.concatenate(breaks))
    return breaks, 0.5 * (breaks[:-1] + breaks[1:])


def _multiply(parts) -> ExpPieces:
    """Pointwise product of terms: common arcs, c multiplied, lam added."""
    breaks, mid = _common_arcs(*(p.breaks for p in parts))
    c = np.ones(len(mid), dtype=complex)
    lam = np.zeros(len(mid), dtype=complex)
    for p in parts:
        pc, plam = _pieces_at(p, mid)
        c, lam = c * pc, lam + plam
    return _pieces(breaks, c, lam)


def _reflected(p: ExpPieces) -> ExpPieces:
    """The term at 2*pi - theta: c exp(i lam (2 pi - theta)) on the reflected arc."""
    phase = np.exp(TWO_PI * 1j * p.lam)
    phase[p.lam == np.round(p.lam.real)] = 1.0  # exactly, for integer lam
    return _pieces(TWO_PI - p.breaks[::-1], (p.c * phase)[::-1], -p.lam[::-1])


def _merged(terms) -> tuple[ExpPieces, ...]:
    """Terms with equal breaks and lam added up, in order of first appearance."""
    out = {}
    for p in terms:
        key = (p.breaks.tobytes(), p.lam.tobytes())
        out[key] = p._replace(c=out[key].c + p.c) if key in out else p
    return tuple(out.values())


def _exp_pieces(sym: PCSymbol) -> Optional[ExpPieces]:
    """The symbol as one piecewise exp-linear term, or None."""
    terms = _exp_terms(sym)
    return terms[0] if terms is not None and len(terms) == 1 else None


@lru_cache(maxsize=4096)
def _exp_terms(sym: PCSymbol) -> Optional[tuple[ExpPieces, ...]]:
    """The symbol as a sum of piecewise exp-linear terms, or None.

    Sums concatenate their terms and products distribute over them, one
    factor at a time, with like terms merged after each step.  An
    inverse or a half-circle extension needs a child of exactly one term.
    An inverse raises DivisionBySmallModulus where ``evaluate`` would: |c * exp(i lam
    theta)| is monotone on each arc, so its minimum is at an arc end.
    """
    if isinstance(sym, Const):
        return (_pieces([0.0, TWO_PI], [sym.value], [0.0]),)
    if isinstance(sym, Monomial):
        return (_pieces([0.0, TWO_PI], [1.0], [sym.n]),)
    if isinstance(sym, PowerArc):
        beta, alpha = sym.beta, sym.anchor.angle
        tail = cmath.exp(-1j * beta * (math.pi + alpha))  # theta in (alpha, 2*pi)
        if alpha == 0.0:
            return (_pieces([0.0, TWO_PI], [tail], [beta]),)
        head = cmath.exp(1j * beta * (math.pi - alpha))  # theta in (0, alpha)
        return (_pieces([0.0, alpha, TWO_PI], [head, tail], [beta, beta]),)
    if isinstance(sym, PiecewiseConst):
        angles = [b.angle for b in sym.breaks]
        values = list(sym.values)
        if angles[0] > 0.0:  # the last arc wraps through angle 0
            angles.insert(0, 0.0)
            values.insert(0, values[-1])
        return (_pieces(angles + [TWO_PI], values, np.zeros(len(values))),)
    if isinstance(sym, ExpArcs):
        return (_pieces(sym.breaks + (TWO_PI,), sym.c, sym.lam),)
    if isinstance(sym, (Sum, Product)):
        parts = [_exp_terms(x) for x in (sym.terms if isinstance(sym, Sum) else sym.factors)]
        if any(p is None for p in parts):
            return None
        if isinstance(sym, Sum):
            return _merged(itertools.chain.from_iterable(parts))
        if all(len(p) == 1 for p in parts):  # one pass over the common arcs
            return (_multiply([p[0] for p in parts]),)
        terms = parts[0]
        for part in parts[1:]:
            terms = _merged(_multiply(combo) for combo in itertools.product(terms, part))
        return terms
    if isinstance(sym, Inverse):
        p = _exp_pieces(sym.child)
        if p is None:
            return None
        modulus = np.abs(p.c) * np.minimum(np.exp(-p.lam.imag * p.breaks[:-1]),
                                           np.exp(-p.lam.imag * p.breaks[1:]))
        if np.min(modulus) < INVERTIBILITY_TOL:
            raise DivisionBySmallModulus(
                f"modulus {np.min(modulus):.3e} below tolerance {INVERTIBILITY_TOL:.1e}")
        return (_pieces(p.breaks, 1.0 / p.c, -p.lam),)
    if isinstance(sym, Tilde):
        terms = _exp_terms(sym.child)
        return None if terms is None else tuple(_reflected(p) for p in terms)
    if isinstance(sym, Conjugate):
        terms = _exp_terms(sym.child)
        return None if terms is None else tuple(
            _pieces(p.breaks, p.c.conj(), -p.lam.conj()) for p in terms)
    if isinstance(sym, HalfCircleExtension):
        upper = _exp_pieces(sym.g0)
        if upper is None:
            return None
        lower = _exp_pieces(Inverse(Tilde(sym.g0)))
        breaks, mid = _common_arcs(upper.breaks, lower.breaks, [math.pi])
        (uc, ulam), (lc, llam) = _pieces_at(upper, mid), _pieces_at(lower, mid)
        top = mid < math.pi
        return (_pieces(breaks, np.where(top, uc, lc), np.where(top, ulam, llam)),)
    return None


def _laurent_degree(pieces: ExpPieces) -> Optional[int]:
    """k when the term is c * t^k: one whole-circle arc of integer frequency."""
    lam = pieces.lam[0]
    return int(lam.real) if len(pieces.c) == 1 and lam == round(lam.real) else None


def _piece_coefficients(pieces: ExpPieces, ns: np.ndarray) -> np.ndarray:
    """(1/2pi) sum_j c_j * integral over arc j of exp(i (lam_j - n) theta), for each n.

    A term c * t^k integrates to exactly c at n = k and to exactly 0 elsewhere.
    """
    ns = np.asarray(ns, dtype=float)
    k = _laurent_degree(pieces)
    if k is not None:
        return np.where(ns == k, pieces.c[0], 0.0 + 0.0j)
    a0 = pieces.breaks[:-1, None]
    length = np.diff(pieces.breaks)[:, None]
    mu = pieces.lam[:, None] - ns[None, :]
    z = 1j * mu * length
    # (e^z - 1)/z, by its Taylor series near z = 0
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    ratio = np.where(small, 1.0 + z / 2 * (1.0 + z / 3 * (1.0 + z / 4)), np.expm1(safe) / safe)
    terms = pieces.c[:, None] * np.exp(1j * mu * a0) * length * ratio
    return terms.sum(axis=0) / TWO_PI


def _closed_form(sym: PCSymbol, ns) -> Optional[np.ndarray]:
    """Coefficients for the indices ns in closed form, or None when there is none."""
    terms = _exp_terms(sym)
    return None if terms is None else sum((_piece_coefficients(p, ns) for p in terms),
                                          np.zeros(len(ns), dtype=complex))


def _quadrature_coefficient(sym: PCSymbol, n: int, tol: float) -> tuple[complex, float]:
    """Coefficient by panelwise quadrature split at the jump angles.

    For large |n| QUADPACK's oscillatory weights handle exp(-i n theta)
    without resolving each oscillation.  The certificate is either the
    summed QUADPACK estimate or, when that stalls (its estimates are very
    conservative near resonant frequencies although the values converge),
    the agreement between two successive panel-halving levels.
    """
    base = dedupe_angles(_breaks(sym))
    base.append(TWO_PI)
    if base[0] > ANGLE_SNAP:
        base.insert(0, 0.0)

    previous = None
    for refinement in range(3):
        panels = np.array(base)
        for _ in range(refinement):
            panels = np.sort(np.concatenate([panels, 0.5 * (panels[:-1] + panels[1:])]))
        total = 0.0 + 0.0j
        bound = 0.0
        eps = tol / max(1, 8 * (len(panels) - 1))
        for a0, a1 in zip(panels[:-1], panels[1:]):
            def f(theta, _a0=a0, _a1=a1):
                # quadrature rules may evaluate at panel edges: use the side
                # whose limit belongs to this panel
                if theta - _a0 < ANGLE_SNAP:
                    return _eval(sym, _canonical_angle(_a0), RIGHT)
                if _a1 - theta < ANGLE_SNAP:
                    return _eval(sym, _canonical_angle(_a1), LEFT)
                return _eval(sym, _canonical_angle(theta), RIGHT)

            def f_re(theta):
                return f(theta).real

            def f_im(theta):
                return f(theta).imag

            if a1 - a0 < 1e-11:
                # too short for the adaptive rules: one midpoint, whose error
                # is far below tol, instead of dropping up to |f| * 1e-11
                mid = 0.5 * (a0 + a1)
                total += f(mid) * cmath.exp(-1j * n * mid) * (a1 - a0)
            elif abs(n) <= 48:
                # moderately oscillatory: plain adaptive quadrature certifies
                # tighter bounds than the oscillatory-weight rules, whose
                # error estimates stall near resonant frequencies
                def g_re(theta):
                    return (f(theta) * cmath.exp(-1j * n * theta)).real

                def g_im(theta):
                    return (f(theta) * cmath.exp(-1j * n * theta)).imag

                re, ere = quad(g_re, a0, a1, epsabs=eps, limit=400)
                im, eim = quad(g_im, a0, a1, epsabs=eps, limit=400)
                total += re + 1j * im
                bound += ere + eim
            else:
                # f(t) e^{-int} = (fr cos + fi sin) + i (fi cos - fr sin)
                rc, e1 = quad(f_re, a0, a1, weight="cos", wvar=n, epsabs=eps, limit=200)
                rs, e2 = quad(f_re, a0, a1, weight="sin", wvar=n, epsabs=eps, limit=200)
                ic, e3 = quad(f_im, a0, a1, weight="cos", wvar=n, epsabs=eps, limit=200)
                is_, e4 = quad(f_im, a0, a1, weight="sin", wvar=n, epsabs=eps, limit=200)
                total += (rc + is_) + 1j * (ic - rs)
                bound += e1 + e2 + e3 + e4
        if bound / TWO_PI <= tol:  # the coefficient carries the 1/2pi factor
            return total / TWO_PI, bound / TWO_PI
        if previous is not None:
            two_grid = abs(total - previous) / TWO_PI
            if two_grid <= tol / 2:
                return total / TWO_PI, two_grid
        previous = total
    raise QuadratureNotConverged(
        f"quadrature error bound {bound / TWO_PI:.2e} exceeds tolerance "
        f"{tol:.1e} for n={n}")


@lru_cache(maxsize=200_000)
def _coefficient_cached(sym: PCSymbol, n: int, method: str, tol: float):
    if method in ("auto", "analytic"):
        value = _closed_form(sym, [n])
        if value is not None:
            return complex(value[0]), "analytic", None
        if method == "analytic":
            raise PreconditionViolation("no closed-form coefficient for this symbol")
    value, bound = _quadrature_coefficient(sym, n, tol)
    return complex(value), "quadrature", float(bound)


def fourier_coefficient(sym: PCSymbol, n: int, method: str = "auto",
                        tol: float = QUADRATURE_TOL) -> FourierCoefficient:
    """n-th Fourier coefficient (1/2pi) * integral of sym(e^{i theta}) e^{-i n theta}.

    ``method="auto"`` uses a closed form when one exists and falls back to
    adaptive quadrature split at the jump points; ``method="quadrature"``
    forces the quadrature path (used by the consistency tests).
    """
    value, provenance, bound = _coefficient_cached(sym, int(n), method, float(tol))
    return FourierCoefficient(int(n), value, provenance, bound)


def coefficient_range(sym: PCSymbol, lo: int, hi: int, method: str = "auto",
                      tol: float = QUADRATURE_TOL) -> np.ndarray:
    """Array of coefficients for indices lo..hi inclusive.

    A symbol with a closed form gets the whole range from one vectorized
    expression per term; the others take per-index quadrature.
    """
    if method != "quadrature":
        values = _closed_form(sym, np.arange(lo, hi + 1))
        if values is not None:
            return values
    return np.array([fourier_coefficient(sym, n, method, tol).value for n in range(lo, hi + 1)])


# ---------------------------------------------------------------------------
# band-limited extraction
# ---------------------------------------------------------------------------


def laurent_coefficients(sym: PCSymbol) -> dict[int, complex]:
    """Exact coefficient dict for a finite Laurent polynomial.

    Raises NotPolynomial unless every term of the symbol is c * t^k.  Keys
    come in the order in which the terms first reach them.
    """
    terms = _exp_terms(sym)
    degrees = None if terms is None else [_laurent_degree(p) for p in terms]
    if degrees is None or None in degrees:
        raise NotPolynomial(f"{type(sym).__name__} symbol is not band-limited")
    lo = min(degrees)
    values = _closed_form(sym, np.arange(lo, max(degrees) + 1))
    return {k: complex(values[k - lo]) for k in dict.fromkeys(degrees) if values[k - lo] != 0}
