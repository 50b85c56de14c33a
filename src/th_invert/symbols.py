"""Piecewise-continuous generating functions on the unit circle.

A symbol is an immutable expression tree built from a handful of
primitives (constants, monomials t^n, rotated power functions, piecewise
constants, half-circle extensions, and the internal exp-linear arcs
``ExpArcs`` of the index splitting) and closed under sum, product,
inversion, complex conjugation and the substitution t -> 1/t (written
``~a`` below and called the tilde).

Every sum and product of the primitives, and of inverses and half-circle
extensions of single terms, is a sum of piecewise exp-linear terms, each
c_j * exp(i lam_j theta) on the arcs between its breaks
(:func:`_exp_terms`).  The terms give vectorized evaluation, one
lookup per term; the one-sided limits ``a(t-0)`` / ``a(t+0)``, ``t+0``
the limit along the counterclockwise-forward side, by one side rule per
term (:class:`TermSides`); and Fourier coefficients in closed form, one
integral per arc (exactly c or 0 for a term c * t^k).  Inverses of sums
such as ``1/(3 + t)``, and what is built on them, combine the values of
their children node by node and take their coefficients by adaptive
quadrature split at the breaks.

Smart constructors (:func:`product`, :func:`inverse`, :func:`tilde`,
:func:`conjugate`) perform only exact rewrites, e.g. ``~t^n = t^-n``,
the merging of two power arcs with the same anchor or ``x * x^-1 = 1``,
so derived symbols keep closed-form coefficients whenever possible.  The
tilde and the conjugate have no node of their own: they are rewritten down
to the leaves, so every tree holds only primitives, sums, products and
inverses.
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


def phase(z: complex) -> float:
    """arg z in [-pi, pi], as cmath.phase on finite z, but without its
    OverflowError when atan2 underflows to a subnormal (2.5 + 5e-324j)."""
    return math.atan2(z.imag, z.real)


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
        return cls(phase(z))

    @property
    def value(self) -> complex:
        return cmath.exp(1j * self.angle)

    def reflected(self) -> "CirclePoint":
        """The point 1/t = conj(t)."""
        return CirclePoint(-self.angle)


POINT_ONE = CirclePoint(0.0)
POINT_MINUS_ONE = CirclePoint(math.pi)


# ---------------------------------------------------------------------------
# expression tree
# ---------------------------------------------------------------------------


class PCSymbol:
    """Base class of the nodes, frozen dataclasses made by :func:`_node`.

    Each node computes its hash once, at construction, from the stored
    hashes of its fields (Filliatre & Conchon, "Type-safe modular
    hash-consing", 2006), so a cache keyed by a symbol costs O(1) per
    lookup however deep the tree.  The value is the dataclass hash.
    """

    def __post_init__(self):  # the instance holds its fields, in order, and nothing else yet
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def __hash__(self):
        return self._hash

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


def _node(cls):
    """A frozen dataclass node that keeps the hash stored by PCSymbol."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = PCSymbol.__hash__
    return cls


def _as_symbol(x) -> PCSymbol:
    if isinstance(x, PCSymbol):
        return x
    return Const(complex(x))


@_node
class Const(PCSymbol):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        super().__post_init__()


@_node
class Monomial(PCSymbol):
    """t^n."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        super().__post_init__()


@_node
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
        super().__post_init__()


@_node
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
        super().__post_init__()


@_node
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
        super().__post_init__()


@_node
class HalfCircleExtension(PCSymbol):
    """g equal to g0 on the closed upper half-circle and to 1/g0(conj(t))
    on the lower one; satisfies g(t) * g(1/t) = 1 by construction."""

    g0: PCSymbol


@_node
class Sum(PCSymbol):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        super().__post_init__()


@_node
class Product(PCSymbol):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        super().__post_init__()


@_node
class Inverse(PCSymbol):
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
    same-anchor power arcs (phi_b * phi_c = phi_{b+c} exactly), and
    dropping a factor together with its inverse."""
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
    for inv in [f for f in rest if isinstance(f, Inverse)]:  # x * x^-1 = 1
        if inv in rest and inv.child in rest:
            rest.remove(inv)
            rest.remove(inv.child)

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
    return Inverse(sym)


def tilde(sym: PCSymbol) -> PCSymbol:
    """The symbol t |-> sym(1/t); jumps reflect and one-sided limits swap."""
    if isinstance(sym, Const):
        return sym
    if isinstance(sym, Monomial):
        return Monomial(-sym.n)
    if isinstance(sym, PowerArc):
        return PowerArc(-sym.beta, sym.anchor.reflected())
    if isinstance(sym, PiecewiseConst):  # the arc from b_j to b_{j+1} starts at -b_{j+1}
        starts = (b.reflected() for b in sym.breaks[1:] + sym.breaks[:1])
        return PiecewiseConst(*zip(*sorted(zip(starts, sym.values), key=lambda s: s[0].angle)))
    if isinstance(sym, ExpArcs):
        r = _reflected(_exp_pieces(sym))
        return ExpArcs(tuple(r.breaks[:-1]), tuple(r.c), tuple(r.lam))
    if isinstance(sym, HalfCircleExtension):
        return Inverse(sym)  # g * ~g = 1 exactly, by construction
    return _rebuilt(sym, tilde)


def _rebuilt(sym: PCSymbol, rewrite) -> PCSymbol:
    """A sum, product or inverse rebuilt from the rewrites of its children."""
    if isinstance(sym, Sum):
        return add(*map(rewrite, sym.terms))
    if isinstance(sym, Product):
        return product(*map(rewrite, sym.factors))
    if isinstance(sym, Inverse):
        return inverse(rewrite(sym.child))
    raise TypeError(f"unknown symbol node {type(sym)!r}")


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
    if isinstance(sym, HalfCircleExtension):
        return HalfCircleExtension(conjugate(sym.g0))  # conj(1/g0(conj t)) = 1/conj(g0)(conj t)
    return _rebuilt(sym, conjugate)


def power_arc(beta: complex, anchor: CirclePoint | float = POINT_ONE) -> PCSymbol:
    if not isinstance(anchor, CirclePoint):
        anchor = CirclePoint(anchor)
    return product(PowerArc(beta, anchor))  # normalizes integer beta


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class TermSides:
    """The side rule of one exp-linear term (:class:`ExpPieces`), which
    evaluation, the break tables, the closed-form index and the critical
    exponents all read.  Breaks less than ANGLE_SNAP apart, cyclically,
    count as one (``groups``); within ANGLE_SNAP of them the left limit is
    the end of the arc before the first and the right limit the start of
    the arc after the last (``limits``).  At any other angle one arc lookup
    gives the value."""

    def __init__(self, p: ExpPieces):
        self.pieces = p
        self.breaks, self.c, self.lam = (x.tolist() for x in p)
        breaks, self.groups = self.breaks, []  # groups: [first, last] break indices
        for j, angle in enumerate(breaks[:-1]):
            if j and angle - breaks[j - 1] < ANGLE_SNAP:
                self.groups[-1][1] = j
            else:
                self.groups.append([j, j])
        if len(self.groups) > 1 and TWO_PI - breaks[self.groups[-1][1]] < ANGLE_SNAP:
            self.groups[0][0] = self.groups.pop()[0]  # wraps onto 0
        self.spans = [(breaks[f], (breaks[last] - breaks[f]) % TWO_PI) for f, last in self.groups]
        c, lam = self.c, self.lam  # the arc before break 0 ends at 2 pi
        self.limits = [(c[f - 1] * cmath.exp(1j * lam[f - 1] * breaks[f if f else -1]),
                        c[last] * cmath.exp(1j * lam[last] * breaks[last]))
                       for f, last in self.groups]

    def at(self, theta: float) -> Optional[int]:
        """The group of breaks less than ANGLE_SNAP from theta, or None."""
        for i, (first, span) in enumerate(self.spans):
            if -ANGLE_SNAP < math.remainder(theta - first, TWO_PI) < span + ANGLE_SNAP:
                return i
        return None

    def turn(self, i: int) -> float:
        """arg(right/left) of group i in turns, from the phases of c and the
        growth of Re lam, not from the quotient of two rounded values."""
        (f, last), b, c, lam = self.groups[i], self.breaks, self.c, self.lam
        growth = (lam[last].real - lam[f - 1].real) * b[f] + lam[last].real * (b[last] - b[f])
        arg = phase(c[last]) - phase(c[f - 1])
        return arg / TWO_PI + growth / TWO_PI - (lam[-1].real if f == 0 else 0.0)

    def value(self, theta: float) -> complex:
        """The value of the arc holding theta in [0, 2*pi)."""
        j = min(bisect.bisect_right(self.breaks, theta) - 1, len(self.c) - 1)
        return self.c[j] * cmath.exp(1j * self.lam[j] * theta)

    def limit(self, theta: float, side: int) -> complex:
        """The left (side 0) or right (side 1) limit at theta in [0, 2*pi)."""
        i = self.at(theta)
        return self.value(theta) if i is None else self.limits[i][side]


@lru_cache(maxsize=4096)
def side_rules(sym: PCSymbol) -> Optional[tuple[TermSides, ...]]:
    """The side rule of each term of the symbol (:func:`_exp_terms`), or None
    when it has no terms; also None where an inverse in it comes too close
    to 0, so that the tree refuses only the values asked for."""
    try:
        terms = _exp_terms(sym)
    except DivisionBySmallModulus:
        return None
    return None if terms is None else tuple(map(TermSides, terms))


def single_term(sym: PCSymbol) -> Optional[ExpPieces]:
    """The symbol as one exp-linear term, or None (see :func:`side_rules`)."""
    rules = side_rules(sym)
    return rules[0].pieces if rules is not None and len(rules) == 1 else None


def side_index(side: str) -> int:
    """The place of ``side`` in a (left, right) pair; any other side is refused."""
    if side not in (LEFT, RIGHT):
        raise PreconditionViolation(f"side must be 'left' or 'right', got {side!r}")
    return int(side == RIGHT)


def reciprocal(v):
    """1/v for a value or an array, refused below the invertibility tolerance."""
    smallest = np.min(np.abs(v), initial=np.inf) if isinstance(v, np.ndarray) else abs(v)
    if smallest < INVERTIBILITY_TOL:
        raise DivisionBySmallModulus(f"modulus {smallest:.3e} below {INVERTIBILITY_TOL:.1e}")
    return 1.0 / v


def evaluate(sym: PCSymbol, t: CirclePoint | float, side: str = RIGHT) -> complex:
    """One-sided limit of the symbol at t: ``side="right"`` returns a(t+0),
    the limit along increasing angle (counterclockwise-forward), and
    ``side="left"`` returns a(t-0) (:func:`_eval`)."""
    i = side_index(side)
    return _eval(sym, t.angle if isinstance(t, CirclePoint) else _canonical_angle(t), i)


def evaluate_sides(sym: PCSymbol, t: CirclePoint | float) -> tuple[complex, complex]:
    """(sym(t-0), sym(t+0)): the entry of :func:`_one_sided_at_breaks` less
    than ANGLE_SNAP away, where the table snaps, and :func:`_eval` elsewhere."""
    angle = t.angle if isinstance(t, CirclePoint) else _canonical_angle(t)
    table = _one_sided_at_breaks(sym)
    j = bisect.bisect_left(table, (angle,))
    for x, left, right in sorted((table[j - 1], table[j % len(table)])):
        if abs(math.remainder(x - angle, TWO_PI)) < ANGLE_SNAP:
            return left, right
    return _eval(sym, angle, 0), _eval(sym, angle, 1)


def _eval(sym: PCSymbol, theta: float, side: int) -> complex:
    """sym(t-0) for side 0 and sym(t+0) for side 1, at theta in [0, 2*pi): the
    side rules of the terms summed (:class:`TermSides`); a node without terms
    combines the values of its children, and refuses a reciprocal only there."""
    rules = side_rules(sym)
    if rules is not None:
        values = [rule.limit(theta, side) for rule in rules]
        return values[0] if len(values) == 1 else sum(values[1:], values[0])
    if isinstance(sym, HalfCircleExtension):  # g0 above, 1/g0(conj t) below
        at_one = theta < ANGLE_SNAP or TWO_PI - theta < ANGLE_SNAP
        if at_one or abs(theta - math.pi) < ANGLE_SNAP:  # the upper side takes g0's limit
            value = _eval(sym.g0, 0.0 if at_one else math.pi, int(at_one))
            return value if side == at_one else reciprocal(value)
        if theta < math.pi:
            return _eval(sym.g0, theta, side)
        return reciprocal(_eval(sym.g0, TWO_PI - theta, 1 - side))  # conj reverses orientation
    if isinstance(sym, Inverse):
        return reciprocal(_eval(sym.child, theta, side))
    if isinstance(sym, (Sum, Product)):
        combine, parts = (sum, sym.terms) if isinstance(sym, Sum) else (math.prod, sym.factors)
        return combine(_eval(x, theta, side) for x in parts)
    raise TypeError(f"unknown symbol node {type(sym)!r}")


def evaluate_array(sym: PCSymbol, thetas: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at generic (non-jump) angles, in the shape of ``thetas``.

    At an exact jump angle this returns the forward-side value sym(t+0);
    callers that care about one-sided limits use :func:`evaluate_sides`.  A
    symbol with terms (:func:`_exp_terms`) is evaluated from them, one lookup
    per term; one without terms, such as an inverse of a sum, by :func:`_eval`.
    """
    thetas = np.asarray(thetas, dtype=float)
    rules = side_rules(sym)
    if rules is None:
        values = [_eval(sym, _canonical_angle(theta), 1) for theta in thetas.ravel().tolist()]
        return np.array(values, dtype=complex).reshape(thetas.shape)
    thetas = np.mod(thetas, TWO_PI)
    out = None
    for rule in rules:
        c, lam = _pieces_at(rule.pieces, thetas)
        value = c * np.exp(1j * lam * thetas)
        out = value if out is None else out + value
    return out


# ---------------------------------------------------------------------------
# jumps and grids
# ---------------------------------------------------------------------------


def _breaks(sym: PCSymbol) -> set[float]:
    """The angles where the symbol may jump: the breaks of its terms
    (:func:`_exp_terms`), 0 among them; a node without terms has those of
    its children, and a half-circle extension also their reflections and pi."""
    rules = side_rules(sym)
    if rules is not None:
        return {b for rule in rules for b in rule.breaks[:-1] if b < TWO_PI}
    if isinstance(sym, HalfCircleExtension):
        inner = _breaks(sym.g0)
        return {math.pi} | inner | {_canonical_angle(-a) for a in inner}
    if isinstance(sym, (Sum, Product)):
        return set().union(*map(_breaks, sym.terms if isinstance(sym, Sum) else sym.factors))
    if isinstance(sym, Inverse):
        return _breaks(sym.child)
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
    return tuple((angle, _eval(sym, angle, 0), _eval(sym, angle, 1))
                 for angle in dedupe_angles(_breaks(sym) | {0.0, math.pi}))


@lru_cache(maxsize=50_000)
def _jump_set_cached(sym: PCSymbol):
    return tuple((CirclePoint(angle), left, right) for angle, left, right
                 in _one_sided_at_breaks(sym) if abs(left - right) > JUMP_TOL)


def jump_set(sym: PCSymbol):
    """Jump points with one-sided values, sorted by angle: the breaks where
    the one-sided limits differ by more than JUMP_TOL.

    The points +-1 are always probed; they play a distinguished role for
    Hankel operators (the only fixed points of the flip).  Results are
    cached per symbol (symbols are immutable).
    """
    return list(_jump_set_cached(sym))


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


def _common_arcs(*breaks: list) -> tuple[np.ndarray, list]:
    """Union of several break lists, with the midpoint of each arc.  np.unique
    picks between 0.0 and -0.0 its own way, which only a leading -0.0 needs."""
    if any(math.copysign(1.0, b[0]) < 0 for b in breaks):
        union = np.unique(np.concatenate(breaks)).tolist()
    else:
        union = sorted(set().union(*breaks))
    return np.array(union), [0.5 * (x + y) for x, y in zip(union, union[1:])]


def _multiply(parts) -> ExpPieces:
    """Pointwise product of terms: common arcs, c multiplied, lam added."""
    lists = [p.breaks.tolist() for p in parts]
    breaks, mid = _common_arcs(*lists)
    c = np.ones(len(mid), dtype=complex)
    lam = np.zeros(len(mid), dtype=complex)
    for p, pb in zip(parts, lists):  # the arcs of p holding the midpoints, as in _pieces_at
        last = len(pb) - 2
        j = [min(bisect.bisect_right(pb, m) - 1, last) for m in mid] if last else 0
        c, lam = c * p.c[j], lam + p.lam[j]
    return _pieces(breaks, c, lam)


def _reflected(p: ExpPieces) -> ExpPieces:
    """The term at 2*pi - theta: c exp(i lam (2 pi - theta)) on the reflected arc."""
    phase = np.exp(TWO_PI * 1j * p.lam)
    phase[p.lam == np.round(p.lam.real)] = 1.0  # exactly, for integer lam
    return _pieces(TWO_PI - p.breaks[::-1], (p.c * phase)[::-1], -p.lam[::-1])


def _inverted(p: ExpPieces) -> ExpPieces:
    """The term 1/p, refused with DivisionBySmallModulus where ``evaluate``
    would: |c * exp(i lam theta)| is monotone on each arc, so its minimum is
    at an arc end."""
    modulus = np.abs(p.c) * np.minimum(np.exp(-p.lam.imag * p.breaks[:-1]),
                                       np.exp(-p.lam.imag * p.breaks[1:]))
    if np.min(modulus) < INVERTIBILITY_TOL:
        raise DivisionBySmallModulus(
            f"modulus {np.min(modulus):.3e} below tolerance {INVERTIBILITY_TOL:.1e}")
    return _pieces(p.breaks, 1.0 / p.c, -p.lam)


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
    inverse or a half-circle extension needs a child of exactly one term,
    and raises DivisionBySmallModulus where ``evaluate`` would (:func:`_inverted`).
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
        return None if p is None else (_inverted(p),)
    if isinstance(sym, HalfCircleExtension):
        upper = _exp_pieces(sym.g0)
        if upper is None:
            return None
        lower = _inverted(_reflected(upper))  # 1/g0(conj t)
        breaks, mid = _common_arcs(upper.breaks.tolist(), lower.breaks.tolist(), [math.pi])
        (uc, ulam), (lc, llam) = _pieces_at(upper, mid), _pieces_at(lower, mid)
        top = np.array(mid) < math.pi
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
    base = dedupe_angles(_breaks(sym)) + [TWO_PI]  # 0 is always a break

    previous = None
    for refinement in range(3):
        panels = np.array(base)
        for _ in range(refinement):
            panels = np.sort(np.concatenate([panels, 0.5 * (panels[:-1] + panels[1:])]))
        total = 0.0 + 0.0j
        bound = 0.0
        eps = tol / max(1, 8 * (len(panels) - 1))
        for a0, a1 in zip(panels[:-1], panels[1:]):
            @lru_cache(maxsize=None)  # the real and imaginary parts share the values
            def f(theta, _a0=a0, _a1=a1):
                # quadrature rules may evaluate at panel edges: use the side
                # whose limit belongs to this panel
                if theta - _a0 < ANGLE_SNAP:
                    return _eval(sym, _canonical_angle(_a0), 1)
                if _a1 - theta < ANGLE_SNAP:
                    return _eval(sym, _canonical_angle(_a1), 0)
                return _eval(sym, _canonical_angle(theta), 1)

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
