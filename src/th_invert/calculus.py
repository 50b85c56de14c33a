"""Exponent-dependent symbol calculus on the Hardy space H^p.

Fredholmness and indices of Toeplitz (and Toeplitz-plus-Hankel) operators
with piecewise continuous generating functions are governed by a scalar or
2x2-matrix symbol over the cylinder T x [-inf, inf].  At each jump of the
generating function the two one-sided values are joined by the circular
arc traced by

    nu_p(y) = (1 + coth(pi*(y + i/p))) / 2,

which degenerates to the straight segment at p = 2, while the jump
contribution of Hankel operators at the points +-1 enters through

    h_p(y) = 1 / sinh(pi*(y + i/p)).

Indices are minus the winding number of the arc-completed symbol curve
about the origin; for 2x2 matrix symbols the curve is the determinant of
the arc-interpolated matrix.  When the curve's stretches are single
exp-linear terms, the winding is a sum of closed-form increments with a
certified distance from the origin (:func:`exact_index`).  Each index kind
has one function, :func:`toeplitz_index`, :func:`matrix_toeplitz_index` and
:func:`th_index`, whose ``route`` keyword says how it is read: AUTO takes
the closed form where it decides and the sampled curve otherwise, EXACT the
closed form alone, SAMPLED the curve alone, as the independent witness.

Every sampled curve starts from one base grid of constant size, GRID_N
angles by Y_GRID_N finite y samples per arc, laid out as one array of
parameters with segment ids and evaluated in whole-curve calls: one call
for the stretch values, which curves of the same stretch and jumps share,
and one ``arc_values(ids, nu, h)`` call for every arc point, with the jump
id of each point.  It is refined adaptively wherever a step turns too far
about the origin, all segments in one loop, with the round and size caps
per segment.  The Fredholm check of the T+H symbol samples angles only and
certifies its arcs in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .defaults import (
    GRID_N,
    INVERTIBILITY_TOL,
    WINDING_MIN_MODULUS,
    WINDING_RESIDUAL,
    Y_GRID_DELTA,
    Y_GRID_N,
)
from .errors import (
    CurveThroughOrigin,
    DegenerateArc,
    NonIntegerWinding,
    NotFredholm,
    OutOfDomain,
    PreconditionViolation,
)
from . import symbols as sy
from .matching import MatrixSymbol, build_u_matrix_general
from .symbols import (
    TWO_PI,
    CirclePoint,
    ExpArcs,
    Monomial,
    PCSymbol,
    PiecewiseConst,
    evaluate_array,
    evaluate_sides,
    jump_set,
)


@dataclass(frozen=True)
class HardyExponent:
    """An exponent p in (1, inf) together with its conjugate q."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < math.inf):
            raise PreconditionViolation(f"p must lie in (1, inf), got {p}")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


def _as_exponent(p) -> HardyExponent:
    return p if isinstance(p, HardyExponent) else HardyExponent(p)


# ---------------------------------------------------------------------------
# weight functions and arcs
# ---------------------------------------------------------------------------


def weight_functions(p, y):
    """(nu_p(y), h_p(y)) elementwise over y, exact at y = +-inf.

    nu_p runs from 0 at -inf to 1 at +inf along a circular arc; h_p
    vanishes at both ends and takes values in the closed lower half-plane.
    A scalar y gives scalars, an array of y gives arrays.
    """
    p = _as_exponent(p).p
    y = np.asarray(y, dtype=float)
    nus = np.array(y > 0, dtype=complex)  # the exact values at +-inf
    hs = np.zeros(y.shape, dtype=complex)
    finite = np.isfinite(y)
    z = math.pi * (y[finite] + 1j / p)
    sh = np.sinh(z)
    nus[finite] = 0.5 * (1.0 + np.cosh(z) / sh)
    hs[finite] = 1.0 / sh
    return nus[()], hs[()]


def y_grid() -> np.ndarray:
    """The Y_GRID_N finite y samples via the tanh map; dense near the arc endpoints."""
    u = np.linspace(-1.0 + Y_GRID_DELTA, 1.0 - Y_GRID_DELTA, Y_GRID_N)
    return np.arctanh(u)


def _y_axis() -> np.ndarray:
    """The compactified line: -inf, the finite samples of y_grid, +inf."""
    return np.concatenate([[-np.inf], y_grid(), [np.inf]])


@lru_cache(maxsize=32)
def _base_weights(p: float) -> tuple[np.ndarray, np.ndarray]:
    """weight_functions(p, _y_axis()), the same for every arc of every curve;
    read-only, as they are shared."""
    nus, hs = weight_functions(p, _y_axis())
    nus.flags.writeable = hs.flags.writeable = False
    return nus, hs


def _interpolate(u, w, nu):
    """u (1 - nu) + w nu, elementwise: the point nu of the arc from u to w.
    The ends are the first factors; numpy's complex product is not bitwise
    commutative, and the curves keep the bits of this order."""
    return u * (1.0 - nu) + w * nu


def arc(u: complex, w: complex, p) -> "SymbolCurve":
    """The oriented arc {u*(1 - nu_p(y)) + w*nu_p(y)} from u to w.

    For p = 2 this is the segment [u, w]; for p > 2 it bulges right of the
    directed line u -> w, for p < 2 left of it.  From every interior point
    the segment [u, w] subtends the angle 2*pi / max(p, q).
    """
    if u == w:
        raise DegenerateArc("arc endpoints coincide")
    ys = _y_axis()
    nus, _ = weight_functions(p, ys)
    values = _interpolate(u, w, nus)
    params = np.tanh(np.clip(ys, -50, 50))
    return SymbolCurve(
        seg_ids=np.zeros(len(values), dtype=int),
        params=params,
        values=values,
        closed=False,
        min_modulus=float(np.min(np.abs(values))),
    )


# ---------------------------------------------------------------------------
# curves and winding numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolCurve:
    """Sampled oriented curve; closed curves support winding numbers."""

    seg_ids: np.ndarray
    params: np.ndarray
    values: np.ndarray
    closed: bool
    min_modulus: float

    def __len__(self):
        return len(self.values)


def winding(curve: SymbolCurve, min_modulus_tol: float = WINDING_MIN_MODULUS) -> int:
    """Winding number about the origin from accumulated argument increments.

    The principal-argument steps of a closed polyline sum to whole turns up
    to round-off, so NonIntegerWinding in practice means a step above 2.8
    rad, which may pass either side of the origin: adaptive refinement hit
    its cap before resolving it.
    """
    if curve.min_modulus <= min_modulus_tol:
        raise CurveThroughOrigin(
            f"curve minimum modulus {curve.min_modulus:.3e} <= {min_modulus_tol:.1e}")
    if not curve.closed:
        raise PreconditionViolation("winding is defined for closed curves only")
    z = curve.values
    dphi = np.angle(z[1:] / z[:-1])
    total = float(dphi.sum()) / TWO_PI
    nearest = round(total)
    if abs(total - nearest) >= WINDING_RESIDUAL or float(np.max(np.abs(dphi), initial=0.0)) > 2.8:
        raise NonIntegerWinding(
            f"winding {total:.4f} not close to an integer (undersampled curve)")
    return int(nearest)


# Refinement caps, per segment: rounds of midpoint insertion, and the size
# beyond which a segment is no longer refined.
REFINE_ROUNDS = 48
REFINE_MAX_POINTS = 400_000


@dataclass(frozen=True)
class _Stretch:
    """The stretch symbol of a curve: ``symbol``, or symbol/~symbol when
    ``quotient``, as det U = a/~a of a matrix symbol.  Curves with equal
    stretches share its values."""

    symbol: PCSymbol
    quotient: bool

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """The stretch at angles in [0, 2 pi) where neither it nor ~symbol jumps."""
        values = evaluate_array(self.symbol, thetas)
        if not self.quotient:
            return values
        return values * sy.reciprocal(evaluate_array(self.symbol, np.mod(-thetas, TWO_PI)))

    def term(self) -> Optional[sy.ExpPieces]:
        """The stretch as one exp-linear term, or None; a/~a from the term of
        a and its reflection."""
        term = sy.single_term(self.symbol)
        if not self.quotient or term is None:
            return term
        if not np.all(np.abs(term.c) >= INVERTIBILITY_TOL):
            return None
        mirror = sy._reflected(term)
        return sy._multiply((term, mirror._replace(c=1.0 / mirror.c, lam=-mirror.lam)))


class _Grid(NamedTuple):
    """The base grid of a curve, without its closing point; read-only."""

    seg_ids: np.ndarray
    params: np.ndarray
    seg_jump: np.ndarray   # jump id of each segment's arc, -1 for a stretch
    inner: np.ndarray      # mask of the stretch points evaluated: all but the ends
    starts: np.ndarray     # the first point of each stretch, after jump j
    stops: np.ndarray      # the last point of each stretch, before jump j + 1
    arcs: np.ndarray       # mask of the arc points
    arc_jumps: np.ndarray  # the jump id of each arc point


def _read_only(*arrays):
    for x in arrays:
        x.flags.writeable = False
    return arrays


@lru_cache(maxsize=2)
def _base_grid(angles: tuple) -> _Grid:
    """The base grid of a curve with jumps at ``angles``, shared by every
    curve with those jumps: the two signs of b take their two curves in
    turn, so two grids serve both.

    Segment 2j is the stretch from jump j to jump j + 1 (cyclically), its
    ends included, with GRID_N points per turn and at least 8 inside it;
    segment 2j + 1 is the arc at jump j + 1, in u = tanh(y) over
    :func:`_y_axis`.  Without jumps the one segment runs over [0, 2 pi],
    every point evaluated.
    """
    if not angles:
        params = np.concatenate([np.linspace(0.0, TWO_PI, GRID_N, endpoint=False), [TWO_PI]])
        none = np.arange(0)
        return _Grid(*_read_only(np.zeros(len(params), dtype=int), params, np.array([-1]),
                                 np.ones(len(params), dtype=bool), none, none,
                                 np.zeros(len(params), dtype=bool), none))
    k = len(angles)
    us = np.tanh(_y_axis())
    pieces = []
    for j, a0 in enumerate(angles):
        following = angles[(j + 1) % k]
        a1 = following if following > a0 else following + TWO_PI
        npts = max(8, int(round(GRID_N * (a1 - a0) / TWO_PI)))
        pieces += [np.linspace(a0, a1, npts + 2), us]
    sizes = np.array([len(x) for x in pieces])
    starts = (np.cumsum(sizes) - sizes)[::2]
    stops = starts + sizes[::2] - 1
    seg_ids = np.repeat(np.arange(2 * k), sizes)
    seg_jump = np.where(np.arange(2 * k) % 2 == 1, (np.arange(2 * k) // 2 + 1) % k, -1)
    arcs = seg_jump[seg_ids] >= 0
    inner = ~arcs
    inner[starts] = inner[stops] = False
    return _Grid(*_read_only(seg_ids, np.concatenate(pieces), seg_jump, inner,
                             starts, stops, arcs, seg_jump[seg_ids[arcs]]))


@lru_cache(maxsize=2)
def _base_stretch(stretch: _Stretch, angles: tuple) -> np.ndarray:
    """The stretch values at the evaluated points of ``_base_grid(angles)``;
    read-only.  det U1 = (a g^-1)/(~a ~g^-1) and the flip curve's g are the
    same for both signs of b, so both signs read them from here."""
    grid = _base_grid(angles)
    values = stretch.values(np.mod(grid.params[grid.inner], TWO_PI))
    values.flags.writeable = False
    return values


def _refine(seg_ids, params, values, seg_jump, stretch: _Stretch, arc_values, p: float):
    """Insert parameter midpoints until no step of a segment subtends more
    than 0.35 radians at the origin, for at most REFINE_ROUNDS rounds and
    while the segment has at most REFINE_MAX_POINTS points.

    All segments are refined together: each round takes the step angles of
    the whole curve once, leaves out the steps from one segment to the
    next, and evaluates the stretch midpoints in one call and the arc
    midpoints in another, so each segment gets exactly the points that
    refining it alone would give.  Curves passing exactly through the
    origin keep near-pi steps at every depth; the caps end the search and
    the tiny resulting minimum modulus fails the Fredholm tolerance
    downstream.
    """
    for _ in range(REFINE_ROUNDS):
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.abs(np.angle(values[1:] / values[:-1]))
        bad = (dphi > 0.35) & (seg_ids[1:] == seg_ids[:-1])
        if len(values) > REFINE_MAX_POINTS:
            bad &= (np.bincount(seg_ids) <= REFINE_MAX_POINTS)[seg_ids[1:]]
        left = np.flatnonzero(bad)
        if not len(left):
            break
        mids = 0.5 * (params[left] + params[left + 1])
        sid = seg_ids[left]
        jump = seg_jump[sid]
        on_arc = jump >= 0
        mvals = np.empty(len(mids), dtype=complex)
        if not on_arc.all():
            mvals[~on_arc] = stretch.values(np.mod(mids[~on_arc], TWO_PI))
        if on_arc.any():
            with np.errstate(divide="ignore"):
                nu, h = weight_functions(p, np.arctanh(mids[on_arc]))
            mvals[on_arc] = arc_values(jump[on_arc], nu, h)
        seg_ids = np.insert(seg_ids, left + 1, sid)
        params = np.insert(params, left + 1, mids)
        values = np.insert(values, left + 1, mvals)
    return seg_ids, params, values


def _assemble_closed_curve(
    sides: Mapping,
    stretch: _Stretch,
    arc_values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    p,
) -> SymbolCurve:
    """Concatenate continuous stretches with arc insertions at each jump.

    ``sides`` maps each jump angle, in increasing order, to the values at
    t-0 and t+0; jump j is the j-th of them.  The curve starts just after
    the first jump (or at angle 0 when there is none) and is explicitly
    closed by repeating its first point.  It is laid out once, on
    :func:`_base_grid`, and evaluated in whole-curve calls: the stretch
    values come from :func:`_base_stretch`, and every arc point from one
    call ``arc_values(ids, nu, h)``, which gets the jump id of each point
    and its weights nu_p(y), h_p(y), elementwise.  Arcs are parametrized
    by u = tanh(y) in [-1, 1].  :func:`_refine` then refines every segment
    near the origin, with its caps per segment, so close approaches are
    resolved.
    """
    pe = _as_exponent(p).p
    angles = tuple(sides)
    grid = _base_grid(angles)
    values = np.empty(len(grid.params), dtype=complex)
    values[grid.inner] = _base_stretch(stretch, angles)
    if angles:
        ends = list(sides.values())
        values[grid.starts] = [right for _, right in ends]
        values[grid.stops] = [left for left, _ in ends[1:] + ends[:1]]
        nus, hs = _base_weights(pe)
        values[grid.arcs] = arc_values(grid.arc_jumps, np.tile(nus, len(angles)),
                                       np.tile(hs, len(angles)))
    seg_ids, params, values = _refine(grid.seg_ids, grid.params, values, grid.seg_jump,
                                      stretch, arc_values, pe)
    # close explicitly; without jumps the last point, at 2 pi, gives way to the first
    body = slice(None) if angles else slice(None, -1)
    values = np.append(values[body], values[0])
    return SymbolCurve(
        seg_ids=np.append(seg_ids[body], seg_ids[-1]),
        params=np.append(params[body], params[0]),
        values=values,
        closed=True,
        min_modulus=float(np.min(np.abs(values))),
    )


@dataclass(frozen=True)
class IndexResult:
    fredholm: bool
    index: Optional[int]
    min_modulus: float

    def require(self) -> int:
        if not self.fredholm or self.index is None:
            raise NotFredholm(f"operator is not Fredholm (min modulus {self.min_modulus:.2e})")
        return self.index


def _curve_index(curve: SymbolCurve, min_modulus_tol: float) -> IndexResult:
    """Fredholmness and index from one closed curve: not Fredholm when it
    comes within ``min_modulus_tol`` of the origin, else minus its winding.
    NonIntegerWinding is not retried: refinement hit its cap, and a finer
    base grid would not mend that."""
    if curve.min_modulus <= min_modulus_tol:
        return IndexResult(False, None, curve.min_modulus)
    return IndexResult(True, -winding(curve, min_modulus_tol), curve.min_modulus)


# ---------------------------------------------------------------------------
# exact windings of single-term curves
# ---------------------------------------------------------------------------

# How an index is computed: the closed form when it decides and the curve
# otherwise (AUTO), the closed form alone (EXACT, None when it does not
# decide), or the curve alone (SAMPLED, the independent witness).
AUTO, EXACT, SAMPLED = "auto", "exact", "sampled"

# Largest argument step accepted where a jump table value meets the stretch
# symbol; both are one-sided limits of the same function.
GLUE_MAX = 0.1


class _Arc(NamedTuple):
    """An arc of a curve, from ``start`` at y = -inf to ``end`` at y = +inf."""

    start: complex
    end: complex
    turn: float     # argument increment from start to end
    bound: float    # certified lower bound of the modulus along the arc
    nearest: float  # smallest modulus at the arc points nearest the roots;
                    # computed only when bound <= tol, inf otherwise
    y: float        # y of the arc point nearest the closest root, 0 without roots


def _turn_fraction(z: complex) -> float:
    """x in [0, 1) with arg z = -2 pi x (mod 2 pi).

    For the arc from u to w, with z = w/u, the origin lies on the p-arc
    exactly when 1/p = x, and the argument increment along the arc is
    2 pi ([x > 1/p] - x), Arg z reduced into (-2pi/p, 2pi(1 - 1/p)).
    """
    return (-sy.phase(z) / TWO_PI) % 1.0


def _arc_turn(z: complex, p: float) -> float:
    """Argument increment of nu - r along the p-arc nu_p, for z = (r - 1)/r."""
    x = _turn_fraction(z)
    return TWO_PI * ((x > 1.0 / p) - x)


def _roots(c0: complex, c1: complex, c2: complex) -> tuple[complex, tuple]:
    """(leading coefficient, roots) of c0 + c1 x + c2 x^2, by the stable formula."""
    if c2 != 0:
        d = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
        q = -0.5 * (c1 + d if (c1.conjugate() * d).real >= 0 else c1 - d)
        if not q:
            return c2, (0j, 0j)
        if cmath.isfinite(q / c2):
            return c2, (q / c2, c0 / q)
        # c2 so small that its root lies beyond the float range: on the
        # arc the polynomial is its linear part to within |c2| |nu|^2
    if c1 != 0:
        root = -c0 / c1
        if cmath.isfinite(root):
            return c1, (root,)
        # c1 so small that its root lies beyond the float range: on the arc
        # the polynomial is its constant part to within |c1| |nu|
    return c0, ()


def _arc_distance(z: complex, p: float) -> Optional[tuple[float, complex]]:
    """(lower bound of the distance, nearest point) from z to the p-arc
    {nu_p(y)}, the circular arc from 0 to 1 through nu_p(0).

    Its circle passes through 0 and 1 with center 1/2 - (i/2) cot(2pi/p);
    the arc is the part on the side of the chord [0, 1] where nu_p(0) lies,
    below it for p > 2.  Within about 6e-5 of p = 2 the arc is the segment
    [0, 1] up to its sagitta, which the bound subtracts.  None when p is so
    close to 1, or so large, that the circle is out of numerical reach.
    """
    alpha = TWO_PI / p
    s, c = math.sin(alpha), math.cos(alpha)
    if abs(s) < 1e-4:
        if c > 0:
            return None
        near = min(max(z.real, 0.0), 1.0)
        sagitta = 0.5 * abs(math.cos(alpha / 2) / math.sin(alpha / 2))
        return max(abs(z - near) - sagitta, 0.0), complex(near)
    center = complex(0.5, -0.5 * c / s)
    radius = 0.5 / abs(s)
    offset = abs(z - center)
    point = (center + radius * (z - center) / offset if offset
             else complex(0.5, -0.5 / math.tan(alpha / 2)))  # every point is nearest
    if point.imag * (p - 2.0) < 0:
        if offset > 2.0 * radius:
            return offset - radius, point
        # near the circle: its power |z|^2 - Re z + Im z cot(alpha) over
        # |z - center| + radius, without cancellation
        power = z.real * (z.real - 1.0) + z.imag * (z.imag + c / s)
        return abs(power) / (offset + radius), point
    return min((abs(z), 0j), (abs(z - 1.0), 1 + 0j), key=lambda dn: dn[0])


def _nu_y(nu: complex) -> float:
    """The y with nu_p(y) = nu for a point nu of the p-arc (any p)."""
    if nu == 0:
        return -math.inf
    if nu == 1:
        return math.inf
    return -math.log(abs((nu - 1.0) / nu)) / TWO_PI


def _polynomial_arc(c0: complex, c1: complex, c2: complex, p: float, tol: float
                    ) -> Optional[_Arc]:
    """The arc of c0 + c1 nu + c2 nu^2 along nu = nu_p(y).

    With roots r_k, each factor nu - r_k turns by _arc_turn((r_k - 1)/r_k),
    and |lead| * prod dist(r_k, arc) bounds the modulus from below; with two
    roots so does |lead| * min dist * |r_0 - r_1|/2, since the factor of the
    root farther from nu is at least |r_0 - r_1|/2.
    """
    lead, roots = _roots(c0, c1, c2)
    turn, nearest = 0.0, math.inf
    near = []
    for r in roots:
        found = _arc_distance(r, p) if cmath.isfinite(r) else None
        if found is None:
            return None
        near.append(found)
        turn += _arc_turn(1.0 - 1.0 / r, p) if r else math.nan
    dist = [d for d, _ in near]
    bound = abs(lead) * math.prod(dist)
    if len(roots) == 2:
        bound = max(bound, abs(lead) * min(dist) * abs(roots[0] - roots[1]) / 2.0)
    ys = [_nu_y(point) for _, point in sorted(near, key=lambda dn: dn[0])]
    if bound <= tol:
        for y in ys:
            nu, _ = weight_functions(p, y)
            nearest = min(nearest, abs(c0 + nu * (c1 + nu * c2)))
    return _Arc(c0, c0 + c1 + c2, turn, bound, nearest, ys[0] if ys else 0.0)


def _two_root_bound(dist: list, roots: tuple) -> float:
    """Lower bound of |x - r_0| |x - r_1| over a set at distances ``dist``
    from the roots: their product, or the smaller times |r_0 - r_1|/2,
    which the factor of the root farther from x exceeds."""
    return max(dist[0] * dist[1], min(dist) * abs(roots[0] - roots[1]) / 2.0)


def _scalar_arc(entry, angle: float, p: float, tol: float) -> Optional[_Arc]:
    """Arc of a scalar Toeplitz curve, entry (u, w): u + nu (w - u) = (w - u)(nu - r)
    with r = u/(u - w), so its bound is |w - u| dist(r, arc)."""
    u, w = entry
    return _polynomial_arc(u, w - u, 0j, p, tol)


def _matrix_arc(entry, angle: float, p: float, tol: float) -> Optional[_Arc]:
    """Arc of a determinant curve, entry (L, R): det(L + nu (R - L)), a quadratic in nu."""
    (l00, l01), (l10, l11) = entry[0].tolist()
    (d00, d01), (d10, d11) = (entry[1] - entry[0]).tolist()
    return _polynomial_arc(l00 * l11 - l01 * l10, l00 * d11 + d00 * l11 - l01 * d10 - d01 * l10,
                           d00 * d11 - d01 * d10, p, tol)


def _flip_arc(entry, angle: float, p: float, tol: float) -> Optional[_Arc]:
    """Arc of the scalar T+H symbol at t = +-1, entry (g(t-0), g(t+0), b(t-0), b(t+0)).

    With s = e^{pi (y + i/p)}, nu = s^2/(s^2 - 1) and h = 2s/(s^2 - 1), so
    the symbol is (gr s^2 + k s - gl)/(s^2 - 1), k = +-(br - bl), along the
    ray arg s = pi/p from 0 to infinity.  Each factor s - r turns by
    pi/p - arg(-r) reduced into (-pi, pi); the denominator's roots +-1 turn
    by 2 pi/p - pi together.  Two lower bounds of the modulus hold; the
    second is computed only where the first does not exceed ``tol``, and
    then the larger is taken:

    * on the ray |s - r|/|s - e| >= u/(u + |e - r|), u = |s - r| >= d, the
      distance from r to the ray, and one of the two u is >= |r_0 - r_1|/2;
      this bounds the modulus after pairing the roots with +-1;
    * split at |s| = 1: |s^2 - 1| <= 2 inside, where the numerator is at
      least |gr| B(r_0, r_1); and <= 2 |s|^2 outside, where the numerator
      over s^2 is gr + k w - gl w^2 in w = 1/s, with roots 1/r_k on the
      mirror ray arg w = -pi/p, at least |gl| B(1/r_0, 1/r_1).  B is the
      two-root bound of :func:`_polynomial_arc` against the ray.  This one
      holds where the roots differ much in size, which the pairing misses.
    """
    gl, gr, bl, br = entry
    k = br - bl if angle == 0.0 else bl - br
    phi = math.pi / p
    ray = cmath.exp(1j * phi)
    _, roots = _roots(-gl, k, gr)
    if len(roots) != 2:
        return None
    along = [r * ray.conjugate() for r in roots]  # roots in the frame of the ray
    dist = [abs(a.imag) if a.real > 0 else abs(a) for a in along]
    half = abs(roots[0] - roots[1]) / 2.0
    bound = abs(gr) * max(
        min(u0 / (u0 + abs(e0 - roots[0])) * u1 / (u1 + abs(e1 - roots[1]))
            for u0, u1 in ((max(dist[0], half), dist[1]), (dist[0], max(dist[1], half))))
        for e0, e1 in ((1.0, -1.0), (-1.0, 1.0)))
    inverse = [1.0 / r if r else math.inf for r in roots] if bound <= tol else ()
    if inverse and all(map(cmath.isfinite, inverse)):
        mirrored = [abs(a.imag) if a.real > 0 else abs(a) for a in (z * ray for z in inverse)]
        bound = max(bound, min(abs(gr) * _two_root_bound(dist, roots),
                               abs(gl) * _two_root_bound(mirrored, inverse)) / 2.0)
    turn = sum(math.remainder(phi - sy.phase(-r), TWO_PI) for r in roots) - (2 * phi - math.pi)
    nearest = math.inf
    ys = [math.log(a.real) / math.pi if a.real > 0 else -math.inf
          for _, a in sorted(zip(dist, along), key=lambda da: da[0])]
    if bound <= tol:
        for y in ys:
            nu, h = weight_functions(p, y)
            nearest = min(nearest, abs(gr * nu + gl * (1.0 - nu) + k / 2.0 * h))
    return _Arc(gl, gr, turn, bound, nearest, ys[0])


def exact_index(jumps: dict, stretch: _Stretch, arc: Callable, p,
                min_modulus_tol: float = WINDING_MIN_MODULUS) -> Optional[IndexResult]:
    """Fredholmness and index of a closed symbol curve in closed form, or None.

    The curve is the stretch symbol along the circle with an arc inserted
    at each angle of the jump table ``jumps``; ``arc(entry, angle, p, tol)``
    is the arc kind (:func:`_scalar_arc`, :func:`_matrix_arc` or
    :func:`_flip_arc`) and builds the arc from the table entry.  The closed
    form needs the stretch as one exp-linear term c_j e^{i lam_j theta}
    (:meth:`_Stretch.term`): its argument grows by Re(lam_j) times the length
    of each piece, and its modulus is monotone there, so its minimum sits at
    the piece ends.  A term break that is no jump adds the principal
    Arg(right/left) of the sides that :class:`symbols.TermSides` gives.

    Decides only when it is safe:

    * Fredholm, with index minus the winding, when the certified lower
      bound of the modulus (exact at the piece ends, from the root
      distances on the arcs) exceeds ``min_modulus_tol``; ``min_modulus``
      is that bound;
    * not Fredholm when a piece end, or the arc point nearest a root, has
      modulus at most ``min_modulus_tol / 100``;
    * None otherwise, and whenever the stretch is not a single term, an
      arc is out of reach or the table does not meet the stretch: the curve
      decides then.
    """
    pe = _as_exponent(p).p
    term = stretch.term()
    if term is None:
        return None
    arcs = {}
    for angle, entry in jumps.items():
        arcs[angle] = arc(entry, angle, pe, min_modulus_tol)
        if arcs[angle] is None:
            return None
    rule = sy.TermSides(term)
    ends_min = min(abs(cj * cmath.exp(1j * lj * b)) for cj, lj, b0, b1
                   in zip(rule.c, rule.lam, rule.breaks, rule.breaks[1:]) for b in (b0, b1))
    bound = min([ends_min] + [a.bound for a in arcs.values()])
    if bound <= min_modulus_tol:
        nearest = min([ends_min] + [a.nearest for a in arcs.values()])
        return IndexResult(False, None, nearest) if nearest <= min_modulus_tol / 100 else None

    glue = []  # principal steps where the curve passes from one value to the next
    total = sum(lj.real * (b1 - b0) for lj, b0, b1 in zip(rule.lam, rule.breaks, rule.breaks[1:]))
    for i, (left, right) in enumerate(rule.limits):
        at = next((t for t in arcs if rule.at(t) == i), None)
        if at is None:
            glue.append((left, right))
        else:
            a = arcs.pop(at)
            glue += [(left, a.start), (a.end, right)]
            total += a.turn
    for angle, a in arcs.items():  # jumps of the table where the term is smooth
        value = rule.value(angle)
        glue += [(value, a.start), (a.end, value)]
        total += a.turn
    for x, y in glue:
        step = sy.phase(y / x)
        if abs(step) > GLUE_MAX:
            return None
        total += step
    wind = total / TWO_PI
    if abs(wind - round(wind)) > 1e-6:
        return None
    return IndexResult(True, -int(round(wind)), bound)


def _index(exact: Callable[[], Optional[IndexResult]], build: Callable[[], SymbolCurve],
           min_modulus_tol: float, route: str) -> Optional[IndexResult]:
    """The index by ``route`` (AUTO, EXACT or SAMPLED) from the closed form
    ``exact()`` and the curve ``build()``."""
    res = None if route == SAMPLED else exact()
    if res is None and route != EXACT:
        res = _curve_index(build(), min_modulus_tol)
    return res


@lru_cache(maxsize=4096)
def _jump_table(a: PCSymbol) -> MappingProxyType:
    """{angle: (a(t-0), a(t+0))} at the jumps of a, for the closed form and the curve."""
    return MappingProxyType({pt.angle: (lv, rv) for pt, lv, rv in jump_set(a)})


def toeplitz_symbol_curve(a: PCSymbol, p) -> SymbolCurve:
    """Closed oriented curve of the Toeplitz symbol of a on H^p.

    The image of a along the counterclockwise circle, with the arc from
    a(t-0) to a(t+0) inserted at every jump point t.
    """
    sides = _jump_table(a)
    return _assemble_closed_curve(sides, _Stretch(a, False), _scalar_arc_values(sides), p)


def _scalar_arc_values(sides: Mapping) -> Callable:
    """The ``arc_values`` of a scalar curve with jump table ``sides``,
    {angle: (a(t-0), a(t+0))}: the arc from a(t-0) to a(t+0)."""
    ends = np.array(list(sides.values()), dtype=complex).reshape(-1, 2)
    return lambda ids, nu, _: _interpolate(ends[ids, 0], ends[ids, 1], nu)


def toeplitz_index(a: PCSymbol, p, *, min_modulus_tol: float = WINDING_MIN_MODULUS,
                   route: str = AUTO) -> Optional[IndexResult]:
    """Fredholmness and index of T(a) on H^p, index = -winding of the curve:
    by ``route`` from :func:`exact_index`, the sampled curve, or the first
    of them that decides (AUTO); None where EXACT declines."""
    return _index(
        lambda: exact_index(_jump_table(a), _Stretch(a, False), _scalar_arc, p, min_modulus_tol),
        lambda: toeplitz_symbol_curve(a, p), min_modulus_tol, route)


def critical_exponents(a: PCSymbol) -> list[float]:
    """The exponents s at which a jump of a puts the origin on the curve of T(a).

    The arc from u = a(t-0) to w = a(t+0) on H^s passes through the origin
    exactly when arg(w/u)/2pi + 1/s is an integer (Gohberg-Krupnik): with
    x = _turn_fraction(w/u), at s = 1/x, and at no s when x = 0; a single
    term reads arg(w/u)/2pi from its phases (:meth:`symbols.TermSides.turn`),
    not from rounded values.  One entry per jump, sorted; a jump to or from
    0 degenerates at every s and has none.
    """
    rules = sy.side_rules(a)
    single = rules[0] if rules is not None and len(rules) == 1 else None
    out = []
    for pt, u, w in jump_set(a):
        if not (u and w):
            continue
        x = _turn_fraction(w / u) if single is None else -single.turn(single.at(pt.angle)) % 1.0
        if 0.0 < x < 1.0:
            out.append(1.0 / x)
    return sorted(out)


# ---------------------------------------------------------------------------
# matrix symbols: determinant curves
# ---------------------------------------------------------------------------


def _det(m: np.ndarray) -> np.ndarray:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def matrix_symbol_curve(u: MatrixSymbol, p) -> SymbolCurve:
    """Determinant curve of the arc-interpolated 2x2 matrix symbol.

    Along continuous stretches the value is det U(t) = a(t)/a(1/t); at each
    jump the matrix (1 - nu)*U(t-0) + nu*U(t+0) is interpolated entrywise
    and its determinant traced over the y grid.  The one-sided matrices are
    computed once per jump, before the curve is assembled.
    """
    matrices = u.one_sided()
    sides = {theta: (_det(ml), _det(mr)) for theta, (ml, mr) in matrices.items()}
    return _assemble_closed_curve(sides, _Stretch(u.a, True), _matrix_arc_values(matrices), p)


def _matrix_arc_values(matrices: Mapping) -> Callable:
    """The ``arc_values`` of a determinant curve with one-sided matrices
    {angle: (L, R)}: det((1 - nu) L + nu R), entry by entry."""
    ends = np.array(list(matrices.values()), dtype=complex).reshape(-1, 2, 2, 2)

    def arc_values(ids, nu, _):
        w = 1.0 - nu

        def entry(i, j):
            # the weights as the first factors (see _interpolate): the curve
            # keeps the bits of (1 - nu) L + nu R
            return w * ends[ids, 0, i, j] + nu * ends[ids, 1, i, j]

        return entry(0, 0) * entry(1, 1) - entry(0, 1) * entry(1, 0)

    return arc_values


def matrix_toeplitz_index(u: MatrixSymbol, p, *, min_modulus_tol: float = WINDING_MIN_MODULUS,
                          route: str = AUTO) -> Optional[IndexResult]:
    """Index of the block Toeplitz operator T(U) on (H^p)^2: in closed form
    on the determinant a/~a and the arcs of the one-sided matrices, or from
    the sampled determinant curve, by ``route`` as for :func:`toeplitz_index`."""
    return _index(
        lambda: exact_index(u.one_sided(), _Stretch(u.a, True), _matrix_arc, p, min_modulus_tol),
        lambda: matrix_symbol_curve(u, p), min_modulus_tol, route)


# ---------------------------------------------------------------------------
# the Toeplitz-plus-Hankel symbol
# ---------------------------------------------------------------------------


def th_symbol(a: PCSymbol, b: PCSymbol, p, t, y):
    """Symbol of T(a) + H(b) at (t, y), elementwise over an array of y.

    For t in the open upper half-circle returns the 2x2 matrix

        [[ a(t+0) nu + a(t-0)(1-nu),   (b(t+0) - b(t-0))/(2i) h      ],
         [ (b(~t-0) - b(~t+0))/(2i) h, a(~t+0) nu + a(~t-0)(1-nu)    ]]

    with ~t = conj(t) (shape (2, 2, *y.shape)); for t = +-1 the scalar

        a(t+0) nu + a(t-0)(1-nu)  +-  (b(t+0) - b(t-0))/2 * h,

    with + at t = 1 and - at t = -1 (the flip reverses orientation there).
    Points of the open lower half-circle are outside the symbol's domain.
    """
    theta = (t if isinstance(t, CirclePoint) else CirclePoint(t)).angle
    if theta > math.pi:
        raise OutOfDomain("the symbol lives on the closed upper half-circle")
    return _th_symbol_from(_th_sides(a, b, theta), theta, *weight_functions(p, y))


def _th_sides(a: PCSymbol, b: PCSymbol, theta: float) -> tuple:
    """The one-sided values of a and b that th_symbol reads at theta: at t
    for t = +-1, at t and at conj(t) otherwise."""
    sides = (*evaluate_sides(a, theta), *evaluate_sides(b, theta))
    if theta in (0.0, math.pi):
        return sides
    return sides + (*evaluate_sides(a, TWO_PI - theta), *evaluate_sides(b, TWO_PI - theta))


def _th_symbol_from(sides: tuple, theta: float, nu, h):
    """th_symbol at theta from its one-sided values ``_th_sides`` and the
    weights nu = nu_p(y), h = h_p(y)."""
    al, ar, bl, br = sides[:4]
    top = _interpolate(al, ar, nu)
    if theta in (0.0, math.pi):
        return top + _flip_weight(sides, theta) * h
    alc, arc_, blc, brc = sides[4:]
    return np.array(
        [
            [top, (br - bl) / 2j * h],
            [(blc - brc) / 2j * h, _interpolate(alc, arc_, nu)],
        ],
        dtype=complex,
    )


def _flip_weight(sides: tuple, theta: float) -> complex:
    """The factor of h_p(y) in the scalar symbol at t = +-1: +-(b(t+0) - b(t-0))/2,
    with + at t = 1; ``sides`` as for :func:`_th_symbol_from`."""
    return (1.0 if theta == 0.0 else -1.0) * (sides[3] - sides[2]) / 2.0


@dataclass(frozen=True)
class FredholmCheck:
    """Verdict of :func:`th_fredholm_check`: ``min_modulus`` is the smallest
    sample or certified arc bound, ``witness`` the (angle, y) of it."""

    fredholm: bool
    min_modulus: float
    witness: tuple[float, float]


@lru_cache(maxsize=2)
def _smooth_minimum(a: PCSymbol, special: tuple) -> Optional[tuple]:
    """(modulus, (angle, 0.0)) of the smallest |a(t) a(conj t)| at the interior
    angles of the GRID_N-point grid off the ``special`` angles; None when
    none is left.  No jump lies at t nor conj(t) there, so the determinant
    does not depend on y, nor on b: both signs of b share it."""
    thetas = np.linspace(0.0, math.pi, GRID_N // 2)[1:-1]
    mask = np.ones(len(thetas), dtype=bool)
    for th in special:
        mask &= np.abs(thetas - th) > 1e-12
    smooth = thetas[mask]
    dets = np.abs(evaluate_array(a, smooth) * evaluate_array(a, TWO_PI - smooth))
    if not len(dets):
        return None
    i = int(np.argmin(dets))
    return float(dets[i]), (float(smooth[i]), 0.0)


def th_fredholm_check(a: PCSymbol, b: PCSymbol, p, *,
                      min_modulus_tol: float = WINDING_MIN_MODULUS) -> FredholmCheck:
    """Invertibility of the T(a)+H(b) symbol over the closed upper half-circle.

    Off the jumps of a and b the determinant a(t) a(conj t) does not depend
    on y; it is sampled at the interior angles of the GRID_N-point grid, with
    witness y = 0.  At the jumps the symbol is an arc in y, certified by its
    root distances as in :func:`exact_index`, with witness the y of the arc
    point nearest the closest root: the 2x2 determinant, a quadratic in nu_p
    as h_p^2 = 4 nu_p (nu_p - 1), and at t = +-1 the scalar :func:`_flip_arc`.
    Fredholm when every sample and arc bound exceeds ``min_modulus_tol``.  An
    arc that certifies nothing (a jump off +-1 at p within about 1.6e-5 of 1
    or above about 6.3e4, or a flip arc that is no quadratic) counts by an end
    within the tolerance of 0; failing that, the check raises
    PreconditionViolation unless the rest of the symbol already fails it.
    """
    pe = _as_exponent(p).p
    jumps = {pt.angle for pt, _, _ in jump_set(a)} | {pt.angle for pt, _, _ in jump_set(b)}
    special = sy.dedupe_angles(
        {th for th in jumps if 0.0 < th < math.pi}
        | {TWO_PI - th for th in jumps if math.pi < th < TWO_PI}
    )
    candidates = []  # (modulus, (angle, y)); the first smallest is reported
    undecided = []  # angles of the arcs that certify nothing

    smooth = _smooth_minimum(a, tuple(special))
    if smooth is not None:
        candidates.append(smooth)

    # det = (al + nu (ar - al))(alc + nu (arc - alc)) + k nu (nu - 1), k = (br - bl)(blc - brc);
    # a bound is lowered to the modulus nearest a root where round-off puts that below it
    for th in [*special, 0.0, math.pi]:
        sides = _th_sides(a, b, th)
        if th in (0.0, math.pi):
            ends = sides[:2]
            found = _flip_arc(sides, th, pe, min_modulus_tol)
        else:
            al, ar, bl, br, alc, arc_, blc, brc = sides
            k = (br - bl) * (blc - brc)
            ends = (al * alc, ar * arc_)
            found = _polynomial_arc(al * alc, al * (arc_ - alc) + alc * (ar - al) - k,
                                    (ar - al) * (arc_ - alc) + k, pe, min_modulus_tol)
        if found is not None:
            candidates.append((min(found.bound, found.nearest), (th, found.y)))
            continue
        end, y = min((abs(ends[0]), -math.inf), (abs(ends[1]), math.inf))
        if end > min_modulus_tol:
            undecided.append(th)
        else:
            candidates.append((end, (th, y)))

    min_mod, witness = min(candidates, key=lambda c: c[0])
    if undecided and min_mod > min_modulus_tol:
        raise PreconditionViolation(
            f"the T+H symbol's arcs at angles {undecided} are out of reach on H^{pe:g}")
    return FredholmCheck(min_mod > min_modulus_tol, float(min_mod), witness)


# ---------------------------------------------------------------------------
# index of T(a) + H(b) via the continuous/local splitting
# ---------------------------------------------------------------------------


def _half_circle_limits(symbol: PCSymbol):
    """(alpha, f(e^{i alpha} + 0), f(-e^{i alpha} - 0)) for alpha = 0 and pi:
    the limits at both ends of each half-circle."""
    l1, r1 = evaluate_sides(symbol, 0.0)
    lm, rm = evaluate_sides(symbol, math.pi)
    return (0.0, r1, lm), (math.pi, rm, l1)


def split_generating_pair(a: PCSymbol, b: PCSymbol) -> tuple[PCSymbol, PCSymbol]:
    """Interpolants (g, b0) matching (a, b) at the points +-1.

    On the half-circle from alpha to alpha + pi (alpha = 0 or pi), running
    from the limit u at alpha + 0 to the limit w at alpha + pi - 0:

    * g = exp(log u + k (theta - alpha)) with k = (log w - log u) / pi,
      one exp-linear arc c e^{i lam theta} with c = e^{log u - k alpha}
      and lam = -i k; g is invertible and continuous off +-1;
    * b0 = (u + w)/2 - (w - u)/2 e^{i (theta - alpha)}, a piecewise
      constant plus a piecewise constant times t.

    So g and b0 take the one-sided limits of a and b at +-1, and b - b0
    vanishes at +-1 and is continuous there.  Off +-1 only the continuity
    of b0 matters: two such b0 differ by a function continuous on the whole
    circle, whose Hankel operator is compact, so no index depends on the
    shape of b0 there.  The limits of a at +-1 must not vanish.
    """
    arcs = []
    for alpha, u, w in _half_circle_limits(a):
        log_u = cmath.log(u)
        k = (cmath.log(w) - log_u) / math.pi
        arcs.append((cmath.exp(log_u - k * alpha), -1j * k))
    g = ExpArcs((0.0, math.pi), *zip(*arcs))
    (_, u0, w0), (_, u1, w1) = _half_circle_limits(b)
    b0 = (PiecewiseConst((0.0, math.pi), ((u0 + w0) / 2, (u1 + w1) / 2))
          + PiecewiseConst((0.0, math.pi), ((u0 - w0) / 2, (w1 - u1) / 2)) * Monomial(1))
    return g, b0


@lru_cache(maxsize=64)
def _flip_table(g: PCSymbol, b0: PCSymbol) -> MappingProxyType:
    """_th_sides at the fixed points 0 and pi of the flip, for the closed form and the curve."""
    return MappingProxyType({theta: _th_sides(g, b0, theta) for theta in (0.0, math.pi)})


def th_pc_symbol_curve(g: PCSymbol, b0: PCSymbol, p) -> SymbolCurve:
    """Curve of the scalar symbol of T(g) + H(b0), g and b0 continuous off +-1.

    The image of g along the circle, with the scalar symbol of th_symbol
    at t = +-1 inserted there: the arc of g plus the Hankel term
    +-(b0(t+0) - b0(t-0))/2 * h_p(y).
    """
    if any(pt.angle not in (0.0, math.pi) for pt, _, _ in jump_set(g)):
        raise PreconditionViolation("g must be continuous off +-1")
    table = _flip_table(g, b0)
    return _assemble_closed_curve({theta: sides[:2] for theta, sides in table.items()},
                                  _Stretch(g, False), _flip_arc_values(table), p)


def _flip_arc_values(table: Mapping) -> Callable:
    """The ``arc_values`` of the scalar T+H symbol at t = +-1, with entries
    (g(t-0), g(t+0), b(t-0), b(t+0)) in ``table``: the arc of g plus the
    Hankel term, as :func:`_th_symbol_from` gives it."""
    gl, gr = np.array([sides[:2] for sides in table.values()], dtype=complex).reshape(-1, 2).T
    hankel = np.array([_flip_weight(sides, theta) for theta, sides in table.items()],
                      dtype=complex)
    return lambda ids, nu, h: _interpolate(gl[ids], gr[ids], nu) + hankel[ids] * h


@lru_cache(maxsize=64)
def _th_parts(a: PCSymbol, b: PCSymbol) -> tuple[PCSymbol, PCSymbol, MatrixSymbol]:
    """(g, b0, U1) of the index splitting of T(a) + H(b), shared by the routes."""
    g, b0 = split_generating_pair(a, b)
    g_inv = sy.inverse(g)
    return g, b0, build_u_matrix_general(a * g_inv, (b - b0) * g_inv)


def th_index(a: PCSymbol, b: PCSymbol, p, *, min_modulus_tol: float = WINDING_MIN_MODULUS,
             check: Optional[FredholmCheck] = None, route: str = AUTO) -> Optional[int]:
    """Index of the Fredholm operator T(a) + H(b) on H^p.

    Splits b = b0 + b1 and a = g * (a*g^-1) with the interpolants of
    split_generating_pair carrying the +-1 behaviour: g is one exp-linear
    arc per half-circle and b0 a piecewise constant plus a piecewise
    constant times t.  Then

        ind = -wind(symbol of T(g) + H(b0)) + ind T(U1) / 2,

    where U1 is the general matrix symbol of the pair (a*g^-1, b1*g^-1),
    whose entries are continuous at +-1, and ind T(U1) comes from the
    determinant of the arc-interpolated matrix.  Each winding is taken by
    ``route`` as for :func:`toeplitz_index`; under EXACT the index is None
    where the closed form declines on either of them.  The shape of b0 off
    +-1 does not change the index, since H of a continuous function is
    compact.  The check runs before the split,
    so an a that vanishes at +-1 is refused before its logarithm is taken.
    ``check`` is the th_fredholm_check of (a, b) when the caller already
    has it.
    """
    if check is None:
        check = th_fredholm_check(a, b, p, min_modulus_tol=min_modulus_tol)
    if not check.fredholm:
        raise NotFredholm(
            f"T(a)+H(b) is not Fredholm on H^{_as_exponent(p).p:g} "
            f"(symbol modulus {check.min_modulus:.2e} at {check.witness})")
    g, b0, u1 = _th_parts(a, b)
    pc = _index(lambda: exact_index(_flip_table(g, b0), _Stretch(g, False), _flip_arc, p,
                                    min_modulus_tol),
                lambda: th_pc_symbol_curve(g, b0, p), min_modulus_tol, route)
    if pc is None:
        return None
    if not pc.fredholm:
        raise NotFredholm(f"borderline symbol degeneracy: curve minimum modulus "
                          f"{pc.min_modulus:.3e} <= {min_modulus_tol:.1e}")
    res_u1 = matrix_toeplitz_index(u1, p, min_modulus_tol=min_modulus_tol, route=route)
    if res_u1 is None:
        return None
    ind_u1 = res_u1.require()
    if ind_u1 % 2 != 0:
        raise NotFredholm(f"matrix index {ind_u1} is odd; symbol data inconsistent")
    return pc.index + ind_u1 // 2
