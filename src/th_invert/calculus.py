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
the arc-interpolated matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .defaults import (
    GRID_N,
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
    LEFT,
    RIGHT,
    TWO_PI,
    CirclePoint,
    Exp,
    PCSymbol,
    PiecewiseLinear,
    evaluate,
    evaluate_array,
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


def y_grid(m: int = Y_GRID_N, delta: float = Y_GRID_DELTA) -> np.ndarray:
    """Finite y samples via the tanh map; dense near the arc endpoints."""
    u = np.linspace(-1.0 + delta, 1.0 - delta, m)
    return np.arctanh(u)


def _y_axis(m: int) -> np.ndarray:
    """The compactified line: -inf, the m finite samples of y_grid, +inf."""
    return np.concatenate([[-np.inf], y_grid(m), [np.inf]])


def arc(u: complex, w: complex, p, n_samples: int = Y_GRID_N) -> "SymbolCurve":
    """The oriented arc {u*(1 - nu_p(y)) + w*nu_p(y)} from u to w.

    For p = 2 this is the segment [u, w]; for p > 2 it bulges right of the
    directed line u -> w, for p < 2 left of it.  From every interior point
    the segment [u, w] subtends the angle 2*pi / max(p, q).
    """
    if u == w:
        raise DegenerateArc("arc endpoints coincide")
    ys = _y_axis(n_samples)
    nus, _ = weight_functions(p, ys)
    values = u * (1.0 - nus) + w * nus
    params = np.tanh(np.clip(ys, -50, 50))
    return SymbolCurve(
        seg_ids=np.zeros(len(values), dtype=int),
        params=params,
        values=values,
        closed=False,
        min_modulus=float(np.min(np.abs(values))),
        segments=(("arc", float("nan")),),
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
    segments: tuple  # (kind, angle) per segment id

    def __len__(self):
        return len(self.values)


def winding(curve: SymbolCurve, min_modulus_tol: float = WINDING_MIN_MODULUS,
            residual_tol: float = WINDING_RESIDUAL) -> int:
    """Winding number about the origin from accumulated argument increments."""
    if curve.min_modulus <= min_modulus_tol:
        raise CurveThroughOrigin(
            f"curve minimum modulus {curve.min_modulus:.3e} <= {min_modulus_tol:.1e}")
    if not curve.closed:
        raise PreconditionViolation("winding is defined for closed curves only")
    z = curve.values
    dphi = np.angle(z[1:] / z[:-1])
    total = float(dphi.sum()) / TWO_PI
    nearest = round(total)
    if abs(total - nearest) >= residual_tol or float(np.max(np.abs(dphi), initial=0.0)) > 2.8:
        raise NonIntegerWinding(
            f"winding {total:.4f} not close to an integer (undersampled curve)")
    return int(nearest)


def _adaptive_polyline(params: np.ndarray, values: np.ndarray,
                       evaluator: Callable[[np.ndarray], np.ndarray],
                       max_step: float = 0.35, rounds: int = 48,
                       cap: int = 400_000) -> tuple[np.ndarray, np.ndarray]:
    """Insert parameter midpoints until no step subtends more than
    ``max_step`` radians at the origin.

    Curves passing exactly through the origin keep near-pi steps at every
    depth; the round/size caps end the search and the tiny resulting
    minimum modulus fails the Fredholm tolerance downstream.
    """
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=complex)
    for _ in range(rounds):
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.abs(np.angle(values[1:] / values[:-1]))
        bad = dphi > max_step
        if not bad.any() or len(params) > cap:
            break
        mids = 0.5 * (params[:-1][bad] + params[1:][bad])
        mvals = evaluator(mids)
        idx = np.nonzero(bad)[0] + 1
        params = np.insert(params, idx, mids)
        values = np.insert(values, idx, mvals)
    return params, values


def _assemble_closed_curve(
    jump_angles: list[float],
    cont_values: Callable[[np.ndarray], np.ndarray],
    side_value: Callable[[float, str], complex],
    arc_values: Callable[[float, np.ndarray], np.ndarray],
    n_t: int,
    m_y: int,
) -> SymbolCurve:
    """Concatenate continuous stretches with arc insertions at each jump.

    The curve starts just after the first jump (or at angle 0 when there is
    none) and is explicitly closed by repeating its first point.  Every
    segment is refined adaptively near the origin, so close approaches are
    resolved regardless of the base grids.  Arcs are parametrized by
    u = tanh(y) in [-1, 1]; ``arc_values(angle, ys)`` gets the y values.
    """
    us0 = np.tanh(_y_axis(m_y))
    pieces: list[np.ndarray] = []
    seg_ids: list[np.ndarray] = []
    params: list[np.ndarray] = []
    segments: list[tuple[str, float]] = []

    def emit(kind, angle, par, vals):
        segments.append((kind, angle))
        sid = len(segments) - 1
        pieces.append(np.asarray(vals, dtype=complex))
        params.append(np.asarray(par, dtype=float))
        seg_ids.append(np.full(len(vals), sid, dtype=int))

    def arc_evaluator(theta):
        def ev(us):
            with np.errstate(divide="ignore"):
                return arc_values(theta, np.arctanh(us))

        return ev

    def stretch_evaluator(thetas):
        return cont_values(np.mod(thetas, TWO_PI))

    if not jump_angles:
        thetas = np.concatenate([np.linspace(0.0, TWO_PI, n_t, endpoint=False), [TWO_PI]])
        vals = cont_values(np.mod(thetas, TWO_PI))
        thetas, vals = _adaptive_polyline(thetas, vals, stretch_evaluator)
        emit("stretch", 0.0, thetas[:-1], vals[:-1])
        start = vals[0]
    else:
        start = side_value(jump_angles[0], RIGHT)
        k = len(jump_angles)
        for j in range(k):
            a0 = jump_angles[j]
            theta_next = jump_angles[(j + 1) % k]
            a1 = theta_next if theta_next > a0 else theta_next + TWO_PI
            npts = max(8, int(round(n_t * (a1 - a0) / TWO_PI)))
            thetas = np.linspace(a0, a1, npts + 2)[1:-1]  # open interior
            inner = cont_values(np.mod(thetas, TWO_PI))
            vals = np.concatenate([[side_value(a0, RIGHT)], inner,
                                   [side_value(theta_next, LEFT)]])
            par = np.concatenate([[a0], thetas, [a1]])
            par, vals = _adaptive_polyline(par, vals, stretch_evaluator)
            emit("stretch", a0, par, vals)
            ev = arc_evaluator(theta_next)
            apar, avals = _adaptive_polyline(us0, ev(us0), ev)
            emit("jump-arc", theta_next, apar, avals)

    values = np.concatenate(pieces)
    values = np.concatenate([values, [start]])  # explicit closure
    seg_arr = np.concatenate(seg_ids + [[seg_ids[-1][-1]]])
    par_arr = np.concatenate(params + [[params[0][0]]])
    return SymbolCurve(
        seg_ids=seg_arr,
        params=par_arr,
        values=values,
        closed=True,
        min_modulus=float(np.min(np.abs(values))),
        segments=tuple(segments),
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


def _curve_index(build: Callable[[int, int], SymbolCurve], n_t: int, m_y: int,
                 min_modulus_tol: float) -> IndexResult:
    """Fredholmness and index from the closed curve ``build(n_t, m_y)``.

    Not Fredholm when the curve comes within ``min_modulus_tol`` of the
    origin; otherwise the index is minus its winding, with both grids
    refined while the winding is not close to an integer.
    """
    curve = build(n_t, m_y)
    if curve.min_modulus <= min_modulus_tol:
        return IndexResult(False, None, curve.min_modulus)
    for _ in range(4):
        try:
            return IndexResult(True, -winding(curve, min_modulus_tol), curve.min_modulus)
        except NonIntegerWinding:
            n_t *= 2
            m_y = 2 * m_y + 1
            curve = build(n_t, m_y)
    return IndexResult(True, -winding(curve, min_modulus_tol), curve.min_modulus)


def toeplitz_symbol_curve(a: PCSymbol, p, n_t: int = GRID_N,
                          m_y: int = Y_GRID_N) -> SymbolCurve:
    """Closed oriented curve of the Toeplitz symbol of a on H^p.

    The image of a along the counterclockwise circle, with the arc from
    a(t-0) to a(t+0) inserted at every jump point t.
    """
    jumps = jump_set(a)
    angles = [pt.angle for pt, _, _ in jumps]
    sides = {pt.angle: (lv, rv) for pt, lv, rv in jumps}

    def cont(thetas):
        return evaluate_array(a, thetas)

    def side_val(theta, side):
        if theta in sides:
            lv, rv = sides[theta]
            return lv if side == LEFT else rv
        return evaluate(a, CirclePoint(theta), side)

    def arc_vals(theta, ys):
        lv, rv = sides[theta]
        nus, _ = weight_functions(p, ys)
        return lv * (1.0 - nus) + rv * nus

    return _assemble_closed_curve(angles, cont, side_val, arc_vals, n_t, m_y)


def toeplitz_index(a: PCSymbol, p, n_t: int = GRID_N, m_y: int = Y_GRID_N,
                   min_modulus_tol: float = WINDING_MIN_MODULUS) -> IndexResult:
    """Fredholmness and index of T(a) on H^p: index = -winding of the curve."""
    return _curve_index(lambda nt, my: toeplitz_symbol_curve(a, p, nt, my),
                        n_t, m_y, min_modulus_tol)


# ---------------------------------------------------------------------------
# matrix symbols: determinant curves
# ---------------------------------------------------------------------------


def matrix_symbol_curve(u: MatrixSymbol, p, n_t: int = GRID_N,
                        m_y: int = Y_GRID_N) -> SymbolCurve:
    """Determinant curve of the arc-interpolated 2x2 matrix symbol.

    Along continuous stretches the value is det U(t); at each jump the
    matrix (1 - nu)*U(t-0) + nu*U(t+0) is interpolated entrywise and its
    determinant traced over the y grid.
    """
    angles = u.jump_angles()

    e = u.entries

    def cont(thetas):
        e00 = evaluate_array(e[0][0], thetas)
        e01 = evaluate_array(e[0][1], thetas)
        e10 = evaluate_array(e[1][0], thetas)
        e11 = evaluate_array(e[1][1], thetas)
        return e00 * e11 - e01 * e10

    def side_mat(theta, side):
        return u.evaluate_matrix(CirclePoint(theta), side)

    def side_val(theta, side):
        m = side_mat(theta, side)
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    def arc_vals(theta, ys):
        nus, _ = weight_functions(p, ys)
        ml = side_mat(theta, LEFT)
        mr = side_mat(theta, RIGHT)
        interp = (1.0 - nus)[:, None, None] * ml[None, :, :] + nus[:, None, None] * mr[None, :, :]
        return interp[:, 0, 0] * interp[:, 1, 1] - interp[:, 0, 1] * interp[:, 1, 0]

    return _assemble_closed_curve(angles, cont, side_val, arc_vals, n_t, m_y)


def matrix_toeplitz_index(u: MatrixSymbol, p, n_t: int = GRID_N, m_y: int = Y_GRID_N,
                          min_modulus_tol: float = WINDING_MIN_MODULUS) -> IndexResult:
    """Index of the block Toeplitz operator T(U) on (H^p)^2."""
    return _curve_index(lambda nt, my: matrix_symbol_curve(u, p, nt, my),
                        n_t, m_y, min_modulus_tol)


# ---------------------------------------------------------------------------
# the Toeplitz-plus-Hankel symbol
# ---------------------------------------------------------------------------


def _one_sided(symbol: PCSymbol, angle: float) -> tuple[complex, complex]:
    pt = CirclePoint(angle)
    return evaluate(symbol, pt, LEFT), evaluate(symbol, pt, RIGHT)


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
    nu, h = weight_functions(p, y)
    al, ar = _one_sided(a, theta)
    bl, br = _one_sided(b, theta)
    top = ar * nu + al * (1.0 - nu)
    if theta in (0.0, math.pi):
        sign = 1.0 if theta == 0.0 else -1.0
        return top + sign * (br - bl) / 2.0 * h
    alc, arc_ = _one_sided(a, TWO_PI - theta)
    blc, brc = _one_sided(b, TWO_PI - theta)
    return np.array(
        [
            [top, (br - bl) / 2j * h],
            [(blc - brc) / 2j * h, arc_ * nu + alc * (1.0 - nu)],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class FredholmCheck:
    fredholm: bool
    min_modulus: float
    witness: Optional[tuple[float, float]]  # (angle, y) minimizing the symbol


def th_fredholm_check(a: PCSymbol, b: PCSymbol, p, n_t: int = GRID_N,
                      m_y: int = Y_GRID_N,
                      min_modulus_tol: float = WINDING_MIN_MODULUS) -> FredholmCheck:
    """Invertibility of the T(a)+H(b) symbol over the closed upper half-circle."""
    ys = _y_axis(m_y)
    jumps = {pt.angle for pt, _, _ in jump_set(a)} | {pt.angle for pt, _, _ in jump_set(b)}
    special = sy.dedupe_angles(
        {th for th in jumps if 0.0 < th < math.pi}
        | {TWO_PI - th for th in jumps if math.pi < th < TWO_PI}
    )

    best = (math.inf, None)

    def consider(val, angle, yv):
        nonlocal best
        if val < best[0]:
            best = (val, (angle, yv))

    # smooth part: no jump at t nor conj(t); determinant is y-independent
    thetas = np.linspace(0.0, math.pi, max(16, n_t // 2))[1:-1]
    mask = np.ones(len(thetas), dtype=bool)
    for th in special:
        mask &= np.abs(thetas - th) > 1e-12
    smooth = thetas[mask]
    a_up = evaluate_array(a, smooth)
    a_dn = evaluate_array(a, TWO_PI - smooth)
    dets = np.abs(a_up * a_dn)
    if len(dets):
        i = int(np.argmin(dets))
        consider(float(dets[i]), float(smooth[i]), 0.0)

    # full y sweeps: the 2x2 determinant at jump-relevant interior points,
    # then the scalar branch at the fixed points +-1 of the flip
    for th in [*special, 0.0, math.pi]:
        m = th_symbol(a, b, p, th, ys)
        vals = np.abs(m if m.ndim == 1 else m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        i = int(np.argmin(vals))
        consider(float(vals[i]), th, float(ys[i]))

    min_mod, witness = best
    return FredholmCheck(min_mod > min_modulus_tol, float(min_mod), witness)


# ---------------------------------------------------------------------------
# index of T(a) + H(b) via the continuous/local splitting
# ---------------------------------------------------------------------------


def _limits_at_pm1(symbol: PCSymbol) -> tuple[complex, complex, complex, complex]:
    """(f(1+0), f(1-0), f(-1+0), f(-1-0))."""
    l1, r1 = _one_sided(symbol, 0.0)
    lm, rm = _one_sided(symbol, math.pi)
    return r1, l1, rm, lm


def split_generating_pair(a: PCSymbol, b: PCSymbol) -> tuple[PCSymbol, PCSymbol]:
    """Interpolants (g, b0) matching (a, b) at the points +-1.

    b0 interpolates b's one-sided limits at +-1 linearly in the angle on
    each half-circle, so b - b0 vanishes at +-1 and is continuous there;
    g = exp of the angle-linear interpolation of log a, hence invertible,
    continuous off +-1, and equal to a's one-sided limits at +-1.
    """
    b1p, b1m, bm1p, bm1m = _limits_at_pm1(b)
    b0 = PiecewiseLinear((0.0, math.pi), (b1p, bm1p), (bm1m, b1m))
    a1p, a1m, am1p, am1m = _limits_at_pm1(a)
    logs = [np.log(complex(v)) for v in (a1p, am1m, am1p, a1m)]
    g = Exp(PiecewiseLinear((0.0, math.pi), (logs[0], logs[2]), (logs[1], logs[3])))
    return g, b0


def th_pc_symbol_curve(g: PCSymbol, b0: PCSymbol, p, n_t: int = GRID_N,
                       m_y: int = Y_GRID_N) -> SymbolCurve:
    """Curve of the scalar symbol of T(g) + H(b0), g and b0 continuous off +-1.

    The image of g along the circle, with the scalar symbol of th_symbol
    at t = +-1 inserted there: the arc of g plus the Hankel term
    +-(b0(t+0) - b0(t-0))/2 * h_p(y).
    """
    if any(pt.angle not in (0.0, math.pi) for pt, _, _ in jump_set(g)):
        raise PreconditionViolation("g must be continuous off +-1")

    def cont(thetas):
        return evaluate_array(g, thetas)

    def side_val(theta, side):
        return evaluate(g, CirclePoint(theta), side)

    def arc_vals(theta, ys):
        return th_symbol(g, b0, p, theta, ys)

    return _assemble_closed_curve([0.0, math.pi], cont, side_val, arc_vals, n_t, m_y)


def th_index(a: PCSymbol, b: PCSymbol, p, n_t: int = GRID_N, m_y: int = Y_GRID_N,
             min_modulus_tol: float = WINDING_MIN_MODULUS,
             check: Optional[FredholmCheck] = None) -> int:
    """Index of the Fredholm operator T(a) + H(b) on H^p.

    Splits b = b0 + b1 and a = g * (a*g^-1) with g, b0 carrying the +-1
    behaviour; then

        ind = -wind(symbol of T(g) + H(b0)) + ind T(U1) / 2,

    where U1 is the general matrix symbol of the pair (a*g^-1, b1*g^-1),
    whose entries are continuous at +-1, and ind T(U1) comes from the
    determinant curve of the arc-interpolated matrix.  ``check`` is the
    th_fredholm_check of (a, b) when the caller already has it.
    """
    if check is None:
        check = th_fredholm_check(a, b, p, n_t, m_y, min_modulus_tol)
    if not check.fredholm:
        raise NotFredholm(
            f"T(a)+H(b) is not Fredholm on H^{_as_exponent(p).p:g} "
            f"(symbol modulus {check.min_modulus:.2e} at {check.witness})")
    g, b0 = split_generating_pair(a, b)
    g_inv = sy.inverse(g)
    a2 = a * g_inv
    b2 = (b - b0) * g_inv

    try:
        pc = _curve_index(lambda nt, my: th_pc_symbol_curve(g, b0, p, nt, my),
                          n_t, m_y, min_modulus_tol)
        if not pc.fredholm:
            raise NotFredholm(f"borderline symbol degeneracy: curve minimum modulus "
                              f"{pc.min_modulus:.3e} <= {min_modulus_tol:.1e}")
        u1 = build_u_matrix_general(a2, b2)
        ind_u1 = matrix_toeplitz_index(u1, p, n_t, m_y, min_modulus_tol).require()
    except CurveThroughOrigin as exc:
        # adaptive sampling found a closer origin approach than the check grid
        raise NotFredholm(f"borderline symbol degeneracy: {exc}") from exc
    if ind_u1 % 2 != 0:
        raise NotFredholm(f"matrix index {ind_u1} is odd; symbol data inconsistent")
    return pc.index + ind_u1 // 2
