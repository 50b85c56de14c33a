"""End-to-end classification of T(a) + H(b) and T(a) - H(b) on H^p.

The decision procedure follows the subordinated indices
kappa1 = ind T(d), kappa2 = ind T(c) of a matching pair:

* both nonnegative: both operators are right-invertible;
* both nonpositive: both are left-invertible;
* mixed signs: the joint kernel dimension of the two operators comes from
  the kernel formula (a finite-rank compression through one-sided inverse
  sections), and explicit kernel witnesses of the reversal family
  apportion it between the two operators when they exist.

When T(c) or T(d) fails to be Fredholm at p while one of the operators
still is, the exponent is probed from above: the indices of T(c) and T(d)
are constant on the interval (p, p*) up to the nearest critical exponent
p*, which comes in closed form from the jumps of the symbol.  The rules
above apply there, and kernel data transfers back to p along the dense
embedding H^s into H^p because the index does not change.  Each fact the
rules read about one (pair, p) is computed once, by an :class:`Analysis`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .calculus import (
    EXACT,
    SAMPLED,
    FredholmCheck,
    HardyExponent,
    IndexResult,
    _as_exponent,
    _matrix_index,
    _th_index,
    _toeplitz_index,
    critical_exponents,
    th_fredholm_check,
    th_index,
    toeplitz_index,
)
from .config import Tolerances
from .defaults import CRITICAL_RTOL, WINDING_MIN_MODULUS
from .errors import (
    InconsistentRecord,
    NoFredholmNeighborhood,
    NoSpectralGap,
    NotFredholm,
    NotFredholmAtP,
    THInvertError,
)
from .matching import MatchingPair, build_u_matrix
from .sections import (
    KernelFormulaResult,
    apply_operator,
    kernel_dimension,
    kernel_formula_eval,
    th_section,
)
from . import symbols as sy
from .symbols import Monomial, PCSymbol

PLUS_KEY = "T(a)+H(b)"
MINUS_KEY = "T(a)-H(b)"

INVERTIBLE = "invertible"
LEFT_INVERTIBLE = "left_invertible"
RIGHT_INVERTIBLE = "right_invertible"
UNCLASSIFIED = "fredholm_unclassified"
NOT_ONE_SIDED = "not_one_sided_invertible"
NOT_FREDHOLM = "not_fredholm"

SIGNS = ((1, PLUS_KEY), (-1, MINUS_KEY))


@dataclass
class OperatorRecord:
    fredholm: bool
    index: Optional[int] = None
    kernel_dim: Optional[int] = None
    cokernel_dim: Optional[int] = None
    classification: Optional[str] = None

    def finalize(self):
        """Derive the verdict from kernel/cokernel data, keeping ind = ker - coker."""
        if not self.fredholm:
            self.classification = NOT_FREDHOLM
            return self
        if self.kernel_dim is None or self.cokernel_dim is None:
            if self.classification is None:
                self.classification = UNCLASSIFIED
            return self
        if self.index != self.kernel_dim - self.cokernel_dim:
            raise InconsistentRecord(
                f"index {self.index} != kernel {self.kernel_dim} - "
                f"cokernel {self.cokernel_dim}")
        if self.kernel_dim == 0 and self.cokernel_dim == 0:
            self.classification = INVERTIBLE
        elif self.kernel_dim == 0:
            self.classification = LEFT_INVERTIBLE
        elif self.cokernel_dim == 0:
            self.classification = RIGHT_INVERTIBLE
        else:
            self.classification = NOT_ONE_SIDED
        return self


@dataclass
class ProbingRecord:
    s_used: float
    limit_indices: tuple  # (lim ind T(d), lim ind T(c)) as s -> p+
    critical_exponent: Optional[float] = None


@dataclass
class FredholmReport:
    p: float
    kappa1: Optional[int]
    kappa2: Optional[int]
    match_residual: float
    match_constant: Optional[complex]
    operators: dict
    classification: str
    kernel_dim: Optional[int]
    cokernel_dim: Optional[int]
    evidence: list
    probing: Optional[ProbingRecord] = None
    discrepancies: list = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = asdict(self)
        z = self.match_constant
        doc["match_constant"] = None if z is None else {"re": z.real, "im": z.imag}
        if self.probing is not None:
            doc["probing"]["limit_indices"] = list(self.probing.limit_indices)
        return doc


# ---------------------------------------------------------------------------
# kernel witnesses
# ---------------------------------------------------------------------------


def _monomial_shift(a: PCSymbol, b: PCSymbol, max_shift: int = 8,
                    tol: float = 1e-10) -> Optional[int]:
    """n with b = a * t^n, detected on the grid; None when there is no such n."""
    ratio = sy.product(b, sy.inverse(a))
    if isinstance(ratio, Monomial):
        return ratio.n
    angles = sy.grid_angles(ratio, 64)
    left, right = sy.evaluate_both_sides(ratio, angles)
    for n in range(-max_shift, max_shift + 1):
        target = np.exp(1j * n * angles)
        if max(np.max(np.abs(left - target)), np.max(np.abs(right - target))) < tol:
            return n
    return None


def kernel_witness_candidates(a: PCSymbol, b: PCSymbol) -> dict:
    """Candidate kernel polynomials of T(a) +- H(b) from the reversal family.

    When b = a * t^n with n >= 1, any polynomial x with
    x(t) + s * t^(n-1) * x(1/t) = 0 lies in ker(T(a) + s H(b)) for every a:

        n = 2m + 1:  ker(+): t^(m+k) - t^(m-k), k = 1..m
                     ker(-): t^m and t^(m+k) + t^(m-k), k = 1..m
        n = 2m:      ker(+): t^(m-k-1) - t^(m+k), k = 0..m-1
                     ker(-): t^(m-k-1) + t^(m+k), k = 0..m-1
    """
    out = {1: [], -1: []}
    n = _monomial_shift(a, b)
    if n is None or n < 1:
        return out

    def vec(*pairs):
        deg = max(k for k, _ in pairs)
        v = np.zeros(deg + 1, dtype=complex)
        for k, coef in pairs:
            v[k] += coef
        return v

    if n % 2 == 1:
        m = (n - 1) // 2
        for k in range(1, m + 1):
            out[1].append(vec((m + k, 1.0), (m - k, -1.0)))
        out[-1].append(vec((m, 1.0)))
        for k in range(1, m + 1):
            out[-1].append(vec((m + k, 1.0), (m - k, 1.0)))
    else:
        m = n // 2
        for k in range(0, m):
            out[1].append(vec((m - k - 1, 1.0), (m + k, -1.0)))
        for k in range(0, m):
            out[-1].append(vec((m - k - 1, 1.0), (m + k, 1.0)))
    return out


def verified_kernel_witnesses(a: PCSymbol, b: PCSymbol, n_out: int = 256) -> dict:
    """Keep the candidates that the coefficient-level application maps below norm 1e-10."""
    out = {1: [], -1: []}
    for sign, vecs in kernel_witness_candidates(a, b).items():
        for v in vecs:
            res = float(np.linalg.norm(apply_operator(a, b, sign, v, n_out)))
            if res < 1e-10:
                out[sign].append(v)
    return out


# ---------------------------------------------------------------------------
# the facts of one (pair, p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Analysis:
    """The facts of one matching pair at one exponent, each computed once.

    A fact is computed on first use and kept, a refusal included, for the
    life of the object: one top-level call of classify,
    classify_with_probing or cross_check.  ``tolerances`` reach every
    curve, symbol check, section and kernel count; ``n_section`` and
    ``formula_section`` are the sizes of the kernel sections and of the
    kernel formula's compression.
    """

    pair: MatchingPair
    p: HardyExponent
    tolerances: Tolerances = Tolerances()
    n_section: int = 256
    formula_section: int = 512
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _as_exponent(self.p))

    def _once(self, key, compute: Callable):
        if key not in self._facts:
            try:
                self._facts[key] = (compute(), None)
            except THInvertError as exc:
                self._facts[key] = (None, exc)
        value, exc = self._facts[key]
        if exc is not None:
            raise exc
        return value

    def _b(self, sign: int) -> PCSymbol:
        return self.pair.b if sign == 1 else -self.pair.b

    def toeplitz(self, symbol: PCSymbol) -> IndexResult:
        """Fredholmness and index of T(symbol); c and d share it when equal."""
        return self._once(("toeplitz", symbol), lambda: toeplitz_index(
            symbol, self.p, min_modulus_tol=self.tolerances.winding))

    @property
    def kappas(self) -> Optional[tuple[int, int]]:
        """(kappa1, kappa2) = (ind T(d), ind T(c)); None unless both are Fredholm."""
        res_c, res_d = self.toeplitz(self.pair.c), self.toeplitz(self.pair.d)
        return (res_d.index, res_c.index) if res_c.fredholm and res_d.fredholm else None

    def check(self, sign: int) -> FredholmCheck:
        """Symbol check of T(a) + sign * H(b)."""
        return self._once(("check", sign), lambda: th_fredholm_check(
            self.pair.a, self._b(sign), self.p, min_modulus_tol=self.tolerances.winding))

    def th_index(self, sign: int) -> int:
        """Index of T(a) + sign * H(b); NotFredholm when its check fails."""
        return self._once(("th_index", sign), lambda: th_index(
            self.pair.a, self._b(sign), self.p, min_modulus_tol=self.tolerances.winding,
            check=self.check(sign)))

    def probe(self, symbol: PCSymbol) -> "ProbeResult":
        """lim_{s -> p+} ind T(symbol)."""
        return self._once(("probe", symbol), lambda: probe_limit_index(
            symbol, self.p, min_modulus_tol=self.tolerances.winding))

    def formula(self) -> KernelFormulaResult:
        """Joint kernel dimension of the pair from kappa1 and kappa2."""
        return self._once("formula", lambda: kernel_formula_eval(
            self.pair, *self.kappas, n=self.formula_section,
            sv_threshold=self.tolerances.sv_threshold, tol=self.tolerances.quadrature))

    def witnesses(self) -> dict:
        """Verified kernel witnesses of each operator, by sign."""
        return self._once("witnesses", lambda: verified_kernel_witnesses(
            self.pair.a, self.pair.b))

    def section_kernel(self, sign: int) -> int:
        """Kernel dimension of the n_section section of T(a) + sign * H(b)."""
        return self._once(("section", sign), lambda: kernel_dimension(
            th_section(self.pair.a, self.pair.b, sign, self.n_section,
                       self.tolerances.quadrature),
            self.tolerances.sv_threshold))


class _Witnesses(Analysis):
    """The facts of an Analysis with every index read from its sampled
    curve alone, plus the matrix route and the exact th-symbol indices:
    the routes that cross_check compares."""

    def _sampled(self, key, index, *args):
        return self._once(key, lambda: index(*args, self.tolerances.winding, SAMPLED))

    def toeplitz(self, symbol: PCSymbol) -> IndexResult:
        return self._sampled(("toeplitz", symbol), _toeplitz_index, symbol, self.p)

    def _th(self, sign: int, route: str) -> Optional[int]:
        return self._once((route, sign), lambda: _th_index(
            self.pair.a, self._b(sign), self.p, self.tolerances.winding, self.check(sign), route))

    def th_index(self, sign: int) -> int:
        return self._th(sign, SAMPLED)

    def exact_th_index(self, sign: int) -> Optional[int]:
        """Index of T(a) + sign * H(b) in closed form; None when it does not decide."""
        return self._th(sign, EXACT)

    def matrix_route(self) -> IndexResult:
        """Index of T(U) for the triangular matrix symbol of the pair."""
        return self._sampled("matrix", _matrix_index, build_u_matrix(self.pair), self.p)


# ---------------------------------------------------------------------------
# classification at a fixed exponent
# ---------------------------------------------------------------------------


def _scalar_toeplitz_record(res) -> OperatorRecord:
    """Scalar Fredholm Toeplitz operators are one-sided invertible with the
    side decided by the index sign, so kernel data follows from the index."""
    rec = OperatorRecord(res.fredholm, res.index)
    if res.fredholm:
        rec.kernel_dim = max(res.index, 0)
        rec.cokernel_dim = max(-res.index, 0)
    return rec.finalize()


def _report(an: Analysis, kappas, operators, evidence, discrepancies, **extra):
    top = operators[PLUS_KEY]
    return FredholmReport(
        an.p.p, *kappas, an.pair.residual, an.pair.match_constant, operators,
        top.classification, top.kernel_dim, top.cokernel_dim, evidence,
        discrepancies=discrepancies, **extra)


def classify(pair: MatchingPair, p, n_section: int = 256, formula_section: int = 512,
             tolerances: Tolerances = Tolerances()) -> FredholmReport:
    """Classification of T(a)+H(b) and T(a)-H(b) on H^p for a matching pair."""
    return _classify(Analysis(pair, p, tolerances, n_section, formula_section))


def _classify(an: Analysis) -> FredholmReport:
    pair = an.pair
    evidence: list[str] = []
    discrepancies: list[str] = []
    operators = {
        "T(c)": _scalar_toeplitz_record(an.toeplitz(pair.c)),
        "T(d)": _scalar_toeplitz_record(an.toeplitz(pair.d)),
    }
    check_plus, check_minus = an.check(1), an.check(-1)

    if an.kappas is None:
        evidence.append(
            "subordinated test: T(c) or T(d) not Fredholm, so the pair "
            "diag(T(a)+H(b), T(a)-H(b)) is not Fredholm")
        for sign, key in SIGNS:
            rec = OperatorRecord(an.check(sign).fredholm)
            if rec.fredholm:
                rec.index = an.th_index(sign)
                rec.classification = UNCLASSIFIED
                evidence.append(
                    f"{key} is individually Fredholm with index {rec.index}; "
                    "use exponent probing for its one-sided classification")
            operators[key] = rec.finalize()
        return _report(an, (None, None), operators, evidence, discrepancies)

    kappa1, kappa2 = an.kappas
    evidence.append(f"subordinated indices: ind T(d) = {kappa1}, ind T(c) = {kappa2}")

    if not (check_plus.fredholm and check_minus.fredholm):
        discrepancies.append(
            "T(c), T(d) Fredholm but a direct symbol check failed; "
            f"min moduli {check_plus.min_modulus:.2e}/{check_minus.min_modulus:.2e}")

    ind_plus, ind_minus = an.th_index(1), an.th_index(-1)
    if ind_plus + ind_minus != kappa1 + kappa2:
        discrepancies.append(
            f"index sum rule violated: {ind_plus} + {ind_minus} != {kappa1} + {kappa2}")
    else:
        evidence.append(
            f"index sum rule: ind(T(a)+H(b)) + ind(T(a)-H(b)) = {kappa1 + kappa2}")

    rec_plus = OperatorRecord(True, ind_plus)
    rec_minus = OperatorRecord(True, ind_minus)

    if kappa1 >= 0 and kappa2 >= 0:
        evidence.append("rule: both subordinated indices >= 0, so both operators "
                        "are right-invertible (cokernels vanish)")
        for rec in (rec_plus, rec_minus):
            rec.cokernel_dim = 0
            rec.kernel_dim = rec.index
    elif kappa1 <= 0 and kappa2 <= 0:
        evidence.append("rule: both subordinated indices <= 0, so both operators "
                        "are left-invertible (kernels vanish)")
        for rec in (rec_plus, rec_minus):
            rec.kernel_dim = 0
            rec.cokernel_dim = -rec.index
    else:
        _apportion_mixed(an, rec_plus, rec_minus, evidence)

    operators[PLUS_KEY] = rec_plus.finalize()
    operators[MINUS_KEY] = rec_minus.finalize()
    return _report(an, (kappa1, kappa2), operators, evidence, discrepancies)


def _apportion_mixed(an: Analysis, rec_plus: OperatorRecord, rec_minus: OperatorRecord,
                     evidence: list) -> None:
    """Kernel data of both operators for subordinated indices of mixed sign:
    the joint kernel dimension from the kernel formula, split between the
    operators by witnesses or finite sections; left undetermined otherwise."""
    kappa1, kappa2 = an.kappas
    try:
        formula = an.formula()
    except NoSpectralGap as exc:
        evidence.append(
            f"mixed subordinated indices but the kernel compression is "
            f"inconclusive ({exc}); kernels left undetermined")
        return
    joint = formula.dimension
    evidence.append(
        f"mixed subordinated indices: joint kernel dimension of the pair = {joint} "
        f"(quadrant {formula.quadrant}"
        + (f", compression rank {formula.rank}, alternative projection gives "
           f"{formula.alt_dimension}" if formula.rank is not None else "") + ")")
    joint_coker = joint - (kappa1 + kappa2)
    if joint > 0 and joint_coker > 0 and rec_plus.index == rec_minus.index:
        evidence.append(
            "rule: the pair has nonzero kernel and cokernel with equal individual "
            "indices, so at least one of the two operators is not one-sided invertible")
    if joint == 0:
        for rec in (rec_plus, rec_minus):
            rec.kernel_dim = 0
            rec.cokernel_dim = -rec.index
        evidence.append("joint kernel is trivial: both operators are injective")
        return
    witnesses = an.witnesses()
    w_plus, w_minus = len(witnesses[1]), len(witnesses[-1])
    if w_plus or w_minus:
        evidence.append(
            f"verified kernel witnesses: {w_plus} for {PLUS_KEY}, "
            f"{w_minus} for {MINUS_KEY} (residuals < 1e-10)")
    if w_plus + w_minus == joint:
        split = (w_plus, w_minus)
        evidence.append("witness count exhausts the joint kernel dimension; "
                        "kernels are fully apportioned")
    else:
        split = _split_by_sections(an, joint)
        if split is None:
            evidence.append(
                "kernel split between the two operators undetermined: "
                f"witnesses cover {w_plus + w_minus} of {joint} dimensions and "
                "finite sections are inconclusive")
            return
        evidence.append(
            f"kernel split {split} taken from finite sections of size "
            f"{an.n_section} (clean spectral gaps)")
    for rec, kernel_dim in zip((rec_plus, rec_minus), split):
        rec.kernel_dim = kernel_dim
        rec.cokernel_dim = kernel_dim - rec.index


def _split_by_sections(an: Analysis, joint: int):
    """Kernel split from section SVDs; None when gaps are not clean."""
    try:
        split = (an.section_kernel(1), an.section_kernel(-1))
    except NoSpectralGap:
        return None
    return split if sum(split) == joint else None


# ---------------------------------------------------------------------------
# exponent probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    limit_index: int
    s_used: float
    critical_exponent: Optional[float]
    read: IndexResult  # the index of T(symbol) at s_used


def probe_limit_index(symbol: PCSymbol, p,
                      min_modulus_tol: float = WINDING_MIN_MODULUS) -> ProbeResult:
    """lim_{s -> p+} ind T(symbol) on H^s.

    The index is constant between consecutive critical exponents, which
    :func:`critical_exponents` gives in closed form.  p* is the smallest one
    in (p, p+1] and the index is read at the midpoint of (p, p*), or at
    p+1 when there is none.  An exponent within relative 1e-9 of p counts as
    p itself, and one within relative 1e-9 above p+1 as inside the window.
    A next exponent s_next just above that window can put the curve at p+1
    within the winding tolerance of the origin; when the read at p+1 is not
    Fredholm and some s_next exists, the index is read again at the midpoint
    of (p, s_next), where it is the same.  NoFredholmNeighborhood when
    T(symbol) is not Fredholm there, as when the symbol vanishes on a
    continuous stretch.  The read uses the one base grid of every index, so
    ``read`` is the fact that an Analysis at ``s_used`` computes.
    """
    pe = _as_exponent(p)
    above = [s for s in critical_exponents(symbol) if s > pe.p * (1 + CRITICAL_RTOL)]
    s_next = above[0] if above else None
    p_star = s_next if above and s_next <= (pe.p + 1) * (1 + CRITICAL_RTOL) else None
    s_used = pe.p + 1.0 if p_star is None else 0.5 * (pe.p + p_star)
    res = toeplitz_index(symbol, s_used, min_modulus_tol=min_modulus_tol)
    if not res.fredholm and p_star is None and s_next is not None:
        s_used = 0.5 * (pe.p + s_next)
        res = toeplitz_index(symbol, s_used, min_modulus_tol=min_modulus_tol)
    if not res.fredholm:
        raise NoFredholmNeighborhood(
            f"T(symbol) is not Fredholm at s = {s_used:.6g}, between p = {pe.p:g} "
            "and its next critical exponent")
    return ProbeResult(res.index, s_used, p_star, res)


def classify_with_probing(pair: MatchingPair, p, n_section: int = 256,
                          tolerances: Tolerances = Tolerances()) -> FredholmReport:
    """Classification when T(c) or T(d) degenerates at p itself.

    Requires at least one of T(a)+H(b), T(a)-H(b) to be Fredholm at p; the
    subordinated indices are probed on the right-stability interval and
    kernel data is transferred back along the dense embedding (the index
    is constant on the interval, so kernels and cokernels agree).
    """
    an = Analysis(pair, p, tolerances, n_section)
    pe = an.p
    if an.kappas is not None:
        rep = _classify(an)
        rep.evidence.append("probing not needed: subordinated pair Fredholm at p")
        return rep

    if not (an.check(1).fredholm or an.check(-1).fredholm):
        raise NotFredholmAtP(
            f"neither operator is Fredholm at p = {pe.p:g}; probing does not apply")

    probe_c, probe_d = an.probe(pair.c), an.probe(pair.d)
    lim_k2, lim_k1 = probe_c.limit_index, probe_d.limit_index
    # the probe read nearer to p has the nearer critical exponent, if any
    nearer = min(probe_c, probe_d, key=lambda res: res.s_used)
    p_star, s_fb = nearer.critical_exponent, nearer.s_used

    evidence = [
        f"probing (s -> p+): lim ind T(d) = {lim_k1}, lim ind T(c) = {lim_k2}"
        + (f"; nearest critical exponent {p_star:.6f}" if p_star else ""),
    ]
    operators = {
        "T(c)": _scalar_toeplitz_record(an.toeplitz(pair.c)),
        "T(d)": _scalar_toeplitz_record(an.toeplitz(pair.d)),
    }

    branch_report: Optional[FredholmReport] = None

    def branch() -> FredholmReport:
        nonlocal branch_report
        if branch_report is None:
            at_s = Analysis(pair, HardyExponent(s_fb), an.tolerances, n_section)
            for symbol, probe in ((pair.c, probe_c), (pair.d, probe_d)):
                if probe.s_used == s_fb:  # the probe has read ind T(symbol) at s_fb
                    at_s._facts[("toeplitz", symbol)] = (probe.read, None)
            branch_report = _classify(at_s)
        return branch_report

    for sign, key in SIGNS:
        if not an.check(sign).fredholm:
            operators[key] = OperatorRecord(False).finalize()
            b_rec = branch().operators[key]
            evidence.append(
                f"{key} not Fredholm at p = {pe.p:g}; on the stability branch "
                f"s in (p, {p_star if p_star else pe.p + 1:.6g}) it is "
                f"{b_rec.classification} with index {b_rec.index}")
            continue
        ind_at_p = an.th_index(sign)
        rec = OperatorRecord(True, ind_at_p)
        if lim_k1 >= 0 and lim_k2 >= 0:
            rec.cokernel_dim = 0
            rec.kernel_dim = ind_at_p
            evidence.append(f"rule: both limit indices >= 0, so {key} is "
                            "right-invertible at p")
        elif lim_k1 <= 0 and lim_k2 <= 0:
            rec.kernel_dim = 0
            rec.cokernel_dim = -ind_at_p
            evidence.append(f"rule: both limit indices <= 0, so {key} is "
                            "left-invertible at p")
        else:
            b_rec = branch().operators[key]
            if b_rec.index == ind_at_p and b_rec.kernel_dim is not None:
                rec.kernel_dim = b_rec.kernel_dim
                rec.cokernel_dim = b_rec.cokernel_dim
                evidence.append(
                    f"mixed limit indices: kernel data of {key} computed at "
                    f"s = {s_fb:.6g} and transferred to p = {pe.p:g} "
                    "(equal index along the dense embedding)")
            else:
                evidence.append(
                    f"mixed limit indices and no transferable kernel data for {key}")
        operators[key] = rec.finalize()

    return _report(an, (None, None), operators, evidence, [],
                   probing=ProbingRecord(s_fb, (lim_k1, lim_k2), p_star))


# ---------------------------------------------------------------------------
# cross-validation of the index routes
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyReport:
    p: float
    subordinated_sum: Optional[int]
    matrix_route: Optional[int]
    th_route: Optional[int]
    section_kernel_dims: Optional[tuple]
    report_kernel_dims: Optional[tuple]
    discrepancies: list
    exact_route: Optional[int] = None

    @property
    def consistent(self) -> bool:
        return not self.discrepancies


def cross_check(pair: MatchingPair, p, n_section: int = 256,
                with_sections: bool = True) -> ConsistencyReport:
    """Four index routes plus a finite-section kernel count.

    Three independent sampled routes: (i) ind T(c) + ind T(d); (ii) minus
    the winding of the determinant of the arc-completed matrix symbol
    U(a, b); (iii) th-symbol indices of the two operators, each from its
    sampled curve alone.  The fourth, ``exact_route``, is the sum of the
    two th-symbol indices in closed form (:func:`calculus.exact_index`),
    None when the closed form does not decide.  Discrepancies are itemized,
    never silently dropped.  ``with_sections=False`` skips the
    classification and section kernels and compares only the index routes.
    """
    an = _Witnesses(pair, p, n_section=n_section)
    discrepancies: list[str] = []

    sub_sum = None if an.kappas is None else sum(an.kappas)
    if sub_sum is None:
        discrepancies.append("subordinated route unavailable: T(c) or T(d) not Fredholm")

    mres = an.matrix_route()
    matrix_route = mres.index if mres.fredholm else None
    if matrix_route is None:
        discrepancies.append("matrix route unavailable: determinant curve through origin")

    th_route = None
    try:
        th_route = an.th_index(1) + an.th_index(-1)
    except NotFredholm as exc:
        discrepancies.append(f"th-symbol route unavailable: {exc}")

    routes = {r for r in (sub_sum, matrix_route, th_route) if r is not None}
    if len(routes) > 1:
        discrepancies.append(
            f"index routes disagree: subordinated {sub_sum}, matrix {matrix_route}, "
            f"th-symbol {th_route}")

    exact_route = None
    try:
        exact = [an.exact_th_index(sign) for sign, _ in SIGNS]
        exact_route = None if None in exact else sum(exact)
    except NotFredholm as exc:
        if th_route is not None:
            discrepancies.append(f"exact route finds no index where the th-symbol route "
                                 f"gives {th_route}: {exc}")
    if exact_route is not None and routes - {exact_route}:
        discrepancies.append(
            f"exact route {exact_route} disagrees with the sampled routes "
            f"{sorted(routes)}")

    section_dims = None
    report_dims = None
    if sub_sum is not None and with_sections:
        rep = _classify(an)
        if rep.operators[PLUS_KEY].kernel_dim is not None:
            report_dims = (rep.operators[PLUS_KEY].kernel_dim,
                           rep.operators[MINUS_KEY].kernel_dim)
        try:
            section_dims = (an.section_kernel(1), an.section_kernel(-1))
        except NoSpectralGap as exc:
            discrepancies.append(f"finite-section kernel count inconclusive: {exc}")
        if section_dims is not None and report_dims is not None \
                and section_dims != report_dims:
            discrepancies.append(
                f"finite-section kernel dims {section_dims} differ from the "
                f"report's {report_dims} (sections only see fast-decaying kernels)")

    return ConsistencyReport(an.p.p, sub_sum, matrix_route, th_route,
                             section_dims, report_dims, discrepancies, exact_route)
