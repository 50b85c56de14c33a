import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from th_invert import analyzer, calculus, symbols as sy
from th_invert.analyzer import (
    MINUS_KEY,
    PLUS_KEY,
    OperatorRecord,
    classify,
    classify_with_probing,
    cross_check,
    kernel_witness_candidates,
    probe_limit_index,
    verified_kernel_witnesses,
)
from th_invert.calculus import EXACT, toeplitz_index
from th_invert.catalog import quarter_twist, quarter_twist_pair
from th_invert.errors import (InconsistentRecord, NoFredholmNeighborhood, NotFredholmAtP,
                              THInvertError)
from th_invert.matching import MatrixSymbol, make_matching_pair
from th_invert.sampling import random_matching_pair
from th_invert.symbols import Const, Monomial, PowerArc


# ---------------------------------------------------------------------------
# kernel witnesses
# ---------------------------------------------------------------------------


def test_witness_families_by_parity():
    a = quarter_twist()
    odd = kernel_witness_candidates(a, a * Monomial(3))    # n = 2m+1, m = 1
    assert len(odd[1]) == 1 and len(odd[-1]) == 2
    even = kernel_witness_candidates(a, a * Monomial(2))   # n = 2m, m = 1
    assert len(even[1]) == 1 and len(even[-1]) == 1
    base = kernel_witness_candidates(a, a * Monomial(1))   # n = 1: just {1} for minus
    assert len(base[1]) == 0 and len(base[-1]) == 1
    none = kernel_witness_candidates(a, a * Monomial(-1))
    assert len(none[1]) == 0 and len(none[-1]) == 0


def test_witnesses_verified_for_any_generating_function(right_half_pair):
    # the reversal family annihilates regardless of a; verified numerically
    wit = verified_kernel_witnesses(right_half_pair.a, right_half_pair.b)
    assert len(wit[-1]) == 1 and len(wit[1]) == 0


# ---------------------------------------------------------------------------
# classification at a fixed exponent
# ---------------------------------------------------------------------------


def test_classify_quarter_pair_small_p(quarter_pair):
    rep = classify(quarter_pair, 1.5)
    assert (rep.kappa1, rep.kappa2) == (-1, 1)
    plus, minus = rep.operators[PLUS_KEY], rep.operators[MINUS_KEY]
    assert plus.classification == "invertible"
    assert (plus.kernel_dim, plus.cokernel_dim) == (0, 0)
    assert minus.classification == "not_one_sided_invertible"
    assert (minus.kernel_dim, minus.cokernel_dim) == (1, 1)
    assert rep.evidence and not rep.discrepancies


def test_classify_quarter_pair_large_p(quarter_pair):
    rep = classify(quarter_pair, 3.0)
    plus = rep.operators[PLUS_KEY]
    assert plus.classification == "left_invertible"
    assert (plus.index, plus.kernel_dim, plus.cokernel_dim) == (-1, 0, 1)
    minus = rep.operators[MINUS_KEY]
    assert (minus.index, minus.kernel_dim, minus.cokernel_dim) == (0, 1, 1)


def test_classify_half_plane(half_plane_pair):
    rep = classify(half_plane_pair, 1.5)
    plus = rep.operators[PLUS_KEY]
    assert plus.classification == "right_invertible"
    assert (plus.index, plus.kernel_dim, plus.cokernel_dim) == (2, 2, 0)
    assert rep.operators[MINUS_KEY].classification == "invertible"
    rep3 = classify(half_plane_pair, 3.0)
    plus3 = rep3.operators[PLUS_KEY]
    assert plus3.classification == "left_invertible"
    assert (plus3.index, plus3.kernel_dim, plus3.cokernel_dim) == (-2, 0, 2)
    assert rep3.operators[MINUS_KEY].classification == "invertible"


def test_classify_right_half(right_half_pair):
    for p in (1.5, 2.0, 3.0):
        rep = classify(right_half_pair, p)
        assert rep.operators[PLUS_KEY].classification == "invertible"
        assert rep.operators[MINUS_KEY].classification == "not_one_sided_invertible"
        assert rep.operators[PLUS_KEY].index == 0
        assert rep.operators[MINUS_KEY].index == 0


def test_classify_shift_minus_pair():
    pair = quarter_twist_pair(-1)
    rep = classify(pair, 1.5)
    assert rep.operators[PLUS_KEY].classification == "invertible"
    assert rep.operators[MINUS_KEY].classification == "invertible"
    rep3 = classify(pair, 3.0)
    plus3 = rep3.operators[PLUS_KEY]
    assert plus3.classification == "left_invertible" and plus3.cokernel_dim == 1
    assert rep3.operators[MINUS_KEY].classification == "invertible"


def test_classify_degenerate_subordinated(quarter_pair):
    rep = classify(quarter_pair, 2.0)
    assert rep.classification in ("not_fredholm",)
    assert not rep.operators["T(d)"].fredholm
    assert rep.operators[MINUS_KEY].fredholm
    assert rep.operators[MINUS_KEY].index == 0


def test_classify_trivial_pair():
    rep = classify(make_matching_pair(Const(1.0), Const(1.0)), 2.0)
    for key in (PLUS_KEY, MINUS_KEY):
        assert rep.operators[key].classification == "invertible"


def test_report_index_bookkeeping(quarter_pair):
    rep = classify(quarter_pair, 3.0)
    for rec in rep.operators.values():
        if rec.kernel_dim is not None and rec.cokernel_dim is not None:
            assert rec.index == rec.kernel_dim - rec.cokernel_dim
    assert rep.kappa1 + rep.kappa2 == (rep.operators[PLUS_KEY].index
                                       + rep.operators[MINUS_KEY].index)


def test_report_serialization_roundtrip(quarter_pair):
    doc = classify(quarter_pair, 1.5).to_dict()
    assert doc["p"] == 1.5
    assert doc["operators"][PLUS_KEY]["classification"] == "invertible"
    assert isinstance(doc["evidence"], list) and doc["evidence"]
    import json

    json.dumps(doc)  # serializable


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------


def test_probe_constant_index():
    for n in (-2, 0, 3):
        res = probe_limit_index(Monomial(n), 1.5)
        assert res.limit_index == -n
        assert res.critical_exponent is None


def test_probe_quarter_d_at_two(quarter_pair):
    res = probe_limit_index(quarter_pair.d, 2.0)
    assert res.limit_index == -2


def test_probe_half_plane_at_two(half_plane_pair):
    res = probe_limit_index(half_plane_pair.b, 2.0)
    assert res.limit_index == -1


def test_probe_detects_critical_exponent(quarter_pair):
    # d has its only degeneracy at p = 2: probing from 1.8 must find it
    res = probe_limit_index(quarter_pair.d, 1.8)
    assert res.limit_index == -1
    assert res.critical_exponent == pytest.approx(2.0, abs=1e-12)
    assert 1.8 < res.s_used < 2.0


def test_probe_reads_the_critical_exponent_in_closed_form():
    # the jump of t^(1/4) degenerates at s = 4 only
    res = probe_limit_index(PowerArc(0.25), 3.0)
    assert res.critical_exponent == pytest.approx(4.0, abs=1e-12)
    assert res.s_used == pytest.approx(3.5, abs=1e-12)
    assert res.limit_index == 0
    res = probe_limit_index(PowerArc(0.25), 4.0)
    assert res.critical_exponent is None
    assert res.s_used == pytest.approx(5.0, abs=1e-12)
    assert res.limit_index == -1


def test_probe_rounds_critical_exponents_at_the_window_ends():
    # within relative 1e-9 of p: p itself, so not the nearest exponent above p
    res = probe_limit_index(PowerArc(0.25), 4.0 * (1 - 5e-10))
    assert res.critical_exponent is None and res.limit_index == -1
    # within relative 1e-9 above p + 1: inside the window (p, p + 1]
    res = probe_limit_index(PowerArc(0.25 * (1 - 5e-10)), 3.0)
    assert res.critical_exponent == pytest.approx(4.0, rel=1e-9)
    assert res.limit_index == 0


@pytest.mark.parametrize("shrink", [2e-9, 5e-8])
def test_probe_reads_below_a_critical_exponent_just_past_the_window(shrink):
    # the exponent 4 / (1 - shrink) is outside (3, 4 (1 + 1e-9)], yet close
    # enough that the curve at s = 4 passes within the winding tolerance of
    # the origin; the index on (3, 4 / (1 - shrink)) is 0 all the same
    res = probe_limit_index(PowerArc(0.25 * (1 - shrink)), 3.0)
    assert res.limit_index == 0
    assert res.critical_exponent is None
    assert 3.0 < res.s_used < 4.0


def test_probe_makes_one_index_call(monkeypatch, quarter_pair):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return toeplitz_index(*args, **kwargs)

    monkeypatch.setattr(analyzer, "toeplitz_index", counted)
    for p in (1.8, 2.0):
        probe_limit_index(quarter_pair.d, p)
    assert len(calls) == 2


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_probe_read_is_the_index_at_its_exponent(p):
    # sums decide on the sampled curve, so the read must come from the same
    # grid as the index that an Analysis at s_used computes
    a = sy.product(sy.add(Const(2.0), Monomial(1)), PowerArc(0.25))
    pair = make_matching_pair(a, a * Monomial(1))
    for symbol in (pair.c, pair.d):
        res = probe_limit_index(symbol, p)
        assert res.read == toeplitz_index(symbol, res.s_used)


def test_probe_refuses_a_symbol_with_a_continuous_zero():
    # 1 + t vanishes at t = -1 for every exponent
    with pytest.raises(NoFredholmNeighborhood):
        probe_limit_index(sy.add(Const(1.0), Monomial(1)), 1.5)


def test_classify_with_probing_quarter_at_two(quarter_pair):
    rep = classify_with_probing(quarter_pair, 2.0)
    assert rep.probing is not None
    assert rep.probing.limit_indices == (-2, 1)
    assert rep.operators[PLUS_KEY].classification == "not_fredholm"
    minus = rep.operators[MINUS_KEY]
    assert minus.classification == "not_one_sided_invertible"
    assert (minus.index, minus.kernel_dim, minus.cokernel_dim) == (0, 1, 1)
    assert any("left_invertible" in e for e in rep.evidence)  # branch verdict


def test_classify_with_probing_half_plane_at_two(half_plane_pair):
    rep = classify_with_probing(half_plane_pair, 2.0)
    minus = rep.operators[MINUS_KEY]
    assert minus.classification == "invertible"
    assert rep.operators[PLUS_KEY].classification == "not_fredholm"


def test_classify_with_probing_rule_for_nonnegative_limit_indices():
    # c = 1 and d = a/~a with a the inverted quarter twist: T(d) is not
    # Fredholm at p = 2, and both limit indices are 0
    rep = classify_with_probing(quarter_twist_pair(0).inverse_pair(), 2.0)
    assert rep.probing.limit_indices == (0, 0)
    plus = rep.operators[PLUS_KEY]
    assert plus.classification == "invertible"
    assert (plus.index, plus.kernel_dim, plus.cokernel_dim) == (0, 0, 0)
    assert ("rule: both limit indices >= 0, so T(a)+H(b) is right-invertible at p"
            in rep.evidence)
    assert rep.operators[MINUS_KEY].classification == "not_fredholm"


def test_classify_with_probing_passthrough(quarter_pair):
    rep = classify_with_probing(quarter_pair, 1.5)
    assert rep.operators[PLUS_KEY].classification == "invertible"
    assert rep.probing is None


def test_probing_requires_one_fredholm_operator():
    # H(1) = 0, so both operators reduce to T(phi_1/2), degenerate at p = 2
    from th_invert.wiener_hopf import power_function

    pair = make_matching_pair(power_function(0.5), Const(1.0))
    with pytest.raises(NotFredholmAtP):
        classify_with_probing(pair, 2.0)


def test_probing_monomial_pairs_right_invertible():
    for n in (-2, -1):
        pair = make_matching_pair(Monomial(n), Monomial(n))
        rep = classify_with_probing(pair, 2.0)
        # c = 1, d = t^{2n}: both limit indices >= 0 for n <= 0
        assert rep.operators[PLUS_KEY].classification in (
            "right_invertible", "invertible")


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def test_cross_check_quarter_pair(quarter_pair):
    cc = cross_check(quarter_pair, 3.0)
    assert cc.subordinated_sum == cc.matrix_route == cc.th_route == -1
    assert cc.section_kernel_dims == (0, 1)
    assert cc.report_kernel_dims == (0, 1)
    assert cc.consistent


def test_cross_check_half_plane(half_plane_pair):
    cc = cross_check(half_plane_pair, 1.5, with_sections=False)
    assert cc.subordinated_sum == cc.matrix_route == cc.th_route == 2
    assert cc.consistent


def test_cross_check_trivial():
    cc = cross_check(make_matching_pair(Const(1.0), Const(1.0)), 2.7)
    assert cc.subordinated_sum == cc.matrix_route == cc.th_route == 0


def test_cross_check_reports_degenerate_routes(quarter_pair):
    cc = cross_check(quarter_pair, 2.0, with_sections=False)
    assert not cc.consistent
    assert any("not Fredholm" in d for d in cc.discrepancies)


@pytest.mark.parametrize("p", [1.3, 1.7, 2.9])
def test_route_agreement_randomized(p):
    # arcs bulge to the left of their chords for p < 2, to the right for p > 2
    rng = np.random.default_rng(42)
    for _ in range(20):
        pair = random_matching_pair(rng, p)
        cc = cross_check(pair, p, with_sections=False)
        assert cc.subordinated_sum == cc.matrix_route == cc.th_route
        assert cc.consistent


def test_sign_rule_property():
    # whenever the verdict is right-invertible, both subordinated indices >= 0
    rng = np.random.default_rng(9)
    seen = 0
    while seen < 6:
        pair = random_matching_pair(rng, 2.3)
        kappa2 = toeplitz_index(pair.c, 2.3).index
        kappa1 = toeplitz_index(pair.d, 2.3).index
        if kappa1 < 0 or kappa2 < 0:
            continue
        rep = classify(pair, 2.3)
        for key in (PLUS_KEY, MINUS_KEY):
            assert rep.operators[key].classification in ("right_invertible", "invertible")
            assert rep.operators[key].cokernel_dim == 0
        seen += 1


def test_shneiberg_constancy_between_critical_points(quarter_pair):
    # the index of T(d) is constant on the components (1, 2) and (2, infty)
    for p in (1.2, 1.5, 1.9):
        assert toeplitz_index(quarter_pair.d, p).index == -1
    for p in (2.05, 2.5, 3.0, 4.5, 8.0):
        assert toeplitz_index(quarter_pair.d, p).index == -2


def test_inconsistent_record_raises():
    # ind = ker - coker is checked with a real exception, also under python -O
    rec = OperatorRecord(True, index=1, kernel_dim=0, cokernel_dim=0)
    with pytest.raises(InconsistentRecord):
        rec.finalize()


def test_cross_check_reads_each_matrix_symbol_once(monkeypatch, quarter_pair):
    # U of the matrix route and U1 of each sign: every route that reads the
    # one-sided matrices of a matrix symbol shares one computation
    reads, computed = {}, {}
    one_sided, matrices = MatrixSymbol.one_sided, MatrixSymbol._one_sided_matrices

    def counting(counts, fn):
        def wrapper(self):
            counts[id(self)] = counts.get(id(self), 0) + 1
            return fn(self)
        return wrapper

    calculus._th_parts.cache_clear()  # U1 of both signs are built afresh
    monkeypatch.setattr(MatrixSymbol, "one_sided", counting(reads, one_sided))
    monkeypatch.setattr(MatrixSymbol, "_one_sided_matrices", counting(computed, matrices))
    cc = cross_check(quarter_pair, 3.0, with_sections=False)
    assert cc.consistent and cc.exact_route == cc.th_route == -1
    assert len(computed) == 3 and set(computed.values()) == {1}
    assert reads.keys() == computed.keys() and sum(reads.values()) > len(reads)


def test_cross_check_itemizes_a_disagreeing_exact_route(monkeypatch, quarter_pair):
    index = analyzer.th_index

    def exact_zero(*args, route, **kwargs):
        return 0 if route == EXACT else index(*args, route=route, **kwargs)

    monkeypatch.setattr(analyzer, "th_index", exact_zero)
    cc = cross_check(quarter_pair, 3.0, with_sections=False)
    assert cc.subordinated_sum == cc.matrix_route == cc.th_route == -1
    assert cc.exact_route == 0
    assert cc.discrepancies == ["exact route 0 disagrees with the sampled routes [-1]"]


# ---------------------------------------------------------------------------
# metamorphic relations of classify
# ---------------------------------------------------------------------------


def _outcome(pair, p):
    """classify's report, or the name of its refusal."""
    try:
        return classify(pair, p, n_section=64, formula_section=128)
    except THInvertError as exc:
        return type(exc).__name__


def _records(rep):
    return {key: (r.fredholm, r.index, r.kernel_dim, r.cokernel_dim, r.classification)
            for key, r in rep.operators.items()}


random_pairs = st.builds(lambda seed: random_matching_pair(np.random.default_rng(seed)),
                         st.integers(0, 2 ** 32 - 1))
exponents = st.sampled_from([1.3, 1.7, 2.5, 3.5])


@given(random_pairs, exponents)
@settings(max_examples=12, deadline=None)
def test_negating_b_swaps_the_operator_records(pair, p):
    # c and d only change sign, and T(a) - H(-b) = T(a) + H(b)
    rep, flipped = _outcome(pair, p), _outcome(make_matching_pair(pair.a, -pair.b), p)
    if isinstance(rep, str):
        assert flipped == rep
        return
    ops, flipped_ops = _records(rep), _records(flipped)
    assert flipped_ops[PLUS_KEY] == ops[MINUS_KEY] and flipped_ops[MINUS_KEY] == ops[PLUS_KEY]
    assert (flipped.kappa1, flipped.kappa2) == (rep.kappa1, rep.kappa2)


@given(random_pairs, exponents, st.floats(0.5, 2.0), st.floats(-math.pi, math.pi))
@settings(max_examples=12, deadline=None)
def test_scaling_the_pair_changes_no_verdict(pair, p, modulus, phase):
    # T(la) + H(lb) = l (T(a) + H(b)), and c, d are unchanged
    lam = cmath.rect(modulus, phase)
    rep = _outcome(pair, p)
    scaled = _outcome(make_matching_pair(lam * pair.a, lam * pair.b), p)
    if isinstance(rep, str):
        assert scaled == rep
        return
    assert _records(scaled) == _records(rep)
    assert (scaled.kappa1, scaled.kappa2, scaled.classification) == (
        rep.kappa1, rep.kappa2, rep.classification)


@given(random_pairs, exponents)
@settings(max_examples=12, deadline=None)
def test_index_sum_rule(pair, p):
    rep = _outcome(pair, p)
    if isinstance(rep, str) or rep.kappa1 is None:
        return
    plus, minus = rep.operators[PLUS_KEY].index, rep.operators[MINUS_KEY].index
    assert plus + minus == rep.kappa1 + rep.kappa2
