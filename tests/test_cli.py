import copy
import csv
import json
import math
import os

import pytest

from th_invert import symbols as sy
from th_invert.cli import main
from th_invert.config import decode_symbol, encode_symbol, parse_config
from th_invert.errors import ParseError, ValidationError
from th_invert.symbols import Const, Monomial, PowerArc, evaluate, CirclePoint

QUARTER_CONFIG = {
    "symbols": {
        "a": {"op": "product", "factors": [
            {"op": "const", "re": math.cos(math.pi / 4), "im": math.sin(math.pi / 4)},
            {"op": "power_arc", "beta": 0.25, "anchor_angle": 0.0},
        ]},
        "b": {"op": "product", "factors": [
            {"op": "product", "factors": [
                {"op": "const", "re": math.cos(math.pi / 4), "im": math.sin(math.pi / 4)},
                {"op": "power_arc", "beta": 0.25, "anchor_angle": 0.0},
            ]},
            {"op": "monomial", "n": 1},
        ]},
    },
    "p_values": [1.5, 3.0],
    "finite_section_n": 256,
}

# the pair (i, sign(Im t)) generating iI + H(sign(Im t))
HALF_PLANE_CONFIG = {
    "symbols": {
        "a": {"op": "const", "re": 0.0, "im": 1.0},
        "b": {"op": "piecewise_const", "break_angles": [0.0, math.pi],
              "values": [1.0, -1.0]},
    },
    "p_values": [1.5, 2.0, 3.0],
    "finite_section_n": 256,
}

# the quarter twist a with b = a t^-1: mixed subordinated indices whose joint
# kernel comes from the kernel formula's compression
SHIFT_MINUS_CONFIG = copy.deepcopy(QUARTER_CONFIG)
SHIFT_MINUS_CONFIG["symbols"]["b"]["factors"][1]["n"] = -1
SHIFT_MINUS_CONFIG["p_values"] = [1.5]

# a = 1/(3 + t) and b = ~a t: no closed-form Fourier coefficients, and the
# kernel split is read from finite sections
_INV_SUM = {"op": "inverse", "child": {"op": "sum", "terms": [
    {"op": "const", "re": 3.0}, {"op": "monomial", "n": 1}]}}
QUADRATURE_CONFIG = {
    "symbols": {
        "a": _INV_SUM,
        "b": {"op": "product", "factors": [{"op": "tilde", "child": _INV_SUM},
                                           {"op": "monomial", "n": 1}]},
    },
    "p_values": [1.5],
    "finite_section_n": 16,
}

# (t, 2 + t) violates the matching condition
NON_MATCHING_CONFIG = {
    "symbols": {"a": {"op": "monomial", "n": 1},
                "b": {"op": "sum", "terms": [{"op": "const", "re": 2.0},
                                             {"op": "monomial", "n": 1}]}},
    "p_values": [2.0],
}

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _golden(name: str) -> bytes:
    with open(os.path.join(DATA, name), "rb") as fh:
        return fh.read()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(QUARTER_CONFIG))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config():
    cfg = parse_config(json.dumps({
        "symbols": {"a": {"op": "monomial", "n": 1}, "b": {"op": "const"}},
        "p_values": [2],
    }))
    assert cfg.symbol("a") == Monomial(1)
    assert cfg.p_values == [2.0]
    assert cfg.finite_section_n == 256


def test_parse_rejects_boundary_exponent():
    with pytest.raises(ValidationError):
        parse_config(json.dumps({
            "symbols": {"a": {"op": "monomial", "n": 1}},
            "p_values": [1.0],
        }))


def test_parse_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"symbols": {"a": {"op": "const"}}, "extra": 1}))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({
            "symbols": {"a": {"op": "const", "bogus": 2}}, "p_values": []}))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({
            "symbols": {"a": {"op": "const"}},
            "tolerances": {"nonsense": 1e-9}}))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_config("{ not json")
    assert "line" in str(err.value)


def test_parse_rejects_small_section():
    with pytest.raises(ValidationError):
        parse_config(json.dumps({
            "symbols": {"a": {"op": "const"}}, "finite_section_n": 8}))


def test_symbol_grammar_roundtrip():
    cfg = parse_config(json.dumps(QUARTER_CONFIG))
    a = cfg.symbol("a")
    redecoded = decode_symbol(encode_symbol(a))
    for theta in (0.0, 1.0, 3.0, 5.5):
        for side in ("left", "right"):
            assert evaluate(redecoded, CirclePoint(theta), side) \
                == evaluate(a, CirclePoint(theta), side)


def test_grammar_covers_all_primitives():
    expr = {"op": "sum", "terms": [
        {"op": "tilde", "child": {"op": "power_arc", "beta": {"re": 0.25, "im": 0.0},
                                  "anchor_angle": 1.0}},
        {"op": "inverse", "child": {"op": "piecewise_const",
                                    "break_angles": [0.5, 2.5],
                                    "values": [{"re": 1, "im": 0}, {"re": -1, "im": 0}]}},
        {"op": "conjugate", "child": {"op": "half_circle_extension",
                                      "g0": {"op": "monomial", "n": 2}}},
    ]}
    sym = decode_symbol(expr)
    assert decode_symbol(encode_symbol(sym)) == sym


_HALF_CIRCLE = {"op": "half_circle_extension",
                "g0": {"op": "power_arc", "beta": 0.25, "anchor_angle": 1.0}}
_REWRITTEN_CHILDREN = {
    "product": QUARTER_CONFIG["symbols"]["b"],
    "piecewise_const": HALF_PLANE_CONFIG["symbols"]["b"],
    "inverse-sum": _INV_SUM,
    "half_circle": _HALF_CIRCLE,
    "inverse-half_circle": {"op": "inverse", "child": _HALF_CIRCLE},
}


@pytest.mark.parametrize("op", ["tilde", "conjugate"])
@pytest.mark.parametrize("child", _REWRITTEN_CHILDREN.values(), ids=_REWRITTEN_CHILDREN.keys())
def test_tilde_and_conjugate_decode_to_their_rewrites(op, child):
    sym = decode_symbol({"op": op, "child": child})
    assert sym == getattr(sy, op)(decode_symbol(child))
    assert decode_symbol(encode_symbol(sym)) == sym


def test_a_rewrite_that_inverts_zero_is_a_config_error():
    zero = {"op": "inverse", "child": {"op": "const"}}
    with pytest.raises(ValidationError, match="symbols.a: inverse of the zero constant"):
        decode_symbol({"op": "tilde", "child": zero}, "symbols.a")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_analyze_reports_expected_classifications(config_path, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--config", config_path, "--out", out]) == 0
    doc = json.loads(open(out).read())
    by_p = {r["p"]: r for r in doc["reports"]}
    assert by_p[1.5]["operators"]["T(a)+H(b)"]["classification"] == "invertible"
    assert by_p[3.0]["operators"]["T(a)+H(b)"]["classification"] == "left_invertible"
    assert by_p[3.0]["operators"]["T(a)+H(b)"]["cokernel_dim"] == 1
    for r in doc["reports"]:
        assert r["evidence"]  # every record carries at least one citation


def test_analyze_deterministic(config_path, tmp_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["analyze", "--config", config_path, "--p", "1.5", "--out", out1]) == 0
    assert main(["analyze", "--config", config_path, "--p", "1.5", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_curve_command_minimum_modulus(config_path, tmp_path):
    out = str(tmp_path / "curve.csv")
    assert main(["curve", "--config", config_path, "--symbol", "d",
                 "--p", "2.0", "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert set(rows[0]) == {"segment", "param", "re", "im"}
    min_mod = min(math.hypot(float(r["re"]), float(r["im"])) for r in rows)
    assert min_mod < 1e-7  # the completing arc passes through the origin


@pytest.mark.parametrize("p", ["1.5", "2", "3"])
def test_curve_command_output_is_pinned(config_path, tmp_path, p):
    # segments, parameters and values of d's curve, byte for byte; at p = 2
    # its completing arc passes through the origin and is refined there
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", config_path, "--symbol", "d",
                 "--p", p, "--out", str(out)]) == 0
    assert out.read_bytes() == _golden(f"curve_quarter_d_p{p}.csv")


def test_verify_command_passes(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out), "--seed", "0"]) == 0
    assert "FAIL" not in out.read_text()
    assert out.read_bytes() == _golden("verify_seed0.txt")


def test_verify_seed_1_matches_golden_file(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out), "--seed", "1"]) == 0
    assert out.read_bytes() == _golden("verify_seed1.txt")


def test_selftest_command_passes(tmp_path):
    out = tmp_path / "selftest.txt"
    assert main(["selftest", "--out", str(out)]) == 0
    assert "FAIL" not in out.read_text()
    assert out.read_bytes() == _golden("selftest.txt")


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["analyze", "--config", str(path)]) == 2
    missing = tmp_path / "missing-symbols.json"
    missing.write_text(json.dumps({"symbols": {"x": {"op": "const"}}, "p_values": [2]}))
    assert main(["analyze", "--config", str(missing)]) == 2


def test_no_partial_artifact_on_failure(tmp_path, config_path):
    out = tmp_path / "sub" / "report.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NON_MATCHING_CONFIG))
    # the command fails without writing
    assert main(["analyze", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("name", ["c", "d"])
def test_curve_rejects_non_matching_pair_as_config_error(tmp_path, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NON_MATCHING_CONFIG))
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", str(bad), "--symbol", name, "--p", "2.0",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_curve_rejects_several_exponents(config_path, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", config_path, "--p", "1.5,2", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["selftest", "--p", "abc", "--n", "4", "--config", "missing.json"],
    ["verify", "--config", "missing.json"],
    ["curve", "--p", "1.5,2", "--n", "4"],
])
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _analyze(tmp_path, cfg, name, *extra):
    """Exit code and report text (None on failure) of analyze on cfg."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}-report.json"
    code = main(["analyze", "--config", str(path), "--out", str(out), *extra])
    return code, (out.read_text() if code == 0 else None)


def _with_tolerances(cfg, **tolerances):
    changed = copy.deepcopy(cfg)
    changed["tolerances"] = tolerances
    return changed


@pytest.mark.parametrize("override", [("--p", "abc"), ("--p", "0.5"), ("--n", "0"), ("--n", "4")],
                         ids=["p-abc", "p-0.5", "n-0", "n-4"])
def test_analyze_overrides_are_validated_like_the_config(tmp_path, override):
    # the same checks as p_values and finite_section_n: a config error, no report
    assert _analyze(tmp_path, QUARTER_CONFIG, "bad", *override) == (2, None)


def _edited(cfg, path, value):
    """A copy of cfg with the field at the key path set to value."""
    changed = copy.deepcopy(cfg)
    node = changed
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return changed


_A_FACTORS = ("symbols", "a", "factors")
_B_FACTORS = ("symbols", "b", "factors")


@pytest.mark.parametrize("cfg, where", [
    (_edited(QUARTER_CONFIG, (*_B_FACTORS, 1, "n"), 2.5), "symbols.b.factors[1].n"),
    (_edited(QUARTER_CONFIG, (*_B_FACTORS, 1, "n"), True), "symbols.b.factors[1].n"),
    (_edited(QUARTER_CONFIG, (*_B_FACTORS, 1, "n"), "3"), "symbols.b.factors[1].n"),
    (_edited(QUARTER_CONFIG, (*_A_FACTORS, 0, "re"), "abc"), "symbols.a.factors[0].re"),
    (_edited(QUARTER_CONFIG, (*_A_FACTORS, 0, "im"), math.nan), "symbols.a.factors[0].im"),
    (_edited(QUARTER_CONFIG, (*_A_FACTORS, 0, "im"), 10**400), "symbols.a.factors[0].im"),
    (_edited(QUARTER_CONFIG, (*_A_FACTORS, 1, "anchor_angle"), "x"),
     "symbols.a.factors[1].anchor_angle"),
    (_edited(HALF_PLANE_CONFIG, ("symbols", "b", "break_angles"), [math.pi, 0.0]), "symbols.b"),
    (_edited(HALF_PLANE_CONFIG, ("symbols", "b", "values"), [1.0]), "symbols.b"),
    (_edited(QUARTER_CONFIG, ("tolerances",), {"winding": True}), "tolerances.winding"),
    (_edited(QUARTER_CONFIG, ("tolerances",), [1e-9]), "tolerances"),
], ids=["n-float", "n-bool", "n-string", "re-string", "im-nan", "im-huge", "anchor-string",
        "breaks-unsorted", "values-short", "tolerance-bool", "tolerances-list"])
def test_analyze_rejects_malformed_numbers_as_config_errors(tmp_path, capsys, cfg, where):
    assert _analyze(tmp_path, cfg, "bad") == (2, None)
    assert not (tmp_path / "bad-report.json").exists()
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("name, cfg", [("analyze_quarter", QUARTER_CONFIG),
                                       ("analyze_half_plane", HALF_PLANE_CONFIG)])
def test_analyze_report_matches_golden_file(tmp_path, name, cfg):
    code, text = _analyze(tmp_path, cfg, name)
    assert code == 0
    assert text.encode() == _golden(f"{name}.json")


def _twice(op, expr):
    return {"op": op, "child": {"op": op, "child": expr}}


def test_double_tilde_and_conjugate_analyze_like_the_plain_config(tmp_path):
    # decoding rewrites conjugate(conjugate(x)) and tilde(tilde(x)) back to x
    arc, mono = QUARTER_CONFIG["symbols"]["b"]["factors"]
    cfg = _edited(QUARTER_CONFIG, _B_FACTORS, [_twice("conjugate", arc), _twice("tilde", mono)])
    code, text = _analyze(tmp_path, cfg, "twice")
    assert code == 0
    assert text.encode() == _golden("analyze_quarter.json")


# ---------------------------------------------------------------------------
# every tolerance of the config reaches the analysis
# ---------------------------------------------------------------------------


def test_winding_tolerance_reaches_curves_and_checks(tmp_path):
    assert _analyze(tmp_path, QUARTER_CONFIG, "default")[0] == 0
    # every curve and symbol check passes within 10 of the origin
    assert _analyze(tmp_path, _with_tolerances(QUARTER_CONFIG, winding=10.0), "w")[0] == 1


def test_invertibility_tolerance_reaches_matching_check(tmp_path):
    # |a| = |b| = 1 on the circle
    code, _ = _analyze(tmp_path, _with_tolerances(QUARTER_CONFIG, invertibility=10.0), "i")
    assert code == 1


def test_sv_threshold_reaches_kernel_formula(tmp_path):
    code, text = _analyze(tmp_path, SHIFT_MINUS_CONFIG, "default", "--n", "16")
    assert code == 0
    assert json.loads(text)["reports"][0]["kernel_dim"] == 0  # compression rank 1
    # a threshold above every singular value leaves rank 0: joint kernel 1
    code, changed = _analyze(tmp_path, _with_tolerances(SHIFT_MINUS_CONFIG, sv_threshold=1e3),
                             "sv", "--n", "16")
    assert code == 0
    assert "joint kernel dimension of the pair = 1" in changed


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quadrature_tolerance_reaches_sections(tmp_path):
    code, text = _analyze(tmp_path, QUADRATURE_CONFIG, "default")
    assert code == 0
    assert "taken from finite sections of size 16" in text
    # no quadrature certifies an error below 1e-300
    tight = _with_tolerances(QUADRATURE_CONFIG, quadrature=1e-300)
    assert _analyze(tmp_path, tight, "q")[0] == 1
