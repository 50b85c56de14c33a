import copy
import csv
import json
import math
import os

import pytest

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

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


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


def test_verify_command_passes(tmp_path):
    out = str(tmp_path / "verify.txt")
    assert main(["verify", "--out", out, "--seed", "0"]) == 0
    text = open(out).read()
    assert "FAIL" not in text


def test_selftest_command_passes(tmp_path):
    out = str(tmp_path / "selftest.txt")
    assert main(["selftest", "--out", out]) == 0
    assert "FAIL" not in open(out).read()


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
    bad.write_text(json.dumps({
        "symbols": {"a": {"op": "monomial", "n": 1},
                    "b": {"op": "sum", "terms": [{"op": "const", "re": 2.0},
                                                 {"op": "monomial", "n": 1}]}},
        "p_values": [2.0],
    }))
    # (t, 2 + t) violates the matching condition: the command fails without writing
    assert main(["analyze", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


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


@pytest.mark.parametrize("name, cfg", [("analyze_quarter", QUARTER_CONFIG),
                                       ("analyze_half_plane", HALF_PLANE_CONFIG)])
def test_analyze_report_matches_golden_file(tmp_path, name, cfg):
    code, text = _analyze(tmp_path, cfg, name)
    assert code == 0
    with open(os.path.join(DATA, f"{name}.json"), "rb") as fh:
        assert text.encode() == fh.read()


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
