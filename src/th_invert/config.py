"""Config ingestion: the JSON expression grammar and analysis settings.

The grammar mirrors the public symbol primitives one-to-one; angles are in
radians and complex numbers are objects {"re": x, "im": y} (bare reals are
accepted where convenient).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .defaults import (
    INVERTIBILITY_TOL,
    MATCHING_TOL,
    QUADRATURE_TOL,
    SV_THRESHOLD,
    WINDING_MIN_MODULUS,
)
from .errors import ParseError, PreconditionViolation, ValidationError
from .symbols import (
    CirclePoint,
    Conjugate,
    Const,
    HalfCircleExtension,
    Inverse,
    Monomial,
    PCSymbol,
    PiecewiseConst,
    PowerArc,
    Product,
    Sum,
    Tilde,
)


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of one analysis, as named in the config.

    matching: grid residual of a*~a - b*~b accepted as matching;
    invertibility: minimum grid modulus of a and b;
    winding: minimum modulus of every symbol curve and symbol check;
    sv_threshold: singular values below it count toward a kernel;
    quadrature: error target of quadrature Fourier coefficients in sections.
    """

    matching: float = MATCHING_TOL
    invertibility: float = INVERTIBILITY_TOL
    winding: float = WINDING_MIN_MODULUS
    sv_threshold: float = SV_THRESHOLD
    quadrature: float = QUADRATURE_TOL


def _is_real(obj) -> bool:
    """A finite JSON number; booleans and strings are not numbers."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        return False
    try:
        return math.isfinite(obj)
    except OverflowError:  # an integer beyond the float range
        return False


def _real(obj, where: str) -> float:
    if not _is_real(obj):
        raise ValidationError(f"{where}: expected a finite real number, got {obj!r}")
    return float(obj)


def _list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{where}: expected a list, got {obj!r}")
    return obj


def _complex_from(obj, where: str) -> complex:
    if _is_real(obj):
        return complex(obj)
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        return complex(_real(obj.get("re", 0.0), f"{where}.re"),
                       _real(obj.get("im", 0.0), f"{where}.im"))
    raise ValidationError(f"{where}: expected a number or {{re, im}} object, got {obj!r}")


def _complex_to(z: complex):
    return {"re": z.real, "im": z.imag}


def decode_symbol(obj, where: str = "symbol") -> PCSymbol:
    """Expression grammar -> symbol tree.

    Every malformed node, including one that a symbol constructor refuses,
    raises ValidationError naming its path.
    """
    try:
        return _decode_node(obj, where)
    except PreconditionViolation as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _decode_node(obj, where: str) -> PCSymbol:
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValidationError(f"{where}: expected an object with an 'op' field")
    op = obj["op"]

    def need(*fields):
        extra = set(obj) - {"op", *fields}
        if extra:
            raise ValidationError(f"{where}: unknown fields {sorted(extra)} for op '{op}'")
        for f in fields:
            if f not in obj:
                raise ValidationError(f"{where}: op '{op}' requires field '{f}'")

    if op == "const":
        extra = set(obj) - {"op", "re", "im"}
        if extra:
            raise ValidationError(f"{where}: unknown fields {sorted(extra)} for op 'const'")
        return Const(_complex_from({k: obj[k] for k in ("re", "im") if k in obj}, where))
    if op == "monomial":
        need("n")
        n = obj["n"]
        if not (isinstance(n, int) and _is_real(n)):
            raise ValidationError(f"{where}.n: expected an integer, got {n!r}")
        return Monomial(n)
    if op == "power_arc":
        extra = set(obj) - {"op", "beta", "anchor_angle"}
        if extra:
            raise ValidationError(f"{where}: unknown fields {sorted(extra)} for op 'power_arc'")
        beta = _complex_from(obj["beta"], f"{where}.beta") if "beta" in obj else None
        if beta is None:
            raise ValidationError(f"{where}: op 'power_arc' requires field 'beta'")
        anchor = CirclePoint(_real(obj.get("anchor_angle", 0.0), f"{where}.anchor_angle"))
        return PowerArc(beta, anchor)
    if op == "piecewise_const":
        need("break_angles", "values")
        breaks = tuple(CirclePoint(_real(a, f"{where}.break_angles[{i}]"))
                       for i, a in enumerate(_list(obj["break_angles"], f"{where}.break_angles")))
        values = tuple(_complex_from(v, f"{where}.values[{i}]")
                       for i, v in enumerate(_list(obj["values"], f"{where}.values")))
        return PiecewiseConst(breaks, values)
    if op == "half_circle_extension":
        need("g0")
        return HalfCircleExtension(decode_symbol(obj["g0"], f"{where}.g0"))
    if op == "sum":
        need("terms")
        return Sum(tuple(decode_symbol(t, f"{where}.terms[{i}]")
                         for i, t in enumerate(_list(obj["terms"], f"{where}.terms"))))
    if op == "product":
        need("factors")
        return Product(tuple(decode_symbol(t, f"{where}.factors[{i}]")
                             for i, t in enumerate(_list(obj["factors"], f"{where}.factors"))))
    if op in ("inverse", "conjugate", "tilde"):
        need("child")
        child = decode_symbol(obj["child"], f"{where}.child")
        return {"inverse": Inverse, "conjugate": Conjugate, "tilde": Tilde}[op](child)
    raise ValidationError(f"{where}: unknown op '{op}'")


def encode_symbol(symbol: PCSymbol) -> dict:
    """Symbol tree -> expression grammar (public primitives only)."""
    if isinstance(symbol, Const):
        return {"op": "const", **_complex_to(symbol.value)}
    if isinstance(symbol, Monomial):
        return {"op": "monomial", "n": symbol.n}
    if isinstance(symbol, PowerArc):
        return {"op": "power_arc", "beta": _complex_to(symbol.beta),
                "anchor_angle": symbol.anchor.angle}
    if isinstance(symbol, PiecewiseConst):
        return {"op": "piecewise_const",
                "break_angles": [b.angle for b in symbol.breaks],
                "values": [_complex_to(v) for v in symbol.values]}
    if isinstance(symbol, HalfCircleExtension):
        return {"op": "half_circle_extension", "g0": encode_symbol(symbol.g0)}
    if isinstance(symbol, Sum):
        return {"op": "sum", "terms": [encode_symbol(t) for t in symbol.terms]}
    if isinstance(symbol, Product):
        return {"op": "product", "factors": [encode_symbol(f) for f in symbol.factors]}
    if isinstance(symbol, Inverse):
        return {"op": "inverse", "child": encode_symbol(symbol.child)}
    if isinstance(symbol, Conjugate):
        return {"op": "conjugate", "child": encode_symbol(symbol.child)}
    if isinstance(symbol, Tilde):
        return {"op": "tilde", "child": encode_symbol(symbol.child)}
    raise ValidationError(f"{type(symbol).__name__} has no config-grammar encoding")


@dataclass
class AnalysisConfig:
    symbols: dict
    p_values: list
    tolerances: Tolerances = Tolerances()
    finite_section_n: int = 256
    outputs: dict = field(default_factory=dict)

    def symbol(self, name: str) -> PCSymbol:
        if name not in self.symbols:
            raise ValidationError(f"config defines no symbol named '{name}'")
        return self.symbols[name]


def check_exponent(p: float, where: str = "p_values") -> float:
    """An exponent of H^p, which must lie in the open interval (1, inf)."""
    if not (1.0 < float(p) < math.inf):
        raise ValidationError(f"{where}: exponent {p} outside the open interval (1, inf)")
    return float(p)


def check_section_size(n: int, where: str = "finite_section_n") -> int:
    """A finite-section size, which must be an integer of at least 16."""
    if not isinstance(n, int) or n < 16:
        raise ValidationError(f"{where} must be an integer >= 16")
    return n


_TOP_LEVEL_FIELDS = {"symbols", "p_values", "tolerances", "finite_section_n", "outputs"}


def parse_config(text: str) -> AnalysisConfig:
    """Parse and fully validate a config document; unknown fields rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object")
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ValidationError(f"unknown top-level fields: {sorted(unknown)}")
    if "symbols" not in raw or not isinstance(raw["symbols"], dict) or not raw["symbols"]:
        raise ValidationError("field 'symbols' must be a nonempty object")

    symbols = {name: decode_symbol(expr, f"symbols.{name}")
               for name, expr in raw["symbols"].items()}

    p_values = raw.get("p_values", [])
    if not isinstance(p_values, list) or not all(_is_real(p) for p in p_values):
        raise ValidationError("field 'p_values' must be a list of numbers")
    p_values = [check_exponent(p) for p in p_values]

    raw_tolerances = raw.get("tolerances", {})
    if not isinstance(raw_tolerances, dict):
        raise ValidationError("tolerances must map tolerance names to numbers")
    tolerances = {}
    for key, val in raw_tolerances.items():
        if key not in {f.name for f in fields(Tolerances)}:
            raise ValidationError(f"tolerances: unknown tolerance '{key}'")
        if not _is_real(val) or val <= 0:
            raise ValidationError(f"tolerances.{key} must be a positive number")
        tolerances[key] = float(val)

    n = check_section_size(raw.get("finite_section_n", 256))

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in outputs.items()):
        raise ValidationError("outputs must map names to path strings")

    return AnalysisConfig(symbols, p_values, Tolerances(**tolerances), n, outputs)
