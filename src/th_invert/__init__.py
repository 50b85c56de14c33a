"""Fredholm theory, indices and one-sided invertibility of Toeplitz-plus-Hankel
operators T(a) + H(b) on Hardy spaces H^p, for piecewise continuous generating
functions, cross-validated against dense finite sections.

scipy is imported inside the functions that call it, so importing the
package loads numpy and no scipy module (tests/test_cold_import.py)."""

from .analyzer import (
    Analysis,
    FredholmReport,
    classify,
    classify_with_probing,
    cross_check,
    probe_limit_index,
)
from .calculus import (
    HardyExponent,
    arc,
    th_fredholm_check,
    th_index,
    th_symbol,
    toeplitz_index,
    toeplitz_symbol_curve,
    weight_functions,
    winding,
)
from .matching import (
    MatchingPair,
    build_u_matrix,
    build_u_matrix_general,
    is_matching_pair,
    make_matching_pair,
    pair_product,
)
from .sections import (
    apply_operator,
    block_assembly,
    hankel_matrix,
    kernel_dimension,
    kernel_formula_eval,
    numerical_kernel,
    toeplitz_matrix,
    verify_product_identities,
)
from .config import Tolerances
from .symbols import (
    CirclePoint,
    Const,
    Monomial,
    PCSymbol,
    PiecewiseConst,
    PowerArc,
    evaluate,
    extend_half_circle,
    fourier_coefficient,
    jump_set,
    tilde,
)
from .wiener_hopf import (
    binomial_streams,
    c0_coefficient,
    one_sided_inverse_plan,
    power_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
