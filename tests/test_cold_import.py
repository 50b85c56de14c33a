"""scipy is loaded on first use: a fresh ``import th_invert`` loads none of it,
and the first call of each path that needs it still works in a fresh process."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

import th_invert
from th_invert import sections
from th_invert.catalog import quarter_twist, quarter_twist_pair
from th_invert.defaults import SV_THRESHOLD
from th_invert.sections import kernel_dimension, kernel_formula_eval, toeplitz_matrix
from th_invert.symbols import Monomial, fourier_coefficient
from th_invert.wiener_hopf import c0_coefficient, c0_quadrature

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(th_invert.__file__)))


def run_fresh(body: str):
    """Run ``body`` in a fresh interpreter after ``import th_invert`` and
    ``import th_invert.cli``, which must load no scipy module; returns the
    JSON that ``body`` prints, and the scipy modules loaded by then."""
    script = textwrap.dedent("""
        import json, sys
        import th_invert, th_invert.cli

        def scipy_modules():
            return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

        assert not scipy_modules(), scipy_modules()
    """) + textwrap.dedent(body) + "\nprint(json.dumps(scipy_modules()))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result, loaded = proc.stdout.splitlines()[-2:]
    return json.loads(result), json.loads(loaded)


def test_importing_the_library_and_cli_loads_no_scipy():
    _, loaded = run_fresh("print(json.dumps(None))")
    assert loaded == []


def test_gram_certificate_in_a_fresh_process():
    entries = toeplitz_matrix(quarter_twist(), 64).entries
    assert sections._certified_full_rank(entries, 2 * SV_THRESHOLD)
    result, loaded = run_fresh("""
        from th_invert.catalog import quarter_twist
        from th_invert.sections import kernel_dimension, toeplitz_matrix
        print(json.dumps(kernel_dimension(toeplitz_matrix(quarter_twist(), 64).entries)))
    """)
    assert result == kernel_dimension(entries) == 0
    assert "scipy.linalg.lapack" in loaded


def test_one_dropped_value_in_a_fresh_process():
    entries = toeplitz_matrix(Monomial(1), 8).entries  # one value dropped: the top edge
    s = np.linalg.svd(entries, compute_uv=False)
    assert sections._one_dropped_dimension(entries, s, SV_THRESHOLD) is not None
    result, loaded = run_fresh("""
        from th_invert.symbols import Monomial
        from th_invert.sections import kernel_dimension, toeplitz_matrix
        print(json.dumps(kernel_dimension(toeplitz_matrix(Monomial(1), 8).entries)))
    """)
    assert result == kernel_dimension(entries)
    assert "scipy.linalg.lapack" in loaded


def test_kernel_formula_in_a_fresh_process():
    res = kernel_formula_eval(quarter_twist_pair(-1), 1, -1, n=16)  # kappas at p = 1.5
    result, loaded = run_fresh("""
        from th_invert.catalog import quarter_twist_pair
        from th_invert.sections import kernel_formula_eval
        res = kernel_formula_eval(quarter_twist_pair(-1), 1, -1, n=16)
        z = complex(res.reduced_matrix[0, 0])
        print(json.dumps([res.dimension, res.rank, z.real, z.imag]))
    """)
    z = complex(res.reduced_matrix[0, 0])
    assert result == [res.dimension, res.rank, z.real, z.imag]
    assert "scipy.linalg" in loaded


def test_quadrature_coefficient_in_a_fresh_process():
    c = fourier_coefficient(quarter_twist(), 3, method="quadrature")
    result, loaded = run_fresh("""
        from th_invert.catalog import quarter_twist
        from th_invert.symbols import Monomial, fourier_coefficient
        c = fourier_coefficient(quarter_twist(), 3, method="quadrature")
        print(json.dumps([c.value.real, c.value.imag, c.provenance]))
    """)
    assert result == [c.value.real, c.value.imag, c.provenance]
    assert c.provenance == "quadrature"
    assert "scipy.integrate" in loaded


def test_wiener_hopf_constants_in_a_fresh_process():
    result, loaded = run_fresh("""
        from th_invert.wiener_hopf import c0_coefficient, c0_quadrature
        value, half_width = c0_coefficient(0.25, 1e-10)
        print(json.dumps([[value.real, value.imag, half_width], list(c0_quadrature(0.25))]))
    """)
    value, half_width = c0_coefficient(0.25, 1e-10)
    assert result == [[value.real, value.imag, half_width], list(c0_quadrature(0.25))]
    assert {"scipy.special", "scipy.integrate"} <= set(loaded)
