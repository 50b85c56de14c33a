"""Outputs pinned byte for byte: the reports of the worked examples and the
route cross-checks of seeded random pairs, and a sha256 digest of every
sampled curve that they build.

A change that means to keep every verdict and every printed number must
leave ``data/pinned_outputs.txt`` as it is; one that means to keep every
curve bit for bit must leave ``data/curve_digests.txt`` as it is too.
After a deliberate change of outputs, regenerate them with

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/data/pinned_outputs.txt
    PYTHONPATH=src python tests/test_pinned_outputs.py curves > tests/data/curve_digests.txt
"""

import hashlib
import json
import os
import sys
import warnings

import numpy as np
import pytest

from th_invert import calculus, catalog
from th_invert.analyzer import classify_with_probing, cross_check
from th_invert.sampling import random_matching_pair

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "pinned_outputs.txt")
CURVES = os.path.join(HERE, "data", "curve_digests.txt")

CATALOG_PAIRS = (
    ("quarter_twist_pair(1)", lambda: catalog.quarter_twist_pair(1)),
    ("quarter_twist_pair(-1)", lambda: catalog.quarter_twist_pair(-1)),
    ("quarter_twist_pair(3)", lambda: catalog.quarter_twist_pair(3)),
    ("half_plane_hankel_pair()", catalog.half_plane_hankel_pair),
    ("right_half_pair()", catalog.right_half_pair),
)
CATALOG_P = (1.5, 2.0, 3.0, 4 / 3, 4.0)
RANDOM_P = (1.45, 1.7, 2.6, 3.3)
RANDOM_PAIRS = 12
WITH_SECTIONS = 3  # the first pairs also count section kernels


def pinned_outputs() -> str:
    """One line per output: classify_with_probing(...).to_dict() of every
    catalog pair at every exponent, then the cross_check repr of seeded
    random matching pairs."""
    lines = []
    for name, make in CATALOG_PAIRS:
        for p in CATALOG_P:
            doc = classify_with_probing(make(), p).to_dict()
            lines.append(f"{name} p={p!r}: {json.dumps(doc, sort_keys=True)}")
    rng = np.random.default_rng(20130611)
    for k in range(RANDOM_PAIRS):
        p = RANDOM_P[k % len(RANDOM_P)]
        pair = random_matching_pair(rng, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check = cross_check(pair, p, with_sections=k < WITH_SECTIONS)
        lines.append(f"random pair {k} p={p!r}: {check!r}")
    return "\n".join(lines) + "\n"


# the public curve builders; the index routes call them by these names
BUILDERS = ("toeplitz_symbol_curve", "matrix_symbol_curve", "th_pc_symbol_curve")


def curve_digest(curve) -> str:
    """sha256 of a curve's seg_ids, params, values and min_modulus."""
    digest = hashlib.sha256()
    for x in (curve.seg_ids.astype(np.int64), curve.params, curve.values,
              np.float64(curve.min_modulus)):
        digest.update(np.ascontiguousarray(x).tobytes())
    return digest.hexdigest()


def outputs_and_curves() -> tuple[str, str]:
    """pinned_outputs(), and one line "<builder> <digest>" per curve that the
    public curve builders return while it runs, in order."""
    lines = []
    saved = {name: getattr(calculus, name) for name in BUILDERS}

    def recorded(name, build):
        def wrapped(*args, **kwargs):
            curve = build(*args, **kwargs)
            lines.append(f"{name} {curve_digest(curve)}")
            return curve
        return wrapped

    try:
        for name, build in saved.items():
            setattr(calculus, name, recorded(name, build))
        outputs = pinned_outputs()
    finally:
        for name, build in saved.items():
            setattr(calculus, name, build)
    return outputs, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def outputs():
    return outputs_and_curves()


def test_outputs_match_the_pinned_file(outputs):
    with open(DATA, "rb") as fh:
        assert outputs[0].encode() == fh.read()


def test_curves_match_the_pinned_digests(outputs):
    with open(CURVES, "rb") as fh:
        assert outputs[1].encode() == fh.read()


if __name__ == "__main__":
    print(outputs_and_curves()[sys.argv[1:] == ["curves"]], end="")
