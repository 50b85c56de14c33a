"""Outputs pinned byte for byte: the reports of the worked examples and the
route cross-checks of seeded random pairs.

A change that means to keep every verdict and every printed number must
leave ``data/pinned_outputs.txt`` as it is.  After a deliberate change of
outputs, regenerate it with

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/data/pinned_outputs.txt
"""

import json
import os
import warnings

import numpy as np

from th_invert import catalog
from th_invert.analyzer import classify_with_probing, cross_check
from th_invert.sampling import random_matching_pair

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "pinned_outputs.txt")

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


def test_outputs_match_the_pinned_file():
    with open(DATA, "rb") as fh:
        assert pinned_outputs().encode() == fh.read()


if __name__ == "__main__":
    print(pinned_outputs(), end="")
