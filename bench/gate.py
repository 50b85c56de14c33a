"""Correctness gate of the benchmark: verdicts, invariants, pinned reference.

An op fails when it raises anything but a documented refusal, breaks an
invariant the library states, or -- on inputs whose digest was pinned --
returns verdict fields that differ from the pinned reference.
"""

from __future__ import annotations

import copy
import json
import os

from th_invert.analyzer import MINUS_KEY, PLUS_KEY, ConsistencyReport, FredholmReport
from th_invert.errors import NoFredholmNeighborhood, NoSpectralGap, NotFredholm

# NotFredholm covers NotFredholmAtP.
REFUSALS = (NotFredholm, NoSpectralGap, NoFredholmNeighborhood)

# Discrepancies that cross_check documents as expected outcomes rather than
# as broken invariants.
DOCUMENTED_DISCREPANCIES = (
    "finite-section kernel count inconclusive",
    "sections only see fast-decaying kernels",
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def verdict(result) -> dict:
    """The verdict fields of an op's result, as plain JSON data."""
    if isinstance(result, FredholmReport):
        return {
            "kappas": [result.kappa1, result.kappa2],
            "classification": result.classification,
            "operators": {
                key: [rec.fredholm, rec.index, rec.kernel_dim, rec.cokernel_dim,
                      rec.classification]
                for key, rec in sorted(result.operators.items())
            },
            "probing": None if result.probing is None
            else list(result.probing.limit_indices),
        }
    if isinstance(result, ConsistencyReport):
        return {
            "routes": [result.subordinated_sum, result.matrix_route, result.th_route],
            "section_kernel_dims": _listed(result.section_kernel_dims),
            "report_kernel_dims": _listed(result.report_kernel_dims),
        }
    raise TypeError(f"no verdict for {type(result).__name__}")


def discrepancies(result) -> list[str]:
    """Itemized discrepancies of a report; none for a refusal."""
    return list(getattr(result, "discrepancies", ()))


def refusal(exc: BaseException) -> dict:
    return {"refused": type(exc).__name__}


def _listed(dims):
    return None if dims is None else list(dims)


def invariant_errors(v: dict, found: list[str] = (), kappas: tuple = ()) -> list[str]:
    """Broken invariants of one verdict and its discrepancies ``found``;
    ``kappas`` are the generator's closed-form (kappa1, kappa2) when the
    inputs were built with them."""
    if "refused" in v:
        return []
    errors = []
    for text in found:
        if not any(doc in text for doc in DOCUMENTED_DISCREPANCIES):
            errors.append(f"discrepancy: {text}")
    if "operators" in v:
        for key, (fredholm, index, ker, coker, _) in v["operators"].items():
            if None not in (index, ker, coker) and index != ker - coker:
                errors.append(f"{key}: ind {index} != ker {ker} - coker {coker}")
        k1, k2 = v["kappas"]
        plus, minus = v["operators"][PLUS_KEY][1], v["operators"][MINUS_KEY][1]
        if None not in (k1, k2, plus, minus) and plus + minus != k1 + k2:
            errors.append(f"sum rule: {plus} + {minus} != {k1} + {k2}")
    if "routes" in v:
        if None in v["routes"] or len(set(v["routes"])) != 1:
            errors.append(f"index routes disagree or are missing: {v['routes']}")
        elif kappas and v["routes"][0] != sum(kappas):
            errors.append(f"routes give {v['routes'][0]}, closed form "
                          f"kappa1 + kappa2 = {sum(kappas)}")
    return errors


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def save_reference(reference: dict) -> None:
    """One verdict per line, so that a re-pin shows as a readable diff."""
    lines = ["{"]
    for i, (workload, entries) in enumerate(sorted(reference.items())):
        lines.append(f" {json.dumps(workload)}: {{")
        for j, (digest, entry) in enumerate(sorted(entries.items())):
            lines.append(f'  {json.dumps(digest)}: {{"seed": {entry["seed"]}, "verdicts": {{')
            verdicts = sorted(entry["verdicts"].items())
            for k, (name, v) in enumerate(verdicts):
                comma = "," if k + 1 < len(verdicts) else ""
                lines.append(f"   {json.dumps(name)}: {json.dumps(v, sort_keys=True)}{comma}")
            lines.append("  }}" + ("," if j + 1 < len(entries) else ""))
        lines.append(" }" + ("," if i + 1 < len(reference) else ""))
    lines.append("}")
    with open(REFERENCE_PATH, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def pinned_verdicts(reference: dict, workload: str, digest: str):
    """The pinned {case name: verdict} for these inputs, or None."""
    entry = reference.get(workload, {}).get(digest)
    return None if entry is None else entry["verdicts"]


def reference_errors(name: str, v: dict, pinned) -> list[str]:
    if pinned is None:
        return []
    want = pinned.get(name)
    if want is None:
        return [f"{name}: no pinned verdict for this case"]
    if v != want:
        return [f"{name}: verdict {json.dumps(v, sort_keys=True)} differs from the "
                f"pinned {json.dumps(want, sort_keys=True)}"]
    return []


def self_test(reference: dict) -> None:
    """Plant verdict changes and broken invariants; the gate must catch each.

    Raises RuntimeError, so that a gate that stopped catching changes stops
    the benchmark before it reports anything.
    """
    planted = 0
    for workload, entries in sorted(reference.items()):
        for digest, entry in sorted(entries.items()):
            for name, v in sorted(entry["verdicts"].items()):
                if reference_errors(name, v, entry["verdicts"]):
                    raise RuntimeError(f"gate rejects the pinned verdict of {name}")
                changed = copy.deepcopy(v)
                if "routes" in changed:
                    changed["routes"][0] = (changed["routes"][0] or 0) + 2
                elif "operators" in changed:
                    rec = changed["operators"][PLUS_KEY]
                    rec[4] = "planted"
                else:
                    changed["refused"] = "Planted"
                if not reference_errors(name, changed, entry["verdicts"]):
                    raise RuntimeError(f"gate misses a planted change of {name}")
                if "routes" in changed and not invariant_errors(changed):
                    raise RuntimeError(f"gate misses disagreeing routes in {name}")
                planted += 1
    broken = {"kappas": [1, -1], "classification": "invertible", "probing": None,
              "operators": {PLUS_KEY: [True, 1, 1, 1, "x"], MINUS_KEY: [True, 0, 0, 0, "x"]}}
    if len(invariant_errors(broken)) != 2:
        raise RuntimeError("gate misses a broken ind = ker - coker or sum rule")
    if not invariant_errors({"routes": [0, 0, 0]}, [], (1, 0)):
        raise RuntimeError("gate misses routes that contradict the closed form")
    if not invariant_errors({"routes": [0, 0, 0]}, ["index sum rule violated: 1 + 0 != 0"]):
        raise RuntimeError("gate misses an undocumented discrepancy")
    if invariant_errors({"routes": [0, 0, 0]}, ["finite-section kernel dims (0, 1) differ "
                                                "(sections only see fast-decaying kernels)"]):
        raise RuntimeError("gate fails a documented discrepancy")
    if planted == 0:
        raise RuntimeError("pinned reference is empty")
