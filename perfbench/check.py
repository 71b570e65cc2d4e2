"""Output checks against references stored per (workload, seed).

A reference holds the discrete fields of one op (as values or digests) and
its float fields.  Discrete fields must match exactly; floats must match
within REL_TOL relative (ABS_TOL absolute near zero).  CLI ``config``
blocks are dropped before anything is compared.  Identities (such as
``cost_bound_ok``) must hold whether or not a reference is stored.
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-15
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "references")


def _path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def _key(seed: int, smoke: bool) -> str:
    return f"smoke:{seed}" if smoke else str(seed)


def load_reference(workload: str, seed: int, smoke: bool) -> dict | None:
    try:
        with open(_path(workload)) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(_key(seed, smoke))


def as_reference(outputs) -> dict:
    return {"discrete": outputs.discrete, "floats": outputs.floats}


def store_reference(workload: str, seed: int, smoke: bool, outputs) -> None:
    try:
        with open(_path(workload)) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[_key(seed, smoke)] = as_reference(outputs)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_path(workload), "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _close(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b) and all(map(_close, a, b)))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def problems(outputs, reference: dict) -> list[str]:
    """Every way the op's outputs miss the reference or an identity."""
    found = [f"identity {k} is false"
             for k, ok in outputs.identities.items() if not ok]
    if set(outputs.discrete) != set(reference["discrete"]):
        found.append("discrete fields differ in name")
    if set(outputs.floats) != set(reference["floats"]):
        found.append("float fields differ in name")
    for k, want in reference["discrete"].items():
        if k in outputs.discrete and outputs.discrete[k] != want:
            found.append(f"{k} differs from the reference")
    for k, want in reference["floats"].items():
        got = outputs.floats.get(k)
        if got is not None and not _close(got, want):
            found.append(f"{k} = {got!r}, reference {want!r}")
    return found
