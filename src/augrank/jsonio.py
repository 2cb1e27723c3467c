"""Deterministic JSON output.

Floats are written in Python's shortest round-trip form (``repr``), which
brings IEEE doubles back bit-exactly; NaN and infinities raise ``ValueError``;
dict keys keep insertion order.  Identical inputs always produce identical
bytes, so reruns with the same configuration diff clean.
"""

from __future__ import annotations

import json
import math
from typing import Any


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def dump_file(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per open bracket
            raise ValueError("JSON nested too deeply to load") from None


def loads(text: str) -> Any:
    return json.loads(text)


def integer(x: Any, field: str) -> int:
    """A JSON integer field; a float, bool or string raises instead of truncating."""
    if type(x) is not int:
        raise ValueError(f"{field} must be an integer, got {x!r}")
    return x


def number(x: Any, field: str) -> float:
    """A finite JSON number field as a float; a bool, string, NaN or infinity raises."""
    if type(x) not in (int, float):
        raise ValueError(f"{field} must be a number, got {x!r}")
    try:
        out = float(x)
    except OverflowError:  # an integer past the largest double
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{field} is not finite: {out!r}")
    return out
