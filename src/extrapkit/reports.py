"""Schema-versioned report objects and JSON/CSV serialization helpers.

Everything the CLI prints goes through one envelope so downstream tooling
can rely on a single shape:

    {
      "schema": "extrapkit-report/1",
      "command": "...",
      "feasible": true/false,
      "seed": ... | null,
      "grid": {...} | null,
      "certified": [clause identifiers],
      "caveats": [...],
      "reason": null | "...",
      "data": {...}
    }

Exponents and rationals serialize as exact strings ("3/2", "inf"); finite
floats pass through as JSON numbers, non-finite ones as the strings "nan",
"inf" and "-inf" (JSON has no literal for them).  Enums serialize as their
value; a dataclass through its `as_dict` when it has one (to flatten or
omit fields), otherwise through `dataclasses.asdict`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from fractions import Fraction
from typing import Any

from .exponents import Exponent, exp_str

SCHEMA = "extrapkit-report/1"

__all__ = ["SCHEMA", "envelope", "to_jsonable", "dumps"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert package values to JSON-encodable ones."""
    if type(obj).__module__ == "numpy":  # scalars and arrays, without importing numpy
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, (Exponent, Fraction)):
        return exp_str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "as_dict"):
        return to_jsonable(obj.as_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    return obj


def envelope(
    command: str,
    *,
    feasible: bool,
    data: Any,
    certified: list | None = None,
    caveats: list | None = None,
    reason: str | None = None,
    seed: int | None = None,
    grid: dict | None = None,
) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "feasible": feasible,
        "seed": seed,
        "grid": grid,
        "certified": to_jsonable(certified or []),
        "caveats": to_jsonable(caveats or []),
        "reason": reason,
        "data": to_jsonable(data),
    }


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False)
