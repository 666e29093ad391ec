"""Check reports with a stable JSON shape.

Every universally quantified check produces one report:
{"condition", "pass", "witness", "quantifier_space"}, plus sampling
metadata when a scan ran in seeded-sample mode instead of exhaustively.
Serialization is deterministic (sorted keys, fixed separators) so that
repeated runs emit byte-identical bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CheckReport:
    """One check's verdict.  In sampled mode `seed` fixes the draws and
    `coverage` is budget/total: draws with replacement over the size of
    the quantifier space, not the fraction of distinct elements checked."""

    condition: str
    ok: bool
    witness: object = None
    quantifier_space: dict = field(default_factory=dict)
    mode: str = "exhaustive"
    seed: int | None = None
    coverage: float | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "pass": self.ok,
            "witness": self.witness,
            "quantifier_space": self.quantifier_space,
        }
        if self.mode != "exhaustive":
            out["mode"] = self.mode
            out["seed"] = self.seed
            out["coverage"] = self.coverage
        return out


# rows formatted per `%` call: bounds the template and argument tuple
_BLOCK_ROWS = 1 << 14


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte,
    where a 2-D integer ndarray stands for its `tolist()`.

    With `indent` set the stdlib falls back to its pure-Python encoder,
    which builds one string per token; a 390,625-row table makes millions.
    This writer walks dicts itself and formats each integer table, which
    must come as a non-empty 2-D integer ndarray, from one row template,
    a block of rows per `%` call.  Every other value, list tables
    included, goes to the stdlib and is re-indented to its depth, which
    is exact because JSON text never holds a raw newline inside a string;
    any other ndarray (bool, float, empty, not 2-D) is refused there with
    TypeError.
    """
    parts: list[str] = []
    _write(obj, "", parts)
    parts.append("\n")
    return "".join(parts)


def _write(obj, pad: str, parts: list[str]) -> None:
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        inner = pad + "  "
        parts.append("{")
        sep = "\n"
        for key in sorted(obj):
            parts.append(f"{sep}{inner}{json.dumps(key)}: ")
            _write(obj[key], inner, parts)
            sep = ",\n"
        parts.append(f"\n{pad}}}")
    elif type(obj) is np.ndarray and obj.ndim == 2 and obj.size and obj.dtype.kind in "iu":
        inner, cell = pad + "  ", pad + "    "
        row = f"{inner}[\n{cell}" + f",\n{cell}".join(["%d"] * obj.shape[1]) + f"\n{inner}]"
        parts.append("[\n")
        for lo in range(0, len(obj), _BLOCK_ROWS):
            block = obj[lo:lo + _BLOCK_ROWS]
            if lo:
                parts.append(",\n")
            parts.append(",\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
        parts.append(f"\n{pad}]")
    else:
        parts.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad))


def coords_json(ring, coords):
    return [ring.domain.fmt(x) for x in coords]
