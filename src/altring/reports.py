"""Check reports with a stable JSON shape.

Every universally quantified check produces one report:
{"condition", "pass", "witness", "quantifier_space"}, plus sampling
metadata when a scan ran in seeded-sample mode instead of exhaustively.
Serialization is deterministic (sorted keys, fixed separators) so that
repeated runs emit byte-identical bundles.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field


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
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte.

    With `indent` set the stdlib falls back to its pure-Python encoder,
    which builds one string per token; a 390,625-row table makes millions.
    This writer walks dicts itself and formats each integer table (a
    non-empty list of equal-length, non-empty lists of plain ints, bools
    excluded) from one row template.  Every other value goes to the
    stdlib and is re-indented to its depth, which is exact because JSON
    text never holds a raw newline inside a string.
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
    elif _is_int_table(obj):
        inner, cell = pad + "  ", pad + "    "
        width = len(obj[0])
        row = f"{inner}[\n{cell}" + f",\n{cell}".join(["%d"] * width) + f"\n{inner}]"
        parts.append("[\n")
        for lo in range(0, len(obj), _BLOCK_ROWS):
            block = obj[lo:lo + _BLOCK_ROWS]
            if lo:
                parts.append(",\n")
            parts.append(",\n".join([row] * len(block)) % tuple(itertools.chain.from_iterable(block)))
        parts.append(f"\n{pad}]")
    else:
        parts.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad))


def _is_int_table(obj) -> bool:
    if type(obj) is not list or not obj or type(obj[0]) is not list or not obj[0]:
        return False
    width = len(obj[0])
    return all(type(r) is list and len(r) == width for r in obj) and \
        set(map(type, itertools.chain.from_iterable(obj))) == {int}


def coords_json(ring, coords):
    return [ring.domain.fmt(x) for x in coords]
