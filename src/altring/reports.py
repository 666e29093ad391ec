"""Check reports with a stable JSON shape.

Every universally quantified check produces one report:
{"condition", "pass", "witness", "quantifier_space"}, plus sampling
metadata when a scan ran in seeded-sample mode instead of exhaustively.
A scan that ends in a boolean failure mask reports through
`first_failure`, which quotes the lowest failing index.
Serialization is deterministic (sorted keys, fixed separators) so that
repeated runs emit byte-identical bundles; `dumps` streams it to a binary
handle a bounded block at a time, never holding the whole text.
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


def first_failure(condition: str, bad, quote, space: dict) -> CheckReport:
    """The report of a scan whose failures are the set entries of the
    boolean mask `bad`: it passes when none is set, and otherwise its
    witness is quote(k) for the lowest failing flat index k (C order), so
    a failing report always carries a witness."""
    hits = np.flatnonzero(bad)
    return CheckReport(condition, not len(hits), quote(int(hits[0])) if len(hits) else None, space)


# rows per write: bounds every write and the reusable digit buffer
_BLOCK_ROWS = 1 << 14
_ZERO = np.uint8(ord("0"))


def dumps(obj, fh) -> None:
    """Write `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for
    byte and UTF-8 encoded, to the binary handle `fh`, where a 2-D integer
    ndarray stands for its `tolist()`.

    With `indent` set the stdlib falls back to its pure-Python encoder,
    which builds one string per token; a 390,625-row table makes millions.
    This writer walks dicts itself and writes each integer table, which
    must come as a non-empty 2-D integer ndarray, one block of
    `_BLOCK_ROWS` rows per write, so no copy of the whole output is ever
    held.  A table whose entries all lie in 0..9 (every table reduced mod
    p <= 10) has one byte layout per row: a block is a reused uint8
    buffer of row templates with the digit columns set.  Any other table
    is formatted from one row template, a block of rows per `%` call.
    Every other value, list tables included, goes to the stdlib and is
    re-indented to its depth, which is exact because JSON text never
    holds a raw newline inside a string; any other ndarray (bool, float,
    empty, not 2-D) is refused there with TypeError, possibly after part
    of the output was written.
    """
    _write(obj, "", fh.write)
    fh.write(b"\n")


def _write(obj, pad: str, write) -> None:
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(obj):
            write(f"{sep}{inner}{json.dumps(key)}: ".encode())
            _write(obj[key], inner, write)
            sep = ",\n"
        write(f"\n{pad}}}".encode())
    elif type(obj) is np.ndarray and obj.ndim == 2 and obj.size and obj.dtype.kind in "iu":
        _write_table(obj, pad, write)
    else:
        write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad).encode())


def _write_table(table: np.ndarray, pad: str, write) -> None:
    inner, cell = pad + "  ", pad + "    "
    n = table.shape[1]
    row = f"{inner}[\n{cell}" + f",\n{cell}".join(["%d"] * n) + f"\n{inner}],\n"
    digits = None
    if table.min() >= 0 and table.max() <= 9:
        template = np.frombuffer((row % ((0,) * n)).encode(), np.uint8)
        buf = np.empty((min(len(table), _BLOCK_ROWS), len(template)), np.uint8)
        buf[:] = template
        # digit j of a row sits at first + j * step
        first, step = len(inner) + 2 + len(cell), len(cell) + 3
        digits = buf[:, first:first + n * step:step]
    write(b"[\n")
    for lo in range(0, len(table), _BLOCK_ROWS):
        block = table[lo:lo + _BLOCK_ROWS]
        if digits is None:
            data = memoryview((row * len(block) % tuple(block.ravel().tolist())).encode())
        else:
            np.add(block.astype(np.uint8), _ZERO, out=digits[:len(block)])
            data = memoryview(buf[:len(block)]).cast("B")
        # the last row takes no separator
        write(data[:-2] if lo + _BLOCK_ROWS >= len(table) else data)
    write(f"\n{pad}]".encode())


def coords_json(ring, coords):
    return [ring.domain.fmt(x) for x in coords]
