"""Layering guard: only `enumeration.py` reads the digit table.  The map
verifiers and the decomposition combine element indices and masks through
the `Enumeration` index kernels, so their source (docstrings included)
names none of the digit-plane internals."""

import re
from pathlib import Path

import pytest

import altring

DIGIT_TABLE_INTERNALS = re.compile(
    r"\.digits\(|index_of_planes|\b(es|et)\.reduce\(|\.take\(|add_index|elim_dtype")


@pytest.mark.parametrize("module", ["maps.py", "decompose.py"])
def test_module_reads_no_digit_table(module):
    source = (Path(altring.__file__).parent / module).read_text(encoding="utf-8")
    hits = [f"{n}: {line.strip()}" for n, line in enumerate(source.splitlines(), 1)
            if DIGIT_TABLE_INTERNALS.search(line)]
    assert hits == []
