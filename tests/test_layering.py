"""Layering guards.  Only `enumeration.py` reads the digit table: the map
verifiers and the decomposition combine element indices and masks through
the `Enumeration` index kernels, so their source (docstrings included)
names none of the digit-plane internals.  Only `enumeration.py` applies
the evaluation budget, bound once per Enumeration."""

import inspect
import re
from pathlib import Path

import pytest

import altring
from altring import MapTable, Subspace, build_map
from altring.enumeration import Enumeration

DIGIT_TABLE_INTERNALS = re.compile(
    r"\.digits\(|index_of_planes|\b(es|et)\.reduce\(|\.take\(|add_index|elim_dtype")


@pytest.mark.parametrize("module", ["maps.py", "decompose.py"])
def test_module_reads_no_digit_table(module):
    source = (Path(altring.__file__).parent / module).read_text(encoding="utf-8")
    hits = [f"{n}: {line.strip()}" for n, line in enumerate(source.splitlines(), 1)
            if DIGIT_TABLE_INTERNALS.search(line)]
    assert hits == []


@pytest.mark.parametrize("cls", [Enumeration, Subspace, MapTable], ids=lambda c: c.__name__)
def test_no_public_method_takes_a_budget(cls):
    """The budget is bound once, in `Enumeration.of(ring, budget)`, which
    requires one; no kernel, subspace or map method takes one."""
    methods = [getattr(cls, name) for name in vars(cls)
               if not name.startswith("_") and name != "of" and callable(getattr(cls, name))]
    assert methods and [fn.__name__ for fn in methods
                        if "budget" in inspect.signature(fn).parameters] == []
    if cls is Enumeration:
        assert inspect.signature(Enumeration.of).parameters["budget"].default \
            is inspect.Parameter.empty


def test_map_table_is_its_image_index(m2):
    """One representation, built with the map: no kind, no matrix and no
    lazy index."""
    m = build_map(m2, m2, {"kind": "neg_transpose_plus_trace"})
    assert set(vars(m)) == {"source", "target", "es", "et", "spec", "_index", "_memo"}
    assert m.image_index() is m._index and m._index.shape == (m.es.count,)


def test_budget_check_lives_in_enumeration():
    root = Path(altring.__file__).parent
    assert [path.name for path in sorted(root.glob("*.py"))
            if path.name != "enumeration.py"
            and "_check_budget" in path.read_text(encoding="utf-8")] == []
