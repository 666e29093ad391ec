"""Layering guards.  Only `enumeration.py` reads the digit table: the map
verifiers, the decomposition and the structure checks combine element
indices, masks and coordinate rows through the public `Enumeration`
kernels, so their source (docstrings included) names none of the
digit-plane internals, and only `enumeration.py` names an underscore
member of `Enumeration` or the dtypes of its planes and eliminator.  Only `enumeration.py` applies
the evaluation budget, bound once per Enumeration, and a map is verified
at the budget it was built under.  The Peirce relations enumerate
nothing, so they take no budget.  The ring laws report like every other
check, through `CheckReport`."""

import importlib
import inspect
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import altring
from altring import (DecompositionResult, MapTable, Subspace, build_map,
                     verify_peirce_relations, verify_theorem)
from altring import rings
from altring.cli import main
from altring.enumeration import Enumeration
from altring.reports import CheckReport
from altring.rings import save_ring

DIGIT_TABLE_INTERNALS = re.compile(
    r"\.digits\(|index_of_planes|\b(es|et)\.reduce\(|\.take\(|add_index|elim_dtype")


@pytest.mark.parametrize("module", ["maps.py", "decompose.py", "structure.py"])
def test_module_reads_no_digit_table(module):
    source = (Path(altring.__file__).parent / module).read_text(encoding="utf-8")
    hits = [f"{n}: {line.strip()}" for n, line in enumerate(source.splitlines(), 1)
            if DIGIT_TABLE_INTERNALS.search(line)]
    assert hits == []


def test_only_enumeration_names_its_internals(m2):
    """Primeness and every other caller use the public kernels: no module
    but `enumeration.py` names a private method or attribute of an
    `Enumeration`, such as `_eliminate_chunk`, `_planes` or `_digits`, or
    its `mat_dtype` and `elim_dtype`."""
    enum = Enumeration(m2, 10**6)
    private = {name for name in [*vars(Enumeration), *vars(enum)]
               if name.startswith("_") and not name.endswith("__")}
    assert {"_eliminate_chunk", "_planes", "_product_planes", "_digits"} <= private
    named = re.compile(r"\b(%s|mat_dtype|elim_dtype)\b" % "|".join(sorted(private)))
    root = Path(altring.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}" for path in sorted(root.glob("*.py"))
            if path.name != "enumeration.py"
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if named.search(line)]
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


def test_map_table_builds_its_index_once(m2, monkeypatch):
    """No kind: a map built from a matrix keeps it beside its cached
    artefacts, not as an attribute of its own, and builds no index until
    one is asked for; that index is `linear_index` of the matrix, built
    once.  A map built from its index is the array it was given."""
    calls = []
    real = Enumeration.linear_index
    monkeypatch.setattr(Enumeration, "linear_index",
                        lambda self, M: calls.append(M) or real(self, M))
    m = build_map(m2, m2, {"kind": "neg_transpose_plus_trace"})
    assert set(vars(m)) == {"source", "target", "es", "et", "spec", "_index", "_memo"}
    assert calls == []
    index = m.image_index()
    assert m.image_index() is index and calls == [m.matrix()]
    assert index.shape == (m.es.count,) and np.array_equal(index, real(m.es, m.matrix()))
    table = MapTable(m2, m2, m.es, m.et, index)
    assert table.image_index() is index and len(calls) == 1


def test_no_map_function_takes_a_budget():
    """Every function of `maps.py` and `decompose.py` with a parameter that
    is a map or a decomposition reads the budget from the map's
    Enumerations, so none takes a budget of its own."""
    takes_a_map = {}
    for mod in map(importlib.import_module, ("altring.maps", "altring.decompose")):
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and \
                    {MapTable, DecompositionResult} & {
                        hint for arg, hint in typing.get_type_hints(fn).items() if arg != "return"}:
                takes_a_map[name] = "budget" in inspect.signature(fn).parameters
    assert {"phi_linear", "pair_report", "frame_hypotheses", "decompose", "verify_decomposition",
            "verify_theorem", "_detect_branch_frames"} <= set(takes_a_map)
    assert [name for name, has_budget in takes_a_map.items() if has_budget] == []


def test_map_table_has_one_budget(m2):
    """The source and target Enumerations of a map share its budget, so
    no stage of a run verifies under another, and no cache key needs one."""
    es, et = Enumeration.of(m2, 10**6), Enumeration.of(m2, 1000)
    with pytest.raises(ValueError, match="different budgets, 1000000 and 1000"):
        MapTable(m2, m2, es, et, np.arange(es.count))
    m = build_map(m2, m2, {"kind": "neg_transpose_plus_trace"}, 200_000)
    bundle = verify_theorem(m, m2.basis_element(0), "ddagger", 3)
    assert bundle["config"]["budget"] == bundle["decomposition"]["budget"] == 200_000
    keys = [k if isinstance(k, tuple) else (k,) for k in m._memo]
    assert keys and not any(200_000 in key for key in keys)


def test_budget_check_lives_in_enumeration():
    root = Path(altring.__file__).parent
    assert [path.name for path in sorted(root.glob("*.py"))
            if path.name != "enumeration.py"
            and "_check_budget" in path.read_text(encoding="utf-8")] == []


def test_budget_exceeded_is_raised_only_by_enumeration():
    root = Path(altring.__file__).parent
    assert [path.name for path in sorted(root.glob("*.py"))
            if "raise BudgetExceeded" in path.read_text(encoding="utf-8")] == ["enumeration.py"]


def test_peirce_relations_take_no_budget(zorn, tmp_path, capsys):
    """Containments are decided on cell bases and the square law from its
    polar form, so `altring peirce` on Zorn/F5 (390,625 elements, cells of
    125 points) prints the same bytes at budget 10 as at 10^6."""
    assert "budget" not in inspect.signature(verify_peirce_relations).parameters
    path = tmp_path / "zorn.json"
    save_ring(zorn, path)
    outs = []
    for budget in ("10", "1000000"):
        assert main(["peirce", str(path), "--idempotent", "1,0,0,0,0,0,0,0",
                     "--budget", budget]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"peirce_iv_a_squares"' in outs[0]


def test_ring_laws_return_check_reports(m2):
    checks = {"alternative": rings.is_alternative, "flexible": rings.is_flexible,
              "associative": rings.is_associative,
              "torsion_free_2": lambda r: rings.is_k_torsion_free(r, 2)}
    for condition, check in checks.items():
        rep = check(m2)
        assert type(rep) is CheckReport and rep.condition == condition
    assert not hasattr(rings, "CheckResult")
