"""Outside-in layer trace of the altring modules.

The tracer wraps the public functions of every altring module, plus the
Enumeration and MapTable methods, in the benchmark's own process; no
file of the program changes.  Each wrapped function is patched at every
name it is bound under (module attributes, the package namespace, and
module-level dicts such as the generator table), so calls made through
`from .x import f` bindings are traced too.

A span is [name, start, end, parent span index, operation id].  Spans
stay in memory and are written out when the run ends.  A function's
`.s` is its inclusive time (a call nested in a call of the same function
counts once); a module's `.s` is the layer's self time, the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("cli", "decompose", "enumeration", "generators", "linalg", "maps",
           "reports", "rings", "scalars", "structure")

# Private functions traced because they do the work of a public name:
# both detect_branch and decompose run branch detection through this one.
EXTRA = {("decompose", "_detect_branch_frames")}


def _rows(arr) -> int:
    n = 1
    for d in arr.shape[:-1]:
        n *= int(d)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- counters recorded at the layer boundary -------------------------

    def _count(self, name, args, result):
        c = self.counts
        if name == "enumeration.init":
            self.keys["rings"].add((self.op, args[1].key))
        elif name == "enumeration.mul":
            c["enumeration.mul.rows"] += _rows(result)
        elif name == "enumeration.mul_outer":
            c["enumeration.mul_outer.rows"] += _rows(result)
        elif name == "enumeration.rank_batched":
            mats = args[1]
            c["enumeration.rank_batched.matrices"] += len(result)
            full = min(mats.shape[-2], mats.shape[-1]) if len(result) else 0
            c["enumeration.rank_batched.full_rank"] += int((result == full).sum())
        elif name == "enumeration.rref_batched":
            c["enumeration.rref_batched.matrices"] += len(result[1])
        elif name == "maps.pair_scan":
            c["maps.pair_scan.pairs"] += int(result[4])
            c["maps.pair_scan.sampled"] += int(result[2] == "sampled")
        elif name == "structure.check_main_hypotheses":
            frame = args[0]
            self.keys["frames"].add((self.op, frame.ring.key, frame.e1.coords))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.op]
            spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            tracer._count(name, args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        """Patch every traced function at each of its bindings."""
        import altring
        mods = {m: importlib.import_module(f"altring.{m}") for m in MODULES}
        targets = {}                       # id(original) -> (original, wrapper)
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and \
                        (not attr.startswith("_") or (mname, attr) in EXTRA):
                    targets[id(obj)] = (obj, self._wrap(f"{mname}.{attr}", obj))
        namespaces = [altring, *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patch(ns, attr, targets[id(obj)][1], obj)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in targets and targets[id(val)][0] is val:
                            self._undo.append((obj, key, val, True))
                            obj[key] = targets[id(val)][1]
        for cls, prefix in ((mods["enumeration"].Enumeration, "enumeration"),
                            (mods["maps"].MapTable, "maps.MapTable")):
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                    span = f"{prefix}.init" if attr == "__init__" else f"{prefix}.{attr}"
                    self._patch(cls, attr, self._wrap(span, obj), obj)

    def _patch(self, owner, attr, new, old):
        self._undo.append((owner, attr, old, False))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def times(self) -> tuple[Counter, Counter]:
        """Inclusive seconds per span name and self seconds per module."""
        child = [0.0] * len(self.spans)
        inclusive, layer = Counter(), Counter()
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            anc = parent
            while anc >= 0 and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc < 0:
                inclusive[name] += t1 - t0
        for k, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            layer[name.split(".", 1)[0]] += (t1 - t0) - child[k]
        return inclusive, layer

    def metrics(self) -> dict:
        """Per-span `.calls` and `.s`, per-module `.calls` and self-time
        `.s`, the counters, and the useful-work ratios.  The ratios count
        distinct rings and frames within each operation."""
        calls = Counter(s[0] for s in self.spans)
        inclusive, layer = self.times()
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
            module = name.split(".", 1)[0]
            out[f"{module}.calls"] = out.get(f"{module}.calls", 0) + calls[name]
        out.update({f"{module}.s": secs for module, secs in layer.items()})
        out.update(self.counts)
        out["decompose.detect_branch.calls"] = calls["decompose._detect_branch_frames"]
        inits = calls["enumeration.init"]
        hyps = calls["structure.check_main_hypotheses"]
        out["enumeration.useful_ratio"] = len(self.keys["rings"]) / inits if inits else 0.0
        out["structure.hypotheses.useful_ratio"] = len(self.keys["frames"]) / hyps if hyps else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
