"""Per-layer tracing for the benchmark's traced run.

Three instruments, all outside the program:

* Counters wrap public methods and functions of qvertex for the traced pass
  and count calls, cache-shaped reuse (a call whose arguments were already
  seen on the same context) and non-rational cyclotomic products.
* Spans record the benchmark's own calls into qvertex (set-up, group
  construction, each job) with their parent, and are written out at the end.
* A deterministic profiler pass gives each layer's self time, aggregated by
  the module file a function lives in.  The scalar layer makes millions of
  calls per deck, too many for spans.  Built-in functions are charged to the
  layer of the function that called them.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from qvertex import fock, repring, scalar, vertex, wreath

BENCH_DIR = Path(__file__).resolve().parent
QVERTEX_DIR = Path(scalar.__file__).resolve().parent
LAYERS = ("scalar", "fraction", "fock", "vertex", "toroidal", "wreath", "repring", "bench", "other")


class Counters:
    """Call counters installed on qvertex classes and functions, then removed."""

    def __init__(self):
        self.n: Counter = Counter()
        self._seen: dict[str, weakref.WeakKeyDictionary] = {
            "form_mono": weakref.WeakKeyDictionary(),
            "ann_expand": weakref.WeakKeyDictionary(),
        }
        self._undo: list[tuple[object, str, object]] = []

    # -- installation

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_function(self, fn, wrapper) -> None:
        """Replace fn in every qvertex or benchmark module that holds it under its own name."""
        for mod in list(sys.modules.values()):
            where = getattr(mod, "__file__", None) or ""
            in_scope = getattr(mod, "__name__", "").startswith("qvertex") or Path(where).parent == BENCH_DIR
            if in_scope and getattr(mod, fn.__name__, None) is fn:
                self._set(mod, fn.__name__, wrapper)

    def _count(self, key: str, fn):
        n = self.n

        def counted(*a, **kw):
            n[key] += 1
            return fn(*a, **kw)

        return counted

    def _reuse(self, key: str, fn):
        n = self.n
        seen = self._seen[key]

        def counted(ctx, *a, **kw):
            n[key] += 1
            args = a + tuple(sorted(kw.items()))
            keys = seen.get(ctx)
            if keys is None:
                keys = seen[ctx] = set()
            if args in keys:
                n[key + ".reuse"] += 1
            else:
                keys.add(args)
            return fn(ctx, *a, **kw)

        return counted

    def install(self) -> None:
        n = self.n
        cyc_mul = scalar.Cyclo.__dict__["__mul__"]

        def cyclo_mul(a, b):
            n["cyclo_mul"] += 1
            if a.N != 1 or getattr(b, "N", 1) != 1:
                n["cyclo_mul.nonrational"] += 1
            return cyc_mul(a, b)

        self._set(scalar.Cyclo, "__mul__", cyclo_mul)
        self._set(scalar.Cyclo, "__rmul__", cyclo_mul)
        self._set(scalar.Laurent, "__mul__", self._count("laurent_mul", scalar.Laurent.__dict__["__mul__"]))
        F, V = fock.FockContext, vertex.VertexEngine
        self._set(F, "annihilate", self._count("annihilate", F.__dict__["annihilate"]))
        self._set(F, "to_chi", self._count("to_chi", F.__dict__["to_chi"]))
        self._set(F, "form_mono", self._reuse("form_mono", F.__dict__["form_mono"]))
        self._set(V, "mode", self._count("mode", V.__dict__["mode"]))
        self._set(V, "ann_expand", self._reuse("ann_expand", V.__dict__["ann_expand"]))
        self._patch_function(vertex.normal_pair_coeff, self._count("normal_pair", vertex.normal_pair_coeff))
        self._patch_function(repring.qcartan, self._count("qcartan", repring.qcartan))
        enum = wreath.enumerate_types

        def enumerate_types(g, k):
            out = enum(g, k)
            n["types"] += len(out)
            return out

        self._patch_function(enum, enumerate_types)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def reuse_ratio(self, key: str) -> float:
        return self.n[key + ".reuse"] / self.n[key] if self.n[key] else 0.0


class Spans:
    """Spans kept in memory: name, layer, start, end, parent span and job."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, job: str | None = None):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "layer": layer, "job": job, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def layer_of_file(path: str) -> str | None:
    """Layer of a profiled function's file; None for built-in functions."""
    if path == "~":
        return None
    p = Path(path)
    if p.parent == QVERTEX_DIR and p.stem in LAYERS:
        return p.stem
    if p.name == "fractions.py":
        return "fraction"
    if p.parent == BENCH_DIR:
        return "bench"
    return "other"


def layer_self_times(profile: cProfile.Profile) -> dict[str, float]:
    """Self time per layer from a profiler pass; built-ins go to their caller's layer."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (path, _line, _name), (_cc, _nc, tt, _ct, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of_file(path)
        if layer is not None:
            out[layer] += tt
        elif callers:
            for caller, stat in callers.items():
                out[layer_of_file(caller[0]) or "other"] += stat[2]
        else:
            out["other"] += tt
    return out
