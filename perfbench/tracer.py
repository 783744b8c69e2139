"""Outside-in tracer: spans around every public cent_atlas function.

``Tracer.install`` wraps each public function of the traced modules and
rebinds the wrapper under every name that holds the original in any
loaded ``cent_atlas`` module, so calls made through ``from .x import f``
re-exports are recorded too.  Spans (name, start, end, parent) stay in
memory; ``buckets`` sums them per layer for ``per_layer_values``, which
yields the metrics named in ``PER_LAYER``, and ``write`` saves them once
at the end of a run.

Each traced function belongs to one bucket.  A bucket's self time is the
time spent in its functions minus the time of their children in any
span, and its call count is the number of entries into the bucket from
outside it, so ``quotient`` calling ``quotient_with_cosets`` is one call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from functools import wraps
from pathlib import Path
from typing import Any, Callable

TRACED_MODULES = ("core", "catalog", "invariants", "claims", "report",
                  "enumeration", "cli")

# function -> bucket; public functions not listed fall in "<module>.other".
_BUCKETS = {
    "core.from_cayley_table": "core.validate",
    "core.direct_product": "core.construct",
    "core.semidirect_product": "core.construct",
    "core.quotient": "core.construct",
    "core.quotient_with_cosets": "core.construct",
    "core.subgroup_as_group": "core.construct",
    "core.from_permutation_generators": "core.construct",
    "core.subgroup_generated": "core.subgroup_generated",
    "invariants.omega": "invariants.omega",
    "invariants.find_isomorphism": "invariants.iso",
    "invariants.is_isomorphic": "invariants.iso",
    "invariants.sylow": "invariants.sylow",
    "invariants.normalizer": "invariants.sylow",
    "invariants.frobenius_structure": "invariants.frobenius",
    "invariants.derived_subgroup": "invariants.derived",
    "invariants.conjugacy_classes": "invariants.conjugacy",
    "invariants.abelian_profile": "invariants.abelian_profile",
    "invariants.cent_structure": "invariants.centralizers",
    "invariants.center": "invariants.centralizers",
    "invariants.centralizer": "invariants.centralizers",
    "claims.capable": "claims.capable",
    "claims.witness_check": "claims.witness",
    "claims.verify_claim": "claims.verify",
    "report.read_group_file": "report.read",
    "report.write_group_file": "report.write",
    "report.group_to_jsonable": "report.write",
    "report.analyze": "report.analyze",
}
# Whole modules that form one bucket.
_MODULE_BUCKETS = {"catalog": "catalog", "enumeration": "enumeration",
                   "cli": "cli"}


CLAIM_IDS = ("C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9",
             "C9w", "C10", "C11", "C12", "C13")

_ANALYZE = "wall_s and item_p50_ms on analyze"
# (name, unit, better, the end-to-end metric and workload it should move).
# Every workload reports every name; a layer its workload does not reach
# reads 0.
PER_LAYER: list[tuple[str, str, str, str]] = [
    *[(f"core.validate.{m}", u, "lower",
       "wall_s on sweep, pool and files; setup_s and wall_s on analyze; "
       "peak_rss_mb on files")
      for m, u in (("calls", "count"), ("self_s", "s"), ("cells", "count"))],
    ("core.construct.calls", "count", "lower", "wall_s on sweep"),
    ("core.construct.self_s", "s", "lower", "wall_s on sweep"),
    ("core.subgroup_generated.calls", "count", "lower", _ANALYZE),
    ("core.subgroup_generated.self_s", "s", "lower", _ANALYZE),
    ("catalog.self_s", "s", "lower", "wall_s on sweep; setup_s on analyze"),
    ("catalog.groups_built", "count", "lower",
     "wall_s on sweep; setup_s on analyze"),
    ("invariants.omega.calls", "count", "lower",
     "wall_s and item_p95_ms on analyze"),
    ("invariants.omega.self_s", "s", "lower",
     "wall_s and item_p95_ms on analyze"),
    ("invariants.iso.calls", "count", "lower", "wall_s on sweep and files"),
    ("invariants.iso.self_s", "s", "lower", "wall_s on sweep and files"),
    ("invariants.iso.found_ratio", "ratio", "higher",
     "wall_s on sweep and files"),
    *[(f"invariants.{layer}.{m}", u, "lower",
       _ANALYZE + ("; wall_s on sweep" if layer == "centralizers" else ""))
      for layer in ("sylow", "frobenius", "derived", "conjugacy",
                    "abelian_profile", "centralizers")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"claims.{cid}.wall_s", "s", "lower", "wall_s on sweep and pool")
      for cid in CLAIM_IDS],
    ("claims.capable.self_s", "s", "lower", "wall_s on sweep"),
    ("claims.witness.self_s", "s", "lower", "wall_s on sweep"),
    ("claims.pool.child_cpu_s", "s", "lower", "wall_s on pool"),
    ("claims.pool.busy_ratio", "ratio", "higher", "wall_s on pool"),
    *[(f"report.{op}.{m}", u, "lower",
       "wall_s, item_p50_ms and peak_rss_mb on files")
      for op in ("read", "write")
      for m, u in (("calls", "count"), ("self_s", "s"), ("bytes", "bytes"))],
    ("report.analyze.self_s", "s", "lower", _ANALYZE),
    ("cli.self_s", "s", "lower", "wall_s on files"),
    ("enumeration.self_s", "s", "lower", "wall_s on sweep"),
    ("enumeration.classes", "count", "higher", "wall_s on sweep"),
    ("trace.overhead_s", "s", "lower",
     "none; traced wall_s minus untraced wall_s"),
]


def per_layer_values(buckets: dict[str, dict[str, float]],
                     counters: dict[str, float],
                     measured: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric from a traced run's buckets and counters,
    plus the ``measured`` values taken outside the tracer."""
    out: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        bucket, field = name.rsplit(".", 1)
        if name in measured:
            out[name] = measured[name]
        elif name in counters:
            out[name] = counters[name]
        elif field == "found_ratio":
            calls = buckets.get(bucket, {}).get("calls", 0)
            out[name] = counters.get(f"{bucket}.found", 0) / calls \
                if calls else 0.0
        else:
            out[name] = buckets.get(bucket, {}).get(field, 0)
    return out


def _groups_in(result: Any) -> int:
    if isinstance(result, dict):
        return sum(_groups_in(v) for v in result.values())
    if isinstance(result, (list, tuple)):
        return sum(_groups_in(v) for v in result)
    return int(type(result).__name__ == "Group")


# function -> (counter, observe(args, kwargs, result)); counted only when
# the call enters its bucket from outside.
_COUNTERS: dict[str, tuple[str, Callable[[tuple, dict, Any], float]]] = {
    "core.from_cayley_table": ("core.validate.cells",
                               lambda a, k, r: r.order * r.order),
    "invariants.find_isomorphism": ("invariants.iso.found",
                                    lambda a, k, r: r is not None),
    "invariants.is_isomorphic": ("invariants.iso.found",
                                 lambda a, k, r: bool(r)),
    "report.read_group_file": ("report.read.bytes",
                               lambda a, k, r: os.path.getsize(
                                   a[0] if a else k["path"])),
    "report.write_group_file": ("report.write.bytes",
                                lambda a, k, r: os.path.getsize(
                                    a[1] if len(a) > 1 else k["path"])),
    "enumeration.enumerate_groups": ("enumeration.classes",
                                     lambda a, k, r: len(r)),
    "enumeration.count_groups": ("enumeration.classes",
                                 lambda a, k, r: r),
}


def _counter_for(qualname: str):
    if qualname in _COUNTERS:
        return _COUNTERS[qualname]
    if qualname.startswith("catalog."):
        return ("catalog.groups_built", lambda a, k, r: _groups_in(r))
    return None


def bucket_of(qualname: str) -> str:
    module = qualname.split(".", 1)[0]
    return _BUCKETS.get(qualname) or _MODULE_BUCKETS.get(module) \
        or f"{module}.other"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, float] = {}
        self._bucket: list[str] = []
        self._stack: list[int] = []

    def wrap(self, qualname: str, fn: Callable) -> Callable:
        bucket = bucket_of(qualname)
        counter = _counter_for(qualname)
        names, start, end, parent = (self.names, self.start, self.end,
                                     self.parent)
        buckets, stack, counters = self._bucket, self._stack, self.counters
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            up = stack[-1] if stack else -1
            names.append(qualname)
            buckets.append(bucket)
            parent.append(up)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None and (up < 0 or buckets[up] != bucket):
                key, observe = counter
                counters[key] = counters.get(key, 0) + observe(
                    args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules and rebind it
        wherever a cent_atlas module holds it."""
        wrappers: dict[Callable, Callable] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"cent_atlas.{short}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cent_atlas" and not mod_name.startswith(
                    "cent_atlas."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def buckets(self) -> dict[str, dict[str, float]]:
        """Per bucket: self time in seconds and entries from outside."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            b = self._bucket[i]
            acc = out.setdefault(b, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if p < 0 or self._bucket[p] != b:
                acc["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        index = {name: k for k, name in enumerate(dict.fromkeys(self.names))}
        spans = [[index[self.names[i]], self.start[i], self.end[i],
                  self.parent[i]] for i in range(len(self.start))]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": list(index), "spans": spans,
                                    "counters": self.counters}))
