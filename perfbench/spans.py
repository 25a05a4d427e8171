"""Spans around calls into biosketch's public functions, recorded from outside.

`install` rebinds each traced function in every biosketch module namespace
that holds it by name, and in module-level dicts that hold it as a value,
so calls made through any module's globals are seen.  Classes are traced
through their constructor.  Spans stay in memory with parent links until
the benchmark writes them out.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter

TRACED_FUNCTIONS = {
    "cli": ("main",),
    "harness": ("run_config", "estimate_frr", "estimate_far", "estimate_sar"),
    "codes": ("build_coset_table", "make_code_from_H", "frr_bound", "far_bound"),
    "gf2": ("rank", "stacked_rank", "sample_full_rank"),
    "multisys": ("rank_profiles", "design_search", "linkage_preset"),
    "leakage": ("exact_single_system_leakage", "exact_mutual_info"),
}
TRACED_CLASSES = {"gf2": ("Gf2Solver",)}
ESTIMATORS = ("harness.estimate_frr", "harness.estimate_far", "harness.estimate_sar")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED_FUNCTIONS.items() for fn in fns]
    return names + [f"{mod}.{cls}" for mod, classes in TRACED_CLASSES.items() for cls in classes]


class Tracer:
    """Records (id, parent, name, start, end, self) spans and boundary counts."""

    def __init__(self, batch_trials: int):
        self.batch_trials = batch_trials
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.table_codes: set = set()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name, args)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, name, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                if self._stack:
                    self._stack[-1][3] += duration
                self.spans.append((span_id, parent, name, frame[2], end, duration - frame[3]))
        return traced

    def _count(self, name: str, args) -> None:
        if name in ESTIMATORS:
            trials = args[0].trials
            self.counts["harness.trials"] += trials
            self.counts["harness.batches"] += math.ceil(trials / self.batch_trials)
        elif name == "codes.build_coset_table":
            code = args[0]
            self.counts["codes.coset_table.entries"] += 1 << code.m
            self.table_codes.add((code.n, code.H.to_numpy().tobytes()))

    def summary(self) -> dict[str, float]:
        """Per-name calls, total time (outermost spans only) and self time."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        by_id = {s[0]: s for s in self.spans}
        for span_id, parent, name, start, end, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                out[f"{name}.total_s"] += end - start
        builds = out["codes.build_coset_table.calls"]
        out["codes.build_coset_table.useful_ratio"] = (
            len(self.table_codes) / builds if builds else 1.0)
        for key in ("harness.trials", "harness.batches", "codes.coset_table.entries"):
            out[key] = self.counts[key]
        return out


def install(tracer: Tracer) -> list[tuple]:
    """Rebind every traced callable to its wrapper; returns the undo list."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "biosketch" or name.startswith("biosketch."))]
    undo: list[tuple] = []
    for mod_name, fns in TRACED_FUNCTIONS.items():
        home = sys.modules[f"biosketch.{mod_name}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        undo.append((namespace, key, original))
                        namespace[key] = wrapper
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is original:
                                undo.append((value, k, original))
                                value[k] = wrapper
    for mod_name, classes in TRACED_CLASSES.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"biosketch.{mod_name}"], cls_name)
            original = cls.__dict__["__init__"]
            undo.append((cls, "__init__", original))
            setattr(cls, "__init__", tracer.wrap(f"{mod_name}.{cls_name}", original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for container, key, original in reversed(undo):
        if isinstance(container, type):
            setattr(container, key, original)
        else:
            container[key] = original
