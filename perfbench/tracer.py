"""Spans around the calls into the package's layers, recorded from outside.

The traced run replaces public functions by wrappers under the name their
caller looks them up by: `cli` imports most names directly, so
`fairksel.cli.doubling` is wrapped, not only `fairksel.lp.doubling`.  A span
is (name, start, end, parent, solve id, info); spans stay in memory until
the run writes them out.  A wrapper records only while a solve is open, so
the benchmark's own checks never show up as layer time.

A wrapped function that a refactor renamed or removed is reported in
``Tracer.notes`` and its metrics read low or 0; the traced run still
finishes.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

ROOT = "cli.solve"

# (module, attribute, span name).  Several functions may share a span name.
TARGETS = (
    ("fairksel.cli", "load_instance", "core.load"),
    ("fairksel.cli", "validate", "core.load"),
    ("fairksel.cli", "preprocess", "core.preprocess"),
    ("fairksel.cli", "max_disagreement", "core.objective"),
    ("fairksel.core", "max_disagreement", "core.objective"),
    ("fairksel.cli", "guess_tstar_unweighted", "lp.tstar"),
    ("fairksel.cli", "doubling", "lp.tstar"),
    ("fairksel.lp", "check_feasible", "lp.feasibility"),
    ("fairksel.cli", "normalize", "lp.normalize"),
    ("fairksel.cli", "trim_to_demand", "lp.trim"),
    ("fairksel.cli", "pipage_rounding", "rounding.pipage"),
    ("fairksel.cli", "lll_rounding", "rounding.lll"),
    ("fairksel.rounding", "build_bad_events", "rounding.bad_events"),
    ("fairksel.cli", "solve_delta2_unweighted", "exact.delta2"),
    ("fairksel.cli", "solve_delta2_weighted", "exact.delta2"),
    ("fairksel.exact", "red_blue", "exact.red_blue"),
    ("fairksel.cli", "solve_laminar", "exact.laminar"),
    ("fairksel.cli", "detect_laminar", "exact.laminar_detect"),
    ("fairksel.exact", "detect_laminar", "exact.laminar_detect"),
    ("fairksel.exact", "build_laminar_tree", "exact.laminar_tree"),
    ("fairksel.exact", "laminar_dp", "exact.laminar_dp"),
)

# per-layer metric -> span name whose summed duration it is
TIME_METRICS = {
    "core.load_s": "core.load",
    "core.preprocess_s": "core.preprocess",
    "core.objective_s": "core.objective",
    "lp.tstar_s": "lp.tstar",
    "lp.feasibility_s": "lp.feasibility",
    "lp.normalize_s": "lp.normalize",
    "lp.trim_s": "lp.trim",
    "rounding.pipage_s": "rounding.pipage",
    "rounding.lll_s": "rounding.lll",
    "exact.delta2_s": "exact.delta2",
    "exact.red_blue_s": "exact.red_blue",
    "exact.laminar_s": "exact.laminar",
    "exact.laminar_detect_s": "exact.laminar_detect",
    "exact.laminar_tree_s": "exact.laminar_tree",
    "exact.laminar_dp_s": "exact.laminar_dp",
}


def _infeasible(args, result) -> bool:
    return result is None


def _selected_over_k(args, result) -> float:
    return len(result.chosen) / args[0].demand


# span name -> what to keep from a call's arguments and result
INFO = {"lp.feasibility": _infeasible, "rounding.lll": _selected_over_k}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._solve: str | None = None

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self._note(f"{module_name}.{attr} not found: the metrics "
                           f"of span {span} may read low or 0")
                continue
            setattr(module, attr, self._wrap(fn, span))

    def _wrap(self, fn, name: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._solve is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self._solve, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                try:
                    span[5] = info(args, result)
                except (AttributeError, IndexError, TypeError, ZeroDivisionError) as exc:
                    self._note(f"{name}: cannot read the call's result ({exc!r})")
            return result

        return traced

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def solve(self, solve_id: str, call):
        """Run ``call()`` as one solve under a root span; returns its result."""
        self._solve = solve_id
        idx = len(self.spans)
        span = [ROOT, 0.0, 0.0, None, solve_id, None]
        self.spans.append(span)
        self._stack = [idx]
        span[1] = time.perf_counter()
        try:
            return call()
        finally:
            span[2] = time.perf_counter()
            self._stack = []
            self._solve = None

    def summary(self, first: int) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since index ``first``."""
        spans = self.spans[first:]
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        child_time: dict[int, float] = {}
        for i, (name, start, end, parent, _, _) in enumerate(spans, first):
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {metric: total.get(span, 0.0) for metric, span in TIME_METRICS.items()}
        feas = [s for s in spans if s[0] == "lp.feasibility"]
        lll = [s[5] for s in spans if s[0] == "rounding.lll" and s[5] is not None]
        out["lp.feasibility_solves"] = len(feas)
        out["lp.feasibility_max_s"] = max((s[2] - s[1] for s in feas), default=0.0)
        out["lp.infeasible_share"] = (
            sum(1 for s in feas if s[5]) / len(feas) if feas else 0.0)
        n_lll = count.get("rounding.lll", 0)
        out["rounding.lll_phase2_share"] = (
            count.get("rounding.bad_events", 0) / n_lll if n_lll else 0.0)
        out["rounding.lll_selected_over_k"] = statistics.fmean(lll) if lll else 0.0
        out["exact.red_blue_calls"] = count.get("exact.red_blue", 0)
        out["cli.self_s"] = sum(
            (end - start) - child_time.get(i, 0.0)
            for i, (name, start, end, _, _, _) in enumerate(spans, first)
            if name == ROOT)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, solve_id, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve_id,
                                     "info": info}) + "\n")
