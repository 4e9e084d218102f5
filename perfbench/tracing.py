"""Outside-in spans around the public functions at each ktmap module boundary.

The package itself records nothing, so the traced run replaces each function
below, in the module namespace where its caller looks it up, with a wrapper
that records a span {id, name, parent, start, end, counts}. Spans are kept
in memory and written out when the run ends. Per-layer metrics are derived
from them: a layer's time is the sum of its spans' durations, and its self
time subtracts the time covered by its child spans.

A patch target that no longer exists raises, so a refactor that moves a
boundary shows up as a benchmark failure rather than as a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time


def _merge_counts(args, kwargs, out):
    # greedy_merge_seq(n_nodes, edge_u, edge_v, edge_w) -> (q0, merges, qs)
    return {"merges": len(out[1]), "edges": len(args[1])}


def _acyclic_counts(args, kwargs, out):
    # acyclic_reduction(net) -> (kept edges, removed edges)
    return {"removed": len(out[1])}


# (module, attribute, span name, counter). The module is where the caller
# resolves the name: report.py imports its stage functions by name, fronts
# and metrics reach the kernels through the ``_kernels`` module, hubs holds
# its own ``acyclic_reduction`` binding.
PATCHES = (
    ("ktmap.report", "run_pipeline", "report.pipeline", None),
    ("ktmap.report", "validate_report", "report.validate", None),
    ("ktmap.report", "load_corpus", "corpus.load", None),
    ("ktmap.report", "write_corpus", "corpus.write", None),
    ("ktmap.report", "co_citation_projection", "corpus.cocite", None),
    ("ktmap.report", "select_top_cited", "selection.select", None),
    ("ktmap.report", "fit_power_law", "selection.fit", None),
    ("ktmap.report", "score_documents", "axis.score", None),
    ("ktmap.report", "homophily_assortativity", "axis.assort", None),
    ("ktmap.report", "hierarchical_fronts", "fronts.tree", None),
    ("ktmap.fronts", "fast_greedy", "fronts.cluster", None),
    ("ktmap._kernels", "greedy_merge_seq", "kernels.merge", _merge_counts),
    ("ktmap._kernels", "triangle_counts", "kernels.triangle", None),
    ("ktmap.report", "node_metrics_table", "metrics.table", None),
    ("ktmap.report", "ck_scaling", "metrics.ck", None),
    ("ktmap.report", "detect_translational_hubs", "hubs.detect", None),
    ("ktmap.report", "hub_regions", "hubs.regions", None),
    ("ktmap.report", "main_path", "hubs.mainpath", None),
    ("ktmap.hubs", "acyclic_reduction", "hubs.acyclic", _acyclic_counts),
)


class _WarningCounter(logging.StreamHandler):
    """Counts WARNING+ records and prints them as Python's last-resort
    handler would, so attaching it changes no output."""

    def __init__(self):
        super().__init__(sys.stderr)
        self.setLevel(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1
        super().emit(record)


class Tracer:
    """Installs the wrappers; ``restore`` puts the original functions back."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._warnings = _WarningCounter()

    def install(self) -> None:
        for module_name, attr, span_name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: boundary moved
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, counter))
        logging.getLogger("ktmap").addHandler(self._warnings)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        logging.getLogger("ktmap").removeHandler(self._warnings)

    @property
    def warnings(self) -> int:
        return self._warnings.count

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, out)
            return out
        return traced


def layer_metrics(spans: list[dict], warnings: int) -> dict[str, float]:
    """Per-layer metrics (name -> value) from one report's spans."""
    total: dict[str, float] = {}
    child_time: dict[int, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        dur = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + dur
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + dur
        for key, val in span["counts"].items():
            counts[key] = counts.get(key, 0) + val
    self_time: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        self_time[span["name"]] = self_time.get(span["name"], 0.0) + own

    def t(name):
        return total.get(name, 0.0)

    return {
        "kernels.merge_s": t("kernels.merge"),
        "kernels.merge_calls": calls.get("kernels.merge", 0),
        "kernels.merges": counts.get("merges", 0),
        "kernels.merge_edges": counts.get("edges", 0),
        "fronts.tree_s": t("fronts.tree"),
        "fronts.cluster_calls": calls.get("fronts.cluster", 0),
        "fronts.refine_s": self_time.get("fronts.cluster", 0.0),
        "kernels.triangle_s": t("kernels.triangle"),
        "kernels.triangle_calls": calls.get("kernels.triangle", 0),
        "metrics.table_s": t("metrics.table"),
        "metrics.ck_s": t("metrics.ck"),
        "hubs.acyclic_s": t("hubs.acyclic"),
        "hubs.removed_edges": counts.get("removed", 0),
        "hubs.mainpath_s": self_time.get("hubs.mainpath", 0.0),
        "hubs.detect_s": t("hubs.detect") + t("hubs.regions"),
        "log.warnings": warnings,
        "corpus.load_s": t("corpus.load"),
        "corpus.write_s": t("corpus.write"),
        "corpus.cocite_s": t("corpus.cocite"),
        "selection.select_s": t("selection.select"),
        "selection.fit_s": t("selection.fit"),
        "axis.score_s": t("axis.score") + t("axis.assort"),
        "report.self_s": self_time.get("report.pipeline", 0.0),
        "report.validate_s": t("report.validate"),
    }
