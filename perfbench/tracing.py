"""Per-layer spans and counts, recorded by wrappers around temporeach's
module-level functions; the program itself is not edited.

``Tracer.install`` replaces each wrapped function in every temporeach module
that holds it (and ``TemporalGraph.with_labels`` on the class), and
``uninstall`` puts the originals back.  A span is (id, parent id, name,
start, end).  Self time, a span's time minus that of its child spans, is
summed per name as spans close; the first ``SPAN_CAP`` spans are also kept
in memory and written out by ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 200_000

# (module, attribute, span name); a class method is "Class.method"
SPANS = (
    ("tgraph", "parse_graph", "tgraph.parse_graph"),
    ("tgraph", "TemporalGraph.with_labels", "tgraph.with_labels"),
    ("tgraph", "apply_perturbation", "tgraph.apply_perturbation"),
    ("tgraph", "validate_relabelling", "tgraph.validate_relabelling"),
    ("reach", "max_reachability", "reach.max_reachability"),
    ("reach", "arrivals", "reach.arrivals"),
    ("solvers", "_expanded_reach_counts", "solvers.expanded_reach"),
    ("solvers", "_explore", "solvers.explore"),
    ("treedp", "solve_trlp_tree", "treedp.solve"),
    ("twdp", "decompose_exact_small", "twdp.decompose"),
    ("twdp", "solve_trlp_treewidth", "twdp.solve"),
    ("ecc", "ecc_within", "ecc.ecc_within"),
    ("ecc", "fastest_ecc", "ecc.fastest_ecc"),
    ("testkit", "scan_perturbations", "testkit.scan"),
)
COUNTED = (("twdp", "_solve_for_source", "twdp.sources"),)

SELF_S = (
    "tgraph.parse_graph", "tgraph.with_labels", "tgraph.apply_perturbation",
    "tgraph.validate_relabelling", "reach.max_reachability", "reach.arrivals",
    "solvers.expanded_reach", "solvers.explore", "treedp.solve", "twdp.decompose",
    "twdp.solve", "ecc.ecc_within", "ecc.fastest_ecc", "testkit.scan", "cli",
)
CALLS = (
    "tgraph.parse_graph", "tgraph.with_labels", "reach.arrivals", "solvers.explore_all",
    "solvers.explore_subset", "treedp.solve", "twdp.sources", "ecc.ecc_within",
    "ecc.fastest_ecc",
)
COUNTS = ("testkit.candidates", "testkit.relaxations", "testkit.relaxations_pruned")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    return (
        [(f"{n}.self_s", "s") for n in SELF_S]
        + [(f"{n}.calls", "count") for n in CALLS]
        + [(n, "count") for n in COUNTS]
        + [("testkit.prune_ratio", "ratio"), ("trace.solve_s", "s"), ("trace.overhead_s", "s")]
    )


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._originals: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _open(self) -> tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        _, children = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - children
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end))

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name`` (used for each CLI command)."""
        span = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, *span)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            span = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, *span)

        return traced

    def _wrap_explore(self, fn):
        traced = self._wrap("solvers.explore", fn)
        counts = self.counts

        def explore(g, source, delta, eset):
            counts["solvers.explore_all" if eset == "all" else "solvers.explore_subset"] += 1
            return traced(g, source, delta, eset)

        return explore

    def _wrap_scan(self, fn):
        traced = self._wrap("testkit.scan", fn)
        counts = self.counts

        def scan(g, delta, zeta, *, keep=None, on_complete, **kwargs):
            def counted_complete(p, pg):
                counts["testkit.candidates"] += 1
                return on_complete(p, pg)

            counted_keep = None
            if keep is not None:
                def counted_keep(relaxed):
                    counts["testkit.relaxations"] += 1
                    ok = keep(relaxed)
                    if not ok:
                        counts["testkit.relaxations_pruned"] += 1
                    return ok

            return traced(g, delta, zeta, keep=counted_keep, on_complete=counted_complete, **kwargs)

        return scan

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for module, attr, name in SPANS + COUNTED:
            mod = sys.modules[f"temporeach.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            if name == "solvers.explore":
                wrapper = self._wrap_explore(original)
            elif name == "testkit.scan":
                wrapper = self._wrap_scan(original)
            elif (module, attr, name) in COUNTED:
                wrapper = self._count(name, original)
            else:
                wrapper = self._wrap(name, original)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("temporeach") and getattr(holder, attr, None) is original:
                    self._originals.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    # -- output ----------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self times and counts, averaged over ``passes``."""
        out: dict[str, float] = {}
        for name in SELF_S:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / passes
        for name in CALLS:
            out[f"{name}.calls"] = self.counts.get(name, 0) / passes
        for name in COUNTS:
            out[name] = self.counts.get(name, 0) / passes
        tried = self.counts.get("testkit.relaxations", 0)
        out["testkit.prune_ratio"] = self.counts.get("testkit.relaxations_pruned", 0) / tried if tried else 0.0
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                    "spans_recorded": len(self.spans),
                    "spans_total": self._next_id,
                    "spans": [list(s) for s in self.spans],
                },
                fh,
            )
