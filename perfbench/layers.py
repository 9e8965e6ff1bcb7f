"""Per-layer metrics from the span files that ``tracer.py`` writes.

One *pass* of a workload is one or more CLI commands; ``layer_metrics``
merges the span files of a pass and reduces them to the per-layer metrics
named in ``BENCHMARK.json``.  Self time is a span's duration minus the
durations of its direct children.  Counts made inside a span (accepted steps,
``ScalarField1`` constructions, ``Diffeo.eval`` calls) are summed over the
subtree of the span they belong to.
"""

from __future__ import annotations

import json
import statistics

# Metric name -> (unit, better).  The order is the order of the report.
PER_LAYER = {
    "operators.l_eta_direct.calls": ("count", "lower"),
    "operators.l_eta_direct.self_s": ("s", "lower"),
    "operators.l_eta_direct.ns_per_node": ("ns", "lower"),
    "operators.l_eta_direct.wall_share": ("frac", "lower"),
    "operators.l_op.calls": ("count", "lower"),
    "operators.l_op.ns_per_node": ("ns", "lower"),
    "lagrangian.rk4_step.calls": ("count", "lower"),
    "lagrangian.rk4_step.p50_ms": ("ms", "lower"),
    "lagrangian.rk4_step.p99_ms": ("ms", "lower"),
    "lagrangian.rk4_step.self_s": ("s", "lower"),
    "lagrangian.l_eta_per_step": ("count/step", "lower"),
    "lagrangian.integrate.self_s": ("s", "lower"),
    "lagrangian.reconstruct_u.calls": ("count", "lower"),
    "lagrangian.reconstruct_u.p50_ms": ("ms", "lower"),
    "fields.sf1_per_step": ("count/step", "lower"),
    "fields.eval.calls": ("count", "lower"),
    "diffeo.invert.calls": ("count", "lower"),
    "diffeo.invert.p50_ms": ("ms", "lower"),
    "diffeo.invert.evals_per_call": ("count/call", "lower"),
    "diffeo.comp.self_s": ("s", "lower"),
    "eulerian.integrate_eulerian.self_s": ("s", "lower"),
    "eulerian.compare.total_s": ("s", "lower"),
    "checks.operator_bound_suite.total_s": ("s", "lower"),
    "checks.group_suite.total_s": ("s", "lower"),
    "checks.worst_ratio": ("frac", "lower"),
    "studies.lagrangian_refinement.total_s": ("s", "lower"),
    "studies.oracle_refinement.total_s": ("s", "lower"),
    "studies.pool_cpu_per_wall": ("s/s", "higher"),
    "cli.export_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.export_mb_per_s": ("MB/s", "higher"),
    "config.load_config.total_s": ("s", "lower"),
    "config.make_initial.total_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# Metrics that are counts of work and must repeat exactly at one seed.
EXACT_COUNTS = (
    "fields.sf1_per_step",
    "lagrangian.l_eta_per_step",
    "diffeo.invert.evals_per_call",
    "lagrangian.rk4_step.calls",
    "cli.bytes_written",
)


class _Layers:
    """Accumulates spans of several commands, keyed by span name."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.nodes: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.under: dict[tuple[str, str], int] = {}
        self.children_cpu_s = 0.0

    def add(self, doc: dict) -> None:
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, nodes in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, nodes) in enumerate(spans):
            self.durations.setdefault(name, []).append((end - start) * 1e-9)
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child_ns[i]) * 1e-9
            self.nodes[name] = self.nodes.get(name, 0) + nodes

        # A span counts toward every enclosing span; also count the spans
        # themselves so "calls of X under Y" comes out of the same table.
        def credit(idx: int, key: str, k: int) -> None:
            self.counts[key] = self.counts.get(key, 0) + k
            while idx >= 0:
                outer = spans[idx][0]
                self.under[(outer, key)] = self.under.get((outer, key), 0) + k
                idx = spans[idx][3]

        for idx, key, k in doc["counts"]:
            credit(idx, key, k)
        for i, span in enumerate(spans):
            credit(span[3], "span:" + span[0], 1)
        self.children_cpu_s += doc["children_cpu_s"]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def quantile_ms(self, name: str, q: float) -> float:
        d = sorted(self.durations.get(name, ()))
        return 1e3 * d[min(len(d) - 1, int(q * len(d)))] if d else 0.0

    def ns_per_node(self, name: str) -> float:
        nodes = self.nodes.get(name, 0)
        return 1e9 * self.self_s.get(name, 0.0) / nodes if nodes else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def load_spans(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def layer_metrics(docs: list[dict], wall_s: float, bytes_written: int,
                  worst_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all commands of the pass).

    ``wall_s`` is the pass's traced wall time, ``bytes_written`` the size of
    its artifacts and ``worst_ratio`` the largest measured/allowed ratio of
    the check reports (0 when the pass runs no check suite).
    """
    L = _Layers()
    for doc in docs:
        L.add(doc)
    steps = L.under.get(("lagrangian.integrate", "accepted_steps"), 0)
    export_s = L.self_s.get("cli.main", 0.0)
    refine_s = L.total("studies.lagrangian_refinement")
    return {
        "operators.l_eta_direct.calls": L.calls("operators.l_eta_direct"),
        "operators.l_eta_direct.self_s": L.self_s.get("operators.l_eta_direct", 0.0),
        "operators.l_eta_direct.ns_per_node": L.ns_per_node("operators.l_eta_direct"),
        "operators.l_eta_direct.wall_share":
            _ratio(L.total("operators.l_eta_direct"), wall_s),
        "operators.l_op.calls": L.calls("operators.l_op"),
        "operators.l_op.ns_per_node": L.ns_per_node("operators.l_op"),
        "lagrangian.rk4_step.calls": L.calls("lagrangian.rk4_step"),
        "lagrangian.rk4_step.p50_ms": L.quantile_ms("lagrangian.rk4_step", 0.50),
        "lagrangian.rk4_step.p99_ms": L.quantile_ms("lagrangian.rk4_step", 0.99),
        "lagrangian.rk4_step.self_s": L.self_s.get("lagrangian.rk4_step", 0.0),
        "lagrangian.l_eta_per_step": _ratio(
            L.under.get(("lagrangian.integrate", "span:operators.l_eta_direct"), 0), steps),
        "lagrangian.integrate.self_s": L.self_s.get("lagrangian.integrate", 0.0),
        "lagrangian.reconstruct_u.calls": L.calls("lagrangian.reconstruct_u"),
        "lagrangian.reconstruct_u.p50_ms": L.quantile_ms("lagrangian.reconstruct_u", 0.50),
        "fields.sf1_per_step": _ratio(
            L.under.get(("lagrangian.integrate", "fields.ScalarField1"), 0), steps),
        "fields.eval.calls": L.counts.get("fields.eval", 0),
        "diffeo.invert.calls": L.calls("diffeo.invert"),
        "diffeo.invert.p50_ms": L.quantile_ms("diffeo.invert", 0.50),
        "diffeo.invert.evals_per_call": _ratio(
            L.under.get(("diffeo.invert", "diffeo.Diffeo.eval"), 0), L.calls("diffeo.invert")),
        "diffeo.comp.self_s": L.self_s.get("diffeo.comp1", 0.0) + L.self_s.get("diffeo.comp2", 0.0),
        "eulerian.integrate_eulerian.self_s": L.self_s.get("eulerian.integrate_eulerian", 0.0),
        "eulerian.compare.total_s": L.total("eulerian.compare"),
        "checks.operator_bound_suite.total_s": L.total("checks.operator_bound_suite"),
        "checks.group_suite.total_s": L.total("checks.group_suite"),
        "checks.worst_ratio": worst_ratio,
        "studies.lagrangian_refinement.total_s": refine_s,
        "studies.oracle_refinement.total_s": L.total("studies.oracle_refinement"),
        "studies.pool_cpu_per_wall": _ratio(L.children_cpu_s, refine_s),
        "cli.export_s": export_s,
        "cli.bytes_written": bytes_written,
        "cli.export_mb_per_s": _ratio(bytes_written / 1e6, export_s),
        "config.load_config.total_s": L.total("config.load_config"),
        "config.make_initial.total_s": L.total("config.make_initial"),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes of one run; counts stay whole."""
    out = {}
    for k in passes[0]:
        values = [p[k] for p in passes]
        m = statistics.median(values)
        out[k] = int(m) if all(isinstance(v, int) for v in values) and m == int(m) else m
    return out
