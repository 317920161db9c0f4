"""Trace points of the traced run and the per-layer metrics built from them.

A trace point is a public function of one of the package modules.  The
child process wraps it from outside (see ``child.py``): the wrapper records
one span per call, with the call's name, start, end and parent span, and
reads counts from the arguments and the result after the clock has stopped.
This module turns those spans into the per-layer metrics that
``BENCHMARK.json`` lists.  A layer is named after its module; a metric is
``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import statistics

from workloads import gl2_order

# (module, attribute path, span name)
TRACE_POINTS = (
    ("cli", "main", "cli.main"),
    ("galois_model", "close", "galois_model.close"),
    ("galois_model", "gl2_group", "galois_model.gl2_group"),
    ("galois_model", "MatrixGroup.__init__", "galois_model.MatrixGroup.init"),
    ("galois_model", "scenario_cm", "galois_model.scenario_cm"),
    ("galois_model", "scenario_selfproduct", "galois_model.scenario_selfproduct"),
    ("galois_model", "stabilizer", "galois_model.stabilizer"),
    ("galois_model", "MatrixGroup.multipliers", "galois_model.MatrixGroup.multipliers"),
    ("galois_model", "MatrixGroup.reduce_level", "galois_model.MatrixGroup.reduce_level"),
    ("galois_model", "filtered_subgroup", "galois_model.filtered_subgroup"),
    ("galois_model", "build_degree_report", "galois_model.build_degree_report"),
    ("mumford", "pointwise_stabilizer_in_image", "mumford.pointwise_stabilizer_in_image"),
    ("mumford", "canonical_gl2_array", "mumford.canonical_gl2_array"),
    ("mumford", "multiplier_image", "mumford.multiplier_image"),
    ("mumford", "verify_mu_s_failure", "mumford.verify_mu_s_failure"),
    ("symplectic", "multiplier", "symplectic.multiplier"),
    ("modring", "MatrixMod.__matmul__", "modring.MatrixMod.matmul"),
    ("symplectic", "m1", "symplectic.m1"),
    ("torsion", "subgroup_from_generators", "torsion.subgroup_from_generators"),
)

# Names that other modules bind with ``from ... import``; the tracer must
# replace each of these bindings too, or calls made through them go unseen.
# (span name, module holding the extra binding)
REQUIRED_ALIASES = (
    ("galois_model.gl2_group", "mumford"),
    ("symplectic.m1", "galois_model"),
    ("symplectic.m1", "mumford"),
    ("symplectic.m1", "cli"),
    ("symplectic.multiplier", "galois_model"),
    ("symplectic.multiplier", "mumford"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts read from a call's arguments and result, outside the timed region.
# Each returns a tuple of numbers stored with the span.
COUNTERS = {
    # elements, and products tried: each element times each generator
    "galois_model.close": lambda a, k, r: (r.order, r.order * len(_arg(a, k, 1, "generators"))),
    "galois_model.gl2_group": lambda a, k, r: (r.order,),
    "galois_model.MatrixGroup.init": lambda a, k, r: (a[0].order,),
    "galois_model.stabilizer": lambda a, k, r: (_arg(a, k, 0, "G").order, r.order),
    "mumford.pointwise_stabilizer_in_image": lambda a, k, r: (
        (gl2_order(_arg(a, k, 0, "ell")) // (_arg(a, k, 0, "ell") - 1)) ** 2,
    ),
}

# (metric, unit, better); every metric of the traced run, in report order
METRICS = (
    ("galois_model.close.s", "s", "lower"),
    ("galois_model.close.calls", "count", "lower"),
    ("galois_model.close.elems", "count", "lower"),
    ("galois_model.close.products", "count", "lower"),
    ("galois_model.close.useful_ratio", "ratio", "higher"),
    ("galois_model.close.elems_per_s", "1/s", "higher"),
    ("galois_model.gl2_group.s", "s", "lower"),
    ("galois_model.gl2_group.calls", "count", "lower"),
    ("galois_model.gl2_group.elems", "count", "lower"),
    ("galois_model.MatrixGroup.init.s", "s", "lower"),
    ("galois_model.MatrixGroup.init.calls", "count", "lower"),
    ("galois_model.MatrixGroup.init.elems", "count", "lower"),
    ("galois_model.scenario_cm.s", "s", "lower"),
    ("galois_model.scenario_selfproduct.s", "s", "lower"),
    ("galois_model.stabilizer.s", "s", "lower"),
    ("galois_model.stabilizer.calls", "count", "lower"),
    ("galois_model.stabilizer.scanned", "count", "lower"),
    ("galois_model.stabilizer.kept", "count", "lower"),
    ("galois_model.MatrixGroup.multipliers.s", "s", "lower"),
    ("galois_model.MatrixGroup.multipliers.calls", "count", "lower"),
    ("galois_model.MatrixGroup.reduce_level.s", "s", "lower"),
    ("galois_model.MatrixGroup.reduce_level.calls", "count", "lower"),
    ("galois_model.filtered_subgroup.s", "s", "lower"),
    ("galois_model.filtered_subgroup.calls", "count", "lower"),
    ("galois_model.build_degree_report.self_s", "s", "lower"),
    ("mumford.pointwise_stabilizer_in_image.s", "s", "lower"),
    ("mumford.pointwise_stabilizer_in_image.calls", "count", "lower"),
    ("mumford.pointwise_stabilizer_in_image.pairs", "count", "lower"),
    ("mumford.pointwise_stabilizer_in_image.pairs_per_s", "1/s", "higher"),
    ("mumford.canonical_gl2_array.s", "s", "lower"),
    ("mumford.multiplier_image.s", "s", "lower"),
    ("mumford.gl2_builds", "count", "lower"),
    ("mumford.verify_mu_s_failure.self_s", "s", "lower"),
    ("symplectic.multiplier.s", "s", "lower"),
    ("symplectic.multiplier.calls", "count", "lower"),
    ("modring.MatrixMod.matmul.s", "s", "lower"),
    ("modring.MatrixMod.matmul.calls", "count", "lower"),
    ("symplectic.m1.s", "s", "lower"),
    ("symplectic.m1.calls", "count", "lower"),
    ("torsion.subgroup_from_generators.s", "s", "lower"),
    ("torsion.subgroup_from_generators.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
)

# The span a metric is read from; a metric of an absent trace point is absent.
SOURCE = {
    "mumford.gl2_builds": "galois_model.gl2_group",
    "cli.self_s": "cli.main",
}
for _metric, _unit, _better in METRICS:
    _base = _metric.rsplit(".", 1)[0]
    if _metric not in SOURCE and any(_base == p[2] for p in TRACE_POINTS):
        SOURCE[_metric] = _base

# Workloads on which a metric must be nonzero when its trace point is
# present: the layers each workload is built to exercise, per the table
# that defines the benchmark.
CALLED_ON = {
    "galois_model.close": ("closure", "deep-level"),
    "galois_model.gl2_group": ("materialized", "tensor-cube"),
    "galois_model.MatrixGroup.init": ("closure", "materialized", "deep-level"),
    "galois_model.scenario_cm": ("materialized",),
    "galois_model.scenario_selfproduct": ("materialized",),
    "galois_model.stabilizer": ("closure", "materialized", "deep-level"),
    "galois_model.MatrixGroup.multipliers": ("closure", "materialized", "deep-level"),
    "galois_model.MatrixGroup.reduce_level": ("materialized",),
    "galois_model.filtered_subgroup": ("materialized",),
    "galois_model.build_degree_report": ("closure", "materialized", "deep-level"),
    "mumford.pointwise_stabilizer_in_image": ("tensor-cube",),
    "mumford.canonical_gl2_array": ("tensor-cube",),
    "mumford.multiplier_image": ("tensor-cube",),
    "mumford.gl2_builds": ("tensor-cube",),
    "mumford.verify_mu_s_failure": ("tensor-cube",),
    "symplectic.multiplier": ("closure", "tensor-cube", "deep-level"),
    "modring.MatrixMod.matmul": ("closure", "tensor-cube", "deep-level"),
    "symplectic.m1": ("closure", "tensor-cube", "materialized", "deep-level"),
    "torsion.subgroup_from_generators": ("closure", "tensor-cube", "materialized", "deep-level"),
    "cli.main": ("closure", "tensor-cube", "materialized", "deep-level"),
}


def absent_metrics(points, uncounted=()) -> set:
    """The metrics that cannot be read: every metric of a trace point in
    ``points``, and the counter-derived metrics of one in ``uncounted``."""
    return {
        metric for metric, source in SOURCE.items()
        if source in points
        or (source in uncounted and metric.rsplit(".", 1)[1] not in ("s", "self_s", "calls"))
    }


def expected_nonzero(workload: str) -> list[str]:
    """Metrics that must read nonzero on ``workload`` (derived stats too)."""
    out = []
    for metric, _unit, _better in METRICS:
        key = metric if metric in CALLED_ON else SOURCE.get(metric)
        if key in CALLED_ON and workload in CALLED_ON[key]:
            out.append(metric)
    return out


def _empty() -> dict:
    return {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": None, "via": {}}


def _add(into: dict, s: float, self_s: float, calls: int, counts, via: dict) -> None:
    into["s"] += s
    into["self_s"] += self_s
    into["calls"] += calls
    for name, n in via.items():
        into["via"][name] = into["via"].get(name, 0) + n
    if counts is not None:
        into["counts"] = [a + b for a, b in zip(into["counts"] or [0] * len(counts), counts)]


def span_totals(spans: list) -> dict:
    """Per span name: total time, self time, call count and summed counters.

    A span is ``(name, start, end, parent, via, counts)``, where ``parent``
    indexes the enclosing span or is -1.  Self time is a span's duration
    minus the durations of its direct children.  ``via`` counts calls by the
    module whose binding they went through, so calls made through
    ``mumford``'s ``gl2_group`` can be told apart.
    """
    child_time = [0.0] * len(spans)
    for _name, t0, t1, parent, _via, _counts in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals: dict = {}
    for i, (name, t0, t1, _parent, via, counts) in enumerate(spans):
        _add(totals.setdefault(name, _empty()), t1 - t0, t1 - t0 - child_time[i], 1, counts, {via: 1})
    return totals


def merge_job_totals(parts) -> dict:
    """Sum the span totals of the jobs of one pass."""
    out: dict = {}
    for totals in parts:
        for name, t in totals.items():
            _add(out.setdefault(name, _empty()), t["s"], t["self_s"], t["calls"], t["counts"], t["via"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced pass, from its merged span totals."""
    def get(name):
        return totals.get(name) or _empty()

    out = {}
    for metric, _unit, _better in METRICS:
        base, stat = metric.rsplit(".", 1)
        t = get(base)
        counts = t["counts"] or [0, 0]
        if metric == "mumford.gl2_builds":
            value = get("galois_model.gl2_group")["via"].get("mumford", 0)
        elif metric == "cli.self_s":
            value = get("cli.main")["self_s"]
        elif stat in ("s", "self_s", "calls"):
            value = t[stat]
        elif base == "galois_model.close":
            elems, products = counts
            value = {
                "elems": elems,
                "products": products,
                "useful_ratio": _ratio(elems - t["calls"], products),
                "elems_per_s": _ratio(elems, t["s"]),
            }[stat]
        elif stat == "elems":
            value = counts[0]
        elif base == "galois_model.stabilizer":
            value = counts[0] if stat == "scanned" else counts[1]
        elif base == "mumford.pointwise_stabilizer_in_image":
            value = counts[0] if stat == "pairs" else _ratio(counts[0], t["s"])
        else:
            continue  # trace.overhead_s and process.cpu_s come from the run
        out[metric] = value
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes."""
    return {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
