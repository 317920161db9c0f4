"""Self-test of the benchmark's tracing, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

For each workload it runs one warm-up, one untraced and one traced pass, and
asserts that:

* every job's output passes its checks, and traced output is byte-identical
  to untraced output;
* the tracer replaced every ``from ... import`` binding of a wrapped name
  that ``layers.REQUIRED_ALIASES`` lists;
* every per-layer metric is nonzero on each workload that
  ``layers.CALLED_ON`` says calls it, unless its trace point is absent;
* the layer shares the workloads were designed around hold: ``close`` takes
  at least 80% of ``closure``, ``pointwise_stabilizer_in_image`` at least 80%
  of ``tensor-cube``, ``symplectic.multiplier`` (with its ``MatrixMod``
  products) the largest share of ``deep-level``, and no single function more
  than half of ``materialized``;
* a trace point that the package does not have is reported as absent, and
  the job still runs.

Exits 1 if any assertion fails.
"""

from __future__ import annotations

import argparse
import sys

import layers
import run
import workloads


def shares(totals: dict, wall: float) -> dict:
    """Each traced function's share of ``wall``, by self time; the
    ``MatrixMod`` products are counted inside ``symplectic.multiplier``."""
    out = {name: t["self_s"] / wall for name, t in totals.items()
           if name not in ("cli.main", "modring.MatrixMod.matmul")}
    if "symplectic.multiplier" in totals:
        out["symplectic.multiplier"] = totals["symplectic.multiplier"]["s"] / wall
    return out


def check_shares(workload: str, share: dict) -> list[str]:
    top = max(share, key=share.get)
    if workload == "closure" and share.get("galois_model.close", 0) < 0.8:
        return [f"close takes {share.get('galois_model.close', 0):.0%} of closure, expected >= 80%"]
    if workload == "tensor-cube" and share.get("mumford.pointwise_stabilizer_in_image", 0) < 0.8:
        return ["pointwise_stabilizer_in_image takes "
                f"{share.get('mumford.pointwise_stabilizer_in_image', 0):.0%} of tensor-cube, expected >= 80%"]
    if workload == "deep-level" and top != "symplectic.multiplier":
        return [f"{top} takes the largest share of deep-level ({share[top]:.0%}), expected symplectic.multiplier"]
    if workload == "materialized" and share[top] > 0.5:
        return [f"{top} takes {share[top]:.0%} of materialized, expected <= 50%"]
    return []


def selftest_workload(workload: str, seed: int) -> list[str]:
    runner = run.Runner(workload, seed, trace=True)
    try:
        runner.run_pass()  # warm-up
        untraced = runner.run_pass()
        traced = runner.run_pass(traced=True)
    finally:
        runner.close()
    failures = list(runner.problems)
    if failures:
        return failures

    patched: dict = {}
    for job in traced.jobs:
        for span, modules in job["patched"].items():
            patched.setdefault(span, set()).update(modules)
    for span, module in layers.REQUIRED_ALIASES:
        if span not in runner.absent and module not in patched.get(span, ()):
            failures.append(f"{module}'s binding of {span} was not wrapped")

    metrics = run.per_layer([untraced], [traced])
    absent = layers.absent_metrics(runner.absent, runner.uncounted)
    for metric in layers.expected_nonzero(workload):
        if metric not in absent and not metrics[metric]:
            failures.append(f"{metric} reads 0 on {workload}")

    totals = layers.merge_job_totals(j["totals"] for j in traced.jobs)
    share = shares(totals, traced.wall_s)
    failures += check_shares(workload, share)
    top = sorted(share.items(), key=lambda kv: -kv[1])[:3]
    print(f"{workload}: traced {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s; top shares "
          + ", ".join(f"{name} {s:.0%}" for name, s in top))
    return failures


def selftest_absent(seed: int) -> list[str]:
    """A deleted trace point is reported as absent, and the job still runs."""
    runner = run.Runner("deep-level", seed, trace=True)
    fake = ("galois_model", "no_such_function", "galois_model.no_such_function")
    fake_method = ("galois_model", "MatrixGroup.no_such_method", "galois_model.MatrixGroup.no_such_method")
    job = runner.jobs[-1]
    job.spec = dict(job.spec, extra_points=[fake, fake_method])
    try:
        runner.run_job(job, traced=False)
        res = runner.run_job(job, traced=True)
    finally:
        runner.close()
    failures = list(runner.problems)
    if res is not None and not {fake[2], fake_method[2]} <= set(res["absent"]):
        failures.append(f"missing trace points reported as {res['absent']}, not absent")
    gone = layers.absent_metrics({"galois_model.close"})
    if not {"galois_model.close.s", "galois_model.close.useful_ratio"} <= gone:
        failures.append("metrics of an absent trace point are not marked absent")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    failures = []
    for workload in workloads.WORKLOADS:
        failures += [f"{workload}: {f}" for f in selftest_workload(workload, args.seed)]
    failures += [f"absent: {f}" for f in selftest_absent(args.seed)]
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
