"""The gspimage benchmark: CLI jobs of one workload, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 24 --trace 0

Load shape: a closed loop from this single driver process.  Jobs run one at
a time, each in a fresh child interpreter (``child.py``) that imports
``gspimage.cli`` from ``src`` and calls ``gspimage.cli.main(argv)``, so
caches and peak memory belong to that job; at most two processes are alive
at once.  No job passes ``--threads``.

A run makes one untimed warm-up pass over the workload's jobs, then timed
passes until ``--seconds`` would be exceeded (at least two).  Every job's
exit code and output are checked in every pass.

``--trace 0`` prints the end-to-end metrics of the timed passes:

* ``wall_s``: one pass's job times summed, each timed inside the child from
  just before the entry point is called to just after it returns; median
  over the passes;
* ``setup_s``: child start plus ``import gspimage.cli``, per job; median
  over every job of the run, times the number of jobs in a pass;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any child in a pass, in MiB,
  median over the passes.

``error_rate`` (failed jobs over attempted jobs) is printed beside them, and
the JSON line carries the same counts as ``attempted`` and ``failed``.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``layers.py`` (medians over the traced passes), with
``trace.overhead_s`` as traced minus untraced ``wall_s``.  Traced output must
be byte-identical to untraced output.

Each run writes a result file, with the machine it ran on, under
``perfbench/out/``.  The last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
JOB_TIMEOUT_S = 120
MIN_PASSES = 2


class Pass:
    """The results of one pass over a workload's jobs."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.jobs: list[dict] = []

    @property
    def wall_s(self) -> float:
        return sum(j["job_s"] for j in self.jobs)

    @property
    def peak_rss_mb(self) -> float:
        return max(j["maxrss_kb"] for j in self.jobs) / 1024

    @property
    def cpu_s(self) -> float:
        return sum(j["cpu_s"] for j in self.jobs)


class Runner:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.trace = trace
        self.workdir = OUT / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        rel = self.workdir.relative_to(ROOT).as_posix()
        self.jobs = workloads.WORKLOADS[workload](seed, self.workdir, rel)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.problems: list[str] = []
        self.untraced_out: dict[str, str] = {}
        self.absent: set[str] = set()  # trace points the package lacks
        self.uncounted: set[str] = set()  # trace points whose counts could not be read

    def run_job(self, job: workloads.Job, traced: bool) -> dict | None:
        """Run one job in a child; returns its result, or None if it failed."""
        result_path = self.workdir / "job.json"
        result_path.unlink(missing_ok=True)
        spec = dict(job.spec, trace=traced)
        if traced:
            spec["spans_path"] = str(OUT / f"spans-{self.workload}-{job.name}.json")
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(result_path)],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._fail(job, f"timed out after {JOB_TIMEOUT_S} s")
        if proc.returncode != 0 or not result_path.exists():
            return self._fail(job, f"child exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
        res = json.loads(result_path.read_text(encoding="utf-8"))
        res["setup_s"] = res["imported_at"] - started
        if res["rc"] != 0:
            return self._fail(job, f"exit code {res['rc']}, expected 0")
        try:
            problems = job.check(res["stdout"])
        except Exception as exc:  # a malformed output must count as a failure
            problems = [f"check raised {exc!r}"]
        if traced:
            self.absent.update(res["absent"])
            self.uncounted.update(res["uncounted"])
            if res["stdout"] != self.untraced_out.get(job.name):
                problems.append("traced output differs from untraced output")
        else:
            self.untraced_out.setdefault(job.name, res["stdout"])
        if problems:
            return self._fail(job, "; ".join(problems))
        return res

    def _fail(self, job: workloads.Job, why: str) -> None:
        self.problems.append(f"{job.name}: {why}")
        return None

    def run_pass(self, traced: bool = False) -> Pass:
        p = Pass(traced)
        for job in self.jobs:
            self.attempted += 1
            res = self.run_job(job, traced)
            if res is not None:
                res["name"] = job.name
                p.jobs.append(res)
        return p

    def passes(self, seconds: float, traced_too: bool) -> list[Pass]:
        """Timed passes (untraced, or untraced/traced pairs): as many as fit
        in ``seconds``, and at least MIN_PASSES."""
        out: list[Pass] = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            out.append(self.run_pass())
            if traced_too:
                out.append(self.run_pass(traced=True))
            step = time.monotonic() - t0
            if len(out) >= MIN_PASSES and time.monotonic() - start + step > seconds:
                return out

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _complete(passes: list[Pass], jobs: int) -> list[Pass]:
    return [p for p in passes if len(p.jobs) == jobs]


def end_to_end(passes: list[Pass], jobs: int) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and their sample counts."""
    setups = [j["setup_s"] for p in passes for j in p.jobs]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups) * jobs,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    samples = {"wall_s": len(passes), "setup_s": len(setups), "peak_rss_mb": len(passes)}
    return metrics, samples


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [layers.pass_metrics(layers.merge_job_totals(j["totals"] for j in p.jobs)) for p in traced]
    metrics = layers.median_metrics(per_pass)
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in untraced))
    metrics["process.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    return metrics


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gspimage" / "cli.py").is_file():
        print(f"error: no gspimage sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks' oracles import the package

    runner = Runner(args.workload, args.seed, bool(args.trace))
    try:
        runner.run_pass()  # warm-up, untimed
        timed = runner.passes(args.seconds, traced_too=runner.trace)
    finally:
        runner.close()
    jobs = len(runner.jobs)
    untraced = _complete([p for p in timed if not p.traced], jobs)
    traced = _complete([p for p in timed if p.traced], jobs)
    failed = len(runner.problems)
    correct = failed == 0 and bool(untraced) and (bool(traced) or not runner.trace)

    print(f"workload {args.workload}, seed {args.seed}: {len(timed)} timed passes of {jobs} jobs after one warm-up pass")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    metrics: dict = {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "passes": [{"traced": p.traced, "jobs": [{k: j[k] for k in ("name", "job_s", "setup_s", "maxrss_kb", "cpu_s")} for j in p.jobs]} for p in timed],
        "problems": runner.problems,
    }
    if correct and not runner.trace:
        values, samples = end_to_end(untraced, jobs)
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        for name, value in values.items():
            print(f"{name:<12} {value:12.6f} {units[name]:<4}(median, {samples[name]} samples)")
            metrics[name] = {"value": value, "unit": units[name]}
    elif correct:
        values = per_layer(untraced, traced)
        absent = sorted(layers.absent_metrics(runner.absent, runner.uncounted))
        for name, unit, _better in layers.METRICS:
            flag = "  absent" if name in absent else ""
            print(f"{name:<46} {values[name]:14.6f} {unit}{flag}")
            metrics[name] = {"value": values[name], "unit": unit}
        record["absent"] = absent
    print(f"error_rate   {failed / runner.attempted:12.6f}     ({failed} of {runner.attempted} jobs)")
    record["metrics"] = metrics
    summary = {"correct": correct, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(dict(record, **summary), indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
