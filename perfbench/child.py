"""Run one benchmark job in a fresh interpreter and write what it measured.

Usage: python3 perfbench/child.py SPEC_JSON RESULT_PATH

The parent starts this script with ``src`` on ``PYTHONPATH``.  Set-up ends
when ``gspimage.cli`` has been imported; the job's time runs from just before
its entry point is called to just after it returns.  With ``"trace": true``
in the spec, the trace points of ``layers.py`` are wrapped after set-up and
before the job, and the job's spans are summarised into the result (and
written whole to ``spans_path`` when the spec names one).
"""

import time

import gspimage.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Wraps trace points from outside and keeps one span per call in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, via module, counts)
        self.stack = []
        self.absent = []  # trace points the package no longer has
        self.uncounted = set()  # trace points whose counter could not be read
        self.patched = {}  # span name -> modules whose binding was replaced

    def install(self, points, counters) -> None:
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sorted(sys.modules.items())
            if name == "gspimage" or name.startswith("gspimage.")
        }
        for module, path, span in points:
            owner = modules.get(module)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(span)
                continue
            counter = counters.get(span)
            if outer:  # a method: one binding, on its class
                setattr(owner, attr, self._wrap(original, span, module, counter))
                self.patched[span] = [module]
                continue
            # a function: every module that bound it, by any name
            self.patched[span] = []
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, self._wrap(original, span, mod_name, counter))
                        self.patched[span].append(mod_name)

    def _wrap(self, fn, span, via, counter):
        spans, stack, clock, uncounted = self.spans, self.stack, time.perf_counter, self.uncounted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span, t0, t1, parent, via, None)
            if counter is not None:
                try:
                    spans[idx] = (span, t0, t1, parent, via, counter(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    uncounted.add(span)
            return result

        return traced


def library_job() -> int:
    """Build GL2(Z/27) directly, reduce it, and filter it by congruence."""
    from gspimage import galois_model as gm
    from gspimage.modring import ResidueRing
    from gspimage.torsion import subgroup_from_generators

    ring = ResidueRing(3, 3)
    G = gm.gl2_group(ring)
    plane = subgroup_from_generators([(1, 0), (0, 1)], ring)
    line = subgroup_from_generators([(1, 0)], ring)
    orders = {
        "gl2": G.order,
        "level2": G.reduce_level(2).order,
        "level1": G.reduce_level(1).order,
        "filtered": gm.filtered_subgroup(G, (plane, line), (1, 2)).order,
    }
    sys.stdout.write(json.dumps(orders) + "\n")
    return 0


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        # imported only when tracing, so it adds nothing to an untraced job's memory
        import layers

        tracer = Tracer()
        points = layers.TRACE_POINTS + tuple(tuple(p) for p in spec.get("extra_points", ()))
        tracer.install(points, layers.COUNTERS)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if spec["kind"] == "library":
            t0 = time.perf_counter()
            rc = library_job()
            t1 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            rc = gspimage.cli.main(spec["argv"])
            t1 = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "imported_at": IMPORTED_AT,
        "job_s": t1 - t0,
        "stdout": out.getvalue(),
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["totals"] = layers.span_totals(tracer.spans)
        result["absent"] = tracer.absent
        result["uncounted"] = sorted(tracer.uncounted)
        result["patched"] = tracer.patched
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
