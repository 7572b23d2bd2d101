"""Outside-in tracing of one CLI job, and the per-layer metrics built from it.

Run as a script, this file stands in for ``python -m voaplus``::

    python perfbench/tracing.py SPANS.json analyze "lb(rm14)" --format json

It imports ``voaplus.cli`` (one span), wraps the public functions listed
in WRAPPED in every voaplus module that bound them by name, runs the CLI,
and writes the spans (name, start, end, parent) and counters to SPANS.json
when the job ends.  Nothing under ``src/`` is changed; functions only are
wrapped, since wrapping the Lattice class would break ``isinstance``.
Each traced job is a fresh process, so ``lru_cache`` state never carries
over from one job to the next.

The parent side (``summarize``, ``layer_metrics``) turns spans into self
times: a span's duration minus the durations of its direct children.  The
job's wall time, measured by the parent, is then exactly the sum of all
self times plus ``cli.residual_s``, the time no span covers (interpreter
start and exit, argument parsing, JSON built inline by ``cmd_shortvec``).
"""

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans.  Every one reports its
# self time, so self times and residual add up to the job's wall time.
WRAPPED = (
    ("kernels", "enumerate_offsets"),
    ("lattice", "vectors_of_norm"),
    ("lattice", "orthogonal_group_order"),
    ("report", "analyze"),
    ("report", "stabilizer_order"),
    ("constrb", "frame_cosets"),
    ("constrb", "extract_frame"),
    ("constrb", "extract_code"),
    ("constrb", "structural_cosets"),
    ("orbit", "condition_a"),
    ("orbit", "condition_b"),
    ("orbit", "twisted_character_count"),
    ("codes", "rm14_subcode"),
    ("intmat", "smith_with_left"),
    ("intmat", "hnf"),
    ("intmat", "same_row_lattice"),
    ("intmat", "invert_fraction"),
    ("serialize", "aut_report_json"),
    ("cli", "emit"),
    ("catalog", "parse_spec"),
)
IMPORT_SPAN = "cli.import"

# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = {"%s.%s.self_s" % pair: ("s", "lower") for pair in WRAPPED}
PER_LAYER.update({
    "kernels.enumerate_offsets.calls": ("count", "lower"),
    "kernels.vectors": ("count", "lower"),
    "fractions.created": ("count", "lower"),
    "lattice.offsets_cache.hits": ("count", "higher"),
    "lattice.offsets_cache.misses": ("count", "lower"),
    "lattice.orthogonal_group_order.calls": ("count", "lower"),
    "lattice.isometries": ("count", "lower"),
    "report.stabilizer_order.total_s": ("s", "lower"),
    "report.analyze.total_s": ("s", "lower"),
    "constrb.cosets_swept": ("count", "lower"),
    "constrb.cosets_qualifying": ("count", "higher"),
    "constrb.qualifying_ratio": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.residual_s": ("s", "lower"),
    "trace.job_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.frame_cosets = {}      # lattice -> FrameCosets, one per sweep

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def count_fractions(self):
        from fractions import Fraction
        new = Fraction.__new__
        counts = self.counts

        def counting_new(cls, *args, **kwargs):
            counts["fractions.created"] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    def install(self):
        """Wrap WRAPPED in every voaplus namespace that holds them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "voaplus" or n.startswith("voaplus.")]
        hooks = {
            "kernels.enumerate_offsets": self._on_enumerate,
            "lattice.orthogonal_group_order": self._on_isometries,
            "constrb.frame_cosets": self._on_frame_cosets,
        }
        for mod_name, fn_name in WRAPPED:
            name = "%s.%s" % (mod_name, fn_name)
            original = getattr(sys.modules["voaplus." + mod_name], fn_name)
            traced = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, traced)

    def _on_enumerate(self, args, result):
        self.counts["kernels.vectors"] += len(result)

    def _on_isometries(self, args, result):
        self.counts["lattice.isometries"] += result

    def _on_frame_cosets(self, args, result):
        self.frame_cosets[args[0]] = result

    def finish(self):
        """Counters that are read once, after the job has run."""
        from voaplus import lattice
        info = lattice._cached_offsets.cache_info()
        self.counts["lattice.offsets_cache.hits"] = info.hits
        self.counts["lattice.offsets_cache.misses"] = info.misses
        self.counts["constrb.cosets_swept"] = sum(
            len(lat.discriminant.torsion2_reps) for lat in self.frame_cosets)
        self.counts["constrb.cosets_qualifying"] = sum(
            len(fc.cosets) for fc in self.frame_cosets.values())
        return {"spans": self.spans, "counts": dict(self.counts)}


def child_main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.count_fractions()
    rc = 1
    try:
        idx = len(tracer.spans)
        tracer.spans.append([IMPORT_SPAN, time.perf_counter(), None, -1])
        import voaplus.cli
        tracer.spans[idx][2] = time.perf_counter()
        tracer.install()
        rc = voaplus.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        doc = tracer.finish() if "voaplus.lattice" in sys.modules else {
            "spans": tracer.spans, "counts": dict(tracer.counts)}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return rc


# ---------------------------------------------------------------- parent side

def summarize(doc, wall_s):
    """Per-name self time, total time and calls of one traced job."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, total_s, calls = (defaultdict(float), defaultdict(float),
                              defaultdict(int))
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        total_s[name] += end - start
        calls[name] += 1
        if parent < 0:
            covered += end - start
    return {"wall_s": wall_s, "self_s": dict(self_s), "total_s": dict(total_s),
            "calls": dict(calls), "counts": doc["counts"],
            "residual_s": wall_s - covered}


def layer_metrics(summaries, untraced_wall_s):
    """The PER_LAYER metrics of one traced pass (sums over its jobs)."""
    out = defaultdict(float)
    for s in summaries:
        for mod_name, fn_name in WRAPPED:
            name = "%s.%s" % (mod_name, fn_name)
            out[name + ".self_s"] += s["self_s"].get(name, 0.0)
        for name in ("kernels.enumerate_offsets",
                     "lattice.orthogonal_group_order"):
            out[name + ".calls"] += s["calls"].get(name, 0)
        for name in ("report.stabilizer_order", "report.analyze"):
            out[name + ".total_s"] += s["total_s"].get(name, 0.0)
        for name, value in s["counts"].items():
            out[name] += value
        out["cli.import_s"] += s["self_s"].get(IMPORT_SPAN, 0.0)
        out["cli.residual_s"] += s["residual_s"]
        out["trace.job_wall_s"] += s["wall_s"]
    swept = out["constrb.cosets_swept"]
    out["constrb.qualifying_ratio"] = (
        out["constrb.cosets_qualifying"] / swept if swept else 0.0)
    out["trace.overhead_s"] = out["trace.job_wall_s"] - untraced_wall_s
    return {name: {"value": round(out[name]) if unit == "count" else out[name],
                   "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
