"""The voaplus benchmark: cold CLI processes, run as a closed loop.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 60 --trace 0

One client runs the workload's jobs one after another, each a fresh
``python -m voaplus ...`` process from the checkout's ``src/``, so only one
voaplus process is alive at a time.  Every job's output is checked outside
the timed region; a nonzero exit, a timeout or a failed check makes the job
failed, and a failed job is charged its time limit.

With ``--trace 0`` the run makes at least MIN_PASSES whole passes over the
jobs and more while the next pass is expected to end within
``--seconds``, times cold ``import voaplus.cli`` processes in between
(setup_s), and reports the end-to-end metrics as medians over passes and
probes, except ok_ratio, which counts every job of every pass.
With ``--trace 1`` it runs one plain pass and one traced pass (see
tracing.py) and reports the per-layer metrics.

The last line of standard output is the result object; the lines before
it record the generated inputs and per-metric sample counts and ranges.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from jobs import Job, JobResult, run_job, spawn
from workloads import WORKLOADS, load_golden

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER = os.path.join(HERE, "tracing.py")

MIN_PASSES = 2                # so that every median has two samples or more
SETUP_PROBES = 5              # at least this many import probes a run
PROBE_EVERY_S = 2.0
RUN_BUDGET_S = 165.0          # every run must end within 180 s

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "slowest_job_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}


class Context:
    """Where the program lives and where a run may write."""

    def __init__(self, root):
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        # run the way an installed package runs, whatever the calling shell
        # sets: byte-code caches on (the warm-up job writes them), buffered
        # output
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.prefix = (sys.executable, "-m", "voaplus")
        work_root = os.path.join(HERE, ".work")
        os.makedirs(work_root, exist_ok=True)
        self.work_dir = tempfile.mkdtemp(dir=work_root)
        self.golden = load_golden()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._expected = None
        self._n = 0

    def out_path(self):
        self._n += 1
        return os.path.join(self.work_dir, "out%d" % self._n)

    def catalog_expected(self):
        """The pinned ``expected`` dicts of voaplus.catalog, by entry name."""
        if self._expected is None:
            code = ("import json; from voaplus.catalog import CATALOG; "
                    "print(json.dumps({e.name: e.expected for e in CATALOG "
                    "if e.kind != 'code'}))")
            done = subprocess.run([sys.executable, "-c", code], env=self.env,
                                  capture_output=True, timeout=60, check=True)
            self._expected = json.loads(done.stdout)
        return self._expected

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def run_pass(ctx, jobs, prefix=None, before_job=None):
    """One pass over the jobs; jobs past the run's deadline count as failed."""
    results = []
    for job in jobs:
        if before_job is not None:
            before_job()
        remaining = ctx.deadline - time.monotonic()
        if remaining <= 1.0:
            results.append(JobResult(job.name, job.timeout_s, 0.0, -1,
                                     "not started: run time budget spent"))
            continue
        results.append(run_job(job, prefix or ctx.prefix, ctx.env,
                               ctx.out_path(), timeout_s=remaining))
    for r in results:
        if r.failed:
            print("FAILED %s: %s" % (r.name, r.error), file=sys.stderr)
    return results


class SetupProbe:
    """Cold-process ``import voaplus.cli`` times, the start-up every job pays.

    Probes are spread over the run (one before a job once PROBE_EVERY_S
    have passed since the last), so that their median samples the same
    stretch of host speed as the jobs rather than one moment of it.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.times = []
        self.last = None

    def probe(self):
        argv = [sys.executable, "-c", "import voaplus.cli"]
        wall, _, rc, _ = spawn(argv, self.ctx.env, self.ctx.out_path(), 60.0)
        if rc != 0:
            raise RuntimeError("import voaplus.cli failed with exit %d" % rc)
        self.times.append(wall)
        self.last = time.monotonic()

    def maybe(self):
        if self.last is None or time.monotonic() - self.last >= PROBE_EVERY_S:
            self.probe()

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def _spread(values):
    return {"samples": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def end_to_end(passes, setup_times):
    """The end-to-end metrics of a run and the samples behind them.

    Time and memory are medians over passes; ok_ratio is taken once over
    every job of every pass, so that one failure in any pass lowers it.
    """
    results = [r for p in passes for r in p]
    samples = {
        "wall_s": [sum(r.wall_s for r in p) for p in passes],
        "slowest_job_s": [max(r.wall_s for r in p) for p in passes],
        "setup_s": setup_times,
        "peak_rss_mb": [max(r.rss_mb for r in p) for p in passes],
        "ok_ratio": [sum(not r.failed for r in results) / len(results)],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    return samples, metrics


def measure(ctx, jobs, seconds):
    probes = SetupProbe(ctx)
    passes = []
    start = now = time.monotonic()
    # whole passes only: MIN_PASSES, then another while it is expected to
    # end in time
    while (len(passes) < MIN_PASSES
           or now + (now - start) / len(passes) <= start + seconds):
        passes.append(run_pass(ctx, jobs, before_job=probes.maybe))
        now = time.monotonic()
        if now >= ctx.deadline:
            break
    samples, metrics = end_to_end(passes, probes.finish())
    print(json.dumps({"samples": {k: _spread(v) for k, v in samples.items()}}))
    print(json.dumps({"job_wall_s": {
        job.name: [p[i].wall_s for p in passes] for i, job in enumerate(jobs)}}))
    return [r for p in passes for r in p], metrics


def measure_traced(ctx, jobs):
    plain = run_pass(ctx, jobs)
    spans = [ctx.out_path() + ".spans" for _ in jobs]
    traced = []
    for job, path in zip(jobs, spans):
        traced += run_pass(ctx, [job], prefix=(sys.executable, TRACER, path))
    summaries = []
    for job, result, path in zip(jobs, traced, spans):
        if result.failed:
            continue
        with open(path, encoding="utf-8") as fh:
            s = tracing.summarize(json.load(fh), result.wall_s)
        summaries.append(s)
        print(json.dumps({"trace_job": job.name, "wall_s": s["wall_s"],
                          "self_s_sum": sum(s["self_s"].values()),
                          "residual_s": s["residual_s"],
                          "self_s": s["self_s"], "counts": s["counts"]}))
    metrics = tracing.layer_metrics(
        summaries, sum(r.wall_s for r in plain if not r.failed))
    return plain + traced, metrics


def warm_up(ctx):
    """One untimed job, so byte-code caches and the page cache are warm."""
    job = Job("warm-up", ("analyze", "A1", "--format", "json"),
              check=lambda doc: None, timeout_s=60.0)
    run_job(job, ctx.prefix, ctx.env, ctx.out_path())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "voaplus", "cli.py")):
        print("no voaplus sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    ctx = Context(ROOT)
    try:
        jobs, inputs = WORKLOADS[args.workload](ctx, args.seed)
        if inputs:
            print(json.dumps({"inputs": inputs}))
        warm_up(ctx)
        if args.trace:
            results, metrics = measure_traced(ctx, jobs)
        else:
            results, metrics = measure(ctx, jobs, args.seconds)
    finally:
        ctx.close()
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
