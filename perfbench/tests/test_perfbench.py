"""The benchmark's own tests:  python3 -m pytest perfbench/tests -q"""

import copy
import functools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
import workloads
from jobs import CheckFailed, Job, JobResult, run_job

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
GOLDEN = workloads.load_golden()


class FakeContext:
    def __init__(self, work_dir, expected=None):
        self.golden = GOLDEN
        self.work_dir = str(work_dir)
        self._expected = expected or {}

    def catalog_expected(self):
        return self._expected


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(*args):
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py")]
                          + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def emit_job(tmp_path, doc, check, code=None, timeout_s=30.0):
    """A job whose process prints ``doc`` (or runs ``code``)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = code or "import sys; sys.stdout.write(open(%r).read())" % str(path)
    job = Job("fake", (), check, timeout_s)
    return run_job(job, (sys.executable, "-c", code), dict(os.environ),
                   str(tmp_path / "out"))


# ---------------------------------------------------------------- names

def test_declared_names_match_benchmark_json():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == [
        w for w in workloads.WORKLOADS if w not in workloads.SUPPLEMENTARY]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == tracing.PER_LAYER


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    result = run_benchmark("--workload", "isometry", "--seed", "1",
                           "--seconds", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in benchmark_json()[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "catalog", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------- failures

def test_correct_output_passes(tmp_path):
    result = emit_job(tmp_path, {"ok": 1}, lambda doc: None)
    assert not result.failed and result.returncode == 0


def test_nonzero_exit_is_a_failure(tmp_path):
    result = emit_job(tmp_path, {}, lambda doc: None,
                      code="import sys; print('{}'); sys.exit(3)")
    assert result.failed and result.returncode == 3
    assert result.wall_s >= 30.0           # charged its time limit


def test_timeout_is_a_failure(tmp_path):
    result = emit_job(tmp_path, {}, lambda doc: None,
                      code="import time; time.sleep(30)", timeout_s=0.5)
    assert result.failed and "timed out" in result.error


def test_unparsable_output_is_a_failure(tmp_path):
    result = emit_job(tmp_path, {}, lambda doc: None, code="print('oops')")
    assert result.failed


@pytest.mark.parametrize("coordinate", [1, "1/0"])
def test_malformed_vector_is_a_failure(tmp_path, coordinate):
    doc = {"kind": "short_vectors", "norm": "2/1", "coset": None, "count": 2,
           "vectors": [[coordinate, "0/1"], ["-1/1", "0/1"]]}
    check = functools.partial(workloads.check_short_vectors, gram=[[2]],
                              norm="2", coset=None, count=2)
    result = emit_job(tmp_path, doc, check)
    assert result.failed and result.returncode == 0


def test_one_failed_job_in_any_pass_lowers_ok_ratio():
    def job(name, failed=False):
        return JobResult(name, 1.0, 30.0, 0, "wrong" if failed else None)

    passes = [[job("a"), job("b")] for _ in range(3)]
    passes.append([job("a"), job("b", failed=True)])
    _, metrics = run.end_to_end(passes, [0.2] * 5)
    assert metrics["ok_ratio"]["value"] == pytest.approx(7 / 8)
    assert metrics["wall_s"]["value"] == pytest.approx(2.0)


def _catalog_check(tmp_path, spec):
    ctx = FakeContext(tmp_path, {"E8": {"roots": 240, "orbit_size": 2},
                                 "Z1": {"rank": 1, "even_part_det": 4}})
    jobs, _ = workloads.catalog_jobs(ctx, 1)
    return next(job.check for job in jobs if job.name == spec)


def test_catalog_check_rejects_a_wrong_field(tmp_path):
    check = _catalog_check(tmp_path, "E8")
    doc = copy.deepcopy(GOLDEN["catalog"]["E8"])
    check(doc)
    doc["lattice"]["roots"] = 238
    with pytest.raises(CheckFailed):
        check(doc)
    doc = copy.deepcopy(GOLDEN["catalog"]["E8"])
    doc["orbit"]["classes"].pop()
    with pytest.raises(CheckFailed):
        check(doc)
    result = emit_job(tmp_path, doc, check)
    assert result.failed and "CheckFailed" in result.error


def test_catalog_check_accepts_additive_fields(tmp_path):
    check = _catalog_check(tmp_path, "Z1")
    doc = copy.deepcopy(GOLDEN["catalog"]["Z1"])
    doc["diagnostics"] = {"stages": []}
    doc["even_part"]["extra"] = 1
    check(doc)


def test_short_vector_check():
    gram = [[2, -1], [-1, 2]]                          # A2
    doc = {"kind": "short_vectors", "norm": "2/1", "coset": None, "count": 6,
           "vectors": [["-1/1", "-1/1"], ["-1/1", "0/1"], ["0/1", "-1/1"],
                       ["0/1", "1/1"], ["1/1", "0/1"], ["1/1", "1/1"]]}
    workloads.check_short_vectors(doc, gram, "2", None, 6)
    bad = copy.deepcopy(doc)
    bad["vectors"][0] = ["1/1", "-1/1"]                # norm 6
    with pytest.raises(CheckFailed):
        workloads.check_short_vectors(bad, gram, "2", None, 6)
    bad["vectors"][0] = ["1/1", "1/1"]                 # duplicate
    with pytest.raises(CheckFailed):
        workloads.check_short_vectors(bad, gram, "2", None, 6)
    with pytest.raises(CheckFailed):                   # theta count differs
        workloads.check_short_vectors(doc, gram, "2", None, 8)


def test_isometry_check_rejects_a_wrong_order(tmp_path):
    jobs, _ = workloads.isometry_jobs(FakeContext(tmp_path), 1)
    job = next(j for j in jobs if j.name == "sqrt2*A6")
    assert job.env == {"VOAPLUS_RANK_BOUND": "6"}
    doc = copy.deepcopy(GOLDEN["isometry"]["sqrt2*A6"])
    job.check(doc)
    doc["isometry_order"] //= 2
    with pytest.raises(CheckFailed):
        job.check(doc)


def test_skewed_check_compares_with_the_standard_basis(tmp_path):
    jobs, inputs = workloads.skewed_jobs(FakeContext(tmp_path), 1)
    job = jobs[0]
    with open(job.argv[1], encoding="utf-8") as fh:
        gram = json.load(fh)["gram"]
    doc = copy.deepcopy(GOLDEN["catalog"]["E8"])
    doc["lattice"]["gram"] = gram
    job.check(doc)
    doc["orbit_size"] = 1
    with pytest.raises(CheckFailed):
        job.check(doc)


# ---------------------------------------------------------------- generator

def det(gram):
    m = [[Fraction(x) for x in row] for row in gram]
    n, d = len(m), Fraction(1)
    for i in range(n):
        p = next(r for r in range(i, n) if m[r][i] != 0)
        if p != i:
            m[i], m[p], d = m[p], m[i], -d
        d *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return d


def test_skewed_generator_is_deterministic_per_seed():
    first = workloads.skewed_grams(GOLDEN, 7)
    assert first == workloads.skewed_grams(GOLDEN, 7)
    assert first != workloads.skewed_grams(GOLDEN, 8)
    bands = {dict(workloads.CATALOG_EVEN)[entry]: band
             for entry, _, band in workloads.SKEWED}
    for label, spec, gram, size in first:
        standard = GOLDEN["catalog"][spec]["lattice"]
        assert det(gram) == standard["det"]
        assert all(gram[i][j] == gram[j][i] for i in range(len(gram))
                   for j in range(len(gram)))
        lo, hi = bands[spec]
        assert lo <= size <= hi
        assert gram != standard["gram"]


def test_skewed_inputs_are_recorded(tmp_path):
    _, inputs = workloads.skewed_jobs(FakeContext(tmp_path), 5)
    assert inputs["seed"] == 5
    assert len(inputs["inputs"]) == sum(n for _, n, _ in workloads.SKEWED)
    assert all(i["max_abs_gram"] > 0 for i in inputs["inputs"])


# ---------------------------------------------------------------- tracing

def test_self_times_and_residual_add_up_to_wall_time():
    doc = {"spans": [["cli.import", 0.0, 0.2, -1],
                     ["report.analyze", 0.3, 1.0, -1],
                     ["constrb.frame_cosets", 0.4, 0.7, 1],
                     ["lattice.vectors_of_norm", 0.5, 0.6, 2]],
           "counts": {"kernels.vectors": 3}}
    s = tracing.summarize(doc, 1.25)
    assert s["self_s"]["report.analyze"] == pytest.approx(0.4)
    assert s["self_s"]["constrb.frame_cosets"] == pytest.approx(0.2)
    assert sum(s["self_s"].values()) + s["residual_s"] == pytest.approx(1.25)
    metrics = tracing.layer_metrics([s], 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.25)
    assert metrics["cli.import_s"]["value"] == pytest.approx(0.2)
