"""Tests of the benchmark itself: its checks catch wrong outputs, the seed
moves inputs but not verdicts, and tracing leaves lapwalk as it found it.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import jobs
import run
import spans


def _job(workload, seed, jid, workdir):
    return next(j for j in jobs.BUILDERS[workload](seed, workdir) if j.id == jid)


def _failures(job_list):
    runner = run.Runner(job_list)
    runner.run_pass()
    return runner.failed, runner.attempted


def test_walk_entry_off_by_1e6_is_a_failure(tmp_path):
    job = _job("walk-dense", 3, "walk-P300-0", tmp_path)
    out = job.run()
    assert jobs.passed(job, out)
    entry = json.loads(out.stdout)
    entry["re"] += 1e-6
    bad = jobs.CliResult(out.code, json.dumps(entry))
    assert not jobs.passed(job, bad)
    assert _failures([replace(job, run=lambda: bad)]) == (1, 1)


def test_off_by_one_rank_is_a_failure(tmp_path):
    for jid in ("rank-m80-a", "rank-m81-b"):
        job = _job("exact-rank", 5, jid, tmp_path)
        out = job.run()
        assert jobs.passed(job, out)
        head, tail = out.stdout.split("rank ", 1)
        rank, rest = tail.split("/", 1)
        for r in (int(rank) - 1, int(rank) + 1):
            bad = jobs.CliResult(out.code, f"{head}rank {r}/{rest}")
            assert not jobs.passed(job, bad), bad.stdout
            assert _failures([replace(job, run=lambda bad=bad: bad)]) == (1, 1)


def test_fail_suite_line_is_a_failure(tmp_path):
    job = _job("suites", 1, "verify-suite-double-cone", tmp_path)
    out = job.run()
    assert jobs.passed(job, out)
    bad = jobs.CliResult(out.code, out.stdout.replace("ok   double-cone n=3", "FAIL double-cone n=3", 1))
    assert bad.stdout != out.stdout
    assert not jobs.passed(job, bad)
    assert not jobs.passed(job, jobs.CliResult(out.code, out.stdout.replace("PASS", "FAIL")))
    assert not jobs.passed(job, jobs.CliResult(1, out.stdout))
    assert _failures([replace(job, run=lambda: bad)]) == (1, 1)


def test_raising_job_is_a_failure_and_the_pass_goes_on(tmp_path):
    def boom():
        raise ValueError("boom")

    ok = jobs.Job("fine", lambda: 0.0, jobs.check_deviation)
    assert _failures([jobs.Job("raises", boom, jobs.check_deviation), ok, ok]) == (1, 3)


def test_seed_changes_inputs_and_times_but_no_verdict(tmp_path):
    dirs = [tmp_path / "s1", tmp_path / "s2"]
    lists = []
    for seed, d in zip((1, 2), dirs):
        d.mkdir()
        lists.append(jobs.walk_dense_jobs(seed, d))
        assert _failures(lists[-1]) == (0, len(lists[-1]))
    assert (dirs[0] / "rand150.json").read_text() != (dirs[1] / "rand150.json").read_text()
    walk_outputs = [[json.loads(j.run().stdout) for j in js if j.id.startswith("walk")] for js in lists]
    assert [w["time"] for w in walk_outputs[0]] != [w["time"] for w in walk_outputs[1]]

    cones = []
    for seed, d in zip((1, 2), dirs):
        cone_jobs = [j for j in jobs.scan_jobs(seed, d) if j.id.startswith("cone")]
        assert _failures(cone_jobs) == (0, 2)
        cones.append([(d / f"{j.id}.json").read_text() for j in cone_jobs])
    assert cones[0] != cones[1]


def test_path_reference_matches_a_dense_exponential():
    n, t = 7, 2.3
    lap = np.diag([1.0] + [2.0] * (n - 2) + [1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)
    w, v = np.linalg.eigh(lap)
    dense = (v * np.exp(-1j * t * w)) @ v.T
    for u in range(n):
        assert abs(jobs.path_walk_entry(n, u, n - 1, t) - dense[n - 1, u]) < 1e-12


def _reference_sites():
    """Every lapwalk module global, module-level dict item and class
    attribute, plus numpy's eigh, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "lapwalk" or name.startswith("lapwalk."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, dict):
                    snap.update({(name, attr, k): v for k, v in value.items()})
                if isinstance(value, type):
                    snap.update({(name, attr, "cls", k): v for k, v in vars(value).items()})
    snap[("numpy.linalg", "eigh")] = np.linalg.eigh
    return snap


def test_traced_run_restores_every_wrapped_function(tmp_path):
    job_list = jobs.suites_jobs(1, tmp_path) + [_job("walk-dense", 1, "intertwine-C150", tmp_path)]
    runner = run.Runner(job_list)
    runner.run_pass()
    before = _reference_sites()
    tracer = spans.Tracer()
    tracer.install()
    sites = tracer.patched_sites()
    try:
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
        runner.run_pass(tracer)
    finally:
        tracer.restore()
    after = _reference_sites()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert all((o[k] if isinstance(o, dict) else getattr(o, k)) is f for o, k, f in sites)
    assert runner.failed == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "pst._refine_peak", "np.linalg.eigh", "suites.double-cone", "linegraph.intertwine_check"} <= names
    metrics = spans.pass_metrics(tracer.spans)
    assert metrics["pst.refine_calls"] > 0 and metrics["spectral.eigendecompose_calls"] > 0
    assert {name for name, _ in spans.LAYER_METRICS} == set(metrics) | {"trace.overhead_frac"}


def test_self_time_subtracts_the_union_of_children():
    mk = spans.Span
    s = [mk("a", "pst", 0.0, None, "j", 10.0), mk("b", "spectral", 1.0, 0, "j", 3.0),
         mk("c", "spectral", 2.0, 0, "j", 5.0), mk("d", "graphs", 7.0, 0, "j", 8.0)]
    assert spans.self_times(s) == [5.0, 2.0, 3.0, 1.0]


def test_pass_times_are_whole_passes():
    passes = [[(1.0, 2.0), (5.0, 5.0)], [(2.0, 1.0), (6.0, 6.0)], [(9.0, 9.0), (1.0, 0.5)]]
    assert run.pass_times(passes) == ([6.0, 8.0, 10.0], [7.0, 7.0, 9.5])
    assert run.per_reference([6.0, 8.0, 10.0], [2.0, 4.0, 2.0]) == 3.0


def _stalled_wall_ref(stall):
    """wall_ref of six passes of a no-op job, stalled by ``stall(i)`` seconds
    in pass i, against a constant 20 ms reference."""
    calls = itertools.count()

    def fn():
        time.sleep(stall(next(calls)))
        return 0.0

    runner = run.Runner([jobs.Job("stall", fn, jobs.check_deviation)])
    walls = run.pass_times([runner.run_pass() for _ in range(6)])[0]
    assert runner.failed == 0
    return run.per_reference(walls, [0.02] * len(walls))


def test_stall_in_most_passes_moves_wall_ref_beyond_its_bound():
    base = _stalled_wall_ref(lambda i: 0.02)
    for stall in (lambda i: 0.04, lambda i: 0.04 if i % 3 else 0.02):
        assert _stalled_wall_ref(stall) / base - 1 > 0.25


def test_reference_uses_no_lapwalk_code():
    run.import_lapwalk()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert run.reference_s() > 0
    finally:
        tracer.restore()
    assert tracer.spans == []


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref", "cpu_ref", "peak_rss_mb", "setup_s"}
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
