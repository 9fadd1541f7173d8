"""lapwalk benchmark: run one workload as a closed loop and report metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 > result.jsonl

One process generates the workload's inputs from the seed, runs one warm-up
pass, then runs the job list pass after pass for ``--seconds`` and checks
every job's output. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is the result JSON; the
line before it carries quartiles, sample counts and the machine fingerprint.
``--workload all`` runs every workload, traced and untraced, in child
processes one after another, and prints their lines followed by a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
_IMPORTED = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started (Linux /proc), else since import."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _IMPORTED


def import_lapwalk():
    """Import lapwalk from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lapwalk
    import lapwalk.cli  # noqa: F401  (the CLI is what the jobs drive)

    if not Path(lapwalk.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"lapwalk imported from {lapwalk.__file__}, not from {src}")
    return lapwalk


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {p[-1] for p in map(str.split, maps) if len(p) >= 6 and "openblas" in p[-1].lower() and ".so" in p[-1]}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = ("LAPWALK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in env},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4)
    return {"min": min(values), "p25": q[0], "median": statistics.median(values), "p75": q[2], "n": len(values)}


class Runner:
    """Runs a job list pass by pass and tallies checked outcomes."""

    def __init__(self, job_list: list[jobs.Job]) -> None:
        self.jobs = job_list
        self.attempted = 0
        self.failed = 0
        self.failed_ids: list[str] = []

    def run_pass(self, tracer=None) -> list[tuple[float, float]]:
        """One pass over the jobs; returns each job's (wall, cpu) seconds.
        Outputs are checked after the timed region."""
        outputs, times = [], []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.id
            cpu0, wall0 = time.process_time(), time.perf_counter()
            outputs.append(jobs.execute(job))
            times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        for job, out in zip(self.jobs, outputs):
            self.attempted += 1
            if not jobs.passed(job, out):
                self.failed += 1
                self.failed_ids.append(job.id)
        return times


def pass_times(passes: list[list[tuple[float, float]]]) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each whole pass."""
    return [sum(w for w, _ in p) for p in passes], [sum(c for _, c in p) for p in passes]


def reference_s() -> float:
    """Wall seconds of a fixed computation that uses no lapwalk code: a
    pure-Python integer loop, then sorts and complex exponentials of numpy
    arrays, about 20 ms on one core of a 2.1 GHz Xeon. It calls no BLAS, so
    it leaves no BLAS threads spinning into the next pass's CPU time."""
    import numpy as np

    rng = np.random.default_rng(0)
    reals, phases = rng.standard_normal(100_000), 1j * rng.standard_normal(50_000)
    start = time.perf_counter()
    x, counts = 1, {}
    for i in range(60_000):
        x = (x * 31 + i) % 1_000_003
        counts[x & 255] = counts.get(x & 255, 0) + 1
    for _ in range(3):
        np.sort(reals)
        np.abs(np.exp(phases)).sum()
    return time.perf_counter() - start


def per_reference(values: list[float], refs: list[float]) -> float:
    """Median over the passes of a pass's seconds over the summed seconds of
    the reference computation run just before and just after it.

    Other tenants of a shared machine slow every kind of code alike, by up
    to a factor of two for tens of seconds to minutes; the reference around
    each pass slows with it, so the ratio varies far less from run to run
    than the pass time does, while a change to lapwalk moves only the pass."""
    return statistics.median(v / r for v, r in zip(values, refs))


@contextlib.contextmanager
def input_dir(workload: str):
    """This process's directory for generated inputs, removed afterwards."""
    workdir = OUT_DIR / f"inputs-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup(workload: str, seed: int, workdir: Path) -> tuple[Runner, float]:
    """Import, generate inputs, run the warm-up pass; returns the runner and
    the process age when ready."""
    import_lapwalk()
    runner = Runner(jobs.BUILDERS[workload](seed, workdir))
    runner.run_pass()
    return runner, process_age()


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured by a child of this script."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with input_dir(workload) as workdir:
        runner, setup_self = setup(workload, seed, workdir)
        # set-up is sampled three times: by this process, and by a fresh child
        # before measuring and another after it, so that the samples span the run
        setups = [setup_self]
        if not trace:
            setups.append(probe_setup(workload, seed))
        passes, refs, traced, traced_spans = [], [], [], []
        tracer = spans.Tracer() if trace else None
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or (trace and not traced):
            if tracer is not None and len(passes) > len(traced):
                tracer.spans = []
                tracer.install()
                try:
                    traced.append(runner.run_pass(tracer))
                finally:
                    tracer.restore()
                traced_spans.append(tracer.spans)
            else:
                before = reference_s()
                passes.append(runner.run_pass())
                refs.append(before + reference_s())
    if not trace:
        setups.append(probe_setup(workload, seed))

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, cpus = pass_times(passes)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "pass_wall_s": quartiles(walls),
        "pass_cpu_s": quartiles(cpus),
        "reference_s": quartiles(refs),
        "job_median_wall_s": {job.id: statistics.median(p[i][0] for p in passes) for i, job in enumerate(runner.jobs)},
        "setup_s": quartiles(setups),
        "failed_frac": runner.failed / runner.attempted,
        "failed_jobs": sorted(set(runner.failed_ids)),
        "fingerprint": fingerprint(),
    }
    if trace:
        layer = spans.median_metrics([spans.pass_metrics(p) for p in traced_spans])
        traced_walls = pass_times(traced)[0]
        # each traced pass against the untraced pass just before it
        layer["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(traced_walls, walls)) - 1.0
        detail["traced_pass_wall_s"] = quartiles(traced_walls)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.LAYER_METRICS}
        write_spans(workload, detail, traced_spans)
    else:
        metrics = {
            "wall_ref": {"value": per_reference(walls, refs), "unit": "ref"},
            "cpu_ref": {"value": per_reference(cpus, refs), "unit": "ref"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


def write_spans(workload: str, detail: dict, passes) -> None:
    """All spans of the traced passes, written once at the end of the run."""
    OUT_DIR.mkdir(exist_ok=True)
    rows = [
        [[s.name, s.layer, s.start, s.end, s.parent, s.job] for s in spans_of_pass]
        for spans_of_pass in passes
    ]
    payload = {"detail": detail, "columns": ["name", "layer", "start", "end", "parent", "job"], "passes": rows}
    (OUT_DIR / f"spans-{workload}.json").write_text(json.dumps(payload))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process; prints
    every run's detail and result lines, then a summary result line."""
    attempted, failed, metrics = 0, 0, {}
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            sys.stdout.write(proc.stdout)
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics[f"{workload}/{name}"] = m
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.setup_probe:
            with input_dir(args.workload) as workdir:
                _, ready = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": ready}))
            return 0
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
