"""nrlab benchmark: one workload, closed loop, one client, for a fixed time.

    python3 bench/run.py --workload ssb-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the program under test is the ``src/nrlab`` tree next to
this directory, never an installed copy. Jobs run back to back until
``--seconds`` have passed. Every job's output is checked against its planted
inputs. With ``--trace 0`` the run also times SETUP_SAMPLES set-ups in fresh
child interpreters, spread evenly over the same window between jobs, and
reports the end-to-end metrics; with
``--trace 1`` every other job runs with span recording installed and the run
reports the per-layer metrics. ``--workload all`` runs each workload in a
fresh process, untraced and traced, and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from layers import COUNTERS, PER_JOB, PER_LAYER_UNITS, job_traces
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
# The names of workloads.WORKLOADS, known before numpy and nrlab are imported.
WORKLOADS = ("ssb-dense", "ssb-sparse-noisy", "chamber", "cli-roundtrip")
# One BLAS/OpenMP thread: a single client on a shared 2-core box, so one
# job never competes with itself for the second core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"
SETUP_SAMPLES = 9  # odd, so that the median is one of the set-ups
TAIL_BEYOND = 10  # jobs slower than the reported tail percentile
UNITS = {"job_s_p50": "s", "job_s_tail": "s", "msps": "Msps", "peak_rss_mb": "MB", "setup_s": "s"}
# The bounded metrics. On a shared host whose speed jumps between a fast and a
# slow phase, job_s_p50 and msps land in either phase and their ten-run spread
# reached 0.37, so a run prints them but reports them as per-layer metrics.
END_TO_END = ["job_s_tail", "peak_rss_mb", "setup_s"]
# Times a fresh `import nrlab` (through the workload module) plus the
# workload's first-call warm-up, inside a child interpreter.
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); import workloads; "
               "workloads.WORKLOADS[sys.argv[1]].warm_up(); print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND jobs beyond it.

    Returns (seconds, percentile, jobs beyond). With TAIL_BEYOND or fewer
    jobs no such percentile exists and the slowest job is reported (p100).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment() -> dict:
    """What a later run needs to be comparable: code, versions, threads."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "nrlab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None  # a checkout without git metadata; never ask a repository above it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def emit(values: dict, units: dict, detail: dict, reported, attempted: int, failed: int) -> None:
    """Print every value with its unit and sample count, then the JSON result
    holding the `reported` metrics."""
    for name, value in values.items():
        print(f"{name:45s} {value:14.6g} {units[name]:12s} {detail.get(name, '')}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in reported}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def setup_seconds(name: str, env: dict) -> float:
    """One set-up, timed in a fresh child interpreter: `nrlab --version` for
    cli-roundtrip, else `import nrlab` plus the workload's warm-up."""
    if name == "cli-roundtrip":
        import workloads

        return workloads.cli_version_seconds(env)
    return float(subprocess.run([sys.executable, "-c", SETUP_PROBE, name], env=env,
                                check=True, capture_output=True, text=True).stdout)


def run_jobs(workload, args, ctx, tracer, probe=None):
    """Closed loop until the deadline. In a traced run even jobs are traced
    and odd jobs are not, so the overhead is measured under the same load.

    With a `probe`, SETUP_SAMPLES set-ups are timed between jobs, the i-th
    once i/SETUP_SAMPLES of the window has passed, so that they meet the
    host in the same states as the jobs do. Returns the job records and the
    set-up times."""
    records, setup = [], []
    n_probes = SETUP_SAMPLES if probe else 0
    min_jobs = 2 if tracer else 1
    opened = time.perf_counter()
    deadline = opened + args.seconds
    k = 0
    while k < min_jobs or time.perf_counter() < deadline:
        while (len(setup) < n_probes
               and time.perf_counter() >= opened + len(setup) * args.seconds / n_probes):
            setup.append(probe())
        job = workload.make(args.seed, k, ctx)
        traced = tracer is not None and k % 2 == 0
        ctx.span = tracer.span if traced else lambda name: nullcontext()
        with tracer.installed(k) if traced else nullcontext():
            start = time.perf_counter()
            try:
                output, error = workload.run(job, ctx), None
            except Exception:  # a raising job is a failed job
                output, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        if error is None:
            try:
                failures = workload.check(job, output)
            except Exception as exc:  # an unreadable output is a failed check
                failures = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            failures = [error]
        for failure in failures:
            print(f"job {k} failed: {failure}", file=sys.stderr)
        records.append({"job": k, "seconds": seconds, "traced": traced, "samples": job.samples,
                        "bursts": job.n_bursts, "failed": bool(failures)})
        k += 1
    while len(setup) < n_probes:
        setup.append(probe())
    return records, setup


def job_stats(records) -> tuple[dict, dict]:
    """Median, tail and capture throughput of some jobs, with their sample counts."""
    times = [r["seconds"] for r in records]
    samples = sum(r["samples"] for r in records)
    tail_s, pct, beyond = tail(times)
    values = {"job_s_p50": statistics.median(times), "job_s_tail": tail_s,
              "msps": samples / sum(times) / 1e6}
    detail = {"job_s_p50": f"median of {len(times)} jobs",
              "job_s_tail": f"p{pct:.1f} of {len(times)} jobs, {beyond} beyond",
              "msps": f"{samples} capture samples in {len(times)} jobs"}
    return values, detail


def end_to_end(records, setup, rss_mb):
    values, detail = job_stats(records)
    values |= {"peak_rss_mb": rss_mb, "setup_s": statistics.median(setup)}
    detail["setup_s"] = (f"median of {len(setup)} in child interpreters: "
                         + ", ".join(f"{s:.3f}" for s in setup))
    return values, detail


def per_layer(records, tracer):
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    traces = job_traces(tracer.spans, {r["job"]: (r["seconds"], r["bursts"]) for r in traced})
    values = {name: statistics.median(fn(t) for t in traces) for name, _, fn in PER_JOB}
    untraced_stats, untraced_detail = job_stats(untraced)
    values["job_s_p50"], values["msps"] = untraced_stats["job_s_p50"], untraced_stats["msps"]
    values["trace_overhead"] = (statistics.median(r["seconds"] for r in traced)
                                / untraced_stats["job_s_p50"])
    values["fail_ratio"] = sum(r["failed"] for r in records) / len(records)
    values["traced_jobs"] = len(traced)
    detail = {name: f"median of {len(traced)} traced jobs" for name, _, _ in PER_JOB}
    detail["job_s_p50"] = "untraced: " + untraced_detail["job_s_p50"]
    detail["msps"] = "untraced: " + untraced_detail["msps"]
    detail["trace_overhead"] = f"median of {len(traced)} traced / {len(untraced)} untraced jobs"
    detail["fail_ratio"] = f"{sum(r['failed'] for r in records)} of {len(records)} jobs"
    return {name: values[name] for name in PER_LAYER_UNITS}, detail


def run_one(args) -> int:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.warm_up()
    import nrlab

    if Path(nrlab.__file__).resolve().parent != SRC / "nrlab":
        sys.exit(f"error: imported nrlab from {nrlab.__file__}, not {SRC / 'nrlab'}")
    # A traced run reports no set-up time.
    probe = None if args.trace else partial(setup_seconds, args.workload, env)

    print("# env " + json.dumps(environment()))
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(COUNTERS) if args.trace else None
    ctx = workloads.RunContext(env=env, workdir=workdir, inproc=bool(args.trace), span=None)
    try:
        records, setup = run_jobs(workload, args, ctx, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-roundtrip" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    failed = sum(r["failed"] for r in records)
    if tracer is None:
        values, detail = end_to_end(records, setup, rss_mb)
        emit(values, UNITS, detail, END_TO_END, len(records), failed)
    else:
        values, detail = per_layer(records, tracer)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        emit(values, PER_LAYER_UNITS, detail, PER_LAYER_UNITS, len(records), failed)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"\n== {name} trace={trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nrlab" / "__init__.py").is_file():
        print(f"error: no nrlab sources at {SRC}", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
