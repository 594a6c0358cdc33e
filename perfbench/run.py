"""Closed-loop benchmark of dgcomplete.

One client in one process runs one job at a time against the library API
(no threads; the next job starts when the previous one returns).  A job is
one exact computation on inputs generated from ``--seed``; every answer is
checked against a reference the benchmark computes itself (see
bench_reference.py), outside the timed region.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` runs the job deck (100 jobs) round after round for at least
S seconds and MIN_ROUNDS rounds and reports the end-to-end metrics.

The host's speed swings by up to half, for seconds to minutes at a time,
so the timings are given at a reference host speed.  A fixed pure-Python
probe (Fraction and dict arithmetic, independent of dgcomplete) runs
between any two jobs and around each set-up.  Every job and set-up time is
divided by the mean of the two probes beside it and multiplied by
PROBE_REF_S.  A job's time is the median of its samples, identical jobs of
the deck pooled.  The unscaled median times are printed alongside.

``--trace 1`` runs TRACE_DECKS decks untraced, then the same decks with
span tracing installed around each layer's public functions, and reports
the per-layer metrics and the tracing overhead; spans go to .bench_traces/
in the checkout.  ``--workload all`` runs each workload in a fresh process, one after
another, and prints every metric with its unit.  The last line of standard
output is always one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import bench_jobs
from bench_reference import Score
from bench_trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")

WORKLOADS = list(bench_jobs.DECKS)
SETUP_REPEATS = 25
MIN_ROUNDS = 4
TRACE_DECKS = 2
HARD_STOP_S = 150.0  # a run must end within 180 s even on a slow machine
# probe()'s median time between jobs on a quiet 2-vCPU host; alone it takes
# 2 ms at best, but each job leaves the caches cold behind it
PROBE_REF_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics the traced run adds to the tracer's own
TRACE_EXTRA = {
    "trace.jobs_per_s": "1/s",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "check.cert_frac": "ratio",
    "check.fail_frac": "ratio",
}


def probe() -> float:
    """Time a fixed 2 ms pure-Python kernel, a gauge of the host's speed."""
    t0 = time.perf_counter()
    acc, x = {}, Fraction(2, 3)
    for i in range(800):
        k = (i * 7919) % 257
        acc[k] = acc.get(k, 0) + x * (i % 11)
    return time.perf_counter() - t0


def setup(jobs: List[bench_jobs.Job]):
    """Import the library afresh and build every job's input; timed."""
    t0 = time.perf_counter()
    lib = bench_jobs.load_library(SRC)
    built = bench_jobs.build_inputs(lib, jobs)
    return time.perf_counter() - t0, lib, built


def run_decks(lib, prepared, done: Callable[[int, float, int], bool],
              score: Score, times: List[float], tracer: Tracer = None,
              speeds: Optional[List[float]] = None) -> int:
    """Run whole decks until ``done(decks, elapsed, jobs)``; returns decks run.

    Only the job call is timed; answers are read and checked between jobs.
    With ``speeds``, the host is probed between jobs, and each job's entry
    is the mean of the probes before and after it.
    """
    start = time.perf_counter()
    decks = 0
    last = probe() if speeds is not None else 0.0
    while True:
        for p in prepared:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = bench_jobs.run_job(lib, p.job, p.inputs)
                else:
                    result = tracer.span("job", bench_jobs.run_job, lib, p.job, p.inputs)
            except Exception:
                result, error = None, traceback.format_exc()
            times.append(time.perf_counter() - t0)
            if speeds is not None:
                now = probe()
                speeds.append((last + now) / 2)
                last = now
            if result is None:
                score.add_error(p.reference, f"{p.job} raised:\n{error}")
            else:
                score.add(p.reference, bench_jobs.answer(p.job, result, p.reference))
        decks += 1
        elapsed = time.perf_counter() - start
        if done(decks, elapsed, len(times)) or elapsed > HARD_STOP_S:
            return decks


def job_times(deck: List[bench_jobs.Job], samples: List[float]) -> List[float]:
    """Each deck position's median sample, identical jobs pooled.

    ``samples`` runs in deck order, round after round.
    """
    pooled: Dict[bench_jobs.Job, List[float]] = {}
    for i, t in enumerate(samples):
        pooled.setdefault(deck[i % len(deck)], []).append(t)
    return [statistics.median(pooled[job]) for job in deck]


def timing_metrics(setups: List[float], times: List[float]) -> Dict[str, float]:
    p90 = statistics.quantiles(times, n=10)[8]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_p90": p90,
    }


def result_line(score: Score, metrics) -> str:
    return json.dumps({
        "correct": score.wrong == 0 and score.failed == 0,
        "attempted": score.jobs,
        "failed": score.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(workload: str, seed: int, score: Score, metrics, notes: List[str]) -> None:
    print(f"workload {workload} seed {seed}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:<14.6g} {unit}")
    print(f"  {'cert_frac':42s} {score.cert_frac:<14.6g} ratio"
          f"  ({score.certified_right} of {score.cells} reference cells)")
    print(f"  {'fail_frac':42s} {score.fail_frac:<14.6g} ratio"
          f"  ({score.failed} of {score.jobs} jobs)")
    if score.first_error:
        print(f"  first failure: {score.first_error}")


def measure(workload: str, seed: int, seconds: int) -> None:
    jobs = bench_jobs.deck(workload, seed)
    setups, setup_speeds = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        dt, lib, built = setup(jobs)
        setups.append(dt)
        setup_speeds.append((before + probe()) / 2)
    prepared = bench_jobs.prepare(lib, jobs, built)
    score, times, speeds = Score(), [], []
    decks = run_decks(lib, prepared,
                      lambda d, el, n: el >= seconds and d >= MIN_ROUNDS,
                      score, times, speeds=speeds)
    deck = [p.job for p in prepared]
    raw = timing_metrics(setups, job_times(deck, times))
    scaled = job_times(deck, [t / v * PROBE_REF_S for t, v in zip(times, speeds)])
    values = timing_metrics([t / v * PROBE_REF_S for t, v in zip(setups, setup_speeds)],
                            scaled)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    beyond = sum(t >= values["job_s_p90"] for t in scaled)
    report(workload, seed, score, metrics, [
        f"{len(times)} jobs in {decks} rounds of {len(jobs)}; "
        f"loop throughput {len(times) / sum(times):.4g} jobs/s",
        f"job times are medians over {decks} or more samples (identical jobs pooled); "
        f"job_s_p90 from {len(scaled)} jobs, {beyond} at or above it",
        f"setup_s is the median of {SETUP_REPEATS} set-ups",
        f"timings at the reference speed (probe {PROBE_REF_S * 1e3:g} ms; here its median "
        f"was {statistics.median(speeds) * 1e3:.3f} ms); unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ])
    print(result_line(score, metrics))


def measure_traced(workload: str, seed: int) -> None:
    jobs = bench_jobs.deck(workload, seed)
    _, lib, built = setup(jobs)
    prepared = bench_jobs.prepare(lib, jobs, built)
    # one score over both passes: the traced pass must give the same answers
    score, plain_times, times = Score(), [], []
    run_decks(lib, prepared, lambda d, el, n: d >= TRACE_DECKS, score, plain_times)

    tracer = Tracer()
    tracer.install(lib)
    try:
        built = tracer.span("setup", bench_jobs.build_inputs, lib, jobs)
        # references stay the ones computed untraced above
        for p in prepared:
            p.inputs = built[(p.job.kind, p.job.build)]
        run_decks(lib, prepared, lambda d, el, n: d >= TRACE_DECKS, score, times, tracer)
    finally:
        tracer.uninstall()

    traced_rate = len(times) / sum(times)
    plain_rate = len(plain_times) / sum(plain_times)
    values = {
        "trace.jobs_per_s": traced_rate,
        "trace.untraced_jobs_per_s": plain_rate,
        "trace.overhead_ratio": plain_rate / traced_rate,
        "trace.spans": len(tracer.spans),
        "check.cert_frac": score.cert_frac,
        "check.fail_frac": score.fail_frac,
    }
    metrics = dict(tracer.metrics())
    metrics.update({k: (values[k], unit) for k, unit in TRACE_EXTRA.items()})
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl")
    tracer.write(path)
    report(workload, seed, score, metrics, [
        f"{TRACE_DECKS} decks of {len(jobs)} jobs untraced, then the same traced; "
        f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}",
    ])
    print(result_line(score, metrics))


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        if args.trace:
            measure_traced(args.workload, args.seed)
        else:
            measure(args.workload, args.seed, args.seconds)
    except bench_jobs.LibraryMissing as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
