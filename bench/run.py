#!/usr/bin/env python3
"""csfdyn benchmark: fixed-seed phantom workloads run through the real
command line entry point, ``csfdyn.cli.main``, called in-process.

    python3 bench/run.py --workload wide-fov --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-test

Load is a closed loop with one client: one job at a time, the next
starting when the previous one returns, BLAS/OpenMP threads capped at
the CPUs this process may use. One run

1. builds the workload from --seed (phantom generation, files written;
   for cohort-exact also both routes processed into reports) three
   times, keeping the last copy; ``setup_s`` is the median. cohort-exact
   is built once, and its ``setup_s`` is ten times the median of its ten
   subject builds (workloads.Cohort);
2. runs one untimed job under ``tracemalloc``; its peak is
   ``peak_mem_mb`` and its output is the reference the timed jobs must
   reproduce byte for byte;
3. runs jobs back to back for --seconds (at least three); ``job_s`` is
   their median. With --trace 1, untraced and traced jobs alternate and
   the traced ones give the per-layer metrics (see spans.py); the first
   job then also records per-layer peaks.

Every job's output is checked (checks.py); a failed check or a non-zero
exit code counts the job as failed, and never stops the run. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (with --workload all, one such
line ends each workload's block); the lines above it print every metric
by name with its unit, and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_JOBS = 3


def declared() -> dict[str, dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    k = n - 10
    if k < 1:
        return f"{n} samples, too few for a percentile with 10 beyond it"
    return f"p{100.0 * k / n:.0f} {sorted(times)[k - 1]:.4f} s of {n} samples"


def run(workload, seed: int, seconds: float, trace: bool, work: Path, *,
        setups: int | None = None, min_jobs: int = MIN_JOBS, targets=None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    from spans import (ROOT as ROOT_SPAN, TARGETS, TIME_METRICS, UNMEASURED, Recorder,
                       installed, job_metrics)
    from workloads import run_cli

    targets = TARGETS if targets is None else targets
    setups = workload.setups if setups is None else setups
    setup_s, generate_s, save_s = [], [], []
    inputs = work / "inputs"
    for _ in range(setups):
        shutil.rmtree(inputs, ignore_errors=True)
        gc.collect()
        prepared = workload.setup(inputs, seed)
        setup_s.append(prepared.setup_s)
        generate_s.append(prepared.generate_s)
        save_s.append(prepared.save_s)

    gc.collect()
    first_out, out = work / "first", work / "out"
    memory = Recorder(memory=True)
    tracemalloc.start()
    try:
        with installed(memory, targets if trace else ()):
            rc = memory.call(ROOT_SPAN, run_cli, prepared.argv(first_out))
    finally:
        tracemalloc.stop()
    peak_mem_mb = memory.spans[0].peak_mb
    first_file = first_out / prepared.output
    first = first_file.read_bytes() if first_file.is_file() else b""
    once = prepared.check_once(first)
    reasons = [f"exit code {rc}"] * (rc != 0) + prepared.check(first, first) + once
    failures = [reasons] if reasons else []
    attempted = 1

    untraced, traced, per_job, accounted, spans_out = [], [], [], [], []
    unmeasured = set(memory.unmeasured)
    start = time.perf_counter()
    while len(untraced) < min_jobs or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if trace else (False,):
            gc.collect()
            if with_trace:
                recorder = Recorder()
                with installed(recorder, targets):
                    rc = recorder.call(ROOT_SPAN, run_cli, prepared.argv(out))
                span = recorder.spans[0]
                traced.append(span.end - span.start)
                per_job.append(job_metrics(recorder))
                unmeasured |= recorder.unmeasured
                accounted.append(sum(per_job[-1][k] for k in TIME_METRICS
                                     if per_job[-1][k] != UNMEASURED))
                spans_out.append([vars(s) for s in recorder.spans])
            else:
                t0 = time.perf_counter()
                rc = run_cli(prepared.argv(out))
                untraced.append(time.perf_counter() - t0)
            out_file = out / prepared.output
            blob = out_file.read_bytes() if out_file.is_file() else b""
            reasons = [f"exit code {rc}"] * (rc != 0) + prepared.check(blob, first) + once
            attempted += 1
            if reasons:
                failures.append(reasons)

    try:
        mod_err, sv_err, misses = prepared.accuracy(first)
    except (ValueError, KeyError, TypeError):
        mod_err = sv_err = UNMEASURED
        misses = []
    job_s = statistics.median(untraced)
    lines = [
        f"workload {workload.name}, seed {seed}: closed loop, 1 client, "
        f"{attempted} jobs ({len(untraced)} timed untraced), threads capped at {NPROC}",
        f"input: series {prepared.series_bytes / 1e6:.1f} MB, "
        f"job inputs {prepared.input_bytes / 1e6:.1f} MB",
        f"job_s {job_s:.4f} s (median of {len(untraced)}; {_tail(untraced)}): "
        + " ".join(f"{t:.3f}" for t in untraced),
        f"peak_mem_mb {peak_mem_mb:.1f} MB "
        f"({peak_mem_mb * 1e6 / prepared.series_bytes:.2f}x the input series)",
        f"setup_s {statistics.median(setup_s):.4f} s (median of {setups} set-ups): "
        + " ".join(f"{t:.3f}" for t in setup_s),
        f"fail_share {len(failures) / attempted:.4f} ratio "
        f"({len(failures)} of {attempted} jobs failed)",
        f"modulation_abs_err {mod_err:.5f} 1",
        f"sv_rel_err {sv_err:.5f} 1",
        f"process max RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6:.0f} MB "
        f"of {os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE') / 1e6:.0f} MB",
    ]
    lines += [f"failed: {'; '.join(r)}" for r in failures[:5]]
    lines += [f"accuracy (reported, not gated): {m}" for m in misses]
    if trace:
        metrics = {k: statistics.median(job[k] for job in per_job) for k in per_job[0]}
        peaks = job_metrics(memory)
        metrics.update({k: v for k, v in peaks.items() if k.endswith(".peak_mb")})
        metrics.update({
            "phantom.generate_s": statistics.median(generate_s),
            "phantom.save_s": statistics.median(save_s),
            "trace.job_s": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - job_s,
            "modulation_abs_err": mod_err,
            "sv_rel_err": sv_err,
        })
        lines.append(f"layer self times sum to {statistics.median(accounted):.4f} s, "
                     f"traced job_s {metrics['trace.job_s']:.4f} s (medians)")
        lines += [f"unmeasured layer: {layer}" for layer in sorted(unmeasured)]
        spans_file = WORK / f"spans-{workload.name}-seed{seed}.json"
        spans_file.write_text(json.dumps(spans_out), encoding="utf-8")
        lines.append(f"spans of {len(spans_out)} traced jobs written to {spans_file}")
    else:
        metrics = {"job_s": job_s, "peak_mem_mb": peak_mem_mb,
                   "setup_s": statistics.median(setup_s)}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def _environment() -> str:
    import numpy
    import scipy

    caps = ", ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"environment: nproc {NPROC}, python {sys.version.split()[0]}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, {caps}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="wide-fov, refine-pleth, cropped-long, cohort-exact, or all "
                             "(each in turn, one result line each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="prove the harness on tiny phantoms, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "csfdyn" / "cli.py").is_file():
        print(f"bench: csfdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.self_test:
        from selftest import self_test
        return self_test(run, WORK, declared())
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    print(_environment())
    units = declared()["per_layer" if args.trace else "end_to_end"]
    for name in names:
        work = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            result, lines = run(WORKLOADS[name], args.seed % 2**63,
                                args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for line in lines:
            print(line)
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in result["metrics"].items()}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.exit(main())
