"""Self-test of the benchmark harness on tiny phantoms (about 15 s on 2
cores), run by ``python3 bench/run.py --self-test``.

It proves three things:

1. every metric BENCHMARK.json declares is emitted with its unit, by the
   untraced and by the traced run of every workload, and nothing else is;
2. a deliberately perturbed output is counted as failed: a subject report
   whose expiration SV is moved by 10% (the tolerance is 5%), and a
   cohort.json whose Wilcoxon p is moved by 0.01;
3. a wrapped function that no longer exists is reported as an unmeasured
   layer, while the job still runs and the other layers are measured.
"""

from __future__ import annotations

import shutil
from dataclasses import replace

import csfdyn.cli

from spans import TARGETS, UNMEASURED
from workloads import WORKLOADS


def _perturbing_write_json(original, edit):
    def write_json(path, payload):
        edit(payload)
        original(path, payload)
    return write_json


def _shift_sv_exp(payload):
    payload["sv"]["expiration"]["sv"] *= 1.1


def _shift_wilcoxon(payload):
    for block in payload["per_roi"].values():
        block["wilcoxon"]["p_value"] = min(1.0, block["wilcoxon"]["p_value"] + 0.01)


def self_test(run, work_root, declared: dict[str, dict[str, str]]) -> int:
    """Returns 0 when every property holds; prints each one that does not.

    declared maps "end_to_end" and "per_layer" to {metric name: unit}.
    """
    problems = []

    def tiny_run(name, trace, tag, **kwargs):
        work = work_root / f"selftest-{tag}"
        try:
            return run(WORKLOADS[name].tiny(), 1, 0.0, trace, work,
                       setups=1, min_jobs=2, **kwargs)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = tiny_run(name, trace, f"{name}-{kind}")
            missing = sorted(set(declared[kind]) - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - set(declared[kind]))
            if missing or extra:
                problems.append(f"{name} {kind}: missing {missing}, undeclared {extra}")
            for metric, unit in declared[kind].items():
                if kind == "end_to_end" and not any(
                        line.startswith(f"{metric} ") and f" {unit} " in line for line in lines):
                    problems.append(f"{name}: {metric} not printed with its unit {unit}")
            if not result["correct"]:
                problems.append(f"{name} {kind}: tiny run failed its checks: {lines}")

    # every job's output is perturbed, the first one's too, so every job
    # must count as failed
    original = csfdyn.cli.write_json
    for name, edit in (("wide-fov", _shift_sv_exp), ("cohort-exact", _shift_wilcoxon)):
        csfdyn.cli.write_json = _perturbing_write_json(original, edit)
        try:
            result, _ = tiny_run(name, False, f"{name}-perturbed")
        finally:
            csfdyn.cli.write_json = original
        if result["failed"] != result["attempted"] or result["correct"]:
            problems.append(f"{name}: perturbed output counted {result['failed']} of "
                            f"{result['attempted']} jobs failed")

    renamed = tuple(
        replace(t, attr="unwrap_temporal_renamed") if t.attr == "unwrap_temporal" else t
        for t in TARGETS
    )
    result, lines = tiny_run("wide-fov", True, "unmeasured", targets=renamed)
    metrics = result["metrics"]
    if "unmeasured layer: velocity" not in lines:
        problems.append("a missing velocity target was not reported as unmeasured")
    if any(metrics[k] != UNMEASURED for k in metrics if k.startswith("velocity.")):
        problems.append("velocity metrics of an unmeasured layer carry values")
    if not result["correct"] or metrics["gating.cycles_detected"] <= 0:
        problems.append("the job or the other layers broke when a target was missing")

    for problem in problems:
        print(f"self-test: FAIL {problem}")
    print(f"self-test: {'FAIL' if problems else 'PASS'} "
          f"({len(WORKLOADS)} workloads, perturbed outputs, missing target)")
    return 1 if problems else 0
