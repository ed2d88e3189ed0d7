"""The benchmark's workloads: phantom inputs written to disk, the csfdyn
command that processes them, and the checks its output must pass.

A workload's set-up returns a Prepared job. The program only ever sees
the files the set-up wrote; phantom truth stays in the benchmark.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import csfdyn.cli
from csfdyn.gating import RespLabel
from csfdyn.ingest import SeriesKind, write_series
from csfdyn.phantom import (
    cohort,
    default_aqueduct_spec,
    default_spinal_spec,
    generate,
    generate_gated,
    save_dataset,
)

from checks import (check_cohort, check_cohort_stats, check_subject, modulation_misses,
                    subject_errors)
from spans import UNMEASURED


def run_cli(argv: list[str]) -> int:
    """One in-process ``csfdyn`` command; its console output is dropped.
    A usage error (argparse exits) returns its exit code like any other."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return csfdyn.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


@dataclass
class Prepared:
    """A built workload: how to run one job and how to judge its output."""

    #: command line of one job writing into the given output directory
    argv: Callable[[Path], list[str]]
    #: file of the output directory that the checks read
    output: str
    #: reasons one job's output (bytes) fails, given the first job's
    check: Callable[[bytes, bytes], list[str]]
    #: reasons the first job's output fails checks made once per run
    check_once: Callable[[bytes], list[str]]
    #: (modulation_abs_err, sv_rel_err) against phantom truth, and the
    #: accuracy misses that are reported but not gated
    accuracy: Callable[[bytes], tuple[float, float, list[str]]]
    series_bytes: int
    input_bytes: int
    #: seconds to build the workload, and the parts of them spent in
    #: phantom generation and in writing its files
    setup_s: float
    generate_s: float
    save_s: float


def _truth(ds) -> dict:
    """What the checks compare against. The onset count covers onsets
    that start a cycle the recording holds in full: the onset at the
    first frame, and one within a cycle of the last frame, may or may
    not show in the data (its systolic peak may lie past the end).

    ``recorded_modulation`` is the modulation the recording holds: the
    mean true SV of the cycles the phantom labels inspiration over that
    of the cycles it labels expiration, minus 1. It lies under the
    phantom's parameter ``modulation``, as cycles labelled inspiration
    hold up to 30% expiration time, and with RR jitter it varies with the
    draw: which cycles fall wholly in one breathing state depends on
    their lengths.
    """
    truth = ds.truth
    t_last = float(ds.series.header.timestamps()[-1])
    labels = np.array([label.value for label in truth.resp_label])
    sv_insp, sv_exp = (float(np.mean(truth.sv_per_cycle[labels == state.value]))
                       for state in (RespLabel.INSPIRATION, RespLabel.EXPIRATION))
    return {"modulation": truth.modulation, "recorded_modulation": sv_insp / sv_exp - 1.0,
            "sv_exp_ml": truth.sv_exp,
            "n_onsets": int(np.count_nonzero(truth.onsets[1:] <= t_last))}


def _accuracy(report: dict, truth: dict) -> tuple[float, float, list[str]]:
    return subject_errors(report, truth) + (modulation_misses(report, truth),)


def _sized(base, size: int, duration_ms: float, modulation: float, **changes):
    """base phantom spec on a size x size grid, lumen centred."""
    return replace(
        base,
        grid=replace(base.grid, width=size, height=size),
        lumen=replace(base.lumen, center_row=size / 2.0, center_col=size / 2.0),
        resp=replace(base.resp, modulation_insp=modulation),
        acquisition=replace(base.acquisition, duration=duration_ms),
        **changes,
    )


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


@dataclass(frozen=True)
class Subject:
    """One phantom subject processed by ``csfdyn process``."""

    name: str
    preset: str
    size: int
    duration_ms: float
    modulation: float
    rr_jitter_sd: float = 0.0
    refine_threshold: float | None = None
    gate: str = "flow"
    #: set-ups per run; setup_s is their median
    setups: int = 3

    def spec(self, seed: int):
        base = default_spinal_spec() if self.preset == "spinal" else default_aqueduct_spec()
        return _sized(base, self.size, self.duration_ms, self.modulation,
                      cardiac=replace(base.cardiac, rr_jitter_sd=self.rr_jitter_sd),
                      seed=seed)

    def tiny(self) -> "Subject":
        """A few-second stand-in of the same kind, for the self-test."""
        return replace(self, size=min(self.size, 24), duration_ms=min(self.duration_ms, 120000.0))

    def setup(self, inputs: Path, seed: int) -> Prepared:
        t0 = time.perf_counter()
        ds, generate_s = _timed(generate, self.spec(seed))
        paths, save_s = _timed(save_dataset, ds, inputs)
        truth = _truth(ds)
        del ds
        files = ["series", "lumen", "static", "belt"]
        argv = ["process", "--series", paths["series"], "--roi", paths["lumen"],
                "--static", paths["static"], "--belt", paths["belt"]]
        if self.refine_threshold is not None:
            argv += ["--refine-threshold", str(self.refine_threshold)]
        if self.gate == "plethysmo":
            argv += ["--gate", "plethysmo", "--plethysmo", paths["plethysmo"]]
            files.append("plethysmo")
        return Prepared(
            argv=lambda out: argv + ["--out", str(out)],
            output="report.json",
            check=lambda blob, first: check_subject(blob, first, truth),
            check_once=lambda first: [],
            accuracy=lambda first: _accuracy(json.loads(first), truth),
            series_bytes=Path(paths["series"]).stat().st_size,
            input_bytes=sum(Path(paths[f]).stat().st_size for f in files),
            setup_s=time.perf_counter() - t0,
            generate_s=generate_s,
            save_s=save_s,
        )


@dataclass(frozen=True)
class Cohort:
    """Phantom subjects by both routes, compared by ``csfdyn cohort``.

    Set-up writes each subject's continuous series and its 32-frame gated
    reconstruction, and processes both into reports, as demo 03 does.
    """

    name: str
    n_subjects: int
    size: int
    duration_ms: float
    modulation: float
    #: built once per run, as one build takes about 11 s on 2 cores; setup_s
    #: is n_subjects times the median of its subject builds instead, a
    #: median over several set-ups at the cost of one
    setups: int = 1

    def tiny(self) -> "Cohort":
        return replace(self, n_subjects=5, size=24, duration_ms=30000.0)

    def setup(self, inputs: Path, seed: int) -> Prepared:
        base = _sized(default_aqueduct_spec(), self.size, self.duration_ms, self.modulation)
        generate_s = save_s = 0.0
        entries, errors, subject_s = [], [], []
        for subject in cohort(self.n_subjects, base=base, seed=seed):
            t0 = time.perf_counter()
            sdir = inputs / subject.subject_id
            ds, dt = _timed(generate, subject.spec)
            generate_s += dt
            paths, dt = _timed(save_dataset, ds, sdir)
            save_s += dt
            truth = _truth(ds)
            del ds
            gated_spec = replace(subject.spec, acquisition=replace(
                subject.spec.acquisition, series_kind=SeriesKind.GATED_CONV))
            gated, dt = _timed(generate_gated, gated_spec)
            generate_s += dt
            _, dt = _timed(write_series, gated, sdir / "gated.csfd")
            save_s += dt
            run_cli(["process", "--series", paths["series"], "--roi", paths["lumen"],
                     "--static", paths["static"], "--belt", paths["belt"],
                     "--out", str(sdir / "epi")])
            run_cli(["process", "--series", str(sdir / "gated.csfd"),
                     "--roi", paths["lumen"], "--out", str(sdir / "conv")])
            epi = sdir / "epi" / "report.json"
            if epi.is_file():
                errors.append(subject_errors(json.loads(epi.read_bytes()), truth))
            entries.append({"id": subject.subject_id, "epi": str(epi),
                            "conv": str(sdir / "conv" / "report.json")})
            subject_s.append(time.perf_counter() - t0)
        manifest = inputs / "manifest.json"
        manifest.write_text(json.dumps({"subjects": entries}, indent=1), encoding="utf-8")
        reports = [Path(e[k]) for e in entries for k in ("epi", "conv")]
        accuracy = (
            (statistics.fmean(e[0] for e in errors), statistics.fmean(e[1] for e in errors))
            if len(errors) == self.n_subjects else (UNMEASURED, UNMEASURED)
        ) + ([],)
        return Prepared(
            argv=lambda out: ["cohort", "--pairs", str(manifest), "--out", str(out),
                              "--spearman-exact", "--paired-t"],
            output="cohort.json",
            check=check_cohort,
            check_once=check_cohort_stats,
            accuracy=lambda first: accuracy,
            series_bytes=sum((inputs / e["id"] / "series.csfd").stat().st_size
                             for e in entries),
            input_bytes=manifest.stat().st_size
            + sum(p.stat().st_size for p in reports if p.is_file()),
            setup_s=self.n_subjects * statistics.median(subject_s),
            generate_s=generate_s,
            save_s=save_s,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Subject("wide-fov", "aqueduct", 192, 80000.0, 0.09),
        Subject("refine-pleth", "spinal", 192, 80000.0, 0.08,
                refine_threshold=0.7, gate="plethysmo"),
        Subject("cropped-long", "aqueduct", 16, 600000.0, 0.09, rr_jitter_sd=0.05 * 1143.0),
        Cohort("cohort-exact", 10, 64, 80000.0, 0.08),
    )
}
