"""Shared fixtures: phantom datasets are expensive enough (~0.5 s each)
to build once per session, and the acceptance tests report a one-line
verdict per criterion at the end of the run.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import csfdyn
from csfdyn.phantom import AcquisitionSpec, LumenSpec, RespSpec

# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def default_dataset():
    """Aqueduct phantom, no respiratory modulation, 0.02 rad noise."""
    return csfdyn.generate(csfdyn.PhantomSpec())


@pytest.fixture(scope="session")
def default_result(default_dataset):
    ds = default_dataset
    return csfdyn.process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)


@pytest.fixture(scope="session")
def modulated_dataset():
    """Aqueduct phantom with 9% inspiratory flow boost."""
    spec = csfdyn.default_aqueduct_spec(resp=replace(RespSpec(), modulation_insp=0.09))
    return csfdyn.generate(spec)


@pytest.fixture(scope="session")
def modulated_result(modulated_dataset):
    ds = modulated_dataset
    return csfdyn.process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)


@pytest.fixture(scope="session")
def spinal_dataset():
    spec = csfdyn.default_spinal_spec(resp=replace(RespSpec(), modulation_insp=0.08))
    return csfdyn.generate(spec)


@pytest.fixture(scope="session")
def spinal_result(spinal_dataset):
    ds = spinal_dataset
    return csfdyn.process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)


@pytest.fixture(scope="session")
def noiseless_plug_dataset():
    spec = csfdyn.PhantomSpec(acquisition=replace(AcquisitionSpec(), noise_sd_phase=0.0))
    return csfdyn.generate(spec)


@pytest.fixture(scope="session")
def noiseless_poiseuille_dataset():
    spec = csfdyn.PhantomSpec(
        lumen=replace(LumenSpec(), profile=csfdyn.FlowProfile.POISEUILLE, radius_px=4),
        acquisition=replace(AcquisitionSpec(), noise_sd_phase=0.0),
    )
    return csfdyn.generate(spec)


@pytest.fixture(scope="session")
def long_dataset():
    """16x16 aqueduct phantom, 600 s: 6818 frames, 15,001 belt samples,
    about 525 cycles with 5% RR jitter."""
    base = csfdyn.default_aqueduct_spec()
    return csfdyn.generate(replace(
        base,
        grid=replace(base.grid, width=16, height=16),
        lumen=replace(base.lumen, center_row=8.0, center_col=8.0),
        cardiac=replace(base.cardiac, rr_jitter_sd=0.05 * base.cardiac.rr_mean),
        acquisition=replace(base.acquisition, duration=600000.0),
    ))


@pytest.fixture(scope="session")
def jittered_spinal_dataset():
    """64x64 spinal phantom with 5% RR jitter and 8% inspiratory boost."""
    base = csfdyn.default_spinal_spec(resp=replace(RespSpec(), modulation_insp=0.08))
    return csfdyn.generate(replace(
        base, seed=3, cardiac=replace(base.cardiac, rr_jitter_sd=0.05 * base.cardiac.rr_mean)))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


# ------------------------------------------------- acceptance criteria log

CRITERIA = {
    1: "respiratory modulation recovered within +/-0.02 at 0.02 rad noise, "
       "< 10 s per subject (aqueduct and spinal)",
    2: "stroke volume within 1% (plug) / 3% (parabolic, r >= 3 px) of truth",
    3: ">= 95% of onsets within one frame interval, count within +/-1, "
       "5% RR jitter",
    4: "aliased 7 cm/s peak at venc 5 recovered to 1e-5 after unwrapping",
    5: "spline resampling: 10-sample sine < 1e-3, 32-sample identity 1e-9",
    6: "exact Wilcoxon matches full 2^10 enumeration; Spearman matches "
       "rank-Pearson oracle; all-positive n=10 gives p = 0.001953125",
    7: "direction reversal present on every phantom-derived cycle curve",
    8: "conventionally gated stroke volume falls between the inspiration "
       "and expiration values from the same geometry",
    9: "byte-identical report, CSV and SVG outputs on repeated runs",
    10: "1000-case seeded invariance suites: gating, ensemble, metrics, stats",
}

_CRIT_PAT = re.compile(r"test_c(\d+)")
_results: dict[int, list[bool]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = _CRIT_PAT.search(report.nodeid)
    if m is None:
        return
    crit = int(m.group(1))
    if report.when == "call":
        _results.setdefault(crit, []).append(report.passed)
    elif report.when == "setup" and report.failed:
        _results.setdefault(crit, []).append(False)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tr = terminalreporter
    tr.write_sep("-", "acceptance criteria")
    for crit in sorted(CRITERIA):
        outcomes = _results.get(crit)
        if outcomes is None:
            continue
        ok = all(outcomes)
        word = "PASS" if ok else "FAIL"
        tr.write_line(f"[{word}] criterion {crit}: {CRITERIA[crit]}",
                      green=ok, red=not ok)
