"""Resample labeled cycles onto a 32-point normalized cardiac grid and
average them into global, inspiration, and expiration mean curves.

CanonicalCycle is a plain row. build_ensembles checks the rows once and
stacks them, in source_cycle_id order, into one (cycles, 32) matrix;
each breathing state's curve is a masked reduction of that matrix, so
the result is bit-identical under any permutation of the input list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyEnsemble, TooFewSamples, ValueOutOfRange
from .gating import LabeledCycle, RespLabel
from .ingest import GATED_FRAMES

PHASE_GRID = np.arange(GATED_FRAMES, dtype=np.float64) / GATED_FRAMES

INTERP_MODES = ("spline", "linear")

#: fewest samples a cycle needs to be resampled
MIN_SAMPLES = 4

#: a last sample closer than this fraction of a sample step to the wrap
#: knot u[0] + 1 is dropped: it repeats phase u[0] with a different value,
#: and the periodic spline through both overshoots. On aqueduct phantoms
#: without RR jitter (1106 seeds, 32² and 192²) the spline's peak stayed
#: under (1 + 0.0043 / gap) times the cycle's largest sample, so 0.01
#: bounds a kept cycle at 1.43x; every cycle that reached 1.5x lay within
#: 0.003 steps. Dropping samples lying 0.01-0.05 steps out made
#: sv_modulation worse in 95% of the runs it touched.
WRAP_KNOT_TOLERANCE = 0.01

#: cycles interpolated per call of _periodic_interp: the spline's slope
#: systems of one batch, (_BATCH, m, m) float64, bound the working set
_BATCH = 64


class CanonicalCycle(NamedTuple):
    """One cardiac cycle resampled to 32 flow values at phases k/32.

    Phase 0 is the cycle onset (the upward zero-crossing feeding the
    systolic flush). build_ensembles checks the row.
    """

    q32: np.ndarray
    source_cycle_id: int
    resp_label: RespLabel
    rr: float


@dataclass
class EnsembleCurves:
    """Mean 32-point flow curves per breathing state.

    Empty inspiration or expiration ensembles leave their curve as None,
    never a zero-filled placeholder. Standard deviations are population
    (ddof = 0) per phase point.
    """

    global_mean: np.ndarray
    global_sd: np.ndarray
    n_global: int
    mean_rr_global: float
    insp_mean: np.ndarray | None
    insp_sd: np.ndarray | None
    n_insp: int
    mean_rr_insp: float | None
    exp_mean: np.ndarray | None
    exp_sd: np.ndarray | None
    n_exp: int
    mean_rr_exp: float | None
    n_mixed: int


def resample_cycle(cycle: LabeledCycle, mode: str = "spline") -> CanonicalCycle:
    """Interpolate one cycle's samples onto the 32-point phase grid;
    resample_cycles of a one-cycle list."""
    return resample_cycles([cycle], mode)[0]


def resample_cycles(cycles: list[LabeledCycle], mode: str = "spline") -> list[CanonicalCycle]:
    """Interpolate each cycle's samples onto the 32-point phase grid.

    Sample times are normalized to phase u = (t - start) / rr in [0, 1);
    a periodic interpolant (period 1) through the samples is evaluated at
    k/32. The interpolant reproduces the input samples at their own
    phases exactly, except a last sample lying within
    WRAP_KNOT_TOLERANCE sample steps of the wrap knot u[0] + 1, which is
    dropped. mode "spline" is a periodic cubic spline, "linear" joins
    the points with straight lines (kept for sensitivity checks).

    Cycles are checked in input order, and the first one with fewer than
    MIN_SAMPLES samples (TooFewSamples) or samples outside [start, end)
    (ValueOutOfRange) refuses the whole list. Cycles keeping the same
    number of samples are interpolated together, in batches of up to
    _BATCH, so the slope systems held at once do not grow with the cycle
    count; each cycle's values do not depend on the others in the list or
    on the batch it lands in.
    """
    if mode not in INTERP_MODES:
        raise ValueOutOfRange(f"mode must be one of {INTERP_MODES}, got {mode!r}")
    # kept sample count -> (list position, phases, flows) of each cycle
    groups: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for pos, cycle in enumerate(cycles):
        if cycle.n_samples < MIN_SAMPLES:
            raise TooFewSamples(
                f"cycle at {cycle.start:.0f} ms has {cycle.n_samples} samples, "
                f"need >= {MIN_SAMPLES}"
            )
        u = (cycle.t - cycle.start) / cycle.rr
        if (u[1:] <= u[:-1]).any() or u[0] < 0 or u[-1] >= 1:
            raise ValueOutOfRange("cycle samples must lie strictly ordered within [start, end)")
        q = cycle.q
        if u[0] + 1.0 - u[-1] < WRAP_KNOT_TOLERANCE * (u[-1] - u[-2]):
            u, q = u[:-1], q[:-1]
        groups.setdefault(u.size, []).append((pos, u, q))
    q32 = np.empty((len(cycles), GATED_FRAMES))
    for group in groups.values():
        for b in range(0, len(group), _BATCH):
            at, u, q = zip(*group[b : b + _BATCH])
            q32[list(at)] = _periodic_interp(np.stack(u), np.stack(q), mode)
    return [CanonicalCycle(row, c.cycle_id, c.resp_label, c.rr) for c, row in zip(cycles, q32)]


def _periodic_interp(u: np.ndarray, q: np.ndarray, mode: str) -> np.ndarray:
    """Period-1 interpolants through k cycles of m samples each, (k, m)
    phases u strictly increasing within [u[:, 0], u[:, 0] + 1), evaluated
    at PHASE_GRID: a (k, 32) array.

    Each interval is a cubic Hermite piece given by its end values and end
    slopes. "spline" takes the knot slopes of the periodic cubic spline:
    C2 continuity at every knot, the wrap knot u[:, 0] + 1 included, is
    one cyclic tridiagonal system per cycle (de Boor, A Practical Guide to
    Splines), the system CubicSpline(bc_type="periodic") solves. "linear"
    takes each interval's chord slope at both ends, which zeroes the
    quadratic and cubic terms.
    """
    k, m = u.shape
    dx = np.diff(u, axis=1, append=u[:, :1] + 1.0)
    chord = np.diff(q, axis=1, append=q[:, :1]) / dx
    if mode == "spline":
        # knot i joins interval i - 1 and interval i:
        # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
        #   = 3 (dx[i] chord[i-1] + dx[i-1] chord[i]), indices mod m
        dx_prev = np.roll(dx, 1, axis=1)
        i = np.arange(m)
        a = np.zeros((k, m, m))
        a[:, i, i] = 2 * (dx_prev + dx)
        a[:, i, i - 1] = dx
        a[:, i, (i + 1) % m] = dx_prev
        b = 3 * (dx * np.roll(chord, 1, axis=1) + dx_prev * chord)
        left = np.linalg.solve(a, b[..., None])[..., 0]
        right = np.roll(left, -1, axis=1)
    else:
        left = right = chord
    # power-basis coefficients of each piece in s = x - knot
    t = (left + right - 2 * chord) / dx
    cubic = t / dx
    quad = (chord - left) / dx - t

    grid = np.where(PHASE_GRID < u[:, :1], PHASE_GRID + 1.0, PHASE_GRID)
    # interval j holds knots[j] <= x < knots[j + 1]
    j = np.count_nonzero(u[:, None, :] <= grid[:, :, None], axis=2) - 1

    def at(c):
        return np.take_along_axis(c, j, axis=1)

    s = grid - at(u)
    z = s * s
    return at(q) + at(left) * s + at(quad) * z + at(cubic) * (z * s)


def build_ensembles(cycles: list[CanonicalCycle]) -> EnsembleCurves:
    """Pointwise mean and standard deviation per breathing state.

    MIXED cycles count toward the global curve only. Cycle ids must be
    unique, every q32 must hold 32 finite values and every rr must be
    positive (ValueOutOfRange). Summation order is fixed by sorting on
    the ids.
    """
    if not cycles:
        raise EmptyEnsemble("no cycles to average")
    ordered = sorted(cycles, key=lambda c: c.source_cycle_id)
    if len({c.source_cycle_id for c in ordered}) != len(ordered):
        raise ValueOutOfRange("source_cycle_id values must be unique")
    if any(np.shape(c.q32) != (GATED_FRAMES,) for c in ordered):
        raise ValueOutOfRange(f"q32 must hold exactly {GATED_FRAMES} values")
    q = np.stack([c.q32 for c in ordered]).astype(np.float64, copy=False)
    if not np.isfinite(q).all():
        raise ValueOutOfRange("q32 contains non-finite values")
    rr = np.array([c.rr for c in ordered], dtype=np.float64)
    if not (rr > 0).all():
        raise ValueOutOfRange("rr must be positive")

    def stats(label: RespLabel | None):
        sel = np.array([label is None or c.resp_label is label for c in ordered])
        if not sel.any():
            return None, None, None, 0
        rows = q if sel.all() else q[sel]
        return rows.mean(axis=0), rows.std(axis=0), float(rr[sel].mean()), int(sel.sum())

    g_mean, g_sd, g_rr, n_global = stats(None)
    i_mean, i_sd, i_rr, n_insp = stats(RespLabel.INSPIRATION)
    e_mean, e_sd, e_rr, n_exp = stats(RespLabel.EXPIRATION)
    return EnsembleCurves(
        global_mean=g_mean,
        global_sd=g_sd,
        n_global=n_global,
        mean_rr_global=g_rr,
        insp_mean=i_mean,
        insp_sd=i_sd,
        n_insp=n_insp,
        mean_rr_insp=i_rr,
        exp_mean=e_mean,
        exp_sd=e_sd,
        n_exp=n_exp,
        mean_rr_exp=e_rr,
        n_mixed=sum(c.resp_label is RespLabel.MIXED for c in ordered),
    )
