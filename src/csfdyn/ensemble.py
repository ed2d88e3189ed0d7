"""Resample labeled cycles onto a 32-point normalized cardiac grid and
average them into global, inspiration, and expiration mean curves.

resample_cycles returns a CanonicalTable: one (cycles, 32) matrix plus
a column per cycle of ids, labels and RRs, which reads as a sequence of
CanonicalCycle rows. build_ensembles checks the table once and puts its
rows in source_cycle_id order; each breathing state's curve is a masked
reduction of that matrix, so the result is bit-identical under any
permutation of the input.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyEnsemble, TooFewSamples, ValueOutOfRange
from .gating import RESP_LABELS, CycleTable, LabeledCycle, RespLabel, _label_code
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


@dataclass(eq=False)
class CanonicalTable(Sequence[CanonicalCycle]):
    """Resampled cycles as one (cycles, 32) matrix and a column per cycle.

    Indexing or iterating builds a CanonicalCycle row, whose q32 is a view
    of the matrix. label holds each cycle's index into RESP_LABELS.
    """

    q32: np.ndarray
    source_cycle_id: np.ndarray
    label: np.ndarray
    rr: np.ndarray

    @classmethod
    def of(cls, rows: Sequence[CanonicalCycle]) -> CanonicalTable:
        """rows as a table: a CanonicalTable itself, or a list of rows
        stacked into one; every q32 must hold 32 values (ValueOutOfRange)."""
        if isinstance(rows, cls):
            return rows
        if any(np.shape(c.q32) != (GATED_FRAMES,) for c in rows):
            raise ValueOutOfRange(f"q32 must hold exactly {GATED_FRAMES} values")
        return cls(
            q32=np.array([c.q32 for c in rows], dtype=np.float64).reshape(-1, GATED_FRAMES),
            source_cycle_id=np.array([c.source_cycle_id for c in rows], dtype=np.int64),
            label=np.array([_label_code(c.resp_label) for c in rows], dtype=np.int8),
            rr=np.array([c.rr for c in rows], dtype=np.float64),
        )

    def take(self, rows: np.ndarray) -> CanonicalTable:
        """The cycles at rows (indices or a mask)."""
        return CanonicalTable(self.q32[rows], self.source_cycle_id[rows], self.label[rows],
                              self.rr[rows])

    def __len__(self) -> int:
        return self.source_cycle_id.size

    def __getitem__(self, k: int) -> CanonicalCycle:
        k = range(len(self))[operator.index(k)]
        return CanonicalCycle(self.q32[k], int(self.source_cycle_id[k]),
                              RESP_LABELS[self.label[k]], float(self.rr[k]))


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


def _batches(rows: np.ndarray, sizes: np.ndarray):
    """(batch, size): the given rows of each size, up to _BATCH of them at
    a time, in their order."""
    for size in np.unique(sizes[rows]).tolist():
        group = rows[sizes[rows] == size]
        for b in range(0, group.size, _BATCH):
            yield group[b : b + _BATCH], size


def resample_cycles(cycles: Sequence[LabeledCycle], mode: str = "spline") -> CanonicalTable:
    """Interpolate each cycle's samples onto the 32-point phase grid.

    Takes a CycleTable, or a list of LabeledCycle rows, which is packed
    into one. Sample times are normalized to phase u = (t - start) / rr
    in [0, 1); a periodic interpolant (period 1) through the samples is
    evaluated at k/32. The interpolant reproduces the input samples at
    their own phases exactly, except a last sample lying within
    WRAP_KNOT_TOLERANCE sample steps of the wrap knot u[0] + 1, which is
    dropped. mode "spline" is a periodic cubic spline, "linear" joins
    the points with straight lines (kept for sensitivity checks).

    Cycles are checked in input order, and the first one with fewer than
    MIN_SAMPLES samples (TooFewSamples) or samples outside [start, end)
    (ValueOutOfRange) refuses the whole input. Cycles keeping the same
    number of samples are interpolated together, in batches of up to
    _BATCH, each gathered from the table's samples by an index matrix, so
    the slope systems held at once do not grow with the cycle count; each
    cycle's values do not depend on the others in the input or on the
    batch it lands in. Returns a CanonicalTable in input order.
    """
    if mode not in INTERP_MODES:
        raise ValueOutOfRange(f"mode must be one of {INTERP_MODES}, got {mode!r}")
    table = CycleTable.of(cycles)
    n, rr = table.n_samples, table.rr

    def gather(at: np.ndarray, m: int):
        """Index matrix of the first m samples of the cycles at rows at,
        and their phases."""
        idx = table.lo[at, None] + np.arange(m)
        return idx, (table.t[idx] - table.start[at, None]) / rr[at, None]

    few = n < MIN_SAMPLES
    bad, drop = few.copy(), np.zeros(len(table), dtype=bool)
    for at, m in _batches(np.flatnonzero(~few), n):
        _, u = gather(at, m)
        bad[at] = (u[:, 1:] <= u[:, :-1]).any(axis=1) | (u[:, 0] < 0) | (u[:, -1] >= 1)
        drop[at] = u[:, 0] + 1.0 - u[:, -1] < WRAP_KNOT_TOLERANCE * (u[:, -1] - u[:, -2])
    if bad.any():
        k = int(np.argmax(bad))
        if few[k]:
            raise TooFewSamples(f"cycle at {table.start[k]:.0f} ms has {n[k]} samples, "
                                f"need >= {MIN_SAMPLES}")
        raise ValueOutOfRange("cycle samples must lie strictly ordered within [start, end)")
    q32 = np.empty((len(table), GATED_FRAMES))
    for at, m in _batches(np.arange(len(table)), n - drop):
        idx, u = gather(at, m)
        q32[at] = _periodic_interp(u, table.q[idx], mode)
    return CanonicalTable(q32, table.cycle_id, table.label, rr)


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
        left = _spline_slopes(dx, chord)
        right = np.roll(left, -1, axis=1)
    else:
        left = right = chord
    # power-basis coefficients of each piece in s = x - knot
    t = (left + right - 2 * chord) / dx
    cubic = t / dx
    quad = (chord - left) / dx - t

    grid = np.where(PHASE_GRID < u[:, :1], PHASE_GRID + 1.0, PHASE_GRID)
    # interval j of each grid point, knots[j] <= x < knots[j + 1], as a
    # flat index into the (k, m) arrays; counted a knot at a time, which
    # holds no (k, 32, m) comparison (a cropped-long job's traced peak 0.72 -> 0.77 MB)
    j = np.repeat(m * np.arange(k) - 1, GATED_FRAMES).reshape(grid.shape)
    for knot in u.T:
        j += knot[:, None] <= grid

    def at(c):
        return c.take(j)

    s = grid - at(u)
    z = s * s
    return at(q) + at(left) * s + at(quad) * z + at(cubic) * (z * s)


def _spline_slopes(dx: np.ndarray, chord: np.ndarray) -> np.ndarray:
    """Knot slopes of the periodic cubic splines whose (k, m) intervals
    have widths dx and chord slopes chord: one dense (m, m) system per
    cycle, held only while it is solved."""
    k, m = dx.shape
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
    return np.linalg.solve(a, b[..., None])[..., 0]


def build_ensembles(cycles: Sequence[CanonicalCycle]) -> EnsembleCurves:
    """Pointwise mean and standard deviation per breathing state.

    Takes a CanonicalTable, or a list of CanonicalCycle rows, which is
    packed into one. MIXED cycles count toward the global curve only.
    Cycle ids must be unique, every q32 must hold 32 finite values and
    every rr must be positive (ValueOutOfRange). Summation order is fixed
    by sorting the matrix's rows on the ids.
    """
    if not len(cycles):
        raise EmptyEnsemble("no cycles to average")
    table = CanonicalTable.of(cycles)
    ids = table.source_cycle_id
    if not (ids[1:] > ids[:-1]).all():
        # resample_cycles keeps label_cycles' id order; other rows are put in it
        # (sorting it too: a cropped-long job's traced peak 0.72 -> 0.83 MB)
        table = table.take(np.argsort(ids, kind="stable"))
        ids = table.source_cycle_id
        if (ids[1:] == ids[:-1]).any():
            raise ValueOutOfRange("source_cycle_id values must be unique")
    q, rr, label = table.q32, table.rr, table.label
    if not np.isfinite(q).all():
        raise ValueOutOfRange("q32 contains non-finite values")
    if not (rr > 0).all():
        raise ValueOutOfRange("rr must be positive")

    def stats(code: int | None):
        sel = np.ones(len(table), dtype=bool) if code is None else label == code
        if not sel.any():
            return None, None, None, 0
        rows = q if sel.all() else q[sel]
        return rows.mean(axis=0), rows.std(axis=0), float(rr[sel].mean()), int(sel.sum())

    g_mean, g_sd, g_rr, n_global = stats(None)
    i_mean, i_sd, i_rr, n_insp = stats(RESP_LABELS.index(RespLabel.INSPIRATION))
    e_mean, e_sd, e_rr, n_exp = stats(RESP_LABELS.index(RespLabel.EXPIRATION))
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
        n_mixed=int(np.count_nonzero(label == RESP_LABELS.index(RespLabel.MIXED))),
    )
