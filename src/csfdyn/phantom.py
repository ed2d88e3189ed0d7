"""Forward simulator for pulsatile phase-contrast acquisitions with
analytic ground truth: the verification backbone of the package.

The cardiac waveform is a zero-mean sum of sine harmonics starting on an
upward zero-crossing, scaled so the base stroke volume equals the
requested sv_true. Breathing modulates the instantaneous flow
multiplicatively during inspiration: Q(t) = Q_card(t) * (1 + m) while
inspiring, Q_card(t) otherwise.

Both acquisition routes sample one forward model, _phase: the continuous
route (generate) at each frame time, the cine-gated route
(generate_gated) at 32 phase bins of every cycle, which it then averages.
A term added to the model therefore reaches both routes. Neither builds
the whole float64 phase cube: generate fills its float32 frames one block
of about _BLOCK_VALUES values at a time, generate_gated one cycle at a
time, and both wrap each block in place with _wrap.

All randomness comes from counter-based Philox streams keyed as
(seed, stream_id), so any part of a dataset can be regenerated
independently and bit-identically: stream 1 cycle-length jitter,
stream 2 belt noise, streams 16+k per-frame phase noise, streams
2^20+k per-cycle noise of the gated reconstruction, streams 1000+k
cohort parameter jitter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .ensemble import PHASE_GRID
from .errors import InvalidSpec
from .gating import resp_label_for
from .ingest import (
    GATED_FRAMES,
    Encoding,
    PhysioKind,
    PhysioTrace,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    SeriesKind,
    VelocitySeries,
    check_fields,
    write_mask,
    write_physio,
    write_series,
)
from .reporting import make_dir, write_json

QUAD_POINTS = 1 << 17  # dense-grid quadrature resolution for truth values

#: phase values per block of frames generate() builds at once: 7 frames at
#: 192x192, 1024 at 16x16
_BLOCK_VALUES = 1 << 18
_TWO_PI = 2.0 * np.pi

# largest float32 values still inside [-pi, pi)
_PHASE32_LO = np.nextafter(np.float32(-np.pi), np.float32(0.0))
_PHASE32_HI = np.nextafter(np.float32(np.pi), np.float32(0.0))


class FlowProfile(str, Enum):
    PLUG = "PLUG"
    POISEUILLE = "POISEUILLE"


class _Section:
    """A section of PhantomSpec: its fields are checked on construction."""

    def __post_init__(self):
        check_fields(self, InvalidSpec)


@dataclass(frozen=True)
class LumenSpec(_Section):
    center_row: float = 32.0
    center_col: float = 32.0
    radius_px: float = 3.0
    profile: FlowProfile = FlowProfile.PLUG
    label: RoiLabel = RoiLabel.AQUEDUCT


@dataclass(frozen=True)
class GridSpec(_Section):
    width: int = 64
    height: int = 64
    spacing_x: float = 1.2
    spacing_y: float = 1.2
    thickness: float = 4.0


@dataclass(frozen=True)
class CardiacSpec(_Section):
    rr_mean: float = 1143.0
    rr_jitter_sd: float = 0.0
    harmonics: tuple[float, ...] = (1.0, 0.35, 0.12)
    #: base (expiration-state) stroke volume at rr_mean, mL
    sv_true: float = 0.15


@dataclass(frozen=True)
class RespSpec(_Section):
    period: float = 5000.0
    insp_fraction: float = 0.45
    modulation_insp: float = 0.0
    belt_noise_sd: float = 0.02
    belt_interval: float = 40.0
    pleth_interval: float = 10.0


@dataclass(frozen=True)
class AcquisitionSpec(_Section):
    venc: float = 10.0
    frame_interval: float = 88.0
    duration: float = 80000.0
    noise_sd_phase: float = 0.02
    background_offset: float = 0.0
    drift_amplitude: float = 0.0
    drift_period: float = 15000.0
    series_kind: SeriesKind = SeriesKind.CONTINUOUS_EPI


@dataclass(frozen=True)
class PhantomSpec:
    lumen: LumenSpec = field(default_factory=LumenSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    cardiac: CardiacSpec = field(default_factory=CardiacSpec)
    resp: RespSpec = field(default_factory=RespSpec)
    acquisition: AcquisitionSpec = field(default_factory=AcquisitionSpec)
    seed: int = 42

    def __post_init__(self):
        check_fields(self, InvalidSpec)
        g, lu, c, r, a = self.grid, self.lumen, self.cardiac, self.resp, self.acquisition
        if g.width < 2 or g.height < 2:
            raise InvalidSpec("grid must be at least 2x2")
        if g.spacing_x <= 0 or g.spacing_y <= 0 or g.thickness <= 0:
            raise InvalidSpec("grid spacings and thickness must be positive")
        if lu.radius_px <= 0:
            raise InvalidSpec("lumen radius must be positive")
        if (
            lu.center_row - lu.radius_px < 0
            or lu.center_col - lu.radius_px < 0
            or lu.center_row + lu.radius_px > g.height - 1
            or lu.center_col + lu.radius_px > g.width - 1
        ):
            raise InvalidSpec("lumen exceeds the grid")
        if lu.profile is FlowProfile.POISEUILLE and g.spacing_x != g.spacing_y:
            raise InvalidSpec("POISEUILLE profile requires isotropic pixel spacing")
        if c.rr_mean <= 0 or c.rr_jitter_sd < 0:
            raise InvalidSpec("rr_mean must be positive and jitter non-negative")
        if c.sv_true <= 0:
            raise InvalidSpec("sv_true must be positive")
        if not any(b != 0 for b in c.harmonics):
            raise InvalidSpec("waveform harmonics must not all be zero")
        if r.period <= 0 or not 0 < r.insp_fraction < 1:
            raise InvalidSpec("breathing period must be positive and insp_fraction in (0,1)")
        if r.modulation_insp <= -1:
            raise InvalidSpec("modulation_insp must keep 1+m positive")
        if r.belt_noise_sd < 0 or r.belt_interval <= 0 or r.pleth_interval <= 0:
            raise InvalidSpec("belt noise sd must be >= 0 and sample intervals positive")
        if a.venc <= 0 or a.frame_interval <= 0 or a.duration <= 0:
            raise InvalidSpec("venc, frame_interval and duration must be positive")
        if a.noise_sd_phase < 0 or a.drift_period <= 0:
            raise InvalidSpec("noise sd must be >= 0 and drift period positive")
        if a.duration < 5 * c.rr_mean:
            raise InvalidSpec("duration must cover at least 5 cardiac cycles")
        if not 0 <= self.seed < 2**63:
            raise InvalidSpec("seed must fit in 63 bits")

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhantomSpec":
        """Spec from its JSON object; omitted keys keep their defaults."""
        try:
            return cls(**d)
        except TypeError as exc:
            raise InvalidSpec(f"bad phantom spec: {exc}") from None


def default_aqueduct_spec(**overrides) -> PhantomSpec:
    """Aqueduct-scale phantom matching the default EPI timing."""
    return replace(PhantomSpec(), **overrides)


def default_spinal_spec(**overrides) -> PhantomSpec:
    """Spinal-canal-scale phantom: wider lumen, lower venc, mL-scale SV."""
    base = PhantomSpec(
        lumen=LumenSpec(radius_px=8.0, label=RoiLabel.SPINAL_CANAL),
        cardiac=CardiacSpec(sv_true=0.6),
        acquisition=AcquisitionSpec(venc=5.0),
    )
    return replace(base, **overrides)


# ---------------------------------------------------------------------------
# analytic waveform


def waveform(u, harmonics) -> np.ndarray:
    """Unit cardiac flow shape: sum of b_j * sin(2*pi*(j+1)*u).

    Zero mean over a period, zero at u = 0 with positive slope for the
    default coefficients, so phase 0 is the onset of the systolic flush.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    for j, b in enumerate(harmonics):
        if b != 0.0:
            out += b * np.sin(2.0 * np.pi * (j + 1) * u)
    return out


@lru_cache(maxsize=64)
def waveform_positive_integral(harmonics: tuple) -> float:
    """I = integral over one period of max(shape, 0) du, dense trapezoid."""
    u = np.linspace(0.0, 1.0, QUAD_POINTS + 1)
    q = np.maximum(waveform(u, harmonics), 0.0)
    h = 1.0 / QUAD_POINTS
    return float(h * (0.5 * (q[0] + q[-1]) + q[1:-1].sum()))


def flow_amplitude(spec: PhantomSpec) -> float:
    """Scale factor amp (mL/s) such that the base waveform amp*shape(u)
    carries sv_true per cycle of rr_mean (lobe-mean convention)."""
    integral = waveform_positive_integral(spec.cardiac.harmonics)
    if integral <= 0:
        raise InvalidSpec("waveform has no positive lobe; sv_true cannot be met")
    return 1000.0 * spec.cardiac.sv_true / (integral * spec.cardiac.rr_mean)


# ---------------------------------------------------------------------------
# geometry


def _pixel_distances(spec: PhantomSpec) -> np.ndarray:
    g, lu = spec.grid, spec.lumen
    rows = np.arange(g.height, dtype=np.float64)[:, None]
    cols = np.arange(g.width, dtype=np.float64)[None, :]
    return np.sqrt((rows - lu.center_row) ** 2 + (cols - lu.center_col) ** 2)


def lumen_mask(spec: PhantomSpec) -> RoiMask:
    return RoiMask(pixels=_pixel_distances(spec) <= spec.lumen.radius_px,
                   label=spec.lumen.label)


def static_mask(spec: PhantomSpec, margin_px: float = 2.0) -> RoiMask:
    """Everything safely outside the lumen."""
    return RoiMask(
        pixels=_pixel_distances(spec) > spec.lumen.radius_px + margin_px,
        label=RoiLabel.STATIC_TISSUE,
    )


@lru_cache(maxsize=8)
def _profile_weights(spec: PhantomSpec) -> tuple[np.ndarray, float]:
    """Per-pixel velocity weights w and scale s so that the velocity map
    for flux Q is v = s * Q * w (cm/s with Q in mL/s).

    PLUG divides Q evenly, so the discrete flux is exact by construction.
    POISEUILLE uses the analytic centerline velocity of a parabolic
    profile over the nominal circular area; its discrete flux carries a
    small pixelization error that shrinks with radius. Cached, so the
    gated route's per-cycle calls reuse one read-only w.
    """
    dist = _pixel_distances(spec)
    inside = dist <= spec.lumen.radius_px
    area = spec.grid.spacing_x * spec.grid.spacing_y
    if spec.lumen.profile is FlowProfile.PLUG:
        w = inside.astype(np.float64)
        scale = 1.0 / (float(inside.sum()) * area * 0.01)
    else:
        w = np.where(inside, 1.0 - (dist / spec.lumen.radius_px) ** 2, 0.0)
        radius_mm = spec.lumen.radius_px * spec.grid.spacing_x
        scale = 200.0 / (np.pi * radius_mm**2)
    w.flags.writeable = False
    return w, scale


# ---------------------------------------------------------------------------
# ground truth


@dataclass
class GroundTruth:
    """Everything the simulator knows and the pipeline must recover."""

    spec: PhantomSpec
    amplitude: float
    onsets: np.ndarray
    rr: np.ndarray
    insp_time_fraction: np.ndarray
    resp_label: list
    sv_per_cycle: np.ndarray
    sv_exp: float
    sv_insp: float
    modulation: float
    #: internal onset list extended one cycle past the acquisition window
    _onsets_ext: np.ndarray = field(repr=False, default=None)

    def inspiration(self, t) -> np.ndarray:
        """True respiratory state at time t (ms)."""
        return _in_inspiration(self.spec.resp, np.asarray(t, dtype=np.float64))

    def cardiac_phase(self, t) -> np.ndarray:
        """Phase in [0,1) within the cycle active at each time."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.clip(np.searchsorted(self._onsets_ext, t, side="right") - 1,
                      0, self._onsets_ext.size - 2)
        rr = np.diff(self._onsets_ext)[idx]
        return (t - self._onsets_ext[idx]) / rr

    def q(self, t) -> np.ndarray:
        """Analytic lumen flux Q(t) in mL/s including modulation."""
        base = self.amplitude * waveform(self.cardiac_phase(t),
                                         self.spec.cardiac.harmonics)
        return base * (1.0 + self.modulation * self.inspiration(t))

    def to_json_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "amplitude_ml_per_s": self.amplitude,
            "onsets_ms": self.onsets.tolist(),
            "rr_ms": self.rr.tolist(),
            "insp_time_fraction": self.insp_time_fraction.tolist(),
            "resp_label": [lab.value for lab in self.resp_label],
            "sv_per_cycle_ml": self.sv_per_cycle.tolist(),
            "sv_exp_ml": self.sv_exp,
            "sv_insp_ml": self.sv_insp,
            "modulation": self.modulation,
        }


@dataclass
class PhantomDataset:
    series: VelocitySeries
    belt: PhysioTrace
    plethysmo: PhysioTrace
    truth: GroundTruth
    lumen: RoiMask
    static: RoiMask


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _draw_onsets(spec: PhantomSpec) -> np.ndarray:
    """Cycle start times from 0 until one full cycle past the duration."""
    c = spec.cardiac
    rng = _rng(spec.seed, 1)
    onsets = [0.0]
    while onsets[-1] <= spec.acquisition.duration:
        rr = c.rr_mean + (rng.normal(0.0, c.rr_jitter_sd) if c.rr_jitter_sd > 0 else 0.0)
        rr = max(rr, 0.3 * c.rr_mean)
        onsets.append(onsets[-1] + rr)
    return np.asarray(onsets, dtype=np.float64)


def _in_inspiration(resp: RespSpec, t: np.ndarray) -> np.ndarray:
    """Whether each time t (ms) lies in inspiration: the first
    insp_fraction of its breathing period."""
    return np.mod(t, resp.period) < resp.insp_fraction * resp.period


def _insp_time_in(spec: PhantomSpec, t0: float, t1: float) -> float:
    """Exact inspiration time within [t0, t1)."""
    p = spec.resp.period
    w = spec.resp.insp_fraction * p

    def upto(t: float) -> float:
        n, r = divmod(t, p)
        return n * w + min(r, w)

    return upto(t1) - upto(t0)


def _make_truth(spec: PhantomSpec) -> GroundTruth:
    amp = flow_amplitude(spec)
    onsets_ext = _draw_onsets(spec)
    onsets = onsets_ext[onsets_ext <= spec.acquisition.duration]
    rr = np.diff(onsets_ext)[: onsets.size - 1]
    m = spec.resp.modulation_insp
    harmonics = spec.cardiac.harmonics

    fracs = np.array(
        [_insp_time_in(spec, o, o + r) / r for o, r in zip(onsets[:-1], rr)]
    )
    labels = [resp_label_for(f) for f in fracs]
    # per-cycle volume by dense quadrature of |Q| with the instantaneous
    # modulation (lobe-mean convention: half of total rectified volume)
    u = (np.arange(4096, dtype=np.float64) + 0.5) / 4096
    shape_abs = np.abs(waveform(u, harmonics))
    sv_cycle = np.empty(rr.size)
    for k, (o, r) in enumerate(zip(onsets[:-1], rr)):
        gain = 1.0 + m * _in_inspiration(spec.resp, o + u * r)
        sv_cycle[k] = 0.5 * amp * float(np.mean(shape_abs * gain)) * r / 1000.0

    sv_exp = spec.cardiac.sv_true
    return GroundTruth(
        spec=spec,
        amplitude=amp,
        onsets=onsets,
        rr=rr,
        insp_time_fraction=fracs,
        resp_label=labels,
        sv_per_cycle=sv_cycle,
        sv_exp=sv_exp,
        sv_insp=(1.0 + m) * sv_exp,
        modulation=m,
        _onsets_ext=onsets_ext,
    )


def _wrap(phase: np.ndarray) -> np.ndarray:
    """Wrap float64 phase to [-pi, pi) in place, as the scanner's phase
    difference does, and return it.

    Bit for bit np.mod(phase + pi, 2 pi) - pi: for y = phase + pi in
    [0, 2 pi) np.mod(y, 2 pi) is y itself, so only values outside that
    range go through np.mod.
    """
    phase += np.pi
    outside = ~((phase >= 0.0) & (phase < _TWO_PI))
    phase[outside] = np.mod(phase[outside], _TWO_PI)
    phase -= np.pi
    return phase


def _phase(spec: PhantomSpec, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Noise-free, unwrapped phase maps at times t (ms) for lumen flux q
    (mL/s): the profile-weighted velocity plus the static offset and the
    drift, times pi / venc. Shape (t.size, height, width)."""
    a = spec.acquisition
    w, scale = _profile_weights(spec)
    v = (scale * q)[:, None, None] * w[None, :, :]
    drift = a.drift_amplitude * np.sin(2.0 * np.pi * t / a.drift_period)
    v += (a.background_offset + drift)[:, None, None]
    return np.pi * v / a.venc


def _header(spec: PhantomSpec, n_frames: int, frame_interval: float,
            encoding: Encoding) -> SeriesHeader:
    g, a = spec.grid, spec.acquisition
    return SeriesHeader(
        width=g.width, height=g.height, n_frames=n_frames,
        pixel_spacing_x=g.spacing_x, pixel_spacing_y=g.spacing_y, slice_thickness=g.thickness,
        venc=a.venc, frame_interval=frame_interval, t0=0.0,
        encoding=encoding, series_kind=a.series_kind,
    )


def generate(spec: PhantomSpec) -> PhantomDataset:
    """Simulate one continuous acquisition plus belt and plethysmograph.

    Each frame samples the forward model (_phase) at its own time, adds
    Gaussian phase noise from its own stream, wraps into [-pi, pi) so
    aliasing emerges naturally when |v| > venc, then quantizes to float32
    like a real reconstruction would. Frames are built in blocks of about
    _BLOCK_VALUES float64 values, each wrapped in place and cast into the
    preallocated float32 frames, so no float64 array of the whole series
    is ever held; the frames are the same bits at any block size.
    """
    if spec.acquisition.series_kind is not SeriesKind.CONTINUOUS_EPI:
        raise InvalidSpec("generate() builds CONTINUOUS_EPI series; "
                          "use generate_gated() for GATED_CONV")
    a = spec.acquisition
    truth = _make_truth(spec)

    n_frames = int(a.duration // a.frame_interval)
    t = np.arange(n_frames, dtype=np.float64) * a.frame_interval
    q = truth.q(t)
    frames = np.empty((n_frames, spec.grid.height, spec.grid.width), dtype=np.float32)
    step = max(1, _BLOCK_VALUES // (spec.grid.height * spec.grid.width))
    for start in range(0, n_frames, step):
        blk = slice(start, start + step)
        phase = _phase(spec, t[blk], q[blk])
        if a.noise_sd_phase > 0:
            for k, frame in enumerate(phase, start):
                frame += _rng(spec.seed, 16 + k).normal(
                    0.0, a.noise_sd_phase, size=frame.shape
                )
        frames[blk] = _wrap(phase)
        # float32 rounding can land exactly on +-pi: clip back inside
        np.clip(frames[blk], _PHASE32_LO, _PHASE32_HI, out=frames[blk])
    header = _header(spec, n_frames, a.frame_interval, Encoding.PHASE_RADIANS)

    r = spec.resp
    n_belt = int(a.duration // r.belt_interval) + 1
    tb = np.arange(n_belt, dtype=np.float64) * r.belt_interval
    breath = np.mod(tb, r.period) / r.period
    f = r.insp_fraction
    belt_clean = np.where(
        breath < f,
        0.5 - 0.5 * np.cos(np.pi * breath / f),
        0.5 + 0.5 * np.cos(np.pi * (breath - f) / (1.0 - f)),
    )
    belt_vals = belt_clean + _rng(spec.seed, 2).normal(0.0, r.belt_noise_sd, size=n_belt)
    belt = PhysioTrace(sample_interval=r.belt_interval, t0=0.0,
                       samples=belt_vals, kind=PhysioKind.RESP_BELT)

    n_pleth = int(a.duration // r.pleth_interval) + 1
    tp = np.arange(n_pleth, dtype=np.float64) * r.pleth_interval
    pleth_vals = 1.0 - np.cos(2.0 * np.pi * truth.cardiac_phase(tp))
    plethysmo = PhysioTrace(sample_interval=r.pleth_interval, t0=0.0,
                            samples=pleth_vals, kind=PhysioKind.CARDIAC_PLETHYSMO)

    return PhantomDataset(
        series=VelocitySeries(header=header, frames=frames),
        belt=belt,
        plethysmo=plethysmo,
        truth=truth,
        lumen=lumen_mask(spec),
        static=static_mask(spec),
    )


def generate_gated(spec: PhantomSpec) -> VelocitySeries:
    """Retrospectively gated 32-frame reconstruction of the same subject.

    Each bin b collects one noisy velocity sample per simulated cycle at
    phase b/32 and averages them, exactly as cine gating would; the
    respiratory modulation therefore blurs into the mean instead of
    appearing as two distinct states.
    """
    if spec.acquisition.series_kind is not SeriesKind.GATED_CONV:
        raise InvalidSpec("generate_gated() needs series_kind = GATED_CONV")
    a = spec.acquisition
    truth = _make_truth(spec)
    n_cycles = truth.rr.size
    if n_cycles < 1:
        raise InvalidSpec("duration holds no complete cardiac cycle")
    q_card = truth.amplitude * waveform(PHASE_GRID, spec.cardiac.harmonics)

    mean = np.zeros((GATED_FRAMES, spec.grid.height, spec.grid.width), dtype=np.float64)
    for k in range(n_cycles):
        t_kb = truth.onsets[k] + PHASE_GRID * truth.rr[k]
        phase = _phase(spec, t_kb, q_card * (1.0 + truth.modulation * truth.inspiration(t_kb)))
        if a.noise_sd_phase > 0:
            phase += _rng(spec.seed, (1 << 20) + k).normal(
                0.0, a.noise_sd_phase, size=phase.shape
            )
        mean += _wrap(phase) * (a.venc / np.pi)
    mean /= n_cycles
    header = _header(spec, GATED_FRAMES, spec.cardiac.rr_mean / GATED_FRAMES,
                     Encoding.VELOCITY_CMPS)
    return VelocitySeries(header=header, frames=mean)


# ---------------------------------------------------------------------------
# cohort


@dataclass(frozen=True)
class CohortJitter:
    """Per-subject spread of the physiology parameters."""

    rr_sd_ms: float = 60.0
    sv_rel_sd: float = 0.15
    modulation_sd: float = 0.01


@dataclass(frozen=True)
class CohortSubject:
    subject_id: str
    spec: PhantomSpec


def cohort(
    n_subjects: int,
    base: PhantomSpec | None = None,
    jitter: CohortJitter | None = None,
    seed: int = 7,
) -> list[CohortSubject]:
    """Deterministic list of subject specs varied around a base spec."""
    if n_subjects < 1:
        raise InvalidSpec("cohort needs at least one subject")
    base = base if base is not None else default_aqueduct_spec()
    jitter = jitter if jitter is not None else CohortJitter()
    subjects = []
    for k in range(n_subjects):
        rng = _rng(seed, 1000 + k)
        # numpy scalars: the spec's field check stores them as float
        rr = np.clip(base.cardiac.rr_mean + rng.normal(0.0, jitter.rr_sd_ms), 600.0, 1800.0)
        sv = base.cardiac.sv_true * max(0.2, 1.0 + rng.normal(0.0, jitter.sv_rel_sd))
        mod = np.clip(base.resp.modulation_insp + rng.normal(0.0, jitter.modulation_sd),
                      0.0, 0.5)
        spec = replace(
            base,
            cardiac=replace(base.cardiac, rr_mean=rr, sv_true=sv),
            resp=replace(base.resp, modulation_insp=mod),
            seed=(seed * 1_000_003 + 7919 * (k + 1)) % (2**63),
        )
        subjects.append(CohortSubject(subject_id=f"S{k + 1:02d}", spec=spec))
    return subjects


# ---------------------------------------------------------------------------
# disk layout


def save_dataset(ds: PhantomDataset, outdir) -> dict:
    """Write one subject's files; returns name -> path mapping."""
    outdir = make_dir(outdir)
    paths = {
        "series": outdir / "series.csfd",
        "belt": outdir / "belt.csv",
        "plethysmo": outdir / "plethysmo.csv",
        "lumen": outdir / "lumen.pgm",
        "static": outdir / "static.pgm",
        "truth": outdir / "truth.json",
    }
    write_series(ds.series, paths["series"])
    write_physio(ds.belt, paths["belt"])
    write_physio(ds.plethysmo, paths["plethysmo"])
    write_mask(ds.lumen, paths["lumen"])
    write_mask(ds.static, paths["static"])
    write_json(paths["truth"], ds.truth.to_json_dict())
    return {k: str(v) for k, v in paths.items()}
