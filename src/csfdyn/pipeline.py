"""End-to-end subject processing: velocity conversion, flow extraction,
gating, ensemble reconstruction, and stroke volume metrics, with every
failure attributed to its pipeline stage.

The velocity and flow stages read the series once per pass, a block of
pixels at a time, and fold the blocks into per-pixel moments and
per-frame sums (prepare_velocity). A job holds one block plus vectors
with one value per frame or per pixel, however long the recording: no
velocity map is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

from .ensemble import (
    INTERP_MODES,
    MIN_SAMPLES,
    PHASE_GRID,
    CanonicalCycle,
    EnsembleCurves,
    build_ensembles,
    resample_cycle,  # noqa: F401 -- bench/spans.py looks it up in this module
    resample_cycles,
)
from .errors import CsfdynError, InputError, InvalidSpec, warn
from .flow import (
    FlowSamples,
    extract_flow,  # noqa: F401 -- bench/spans.py looks it up in this module
    refine_roi,
    streamed_flow,
    streamed_seed_reference,
)
from .gating import (
    DEFAULT_HYSTERESIS,
    DEFAULT_MAX_RR,
    DEFAULT_MIN_RR,
    DEFAULT_SMOOTHING_MS,
    CycleBoundaries,
    LabeledCycle,
    RespLabel,
    RespPhases,
    classify_resp,
    detect_cycles_from_flow,
    detect_cycles_from_plethysmo,
    label_cycles,
)
from .ingest import (
    PhysioTrace,
    RoiLabel,
    RoiMask,
    SeriesKind,
    VelocitySeries,
    check_fields,
    ensure_same_grid,
)
from .metrics import (
    SvConvention,
    SvReport,
    VolumeUnit,
    reversal_check,
    stroke_volume,
    sv_modulation,
)
from .velocity import (
    as_velocity_field,  # noqa: F401 -- bench/spans.py looks it up in this module
    background_correct,  # noqa: F401 -- bench/spans.py looks it up in this module
    check_static_mask,
    phase_to_velocity,  # noqa: F401 -- bench/spans.py looks it up in this module
    pixel_moments,
    static_offset,
    unwrap_temporal,  # noqa: F401 -- bench/spans.py looks it up in this module
)


GATES = ("flow", "plethysmo")
UNITS = ("auto",) + tuple(u.value for u in VolumeUnit)  # auto: uL for AQUEDUCT, mL otherwise
#: pixels the seed's bounding box is first padded by when refining
_PAD = 4
_EIGHT = np.ones((3, 3), dtype=bool)  # 8-connectivity, as refine_roi's


@dataclass(frozen=True)
class PipelineParams:
    """Every knob of the subject pipeline in one place: defaults here,
    allowed values checked once on construction (InvalidSpec), echoed
    verbatim into reports."""

    min_rr: float = DEFAULT_MIN_RR
    max_rr: float = DEFAULT_MAX_RR
    smoothing_window: float = DEFAULT_SMOOTHING_MS
    hysteresis: float = DEFAULT_HYSTERESIS
    interp: str = "spline"
    sv_convention: SvConvention = SvConvention.LOBE_MEAN
    unit: str = "auto"
    flip_sign: bool = False
    anchor: int = 0
    refine_threshold: float | None = None
    gate: str = "flow"

    def __post_init__(self):
        check_fields(self, InvalidSpec)
        for name, allowed in (("interp", INTERP_MODES), ("unit", UNITS), ("gate", GATES)):
            if getattr(self, name) not in allowed:
                raise InvalidSpec(
                    f"{name}: must be one of {', '.join(allowed)}; got {getattr(self, name)!r}"
                )
        if not self.smoothing_window > 0:
            raise InvalidSpec(f"smoothing_window: must be positive; got {self.smoothing_window}")


@dataclass
class SubjectResult:
    """Everything cmd_process reports on one subject."""

    params: PipelineParams
    roi_label: RoiLabel
    unit: VolumeUnit
    background_offset: float | None
    flow: FlowSamples
    boundaries: CycleBoundaries | None
    phases: RespPhases | None
    cycles: list[LabeledCycle]
    canonical: list[CanonicalCycle]
    curves: EnsembleCurves
    sv_global: SvReport
    sv_insp: SvReport | None
    sv_exp: SvReport | None
    modulation: float | None
    reversal: dict
    n_skipped_cycles: int = 0
    notes: list[str] = field(default_factory=list)


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CsfdynError as exc:
        if getattr(exc, "stage", None) is None:
            exc.stage = stage
        raise


def _resolve_unit(params: PipelineParams, roi_label: RoiLabel) -> VolumeUnit:
    if params.unit == "auto":
        return VolumeUnit.UL if roi_label is RoiLabel.AQUEDUCT else VolumeUnit.ML
    return VolumeUnit(params.unit)


def prepare_velocity(
    series: VelocitySeries,
    roi: RoiMask,
    static: RoiMask | None,
    params: PipelineParams,
) -> tuple[FlowSamples, RoiMask, float | None]:
    """Stages 1-2: encoding, unwrap, background offset, ROI refinement
    when refine_threshold is set, the ROI's flow, and the sign convention.

    Each pass streams the input series (pixel_moments, pixel_sums) and
    reads only the pixels it needs, wrapped pixels included, so its cost
    follows the ROI, not the field of view:
    - both masks are checked before any pass reads the series, the
      static mask first, so a mask that does not fit is refused before
      any pass has run or warned;
    - the static offset and the StaticTissueWarning come from one
      static_offset call (its docstring says which pixels it reads),
      made before refinement;
    - refinement correlates the pixels of a box around the seed with the
      seed's mean velocity (_grown_refinement), and gets the whole grid's
      refined ROI to the bit;
    - the seed's mean velocity and the flow are per-frame sums over the
      ROI, the offset taken off each velocity as it is added.
    No velocity map is built: a job holds one block plus vectors with one
    value per frame or per pixel. Returns the flow, the final ROI and the
    offset.

    All of it runs in the series' own sign; the sign convention is applied
    here alone, at the end. flip_sign negates the flow and the offset, an
    exact zero kept positive: the same bits as negating every velocity,
    and the same refined ROI, whose correlations do not change sign.
    """
    if static is not None:
        _staged("velocity", check_static_mask, static, series.header)
    _staged("flow", ensure_same_grid, roi, series.header)
    offset = None
    if static is not None:
        offset = _staged("velocity", static_offset, series, static, params.anchor)
    if params.refine_threshold is not None:
        roi = _grown_refinement(series, roi, params.refine_threshold, params.anchor)
    flow = _staged("velocity", streamed_flow, series, roi, params.anchor, offset)
    if params.flip_sign:
        flow.q = -flow.q + 0.0
        if offset is not None:
            offset = -offset + 0.0
    return flow, roi, offset


def _grown_refinement(series: VelocitySeries, seed: RoiMask, threshold: float,
                      anchor: int) -> RoiMask:
    """refine_roi of the whole grid's moments, to the bit, from the moments
    of the seed's bounding box padded by _PAD pixels.

    A pixel's moments do not depend on the other pixels of the pass, so a
    kept 8-connected component with no neighbour outside the box is the
    whole grid's component. While a kept pixel has one, the pad doubles
    and the box is read again, until the box is the whole grid.
    """
    ref = _staged("velocity", streamed_seed_reference, series, seed, anchor)
    rows, cols = ndimage.find_objects(seed.pixels.astype(np.int8))[0]
    pad = _PAD
    while True:
        box = np.zeros_like(seed.pixels)
        box[max(rows.start - pad, 0) : rows.stop + pad,
            max(cols.start - pad, 0) : cols.stop + pad] = True
        moments = _staged("velocity", pixel_moments, series, box, ref, anchor)
        roi = _staged("flow", refine_roi, moments, seed, threshold)
        if not (ndimage.binary_dilation(roi.pixels, _EIGHT) & ~box).any():
            return roi
        pad *= 2


def process_subject(
    series: VelocitySeries,
    roi: RoiMask,
    params: PipelineParams | None = None,
    static: RoiMask | None = None,
    belt: PhysioTrace | None = None,
    plethysmo: PhysioTrace | None = None,
) -> SubjectResult:
    """Run the whole chain on one subject.

    A continuous series needs a belt trace (and optionally a
    plethysmograph when params.gate = "plethysmo"); a gated series is
    reduced to metrics directly. Raised errors carry a .stage attribute
    naming the pipeline stage that refused.
    """
    params = params or PipelineParams()
    unit = _resolve_unit(params, roi.label)
    flow, roi, offset = prepare_velocity(series, roi, static, params)

    boundaries = phases = None
    cycles: list[LabeledCycle] = []
    n_skipped = 0
    notes = []
    if series.header.series_kind is SeriesKind.GATED_CONV:
        # already one reconstructed cycle: its 32 samples are adopted as
        # the global curve with no gating stage
        rr = series.header.n_frames * series.header.frame_interval
        canonical = [CanonicalCycle(flow.q, 0, RespLabel.MIXED, float(rr))]
        notes.append("gated series: cardiac gating already applied at acquisition")
    else:
        if belt is None:
            raise InputError("a respiratory belt trace is required for continuous series",
                             ).with_stage("gating")
        if params.gate == "plethysmo":
            if plethysmo is None:
                raise InputError("gate=plethysmo needs a plethysmograph trace"
                                 ).with_stage("gating")
            boundaries = _staged(
                "gating", detect_cycles_from_plethysmo, plethysmo, params.min_rr, params.max_rr
            )
        else:
            boundaries = _staged(
                "gating", detect_cycles_from_flow, flow, params.min_rr, params.max_rr
            )
        phases = _staged("gating", classify_resp, belt, params.smoothing_window,
                         params.hysteresis)
        cycles = _staged("gating", label_cycles, boundaries, phases, flow)

        usable = []
        for cyc in cycles:
            if cyc.n_samples < MIN_SAMPLES:
                n_skipped += 1
                warn(f"cycle at {cyc.start:.0f} ms dropped: {cyc.n_samples} samples "
                     f"cannot support resampling")
            else:
                usable.append(cyc)
        canonical = resample_cycles(usable, params.interp)
    curves = _staged("ensemble", build_ensembles, canonical)

    sv: dict[str, SvReport] = {}
    reversal = {}
    for state, curve, rr in (
        ("global", curves.global_mean, curves.mean_rr_global),
        ("inspiration", curves.insp_mean, curves.mean_rr_insp),
        ("expiration", curves.exp_mean, curves.mean_rr_exp),
    ):
        if curve is not None:
            sv[state] = _staged("metrics", stroke_volume, curve, rr, unit,
                                params.sv_convention)
            reversal[state] = reversal_check(curve)
    modulation = None
    if "inspiration" in sv and "expiration" in sv:
        modulation = _staged("metrics", sv_modulation, sv["inspiration"], sv["expiration"])

    return SubjectResult(
        params=params,
        roi_label=roi.label,
        unit=unit,
        background_offset=offset,
        flow=flow,
        boundaries=boundaries,
        phases=phases,
        cycles=cycles,
        canonical=canonical,
        curves=curves,
        sv_global=sv["global"],
        sv_insp=sv.get("inspiration"),
        sv_exp=sv.get("expiration"),
        modulation=modulation,
        reversal=reversal,
        n_skipped_cycles=n_skipped,
        notes=notes,
    )


def result_to_report(result: SubjectResult, version: str, inputs: dict) -> dict:
    """Assemble the JSON-ready subject report."""

    def sv_dict(sv: SvReport | None):
        if sv is None:
            return None
        return {
            "sv": sv.sv,
            "v_plus": sv.v_plus,
            "v_minus": sv.v_minus,
            "net_flow_ml_per_min": sv.net_flow,
            "flush_duration_fraction": sv.flush_duration_fraction,
            "direction_reversals": sv.direction_reversals,
            "mean_rr_ms": sv.mean_rr,
            "unit": sv.unit.value,
            "convention": sv.convention.value,
        }

    curves = result.curves
    gating = None
    if result.boundaries is not None:
        gating = {
            "method": result.boundaries.method.value,
            "n_cycles": result.boundaries.n_cycles,
            "mean_rr_ms": result.boundaries.mean_rr,
            "rr_cv": result.boundaries.rr_cv,
        }
    return {
        "kind": "subject",
        "version": version,
        "inputs": inputs,
        "config": asdict(result.params),
        "roi_label": result.roi_label.value,
        "unit": result.unit.value,
        "interpolation": result.params.interp,
        "background_offset_cmps": result.background_offset,
        "gating": gating,
        "ensembles": {
            "n_global": curves.n_global,
            "n_insp": curves.n_insp,
            "n_exp": curves.n_exp,
            "n_mixed": curves.n_mixed,
            "n_skipped": result.n_skipped_cycles,
            "mean_rr_global_ms": curves.mean_rr_global,
            "mean_rr_insp_ms": curves.mean_rr_insp,
            "mean_rr_exp_ms": curves.mean_rr_exp,
        },
        "sv": {
            "global": sv_dict(result.sv_global),
            "inspiration": sv_dict(result.sv_insp),
            "expiration": sv_dict(result.sv_exp),
        },
        "sv_modulation": result.modulation,
        "reversal": result.reversal,
        "curves": {
            "phase": PHASE_GRID.tolist(),
            "global_mean": curves.global_mean.tolist(),
            "global_sd": curves.global_sd.tolist(),
            "insp_mean": None if curves.insp_mean is None else curves.insp_mean.tolist(),
            "insp_sd": None if curves.insp_sd is None else curves.insp_sd.tolist(),
            "exp_mean": None if curves.exp_mean is None else curves.exp_mean.tolist(),
            "exp_sd": None if curves.exp_sd is None else curves.exp_sd.tolist(),
        },
        "notes": result.notes,
    }
