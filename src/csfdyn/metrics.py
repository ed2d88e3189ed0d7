"""Stroke volume and cycle-shape descriptors of a 32-point flow curve.

Volumes integrate by the trapezoid rule on the periodic uniform grid,
which for a closed cycle collapses to dt * sum(samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivisionByZeroSv, NonFinite, ValueOutOfRange
from .ingest import GATED_FRAMES

#: dead band for direction decisions, mL/s
REVERSAL_EPS = 1e-6


class VolumeUnit(str, Enum):
    ML = "mL"
    UL = "uL"


class SvConvention(str, Enum):
    #: sv = mean of positive and negative lobe volumes
    LOBE_MEAN = "lobe-mean"
    #: sv = volume of the positive (systolic flush) lobe alone
    FLUSH_LOBE = "flush-lobe"


@dataclass
class SvReport:
    """Volumes and shape numbers for one reconstructed cycle.

    sv, v_plus and v_minus are expressed in `unit`; net_flow is always
    mL/min regardless of the volume unit.
    """

    sv: float
    v_plus: float
    v_minus: float
    net_flow: float
    flush_duration_fraction: float
    direction_reversals: int
    mean_rr: float
    unit: VolumeUnit = VolumeUnit.ML
    convention: SvConvention = SvConvention.LOBE_MEAN


def _circular_sign_changes(q: np.ndarray) -> int:
    """Sign changes walking once around the periodic curve, zeros skipped."""
    signs = np.sign(q)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs != np.roll(signs, -1)))


def stroke_volume(
    curve: np.ndarray,
    rr: float,
    unit: VolumeUnit = VolumeUnit.ML,
    convention: SvConvention = SvConvention.LOBE_MEAN,
) -> SvReport:
    """Integrate one 32-point cycle into lobe volumes and stroke volume.

    v_plus is the volume carried while q > 0, v_minus while q < 0 (both
    reported positive). Under the lobe-mean convention
    sv = (v_plus + v_minus) / 2; under flush-lobe sv = v_plus.
    """
    q = np.asarray(curve, dtype=np.float64)
    if q.shape != (GATED_FRAMES,):
        raise ValueOutOfRange(f"curve must hold exactly {GATED_FRAMES} points")
    if not np.all(np.isfinite(q)):
        raise NonFinite("curve contains non-finite values")
    if not rr > 0:
        raise ValueOutOfRange(f"rr must be positive, got {rr}")
    dt_s = rr / GATED_FRAMES / 1000.0  # grid step in seconds
    v_plus_ml = dt_s * float(np.maximum(q, 0.0).sum())
    v_minus_ml = dt_s * float(np.maximum(-q, 0.0).sum())
    if convention is SvConvention.LOBE_MEAN:
        sv_ml = 0.5 * (v_plus_ml + v_minus_ml)
    else:
        sv_ml = v_plus_ml
    scale = 1000.0 if unit is VolumeUnit.UL else 1.0
    return SvReport(
        sv=sv_ml * scale,
        v_plus=v_plus_ml * scale,
        v_minus=v_minus_ml * scale,
        net_flow=(v_plus_ml - v_minus_ml) / rr * 60000.0,
        flush_duration_fraction=float((q > 0).mean()),
        direction_reversals=_circular_sign_changes(q),
        mean_rr=float(rr),
        unit=unit,
        convention=convention,
    )


def sv_modulation(insp: SvReport, exp: SvReport) -> float:
    """Relative stroke volume excess of inspiration over expiration:
    (sv_insp - sv_exp) / sv_exp. Both reports must share a unit and an
    sv convention (ValueOutOfRange otherwise)."""
    for a, b in ((insp.unit, exp.unit), (insp.convention, exp.convention)):
        if a is not b:
            raise ValueOutOfRange(f"cannot compare {a.value} against {b.value}")
    if exp.sv == 0.0:
        raise DivisionByZeroSv("expiration stroke volume is zero")
    return (insp.sv - exp.sv) / exp.sv


def reversal_check(curve: np.ndarray) -> bool:
    """True iff the cycle crosses zero in both directions, i.e. holds
    points above +1e-6 and below -1e-6 mL/s."""
    q = np.asarray(curve, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise NonFinite("curve contains non-finite values")
    return bool((q > REVERSAL_EPS).any() and (q < -REVERSAL_EPS).any())
