#!/usr/bin/env python3
"""
Respiratory splitting from a belt trace
========================================

Shows the pieces between the raw belt signal and the per-state stroke
volumes: hysteresis labeling of the belt, cycle labeling by time overlap,
and the inspiration/expiration ensemble split.
"""

from dataclasses import replace

import numpy as np

import csfdyn
from csfdyn.phantom import RespSpec
from csfdyn.pipeline import prepare_velocity

spec = csfdyn.default_aqueduct_spec(resp=replace(RespSpec(), modulation_insp=0.09))
ds = csfdyn.generate(spec)

# ------------------------------------------------------------------
# 1. Belt -> per-sample labels. A Schmitt trigger on the smoothed belt
#    excursion; runs shorter than 200 ms cannot appear by construction.

phases = csfdyn.classify_resp(ds.belt)
frac = phases.inspiration.mean()
flips = int(np.count_nonzero(np.diff(phases.inspiration)))
print("belt labeling")
print(f"  samples             : {phases.inspiration.size}")
print(f"  inspiration fraction: {frac:.3f} (simulated {spec.resp.insp_fraction:.3f})")
print(f"  state transitions   : {flips}"
      f"  (~{ds.belt.duration / spec.resp.period:.0f} breaths simulated)")

# ------------------------------------------------------------------
# 2. Phase maps -> ROI flow -> cycle boundaries -> labeled cycles. The
#    velocity stage streams the phase maps, unwraps them and takes off the
#    static-tissue offset as it sums the ROI's flow. A cycle is
#    INSPIRATION if at least 70% of its duration overlaps inspiration,
#    EXPIRATION below 30%, MIXED in between.

flow, _, offset = prepare_velocity(ds.series, ds.lumen, ds.static, csfdyn.PipelineParams())
print(f"\nstatic-tissue offset  : {offset:+.4f} cm/s")

bounds = csfdyn.detect_cycles_from_flow(flow)
cycles = csfdyn.label_cycles(bounds, phases, flow)

counts = {lab: sum(1 for c in cycles if c.resp_label is lab) for lab in csfdyn.RespLabel}
print("\ncycle labeling")
for lab, n in counts.items():
    print(f"  {lab.value:<12}: {n}")

# ------------------------------------------------------------------
# 3. Ensembles and the split stroke volumes. MIXED cycles only feed the
#    global average, never the respiratory contrast. Each state's volume
#    is taken over that state's own mean RR.

canonical = csfdyn.resample_cycles(cycles)
curves = csfdyn.build_ensembles(canonical)

sv_all = {}
for name, curve, rr in (("global", curves.global_mean, curves.mean_rr_global),
                        ("insp", curves.insp_mean, curves.mean_rr_insp),
                        ("exp", curves.exp_mean, curves.mean_rr_exp)):
    sv_all[name] = csfdyn.stroke_volume(curve, rr, unit=csfdyn.VolumeUnit.UL)
    print(f"\n{name} ensemble")
    print(f"  mean RR       : {rr:8.1f} ms")
    print(f"  stroke volume : {sv_all[name].sv:8.2f} uL")
    print(f"  flush peak    : {curve.max():+.4f} mL/s")

mod = csfdyn.sv_modulation(sv_all["insp"], sv_all["exp"])
print(f"\nrespiratory modulation: {mod:.3f} (simulated {spec.resp.modulation_insp:.3f})")

# the pieces above are the chain process_subject runs, so they must give
# its modulation to the last bit
whole = csfdyn.process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)
assert mod == whole.modulation, (mod, whole.modulation)
print(f"process_subject       : {whole.modulation:.3f} (identical)")
