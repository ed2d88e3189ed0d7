"""End-to-end subject processing on phantom data."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

import csfdyn
from csfdyn import (
    Encoding,
    PipelineParams,
    RespLabel,
    RoiLabel,
    SvConvention,
    VelocitySeries,
    VolumeUnit,
    process_subject,
    result_to_report,
)
from csfdyn.errors import (
    DimensionMismatch,
    DivisionByZeroSv,
    InputError,
    InvalidSpec,
    ValueOutOfRange,
    WrongKind,
)
from csfdyn.phantom import AcquisitionSpec, RespSpec
from csfdyn.pipeline import prepare_velocity


class TestProcessSubject:
    def test_populates_everything(self, default_result):
        r = default_result
        assert r.roi_label is RoiLabel.AQUEDUCT
        assert r.unit is VolumeUnit.UL  # auto unit for the aqueduct
        assert r.background_offset is not None
        assert 60 <= r.boundaries.n_cycles <= 75
        assert len(r.cycles) >= 60
        assert r.curves.global_mean.shape == (32,)
        assert r.sv_global is not None
        assert r.n_skipped_cycles == 0

    def test_cycle_count_matches_truth(self, default_dataset, default_result):
        truth_n = default_dataset.truth.onsets.size
        assert abs(default_result.boundaries.n_cycles - truth_n) <= 1

    def test_stroke_volume_close_to_truth(self, default_dataset, default_result):
        tru = 1000.0 * default_dataset.truth.spec.cardiac.sv_true
        assert default_result.sv_global.sv == pytest.approx(tru, rel=0.01)

    def test_modulation_recovered(self, modulated_result):
        assert 0.07 <= modulated_result.modulation <= 0.11

    def test_spinal_unit_is_ml(self, spinal_result):
        assert spinal_result.unit is VolumeUnit.ML
        assert spinal_result.roi_label is RoiLabel.SPINAL_CANAL
        assert 0.06 <= spinal_result.modulation <= 0.10

    def test_reversals_on_all_curves(self, default_result):
        assert all(default_result.reversal.values())

    def test_flip_sign(self, default_dataset):
        # an inverted sign convention must not change the volume estimate;
        # gating just keys on the opposite lobe
        ds = default_dataset
        params = PipelineParams(flip_sign=True)
        before = ds.series.frames.copy()
        r = process_subject(ds.series, ds.lumen, params=params,
                            static=ds.static, belt=ds.belt)
        assert np.array_equal(ds.series.frames, before)  # the input is left as it is
        tru = 1000.0 * ds.truth.spec.cardiac.sv_true
        assert r.sv_global.sv == pytest.approx(tru, rel=0.02)
        assert r.curves.global_mean.min() < 0 < r.curves.global_mean.max()

    def test_belt_required_for_continuous(self, default_dataset):
        ds = default_dataset
        with pytest.raises(InputError) as exc_info:
            process_subject(ds.series, ds.lumen, static=ds.static)
        assert exc_info.value.stage == "gating"

    def test_plethysmo_gate(self, default_dataset):
        ds = default_dataset
        params = PipelineParams(gate="plethysmo")
        r = process_subject(ds.series, ds.lumen, params=params, static=ds.static,
                            belt=ds.belt, plethysmo=ds.plethysmo)
        assert abs(r.boundaries.n_cycles - ds.truth.onsets.size) <= 1
        tru = 1000.0 * ds.truth.spec.cardiac.sv_true
        assert r.sv_global.sv == pytest.approx(tru, rel=0.02)

    def test_roi_refinement_path(self, default_dataset):
        ds = default_dataset
        # grow back the lumen from a single seed pixel
        seed = np.zeros_like(ds.lumen.pixels)
        seed[32, 32] = True
        seed_mask = csfdyn.RoiMask(seed, RoiLabel.AQUEDUCT)
        params = PipelineParams(refine_threshold=0.9)
        r = process_subject(ds.series, seed_mask, params=params,
                            static=ds.static, belt=ds.belt)
        assert r.flow.n_roi_pixels >= 0.8 * int(ds.lumen.pixels.sum())
        tru = 1000.0 * ds.truth.spec.cardiac.sv_true
        assert r.sv_global.sv == pytest.approx(tru, rel=0.05)

    def test_linear_interp_option(self, default_dataset):
        ds = default_dataset
        r = process_subject(ds.series, ds.lumen,
                            params=PipelineParams(interp="linear"),
                            static=ds.static, belt=ds.belt)
        tru = 1000.0 * ds.truth.spec.cardiac.sv_true
        assert r.sv_global.sv == pytest.approx(tru, rel=0.03)

    def test_flush_lobe_convention(self, default_dataset):
        ds = default_dataset
        r = process_subject(ds.series, ds.lumen,
                            params=PipelineParams(sv_convention=SvConvention.FLUSH_LOBE),
                            static=ds.static, belt=ds.belt)
        # v_plus is reported in the same unit as sv
        assert r.sv_global.sv == pytest.approx(r.sv_global.v_plus)

    def test_zero_expiration_sv_is_staged_refusal(self, default_dataset, monkeypatch):
        ds = default_dataset
        real = csfdyn.pipeline.stroke_volume
        monkeypatch.setattr(csfdyn.pipeline, "stroke_volume",
                            lambda *a: replace(real(*a), sv=0.0))
        with pytest.raises(DivisionByZeroSv) as exc_info:
            process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)
        assert exc_info.value.stage == "metrics"

    def test_no_overshoot_at_wrap_knot(self):
        # the first cycle's last frame falls 6.6e-6 of a period before the
        # wrap knot; resampling through it once read sv_modulation 0.262
        # against the 0.0777 the recording holds
        base = csfdyn.default_aqueduct_spec()
        spec = replace(
            base, seed=1222,
            grid=replace(base.grid, width=32, height=32),
            lumen=replace(base.lumen, center_row=16.0, center_col=16.0),
            resp=replace(base.resp, modulation_insp=0.09),
        )
        ds = csfdyn.generate(spec)
        r = process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)
        for cyc, can in zip(r.cycles, r.canonical):
            assert np.max(np.abs(can.q32)) <= 1.5 * np.max(np.abs(cyc.q))
        labels = np.array([label.value for label in ds.truth.resp_label])
        sv = ds.truth.sv_per_cycle
        recorded = sv[labels == "INSPIRATION"].mean() / sv[labels == "EXPIRATION"].mean() - 1.0
        assert r.modulation == pytest.approx(recorded, abs=0.02)

    def test_cycles_under_four_samples_are_skipped(self):
        # 300 ms frames over 1143 ms beats: every cycle holds 3 or 4 samples
        base = csfdyn.default_aqueduct_spec()
        spec = replace(
            base, seed=3,
            grid=replace(base.grid, width=24, height=24),
            lumen=replace(base.lumen, center_row=12.0, center_col=12.0),
            acquisition=replace(base.acquisition, frame_interval=300.0, duration=40000.0),
        )
        ds = csfdyn.generate(spec)
        with pytest.warns(UserWarning) as record:
            r = process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)
        short = [c for c in r.cycles if c.n_samples < 4]
        dropped = [w for w in record if "cannot support resampling" in str(w.message)]
        assert 0 < len(short) < len(r.cycles)
        assert [str(w.message) for w in dropped] == [
            f"cycle at {c.start:.0f} ms dropped: {c.n_samples} samples cannot support "
            f"resampling" for c in short
        ]
        # each warning names process_subject's caller
        assert {w.filename for w in dropped} == {__file__}
        # each short cycle is warned about once, not also by label_cycles
        for c in short:
            assert sum(f"cycle at {c.start:.0f} ms " in str(w.message) for w in record) == 1
        assert r.n_skipped_cycles == len(short)
        assert [c.source_cycle_id for c in r.canonical] == [
            c.cycle_id for c in r.cycles if c.n_samples >= 4
        ]
        report = result_to_report(r, "test", {})
        assert report["ensembles"]["n_skipped"] == len(short)
        assert report["ensembles"]["n_global"] == len(r.cycles) - len(short)

    def test_warnings_name_the_caller(self):
        # 40 ms frames put about 28 samples in each beat, and the static mask
        # takes in a lumen whose flow varies by over 10% of venc: both
        # warnings are raised below pipeline._staged
        base = csfdyn.default_aqueduct_spec()
        spec = replace(
            base,
            grid=replace(base.grid, width=24, height=24),
            lumen=replace(base.lumen, center_row=12.0, center_col=12.0),
            acquisition=replace(base.acquisition, venc=2.0, frame_interval=40.0,
                                duration=20000.0),
        )
        ds = csfdyn.generate(spec)
        static = csfdyn.RoiMask(ds.static.pixels | ds.lumen.pixels, RoiLabel.STATIC_TISSUE)
        with pytest.warns(UserWarning) as record:
            process_subject(ds.series, ds.lumen, static=static, belt=ds.belt)
        assert any("expected roughly 8-12" in str(w.message) for w in record)
        assert any(w.category is csfdyn.StaticTissueWarning for w in record)
        assert {w.filename for w in record} == {__file__}


def converted(series):
    if series.header.encoding is Encoding.PHASE_RADIANS:
        return csfdyn.phase_to_velocity(series)
    return csfdyn.as_velocity_field(series)


def full_grid_unwrapped(series, params):
    """Every pixel of the grid converted, sign-flipped and unwrapped."""
    vel = converted(series)
    frames = -vel.frames if params.flip_sign else vel.frames
    return csfdyn.unwrap_temporal(VelocitySeries(vel.header, frames), params.anchor)


def full_grid_velocity(series, roi, static, params):
    """Reference velocity stage: every pixel of the grid converted,
    unwrapped and offset-corrected; the ROI refined, and the offset taken,
    from the moments of the whole unwrapped grid; the flow extracted from
    the corrected maps over the ROI on the full grid."""
    vel = full_grid_unwrapped(series, params)
    if params.refine_threshold is not None:
        moments = csfdyn.velocity.pixel_moments(vel, np.ones(roi.pixels.shape, dtype=bool),
                                                ref=csfdyn.flow.seed_reference(vel, roi))
        roi = csfdyn.refine_roi(moments, roi, params.refine_threshold)
    with pytest.warns(csfdyn.StaticTissueWarning):
        vel, offset = csfdyn.background_correct(vel, static)
    return csfdyn.extract_flow(vel, roi), roi, offset


def pearson_roi(frames, seed, threshold):
    """Refinement by its definition, from the full frames: each pixel's
    Pearson r against the seed pixels' mean time course, thresholded, and
    the 8-connected parts that hold a qualifying seed pixel."""
    ref = frames[:, seed].mean(axis=1)
    ref_c = ref - ref.mean()
    centred = frames - frames.mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.tensordot(ref_c, centred, axes=(0, 0)) / (
            np.sqrt((ref_c**2).sum()) * np.sqrt((centred**2).sum(axis=0)))
    eligible = np.nan_to_num(r, nan=-2.0) >= threshold
    parts, _ = ndimage.label(eligible, structure=np.ones((3, 3), dtype=bool))
    return np.isin(parts, parts[seed & eligible])


class TestRoiFirstVelocity:
    """The chain takes per-pixel moments of the unwrapped velocities in one
    streamed pass and sums the ROI's velocities per frame as they stream;
    its results must equal, to the bit, those of the velocity stage run
    over the whole grid."""

    @pytest.fixture(scope="class")
    @staticmethod
    def aliased():
        # venc 1.0 lies below the lumen's peak (about 1.14 cm/s), so every
        # lumen pixel aliases; the static mask leaks into the whole lumen
        spec = csfdyn.PhantomSpec(
            acquisition=replace(AcquisitionSpec(), venc=1.0, duration=40000.0))
        ds = csfdyn.generate(spec)
        gated = csfdyn.generate_gated(replace(spec, acquisition=replace(
            spec.acquisition, series_kind=csfdyn.SeriesKind.GATED_CONV)))
        static = csfdyn.RoiMask(ds.static.pixels | ds.lumen.pixels, RoiLabel.STATIC_TISSUE)
        return ds, gated, static

    @pytest.mark.parametrize("route, params", [
        ("continuous", PipelineParams(flip_sign=True, anchor=17)),
        ("continuous", PipelineParams(flip_sign=True, anchor=17, refine_threshold=0.5)),
        # at 0.05 three weakly correlated pixels next to the lumen join it
        ("continuous", PipelineParams(flip_sign=True, anchor=17, refine_threshold=0.05)),
        ("gated", PipelineParams(flip_sign=True, anchor=3)),
    ], ids=["box", "refine", "refine-grows", "gated"])
    def test_matches_full_grid(self, aliased, route, params, monkeypatch):
        ds, gated, static = aliased
        series = gated if route == "gated" else ds.series
        # the unwrap changes static pixels, so skipping it would move the offset
        vel = converted(series)
        unwrapped = csfdyn.unwrap_temporal(vel, params.anchor)
        assert np.any((unwrapped.frames != vel.frames)[:, static.pixels])

        refined = []
        refine = csfdyn.pipeline.refine_roi
        monkeypatch.setattr(csfdyn.pipeline, "refine_roi",
                            lambda *args: refined.append(refine(*args)) or refined[-1])
        with pytest.warns(csfdyn.StaticTissueWarning):
            r = process_subject(series, ds.lumen, params, static=static, belt=ds.belt)
        if params.refine_threshold is not None:
            expected = pearson_roi(full_grid_unwrapped(series, params).frames,
                                   ds.lumen.pixels, params.refine_threshold)
            assert np.array_equal(refined[0].pixels, expected)
        monkeypatch.setattr(csfdyn.pipeline, "prepare_velocity", full_grid_velocity)
        ref = process_subject(series, ds.lumen, params, static=static, belt=ds.belt)

        assert r.background_offset == ref.background_offset
        whole = full_grid_unwrapped(series, params).frames[:, static.pixels].mean()
        assert r.background_offset == pytest.approx(whole, rel=1e-12)
        assert np.array_equal(r.flow.q, ref.flow.q)
        assert r.flow.n_roi_pixels == ref.flow.n_roi_pixels
        for name in ("global_mean", "global_sd", "insp_mean", "insp_sd", "exp_mean", "exp_sd"):
            mine, theirs = getattr(r.curves, name), getattr(ref.curves, name)
            assert (mine is None) == (theirs is None), name
            assert mine is None or np.array_equal(mine, theirs), name

    def test_roi_on_another_grid_is_flow_refusal(self, aliased, monkeypatch):
        # the static mask leaks into the lumen: a static pass would warn
        ds, _, static = aliased
        passes = spy_on_passes(monkeypatch)
        roi = csfdyn.RoiMask(np.ones((8, 8), dtype=bool), RoiLabel.AQUEDUCT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DimensionMismatch) as exc_info:
                process_subject(ds.series, roi, static=static, belt=ds.belt)
        assert exc_info.value.stage == "flow"
        assert passes == []
        assert caught == []


def spy_on_passes(monkeypatch):
    """The names of the passes over the series that the velocity and flow
    stages start; the spies stand in for them and read nothing."""
    passes = []
    for module, name in ((csfdyn.pipeline, "pixel_moments"),
                         (csfdyn.velocity, "pixel_moments"),
                         (csfdyn.flow, "pixel_sums"),
                         (csfdyn.velocity, "pixel_sums"),
                         (csfdyn.velocity, "_spans"),
                         (csfdyn.velocity, "_lattice_means")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, **kwargs: passes.append(name))
    return passes


def short_192(base, lumen=(96.0, 96.0), **acquisition):
    """base phantom spec on a 192x192 grid, 8 s long, lumen centred at
    lumen (row, column)."""
    return csfdyn.generate(replace(
        base,
        grid=replace(base.grid, width=192, height=192),
        lumen=replace(base.lumen, center_row=lumen[0], center_col=lumen[1]),
        acquisition=replace(base.acquisition, duration=8000.0, **acquisition),
    ))


def spy_on_reads(monkeypatch, means=None, quiet=None):
    """The pixel masks of every pixel_moments pass the pipeline makes,
    static_offset's included; the grids that static_offset's mean folds
    read, every pixel of their lattice, go to the list means when one is
    given. When the grid quiet is given too, each fold returns NaN for the
    pixels it reads outside quiet, so an offset that took any of those
    means is NaN."""
    reads = []
    moments, fold = csfdyn.velocity.pixel_moments, csfdyn.velocity._lattice_means

    def spy(series, pixels, *args, **kwargs):
        reads.append(pixels.copy())
        return moments(series, pixels, *args, **kwargs)

    def spy_fold(series, rows, cols):
        grid = np.zeros(series.frames.shape[1:], dtype=bool)
        grid[rows, cols] = True
        means.append(grid)
        lattice = fold(series, rows, cols)
        if quiet is not None:
            lattice[~quiet[rows, cols]] = np.nan
        return lattice

    for module in (csfdyn.pipeline, csfdyn.velocity):
        monkeypatch.setattr(module, "pixel_moments", spy)
    if means is not None:
        monkeypatch.setattr(csfdyn.velocity, "_lattice_means", spy_fold)
    return reads


class TestBoxGrownRefinement:
    """Refinement reads a box around the seed, its pad doubled while a kept
    pixel has a neighbour outside it; its ROI must equal, to the bit, that
    of the whole grid's moments."""

    @pytest.fixture(scope="class")
    @staticmethod
    def centred():
        return short_192(csfdyn.default_spinal_spec())

    @pytest.fixture(scope="class")
    @staticmethod
    def at_edge():
        # radius 8 from row 8: the seed holds pixels of row 0
        return short_192(csfdyn.default_spinal_spec(), lumen=(8.0, 120.0))

    @pytest.mark.parametrize("where, threshold", [
        ("centred", 0.7), ("centred", 0.05), ("centred", 0.0),
        ("at_edge", 0.7), ("at_edge", 0.05),
    ])
    def test_matches_full_grid(self, request, where, threshold, monkeypatch):
        ds = request.getfixturevalue(where)
        grid = np.ones(ds.lumen.pixels.shape, dtype=bool)
        ref = csfdyn.flow.streamed_seed_reference(ds.series, ds.lumen)
        whole = csfdyn.refine_roi(csfdyn.velocity.pixel_moments(ds.series, grid, ref),
                                  ds.lumen, threshold)
        reads = spy_on_reads(monkeypatch)
        params = PipelineParams(refine_threshold=threshold)
        _, roi, _ = prepare_velocity(ds.series, ds.lumen, None, params)
        assert np.array_equal(roi.pixels, whole.pixels)
        expected = pearson_roi(full_grid_unwrapped(ds.series, params).frames,
                               ds.lumen.pixels, threshold)
        assert np.array_equal(roi.pixels, expected)

        if where == "at_edge":
            assert ds.lumen.pixels[0].any()
        if threshold < 0.7:
            assert roi.n_pixels > ds.lumen.n_pixels
        if threshold == 0.0:
            # the ROI reaches the grid's edges: the last box is the grid
            assert roi.pixels[0].any() and roi.pixels[-1].any()
            assert reads[-1].all() and not reads[0].all()
        else:
            assert not reads[-1].all()

    def test_reads_follow_the_roi(self, centred, monkeypatch):
        # three static pixels flicker by 0.3 venc, one on the stride-4
        # lattice and two off it. The mean fold reads the stride-4 lattice
        # and the offset takes its means of the other static lattice
        # pixels, the moment pass reads the three, then the seed's padded
        # box: a fraction of the grid's 36,864
        static = centred.static.pixels
        flicker = np.zeros_like(static)
        flicker[[8, 9, 180], [8, 183, 10]] = True
        assert (static & flicker).sum() == 3 and (flicker[::4, ::4]).sum() == 1
        frames = centred.series.frames.copy()
        frames[1, flicker] += np.float32(0.3 * np.pi)
        series = VelocitySeries(centred.series.header, frames)
        expected = csfdyn.velocity.static_offset(series, centred.static)
        means = []
        reads = spy_on_reads(monkeypatch, means, quiet=static & ~flicker)
        _, _, offset = prepare_velocity(series, centred.lumen, centred.static,
                                        PipelineParams(refine_threshold=0.7))
        lattice = np.zeros_like(static)
        lattice[::4, ::4] = True
        rows, cols = ndimage.find_objects(centred.lumen.pixels.astype(np.int8))[0]
        box = np.zeros_like(static)
        box[rows.start - 4 : rows.stop + 4, cols.start - 4 : cols.stop + 4] = True
        assert len(means) == 1 and np.array_equal(means[0], lattice)
        assert np.float64(offset).tobytes() == np.float64(expected).tobytes()
        assert len(reads) == 2
        assert np.array_equal(reads[0], flicker) and np.array_equal(reads[1], box)
        assert sum(np.count_nonzero(pixels) for pixels in means + reads) < 5000


class TestStaticLattice:
    """The offset comes from a lattice of the static mask, and the
    StaticTissueWarning from every static pixel whose values span enough
    to raise it: the warning fires, with the same text, as it would from
    the moments of the whole mask."""

    @staticmethod
    def with_column(ds):
        # one lumen column off the stride-4 lattice of the 192x192 mask
        column = np.zeros_like(ds.static.pixels)
        column[:, 97] = True
        return csfdyn.RoiMask(ds.static.pixels | (ds.lumen.pixels & column),
                              RoiLabel.STATIC_TISSUE)

    @staticmethod
    def messages(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = fn(*args)
        return value, [str(w.message) for w in caught
                       if issubclass(w.category, csfdyn.StaticTissueWarning)]

    @staticmethod
    def whole_mask(series, static):
        """The offset and the warning from the moments of the whole mask:
        the mean of the means of its stride-4 lattice, and the worst
        pixel's temporal SD when it tops 10% of venc."""
        moments = csfdyn.velocity.pixel_moments(series, static.pixels)
        lattice = np.zeros_like(static.pixels)
        lattice[::4, ::4] = static.pixels[::4, ::4]
        venc = series.header.venc
        worst_sd = np.sqrt(moments.m2.max() / moments.n_frames)
        messages = [f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
                    f"(> 10% of venc {venc:g}); offset may be biased"]
        return (float(moments.mean[lattice[static.pixels]].mean()),
                messages if worst_sd > 0.1 * venc else [])

    @pytest.mark.parametrize("venc, noise, message", [
        (5.0, AcquisitionSpec().noise_sd_phase, "varies by 0.721 cm/s"),
        # every static pixel spans more than 0.2 venc: the whole mask is read
        (10.0, 0.2, "varies by 1.04 cm/s"),
    ], ids=["default-noise", "noisy"])
    def test_warning_as_from_the_whole_mask(self, venc, noise, message):
        ds = short_192(csfdyn.default_aqueduct_spec(), venc=venc, noise_sd_phase=noise)
        leaky = self.with_column(ds)
        assert not (leaky.pixels[::4, ::4] & ~ds.static.pixels[::4, ::4]).any()
        for static, expected in ((ds.static, []), (leaky, [message])):
            (_, _, offset), caught = self.messages(
                prepare_velocity, ds.series, ds.lumen, static, PipelineParams())
            whole, theirs = self.whole_mask(ds.series, static)
            assert caught == theirs
            assert len(caught) == len(expected)
            assert all(part in text for part, text in zip(expected, caught))
            assert offset == whole

    def test_background_correct_gives_the_pipeline_offset(self):
        ds = short_192(csfdyn.default_aqueduct_spec())
        _, _, offset = prepare_velocity(ds.series, ds.lumen, ds.static, PipelineParams())
        vel = full_grid_unwrapped(ds.series, PipelineParams())
        _, theirs = csfdyn.background_correct(vel, ds.static)
        assert np.float64(offset).tobytes() == np.float64(theirs).tobytes()
        whole = vel.frames[:, ds.static.pixels].mean()
        assert offset == pytest.approx(whole, abs=1e-4)


class TestRefusalOrder:
    """Both masks are checked before any pass reads the series or warns: a
    bad static mask is refused at the velocity stage, before the ROI's grid
    is checked, and an ROI on another grid at the flow stage. A missing
    trace is refused at the gating stage before either."""

    @staticmethod
    def flickering(ds):
        """ds's series with one static pixel flickering by 1 rad, so the
        static pass warns."""
        frames = ds.series.frames.copy()
        row, col = np.argwhere(ds.static.pixels)[0]
        frames[::2, row, col] += 1.0
        return VelocitySeries(ds.series.header, frames)

    @staticmethod
    def refused(series, roi, static, monkeypatch, anchor=0):
        """prepare_velocity's error, after checking that no pass started
        and no warning fired."""
        passes = spy_on_passes(monkeypatch)
        params = PipelineParams(refine_threshold=0.5, anchor=anchor)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(csfdyn.CsfdynError) as exc_info:
                prepare_velocity(series, roi, static, params)
        assert passes == []
        assert caught == []
        return exc_info.value

    @pytest.mark.parametrize("static, roi_grid, error, text", [
        ("other", None, WrongKind, "needs a STATIC_TISSUE mask, got OTHER"),
        ("off-grid", None, DimensionMismatch, "mask grid 8x8 does not match"),
        ("off-grid", (4, 4), DimensionMismatch, "mask grid 8x8 does not match"),
    ], ids=["other-label", "static-off-grid", "both-off-grid"])
    def test_static_mask_refused_before_any_read(self, default_dataset, static, roi_grid,
                                                 error, text, monkeypatch):
        ds = default_dataset
        if static == "other":
            mask = csfdyn.RoiMask(ds.static.pixels, RoiLabel.OTHER)
        else:
            mask = csfdyn.RoiMask(np.ones((8, 8), dtype=bool), RoiLabel.STATIC_TISSUE)
        roi = ds.lumen if roi_grid is None else csfdyn.RoiMask(
            np.ones(roi_grid, dtype=bool), RoiLabel.AQUEDUCT)
        exc = self.refused(ds.series, roi, mask, monkeypatch)
        assert type(exc) is error
        assert exc.stage == "velocity"
        assert text in str(exc)

    @pytest.mark.parametrize("anchor", [-1, 100000])
    def test_anchor_refused_before_the_static_pass(self, default_dataset, anchor, monkeypatch):
        # every static pixel is quiet, so the static offset needs no unwrap
        exc = self.refused(default_dataset.series, default_dataset.lumen,
                           default_dataset.static, monkeypatch, anchor)
        assert type(exc) is ValueOutOfRange
        assert exc.stage == "velocity"
        assert f"anchor frame {anchor} outside 0..908" in str(exc)

    def test_roi_off_grid_refused_before_the_static_pass(self, default_dataset, monkeypatch):
        ds = default_dataset
        flicker = self.flickering(ds)
        with pytest.warns(csfdyn.StaticTissueWarning):
            prepare_velocity(flicker, ds.lumen, ds.static, PipelineParams())
        roi = csfdyn.RoiMask(np.ones((4, 4), dtype=bool), RoiLabel.AQUEDUCT)
        exc = self.refused(flicker, roi, ds.static, monkeypatch)
        assert type(exc) is DimensionMismatch
        assert exc.stage == "flow"
        assert "mask grid 4x4 does not match" in str(exc)

    @pytest.mark.parametrize("gate, trace, text", [
        ("flow", "plethysmo", "a respiratory belt trace is required for continuous series"),
        ("plethysmo", "belt", "gate=plethysmo needs a plethysmograph trace"),
    ], ids=["no-belt", "no-plethysmo"])
    def test_missing_trace_refused_before_any_pass(self, default_dataset, gate, trace, text,
                                                   monkeypatch):
        ds = default_dataset
        flicker = self.flickering(ds)
        passes = spy_on_passes(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError) as exc_info:
                process_subject(flicker, ds.lumen, PipelineParams(gate=gate), static=ds.static,
                                **{trace: getattr(ds, trace)})
        assert passes == []
        assert caught == []
        assert type(exc_info.value) is InputError
        assert exc_info.value.stage == "gating"
        assert str(exc_info.value) == text


class TestSignConvention:
    """flip_sign is applied once, at the end of prepare_velocity. The
    flipped run refines to the same ROI, and its flow and offset are the
    unflipped ones negated, an exact zero kept positive. Both equal, to the
    bit, the unflipped chain run on negated frames, which is what negating
    each velocity as it is converted gives."""

    @pytest.fixture(scope="class")
    @staticmethod
    def aliased():
        # venc 1.0 lies below the lumen's peak, so the lumen pixels wrap
        base = csfdyn.default_aqueduct_spec()
        ds = csfdyn.generate(replace(
            base,
            grid=replace(base.grid, width=32, height=32),
            lumen=replace(base.lumen, center_row=16.0, center_col=16.0),
            acquisition=replace(base.acquisition, venc=1.0, duration=20000.0),
        ))
        vel = converted(ds.series)
        assert np.any(csfdyn.unwrap_temporal(vel, 17).frames != vel.frames)
        return ds

    @pytest.mark.parametrize("encoding", ["phase", "velocity", "still-static"])
    @pytest.mark.parametrize("static", [True, False], ids=["static", "no-static"])
    @pytest.mark.parametrize("refine", [None, 0.5], ids=["box", "refine"])
    def test_flip_negates_flow_and_offset(self, aliased, encoding, static, refine):
        ds = aliased
        series = ds.series if encoding == "phase" else converted(ds.series)
        if encoding == "still-static":
            frames = series.frames.copy()
            frames[:, ds.static.pixels] = 0.0
            series = VelocitySeries(series.header, frames)
        mask = ds.static if static else None
        seed = ds.lumen
        if refine is not None:  # refinement grows one pixel into the lumen
            pixel = np.zeros_like(seed.pixels)
            pixel[16, 16] = True
            seed = csfdyn.RoiMask(pixel, RoiLabel.AQUEDUCT)
        params = PipelineParams(anchor=17, refine_threshold=refine)
        flow, roi, offset = prepare_velocity(series, seed, mask, params)
        flipped = prepare_velocity(series, seed, mask, replace(params, flip_sign=True))
        negated = prepare_velocity(VelocitySeries(series.header, -series.frames), seed, mask,
                                   params)
        assert roi.n_pixels > 1
        for other_flow, other_roi, other_offset in (flipped, negated):
            assert np.array_equal(other_roi.pixels, roi.pixels)
            assert other_flow.q.tobytes() == (-flow.q + 0.0).tobytes()
            if offset is None:
                assert other_offset is None
            else:
                assert np.float64(other_offset).tobytes() == np.float64(-offset + 0.0).tobytes()
        if encoding == "still-static" and static:
            assert offset == 0.0 and np.float64(flipped[2]).tobytes() == bytes(8)


class TestMappedInput:
    """A series read from a file is a read-only map of it, so any stage that
    wrote into its input would raise; every route must run on it and give
    what it gives on the same frames in memory."""

    @pytest.fixture(scope="class")
    @staticmethod
    def mapped(default_dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("mapped") / "series.csfd"
        csfdyn.write_series(default_dataset.series, path)
        series = csfdyn.read_series(path)
        assert not series.frames.flags.writeable
        return series

    @pytest.mark.parametrize("params, static, seed", [
        (PipelineParams(), True, False),
        (PipelineParams(), False, False),
        (PipelineParams(gate="plethysmo"), True, False),
        (PipelineParams(refine_threshold=0.9), True, True),
        (PipelineParams(flip_sign=True, anchor=5), True, False),
        (PipelineParams(flip_sign=True, refine_threshold=0.9), False, True),
    ], ids=["flow", "no-static", "plethysmo", "refine", "flip-sign", "flip-refine"])
    def test_runs_on_read_only_frames(self, default_dataset, mapped, params, static, seed):
        ds = default_dataset
        roi = ds.lumen
        if seed:
            pixel = np.zeros_like(roi.pixels)
            pixel[32, 32] = True
            roi = csfdyn.RoiMask(pixel, RoiLabel.AQUEDUCT)
        kwargs = dict(static=ds.static if static else None, belt=ds.belt,
                      plethysmo=ds.plethysmo)
        r = process_subject(mapped, roi, params, **kwargs)
        ref = process_subject(ds.series, roi, params, **kwargs)
        assert r.background_offset == ref.background_offset
        assert np.array_equal(r.flow.q, ref.flow.q)
        assert np.array_equal(r.curves.global_mean, ref.curves.global_mean)


def wide_phantom(noise_sd_phase=AcquisitionSpec().noise_sd_phase):
    base = csfdyn.default_aqueduct_spec()
    return csfdyn.generate(replace(
        base,
        grid=replace(base.grid, width=128, height=128),
        lumen=replace(base.lumen, center_row=64.0, center_col=64.0),
        acquisition=replace(base.acquisition, duration=40000.0,
                            noise_sd_phase=noise_sd_phase),
    ))


def peak_on_top(fn, *args, **kwargs):
    """What fn allocates at its peak, in bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The velocity and flow stages stream the input, unwrapping as they
    go, and fold each contiguous float64 block of at most 128 KB into
    per-pixel moments and per-frame sums. Beside its block a pass holds
    the block's transient float32 gather and, only in a pass where a pixel
    spans more than venc, a transient block of steps; refinement labels
    the box its moments cover. The ensemble stage resamples cycles in fixed batches.
    So a job holds a pass's block plus vectors with one value per frame,
    pixel or cycle: what process_subject allocates stays under half the
    input series, however many pixels wrap and however long the
    recording."""

    @pytest.fixture(scope="class")
    @staticmethod
    def wide():
        return wide_phantom()

    @pytest.fixture(scope="class")
    @staticmethod
    def noisy():
        # at 0.8 rad of phase noise nearly every pixel has a step beyond venc
        return wide_phantom(noise_sd_phase=0.8)

    @pytest.mark.parametrize("params", [PipelineParams(), PipelineParams(refine_threshold=0.7)],
                             ids=["static", "refine"])
    def test_peak_under_one_and_a_half_times_the_input(self, wide, params):
        size = wide.series.frames.nbytes
        peak = peak_on_top(process_subject, wide.series, wide.lumen, params,
                           static=wide.static, belt=wide.belt)
        assert size + peak < 1.5 * size, f"{peak / size:.2f}x the input on top of it"

    def test_long_recording_peak_under_half_the_input(self, long_dataset, tmp_path):
        long = long_dataset
        assert long.series.frames.shape == (6818, 16, 16)
        size = long.series.frames.nbytes
        path = tmp_path / "belt.csv"
        csfdyn.write_physio(long.belt, path)
        peak = peak_on_top(csfdyn.read_physio, path)
        assert peak < 0.5 * size, f"read_physio: {peak / size:.2f}x the series"
        peak = peak_on_top(process_subject, long.series, long.lumen, static=long.static,
                           belt=long.belt)
        assert peak < 0.5 * size, f"process_subject: {peak / size:.2f}x the series"

    def test_long_recording_stage_peaks(self, long_dataset, tmp_path):
        # each bound is the stage's peak when it was set plus a quarter:
        # read_physio 0.56 MB (1.21 while the decoded text was held through
        # loadtxt), classify_resp 0.25 MB (0.27 with the trigger holding one
        # 4096-sample chunk of the belt as Python floats, 0.36 with
        # np.median(np.abs(np.diff(x))) for the noise floor, 0.79 with a
        # Python list of the whole belt) and
        # process_subject 0.56 MB (1.03 with a row object per cycle)
        long = long_dataset
        path = tmp_path / "belt.csv"
        csfdyn.write_physio(long.belt, path)
        peak = peak_on_top(csfdyn.read_physio, path)
        assert peak < 0.70e6, f"read_physio: {peak / 1e6:.2f} MB"
        peak = peak_on_top(csfdyn.classify_resp, long.belt)
        assert peak < 0.31e6, f"classify_resp: {peak / 1e6:.2f} MB"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            peak = peak_on_top(process_subject, long.series, long.lumen, static=long.static,
                               belt=long.belt)
        assert peak < 0.70e6, f"process_subject: {peak / 1e6:.2f} MB"

    def test_resample_peak_bounded_by_one_batch(self, long_dataset):
        long = long_dataset
        # about 525 cycles, more than half of them with 13 samples: one
        # dense slope system per sample count held 1.6 MB
        result = process_subject(long.series, long.lumen, static=long.static, belt=long.belt)
        cycles = [c for c in result.cycles if c.n_samples >= csfdyn.ensemble.MIN_SAMPLES]
        assert len(cycles) > 500
        peak = peak_on_top(csfdyn.resample_cycles, cycles)
        assert peak < 1.0e6, f"resample_cycles: {peak / 1e6:.2f} MB"

    def test_static_moment_pass_on_a_192_grid(self):
        # the wide-fov grid, a few seconds long: the pass holds one chunk of
        # frames, so its peak does not depend on the recording's length.
        # The bound is its peak plus a quarter: 2.27 MB, most of it five
        # vectors with one value per pixel (3.22 MB with 0.5 MB blocks)
        base = csfdyn.default_aqueduct_spec()
        ds = csfdyn.generate(replace(
            base,
            grid=replace(base.grid, width=192, height=192),
            lumen=replace(base.lumen, center_row=96.0, center_col=96.0),
            acquisition=replace(base.acquisition, duration=8000.0),
        ))
        assert ds.series.frames.shape[0] > 64 and ds.static.pixels.sum() > 36000
        assert csfdyn.velocity.pixel_moments(ds.series, ds.static.pixels).cross is None
        peak = peak_on_top(csfdyn.velocity.pixel_moments, ds.series, ds.static.pixels)
        assert peak < 2.85e6, f"pixel_moments: {peak / 1e6:.2f} MB"

    def test_static_offset_on_a_192_grid(self):
        # the wide-fov grid: the span pass holds one band's running float32
        # minima and maxima (64 KB each) and one float64 row of spans, then
        # the mean fold over the stride-4 lattice one float64 block of 5
        # lattice rows, converted in place from the strided view, with no
        # moment pass. The bound is the peak plus a quarter: 0.19 MB (0.50
        # MB with a float64 band of spans and a gathered float32 copy of
        # each lattice block, 1.03 MB with 0.5 MB blocks and the whole
        # grid's spans, 1.76 MB when every lattice pixel went through the
        # moment pass)
        ds = short_192(csfdyn.default_aqueduct_spec())
        peak = peak_on_top(csfdyn.velocity.static_offset, ds.series, ds.static)
        assert peak < 0.235e6, f"static_offset: {peak / 1e6:.2f} MB"

    def test_streamed_flow_on_a_192_grid(self):
        # the ROI's flow on the same series: its 90 frames are one chunk,
        # so the pass holds one contiguous float64 block of the ROI's 29
        # pixels, converted in place, and the block's transient float32
        # gather; none of its pixels spans venc, so it takes no steps. The
        # bound is the peak plus a quarter: 0.039 MB (0.069 MB while the
        # ROI's pixel count cast the whole grid's mask to int64, 0.079 MB
        # while each block was converted through a cast buffer)
        ds = short_192(csfdyn.default_aqueduct_spec())
        offset = csfdyn.velocity.static_offset(ds.series, ds.static)
        peak = peak_on_top(csfdyn.flow.streamed_flow, ds.series, ds.lumen, 0, offset)
        assert peak < 0.049e6, f"streamed_flow: {peak / 1e6:.3f} MB"

    @pytest.fixture(scope="class")
    @staticmethod
    def box_case():
        """The series of short_192, a 25x25 box around its lumen, and the
        lumen's reference time course."""
        ds = short_192(csfdyn.default_aqueduct_spec())
        box = np.zeros_like(ds.lumen.pixels)
        box[84:109, 84:109] = True
        assert (ds.lumen.pixels <= box).all()
        ref = csfdyn.flow.streamed_seed_reference(ds.series, ds.lumen)
        return ds, box, ref

    def test_box_moments_on_a_192_grid(self, box_case):
        # refinement's moment pass over the box's 625 pixels: one contiguous
        # float64 block of 64 frames of 256 pixels (131 KB) and, one at a
        # time, its transient float32 gather and the temporaries numpy makes
        # for a ufunc on the block (83 KB for the comparison with each
        # pixel's first value); the block's products with the reference
        # are folded 8 frames at a time. The bound is the peak plus a
        # quarter: 0.26 MB (0.48 MB with a second block of steps, used as
        # scratch for the products, and a strided view of a wider buffer
        # as the block)
        ds, box, ref = box_case
        peak = peak_on_top(csfdyn.velocity.pixel_moments, ds.series, box, ref)
        assert peak < 0.325e6, f"pixel_moments: {peak / 1e6:.3f} MB"

    def test_refine_roi_on_a_192_grid(self, box_case):
        # refine_roi labels the components within the box its moments
        # cover and writes the kept ones into a grid-size mask. The bound
        # is the peak plus a quarter: 0.053 MB (0.34 MB when the whole
        # 192x192 grid was labelled in int32)
        ds, box, ref = box_case
        moments = csfdyn.velocity.pixel_moments(ds.series, box, ref)
        peak = peak_on_top(csfdyn.flow.refine_roi, moments, ds.lumen, 0.7)
        assert peak < 0.067e6, f"refine_roi: {peak / 1e6:.3f} MB"

    @pytest.mark.parametrize("params", [PipelineParams(), PipelineParams(refine_threshold=0.7)],
                             ids=["static", "refine"])
    def test_peak_with_wrapped_pixels(self, noisy, params):
        phase = noisy.series.frames[:, noisy.static.pixels]
        assert (np.abs(np.diff(phase, axis=0)) > np.pi).any(axis=0).mean() > 0.8
        size = noisy.series.frames.nbytes
        # the noise also leaves too little pulse to detect cycles, and the
        # static tissue varies by 25% of venc, so only the velocity stage runs
        with pytest.warns(csfdyn.StaticTissueWarning):
            peak = peak_on_top(csfdyn.pipeline.prepare_velocity, noisy.series, noisy.lumen,
                               noisy.static, params)
        assert size + peak < 1.5 * size, f"{peak / size:.2f}x the input on top of it"
        # the peak plus a quarter: 1.42 MB, the moment pass over the loud
        # static pixels with its unwrap's temporaries (2.76 MB with 0.5 MB
        # blocks)
        assert peak < 1.8e6, f"prepare_velocity: {peak / 1e6:.2f} MB"


class TestPipelineParams:
    @pytest.mark.parametrize("bad", [
        {"gate": "pleth"},
        {"unit": "kL"},
        {"interp": "cubic"},
        {"sv_convention": "both"},
        {"flip_sign": "false"},
        {"anchor": 1.7},
        {"min_rr": "300"},
        {"hysteresis": float("nan")},
        {"refine_threshold": True},
    ], ids=lambda bad: next(iter(bad)))
    def test_rejects_bad_values(self, bad):
        with pytest.raises(InvalidSpec, match=next(iter(bad))):
            PipelineParams(**bad)

    def test_coerces_to_declared_types(self):
        p = PipelineParams(min_rr=400, anchor=np.int64(3), sv_convention="flush-lobe")
        assert p.min_rr == 400.0 and isinstance(p.min_rr, float)
        assert p.anchor == 3 and type(p.anchor) is int
        assert p.sv_convention is SvConvention.FLUSH_LOBE


class TestGatedPassthrough:
    @pytest.fixture(scope="class")
    @staticmethod
    def gated_pair(modulated_dataset):
        spec = modulated_dataset.truth.spec
        gated_spec = replace(spec, acquisition=replace(
            spec.acquisition, series_kind=csfdyn.SeriesKind.GATED_CONV))
        series = csfdyn.generate_gated(gated_spec)
        result = process_subject(series, modulated_dataset.lumen,
                                 static=modulated_dataset.static)
        return modulated_dataset, result

    def test_single_canonical_cycle(self, gated_pair):
        _, r = gated_pair
        assert len(r.canonical) == 1
        assert r.canonical[0].resp_label is RespLabel.MIXED
        assert r.curves.n_global == 1
        assert any("gated" in n.lower() for n in r.notes)

    def test_sv_between_breathing_states(self, gated_pair, modulated_result):
        _, gated = gated_pair
        lo = min(modulated_result.sv_insp.sv, modulated_result.sv_exp.sv)
        hi = max(modulated_result.sv_insp.sv, modulated_result.sv_exp.sv)
        assert lo <= gated.sv_global.sv <= hi

    def test_cycle_length_is_frames_times_interval(self, gated_pair):
        # t0 + k * frame_interval rounds at a late t0: the cycle length, and
        # the stroke volume with it, must not depend on the time origin
        ds, _ = gated_pair
        spec = ds.truth.spec
        series = csfdyn.generate_gated(replace(spec, acquisition=replace(
            spec.acquisition, series_kind=csfdyn.SeriesKind.GATED_CONV)))
        results = [
            process_subject(VelocitySeries(replace(series.header, t0=t0, frame_interval=35.7),
                                           series.frames), ds.lumen, static=ds.static)
            for t0 in (0.0, 1e9)
        ]
        assert [r.sv_global.mean_rr for r in results] == [32 * 35.7] * 2
        assert results[0].sv_global.sv == results[1].sv_global.sv


class TestReport:
    def test_report_is_jsonable_and_complete(self, modulated_result):
        import json

        rep = result_to_report(modulated_result, version="0.1.0",
                               inputs={"series": {"path": "x.csfd", "sha256": "0" * 64}})
        text = json.dumps(rep, sort_keys=True)
        back = json.loads(text)
        assert back["version"] == "0.1.0"
        assert back["kind"] == "subject"
        assert back["sv_modulation"] == pytest.approx(modulated_result.modulation)
        assert len(back["curves"]["phase"]) == 32
        assert len(back["curves"]["global_mean"]) == 32
        assert back["gating"]["n_cycles"] == modulated_result.boundaries.n_cycles
        assert back["config"]["interp"] == "spline"
        assert back["inputs"]["series"]["sha256"] == "0" * 64
        assert back["sv"]["global"]["unit"] == "uL"

    def test_absent_ensembles_serialize_as_null(self, default_dataset):
        # without a belt there is no breathing split on the gated path
        ds = default_dataset
        spec = ds.truth.spec
        gated_spec = replace(spec, acquisition=replace(
            spec.acquisition, series_kind=csfdyn.SeriesKind.GATED_CONV))
        series = csfdyn.generate_gated(gated_spec)
        r = process_subject(series, ds.lumen, static=ds.static)
        rep = result_to_report(r, version="0.1.0", inputs={})
        assert rep["curves"]["insp_mean"] is None
        assert rep["sv"]["inspiration"] is None
        assert rep["sv_modulation"] is None
