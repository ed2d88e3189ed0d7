"""Synthetic phantom: analytic ground truth, determinism, file layout."""

import json
import math
import os
import sys
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

import csfdyn
from csfdyn import (
    Encoding,
    FlowProfile,
    PhantomSpec,
    RespLabel,
    SeriesKind,
    cohort,
    extract_flow,
    flow_amplitude,
    generate,
    generate_gated,
    lumen_mask,
    save_dataset,
    static_mask,
    waveform,
)
from csfdyn import phantom
from csfdyn.errors import InvalidSpec
from csfdyn.phantom import (
    AcquisitionSpec,
    CardiacSpec,
    CohortJitter,
    GridSpec,
    LumenSpec,
    RespSpec,
)


def fast_spec(**kw):
    """Small grid, short run: keeps per-test phantoms cheap."""
    base = dict(
        grid=replace(GridSpec(), width=24, height=24),
        lumen=replace(LumenSpec(), center_row=12, center_col=12),
        acquisition=replace(AcquisitionSpec(), duration=20_000.0),
    )
    base.update(kw)
    return PhantomSpec(**base)


class TestSpecValidation:
    def test_defaults_valid(self):
        PhantomSpec()
        csfdyn.default_aqueduct_spec()
        csfdyn.default_spinal_spec()

    def test_lumen_must_fit_grid(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(lumen=replace(LumenSpec(), center_col=62, radius_px=3))

    def test_lumen_must_cover_a_pixel_centre(self):
        # nearest pixel centres lie 0.5 * sqrt(2) from (10.5, 10.5): a radius
        # of that gives four lumen pixels, a shorter one none
        with pytest.raises(InvalidSpec, match="pixel centre"):
            PhantomSpec.from_json_dict(
                {"lumen": {"center_row": 10.5, "center_col": 10.5, "radius_px": 0.7}})
        spec = PhantomSpec(lumen=replace(LumenSpec(), center_row=10.5, center_col=10.5,
                                         radius_px=math.sqrt(0.5)))
        assert csfdyn.lumen_mask(spec).n_pixels == 4

    def test_poiseuille_lumen_must_weight_a_pixel_centre(self):
        # the four pixel centres lie on the radius, where the parabolic
        # profile is 0: the series would carry no flow
        with pytest.raises(InvalidSpec, match="pixel centre a positive flow weight"):
            PhantomSpec.from_json_dict(
                {"lumen": {"center_row": 10.5, "center_col": 10.5,
                           "radius_px": 0.7071067811865476, "profile": "POISEUILLE"}})
        spec = PhantomSpec(lumen=replace(LumenSpec(), center_row=10.5, center_col=10.5,
                                         radius_px=0.71, profile=FlowProfile.POISEUILLE))
        assert csfdyn.lumen_mask(spec).n_pixels == 4

    def test_poiseuille_needs_isotropic_grid(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(
                lumen=replace(LumenSpec(), profile=FlowProfile.POISEUILLE),
                grid=replace(GridSpec(), spacing_x=1.0, spacing_y=1.2),
            )

    def test_duration_floor(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(acquisition=replace(AcquisitionSpec(), duration=3000.0))

    @pytest.mark.parametrize("section, name", [("acquisition", "frame_interval"),
                                               ("resp", "belt_interval"),
                                               ("resp", "pleth_interval")])
    def test_sampling_interval_within_duration(self, section, name):
        # one interval over the duration would leave no frame, or a trace
        # of one sample, for generate() to fail on after building the truth
        def with_interval(interval):
            spec = PhantomSpec()
            return replace(spec, **{section: replace(getattr(spec, section),
                                                     **{name: interval})})

        duration = PhantomSpec().acquisition.duration
        with pytest.raises(InvalidSpec, match=f"^{name} must be positive and at most duration"):
            with_interval(np.nextafter(duration, math.inf))
        ds = generate(with_interval(duration))
        assert ds.series.header.n_frames >= 1
        assert ds.belt.samples.size >= 2 and ds.plethysmo.samples.size >= 2

    def test_insp_fraction_bounds(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(resp=replace(RespSpec(), insp_fraction=0.0))
        with pytest.raises(InvalidSpec):
            PhantomSpec(resp=replace(RespSpec(), insp_fraction=1.0))

    def test_json_round_trip(self):
        spec = csfdyn.default_spinal_spec(seed=99)
        back = PhantomSpec.from_json_dict(json.loads(json.dumps(asdict(spec))))
        assert back == spec

    def test_json_unknown_key_rejected(self):
        d = asdict(PhantomSpec())
        d["surprise"] = 1
        with pytest.raises(InvalidSpec):
            PhantomSpec.from_json_dict(d)

    def test_json_sections_fill_defaults_and_coerce(self):
        spec = PhantomSpec.from_json_dict({"acquisition": {"venc": 10}, "seed": 3})
        assert spec == replace(PhantomSpec(seed=3),
                               acquisition=replace(AcquisitionSpec(), venc=10.0))
        assert type(spec.acquisition.venc) is float
        with pytest.raises(InvalidSpec, match="lumen"):
            PhantomSpec.from_json_dict({"lumen": {"surprise": 1}})
        with pytest.raises(InvalidSpec, match="grid"):
            PhantomSpec.from_json_dict({"grid": [64, 64]})


class TestWaveform:
    def test_fundamental_only(self):
        u = np.linspace(0, 1, 64, endpoint=False)
        assert np.allclose(waveform(u, (1.0,)), np.sin(2 * np.pi * u))

    def test_periodic(self):
        h = (1.0, 0.35, 0.12)
        u = np.linspace(0, 1, 13, endpoint=False)
        assert np.allclose(waveform(u, h), waveform(u + 1.0, h), atol=1e-12)

    def test_amplitude_from_target_volume(self):
        # with a pure sine the positive lobe integrates to 1/pi, so the
        # gain has a closed form
        spec = fast_spec(cardiac=replace(CardiacSpec(), harmonics=(1.0,), sv_true=0.2))
        amp = flow_amplitude(spec)
        rr_s = spec.cardiac.rr_mean / 1000.0
        assert amp == pytest.approx(1000.0 * 0.2 * np.pi / (spec.cardiac.rr_mean), rel=1e-6)
        assert amp * (rr_s / np.pi) * 1.0 == pytest.approx(0.2 / 1.0, rel=1e-6)


class TestGroundTruth:
    def test_onsets_regular_without_jitter(self):
        ds = generate(fast_spec())
        tru = ds.truth
        assert np.allclose(np.diff(tru.onsets), tru.spec.cardiac.rr_mean)
        assert tru.onsets[0] == 0.0

    def test_cycle_volumes_match_target(self):
        ds = generate(fast_spec())
        assert np.allclose(ds.truth.sv_per_cycle, 0.15, rtol=1e-4)

    def test_modulated_cycle_volumes(self):
        spec = fast_spec(resp=replace(RespSpec(), modulation_insp=0.10),
                         acquisition=replace(AcquisitionSpec(), duration=40_000.0))
        ds = generate(spec)
        tru = ds.truth
        assert tru.modulation == pytest.approx(0.10)
        assert tru.sv_insp == pytest.approx(1.10 * tru.sv_exp, rel=1e-9)
        # every cycle volume sits between the pure-state extremes
        assert np.all(tru.sv_per_cycle >= tru.sv_exp * (1 - 1e-6))
        assert np.all(tru.sv_per_cycle <= tru.sv_insp * (1 + 1e-6))
        # cycles entirely inside one breathing state hit the extremes
        fine = np.linspace(0.0, 1.0, 257)[:-1]
        for k, (lo, hi) in enumerate(zip(tru.onsets[:-1], tru.onsets[1:])):
            inside = tru.inspiration(lo + fine * (hi - lo))
            if inside.all():
                assert tru.sv_per_cycle[k] == pytest.approx(tru.sv_insp, rel=1e-3)
            elif not inside.any():
                assert tru.sv_per_cycle[k] == pytest.approx(tru.sv_exp, rel=1e-3)

    def test_inspiration_clock(self):
        spec = fast_spec(resp=replace(RespSpec(), period=4000.0, insp_fraction=0.4))
        ds = generate(spec)
        tru = ds.truth
        # the breath starts inspiring: [0, 1600) up, [1600, 4000) down
        assert tru.inspiration(np.array([100.0, 1500.0])).all()
        assert not tru.inspiration(np.array([1700.0, 3900.0])).any()
        assert tru.inspiration(np.array([100.0 + 12_000.0])).all()

    def test_cardiac_phase(self):
        ds = generate(fast_spec())
        rr = ds.truth.spec.cardiac.rr_mean
        u = ds.truth.cardiac_phase(np.array([0.25 * rr, rr + 0.5 * rr]))
        assert u == pytest.approx([0.25, 0.5], abs=1e-9)


class TestGeneratedSeries:
    def test_deterministic(self):
        a = generate(fast_spec())
        b = generate(fast_spec())
        assert np.array_equal(a.series.frames, b.series.frames)
        assert np.array_equal(a.belt.samples, b.belt.samples)
        assert np.array_equal(a.plethysmo.samples, b.plethysmo.samples)

    def test_seed_changes_noise(self):
        a = generate(fast_spec(seed=1))
        b = generate(fast_spec(seed=2))
        assert not np.array_equal(a.series.frames, b.series.frames)

    def test_phase_encoding_and_range(self):
        ds = generate(fast_spec())
        s = ds.series
        assert s.header.encoding is Encoding.PHASE_RADIANS
        assert s.frames.dtype == np.float32
        assert s.frames.min() >= -np.pi
        assert s.frames.max() < np.pi

    def test_flux_matches_waveform_plug_noiseless(self):
        spec = fast_spec(acquisition=replace(AcquisitionSpec(),
                                             duration=20_000.0, noise_sd_phase=0.0))
        ds = generate(spec)
        field = csfdyn.phase_to_velocity(ds.series)
        flow = extract_flow(field, ds.lumen)
        t = field.header.timestamps()
        q_true = ds.truth.q(t)
        assert np.max(np.abs(flow.q - q_true)) < 1e-6

    def test_poiseuille_center_velocity(self):
        spec = fast_spec(
            lumen=replace(LumenSpec(), center_row=12, center_col=12,
                          radius_px=5, profile=FlowProfile.POISEUILLE),
            acquisition=replace(AcquisitionSpec(), noise_sd_phase=0.0),
        )
        ds = generate(spec)
        field = csfdyn.phase_to_velocity(ds.series)
        t = field.header.timestamps()
        q = ds.truth.q(t)
        r_mm = 5 * spec.grid.spacing_x
        v_center_expected = 200.0 * q / (np.pi * r_mm ** 2)
        got = field.frames[:, 12, 12]
        assert np.max(np.abs(got - v_center_expected)) < 1e-4

    def test_static_background_quiet(self):
        ds = generate(fast_spec())
        field = csfdyn.phase_to_velocity(ds.series)
        out = field.frames[:, ds.static.pixels]
        # only phase noise out there: 0.02 rad * venc/pi ~ 0.064 cm/s
        assert np.abs(out).max() < 0.5

    def test_background_offset_applied(self):
        spec = fast_spec(acquisition=replace(
            AcquisitionSpec(), noise_sd_phase=0.0, background_offset=0.3))
        ds = generate(spec)
        field = csfdyn.phase_to_velocity(ds.series)
        out = field.frames[:, ds.static.pixels]
        assert np.allclose(out, 0.3, atol=1e-5)

    def test_belt_rises_during_inspiration(self):
        ds = generate(fast_spec(resp=replace(RespSpec(), belt_noise_sd=0.0)))
        belt = ds.belt
        t = belt.t0 + np.arange(belt.samples.size) * belt.sample_interval
        mid = t[:-1] + belt.sample_interval / 2
        rising = np.diff(belt.samples) > 1e-9
        insp = ds.truth.inspiration(mid)
        agree = (rising == insp).mean()
        assert agree > 0.97  # only the turning points are ambiguous

    def test_plethysmo_feet_at_onsets(self):
        # the pulse curve is 1 - cos(2 pi u): zero at every cycle onset,
        # peaking at 2 mid-cycle
        ds = generate(fast_spec())
        p = ds.plethysmo
        assert p.samples.max() == pytest.approx(2.0, abs=1e-3)
        for onset in ds.truth.onsets[1:5]:
            k = int(round(onset / p.sample_interval))
            assert p.samples[k] < 0.02

    def test_masks(self):
        spec = fast_spec()
        lum = lumen_mask(spec)
        sta = static_mask(spec)
        assert lum.pixels.sum() >= 25  # r=3 disc
        assert not (lum.pixels & sta.pixels).any()
        # margin ring between lumen and static tissue
        from scipy.ndimage import binary_dilation
        ring = binary_dilation(lum.pixels, iterations=2)
        assert not (ring & sta.pixels).any()


class TestGatedSeries:
    def test_shape_and_kind(self):
        spec = fast_spec(acquisition=replace(
            AcquisitionSpec(), series_kind=SeriesKind.GATED_CONV))
        s = generate_gated(spec)
        assert s.header.series_kind is SeriesKind.GATED_CONV
        assert s.header.n_frames == 32
        assert s.header.encoding is Encoding.VELOCITY_CMPS

    def test_kind_must_match_generator(self):
        with pytest.raises(InvalidSpec):
            generate_gated(fast_spec())
        with pytest.raises(InvalidSpec):
            generate(fast_spec(acquisition=replace(
                AcquisitionSpec(), series_kind=SeriesKind.GATED_CONV)))

    def test_gated_flux_averages_cycles(self):
        spec = fast_spec(acquisition=replace(
            AcquisitionSpec(), series_kind=SeriesKind.GATED_CONV, noise_sd_phase=0.0))
        s = generate_gated(spec)
        field = csfdyn.as_velocity_field(s)
        flow = extract_flow(field, lumen_mask(spec))
        # without modulation or jitter every cycle is identical, so the
        # gated waveform equals the truth waveform on the 32 bins
        u = np.arange(32) / 32
        amp = flow_amplitude(spec)
        q_true = amp * waveform(u, spec.cardiac.harmonics)
        assert np.max(np.abs(flow.q - q_true)) < 1e-9


class TestOneForwardModel:
    def test_gated_route_is_the_cycle_mean_of_the_continuous_route(self):
        # frames every rr/32 sample each cycle at the gated route's 32 bins,
        # so every term of the forward model (flow, modulation, offset,
        # drift) must agree between the routes up to float32 rounding
        rr = 1024.0
        spec = PhantomSpec(
            grid=replace(GridSpec(), width=16, height=16),
            lumen=replace(LumenSpec(), center_row=8, center_col=8),
            cardiac=replace(CardiacSpec(), rr_mean=rr, rr_jitter_sd=0.0),
            resp=replace(RespSpec(), modulation_insp=0.09),
            acquisition=replace(
                AcquisitionSpec(), venc=20.0, frame_interval=rr / 32, duration=40 * rr + 1,
                noise_sd_phase=0.0, background_offset=0.4, drift_amplitude=0.3),
        )
        continuous = csfdyn.phase_to_velocity(generate(spec).series).frames
        assert continuous.shape == (40 * 32, 16, 16)
        cycle_mean = continuous.reshape(40, 32, 16, 16).mean(axis=0)
        gated = generate_gated(replace(spec, acquisition=replace(
            spec.acquisition, series_kind=SeriesKind.GATED_CONV)))
        assert np.max(np.abs(cycle_mean - gated.frames)) < 1e-7


def frames_reference(spec):
    """generate()'s frames as the whole-cube expression built them: one
    float64 phase cube from _phase, each frame's noise stream added, np.mod
    over the whole cube, then the float32 cast and the clip inside +-pi."""
    a = spec.acquisition
    truth = phantom._make_truth(spec)
    n_frames = int(a.duration // a.frame_interval)
    t = np.arange(n_frames, dtype=np.float64) * a.frame_interval
    phase = phantom._phase(spec, t, truth.q(t))
    if a.noise_sd_phase > 0:
        for k in range(n_frames):
            phase[k] += phantom._rng(spec.seed, 16 + k).normal(
                0.0, a.noise_sd_phase, size=phase[k].shape)
    wrapped = np.mod(phase + np.pi, 2.0 * np.pi) - np.pi
    return np.clip(wrapped.astype(np.float32), phantom._PHASE32_LO, phantom._PHASE32_HI)


def gated_reference(spec):
    """generate_gated()'s frames as its per-cycle loop built them, each
    cycle's 32 maps wrapped by np.mod."""
    a = spec.acquisition
    truth = phantom._make_truth(spec)
    q_card = truth.amplitude * waveform(csfdyn.PHASE_GRID, spec.cardiac.harmonics)
    mean = np.zeros((csfdyn.GATED_FRAMES, spec.grid.height, spec.grid.width))
    for k in range(truth.rr.size):
        t_kb = truth.onsets[k] + csfdyn.PHASE_GRID * truth.rr[k]
        phase = phantom._phase(
            spec, t_kb, q_card * (1.0 + truth.modulation * truth.inspiration(t_kb)))
        if a.noise_sd_phase > 0:
            phase += phantom._rng(spec.seed, (1 << 20) + k).normal(
                0.0, a.noise_sd_phase, size=phase.shape)
        mean += (np.mod(phase + np.pi, 2.0 * np.pi) - np.pi) * (a.venc / np.pi)
    mean /= truth.rr.size
    return mean


def blocked_spec(size, n_frames, noise, venc, offset_drift, kind=SeriesKind.CONTINUOUS_EPI):
    """A size x size aqueduct of n_frames frames every 88 ms."""
    offset, drift = offset_drift
    return PhantomSpec(
        grid=replace(GridSpec(), width=size, height=size),
        lumen=replace(LumenSpec(), center_row=size / 2, center_col=size / 2),
        resp=replace(RespSpec(), modulation_insp=0.09),
        acquisition=replace(
            AcquisitionSpec(), venc=venc, duration=88.0 * n_frames + 1.0,
            noise_sd_phase=noise, background_offset=offset, drift_amplitude=drift,
            series_kind=kind),
        seed=5,
    )


# 16x16 takes 1024 frames a block and 64x64 64: neither frame count is a
# multiple of its block, and 16x16 runs two blocks
GRIDS = [(16, 1500), (64, 227)]
NOISES = [0.0, 0.02, 0.8]
VENCS = [10.0, 1.1, 0.9]
OFFSETS = [(0.0, 0.0), (0.4, 0.3)]


#: worker counts each blocked case runs at: one, the two a 2-CPU machine
#: gets, and more workers than blocks or cycles some cases have
WORKERS = [1, 2, 3]


class TestBlockedGeneration:
    """Both routes equal their whole-cube references bit for bit, at any
    worker count."""

    @pytest.mark.parametrize("offset_drift", OFFSETS)
    @pytest.mark.parametrize("venc", VENCS)
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("size,n_frames", GRIDS)
    def test_frames_match_reference(self, monkeypatch, size, n_frames, noise, venc,
                                    offset_drift):
        spec = blocked_spec(size, n_frames, noise, venc, offset_drift)
        want = frames_reference(spec).view(np.uint32)
        for workers in WORKERS:
            monkeypatch.setattr(phantom, "_cpus", lambda: workers)
            frames = generate(spec).series.frames
            assert frames.shape == (n_frames, size, size)
            assert np.array_equal(frames.view(np.uint32), want), workers

    @pytest.mark.parametrize("offset_drift", OFFSETS)
    @pytest.mark.parametrize("venc", VENCS)
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("size,n_frames", GRIDS)
    def test_gated_matches_reference(self, monkeypatch, size, n_frames, noise, venc,
                                     offset_drift):
        spec = blocked_spec(size, n_frames, noise, venc, offset_drift, SeriesKind.GATED_CONV)
        want = gated_reference(spec).view(np.uint64)
        for workers in WORKERS:
            monkeypatch.setattr(phantom, "_cpus", lambda: workers)
            frames = generate_gated(spec).frames
            assert np.array_equal(frames.view(np.uint64), want), workers

    @pytest.mark.parametrize("block_values", [1, 4096, 3 * 4096 + 5, 227 * 4096])
    def test_any_block_size_gives_the_same_frames(self, monkeypatch, block_values):
        spec = blocked_spec(64, 227, 0.8, 0.9, (0.4, 0.3))
        monkeypatch.setattr(phantom, "_BLOCK_VALUES", block_values)
        want = frames_reference(spec).view(np.uint32)
        for workers in WORKERS:
            monkeypatch.setattr(phantom, "_cpus", lambda: workers)
            frames = generate(spec).series.frames
            assert np.array_equal(frames.view(np.uint32), want), workers

    @pytest.mark.parametrize("venc", [1.1, 0.9])
    def test_low_venc_phase_leaves_the_range_repeatedly(self, venc):
        # the cases above must exercise the slow path of _wrap
        spec = blocked_spec(64, 227, 0.0, venc, (0.0, 0.0))
        truth = phantom._make_truth(spec)
        t = np.arange(227) * 88.0
        phase = phantom._phase(spec, t, truth.q(t))
        assert (np.abs(phase) >= np.pi).any(axis=(1, 2)).sum() > 30


class TestWorkers:
    """What _streams draws, the CPU count the workers follow, the order in
    which their results are taken, and what a failing worker leaves
    behind."""

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    def test_streams_draw_what_rng_draws(self, seed):
        ids = [0, 16, 17, (1 << 20) + 3, 2**63 - 2, 16]
        for stream, rng in zip(ids, phantom._streams(seed, ids)):
            ref = phantom._rng(seed, stream)
            # 32-bit draws leave half a word buffered, which a re-key must drop
            for draw in (lambda g: g.normal(0.0, 0.8, size=257),
                         lambda g: g.integers(0, 1000, size=3, dtype=np.uint32),
                         lambda g: g.normal(size=(4, 4))):
                assert np.array_equal(draw(rng), draw(ref)), stream

    def test_cpus_follows_the_affinity_set(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert phantom._cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert phantom._cpus() == (os.cpu_count() or 1)

    def test_more_workers_than_cpus_with_frequent_switches(self, monkeypatch):
        # eight workers and a thread switch every microsecond: blocks and
        # cycles finish out of order, yet _in_order must take them in order,
        # so the gated mean is summed in cycle order, the same bits as the
        # serial reference
        spec = blocked_spec(16, 1500, 0.8, 0.9, (0.4, 0.3))
        gated_spec = replace(spec, acquisition=replace(
            spec.acquisition, series_kind=SeriesKind.GATED_CONV))
        monkeypatch.setattr(phantom, "_BLOCK_VALUES", 16 * 16 * 3)
        monkeypatch.setattr(phantom, "_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            frames = generate(spec).series.frames
            gated = generate_gated(gated_spec).frames
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(frames.view(np.uint32), frames_reference(spec).view(np.uint32))
        assert np.array_equal(gated.view(np.uint64), gated_reference(gated_spec).view(np.uint64))

    @pytest.mark.parametrize("kind", [SeriesKind.CONTINUOUS_EPI, SeriesKind.GATED_CONV])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, kind):
        spec = blocked_spec(24, 600, 0.02, 10.0, (0.0, 0.0), kind)
        real_phase = phantom._phase

        def failing(spec, t, q):
            if t[0] > 20_000.0:
                raise RuntimeError("worker failed")
            return real_phase(spec, t, q)

        monkeypatch.setattr(phantom, "_BLOCK_VALUES", 24 * 24 * 16)
        monkeypatch.setattr(phantom, "_cpus", lambda: 3)
        monkeypatch.setattr(phantom, "_phase", failing)
        before = threading.active_count()
        build = generate if kind is SeriesKind.CONTINUOUS_EPI else generate_gated
        with pytest.raises(RuntimeError, match="worker failed"):
            build(spec)
        assert threading.active_count() == before


class TestWrap:
    @staticmethod
    def assert_wraps_like_mod(x):
        expected = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
        out = phantom._wrap(x.copy())
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_edge_values(self):
        pi, two_pi = np.pi, 2.0 * np.pi
        turns = two_pi * np.array([1.0, 3.0, 1e3, 1e6, 1e9, 1e12, 1e15])
        centres = np.concatenate([[pi, -pi, two_pi, -two_pi, 0.0, -0.0], turns, -turns])
        edges = np.concatenate([
            centres,
            np.nextafter(centres, np.inf),
            np.nextafter(centres, -np.inf),
            [np.nextafter(two_pi, 0.0), -np.nextafter(two_pi, 0.0)],
        ])
        for x in edges:
            self.assert_wraps_like_mod(np.array([x]))
        self.assert_wraps_like_mod(edges)

    def test_seeded_random_values(self):
        rng = np.random.default_rng(20)
        self.assert_wraps_like_mod(rng.normal(0.0, 10.0, size=(1000, 1000)))
        self.assert_wraps_like_mod(rng.uniform(-np.pi, np.pi, size=10**6))

    def test_in_place(self):
        x = np.array([[0.5, 4.0], [-4.0, 0.0]])
        assert phantom._wrap(x) is x
        assert np.all((x >= -np.pi) & (x < np.pi))


class TestCohort:
    def test_subject_count_and_ids(self):
        subs = cohort(6, base=fast_spec())
        assert [s.subject_id for s in subs] == [f"S{k:02d}" for k in range(1, 7)]
        assert len({s.spec.seed for s in subs}) == 6

    def test_jitter_bounds(self):
        subs = cohort(20, base=fast_spec(),
                      jitter=CohortJitter(rr_sd_ms=500.0, sv_rel_sd=0.9,
                                          modulation_sd=0.4))
        for s in subs:
            assert 600.0 <= s.spec.cardiac.rr_mean <= 1800.0
            assert s.spec.cardiac.sv_true >= 0.2 * 0.15
            assert 0.0 <= s.spec.resp.modulation_insp <= 0.5

    def test_deterministic(self):
        a = cohort(4, base=fast_spec(), seed=11)
        b = cohort(4, base=fast_spec(), seed=11)
        assert all(x.spec == y.spec for x, y in zip(a, b))


class TestSaveDataset:
    def test_file_layout_and_reload(self, tmp_path):
        ds = generate(fast_spec())
        paths = save_dataset(ds, tmp_path)
        for key in ("series", "belt", "plethysmo", "lumen", "static", "truth"):
            assert key in paths
        back = csfdyn.read_series(paths["series"])
        assert np.array_equal(back.frames, ds.series.frames)
        belt = csfdyn.read_physio(paths["belt"])
        assert np.allclose(belt.samples, ds.belt.samples, atol=1e-12)
        lum = csfdyn.read_mask(paths["lumen"])
        assert np.array_equal(lum.pixels, ds.lumen.pixels)
        assert lum.label is ds.lumen.label
        import json
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["sv_exp_ml"] == pytest.approx(0.15)
