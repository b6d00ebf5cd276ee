import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nrlab import (
    AntennaPattern,
    FrequencySweep,
    VirtualArrayScan,
    aoa_delay_profile,
    cir_to_pdp,
    compensate_phase,
    deembed_pattern,
    sweep_to_cir,
)
from nrlab import sounding, types
from nrlab.sounding import (
    AOA_ANGLE_BLOCK,
    SPEED_OF_LIGHT,
    _delay_table,
    _delay_taps,
)

from aoa_reference import reference_aoa_delay_profile, reference_sweep_to_cir

N_POINTS = 201
F_START = 99e9
DF = 10e6
FREQS = F_START + DF * np.arange(N_POINTS)


def multipath_sweep(paths, freqs=FREQS):
    """Direct-summation oracle: H(f) = sum_p a_p * exp(-j*2*pi*f*tau_p)."""
    h = np.zeros(freqs.size, dtype=complex)
    for amplitude, tau in paths:
        h = h + amplitude * np.exp(-2j * np.pi * freqs * tau)
    return FrequencySweep(freqs=freqs, h=h)


def plane_wave_scan(positions, paths, freqs=FREQS, gain_of=None):
    """Oracle element responses for far-field paths (angle_deg, delay, amplitude)."""
    sweeps = []
    for r in positions:
        h = np.zeros(freqs.size, dtype=complex)
        for angle_deg, tau, amplitude in paths:
            rad = np.deg2rad(angle_deg)
            u = np.array([np.sin(rad), np.cos(rad), 0.0])
            extra = np.dot(r, u) / SPEED_OF_LIGHT
            a = amplitude if gain_of is None else amplitude * gain_of(angle_deg)
            h = h + a * np.exp(-2j * np.pi * freqs * (tau + extra))
        sweeps.append(FrequencySweep(freqs=freqs, h=h))
    return sweeps


def ula_positions(n_elements, spacing):
    pos = np.zeros((n_elements, 3))
    pos[:, 0] = (np.arange(n_elements) - (n_elements - 1) / 2) * spacing
    return pos


ULA16 = ula_positions(16, spacing=SPEED_OF_LIGHT / 100e9 / 2)
ANGLES = np.arange(-90.0, 90.5, 1.0)


def on_grid_delay(bin_index):
    return bin_index / (N_POINTS * DF)


class TestSweepToCir:
    def test_flat_sweep_is_a_delta(self):
        sweep = FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS))
        cir = sweep_to_cir(sweep, window="rectangular", pad_factor=1)
        mags = np.abs(cir.taps)
        assert np.argmax(mags) == 0
        assert mags[0] == pytest.approx(1.0)
        assert np.all(mags[1:] < 1e-12 * mags[0])

    def test_shift_theorem(self):
        cir_probe = sweep_to_cir(
            FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS)), "rectangular", 4
        )
        tau = 37 * cir_probe.delay_resolution
        sweep = multipath_sweep([(1.0, tau)])
        cir = sweep_to_cir(sweep, window="rectangular", pad_factor=4)
        assert np.argmax(np.abs(cir.taps)) == 37
        assert np.abs(cir.taps[37]) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("window", ["rectangular", "hann", "hamming"])
    def test_two_paths_level_contrast(self, window):
        t1, t2 = on_grid_delay(20), on_grid_delay(60)
        sweep = multipath_sweep([(1.0, t1), (0.5, t2)])
        cir = sweep_to_cir(sweep, window=window, pad_factor=4)
        mags = np.abs(cir.taps)
        b1, b2 = 20 * 4, 60 * 4
        ratio_db = 20 * np.log10(mags[b1] / mags[b2])
        assert abs(ratio_db - 6.02) <= 0.1

    def test_metadata(self):
        sweep = FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS))
        cir = sweep_to_cir(sweep, pad_factor=4)
        assert cir.taps.size == 4 * N_POINTS
        assert cir.delay_resolution == pytest.approx(1.0 / (4 * N_POINTS * DF))
        assert cir.max_delay == pytest.approx(1.0 / DF)

    def test_transform_pair_identity(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal(N_POINTS) + 1j * rng.standard_normal(N_POINTS)
        sweep = FrequencySweep(freqs=FREQS, h=h)
        cir = sweep_to_cir(sweep, window="hamming", pad_factor=4)
        w = np.hamming(N_POINTS)
        windowed = h * w / w.mean()
        forward = np.fft.fft(cir.taps)[:N_POINTS] * (N_POINTS / cir.taps.size)
        assert np.max(np.abs(forward - windowed)) / np.max(np.abs(windowed)) < 1e-9

    def test_window_sidelobe_ordering(self):
        tau = on_grid_delay(100)
        sweep = multipath_sweep([(1.0, tau)])

        def max_sidelobe_db(window, main_lobe_half_width):
            cir = sweep_to_cir(sweep, window=window, pad_factor=8)
            mags = np.abs(cir.taps)
            peak = np.argmax(mags)
            lobe = mags.copy()
            lobe[peak - main_lobe_half_width:peak + main_lobe_half_width + 1] = 0
            return 20 * np.log10(lobe.max() / mags[peak])

        hann = max_sidelobe_db("hann", 2 * 8)  # hann main lobe spans 2 bins/side
        rect = max_sidelobe_db("rectangular", 8)
        assert hann <= -31.0
        assert rect > -14.0
        assert hann < rect

    def test_non_uniform_grid_rejected(self):
        freqs = FREQS.copy()
        freqs[5] += 1e3
        with pytest.raises(ValueError):
            FrequencySweep(freqs=freqs, h=np.ones(N_POINTS))

    def test_bad_window_and_pad(self):
        sweep = FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS))
        with pytest.raises(ValueError):
            sweep_to_cir(sweep, window="kaiser")
        with pytest.raises(ValueError):
            sweep_to_cir(sweep, pad_factor=0)

    def test_hann_over_two_points_rejected(self):
        sweep = FrequencySweep(freqs=FREQS[:2], h=np.ones(2))
        with pytest.raises(ValueError, match="hann window over 2 points is all zeros"):
            sweep_to_cir(sweep)
        assert np.isfinite(sweep_to_cir(sweep, window="rectangular").taps).all()


class TestChirpZTransform:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 3000),
        pad_factor=st.integers(1, 8),
        window=st.sampled_from(["rectangular", "hann", "hamming"]),
        rows=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1601, pad_factor=4, window="hann", rows=0, seed=0)
    @example(n=1601, pad_factor=4, window="hann", rows=3, seed=1)
    @example(n=2003, pad_factor=3, window="hamming", rows=0, seed=2)
    @example(n=2003, pad_factor=8, window="rectangular", rows=2, seed=3)
    def test_matches_zero_padded_ifft(self, n, pad_factor, window, rows, seed):
        # rows == 0 is a single 1-D sweep; otherwise a (rows, n) block
        rng = np.random.default_rng(seed)
        shape = (rows, n) if rows else (n,)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        freqs = 1e9 + 1e6 * np.arange(n)
        if window == "hann" and n == 2:  # an all-zero window
            with pytest.raises(ValueError, match="hann window over 2 points is all zeros"):
                _delay_taps(h, window, pad_factor)
            return
        got = _delay_taps(h, window, pad_factor)
        want = np.array([
            reference_sweep_to_cir(FrequencySweep(freqs, row), window, pad_factor).taps
            for row in np.atleast_2d(h)
        ]).reshape(got.shape)
        assert got.shape == shape[:-1] + (pad_factor * n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_kernel_is_read_only(self):
        chirp, spectrum, _ = _delay_table("hann", 4, 1601)
        assert chirp.shape == (6404,) and spectrum.shape == (8192,)
        for array in (chirp, spectrum):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_window_weights_are_kept_and_read_only(self):
        table = _delay_table("hann", 4, 1601)
        assert _delay_table("hann", 4, 1601) is table
        chirp, _, weights = table
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0
        # the weights that were built on every call before they were kept
        w = np.hanning(1601)
        assert weights.tobytes() == (chirp[:1601] * (w / (w.mean() * 1601))).tobytes()

    def test_rejected_window_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="hann window over 2 points is all zeros"):
                _delay_table("hann", 4, 2)

    @pytest.mark.parametrize("shape, pad_factor", [((201,), 4), ((3, 1601), 4), ((2, 50), 3)])
    def test_in_place_transform_is_bit_identical(self, shape, pad_factor):
        # the inverse FFT into its own input against the one into a new array
        rng = np.random.default_rng(shape[-1])
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        n = shape[-1]
        chirp, spectrum, weights = _delay_table("hamming", pad_factor, n)
        conv = np.fft.fft(h * weights, spectrum.size)
        conv *= spectrum
        want = np.fft.ifft(conv)[..., :pad_factor * n] * chirp
        assert _delay_taps(h, "hamming", pad_factor).tobytes() == want.tobytes()


class TestCirToPdp:
    def test_peak_is_exactly_zero_db(self):
        sweep = multipath_sweep([(0.3, on_grid_delay(10))])
        pdp = cir_to_pdp(sweep_to_cir(sweep))
        assert pdp.power_db.max() == 0.0

    def test_scale_invariance(self):
        sweep = multipath_sweep([(1.0, on_grid_delay(10)), (0.2, on_grid_delay(45))])
        cir = sweep_to_cir(sweep)
        pdp_a = cir_to_pdp(cir)
        cir.taps = cir.taps * (17.3 * np.exp(0.4j))
        pdp_b = cir_to_pdp(cir)
        assert_allclose(pdp_a.power_db, pdp_b.power_db, atol=1e-9)

    def test_noise_floor_estimate(self):
        level_db = -25.0
        misses = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            taps = np.zeros(1024, dtype=complex)
            taps[0] = 1.0
            sigma = 10 ** (level_db / 20)
            taps += sigma * (rng.standard_normal(1024) + 1j * rng.standard_normal(1024)) / np.sqrt(2)
            from nrlab import Cir

            pdp = cir_to_pdp(Cir(taps=taps, delay_resolution=1e-9, max_delay=1e-6))
            misses += abs(pdp.noise_floor_db - level_db) > 2.0
        assert misses == 0

    def test_all_zero_rejected(self):
        from nrlab import Cir

        with pytest.raises(ValueError):
            cir_to_pdp(Cir(taps=np.zeros(16, complex), delay_resolution=1.0, max_delay=16.0))


class TestCompensatePhase:
    def test_exact_cancellation_of_common_drift(self):
        rng = np.random.default_rng(0)
        clean = multipath_sweep([(1.0, on_grid_delay(12)), (0.4, on_grid_delay(80))])
        drift = np.exp(1j * rng.uniform(-np.pi, np.pi, N_POINTS))
        drifted = FrequencySweep(freqs=FREQS, h=clean.h * drift, pilot=drift)
        out = compensate_phase(drifted)
        assert np.max(np.abs(out.h - clean.h)) < 1e-12

    def test_unit_pilot_is_identity(self):
        sweep = FrequencySweep(
            freqs=FREQS, h=np.exp(1j * np.linspace(0, 3, N_POINTS)),
            pilot=np.ones(N_POINTS),
        )
        out = compensate_phase(sweep)
        assert_allclose(out.h, sweep.h, atol=1e-15)

    def test_noisy_pilot_residual_under_two_degrees(self):
        clean = np.ones(N_POINTS, dtype=complex)
        residuals = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            drift = np.exp(1j * rng.uniform(-np.pi, np.pi, N_POINTS))
            snr = 10 ** (30 / 10)
            noise = (rng.standard_normal(N_POINTS) + 1j * rng.standard_normal(N_POINTS))
            pilot = drift + noise * np.sqrt(1 / (2 * snr))
            sweep = FrequencySweep(freqs=FREQS, h=clean * drift, pilot=pilot)
            out = compensate_phase(sweep)
            residuals.append(np.angle(out.h))
        residual_std = float(np.std(np.concatenate(residuals)))
        assert np.degrees(residual_std) < 2.0

    def test_missing_or_zero_pilot(self):
        sweep = FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS))
        with pytest.raises(ValueError):
            compensate_phase(sweep)
        pilot = np.ones(N_POINTS, complex)
        pilot[3] = 0
        with pytest.raises(ValueError):
            compensate_phase(FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS), pilot=pilot))


class TestAoaDelayProfile:
    def test_broadside_plane_wave(self):
        sweeps = plane_wave_scan(ULA16, [(0.0, on_grid_delay(25), 1.0)])
        scan = VirtualArrayScan(ULA16, sweeps)
        profile = aoa_delay_profile(scan, ANGLES, pad_factor=1)
        a, d = np.unravel_index(np.nanargmax(profile.power_db), profile.power_db.shape)
        assert profile.angles_deg[a] == 0.0
        assert d == 25

    def test_oblique_path_localized(self):
        sweeps = plane_wave_scan(ULA16, [(30.0, on_grid_delay(40), 1.0)])
        scan = VirtualArrayScan(ULA16, sweeps)
        profile = aoa_delay_profile(scan, ANGLES, pad_factor=1)
        a, d = np.unravel_index(np.nanargmax(profile.power_db), profile.power_db.shape)
        assert abs(profile.angles_deg[a] - 30.0) <= 1.0
        assert abs(d - 40) <= 1

    def test_two_paths_both_local_maxima(self):
        paths = [(-20.0, on_grid_delay(30), 1.0), (40.0, on_grid_delay(90), 0.8)]
        sweeps = plane_wave_scan(ULA16, paths)
        profile = aoa_delay_profile(VirtualArrayScan(ULA16, sweeps), ANGLES, pad_factor=1)
        for angle, tau, _ in paths:
            a = int(np.argmin(np.abs(profile.angles_deg - angle)))
            d = int(round(tau * N_POINTS * DF))
            window = profile.power_db[max(a - 1, 0):a + 2, max(d - 1, 0):d + 2]
            assert np.nanmax(window) > -3.0  # strong cell at the path location

    def test_element_permutation_invariance(self):
        sweeps = plane_wave_scan(ULA16, [(10.0, on_grid_delay(12), 1.0)])
        profile_a = aoa_delay_profile(VirtualArrayScan(ULA16, sweeps), ANGLES)
        order = np.random.default_rng(3).permutation(len(sweeps))
        profile_b = aoa_delay_profile(
            VirtualArrayScan(ULA16[order], [sweeps[i] for i in order]), ANGLES
        )
        # compare in the linear domain: dB diverges at machine-zero nulls
        assert_allclose(
            10 ** (profile_a.power_db / 20), 10 ** (profile_b.power_db / 20), atol=1e-9
        )

    def test_peak_memory_is_under_two_maps(self):
        # 16 elements x 1601 points x 181 angles: the map is 9.3 MB of
        # float64, and the call should hold little more than that one map
        rng = np.random.default_rng(11)
        freqs = 99e9 + 1.25e6 * np.arange(1601)
        sweeps = [
            FrequencySweep(freqs, rng.standard_normal(1601) + 1j * rng.standard_normal(1601))
            for _ in range(16)
        ]
        scan = VirtualArrayScan(ULA16, sweeps)
        tracemalloc.start()
        try:
            profile = aoa_delay_profile(scan, ANGLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        map_bytes = profile.power_db.nbytes
        assert profile.power_db.shape == (181, 6404)
        assert peak <= 2 * map_bytes, f"traced peak {peak} B, map {map_bytes} B"

    def test_mismatched_grids_rejected(self):
        good = FrequencySweep(freqs=FREQS, h=np.ones(N_POINTS))
        other = FrequencySweep(freqs=FREQS + DF, h=np.ones(N_POINTS))
        with pytest.raises(ValueError):
            VirtualArrayScan(ULA16[:2], [good, other])


def cos_squared_pattern():
    angles = np.arange(-90.0, 91.0, 1.0)
    gain = (0.2 + 0.8 * np.cos(np.deg2rad(angles)) ** 2) * np.exp(
        1j * np.deg2rad(angles) / 4
    )
    return AntennaPattern(angles_deg=angles, gain=gain)


class TestGeometryFiniteness:
    @pytest.mark.parametrize("angles, gain", [
        ([-90.0, np.inf, 90.0], [1.0, 1.0, 1.0]),
        ([-90.0, np.nan, 90.0], [1.0, 1.0, 1.0]),
        ([-90.0, 0.0, 90.0], [1.0, np.inf, 1.0]),
        ([-90.0, 0.0, 90.0], [1.0, complex(1, np.nan), 1.0]),
    ])
    def test_pattern_rejects_non_finite(self, angles, gain):
        with pytest.raises(ValueError, match="pattern angles and gains must be finite"):
            AntennaPattern(angles_deg=np.array(angles), gain=np.array(gain))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_scan_rejects_non_finite_positions(self, value):
        positions = ULA16.copy()
        positions[3, 1] = value
        sweeps = plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)])
        with pytest.raises(ValueError, match="element_positions must be finite"):
            VirtualArrayScan(positions, sweeps)


class TestDeembedPattern:
    def test_isotropic_pattern_is_identity(self):
        sweeps = plane_wave_scan(ULA16, [(5.0, on_grid_delay(33), 1.0)])
        iso = AntennaPattern(
            angles_deg=np.array([-90.0, 90.0]), gain=np.array([1.0, 1.0])
        )
        raw = VirtualArrayScan(ULA16, sweeps)
        marked = deembed_pattern(VirtualArrayScan(ULA16, sweeps, pattern=iso))
        profile_raw = aoa_delay_profile(raw, ANGLES)
        profile_iso = aoa_delay_profile(marked, ANGLES)
        assert_allclose(profile_iso.power_db, profile_raw.power_db, atol=1e-9)
        assert profile_iso.valid.all()

    def test_recovers_isotropic_profile_at_path_cells(self):
        pattern = cos_squared_pattern()
        paths = [(-25.0, on_grid_delay(30), 1.0), (35.0, on_grid_delay(80), 0.7)]
        gain_of = lambda ang: complex(pattern.gain_at(np.array([ang]))[0])

        sweeps_iso = plane_wave_scan(ULA16, paths)
        profile_iso = aoa_delay_profile(VirtualArrayScan(ULA16, sweeps_iso), ANGLES, pad_factor=1)

        sweeps_pat = plane_wave_scan(ULA16, paths, gain_of=gain_of)
        marked = deembed_pattern(VirtualArrayScan(ULA16, sweeps_pat, pattern=pattern))
        profile_deemb = aoa_delay_profile(marked, ANGLES, pad_factor=1)

        for angle, tau, _ in paths:
            a = int(np.argmin(np.abs(ANGLES - angle)))
            d = int(round(tau * N_POINTS * DF))
            assert abs(profile_deemb.power_db[a, d] - profile_iso.power_db[a, d]) < 0.1
        # localization survives de-embedding
        a, d = np.unravel_index(np.nanargmax(profile_deemb.power_db), profile_deemb.power_db.shape)
        assert abs(ANGLES[a] - (-25.0)) <= 1.0
        assert abs(d - 30) <= 1

    def test_pattern_null_marks_angles_invalid(self):
        angles = np.arange(-90.0, 91.0, 1.0)
        gain = np.ones(angles.size, dtype=complex)
        gain[np.abs(angles - 60.0) <= 5.0] = 10 ** (-40 / 20)  # below -30 dB mask
        pattern = AntennaPattern(angles_deg=angles, gain=gain)
        sweeps = plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)])
        marked = deembed_pattern(VirtualArrayScan(ULA16, sweeps, pattern=pattern))
        profile = aoa_delay_profile(marked, ANGLES)
        nulled = np.abs(ANGLES - 60.0) <= 5.0
        assert not profile.valid[nulled].any()
        assert profile.valid[~nulled].all()
        assert np.isnan(profile.power_db[nulled]).all()

    def test_pattern_required(self):
        sweeps = plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)])
        match = "pattern compensation needs a scan with an antenna pattern"
        with pytest.raises(ValueError, match=match):
            deembed_pattern(VirtualArrayScan(ULA16, sweeps))
        with pytest.raises(ValueError, match=match):
            VirtualArrayScan(ULA16, sweeps, compensate_pattern=True)

    def test_pattern_must_cover_angle_grid(self):
        sweeps = plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)])
        marked = deembed_pattern(VirtualArrayScan(ULA16, sweeps, pattern=cos_squared_pattern()))
        with pytest.raises(ValueError, match="pattern table does not cover the requested angles"):
            aoa_delay_profile(marked, np.arange(-95.0, 90.5, 1.0))


def nulled_pattern():
    """cos^2 pattern with a -40 dB null 55-65 deg, below the -30 dB mask."""
    pattern = cos_squared_pattern()
    null = np.abs(pattern.angles_deg - 60.0) <= 5.0
    pattern.gain[null] *= 10 ** (-40 / 20) / np.abs(pattern.gain[null])
    return pattern


def noisy_scan(pattern=None):
    paths = [(-20.0, 30.3 / (N_POINTS * DF), 1.0), (47.5, on_grid_delay(90), 0.6)]
    gain_of = None
    if pattern is not None:
        gain_of = lambda ang: complex(pattern.gain_at(np.array([ang]))[0])
    sweeps = plane_wave_scan(ULA16, paths, gain_of=gain_of)
    rng = np.random.default_rng(7)
    for s in sweeps:
        s.h = s.h + 0.05 * (rng.standard_normal(N_POINTS) + 1j * rng.standard_normal(N_POINTS))
    scan = VirtualArrayScan(ULA16, sweeps, pattern=pattern)
    return scan if pattern is None else deembed_pattern(scan)


def assert_matches_reference(got, want):
    # The chirp-z transform, the factored steering phases and the window
    # applied before the element sum round differently from the per-angle
    # FFT, so the linear maps (peak 1) agree to a bound, not bit for bit.
    assert np.array_equal(np.isnan(got.power_db), np.isnan(want.power_db))
    linear_got = 10 ** (got.power_db / 20)
    linear_want = 10 ** (want.power_db / 20)
    assert np.nanmax(np.abs(linear_got - linear_want)) <= 1e-12
    assert np.array_equal(got.delays, want.delays)
    assert np.array_equal(got.valid, want.valid)
    assert np.array_equal(got.angles_deg, want.angles_deg)


class TestAoaReference:
    @pytest.mark.parametrize(
        "pattern, kwargs",
        [
            (None, {}),
            (nulled_pattern(), {"pad_factor": 2, "window": "hamming"}),
        ],
        ids=["ula", "deembedded-null"],
    )
    def test_matches_per_angle_map(self, pattern, kwargs):
        scan = noisy_scan(pattern)
        got = aoa_delay_profile(scan, ANGLES, **kwargs)
        assert_matches_reference(got, reference_aoa_delay_profile(scan, ANGLES, **kwargs))
        if pattern is not None:
            assert 0 < np.count_nonzero(~got.valid) < ANGLES.size

    @settings(max_examples=40, deadline=None)
    @given(
        n_elements=st.integers(2, 8),
        n_points=st.integers(3, 300),
        window=st.sampled_from(["rectangular", "hann", "hamming"]),
        pad_factor=st.integers(1, 4),
        n_angles=st.integers(2, 3 * AOA_ANGLE_BLOCK + 2),
        masked=st.one_of(st.none(), st.tuples(st.integers(0, 3 * AOA_ANGLE_BLOCK),
                                             st.integers(1, AOA_ANGLE_BLOCK + 2))),
        seed=st.integers(0, 2**32 - 1),
    )
    # masked runs across the first and the second AOA_ANGLE_BLOCK boundary,
    # so a block's rows skip over the masked angles
    @example(n_elements=8, n_points=300, window="hann", pad_factor=4, n_angles=40,
             masked=(AOA_ANGLE_BLOCK - 2, 4), seed=0)
    @example(n_elements=3, n_points=101, window="hamming", pad_factor=3, n_angles=50,
             masked=(2 * AOA_ANGLE_BLOCK - 3, AOA_ANGLE_BLOCK + 2), seed=1)
    @example(n_elements=2, n_points=3, window="rectangular", pad_factor=1, n_angles=2,
             masked=None, seed=2)
    # and across the boundary of the 8-angle blocks that two workers take
    @example(n_elements=4, n_points=64, window="hann", pad_factor=2, n_angles=40,
             masked=(AOA_ANGLE_BLOCK // 2 - 1, 3), seed=3)
    def test_random_arrays_match_per_angle_map(
        self, n_elements, n_points, window, pad_factor, n_angles, masked, seed
    ):
        # elements anywhere in a 4 cm cube, responses of random paths plus noise
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-0.02, 0.02, (n_elements, 3))
        freqs = F_START + DF * np.arange(n_points)
        paths = [(rng.uniform(-90, 90), rng.uniform(0, 1 / DF), rng.uniform(0.2, 1))
                 for _ in range(2)]
        sweeps = plane_wave_scan(positions, paths, freqs=freqs)
        for s in sweeps:
            s.h = s.h + 0.1 * (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
        angles = np.linspace(-90.0, 90.0, n_angles)
        scan = VirtualArrayScan(positions, sweeps)
        if masked is not None:
            # a pattern tabulated on the grid, below the mask on one run of angles
            gain = rng.uniform(0.1, 1, n_angles) * np.exp(2j * np.pi * rng.uniform(size=n_angles))
            start, length = masked
            gain[start:start + length] = 1e-3
            if np.all(np.abs(gain) == 1e-3):
                gain[0] = 1.0
            pattern = AntennaPattern(angles_deg=angles, gain=gain)
            scan = deembed_pattern(VirtualArrayScan(positions, sweeps, pattern=pattern))
        kwargs = {"window": window, "pad_factor": pad_factor}
        got = aoa_delay_profile(scan, angles, **kwargs)
        assert_matches_reference(got, reference_aoa_delay_profile(scan, angles, **kwargs))

    def test_every_angle_masked(self):
        angles = np.array([-90.0, 90.0])
        pattern = AntennaPattern(angles_deg=angles, gain=np.full(2, 1e-3 + 0j))
        sweeps = plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)])
        marked = deembed_pattern(VirtualArrayScan(ULA16, sweeps, pattern=pattern))
        with pytest.raises(ValueError, match="every angle fell below the pattern mask"):
            aoa_delay_profile(marked, ANGLES)

    def test_bad_window_rejected(self):
        scan = VirtualArrayScan(ULA16, plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)]))
        with pytest.raises(ValueError, match="window must be one of"):
            aoa_delay_profile(scan, ANGLES, window="blackman")

    def test_negative_pad_factor_rejected(self):
        scan = VirtualArrayScan(ULA16, plane_wave_scan(ULA16, [(0.0, on_grid_delay(10), 1.0)]))
        with pytest.raises(ValueError, match="pad_factor must be >= 1, got -2"):
            aoa_delay_profile(scan, ANGLES, pad_factor=-2)

    def test_hann_over_two_points_rejected(self):
        sweeps = plane_wave_scan(ULA16, [(0.0, 0.0, 1.0)], freqs=FREQS[:2])
        with pytest.raises(ValueError, match="hann window over 2 points is all zeros"):
            aoa_delay_profile(VirtualArrayScan(ULA16, sweeps), ANGLES)


def random_scan(rng, n_elements, n_points, angles, masked):
    """A scan of random sweeps; with masked = (start, length), a pattern
    tabulated on the angle grid that masks that run of angles."""
    positions = rng.uniform(-0.02, 0.02, (n_elements, 3))
    freqs = F_START + DF * np.arange(n_points)
    sweeps = [FrequencySweep(freqs, rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
              for _ in range(n_elements)]
    if masked is None:
        return VirtualArrayScan(positions, sweeps)
    gain = rng.uniform(0.1, 1, angles.size) * np.exp(2j * np.pi * rng.uniform(size=angles.size))
    start, length = masked
    gain[start:start + length] = 1e-3
    gain[-1] = 1.0  # at least one valid angle
    pattern = AntennaPattern(angles_deg=angles, gain=gain)
    return deembed_pattern(VirtualArrayScan(positions, sweeps, pattern=pattern))


def profile_with_workers(scan, angles, workers, **kwargs):
    """The map with the CPU count forced to `workers`, and the number of
    workers that each of its two passes, the rows and then the dB pass, ran
    on."""
    ran = []
    run_slices = sounding._run_slices

    def counted(run, slices, n):
        ran.append(min(n, len(slices)))
        run_slices(run, slices, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(types, "_usable_cpus", lambda: workers)
        mp.setattr(sounding, "_run_slices", counted)
        return aoa_delay_profile(scan, angles, **kwargs), tuple(ran)


class TestAoaWorkers:
    @settings(max_examples=30, deadline=None)
    @given(
        n_elements=st.integers(2, 5),
        n_points=st.integers(2, 40),
        pad_factor=st.integers(1, 3),
        n_angles=st.integers(2, 4 * AOA_ANGLE_BLOCK),
        masked=st.one_of(st.none(), st.tuples(st.integers(0, 4 * AOA_ANGLE_BLOCK),
                                             st.integers(1, AOA_ANGLE_BLOCK + 2))),
        seed=st.integers(0, 2**32 - 1),
    )
    # masked runs across the boundaries of the 8-angle blocks of two workers
    # and of the 5-angle blocks of three
    @example(n_elements=3, n_points=20, pad_factor=2, n_angles=50, masked=(7, 3), seed=0)
    @example(n_elements=2, n_points=9, pad_factor=1, n_angles=64, masked=(14, 12), seed=1)
    # fewer valid angles than workers
    @example(n_elements=2, n_points=5, pad_factor=1, n_angles=2, masked=None, seed=2)
    @example(n_elements=4, n_points=12, pad_factor=3, n_angles=40, masked=(0, 38), seed=3)
    def test_map_is_bit_identical_for_any_worker_count(
        self, n_elements, n_points, pad_factor, n_angles, masked, seed
    ):
        rng = np.random.default_rng(seed)
        angles = np.linspace(-90.0, 90.0, n_angles)
        scan = random_scan(rng, n_elements, n_points, angles, masked)
        window = "rectangular" if n_points == 2 else "hamming"
        want, ran = profile_with_workers(scan, angles, 1, window=window, pad_factor=pad_factor)
        n_valid = int(want.valid.sum())
        assert ran == (1, 1)
        for workers in (2, 3):
            got, ran = profile_with_workers(scan, angles, workers, window=window,
                                            pad_factor=pad_factor)
            assert ran == (min(workers, -(-n_valid // AOA_ANGLE_BLOCK)),) * 2
            for name in ("power_db", "valid", "delays", "angles_deg"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_no_thread_outlives_the_call(self):
        rng = np.random.default_rng(5)
        scan = random_scan(rng, 4, 50, ANGLES, None)
        before = threading.active_count()
        _, ran = profile_with_workers(scan, ANGLES, 2)
        assert ran == (2, 2)
        assert threading.active_count() == before

    def test_db_pass_runs_on_the_map_workers(self):
        # each of two workers waits on its first dB slice until the other
        # has one too, which only two threads running the pass can pass
        rng = np.random.default_rng(6)
        scan = random_scan(rng, 3, 20, ANGLES, (30, 20))
        want, _ = profile_with_workers(scan, ANGLES, 1)
        meet = threading.Barrier(2, timeout=10)
        seen = {}
        to_db = sounding._to_db

        def met(rows, worker, **rest):
            if worker not in seen:
                seen[worker] = threading.get_ident()
                meet.wait()
            to_db(rows, worker, **rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sounding, "_to_db", met)
            got, ran = profile_with_workers(scan, ANGLES, 2)
        assert ran == (2, 2)
        assert sorted(seen) == [0, 1] and seen[0] == threading.get_ident() != seen[1]
        assert got.power_db.tobytes() == want.power_db.tobytes()

    def test_more_workers_than_cores_switching_often(self):
        # four workers share the block queue and the map; a block lost or
        # written twice into the wrong rows would change the map's bytes
        rng = np.random.default_rng(9)
        scan = random_scan(rng, 3, 30, ANGLES, (40, 30))
        want, _ = profile_with_workers(scan, ANGLES, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got, ran = profile_with_workers(scan, ANGLES, 4)
                assert ran == (4, 4)
                assert got.power_db.tobytes() == want.power_db.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_traced_peak_of_a_chamber_sized_map(self, workers):
        # 16 elements x 1601 points x 181 angles: the map is 9.3 MB, and the
        # workspaces hold the same 16 angles in flight for any worker count
        rng = np.random.default_rng(11)
        scan = random_scan(rng, 16, 1601, ANGLES, None)
        tracemalloc.start()
        try:
            profile, ran = profile_with_workers(scan, ANGLES, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.power_db.shape == (181, 6404) and ran == (workers, workers)
        assert peak <= 17e6, f"traced peak {peak} B"


def _one_element_scan():
    return VirtualArrayScan(np.zeros((1, 3)), [multipath_sweep([(1.0, 0.0)])])


class TestRejectedInputs:
    """Each check of the sweep, pattern and scan types and of the AoA map
    raises with its own message."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: FrequencySweep([1e9], [1.0]),
                     "sweep needs at least 2 frequency points", id="one-point-sweep"),
        pytest.param(lambda: FrequencySweep(FREQS, np.ones(N_POINTS - 1)),
                     "freqs and h lengths differ", id="short-h"),
        pytest.param(lambda: FrequencySweep(FREQS[::-1], np.ones(N_POINTS)),
                     "freqs must be strictly increasing", id="falling-freqs"),
        pytest.param(lambda: FrequencySweep(FREQS, np.full(N_POINTS, np.nan)),
                     "sweep contains non-finite responses", id="nan-h"),
        pytest.param(lambda: FrequencySweep(FREQS, np.ones(N_POINTS), pilot=np.ones(3)),
                     "pilot length differs from freqs", id="short-pilot"),
        pytest.param(lambda: AntennaPattern([0.0], [1.0]),
                     "pattern needs at least 2 angle points", id="one-angle-pattern"),
        pytest.param(lambda: AntennaPattern([0.0, 0.0], [1.0, 1.0]),
                     "pattern angles must be strictly increasing", id="repeated-angle"),
        pytest.param(lambda: AntennaPattern([0.0, 1.0], [1.0]),
                     "pattern gain length differs from angles", id="short-gain"),
        pytest.param(lambda: VirtualArrayScan(np.zeros((1, 2)), [multipath_sweep([])]),
                     "element_positions must have shape (n_elements, 3)", id="2d-positions"),
        pytest.param(lambda: VirtualArrayScan(np.zeros((0, 3)), []),
                     "scan needs at least one element", id="no-elements"),
        pytest.param(lambda: aoa_delay_profile(_one_element_scan(), np.zeros((0,))),
                     "angle grid must be a non-empty 1-D array", id="empty-angle-grid"),
        pytest.param(lambda: aoa_delay_profile(_one_element_scan(), [0.0]),
                     "beamforming needs at least 2 elements", id="one-element"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
