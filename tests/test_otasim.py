import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from nrlab import (
    Cir,
    FadingRealization,
    IqCapture,
    RcChannelModel,
    TransferMatrix,
    apply_channel,
    awgn,
    cancel_rc_decay,
    compute_calibration,
    estimate_transfer_matrix,
    isolation_db,
    make_rsrp_sounder,
    random_well_conditioned,
    simulate_rc_channel,
    sound_rsrp,
)
from nrlab import types
from nrlab.otasim import CHANNEL_CHUNK


def align_row_phases(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Remove the per-row global phase ambiguity of an RSRP-based estimate."""
    rotated = estimate.copy()
    for j in range(truth.shape[0]):
        inner = np.vdot(rotated[j], truth[j])
        if abs(inner) > 0:
            rotated[j] *= inner / abs(inner)
    return rotated


class TestSoundRsrp:
    def test_identity_unit_vector(self):
        a = TransferMatrix(np.eye(4))
        rsrp = sound_rsrp(a, np.array([1, 0, 0, 0], complex))
        assert_allclose(rsrp, [1, 0, 0, 0], atol=1e-15)

    def test_weight_scaling(self):
        a = random_well_conditioned(4, rng=1)
        w = np.array([0.3, -0.2j, 1.0, 0.1 + 0.4j])
        assert_allclose(sound_rsrp(a, 2j * w), 4 * sound_rsrp(a, w), rtol=1e-12)

    def test_superposition_on_identity(self):
        a = TransferMatrix(np.eye(4))
        rsrp = sound_rsrp(a, np.array([1, 1, 0, 0], complex))
        assert_allclose(rsrp, [1, 1, 0, 0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sound_rsrp(TransferMatrix(np.eye(4)), np.ones(3, complex))

    def test_noise_is_seeded(self):
        a = random_well_conditioned(2, rng=0)
        w = np.ones(2, complex)
        r1 = sound_rsrp(a, w, noise_db=20.0, rng=5)
        r2 = sound_rsrp(a, w, noise_db=20.0, rng=5)
        assert_array_equal(r1, r2)

    @pytest.mark.parametrize("noise_db", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_rejected(self, noise_db):
        with pytest.raises(ValueError, match=f"noise_db must be finite or None, got {noise_db}"):
            sound_rsrp(TransferMatrix(np.eye(2)), np.ones(2, complex), noise_db=noise_db)


class TestEstimateTransferMatrix:
    def test_identity_up_to_row_phase(self):
        truth = TransferMatrix(np.eye(4))
        est = estimate_transfer_matrix(make_rsrp_sounder(truth), 4)
        aligned = align_row_phases(est.a, truth.a)
        assert np.max(np.abs(aligned - truth.a)) < 1e-9

    def test_random_noiseless(self):
        truth = random_well_conditioned(4, rng=42)
        est = estimate_transfer_matrix(make_rsrp_sounder(truth), 4)
        aligned = align_row_phases(est.a, truth.a)
        rel = np.linalg.norm(aligned - truth.a) / np.linalg.norm(truth.a)
        assert rel < 1e-6

    def test_row_phase_is_the_only_ambiguity(self):
        truth = random_well_conditioned(4, rng=7)
        est = estimate_transfer_matrix(make_rsrp_sounder(truth), 4)
        assert_allclose(np.abs(est.a), np.abs(truth.a), rtol=1e-9, atol=1e-12)
        ratios = est.a / truth.a
        row_phase = ratios[:, :1]
        assert np.max(np.abs(ratios - row_phase)) < 1e-6

    @pytest.mark.slow
    def test_noisy_sounding_five_percent(self):
        # A weak reference-column entry amplifies the 3-point phase noise,
        # so the occasional draw lands above 5%; the batch has to sit
        # comfortably under the bar.
        errors = []
        for seed in range(100):
            truth = random_well_conditioned(4, rng=seed)
            sounder = make_rsrp_sounder(truth, noise_db=40.0, rng=seed + 1000)
            est = estimate_transfer_matrix(sounder, 4)
            aligned = align_row_phases(est.a, truth.a)
            errors.append(
                np.linalg.norm(aligned - truth.a) / np.linalg.norm(truth.a)
            )
        errors = np.array(errors)
        assert np.median(errors) < 0.025
        assert (errors < 0.05).sum() >= 95
        assert errors.max() < 0.10

    def test_degenerate_reference_detected(self):
        # DUT port 2 couples to probes 2 and 3 but not to the reference probe
        a = np.eye(4, dtype=complex)
        a[1] = [0.0, 0.7, 0.7, 0.0]
        truth = TransferMatrix(a)
        with pytest.raises(ValueError, match="reference"):
            estimate_transfer_matrix(make_rsrp_sounder(truth), 4)


class TestCalibration:
    def test_identity(self):
        cal = compute_calibration(TransferMatrix(np.eye(4)))
        assert_allclose(cal, np.eye(4), atol=1e-12)

    def test_inverse_property(self):
        truth = random_well_conditioned(4, rng=3)
        cal = compute_calibration(truth)
        assert np.max(np.abs(truth.a @ cal - np.eye(4))) < 1e-9

    def test_rank_deficient_rejected(self):
        singular = TransferMatrix(np.array([[1.0, 1.0], [1.0, 1.0]], complex))
        with pytest.raises(ValueError, match="condition"):
            compute_calibration(singular)


class TestIsolation:
    def test_identity_capped(self):
        assert isolation_db(np.eye(4)) == 100.0

    def test_equal_power_leak_is_zero_db(self):
        t = np.zeros((4, 4), complex)
        np.fill_diagonal(t, 1.0)
        t[2, 0] = 1.0
        assert isolation_db(t) == pytest.approx(0.0)

    def test_zero_diagonal_fails(self):
        t = np.eye(4, dtype=complex)
        t[1, 1] = 0.0
        t[1, 2] = 0.5
        assert isolation_db(t) == -np.inf

    def test_all_zero_row_fails(self):
        t = np.eye(4, dtype=complex)
        t[2] = 0.0  # 0/0 on this row must read -inf, not NaN
        assert isolation_db(t) == -np.inf

    def test_calibrated_random_meets_30_db(self):
        truth = random_well_conditioned(4, rng=11)
        est = estimate_transfer_matrix(make_rsrp_sounder(truth), 4)
        effective = truth.a @ compute_calibration(est)
        assert isolation_db(effective) >= 30.0

    def test_wireless_cable_round_trip_small_batch(self):
        for seed in range(25):
            ports = 2 if seed % 2 else 4
            truth = random_well_conditioned(ports, rng=seed)
            est = estimate_transfer_matrix(make_rsrp_sounder(truth), ports)
            effective = truth.a @ compute_calibration(est)
            assert isolation_db(effective) >= 30.0


class TestRejectedValues:
    """Each check of the transfer matrix, the fading realization and the
    isolation raises with its own message."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: TransferMatrix(np.eye(4)[:3]),
                     "transfer matrix must be square, got (3, 4)", id="non-square"),
        pytest.param(lambda: TransferMatrix(np.eye(3)),
                     "port count must be one of (2, 4, 8), got 3", id="three-ports"),
        pytest.param(lambda: TransferMatrix(np.diag([1.0, np.inf])),
                     "transfer matrix contains non-finite entries", id="inf-entry"),
        pytest.param(lambda: FadingRealization([0.0, 1e-9], [1.0]),
                     "delays and gains must be matching 1-D arrays", id="short-gains"),
        pytest.param(lambda: FadingRealization([-1e-9, 0.0], [1.0, 1.0]),
                     "delays must be nonnegative", id="negative-delay"),
        pytest.param(lambda: FadingRealization([0.0, 0.0], [1.0, 1.0]),
                     "delays must be strictly increasing", id="repeated-delay"),
        pytest.param(lambda: isolation_db(np.ones((2, 3))),
                     "effective matrix must be square, got (2, 3)", id="non-square-isolation"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


class TestRcChannel:
    def test_mean_decay_profile(self):
        model = RcChannelModel(tau_rc=2e-7, n_taps=16, tap_spacing=5e-8)
        k = np.arange(16)
        expect = np.exp(-k * model.tap_spacing / model.tau_rc)
        expect /= expect.sum()
        draws = np.stack(
            [
                np.abs(
                    simulate_rc_channel(
                        RcChannelModel(2e-7, 16, 5e-8, seed=seed)
                    ).gains
                )
                ** 2
                for seed in range(10_000)
            ]
        )
        mean = draws.mean(axis=0)
        # var(|g|^2) = p^2 for a complex Gaussian gain
        se = expect / np.sqrt(10_000)
        assert np.all(np.abs(mean - expect) <= 3 * se)

    def test_keyhole_matches_product_of_rayleighs(self):
        envelopes = np.array(
            [
                abs(
                    simulate_rc_channel(
                        RcChannelModel(1e-6, 1, 1e-8, keyhole=True, seed=seed)
                    ).gains[0]
                )
                for seed in range(10_000)
            ]
        )
        oracle_rng = np.random.default_rng(987654321)
        r1 = oracle_rng.rayleigh(scale=1 / np.sqrt(2), size=10_000)
        r2 = oracle_rng.rayleigh(scale=1 / np.sqrt(2), size=10_000)
        _, p_value = stats.ks_2samp(envelopes, r1 * r2)
        assert p_value > 0.01

    def test_single_tap_rayleigh(self):
        envelopes = np.array(
            [
                abs(simulate_rc_channel(RcChannelModel(1e-6, 1, 1e-8, seed=s)).gains[0])
                for s in range(10_000)
            ]
        )
        _, p_value = stats.kstest(envelopes, stats.rayleigh(scale=1 / np.sqrt(2)).cdf)
        assert p_value > 0.01

    def test_seed_reproducibility(self):
        model = RcChannelModel(tau_rc=3e-7, n_taps=8, tap_spacing=4e-8, seed=123)
        a = simulate_rc_channel(model)
        b = simulate_rc_channel(model)
        assert_array_equal(a.gains, b.gains)
        assert_array_equal(a.delays, b.delays)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RcChannelModel(tau_rc=-1.0, n_taps=4, tap_spacing=1e-8)
        with pytest.raises(ValueError):
            RcChannelModel(tau_rc=1e-7, n_taps=0, tap_spacing=1e-8)
        for tau_rc, tap_spacing in ((np.inf, 1e-8), (np.nan, 1e-8), (1e-7, np.inf)):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                RcChannelModel(tau_rc=tau_rc, n_taps=4, tap_spacing=tap_spacing)

    def test_overflowing_last_delay_rejected(self):
        # 31 * 1e307 is not a float: one error, before any arithmetic overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(n_taps - 1\) \* tap_spacing must be finite"):
                RcChannelModel(tau_rc=2e-7, n_taps=32, tap_spacing=1e307)
            # the last delay is finite; the decay past it underflows to zero power
            realization = simulate_rc_channel(
                RcChannelModel(tau_rc=2e-7, n_taps=2, tap_spacing=1e307))
        assert_array_equal(realization.delays, [0.0, 1e307])
        assert realization.gains[1] == 0


def exp_decay_cir(n_bins=256, decay_bins=10.0, tap_bin=0):
    k = np.arange(n_bins)
    kernel = np.exp(-k / (2.0 * decay_bins)).astype(complex)
    return Cir(
        taps=np.roll(kernel, tap_bin), delay_resolution=1.0, max_delay=float(n_bins)
    )


def out_of_bin_db(taps, tap_bin):
    power = np.abs(taps) ** 2
    rest = power.sum() - power[tap_bin]
    return 10 * np.log10(rest / power[tap_bin])


class TestCancelRcDecay:
    def test_self_deconvolution(self):
        reference = exp_decay_cir()
        out = cancel_rc_decay(reference, reference, epsilon=1e-9)
        mags = np.abs(out.taps)
        peak = np.argmax(mags)
        assert peak == 0
        others = np.delete(mags, peak)
        assert np.all(others <= 1e-2 * mags[peak])  # every bin <= -40 dB
        assert out.flags == ()

    def test_smeared_tap_restored(self):
        measured = exp_decay_cir(tap_bin=40)
        reference = exp_decay_cir(tap_bin=0)
        before = out_of_bin_db(measured.taps, 40)
        best = min(
            (cancel_rc_decay(measured, reference, 10.0**-e) for e in range(1, 9)),
            key=lambda c: out_of_bin_db(c.taps, 40),
        )
        after = out_of_bin_db(best.taps, 40)
        assert before > -5.0  # visibly smeared before cancellation
        assert after <= -20.0

    def test_spectral_nulls_flag_noise_amplification(self):
        n = 256
        rng = np.random.default_rng(8)
        spectrum = np.ones(n, complex)
        spectrum[n // 4:3 * n // 4] = 1e-7  # deep notch across half the band
        reference = Cir(
            taps=np.fft.ifft(spectrum), delay_resolution=1.0, max_delay=float(n)
        )
        noise = 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        measured = Cir(
            taps=reference.taps + noise, delay_resolution=1.0, max_delay=float(n)
        )
        amplified = cancel_rc_decay(measured, reference, epsilon=1e-12)
        assert "noise-amplified" in amplified.flags
        # a sane regularizer keeps the same data clean
        regularized = cancel_rc_decay(measured, reference, epsilon=1e-2)
        assert regularized.flags == ()

    def test_regularization_dominance(self):
        measured = exp_decay_cir(tap_bin=12)
        reference = exp_decay_cir()
        energies = [
            float(np.sum(np.abs(cancel_rc_decay(measured, reference, eps).taps) ** 2))
            for eps in (1e-6, 1e-3, 1.0, 1e3, 1e6)
        ]
        assert all(a > b for a, b in zip(energies, energies[1:]))
        assert energies[-1] < 1e-8

    def test_epsilon_validation(self):
        cir = exp_decay_cir()
        with pytest.raises(ValueError):
            cancel_rc_decay(cir, cir, epsilon=0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cancel_rc_decay(exp_decay_cir(n_bins=128), exp_decay_cir(n_bins=256), 1e-6)


def tap_loop_channel(capture, taps):
    """apply_channel as one shifted pass of the capture per tap."""
    shifts = np.round(taps.delays * capture.sample_rate).astype(np.int64)
    out = np.zeros(capture.samples.size + int(shifts.max(initial=0)), dtype=np.complex128)
    for shift, gain in zip(shifts, taps.gains):
        out[shift:shift + capture.samples.size] += gain * capture.samples
    return out


class TestApplyChannel:
    def test_matches_tap_loop(self):
        spacing = 1e-6
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
            capture = IqCapture(x, 1.0 / spacing)
            fading = simulate_rc_channel(RcChannelModel(
                tau_rc=8 * spacing, n_taps=32, tap_spacing=spacing, keyhole=True, seed=seed))
            want = tap_loop_channel(capture, fading)
            got = apply_channel(capture, fading).samples
            assert got.size == want.size == x.size + 31
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_taps_on_one_sample_add(self):
        # both delays round to sample 2: their gains add
        capture = IqCapture(np.arange(1, 9, dtype=complex), 1e6)
        taps = FadingRealization(
            delays=np.array([2e-6, 2e-6 + 1e-13]), gains=np.array([0.5 + 1j, -2.0 + 0.25j]))
        out = apply_channel(capture, taps)
        assert out.samples.size == 10
        assert_allclose(out.samples, tap_loop_channel(capture, taps), rtol=1e-15)
        assert_allclose(out.samples[2:], (-1.5 + 1.25j) * capture.samples, rtol=1e-15)
        assert np.all(out.samples[:2] == 0)

    def test_zero_delay_only(self):
        capture = IqCapture(np.exp(0.3j * np.arange(16)), 1e6)
        taps = FadingRealization(delays=np.array([0.0]), gains=np.array([0.6 - 0.8j]))
        out = apply_channel(capture, taps)
        assert out.samples.size == 16
        assert_allclose(out.samples, (0.6 - 0.8j) * capture.samples, rtol=1e-15)

    def test_empty_capture(self):
        taps = FadingRealization(delays=np.array([0.0, 3e-6]), gains=np.array([1.0, 0.5j]))
        out = apply_channel(IqCapture(np.zeros(0, complex), 1e6), taps)
        assert_array_equal(out.samples, np.zeros(3, complex))

    def test_identity_tap(self):
        capture = IqCapture(np.arange(10, dtype=complex), 1e6)
        taps = FadingRealization(delays=np.array([0.0]), gains=np.array([1.0 + 0j]))
        out = apply_channel(capture, taps)
        assert_allclose(out.samples, capture.samples, atol=1e-15)

    def test_pure_shift(self):
        capture = IqCapture(np.arange(10, dtype=complex), 1e6)
        taps = FadingRealization(delays=np.array([3e-6]), gains=np.array([1.0 + 0j]))
        out = apply_channel(capture, taps)
        assert out.samples.size == 13
        assert_allclose(out.samples[3:], capture.samples, atol=1e-15)
        assert np.all(out.samples[:3] == 0)

    def test_off_grid_delay_rejected(self):
        capture = IqCapture(np.ones(8, complex), 1e6)
        taps = FadingRealization(delays=np.array([1.5e-6]), gains=np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="tap 0"):
            apply_channel(capture, taps)

    @pytest.mark.parametrize("delays, gains", [
        ([0.0, np.nan], [1.0, 0.5]),
        ([0.0, 1e-6], [1.0, np.inf]),
    ])
    def test_non_finite_taps_rejected(self, delays, gains):
        # a NaN delay would pass apply_channel's whole-sample check
        with pytest.raises(ValueError, match="must be finite"):
            FadingRealization(delays=np.array(delays), gains=np.array(gains))

    def test_white_input_energy(self):
        rng = np.random.default_rng(4)
        gains = np.array([0.8, 0.5j, -0.3 + 0.1j])
        taps = FadingRealization(delays=np.array([0.0, 7e-6, 19e-6]), gains=gains)
        ratios = []
        for seed in range(50):
            trial_rng = np.random.default_rng(1000 + seed)
            x = (trial_rng.standard_normal(4096) + 1j * trial_rng.standard_normal(4096))
            capture = IqCapture(x, 1e6)
            out = apply_channel(capture, taps)
            ratios.append(
                np.sum(np.abs(out.samples) ** 2) / np.sum(np.abs(x) ** 2)
            )
        expected = float(np.sum(np.abs(gains) ** 2))
        assert np.mean(ratios) == pytest.approx(expected, rel=0.02)


def channel_with_workers(capture, taps, workers):
    """apply_channel with the CPU count forced to `workers`, and the threads
    that the call started."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(types, "_usable_cpus", lambda: workers)
        mp.setattr(threading.Thread, "start", counted)
        return apply_channel(capture, taps).samples, started


def dense_taps(n_taps, seed):
    """A realization with a tap on each of the first n_taps samples at 1 Msps."""
    rng = np.random.default_rng(seed)
    return FadingRealization(delays=np.arange(n_taps) * 1e-6,
                             gains=rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))


class TestApplyChannelChunks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_equal_one_convolution(self, workers):
        # lengths on either side of one, two and three chunks
        c = CHANNEL_CHUNK
        rng = np.random.default_rng(workers)
        for n in (1, 5, 31, 32, 33, 64, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1, 3 * c + 7):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for n_taps in (1, 2, 31, 32, 33, 64):
                taps = dense_taps(n_taps, n + n_taps)
                got, _ = channel_with_workers(IqCapture(x, 1e6), taps, workers)
                assert got.tobytes() == np.convolve(x, taps.gains).tobytes(), (n, n_taps)

    @pytest.mark.parametrize("n", [CHANNEL_CHUNK // 2, 3 * CHANNEL_CHUNK + 1])
    def test_more_taps_than_a_chunk(self, n):
        # the chunks grow to one output sample per tap
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = dense_taps(CHANNEL_CHUNK + 3, 7)
        got, _ = channel_with_workers(IqCapture(x, 1e6), taps, 2)
        assert got.tobytes() == np.convolve(x, taps.gains).tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_empty_capture(self, workers):
        got, started = channel_with_workers(IqCapture(np.zeros(0, complex), 1e6),
                                            dense_taps(5, 0), workers)
        assert got.tobytes() == np.zeros(4, complex).tobytes() and started == []

    def test_no_thread_outlives_the_call(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20 * CHANNEL_CHUNK) + 1j * rng.standard_normal(20 * CHANNEL_CHUNK)
        before = threading.active_count()
        _, started = channel_with_workers(IqCapture(x, 1e6), dense_taps(32, 1), 3)
        assert 1 <= len(started) <= 2
        assert not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, CHANNEL_CHUNK])
    def test_capture_shorter_than_two_chunks_starts_no_thread(self, n):
        x = np.ones(n, dtype=complex)
        got, started = channel_with_workers(IqCapture(x, 1e6), dense_taps(32, 2), 4)
        assert started == [] and got.size == n + 31


class TestAwgn:
    def test_draws_equal_the_two_draw_expression(self):
        # awgn fills one array in place; it must draw exactly what
        # capture + (real draw + 1j * imaginary draw) * sqrt(power / 2) draws.
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            x = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
            power = 0.1 * (seed + 1)
            gen = np.random.default_rng(seed)
            want = x + (gen.standard_normal(x.size) + 1j * gen.standard_normal(x.size)) \
                * np.sqrt(power / 2.0)
            out = awgn(IqCapture(x, 1e6, center_freq=2e9, scale=3.0), power, rng=seed)
            assert out.samples.tobytes() == want.tobytes()
            assert (out.sample_rate, out.center_freq, out.scale) == (1e6, 2e9, 3.0)

    def test_no_capture_sized_temporaries(self):
        # The output (16 bytes a sample) plus one real draw (8) at a time;
        # the two-draw expression peaks at over 30 bytes a sample.
        n = 156_000
        capture = IqCapture(np.ones(n, complex), 1e6)
        awgn(capture, 1.0, rng=0)
        tracemalloc.start()
        try:
            awgn(capture, 1.0, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * n, peak / n

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            awgn(IqCapture(np.ones(4, complex), 1e6), -1.0)

    @pytest.mark.parametrize("power", [np.nan, np.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match=f"noise_power must be finite and >= 0, got {power}"):
            awgn(IqCapture(np.ones(4, complex), 1e6), power)
