"""Acceptance suite: every release bar in one module, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import time

import numpy as np
import pytest
from scipy import stats

from nrlab import (
    CellId,
    FrequencySweep,
    IqCapture,
    OfdmParams,
    RcChannelModel,
    SsbConfig,
    VirtualArrayScan,
    aoa_delay_profile,
    awgn,
    cancel_rc_decay,
    cir_to_pdp,
    code_selective_power,
    compensate_phase,
    compute_calibration,
    deembed_pattern,
    demodulate_burst,
    enumerate_ssb_bursts,
    estimate_transfer_matrix,
    gen_gold,
    gen_pbch_dmrs,
    gen_pss,
    gen_sss,
    isolation_db,
    make_rsrp_sounder,
    ofdm_demodulate,
    ofdm_modulate,
    random_well_conditioned,
    simulate_rc_channel,
    ssb_waveform,
    sweep_to_cir,
    synthesize_bursts,
)
from nrlab.detector import DEFAULT_PSS_THRESHOLD
from nrlab.sounding import AntennaPattern, Cir, SPEED_OF_LIGHT

from reference_sequences import ref_dmrs, ref_gold, ref_pss, ref_sss
from test_sounding import (
    multipath_sweep,
    on_grid_delay,
    plane_wave_scan,
    ula_positions,
    FREQS,
    N_POINTS,
    DF,
)

PARAMS = OfdmParams()


def verdict(criterion: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {state} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_sequence_oracles():
    start = time.monotonic()
    pss_ok = all(
        np.array_equal(gen_pss(n2), np.array(ref_pss(n2), float)) for n2 in range(3)
    )
    sss_ok = all(
        np.array_equal(
            gen_sss(cell // 3, cell % 3), np.array(ref_sss(cell // 3, cell % 3), float)
        )
        for cell in range(1008)
    )
    gold_ok = all(
        np.array_equal(gen_gold(c, off, n), np.array(ref_gold(c, off, n)))
        for c, off, n in [(0, 0, 256), (2115, 0, 288), (2**31 - 1, 100, 64)]
    )
    dmrs_ok = True
    for cell, i_bar in [(3, 0), (0, 1), (500, 7), (1007, 4)]:
        want = np.array([re + 1j * im for re, im in ref_dmrs(cell, i_bar)]) / np.sqrt(2)
        dmrs_ok &= np.allclose(
            gen_pbch_dmrs(CellId.from_cell(cell), i_bar), want, atol=1e-15
        )
    elapsed = time.monotonic() - start
    verdict(
        1,
        pss_ok and sss_ok and gold_ok and dmrs_ok and elapsed < 10.0,
        f"PSS x3, SSS x1008, Gold, DM-RS bit-exact vs brute-force oracle "
        f"({elapsed:.1f}s < 10s)",
    )


def test_criterion_2_fig8_round_trip():
    start = time.monotonic()
    cfg = SsbConfig(
        cell_id=CellId(n1=1, n2=0), burst_count=8, burst_period=5480
    )
    capture = synthesize_bursts(cfg, PARAMS, lead_in=1000, tail=1000)
    result = enumerate_ssb_bursts(capture, PARAMS)
    elapsed = time.monotonic() - start
    timings = np.array([b.timing for b in result.bursts])
    expected = 1000 + 5480 * np.arange(8)
    ok = (
        result.cell_id is not None
        and result.cell_id.cell == 3
        and len(result.bursts) == 8
        and timings.size == 8
        and np.all(np.abs(timings - expected) <= 1)
        and elapsed < 5.0
    )
    verdict(
        2,
        ok,
        f"8 bursts for cell 3 recovered with timings within +/-1 sample "
        f"({elapsed:.1f}s < 5s)",
    )


@pytest.mark.slow
def test_criterion_3_noise_robustness():
    start = time.monotonic()

    def run_trials(snr_db: float, n_trials: int) -> int:
        wins = 0
        for trial in range(n_trials):
            rng = np.random.default_rng(10_000 + trial)
            cell = int(rng.integers(0, 1008))
            cfg = SsbConfig(
                cell_id=CellId.from_cell(cell), burst_count=8, burst_period=2200
            )
            capture = synthesize_bursts(cfg, PARAMS, lead_in=300, tail=300)
            signal_power = float(np.mean(np.abs(ssb_waveform(cfg, PARAMS)) ** 2))
            noisy = awgn(capture, signal_power * 10 ** (-snr_db / 10), rng=rng)
            result = enumerate_ssb_bursts(noisy, PARAMS, DEFAULT_PSS_THRESHOLD)
            wins += result.cell_id is not None and result.cell_id.cell == cell
        return wins

    wins_0db = run_trials(0.0, 100)
    wins_m6db = run_trials(-6.0, 100)
    elapsed = time.monotonic() - start
    verdict(
        3,
        wins_0db >= 99 and wins_m6db >= 90 and elapsed < 300.0,
        f"cell recovery {wins_0db}/100 at 0 dB (>=99), {wins_m6db}/100 at -6 dB "
        f"(>=90), threshold {DEFAULT_PSS_THRESHOLD} ({elapsed:.0f}s < 300s)",
    )


def test_criterion_4_code_selective_power():
    re_power = 0.8
    cfg = SsbConfig(cell_id=CellId.from_cell(3), re_power=re_power)
    capture = synthesize_bursts(cfg, PARAMS, lead_in=700, tail=300)
    result = enumerate_ssb_bursts(capture, PARAMS)
    grid = demodulate_burst(capture, result.bursts[0].timing, result.cfo, PARAMS)
    powers = code_selective_power(grid, result)
    conducted_err = max(
        abs(10 * np.log10(p / re_power)) for p in powers.values()
    )

    signal_power = float(np.mean(np.abs(ssb_waveform(cfg, PARAMS)) ** 2))
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(40_000 + trial)
        noisy = awgn(capture, signal_power * 10 ** (-20 / 10), rng=rng)
        cfo = (rng.uniform(-0.3, 0.3)) * PARAMS.scs
        n = np.arange(len(noisy))
        impaired = IqCapture(
            noisy.samples * np.exp(2j * np.pi * cfo / PARAMS.sample_rate * n),
            PARAMS.sample_rate,
        )
        res = enumerate_ssb_bursts(impaired, PARAMS)
        if res.cell_id is None or res.cell_id.cell != 3 or not res.bursts:
            continue
        g = demodulate_burst(impaired, res.bursts[0].timing, res.cfo, PARAMS)
        sss_db = 10 * np.log10(code_selective_power(g, res)["sss"] / re_power)
        hits += abs(sss_db) <= 0.5
    verdict(
        4,
        conducted_err <= 0.05 and hits >= 95,
        f"conducted error {conducted_err:.4f} dB <= 0.05; OTA-like within 0.5 dB "
        f"in {hits}/100 trials (>=95)",
    )


def test_criterion_5_sounding_transforms():
    start = time.monotonic()
    t1, t2 = on_grid_delay(20), on_grid_delay(60)
    sweep = multipath_sweep([(1.0, t1), (0.5, t2)])
    cir = sweep_to_cir(sweep, window="hann", pad_factor=4)
    mags = np.abs(cir.taps)
    b1, b2 = int(round(t1 / cir.delay_resolution)), int(round(t2 / cir.delay_resolution))
    local = [int(np.argmax(mags[b - 4:b + 5])) - 4 for b in (b1, b2)]
    contrast = 20 * np.log10(mags[b1] / mags[b2])

    residuals = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        drift = np.exp(1j * rng.uniform(-np.pi, np.pi, N_POINTS))
        pilot = drift + (
            rng.standard_normal(N_POINTS) + 1j * rng.standard_normal(N_POINTS)
        ) * np.sqrt(10 ** (-30 / 10) / 2)
        sweep_d = FrequencySweep(freqs=FREQS, h=drift, pilot=pilot)
        residuals.append(np.angle(compensate_phase(sweep_d).h))
    drift_std_deg = float(np.degrees(np.std(np.concatenate(residuals))))
    elapsed = time.monotonic() - start
    ok = (
        local == [0, 0]
        and abs(contrast - 6.02) <= 0.1
        and drift_std_deg < 2.0
        and elapsed < 30.0
    )
    verdict(
        5,
        ok,
        f"two-path delays on-bin, contrast {contrast:.3f} dB (6.02 +/- 0.1), "
        f"drift residual {drift_std_deg:.2f} deg < 2 ({elapsed:.0f}s < 30s)",
    )


def test_criterion_6_virtual_array_aoa():
    start = time.monotonic()
    ula = ula_positions(16, SPEED_OF_LIGHT / 100e9 / 2)
    angles = np.arange(-90.0, 90.5, 1.0)

    def locate(profile, angle, delay_bin):
        a = int(np.argmin(np.abs(profile.angles_deg - angle)))
        window = profile.power_db[
            max(a - 1, 0):a + 2, max(delay_bin - 1, 0):delay_bin + 2
        ]
        return np.nanmax(window) > -3.0

    single = plane_wave_scan(ula, [(20.0, on_grid_delay(30), 1.0)])
    profile_1 = aoa_delay_profile(VirtualArrayScan(ula, single), angles, pad_factor=1)
    peak = np.unravel_index(np.nanargmax(profile_1.power_db), profile_1.power_db.shape)
    single_ok = (
        abs(profile_1.angles_deg[peak[0]] - 20.0) <= 1.0 and abs(peak[1] - 30) <= 1
    )

    paths = [(-20.0, on_grid_delay(30), 1.0), (40.0, on_grid_delay(90), 0.8)]
    two = plane_wave_scan(ula, paths)
    profile_2 = aoa_delay_profile(VirtualArrayScan(ula, two), angles, pad_factor=1)
    two_ok = all(
        locate(profile_2, ang, int(round(tau * N_POINTS * DF))) for ang, tau, _ in paths
    )

    pattern_angles = np.arange(-90.0, 91.0, 1.0)
    pattern = AntennaPattern(
        angles_deg=pattern_angles,
        gain=(0.3 + 0.7 * np.cos(np.deg2rad(pattern_angles)) ** 2)
        * np.exp(1j * np.deg2rad(pattern_angles) / 5),
    )
    gain_of = lambda ang: complex(pattern.gain_at(np.array([ang]))[0])
    patterned = plane_wave_scan(ula, paths, gain_of=gain_of)
    marked = deembed_pattern(VirtualArrayScan(ula, patterned, pattern=pattern))
    profile_3 = aoa_delay_profile(marked, angles, pad_factor=1)
    deembed_ok = all(
        locate(profile_3, ang, int(round(tau * N_POINTS * DF))) for ang, tau, _ in paths
    )
    elapsed = time.monotonic() - start
    verdict(
        6,
        single_ok and two_ok and deembed_ok and elapsed < 60.0,
        f"single/two-path scans localized within one bin, incl. after pattern "
        f"de-embedding ({elapsed:.0f}s < 60s)",
    )


def test_criterion_7_wireless_cable():
    start = time.monotonic()
    worst_isolation = np.inf
    worst_error = 0.0
    for seed in range(100):
        truth = random_well_conditioned(4, rng=seed)
        estimate = estimate_transfer_matrix(make_rsrp_sounder(truth), 4)
        aligned = estimate.a.copy()
        for j in range(4):
            inner = np.vdot(aligned[j], truth.a[j])
            if abs(inner) > 0:
                aligned[j] *= inner / abs(inner)
        worst_error = max(
            worst_error,
            float(np.linalg.norm(aligned - truth.a) / np.linalg.norm(truth.a)),
        )
        effective = truth.a @ compute_calibration(estimate)
        worst_isolation = min(worst_isolation, isolation_db(effective))
    elapsed = time.monotonic() - start
    verdict(
        7,
        worst_isolation >= 30.0 and worst_error < 1e-6 and elapsed < 60.0,
        f"100 seeded 4x4: worst isolation {worst_isolation:.1f} dB >= 30, worst "
        f"aligned error {worst_error:.2e} < 1e-6 ({elapsed:.0f}s < 60s)",
    )


def test_criterion_8_rc_statistics_and_cancellation():
    start = time.monotonic()
    n_taps, n_draws = 16, 10_000
    model_kwargs = dict(tau_rc=2e-7, n_taps=n_taps, tap_spacing=5e-8)
    expect = np.exp(-np.arange(n_taps) * 5e-8 / 2e-7)
    expect /= expect.sum()
    draws = np.stack(
        [
            np.abs(simulate_rc_channel(RcChannelModel(**model_kwargs, seed=s)).gains) ** 2
            for s in range(n_draws)
        ]
    )
    decay_ok = bool(
        np.all(np.abs(draws.mean(axis=0) - expect) <= 3 * expect / np.sqrt(n_draws))
    )

    keyhole = np.array(
        [
            abs(
                simulate_rc_channel(
                    RcChannelModel(1e-6, 1, 1e-8, keyhole=True, seed=s)
                ).gains[0]
            )
            for s in range(n_draws)
        ]
    )
    oracle_rng = np.random.default_rng(424242)
    oracle = oracle_rng.rayleigh(1 / np.sqrt(2), n_draws) * oracle_rng.rayleigh(
        1 / np.sqrt(2), n_draws
    )
    _, keyhole_p = stats.ks_2samp(keyhole, oracle)

    k = np.arange(256)
    kernel = np.exp(-k / 20.0).astype(complex)  # decay spanning ~10 bins of power
    measured = Cir(taps=np.roll(kernel, 40), delay_resolution=1.0, max_delay=256.0)
    reference = Cir(taps=kernel, delay_resolution=1.0, max_delay=256.0)

    def out_of_bin(taps):
        power = np.abs(taps) ** 2
        return 10 * np.log10((power.sum() - power[40]) / power[40])

    before = out_of_bin(measured.taps)
    after = min(
        out_of_bin(cancel_rc_decay(measured, reference, 10.0**-e).taps)
        for e in range(1, 9)
    )
    elapsed = time.monotonic() - start
    verdict(
        8,
        decay_ok and keyhole_p > 0.01 and after <= -20.0 and elapsed < 120.0,
        f"mean decay within 3 SE per tap; keyhole KS p={keyhole_p:.3f} > 0.01; "
        f"deconvolution {before:.1f} -> {after:.1f} dB out-of-bin (<= -20) "
        f"({elapsed:.0f}s < 120s)",
    )


def test_criterion_9_numerical_identities():
    # OFDM round trip
    rng = np.random.default_rng(99)
    grid = rng.standard_normal((4, 240)) + 1j * rng.standard_normal((4, 240))
    back = ofdm_demodulate(ofdm_modulate(grid, PARAMS), PARAMS, n_symbols=4)
    round_trip = float(
        np.max(np.abs(back - grid)) / np.max(np.abs(grid))
    )

    # Parseval with the documented scale constant 1.0 (cyclic prefix absent)
    p0 = OfdmParams(cp_len=0)
    capture = ofdm_modulate(grid, p0)
    parseval = abs(
        np.sum(np.abs(capture.samples) ** 2) / np.sum(np.abs(grid) ** 2) - 1.0
    )

    # PDP normalization
    pdp = cir_to_pdp(sweep_to_cir(multipath_sweep([(0.7, on_grid_delay(9))])))
    pdp_peak_exact = pdp.power_db.max() == 0.0

    # scaling invariance of detection
    cfg = SsbConfig(cell_id=CellId.from_cell(77))
    cap = synthesize_bursts(cfg, PARAMS, lead_in=500, tail=100)
    scaled = IqCapture(cap.samples * (0.01 * np.exp(0.7j)), PARAMS.sample_rate)
    res_a = enumerate_ssb_bursts(cap, PARAMS)
    res_b = enumerate_ssb_bursts(scaled, PARAMS)
    scaling_ok = (
        res_a.cell_id == res_b.cell_id
        and [b.timing for b in res_a.bursts] == [b.timing for b in res_b.bursts]
        and [b.i_ssb_bar for b in res_a.bursts] == [b.i_ssb_bar for b in res_b.bursts]
    )

    # permutation invariance of the beamformer
    ula = ula_positions(8, SPEED_OF_LIGHT / 100e9 / 2)
    angles = np.arange(-60.0, 61.0, 2.0)
    sweeps = plane_wave_scan(ula, [(10.0, on_grid_delay(12), 1.0)])
    profile_a = aoa_delay_profile(VirtualArrayScan(ula, sweeps), angles)
    order = np.random.default_rng(3).permutation(8)
    profile_b = aoa_delay_profile(
        VirtualArrayScan(ula[order], [sweeps[i] for i in order]), angles
    )
    permutation_ok = bool(
        np.allclose(
            10 ** (profile_a.power_db / 20), 10 ** (profile_b.power_db / 20), atol=1e-9
        )
    )

    # seed determinism
    model = RcChannelModel(tau_rc=1e-7, n_taps=8, tap_spacing=2e-8, keyhole=True, seed=5)
    seeds_ok = bool(
        np.array_equal(
            simulate_rc_channel(model).gains, simulate_rc_channel(model).gains
        )
    )

    ok = (
        round_trip < 1e-9
        and parseval < 1e-9
        and pdp_peak_exact
        and scaling_ok
        and permutation_ok
        and seeds_ok
    )
    verdict(
        9,
        ok,
        f"round trip {round_trip:.1e} < 1e-9; Parseval dev {parseval:.1e} < 1e-9; "
        f"PDP peak exactly 0 dB; scaling/permutation/seed invariances hold",
    )
