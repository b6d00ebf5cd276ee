import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy import signal

from nrlab import (
    CellId,
    IqCapture,
    OfdmParams,
    SsbConfig,
    demodulate_burst,
    detect_pss,
    enumerate_ssb_bursts,
    identify_ssb_index,
    map_ssb,
    ssb_waveform,
    synthesize_bursts,
)
from nrlab import detector
from nrlab.detector import (
    DEFAULT_PSS_THRESHOLD,
    _SCAN_GROUP,
    _find_peaks,
    _fractional_cfo,
    _kept_lags,
    _pss_replica_spectra,
    _pss_replicas,
    _scan_block_len,
    _screen_bounds,
    _screened,
    _sss_from_grid,
)
from nrlab.otasim import awgn
from exposure_reference import (
    reference_demodulate_burst,
    reference_identify_ssb_index,
    reference_sss_from_grid,
)
from pss_reference import allocating_detect_pss, reference_detect_pss


def noise_capture(n, seed, sample_rate):
    rng = np.random.default_rng(seed)
    samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return IqCapture(samples, sample_rate)


class TestDetectPss:
    def test_noiseless_single_burst(self, params, burst_capture):
        capture = burst_capture(cell=0, lead_in=1000, tail=500)
        cands = detect_pss(capture, params)
        assert len(cands) == 1
        assert cands[0].n2 == 0
        assert cands[0].timing == 1000
        assert cands[0].metric > 0.99

    @pytest.mark.slow
    def test_noise_only_false_alarms(self, params):
        # gamma=0.5 must stay empty on >= 99 of 100 seeded 1e5-sample noise
        # captures; the same sweep records the calibration of the default
        # threshold (false-alarm rate < 1% per 1e5 samples).
        hits_half, hits_default, max_metric = 0, 0, 0.0
        for seed in range(100):
            capture = noise_capture(100_000, seed, params.sample_rate)
            low = detect_pss(capture, params, threshold=0.2)
            top = max((c.metric for c in low), default=0.0)
            max_metric = max(max_metric, top)
            hits_half += top >= 0.5
            hits_default += top >= DEFAULT_PSS_THRESHOLD
        assert hits_half <= 1
        assert hits_default <= 1
        print(f"\nnoise-only max metric over 100 x 1e5 samples: {max_metric:.3f} "
              f"(default threshold {DEFAULT_PSS_THRESHOLD})")

    def test_cfo_half_subcarrier(self, params, burst_capture):
        capture = burst_capture(cell=3, lead_in=1000, tail=500)
        cfo_true = 0.5 * params.scs
        n = np.arange(len(capture))
        shifted = IqCapture(
            capture.samples * np.exp(2j * np.pi * cfo_true / params.sample_rate * n),
            params.sample_rate,
        )
        cands = detect_pss(shifted, params)
        assert cands
        best = max(cands, key=lambda c: c.metric)
        assert best.timing == 1000
        assert abs(best.cfo - cfo_true) < 0.05 * params.scs

    def test_memory_bounded_by_scan_group(self, params):
        # A whole-capture scan holds ~140 bytes per sample (~60 MB more at
        # 8x). The grouped scan's peak may differ by its last group's
        # zero-padded copy (~0.5 MB) and the kept lags.
        peaks = []
        for n in (60_000, 480_000):
            capture = noise_capture(n, 5, params.sample_rate)
            detect_pss(capture, params)  # fill the replica caches untraced
            tracemalloc.start()
            try:
                detect_pss(capture, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1_000_000, peaks

    def test_empty_capture_rejected(self, params):
        with pytest.raises(ValueError):
            detect_pss(IqCapture(np.zeros(0), params.sample_rate), params)

    def test_sub_symbol_capture_rejected(self, params):
        short = IqCapture(np.ones(params.symbol_len - 1), params.sample_rate)
        with pytest.raises(ValueError, match="shorter"):
            detect_pss(short, params)

    def test_threshold_range_checked(self, params, burst_capture):
        with pytest.raises(ValueError):
            detect_pss(burst_capture(), params, threshold=1.5)


def scan_block_geometry(params):
    """Overlap-save block length and hop: the smallest power of two >= 4
    symbols, and the lags that one block contributes."""
    block = 1 << (4 * params.symbol_len - 1).bit_length()
    return block, block - params.symbol_len + 1


def with_cfo(capture, cfo_hz):
    n = np.arange(len(capture))
    return IqCapture(
        capture.samples * np.exp(2j * np.pi * cfo_hz / capture.sample_rate * n),
        capture.sample_rate,
    )


def bin_replicas(params, n2):
    """The sector's replica shifted by each CFO bin -2..2."""
    ramp = np.arange(params.symbol_len) / params.fft_size
    base = _pss_replicas(params)[n2]
    return {k: base * np.exp(2j * np.pi * k * ramp) for k in range(-2, 3)}


def exact(cands):
    """Candidates as comparable tuples that tell apart every bit of a float."""
    return [(c.n2, c.timing, c.cfo.hex(), c.metric.hex()) for c in cands]


def assert_matches_whole_scan(capture, params, threshold=DEFAULT_PSS_THRESHOLD,
                              max_cfo_bins=2):
    """detect_pss returns exactly the candidates of the whole-capture scan,
    whatever the number of blocks per scan group; returns that scan's
    (candidate, bin) pairs."""
    want = allocating_detect_pss(capture, params, threshold, max_cfo_bins)
    for group in sorted({1, 3, _SCAN_GROUP}):
        with mock.patch.object(detector, "_SCAN_GROUP", group):
            cands = detect_pss(capture, params, threshold, max_cfo_bins)
        assert exact(cands) == exact(c for c, _ in want), group
    return want


def assert_matches_reference(capture, params, threshold=DEFAULT_PSS_THRESHOLD):
    """The scan finds what the direct fftconvolve scan finds: the same (n2,
    timing) list and winning CFO bins, metric and CFO within 1e-12.

    Two bins can tie exactly: a burst offset by exactly half a subcarrier
    correlates equally with the bins either side. Rounding decides such a
    tie in either scan, so there both bins must correlate within 1e-12 of
    the best, and the CFO must be the one refined from the bin the scan took.

    The candidates must also equal, exactly, those of the whole-capture
    overlap-save scan that allocates fresh arrays for every hypothesis.
    """
    cands = detect_pss(capture, params, threshold)
    ref = reference_detect_pss(capture, params, threshold)
    assert [(c.n2, c.timing) for c in cands] == [(r.n2, r.timing) for r, _ in ref]
    whole = assert_matches_whole_scan(capture, params, threshold)
    for c, (_, k), (r, k_ref) in zip(cands, whole, ref):
        cfo_ref = r.cfo
        if k != k_ref:
            segment = capture.samples[c.timing:c.timing + params.symbol_len]
            reps = bin_replicas(params, c.n2)
            corr = {j: abs(np.vdot(rep, segment)) for j, rep in reps.items()}
            assert corr[k] == pytest.approx(corr[k_ref], rel=1e-12)
            assert corr[k] == pytest.approx(max(corr.values()), rel=1e-12)
            frac = _fractional_cfo(segment, reps[k], params.fft_size)
            cfo_ref = (k + frac) * params.scs
        assert c.metric == pytest.approx(r.metric, rel=1e-12)
        assert c.cfo == pytest.approx(cfo_ref, rel=1e-12, abs=1e-12 * params.scs)
    return cands


REFERENCE_CAPTURES = {
    "noiseless": lambda make, p: make(cell=3, bursts=8, period=5480, lead_in=1000,
                                      tail=1000),
    "snr-0db-seed0": lambda make, p: make(cell=3, bursts=4, snr_db=0.0, seed=0),
    "snr-0db-seed7": lambda make, p: make(cell=122, bursts=4, snr_db=0.0, seed=7),
    "cfo+0.5scs": lambda make, p: with_cfo(make(cell=3, lead_in=1000, tail=500),
                                           0.5 * p.scs),
    "cfo-0.5scs": lambda make, p: with_cfo(make(cell=4, bursts=2, snr_db=5.0, seed=2),
                                           -0.5 * p.scs),
}


class TestPssScanReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CAPTURES))
    def test_bursts(self, case, params, burst_capture):
        capture = REFERENCE_CAPTURES[case](burst_capture, params)
        assert assert_matches_reference(capture, params)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_only_low_threshold(self, seed, params):
        capture = noise_capture(50_000, seed, params.sample_rate)
        assert assert_matches_reference(capture, params, threshold=0.2)

    def test_fft_size_512(self):
        p512 = OfdmParams(fft_size=512, cp_len=36)
        cfg = SsbConfig(cell_id=CellId.from_cell(77), burst_count=3, burst_period=2600)
        capture = awgn(synthesize_bursts(cfg, p512), 0.05, rng=4)
        assert len(assert_matches_reference(capture, p512)) == 3

    def test_capture_of_one_symbol(self, params, burst_capture):
        samples = burst_capture(cell=5, lead_in=0).samples[:params.symbol_len]
        capture = IqCapture(samples, params.sample_rate)
        assert [c.timing for c in assert_matches_reference(capture, params)] == [0]

    def test_capture_shorter_than_one_block(self, params, burst_capture):
        capture = burst_capture(cell=8, lead_in=200, tail=0)
        assert len(capture) < scan_block_geometry(params)[0]
        assert [c.timing for c in assert_matches_reference(capture, params)] == [200]

    @pytest.mark.parametrize("offset", [-1, 0, 1, 137])
    def test_pss_straddling_block_boundary_found_once(self, offset, params,
                                                      burst_capture):
        # The PSS window starts `offset` samples before the first lag that
        # the second block contributes, so it spans both blocks' samples.
        _, step = scan_block_geometry(params)
        lead_in = step - offset
        capture = burst_capture(cell=11, lead_in=lead_in, tail=3000)
        cands = assert_matches_reference(capture, params)
        assert [c.timing for c in cands] == [lead_in]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_pss_straddling_group_boundary_found_once(self, offset, params,
                                                      burst_capture):
        # The PSS starts `offset` samples before the first lag of the second
        # scan group.
        _, step = scan_block_geometry(params)
        lead_in = _SCAN_GROUP * step - offset
        capture = burst_capture(cell=11, lead_in=lead_in, tail=3000)
        cands = assert_matches_reference(capture, params)
        assert [c.timing for c in cands] == [lead_in]

    def test_cfo_bins_beyond_int8(self):
        # At a 512-point FFT, a 130-bin CFO keeps the SSB inside the band, so
        # bin 130 wins alone; the winning bin must be held exactly.
        p512 = OfdmParams(fft_size=512, cp_len=36)
        cfg = SsbConfig(cell_id=CellId.from_cell(40))
        capture = with_cfo(synthesize_bursts(cfg, p512, lead_in=3000, tail=2000),
                           130 * p512.scs)
        block, _ = scan_block_geometry(p512)
        assert 1.5 * block < len(capture) < 2.5 * block
        whole = assert_matches_whole_scan(capture, p512, max_cfo_bins=130)
        best, k = max(whole, key=lambda ck: ck[0].metric)
        assert (best.n2, best.timing, k) == (cfg.cell_id.n2, 3000, 130)
        assert abs(best.cfo - 130 * p512.scs) < 0.05 * p512.scs


def capture_blocks(x, params):
    """The overlap-save blocks of a whole capture, as the scan cuts them."""
    block, step = scan_block_geometry(params)
    n_blocks = -(-(x.size - params.symbol_len + 1) // step)
    padded = np.zeros((n_blocks - 1) * step + block, dtype=np.complex128)
    padded[:x.size] = x
    return np.lib.stride_tricks.sliding_window_view(padded, block)[::step]


def screen_error_ratio(capture, params, max_cfo_bins=2):
    """The largest error of the single-precision screen, over its bound delta,
    at any lag of any sector: the double-precision maximum over the CFO bins
    of the correlation magnitude is taken as exact."""
    blocks = capture_blocks(capture.samples, params)
    block, step = scan_block_geometry(params)
    bin_shift = block // params.fft_size
    delta = _screen_bounds(blocks, params)
    x_spec = np.fft.fft(blocks, axis=1)
    prod = np.empty(blocks.shape, dtype=np.complex64)
    mag = np.empty((blocks.shape[0], step), dtype=np.float32)
    out = np.empty_like(mag)
    ratio = 0.0
    screens = _screened(blocks, params, max_cfo_bins, prod, mag, out)
    for n2, (screened, spectrum) in enumerate(zip(screens, _pss_replica_spectra(params))):
        exact = np.zeros(mag.shape)
        for k in range(-max_cfo_bins, max_cfo_bins + 1):
            corr = np.fft.ifft(x_spec * np.roll(spectrum, k * bin_shift), axis=1)
            np.maximum(exact, np.abs(corr[:, :step]), out=exact)
        error = np.abs(screened - exact).max(axis=1)
        ratio = max(ratio, float(np.max(error / delta[n2])))
    return ratio


def planted_bursts(params, bursts, n, cfo_bins=0.0, snr_db=None, seed=0):
    """An n-sample capture holding one SSB per (cell, lead-in, scale), summed,
    then shifted by cfo_bins subcarriers and, if snr_db is given, with noise
    that far below a unit-scale SSB's power."""
    x = np.zeros(n, dtype=np.complex128)
    for cell, lead_in, scale in bursts:
        ssb = ssb_waveform(SsbConfig(cell_id=CellId.from_cell(cell)), params)
        x[lead_in:lead_in + ssb.size] += scale * ssb[:n - lead_in]
    capture = with_cfo(IqCapture(x, params.sample_rate), cfo_bins * params.scs)
    if snr_db is None:
        return capture
    unit = float(np.mean(np.abs(ssb_waveform(SsbConfig(cell_id=CellId.from_cell(0)),
                                             params)) ** 2))
    return awgn(capture, unit * 10.0 ** (-snr_db / 10.0), rng=seed)


class TestScreenedScan:
    """The single-precision screen never changes what the scan finds."""

    @settings(max_examples=25, deadline=None)
    @given(
        bursts=st.lists(st.tuples(st.integers(0, 1007), st.integers(0, 34_000),
                                  st.floats(-4.0, 4.0)), min_size=1, max_size=3),
        snr_db=st.one_of(st.none(), st.floats(0.0, 30.0)),
        cfo_bins=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_scan(self, params, bursts, snr_db, cfo_bins, seed):
        # 36 000 samples are 21 blocks: two groups at the default group size.
        planted = [(cell, lead_in, 10.0 ** log_scale)
                   for cell, lead_in, log_scale in bursts]
        capture = planted_bursts(params, planted, 36_000, cfo_bins, snr_db, seed)
        assert_matches_whole_scan(capture, params)

    def test_threshold_at_a_burst_metric(self, params):
        # The weaker burst's exact metric as the threshold still finds it,
        # with that metric; one ulp above, neither scan finds it.
        capture = planted_bursts(params, [(7, 2000, 1.0), (7, 12_000, 0.5)], 20_000,
                                 snr_db=0.0, seed=3)
        want = allocating_detect_pss(capture, params, DEFAULT_PSS_THRESHOLD)
        weak = min((c for c, _ in want if c.timing in (2000, 12_000)),
                   key=lambda c: c.metric)
        at = assert_matches_whole_scan(capture, params, threshold=weak.metric)
        assert weak.metric.hex() in [c.metric.hex() for c, _ in at if c.timing == weak.timing]
        above = assert_matches_whole_scan(capture, params,
                                          threshold=np.nextafter(weak.metric, 1.0))
        assert weak.timing not in [c.timing for c, _ in above]

    def test_bursts_60db_apart_in_one_group(self, params):
        capture = planted_bursts(params, [(11, 1500, 1.0), (11, 9000, 1e-3)], 25_000)
        _, step = scan_block_geometry(params)
        assert len(capture) < _SCAN_GROUP * step
        want = assert_matches_whole_scan(capture, params)
        assert {1500, 9000} <= {c.timing for c, _ in want}

    @pytest.mark.parametrize("scale", [1e-40, 1e30])
    def test_scale_beyond_single_precision(self, scale, params):
        # Samples below float32's normal range, or beyond its largest value,
        # still give the exact scan's candidates.
        capture = planted_bursts(params, [(5, 3000, scale)], 12_000)
        want = assert_matches_whole_scan(capture, params)
        assert [c.timing for c, _ in want] == [3000]

    @pytest.mark.parametrize("case", sorted(REFERENCE_CAPTURES))
    def test_error_within_an_eighth_of_its_bound(self, case, params, burst_capture):
        # Records the bound's headroom: the errors measured stay below 1/1000 of it.
        capture = REFERENCE_CAPTURES[case](burst_capture, params)
        assert screen_error_ratio(capture, params) <= 1 / 8

    def test_error_within_an_eighth_of_its_bound_at_fft_512(self):
        p512 = OfdmParams(fft_size=512, cp_len=36)
        capture = planted_bursts(p512, [(40, 3000, 1.0), (41, 9000, 1e-4)], 16_000,
                                 cfo_bins=0.3, snr_db=20.0, seed=1)
        assert _scan_block_len(p512) == 4096
        assert screen_error_ratio(capture, p512) <= 1 / 8


class TestFindPeaks:
    @settings(max_examples=400, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 4), max_size=120),
        height=st.integers(0, 4),
        distance=st.integers(1, 12),
    )
    def test_matches_scipy_find_peaks(self, levels, height, distance):
        # Five levels make plateaus, equal-height peaks within `distance` and
        # maxima at either edge of the unpadded array common.
        padded = np.concatenate(([-1.0], np.array(levels, float) / 4, [-1.0]))
        want, _ = signal.find_peaks(padded, height=height / 4, distance=distance)
        got = _find_peaks(padded, np.arange(padded.size), height / 4, distance)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=400, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 4), min_size=1, max_size=120),
        cuts=st.sets(st.integers(1, 119)),
        height=st.integers(1, 4),
        distance=st.integers(1, 12),
    )
    def test_kept_runs_over_group_splits(self, levels, cuts, height, distance):
        # Picking from the lags each group keeps finds the peaks of the whole
        # array, including plateaus that a split cuts in two.
        metric = np.array(levels, float) / 4
        n = metric.size
        whole_lags = np.arange(-1, n + 1)
        padded = np.concatenate(([-1.0], metric, [-1.0]))
        want = whole_lags[_find_peaks(padded, whole_lags, height / 4, distance)]

        edges = [0, *sorted(c for c in cuts if c < n), n]
        lags = np.concatenate([lo + np.flatnonzero(_kept_lags(metric[lo:hi], height / 4))
                               for lo, hi in zip(edges, edges[1:])])
        kept_lags = np.concatenate(([-1], lags, [n]))
        kept = np.concatenate(([-1.0], metric[lags], [-1.0]))
        got = kept_lags[_find_peaks(kept, kept_lags, height / 4, distance)]
        np.testing.assert_array_equal(got, want)


def sss_of(capture, cand, params):
    """The SSS decision on the burst a PSS candidate starts."""
    grid = demodulate_burst(capture, cand.timing, cand.cfo, params)
    return _sss_from_grid(grid, cand.n2)


class TestDetectSss:
    def test_cell3_scenario(self, params, burst_capture):
        capture = burst_capture(cell=3, lead_in=700)
        cand = detect_pss(capture, params)[0]
        n1, metric = sss_of(capture, cand, params)
        assert n1 == 1
        assert metric > 0.99

    def test_true_hypothesis_is_unique_argmax(self, params, burst_capture):
        capture = burst_capture(cell=500, lead_in=400)
        cand = detect_pss(capture, params)[0]
        n1, metric = sss_of(capture, cand, params)
        assert (n1, cand.n2) == (CellId.from_cell(500).n1, CellId.from_cell(500).n2)
        assert metric > 0.99

    def test_wrong_sector_scores_lower(self, params, burst_capture):
        import dataclasses

        capture = burst_capture(cell=3, lead_in=400)
        cand = detect_pss(capture, params)[0]
        _, true_metric = sss_of(capture, cand, params)
        for wrong_n2 in set(range(3)) - {cand.n2}:
            _, metric = sss_of(capture, dataclasses.replace(cand, n2=wrong_n2), params)
            assert metric < true_metric

    def test_timing_outside_capture(self, params, burst_capture):
        capture = burst_capture(cell=3, lead_in=400, tail=0)
        cand = detect_pss(capture, params)[0]
        with pytest.raises(ValueError, match="does not fit"):
            demodulate_burst(capture, len(capture) - 10, cand.cfo, params)


class TestResolveCellId:
    @pytest.mark.parametrize("n1,n2,cell", [(1, 0, 3), (0, 0, 0), (335, 2, 1007)])
    def test_examples(self, n1, n2, cell):
        cid = CellId(n1=n1, n2=n2)
        assert (cid.n1, cid.n2, cid.cell) == (n1, n2, cell)

    @pytest.mark.parametrize("n1,n2", [(-1, 0), (336, 0), (0, 3)])
    def test_range_check(self, n1, n2):
        with pytest.raises(ValueError):
            CellId(n1=n1, n2=n2)


class TestIdentifySsbIndex:
    def test_recovers_index_five(self, params):
        cell = CellId.from_cell(3)
        grid = map_ssb(SsbConfig(cell_id=cell, i_ssb_bar=5))
        i_bar, metric = identify_ssb_index(grid, cell)
        assert i_bar == 5
        assert abs(metric - 1.0) < 1e-6

    def test_all_eight_unique_argmax(self, params):
        cell = CellId.from_cell(77)
        for true_i in range(8):
            grid = map_ssb(SsbConfig(cell_id=cell, i_ssb_bar=true_i))
            i_bar, metric = identify_ssb_index(grid, cell)
            assert i_bar == true_i
            assert abs(metric - 1.0) < 1e-6


class TestEnumerate:
    def test_eight_bursts_cell3(self, params, burst_capture):
        capture = burst_capture(cell=3, bursts=8, period=5480, lead_in=1000, tail=1000)
        result = enumerate_ssb_bursts(capture, params)
        assert result.cell_id is not None and result.cell_id.cell == 3
        assert not result.cell_id_conflict
        assert len(result.bursts) == 8
        timings = [b.timing for b in result.bursts]
        assert timings == sorted(timings)
        spacings = np.diff(timings)
        assert np.all(np.abs(spacings - 5480) <= 1)
        assert [b.i_ssb_bar for b in result.bursts] == list(range(8))

    def test_noise_only_empty(self, params):
        result = enumerate_ssb_bursts(
            noise_capture(20_000, 3, params.sample_rate), params
        )
        assert result.cell_id is None
        assert result.bursts == []

    def test_conflicting_cells_flagged_not_fatal(self, params):
        cap3 = synthesize_bursts(
            SsbConfig(cell_id=CellId.from_cell(3), burst_count=2, burst_period=2200),
            params, lead_in=300, tail=300,
        )
        cap9 = synthesize_bursts(
            SsbConfig(cell_id=CellId.from_cell(9), burst_count=1),
            params, lead_in=300, tail=300,
        )
        combined = IqCapture(
            np.concatenate([cap3.samples, cap9.samples]), params.sample_rate
        )
        result = enumerate_ssb_bursts(combined, params)
        assert len(result.bursts) == 3
        assert result.cell_id_conflict
        assert result.cell_id is not None and result.cell_id.cell == 3  # majority

    def test_snr_0db_pipeline(self, params, burst_capture):
        wins = 0
        for seed in range(10):
            capture = burst_capture(
                cell=17 * seed + 3, bursts=4, period=2200, snr_db=0.0, seed=seed
            )
            result = enumerate_ssb_bursts(capture, params)
            wins += result.cell_id is not None and result.cell_id.cell == 17 * seed + 3
        assert wins == 10


class TestInvariants:
    @pytest.mark.parametrize("cell", [0, 3, 500, 1007])
    def test_end_to_end_identity(self, cell, params):
        for i_bar in range(8):
            cfg = SsbConfig(
                cell_id=CellId.from_cell(cell), i_ssb_bar=i_bar, burst_count=1
            )
            capture = synthesize_bursts(cfg, params, lead_in=350, tail=120)
            result = enumerate_ssb_bursts(capture, params)
            assert result.cell_id is not None and result.cell_id.cell == cell
            assert len(result.bursts) == 1
            burst = result.bursts[0]
            assert burst.timing == 350
            assert burst.i_ssb_bar == i_bar

    def test_metric_invariant_to_complex_scaling(self, params, burst_capture):
        capture = burst_capture(cell=123, bursts=2, period=2200, snr_db=10.0, seed=9)
        scaled = IqCapture(
            capture.samples * (3.7e-3 * np.exp(1.1j)), params.sample_rate
        )
        a = enumerate_ssb_bursts(capture, params)
        b = enumerate_ssb_bursts(scaled, params)
        assert a.cell_id == b.cell_id
        assert [x.timing for x in a.bursts] == [x.timing for x in b.bursts]
        assert [x.i_ssb_bar for x in a.bursts] == [x.i_ssb_bar for x in b.bursts]
        for x, y in zip(a.bursts, b.bursts):
            assert abs(x.pss_metric - y.pss_metric) < 1e-9
            assert abs(x.sss_metric - y.sss_metric) < 1e-9
            assert abs(x.dmrs_metric - y.dmrs_metric) < 1e-9


class TestDemodulateBurst:
    def test_matches_mapped_grid(self, params, burst_capture):
        capture = burst_capture(cell=42, lead_in=250)
        grid = demodulate_burst(capture, 250, 0.0, params)
        want = map_ssb(SsbConfig(cell_id=CellId.from_cell(42)))
        assert np.max(np.abs(grid - want)) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        at=st.floats(0.0, 1.0),
        cfo_scs=st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                          st.floats(-3.0, 3.0, allow_subnormal=False)),
        fft_size=st.sampled_from([256, 512]),
    )
    def test_matches_ofdm_demodulate(self, seed, at, cfo_scs, fft_size):
        # Bit for bit, signed zeros included: a burst derotated and
        # transformed in place equals one demodulated through its own capture.
        p = OfdmParams(fft_size=fft_size, cp_len=fft_size // 16)
        rng = np.random.default_rng(seed)
        n = 4 * p.symbol_len + int(rng.integers(0, 600))
        capture = IqCapture(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            p.sample_rate)
        timing = round(at * (n - 4 * p.symbol_len))
        cfo = cfo_scs * p.scs
        got = demodulate_burst(capture, timing, cfo, p)
        want = reference_demodulate_burst(capture, timing, cfo, p)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfo", [np.nan, np.inf])
    def test_non_finite_cfo_rejected(self, cfo, params, burst_capture):
        with pytest.raises(ValueError, match="finite"):
            demodulate_burst(burst_capture(), 300, cfo, params)

    def test_fft_narrower_than_ssb_rejected(self):
        p128 = OfdmParams(fft_size=128, cp_len=9)
        capture = IqCapture(np.ones(4 * p128.symbol_len), p128.sample_rate)
        with pytest.raises(ValueError, match="smaller than"):
            demodulate_burst(capture, 0, 0.0, p128)


class TestSampleRate:
    def test_capture_at_twice_the_rate_rejected(self, params, burst_capture):
        doubled = IqCapture(burst_capture().samples, 2 * params.sample_rate)
        with pytest.raises(ValueError, match="sample rate"):
            detect_pss(doubled, params)
        with pytest.raises(ValueError, match="sample rate"):
            demodulate_burst(doubled, 300, 0.0, params)

    def test_rate_within_one_ppm_accepted(self, params, burst_capture):
        capture = burst_capture()
        near = IqCapture(capture.samples, params.sample_rate * (1 + 5e-7))
        assert detect_pss(near, params) == detect_pss(capture, params)
        assert_array_equal(demodulate_burst(near, 300, 0.0, params),
                           demodulate_burst(capture, 300, 0.0, params))


class TestBanks:
    """The cached SSS and DM-RS banks decide exactly as the direct products."""

    @pytest.mark.parametrize("n2", [0, 1, 2])
    def test_sss_equals_real_bank_product(self, n2, params, burst_capture):
        rng = np.random.default_rng(n2)
        grids = [map_ssb(SsbConfig(cell_id=CellId(n1=n1, n2=n2))) for n1 in (0, 17, 335)]
        noisy = burst_capture(cell=300 + n2, snr_db=-3.0, seed=n2)
        grids.append(demodulate_burst(noisy, 300, 0.0, params))
        grids += [rng.standard_normal((4, 240))
                  + 1j * rng.standard_normal((4, 240)) for _ in range(20)]
        grids.append(np.zeros((4, 240), dtype=np.complex128))
        for grid in grids:
            assert _sss_from_grid(grid, n2) == reference_sss_from_grid(grid, n2)

    @settings(max_examples=60, deadline=None)
    @given(cell=st.integers(0, 1007), i_bar=st.integers(0, 7),
           seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 3.0))
    def test_decisions_equal_direct_products(self, cell, i_bar, seed, noise):
        cid = CellId.from_cell(cell)
        rng = np.random.default_rng(seed)
        grid = map_ssb(SsbConfig(cell_id=cid, i_ssb_bar=i_bar))
        grid = grid + noise * (rng.standard_normal(grid.shape)
                               + 1j * rng.standard_normal(grid.shape))
        assert identify_ssb_index(grid, cid) == reference_identify_ssb_index(grid, cid)
        assert _sss_from_grid(grid, cid.n2) == reference_sss_from_grid(grid, cid.n2)
