import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nrlab import (
    CellId,
    IqCapture,
    OfdmParams,
    SsbConfig,
    map_ssb,
    ofdm_demodulate,
    ofdm_modulate,
    ssb_layout,
    ssb_waveform,
    synthesize_bursts,
)


class TestLayout:
    def test_class_counts(self):
        layout = ssb_layout(3)
        assert int(layout["pss"].sum()) == 127
        assert int(layout["sss"].sum()) == 127
        assert int(layout["dmrs"].sum()) == 144
        assert int(layout["pbch"].sum()) == 432

    def test_masks_disjoint(self):
        layout = ssb_layout(777)
        total = sum(int(m.sum()) for m in layout.values())
        union = np.zeros((4, 240), dtype=bool)
        for m in layout.values():
            union |= m
        assert total == int(union.sum()) == 830

    def test_dmrs_comb_offset(self):
        cols = np.flatnonzero(ssb_layout(3)["dmrs"][1])
        assert np.all(cols % 4 == 3)
        cols0 = np.flatnonzero(ssb_layout(4)["dmrs"][1])
        assert np.all(cols0 % 4 == 0)

    def test_masks_read_only(self):
        layout = ssb_layout(5)
        for mask in layout.values():
            with pytest.raises(ValueError):
                mask[0, 0] = not mask[0, 0]

    def test_each_call_returns_a_new_dict(self):
        first = ssb_layout(9)
        assert ssb_layout(9) is not first
        first["pss"] = np.ones((4, 240), dtype=bool)
        del first["dmrs"]
        again = ssb_layout(9)
        assert sorted(again) == ["dmrs", "pbch", "pss", "sss"]
        assert int(again["pss"].sum()) == 127

    @pytest.mark.parametrize("cell", [-1, 1008])
    def test_range_check(self, cell):
        with pytest.raises(ValueError):
            ssb_layout(cell)


class TestMapSsb:
    def test_data_fresh_and_writable(self):
        cfg = SsbConfig(cell_id=CellId.from_cell(3))
        grid = map_ssb(cfg)
        assert grid.flags.writeable
        grid[:] = 0.0
        assert int(np.count_nonzero(map_ssb(cfg))) == 830

    def test_dimensions_and_empty_cells(self):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(3)))
        occupied = np.logical_or.reduce(list(ssb_layout(3).values()))
        assert grid.shape == (4, 240)
        assert grid.dtype == np.complex128
        assert int(occupied.sum()) == 830
        assert np.all(grid[~occupied] == 0)

    def test_power_accounting(self):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(10), re_power=2.5))
        assert_allclose(np.sum(np.abs(grid) ** 2), 830 * 2.5, rtol=1e-12)
        occupied = grid[np.logical_or.reduce(list(ssb_layout(10).values()))]
        assert_allclose(np.abs(occupied) ** 2, 2.5, rtol=1e-12)

    def test_pss_position(self):
        grid = map_ssb(SsbConfig(cell_id=CellId(n1=0, n2=0)))
        assert np.all(grid[0, :56] == 0)
        assert np.all(grid[0, 183:] == 0)
        assert np.all(np.abs(grid[0, 56:183]) == 1.0)

    def test_deterministic(self):
        cfg = SsbConfig(cell_id=CellId.from_cell(99), i_ssb_bar=2)
        assert_array_equal(map_ssb(cfg), map_ssb(cfg))


class TestOfdm:
    def test_round_trip(self, params):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(3)))
        capture = ofdm_modulate(grid, params)
        back = ofdm_demodulate(capture, params, n_symbols=4)
        err = np.max(np.abs(back - grid)) / np.max(np.abs(grid))
        assert err < 1e-9

    def test_round_trip_random_grid(self, params):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((4, 240)) + 1j * rng.standard_normal((4, 240))
        capture = ofdm_modulate(data, params)
        back = ofdm_demodulate(capture, params, n_symbols=4)
        assert np.max(np.abs(back - data)) / np.max(np.abs(data)) < 1e-9

    def test_output_length(self, params):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(0)))
        assert len(ofdm_modulate(grid, params)) == 4 * params.symbol_len

    def test_single_tone_constant_magnitude(self, params):
        data = np.zeros((1, 240), dtype=complex)
        data[0, 100] = 1.0
        samples = ofdm_modulate(data, params).samples
        assert np.ptp(np.abs(samples)) < 1e-12

    def test_parseval_without_cp(self):
        # unitary transforms both ways: scale constant is exactly 1.0 at cp_len=0
        p = OfdmParams(cp_len=0)
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(3), re_power=0.7))
        capture = ofdm_modulate(grid, p)
        assert_allclose(
            np.sum(np.abs(capture.samples) ** 2),
            np.sum(np.abs(grid) ** 2),
            rtol=1e-12,
        )

    def test_start_offset_selects_neighbor_symbol(self, params):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(3)))
        capture = ofdm_modulate(grid, params)
        shifted = ofdm_demodulate(
            capture, params, symbol_start=params.symbol_len, n_symbols=3
        )
        assert np.max(np.abs(shifted - grid[1:])) < 1e-9

    def test_zero_input_gives_zero_grid(self, params):
        capture = IqCapture(np.zeros(4 * params.symbol_len), params.sample_rate)
        assert np.all(ofdm_demodulate(capture, params) == 0)

    def test_fft_too_small(self):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(0)))
        with pytest.raises(ValueError):
            ofdm_modulate(grid, OfdmParams(fft_size=128))

    def test_insufficient_samples(self, params):
        capture = IqCapture(np.zeros(params.symbol_len * 2), params.sample_rate)
        with pytest.raises(ValueError):
            ofdm_demodulate(capture, params, n_symbols=3)

    @pytest.mark.parametrize("symbol_start, n_symbols, message", [
        (-1, 1, "symbol_start must be >= 0, got -1"),
        (0, 0, "capture holds 2 full symbols from sample 0, requested 0"),
    ])
    def test_demodulation_span_rejected(self, params, symbol_start, n_symbols, message):
        capture = IqCapture(np.zeros(params.symbol_len * 2), params.sample_rate)
        with pytest.raises(ValueError, match=message):
            ofdm_demodulate(capture, params, symbol_start, n_symbols)


@st.composite
def numerologies(draw):
    fft_size = draw(st.sampled_from([256, 512, 1024]))
    return OfdmParams(fft_size=fft_size, cp_len=draw(st.integers(0, fft_size // 8)))


class TestOfdmProperties:
    @settings(max_examples=80, deadline=None)
    @given(p=numerologies(), n_symbols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, p, n_symbols, seed):
        rng = np.random.default_rng(seed)
        grid = (rng.standard_normal((n_symbols, 240))
                + 1j * rng.standard_normal((n_symbols, 240)))
        back = ofdm_demodulate(ofdm_modulate(grid, p), p, n_symbols=n_symbols)
        assert back.shape == grid.shape
        assert np.max(np.abs(back - grid)) <= 1e-12 * np.max(np.abs(grid))

    @settings(max_examples=30, deadline=None)
    @given(p=numerologies(), extra=st.integers(1, 64))
    def test_rejects_non_2d_and_too_wide_grids(self, p, extra):
        for grid in (np.ones(240, complex), np.ones((1, 4, 240), complex)):
            with pytest.raises(ValueError, match="2-D"):
                ofdm_modulate(grid, p)
        with pytest.raises(ValueError, match="smaller than"):
            ofdm_modulate(np.ones((2, p.fft_size + extra), complex), p)


class TestReplicaSeparability:
    def test_time_domain_cross_correlation_below_auto_peak(self, params):
        replicas = [ssb_waveform(SsbConfig(cell_id=CellId(n1=0, n2=n2)), params)
                    [:params.symbol_len] for n2 in range(3)]
        auto = max(
            np.abs(np.correlate(r, r, mode="full")).max() for r in replicas
        )
        worst = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    cross = np.abs(
                        np.correlate(replicas[i], replicas[j], mode="full")
                    ).max()
                    worst = max(worst, cross)
        assert worst < auto
        print(f"\npss replica cross/auto correlation peak ratio: {worst / auto:.3f}")


class TestSynthesizeBursts:
    def test_burst_placement_and_length(self, params):
        cfg = SsbConfig(
            cell_id=CellId.from_cell(3), burst_count=3, burst_period=2000
        )
        capture = synthesize_bursts(cfg, params, lead_in=500, tail=100)
        ssb_len = 4 * params.symbol_len
        assert len(capture) == 500 + 2 * 2000 + ssb_len + 100
        assert np.all(capture.samples[:500] == 0)
        assert np.any(capture.samples[500:500 + ssb_len] != 0)
        # gap between bursts is silent
        assert np.all(capture.samples[500 + ssb_len:500 + 2000] == 0)

    def test_ssb_index_walks_per_burst(self, params):
        cfg = SsbConfig(
            cell_id=CellId.from_cell(3), i_ssb_bar=6, l_max=8,
            burst_count=3, burst_period=2000,
        )
        capture = synthesize_bursts(cfg, params, lead_in=0, tail=0)
        for k, expect in enumerate([6, 7, 0]):
            burst_cfg = SsbConfig(cell_id=cfg.cell_id, i_ssb_bar=expect)
            want = ssb_waveform(burst_cfg, params)
            got = capture.samples[k * 2000:k * 2000 + want.size]
            assert_allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("l_max,first", [(4, 3), (8, 5)])
    def test_each_burst_is_its_index_waveform(self, params, l_max, first):
        cfg = SsbConfig(
            cell_id=CellId.from_cell(777), i_ssb_bar=first, l_max=l_max,
            burst_count=20, burst_period=2300, re_power=0.6,
        )
        capture = synthesize_bursts(cfg, params, lead_in=123, tail=45)
        want = np.zeros(len(capture), dtype=complex)
        for k in range(20):
            burst = ssb_waveform(
                SsbConfig(cell_id=cfg.cell_id, i_ssb_bar=(first + k) % l_max,
                          l_max=l_max, re_power=0.6),
                params,
            )
            want[123 + k * 2300:123 + k * 2300 + burst.size] = burst
        assert np.array_equal(capture.samples, want)

    def test_zero_bursts_is_silence(self, params):
        cfg = SsbConfig(cell_id=CellId.from_cell(0), burst_count=0)
        capture = synthesize_bursts(cfg, params, lead_in=64, tail=36)
        assert len(capture) == 100
        assert np.all(capture.samples == 0)

    def test_period_shorter_than_ssb_rejected(self, params):
        cfg = SsbConfig(
            cell_id=CellId.from_cell(0), burst_count=2, burst_period=100
        )
        with pytest.raises(ValueError):
            synthesize_bursts(cfg, params)
