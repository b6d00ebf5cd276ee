import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlab import (
    CellId,
    IqCapture,
    SsbConfig,
    check_targets,
    code_selective_power,
    combine_uncertainty,
    demodulate_burst,
    enumerate_ssb_bursts,
    extrapolate_exposure,
    map_ssb,
    measure_exposure,
)
from nrlab.detector import DetectionResult, SsbBurst
from nrlab.exposure import DEFAULT_UNCERTAINTY_COMPONENTS, SIGNAL_CLASSES
from exposure_reference import reference_code_selective_power


def detection_for(cell: int, i_ssb_bar: int = 0) -> DetectionResult:
    return DetectionResult(
        cell_id=CellId.from_cell(cell),
        bursts=[SsbBurst(0, i_ssb_bar, 1.0, 1.0, 1.0)],
    )


class TestCodeSelectivePower:
    def test_noiseless_within_conducted_target(self):
        re_power = 0.8
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(3), re_power=re_power))
        powers = code_selective_power(grid, detection_for(3))
        for name in SIGNAL_CLASSES:
            err_db = abs(10 * math.log10(powers[name] / re_power))
            assert err_db < 0.05

    def test_classes_agree_within_hundredth_db(self):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(511), re_power=1.3))
        powers = code_selective_power(grid, detection_for(511))
        values_db = [10 * math.log10(p) for p in powers.values()]
        assert max(values_db) - min(values_db) < 0.01

    def test_linearity_quadrupling_power(self):
        base = map_ssb(SsbConfig(cell_id=CellId.from_cell(3)))
        scaled = base * 2.0
        p0 = code_selective_power(base, detection_for(3))
        p1 = code_selective_power(scaled, detection_for(3))
        for name in SIGNAL_CLASSES:
            gain_db = 10 * math.log10(p1[name] / p0[name])
            assert abs(gain_db - 6.02) <= 0.01

    def test_other_cell_overlay_suppressed(self):
        # Seeded Monte Carlo over cell-id pairs at equal power and random
        # interferer phase. The despread estimate's worst-case bias is set
        # by the largest zero-shift SSS cross-correlation (17/127, i.e.
        # +1.09/-1.25 dB); typical pairs sit far below it, while a plain
        # per-RE power mean would read +3.01 dB on every pair.
        rng = np.random.default_rng(20240811)
        shifts = []
        for _ in range(100):
            a = int(rng.integers(0, 1008))
            b = int(rng.integers(0, 1008))
            while b == a:
                b = int(rng.integers(0, 1008))
            ga = map_ssb(SsbConfig(cell_id=CellId.from_cell(a)))
            gb = map_ssb(SsbConfig(cell_id=CellId.from_cell(b)))
            phase = np.exp(2j * np.pi * rng.random())
            combined = ga + phase * gb
            p = code_selective_power(combined, detection_for(a))["sss"]
            shifts.append(abs(10 * math.log10(p)))
        shifts = np.array(shifts)
        assert np.median(shifts) < 0.5
        assert shifts.max() < 1.3
        assert shifts.mean() < 1.0  # far below the naive estimator's +3.01 dB

    def test_zero_bursts_rejected(self):
        grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(3)))
        with pytest.raises(ValueError):
            code_selective_power(
                grid, DetectionResult(cell_id=CellId.from_cell(3), bursts=[])
            )


class TestDespreadTable:
    """The per-cell table gives exactly what mapping the reference SSB per
    call gives, and no caller can change what it holds."""

    @settings(max_examples=120, deadline=None)
    @given(
        cell=st.integers(0, 1007),
        i_ssb_bar=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        zero_rows=st.sets(st.integers(0, 3)),
        signal=st.floats(0.0, 4.0),
    )
    def test_matches_per_call_reference(self, cell, i_ssb_bar, seed, zero_rows, signal):
        rng = np.random.default_rng(seed)
        grid = signal * map_ssb(SsbConfig(cell_id=CellId.from_cell(cell),
                                          i_ssb_bar=i_ssb_bar))
        grid = grid + rng.standard_normal((4, 240)) + 1j * rng.standard_normal((4, 240))
        grid[sorted(zero_rows)] = 0.0
        detection = detection_for(cell, i_ssb_bar)
        assert code_selective_power(grid, detection) == reference_code_selective_power(
            grid, detection
        )

    def test_caller_mutation_does_not_reach_the_table(self):
        detection = detection_for(212, 6)
        first = map_ssb(SsbConfig(cell_id=CellId.from_cell(212), i_ssb_bar=6))
        want = code_selective_power(first, detection)
        first[:] = 0.0
        first[1, ::3] = 5.0 - 2.0j
        again = map_ssb(SsbConfig(cell_id=CellId.from_cell(212), i_ssb_bar=6))
        assert code_selective_power(again, detection) == want
        assert code_selective_power(first, detection) == reference_code_selective_power(
            first, detection
        )

    def test_every_index_of_a_cell_and_the_next_cell(self):
        for cell in (5, 6):
            for i_bar in range(8):
                grid = map_ssb(SsbConfig(cell_id=CellId.from_cell(cell), i_ssb_bar=i_bar))
                detection = detection_for(cell, i_bar)
                got = code_selective_power(grid, detection)
                assert got == reference_code_selective_power(grid, detection)
                assert all(abs(p - 1.0) < 1e-12 for p in got.values())


class TestExtrapolate:
    def test_identity(self):
        assert extrapolate_exposure(2.5, 1, 1.0) == (2.5, pytest.approx(10 * math.log10(2.5)))

    def test_doubling_re_count(self):
        _, db1 = extrapolate_exposure(1.0, 600, 1.0)
        _, db2 = extrapolate_exposure(1.0, 1200, 1.0)
        assert abs((db2 - db1) - 3.01) <= 0.005

    def test_worked_example(self):
        linear, db = extrapolate_exposure(1.0, 1200, 0.75)
        assert linear == 900.0
        assert round(db, 2) == 29.54

    @given(
        re_power=st.floats(1e-6, 1e3),
        n_re=st.integers(1, 10**6),
        duty=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, re_power, n_re, duty):
        base, _ = extrapolate_exposure(re_power, n_re, duty)
        up_p, _ = extrapolate_exposure(re_power * 2, n_re, duty)
        up_n, _ = extrapolate_exposure(re_power, n_re + 1, duty)
        assert up_p >= base and up_n >= base
        if duty / 2 > 0:
            down_d, _ = extrapolate_exposure(re_power, n_re, duty / 2)
            assert down_d <= base

    @pytest.mark.parametrize("duty", [0.0, -0.1, 1.5])
    def test_duty_range(self, duty):
        with pytest.raises(ValueError):
            extrapolate_exposure(1.0, 10, duty)

    def test_n_re_range(self):
        with pytest.raises(ValueError):
            extrapolate_exposure(1.0, 0, 0.5)


class TestUncertainty:
    def test_single_component(self):
        budget = combine_uncertainty([("a", 0.1, "normal")], coverage_factor=2.0)
        assert budget.expanded_db == pytest.approx(0.2)

    def test_pythagorean(self):
        budget = combine_uncertainty([("a", 3.0, "normal"), ("b", 4.0, "rectangular")],
                                     coverage_factor=1.0)
        assert budget.expanded_db == pytest.approx(5.0)

    def test_empty(self):
        assert combine_uncertainty([]).expanded_db == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            combine_uncertainty([("bad", -0.1, "normal")])

    @pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_coverage_factor_rejected(self, k):
        with pytest.raises(ValueError, match="coverage factor must be finite and > 0"):
            combine_uncertainty([("a", 0.02, "normal")], coverage_factor=k)

    @given(
        us=st.lists(st.floats(0, 2.0), min_size=1, max_size=6),
        c=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant_and_scale_covariant(self, us, c):
        comps = [(f"u{i}", u, "normal") for i, u in enumerate(us)]
        forward = combine_uncertainty(comps).expanded_db
        backward = combine_uncertainty(list(reversed(comps))).expanded_db
        assert forward == pytest.approx(backward, rel=1e-12)
        scaled = combine_uncertainty([(n, u * c, d) for n, u, d in comps]).expanded_db
        assert scaled == pytest.approx(forward * c, rel=1e-9)


class TestTargets:
    def test_conducted_pass_with_margin(self):
        budget = combine_uncertainty([("a", 0.02, "normal")], coverage_factor=2.0)
        check = check_targets(budget, "conducted")
        assert check.passed
        assert check.margin_db == pytest.approx(0.01)

    def test_ota_boundary_passes(self):
        budget = combine_uncertainty([("a", 0.25, "normal")], coverage_factor=2.0)
        check = check_targets(budget, "ota")
        assert check.passed
        assert check.margin_db == pytest.approx(0.0, abs=1e-12)

    def test_conducted_fail(self):
        budget = combine_uncertainty([("a", 0.03, "normal")], coverage_factor=2.0)
        assert not check_targets(budget, "conducted").passed

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_targets(combine_uncertainty([]), "radiated")


class TestReport:
    def test_extrapolation_dominates_re_power(self, burst_capture, params):
        capture = burst_capture(re_power=0.9)
        detection = enumerate_ssb_bursts(capture, params)
        report = measure_exposure(capture, detection, params, n_re_total=1200, duty=0.5,
                                  mode="ota")
        assert report.extrapolated_power >= max(report.per_signal_re_power.values())
        assert report.target_check.mode == "ota"
        assert report.uncertainty.expanded_db >= 0

    def test_equals_per_burst_mean(self, burst_capture, params):
        # four SSB indices at 5 dB SNR, shifted by a CFO the detection must carry
        capture = burst_capture(cell=212, bursts=4, i_ssb_bar=2, snr_db=5.0, seed=18)
        n = np.arange(len(capture))
        capture = IqCapture(capture.samples * np.exp(2j * np.pi * 3.1e3 / capture.sample_rate * n),
                            capture.sample_rate)
        detection = enumerate_ssb_bursts(capture, params)
        assert [b.i_ssb_bar for b in detection.bursts] == [2, 3, 4, 5]
        assert detection.cfo != 0.0
        per_burst = [
            code_selective_power(
                demodulate_burst(capture, b.timing, detection.cfo, params), detection, i)
            for i, b in enumerate(detection.bursts)
        ]
        want = {name: float(np.mean([p[name] for p in per_burst])) for name in SIGNAL_CLASSES}
        report = measure_exposure(capture, detection, params, n_re_total=600, duty=0.25,
                                  mode="conducted", coverage_factor=3.0)
        assert report.per_signal_re_power == want
        assert (report.extrapolated_power, report.extrapolated_power_db) == (
            extrapolate_exposure(want["sss"], 600, 0.25))
        assert (report.n_re_total, report.duty) == (600, 0.25)
        assert report.uncertainty == combine_uncertainty(DEFAULT_UNCERTAINTY_COMPONENTS, 3.0)
        assert report.target_check == check_targets(report.uncertainty, "conducted")

    def test_empty_detection_rejected(self, burst_capture, params):
        empty = DetectionResult(cell_id=CellId.from_cell(3), bursts=[])
        with pytest.raises(ValueError, match="no bursts"):
            measure_exposure(burst_capture(), empty, params, n_re_total=1200, duty=1.0,
                             mode="conducted")


class TestRejectedInputs:
    """A burst without a cell identity and a negative per-RE power are
    rejected with their own messages."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda capture, params: measure_exposure(
            capture, DetectionResult(cell_id=None, bursts=[SsbBurst(300, 0, 1.0, 1.0, 1.0)]),
            params, n_re_total=1200, duty=1.0, mode="conducted",
        ), "detection carries no cell identity", id="bursts-without-cell"),
        pytest.param(lambda capture, params: extrapolate_exposure(-1e-3, 1200, 1.0),
                     "re_power must be >= 0, got -0.001", id="negative-re-power"),
    ])
    def test_rejected(self, burst_capture, params, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(burst_capture(), params)
