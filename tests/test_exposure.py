import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlab import (
    CellId,
    IqCapture,
    SsbConfig,
    TargetCheck,
    UncertaintyComponent,
    code_selective_power,
    demodulate_burst,
    enumerate_ssb_bursts,
    map_ssb,
    measure_exposure,
)
from nrlab import exposure
from nrlab.detector import DetectionResult, SsbBurst
from nrlab.exposure import DEFAULT_UNCERTAINTY_COMPONENTS, SIGNAL_CLASSES
from exposure_reference import reference_code_selective_power


@pytest.fixture(scope="module")
def one_burst(burst_capture, params):
    """measure_exposure(**kwargs) on one noiseless cell-3 burst, whose despread
    per-RE SSS power is exactly 1.0; arguments not given are n_re_total=1200,
    duty=1.0, mode="conducted"."""
    capture = burst_capture()
    detection = enumerate_ssb_bursts(capture, params)
    assert len(detection.bursts) == 1

    def measure(**kwargs):
        kwargs = {"n_re_total": 1200, "duty": 1.0, "mode": "conducted", **kwargs}
        return measure_exposure(capture, detection, params, **kwargs)

    assert measure().per_signal_re_power["sss"] == 1.0
    return measure


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
    """The SSS per-RE power times n_re_total times duty, in linear and dB."""

    def test_identity(self, one_burst):
        report = one_burst(n_re_total=1, duty=1.0)
        assert (report.extrapolated_power, report.extrapolated_power_db) == (1.0, 0.0)

    def test_doubling_re_count(self, one_burst):
        db1 = one_burst(n_re_total=600).extrapolated_power_db
        db2 = one_burst(n_re_total=1200).extrapolated_power_db
        assert abs((db2 - db1) - 3.01) <= 0.005

    def test_worked_example(self, one_burst):
        report = one_burst(n_re_total=1200, duty=0.75)
        assert report.extrapolated_power == 900.0
        assert round(report.extrapolated_power_db, 2) == 29.54

    @given(n_re=st.integers(1, 10**6), duty=st.floats(1e-6, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, one_burst, n_re, duty):
        base = one_burst(n_re_total=n_re, duty=duty).extrapolated_power
        assert one_burst(n_re_total=n_re + 1, duty=duty).extrapolated_power >= base
        assert one_burst(n_re_total=n_re, duty=duty / 2).extrapolated_power <= base

    @pytest.mark.parametrize("duty", [0.0, -0.1, 1.5])
    def test_duty_range(self, one_burst, duty):
        with pytest.raises(ValueError, match=re.escape(f"duty must be in (0, 1], got {duty}")):
            one_burst(duty=duty)

    def test_n_re_range(self, one_burst):
        with pytest.raises(ValueError, match="n_re_total must be >= 1, got 0"):
            one_burst(n_re_total=0, duty=0.5)


class TestUncertainty:
    """The expanded uncertainty is the coverage factor times the root-sum-square
    of the module's components, each flagged as a placeholder."""

    def test_single_component(self, one_burst, monkeypatch):
        component = UncertaintyComponent("a", 0.1, "normal", placeholder=True)
        monkeypatch.setattr(exposure, "DEFAULT_UNCERTAINTY_COMPONENTS", (component,))
        budget = one_burst(coverage_factor=2.0).uncertainty
        assert budget.components == (component,)
        assert budget.expanded_db == pytest.approx(0.2)

    def test_pythagorean(self, one_burst, monkeypatch):
        monkeypatch.setattr(exposure, "DEFAULT_UNCERTAINTY_COMPONENTS", (
            UncertaintyComponent("a", 3.0, "normal", placeholder=True),
            UncertaintyComponent("b", 4.0, "rectangular", placeholder=True),
        ))
        assert one_burst(coverage_factor=1.0).uncertainty.expanded_db == 5.0

    def test_empty(self, one_burst, monkeypatch):
        monkeypatch.setattr(exposure, "DEFAULT_UNCERTAINTY_COMPONENTS", ())
        assert one_burst().uncertainty.expanded_db == 0.0

    @pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_coverage_factor_rejected(self, one_burst, k):
        with pytest.raises(ValueError, match="coverage factor must be finite and > 0"):
            one_burst(coverage_factor=k)

    @given(k=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_in_coverage_factor(self, one_burst, k):
        unit = one_burst(coverage_factor=1.0).uncertainty.expanded_db
        budget = one_burst(coverage_factor=k).uncertainty
        assert budget.coverage_factor == k
        assert budget.expanded_db == pytest.approx(k * unit, rel=1e-15)


class TestTargets:
    def test_conducted_pass_with_margin(self, one_burst):
        report = one_burst(mode="conducted", coverage_factor=2.0)
        check = report.target_check
        assert check.passed
        assert check.margin_db == 0.05 - report.uncertainty.expanded_db
        assert check.margin_db == pytest.approx(0.05 - 2.0 * math.sqrt(6e-4))

    def test_ota_boundary_passes(self, one_burst):
        # the coverage factor at which the expanded uncertainty is exactly the
        # 0.5 dB OTA target: the target itself passes, one ulp more fails
        rss = math.sqrt(sum(c.std_db * c.std_db for c in DEFAULT_UNCERTAINTY_COMPONENTS))
        k = 0.5 / rss
        for _ in range(64):
            if k * rss == 0.5:
                break
            k = math.nextafter(k, math.inf if k * rss < 0.5 else -math.inf)
        report = one_burst(mode="ota", coverage_factor=k)
        assert report.uncertainty.expanded_db == 0.5
        assert report.target_check == TargetCheck(passed=True, mode="ota", target_db=0.5,
                                                  margin_db=0.0)
        over = one_burst(mode="ota", coverage_factor=math.nextafter(k, math.inf))
        assert over.uncertainty.expanded_db > 0.5
        assert not over.target_check.passed

    def test_conducted_fail(self, one_burst):
        report = one_burst(mode="conducted", coverage_factor=3.0)
        assert report.uncertainty.expanded_db > 0.05
        assert not report.target_check.passed
        assert report.target_check.margin_db < 0

    def test_unknown_mode(self, one_burst):
        with pytest.raises(ValueError, match=re.escape("mode must be one of ['conducted', 'ota'], "
                                                       "got 'radiated'")):
            one_burst(mode="radiated")


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
        assert report.per_signal_re_power_db == {k: 10.0 * np.log10(v) for k, v in want.items()}
        linear = want["sss"] * 600 * 0.25
        assert report.extrapolated_power == linear
        assert report.extrapolated_power_db == 10.0 * math.log10(linear)
        assert (report.n_re_total, report.duty) == (600, 0.25)
        assert report.uncertainty.components is DEFAULT_UNCERTAINTY_COMPONENTS
        assert [(c.name, c.std_db, c.distribution, c.placeholder)
                for c in report.uncertainty.components] == [
            ("correlation-loss", 0.02, "normal", True),
            ("quantization", 0.01, "rectangular", True),
            ("noise", 0.01, "normal", True),
        ]
        expanded = 3.0 * math.sqrt(0.02 * 0.02 + 0.01 * 0.01 + 0.01 * 0.01)
        assert report.uncertainty.coverage_factor == 3.0
        assert report.uncertainty.expanded_db == expanded
        assert report.target_check == TargetCheck(passed=False, mode="conducted",
                                                  target_db=0.05, margin_db=0.05 - expanded)

    def test_empty_detection_rejected(self, burst_capture, params):
        empty = DetectionResult(cell_id=CellId.from_cell(3), bursts=[])
        with pytest.raises(ValueError, match="no bursts"):
            measure_exposure(burst_capture(), empty, params, n_re_total=1200, duty=1.0,
                             mode="conducted")


class TestRejectedInputs:
    """A burst without a cell identity is rejected with its own message, and an
    argument out of range before any burst is demodulated."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda capture, params: measure_exposure(
            capture, DetectionResult(cell_id=None, bursts=[SsbBurst(300, 0, 1.0, 1.0, 1.0)]),
            params, n_re_total=1200, duty=1.0, mode="conducted",
        ), "detection carries no cell identity", id="bursts-without-cell"),
    ])
    def test_rejected(self, burst_capture, params, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(burst_capture(), params)

    @pytest.mark.parametrize("kwargs, message", [
        ({"duty": 0}, "duty must be in (0, 1], got 0"),
        ({"n_re_total": 0}, "n_re_total must be >= 1, got 0"),
        ({"mode": "radiated"}, "mode must be one of ['conducted', 'ota'], got 'radiated'"),
        ({"coverage_factor": math.nan}, "coverage factor must be finite and > 0, got nan"),
    ], ids=["duty-0", "n_re_total-0", "mode-radiated", "coverage-factor-nan"])
    def test_checked_before_any_burst_is_demodulated(self, one_burst, kwargs, message):
        with mock.patch("nrlab.exposure.demodulate_burst",
                        side_effect=AssertionError("demodulated")) as spy:
            with pytest.raises(ValueError, match=re.escape(message)):
                one_burst(**kwargs)
        assert not spy.called
