import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlab import IqCapture
from nrlab.types import _median


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=24))
    @example([np.inf, -np.inf])
    @example([1e308, 1e308, -np.inf, 5.0])
    @example([3.0, np.nan, -1.0])
    @example([np.nan, 2.0])
    @example([-0.0, -0.0])
    def test_bytes_equal_np_median(self, values):
        with np.errstate(all="ignore"):  # inf - inf and overflow in np.median's mean
            expected = np.median(values)
        assert np.float64(_median(values)).tobytes() == expected.tobytes()
        assert np.float64(_median(np.array(values))).tobytes() == expected.tobytes()


class TestIqCaptureFiniteness:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("index", [0, 5, -1])
    def test_non_finite_sample_rejected(self, value, part, index):
        samples = np.ones(11, dtype=complex)
        getattr(samples, part)[index] = value
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            IqCapture(samples, 1e6)
        # the same sample in a strided view, which has no float64 view of its own
        strided = np.ones(22, dtype=complex)
        strided[::2] = samples
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            IqCapture(strided[::2], 1e6)

    def test_extreme_finite_samples_accepted(self):
        # a float64 sum of these would overflow to inf
        big = np.array([1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j, 1.7e308 - 1.7e308j])
        capture = IqCapture(big, 1e6)
        assert capture.samples is big
        assert len(IqCapture(np.repeat(big, 2)[::2], 1e6)) == 3

    def test_empty_capture_accepted(self):
        assert len(IqCapture(np.zeros(0, dtype=complex), 1e6)) == 0


class TestIqCaptureScale:
    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            IqCapture(np.ones(4, dtype=complex), 1e6, scale=scale)

    def test_positive_scale_accepted(self):
        assert IqCapture(np.ones(4, dtype=complex), 1e6, scale=1e-30).scale == 1e-30
