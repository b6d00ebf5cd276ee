import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlab import CellId, IqCapture, OfdmParams, SsbConfig, types
from nrlab.types import MAX_WORKERS, _median, _run_slices, _worker_count


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


class TestIqCaptureMetadata:
    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
            IqCapture(np.ones(4, dtype=complex), rate)

    @pytest.mark.parametrize("freq", [np.inf, -np.inf, np.nan])
    def test_non_finite_center_freq_rejected(self, freq):
        with pytest.raises(ValueError, match="center_freq must be finite"):
            IqCapture(np.ones(4, dtype=complex), 1e6, center_freq=freq)


class TestOfdmParams:
    @pytest.mark.parametrize("fft_size, cp_len", [(128, 9), (256, 18), (512, 36),
                                                  (1024, 72), (2048, 144), (4096, 288)])
    def test_normal_cp_by_default(self, fft_size, cp_len):
        assert OfdmParams(fft_size=fft_size).cp_len == cp_len

    @pytest.mark.parametrize("cp_len", [0, 256])
    def test_explicit_cp_kept(self, cp_len):
        p = OfdmParams(cp_len=cp_len)
        assert p.cp_len == cp_len and p.symbol_len == 256 + cp_len

    @pytest.mark.parametrize("cp_len", [-1, 257, 300])
    def test_cp_outside_the_fft_rejected(self, cp_len):
        # a CP longer than the symbol body once wrapped round in ofdm_modulate
        with pytest.raises(ValueError, match=f"cp_len must be in 0..fft_size 256, got {cp_len}"):
            OfdmParams(cp_len=cp_len)


class TestRejectedValues:
    """Each check of the identity, numerology, SSB and capture types raises
    with its own message."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: CellId.from_cell(1008), "cell must be in 0..1007, got 1008",
                     id="cell-1008"),
        pytest.param(lambda: OfdmParams(mu=-1), "mu must be >= 0, got -1", id="mu-negative"),
        pytest.param(lambda: OfdmParams(fft_size=384),
                     "fft_size must be a power of two, got 384", id="fft-384"),
        pytest.param(lambda: SsbConfig(CellId(0, 0), l_max=6), "l_max must be 4 or 8, got 6",
                     id="l-max-6"),
        pytest.param(lambda: SsbConfig(CellId(0, 0), i_ssb_bar=4, l_max=4),
                     "i_ssb_bar must be in 0..3, got 4", id="i-ssb-past-l-max"),
        pytest.param(lambda: SsbConfig(CellId(0, 0), burst_count=-1),
                     "burst_count must be >= 0, got -1", id="burst-count-negative"),
        pytest.param(lambda: SsbConfig(CellId(0, 0), burst_period=-1),
                     "burst_period must be >= 0, got -1", id="burst-period-negative"),
        pytest.param(lambda: SsbConfig(CellId(0, 0), re_power=float("nan")),
                     "re_power must be > 0, got nan", id="re-power-nan"),
        pytest.param(lambda: IqCapture(np.zeros((2, 3)), 1e6),
                     "samples must be 1-D, got shape (2, 3)", id="2d-samples"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def counted(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


class TestRunSlices:
    @pytest.mark.parametrize("cpus, slices, workers", [
        (1, 10, 1), (2, 10, 2), (3, 2, 2), (8, 100, MAX_WORKERS), (2, 0, 1)])
    def test_worker_count(self, monkeypatch, cpus, slices, workers):
        monkeypatch.setattr(types, "_usable_cpus", lambda: cpus)
        assert _worker_count(slices) == workers

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_worker_runs_and_none_outlives_the_call(self, started, workers):
        # each worker waits on its first slice until all have one, which
        # only `workers` threads running at once can pass
        meet = threading.Barrier(workers, timeout=10)
        taken = []

        def run(s, worker):
            if worker not in {w for _, w in taken}:
                taken.append((s, worker))
                meet.wait()
            else:
                taken.append((s, worker))

        before = threading.active_count()
        _run_slices(run, [slice(i, i + 1) for i in range(10)], workers)
        assert sorted(s.start for s, _ in taken) == list(range(10))
        assert {w for _, w in taken} == set(range(workers))
        assert len(started) == workers - 1
        assert not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, n_slices", [(1, 5), (3, 1), (3, 0)])
    def test_one_worker_or_one_slice_starts_no_thread(self, started, workers, n_slices):
        ran = []
        _run_slices(lambda s, w: ran.append((s.start, w, threading.get_ident())),
                    [slice(i, i + 1) for i in range(n_slices)], workers)
        assert ran == [(i, 0, threading.get_ident()) for i in range(n_slices)]
        assert started == []

    def test_an_exception_reaches_the_caller_after_the_workers_stop(self, started):
        def run(s, worker):
            if s.start == 7:
                raise KeyError("slice 7")

        with pytest.raises(KeyError, match="slice 7"):
            _run_slices(run, [slice(i, i + 1) for i in range(20)], 3)
        assert started and not any(t.is_alive() for t in started)

    def test_more_workers_than_cores_switching_often(self):
        # a slice lost or taken twice would leave a count other than 1
        counts = np.zeros(2000, dtype=np.int64)

        def run(s, worker):
            counts[s] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                counts[:] = 0
                _run_slices(run, [slice(i, i + 1) for i in range(counts.size)], 4)
                assert np.all(counts == 1)
        finally:
            sys.setswitchinterval(interval)
