"""Reference PSS scan: one full-length scipy.signal.fftconvolve per hypothesis.

This is the direct form of the sliding replica correlation that
nrlab.detector computes by overlap-save: every (sector, CFO bin) hypothesis
correlates the whole capture against its own frequency-shifted replica, and
peaks are picked with scipy.signal.find_peaks. The tests compare the
library's scan against it.

`allocating_pss_scan` is the overlap-save scan as it stood before it reused
its buffers: fresh product, magnitude and comparison arrays per hypothesis.
The library's scan must equal it exactly.
"""
import numpy as np
from scipy import signal

from nrlab.detector import (
    PssCandidate,
    _fractional_cfo,
    _pss_replica_spectra,
    _pss_replicas,
    _scan_block_len,
)


def reference_pss_scan(x, params, max_cfo_bins):
    """Yield (metric, winning CFO bin) per lag for sectors n2 = 0, 1, 2."""
    length = params.symbol_len
    csum = np.concatenate(([0.0], np.cumsum(np.abs(x) ** 2)))
    window_energy = csum[length:] - csum[:-length]
    n_lags = x.size - length + 1
    ramp = np.arange(length) / params.fft_size
    for base in _pss_replicas(params):
        denom = np.sqrt(window_energy * float(np.sum(np.abs(base) ** 2)))
        metric = np.zeros(n_lags)
        k_best = np.zeros(n_lags, dtype=np.int64)
        for k in range(-max_cfo_bins, max_cfo_bins + 1):
            rep_k = base * np.exp(2j * np.pi * k * ramp)
            corr = signal.fftconvolve(x, np.conj(rep_k[::-1]), mode="valid")
            m = np.divide(np.abs(corr), denom, out=np.zeros(n_lags), where=denom > 0)
            better = m > metric
            metric[better] = m[better]
            k_best[better] = k
        yield metric, k_best


def allocating_pss_scan(x, params, max_cfo_bins):
    """Yield (metric, winning CFO bin) per lag for sectors n2 = 0, 1, 2."""
    length = params.symbol_len
    csum = np.concatenate(([0.0], np.cumsum(np.abs(x) ** 2)))
    window_energy = csum[length:] - csum[:-length]
    n_lags = x.size - length + 1

    block = _scan_block_len(params)
    step = block - length + 1
    n_blocks = -(-n_lags // step)
    padded = np.zeros((n_blocks - 1) * step + block, dtype=np.complex128)
    padded[:x.size] = x
    blocks = np.lib.stride_tricks.sliding_window_view(padded, block)[::step]
    x_spec = np.fft.fft(blocks, axis=1)
    bin_shift = block // params.fft_size

    for base, spectrum in zip(_pss_replicas(params), _pss_replica_spectra(params)):
        denom = np.sqrt(window_energy * float(np.sum(np.abs(base) ** 2)))
        peak_corr = np.zeros(n_lags)
        k_best = np.zeros(n_lags, dtype=np.int64)
        for k in range(-max_cfo_bins, max_cfo_bins + 1):
            corr = np.fft.ifft(x_spec * np.roll(spectrum, k * bin_shift), axis=1)
            mag = np.abs(corr[:, :step]).reshape(-1)[:n_lags]
            np.copyto(k_best, k, where=mag > peak_corr)
            np.maximum(peak_corr, mag, out=peak_corr)
        metric = np.divide(peak_corr, denom, out=np.zeros(n_lags), where=denom > 0)
        yield metric, k_best


def reference_detect_pss(capture, params, threshold, max_cfo_bins=2):
    """Candidates of the reference scan with their winning CFO bins.

    Returns:
        (candidate, bin) pairs in detect_pss's order.
    """
    x = capture.samples
    length = params.symbol_len
    replicas = _pss_replicas(params)
    ramp = np.arange(length) / params.fft_size
    found = []
    for n2, (metric, k_best) in enumerate(reference_pss_scan(x, params, max_cfo_bins)):
        padded = np.concatenate(([-1.0], metric, [-1.0]))
        peaks, _ = signal.find_peaks(padded, height=threshold, distance=length)
        for p in peaks:
            lag = int(p - 1)
            k = int(k_best[lag])
            rep_k = replicas[n2] * np.exp(2j * np.pi * k * ramp)
            frac = _fractional_cfo(x[lag:lag + length], rep_k, params.fft_size)
            cand = PssCandidate(
                n2=n2, timing=lag, cfo=(k + frac) * params.scs, metric=float(metric[lag])
            )
            found.append((cand, k))
    found.sort(key=lambda ck: (ck[0].timing, -ck[0].metric, ck[0].n2))
    return found
