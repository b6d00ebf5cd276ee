"""Reference PSS scans: whole-capture forms of the scan in nrlab.detector.

`reference_pss_scan` is the direct form of the sliding replica correlation
that nrlab.detector computes by overlap-save: every (sector, CFO bin)
hypothesis correlates the whole capture against its own frequency-shifted
replica, and peaks are picked with scipy.signal.find_peaks.

`allocating_pss_scan` is the overlap-save scan as it stood before it was
streamed through groups of blocks and before it reused its buffers: one
transform of the whole capture, one cumsum of its energy, and fresh product,
magnitude and comparison arrays for every hypothesis. `allocating_detect_pss`
picks its peaks with `_find_peaks` on each sector's whole metric array; the
library's candidates must equal its candidates exactly.
"""
import numpy as np
from scipy import signal

from nrlab import gen_pss, ofdm_modulate
from nrlab.detector import (
    PssCandidate,
    _find_peaks,
    _fractional_cfo,
    _scan_tables,
)
from nrlab.types import N_SSB_SUBCARRIERS, SYNC_BAND


def pss_replicas(params):
    """Time-domain replicas of the three PSS symbols, shape (3, symbol_len):
    each sector's PSS alone on the SSB's subcarriers, OFDM-modulated."""
    reps = []
    for n2 in range(3):
        row = np.zeros((1, N_SSB_SUBCARRIERS), dtype=np.complex128)
        row[0, SYNC_BAND] = gen_pss(n2)
        reps.append(ofdm_modulate(row, params).samples)
    return np.array(reps)


def reference_pss_scan(x, params, max_cfo_bins):
    """Yield (metric, winning CFO bin) per lag for sectors n2 = 0, 1, 2."""
    length = params.symbol_len
    csum = np.concatenate(([0.0], np.cumsum(np.abs(x) ** 2)))
    window_energy = csum[length:] - csum[:-length]
    n_lags = x.size - length + 1
    ramp = np.arange(length) / params.fft_size
    for base in pss_replicas(params):
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

    block, spectra = _scan_tables(params, max_cfo_bins)[:2]
    step = block - length + 1
    n_blocks = -(-n_lags // step)
    padded = np.zeros((n_blocks - 1) * step + block, dtype=np.complex128)
    padded[:x.size] = x
    blocks = np.lib.stride_tricks.sliding_window_view(padded, block)[::step]
    x_spec = np.fft.fft(blocks, axis=1)
    bin_shift = block // params.fft_size

    for base, spectrum in zip(pss_replicas(params), spectra):
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


def _candidates(capture, params, scans, pick):
    """(candidate, bin) pairs in detect_pss's order, from each sector's
    whole-capture (metric, winning bin) arrays; `pick` gives the peak indices
    of a metric array padded with -1 at both ends."""
    x = capture.samples
    length = params.symbol_len
    replicas = pss_replicas(params)
    ramp = np.arange(length) / params.fft_size
    found = []
    for n2, (metric, k_best) in enumerate(scans):
        padded = np.concatenate(([-1.0], metric, [-1.0]))
        for p in pick(padded):
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


def reference_detect_pss(capture, params, threshold, max_cfo_bins=2):
    """Candidates of the direct scan with their winning CFO bins.

    Returns:
        (candidate, bin) pairs in detect_pss's order.
    """
    scans = reference_pss_scan(capture.samples, params, max_cfo_bins)
    return _candidates(capture, params, scans, lambda padded: signal.find_peaks(
        padded, height=threshold, distance=params.symbol_len)[0])


def allocating_detect_pss(capture, params, threshold, max_cfo_bins=2):
    """Candidates of the whole-capture overlap-save scan with their winning
    CFO bins, as (candidate, bin) pairs in detect_pss's order."""
    scans = allocating_pss_scan(capture.samples, params, max_cfo_bins)
    return _candidates(capture, params, scans, lambda padded: _find_peaks(
        padded, np.arange(padded.size), threshold, params.symbol_len))
