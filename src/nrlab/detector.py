"""Blind SSB detection: PSS search, SSS/cell-id resolution, DM-RS index, bursts.

The PSS search is a normalized replica correlation computed by overlap-save:
the capture is cut into overlapping blocks whose length is a multiple of the
FFT size. Each sector's replica has one block spectrum, and an integer-bin
CFO hypothesis is that spectrum rolled by whole bins. One kernel,
_bin_maxima, takes the maximum over a sector's CFO bins of the inverse
transforms, rolling, multiplying and transforming in place in reused
buffers. The scan's state is one cached table per numerology and CFO bin
range, _scan_tables, which builds the three PSS replicas and holds their
spectra and each sector's replica shifted by each CFO bin. The blocks are
streamed in groups of _SCAN_GROUP, each group loaded once, zero-padded past
the capture, into a preallocated buffer, and the window energies continue a
running |x|^2 sum carried from the group before. Of each group's lags only
the runs at or above the threshold, with a neighbour either side, are kept
for peak picking, so the scan's memory is bounded by the group, not the
capture. Each group is first screened by the kernel in single precision, in
halves of the other buffers; a sector takes the exact, double-precision
pass, which transforms the loaded blocks in place, only where the screen,
widened by a proven bound on its rounding error, could reach the threshold,
and elsewhere reports the group's end lags at metric 0.
The winning bin is refined by the phase slope between the two halves of the
matched symbol, against that bin's shifted replica from the scan table.
Each burst is then demodulated once, its 4 symbols derotated and transformed
in one call, and its grid feeds the frequency-domain matched correlations of
the SSS and DM-RS stages: one cached table per sector, _sector_tables, holds
the PSS and the SSS bank, and one per cell the DM-RS bank.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import DEFAULT_PSS_THRESHOLD
from .sequences import _sss, gen_pbch_dmrs, gen_pss
from .types import (
    N_SSB_SUBCARRIERS,
    N_SSB_SYMBOLS,
    SYNC_BAND,
    CellId,
    IqCapture,
    OfdmParams,
    _median,
)
from .waveform import _demodulate_symbols, _subcarrier_bins, ofdm_modulate, ssb_layout

MAX_CFO_BINS = 2  # the PSS scan's CFO hypotheses: integer bins -2..2

# Overlap-save blocks per PSS scan group. At the default numerology the scan
# then peaks at about 2.6 MB of traced memory, whatever the capture length:
# the buffers allocated once per call set the peak, and the single-precision
# screen works inside them. Smaller groups pay Python overhead per group and
# hypothesis.
_SCAN_GROUP = 16

# Headroom of the single-precision screen's error bound (see _screen_bounds).
# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed., 2002),
# Thm 24.2: a radix-2 FFT of length L in unit roundoff u with accurate
# twiddles errs by at most log2(L) * eta / (1 - log2(L) * eta) of its
# output's 2-norm, eta = mu + gamma_4 (sqrt(2) + mu), about 6.7u. The
# forward transform's error reaches a lag through the product with S
# (at most max|S|) and the inverse transform (2-norm scaled by 1/sqrt(L)),
# and the inverse adds its own; rounding x and S to complex64, the complex
# product and |.| add about 3.4u. A lag of the screen is then off by at
# most (2 * 6.7 * log2(L) + 3.4) u max|S| ||x_b||_2, under 8 eps32 log2(L)
# max|S| ||x_b||_2 with eps32 = 2u, as a 2-norm bounds every entry and the
# maximum over CFO bins errs no more than its worst bin. 64 leaves 8x on
# that; the largest errors measured on seeded dense, sparse and 80 dB
# dynamic-range captures were 0.014 to 0.037 of the bound taken with 1 in
# place of 64.
_SCREEN_MARGIN = 64


@dataclass(frozen=True)
class PssCandidate:
    """One PSS detection hypothesis that cleared the threshold."""

    n2: int
    timing: int
    cfo: float
    metric: float


@dataclass(frozen=True)
class SsbBurst:
    """Per-burst detection record."""

    timing: int
    i_ssb_bar: int
    pss_metric: float
    sss_metric: float
    dmrs_metric: float


@dataclass
class DetectionResult:
    """Outcome of a full capture scan; bursts are sorted by timing."""

    cell_id: CellId | None
    bursts: list[SsbBurst] = field(default_factory=list)
    cfo: float = 0.0
    cell_id_conflict: bool = False


def _check_sample_rate(capture: IqCapture, params: OfdmParams) -> None:
    """Reject a capture whose sample rate differs from the numerology's by
    more than 1 ppm: its symbols would not line up with the transform."""
    if abs(capture.sample_rate - params.sample_rate) > 1e-6 * params.sample_rate:
        raise ValueError(
            f"capture sample rate {capture.sample_rate:.6g} Hz differs from "
            f"numerology rate {params.sample_rate:.6g} Hz"
        )


@lru_cache(maxsize=3)
def _sector_tables(n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The PSS of one sector index and its 336 SSS hypotheses, read-only.

    The SSS bank has shape (336, 127), row n1 equal to gen_sss(n1, n2),
    built in one pass with n1 as a column. It is held as complex128, so that
    the product with an equalized symbol is one BLAS call; its values equal
    those of the real-valued bank's mixed product.
    """
    pss = gen_pss(n2)
    bank = _sss(np.arange(336)[:, None], n2).astype(np.complex128)
    for table in (pss, bank):
        table.setflags(write=False)
    return pss, bank


@lru_cache(maxsize=64)
def _dmrs_bank(cell: int) -> np.ndarray:
    """All 8 DM-RS hypotheses of a cell, conjugated, shape (8, 144)."""
    cid = CellId.from_cell(cell)
    bank = np.conj(np.stack([gen_pbch_dmrs(cid, i) for i in range(8)]))
    bank.setflags(write=False)
    return bank


def _fractional_cfo(segment: np.ndarray, replica: np.ndarray, fft_size: int) -> float:
    """Residual CFO in subcarrier units from the half-symbol phase slope."""
    prod = segment * np.conj(replica)
    half = prod.size // 2
    p1 = prod[:half].sum()
    p2 = prod[half:2 * half].sum()
    if abs(p1) == 0.0 or abs(p2) == 0.0:
        return 0.0
    return float(np.angle(p2 * np.conj(p1)) * fft_size / (2.0 * np.pi * half))


@lru_cache(maxsize=8)
def _scan_tables(
    params: OfdmParams, max_cfo_bins: int,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, tuple[float, ...], np.ndarray]:
    """The PSS scan's table for one numerology and CFO bin range, read-only:
    the block length L, the smallest power of two >= 4 symbols and so a
    multiple of fft_size; the conjugated L-point spectra S of the three PSS
    replicas, shape (3, L); L * S rounded to complex64 for the screen; max|S|
    per sector, shape (3,); the replica energies; and the replicas shifted by
    CFO bin k, shape (3, 2 * max_cfo_bins + 1, symbol_len), at k + max_cfo_bins.

    The factor L undoes the 1/L of the screen's forward transform: np.fft
    runs a complex64 forward transform in single precision only when it is
    given a single-precision scale factor, as with norm="forward". Both are
    powers of two, so the products are those of the unscaled spectra.
    """
    block = 1 << (4 * params.symbol_len - 1).bit_length()
    replicas = np.empty((3, params.symbol_len), dtype=np.complex128)
    for n2 in range(3):
        row = np.zeros((1, N_SSB_SUBCARRIERS), dtype=np.complex128)
        row[0, SYNC_BAND] = gen_pss(n2)
        replicas[n2] = ofdm_modulate(row, params).samples
    bins = np.arange(-max_cfo_bins, max_cfo_bins + 1)[:, None]
    ramp = np.arange(params.symbol_len) / params.fft_size
    shifted = replicas[:, None] * np.exp(2j * np.pi * bins * ramp)
    spectra = np.conj(np.fft.fft(replicas, n=block))
    screen = (spectra * block).astype(np.complex64)
    peak = np.abs(spectra).max(axis=1)
    for table in (spectra, screen, peak, shifted):
        table.setflags(write=False)
    energies = tuple(float(np.sum(np.abs(r) ** 2)) for r in replicas)
    return block, spectra, screen, peak, energies, shifted


def _halves(buf: np.ndarray) -> np.ndarray:
    """The memory of a contiguous float64 or complex128 buffer as two
    single-precision arrays of the buffer's shape, stacked."""
    single = np.float32 if buf.dtype == np.float64 else np.complex64
    return buf.reshape(-1).view(single).reshape(2, *buf.shape)


def _load_blocks(out: np.ndarray, x: np.ndarray, start: int, step: int) -> None:
    """Row i of `out` := the out.shape[1] samples of `x` from start + i*step,
    zero-padded past the end of `x`."""
    for i, row in enumerate(out):
        seg = x[start + i * step:start + i * step + row.size]
        row[:seg.size] = seg
        row[seg.size:] = 0.0


def _find_peaks(
    x: np.ndarray, lags: np.ndarray, height: float, distance: int
) -> np.ndarray:
    """Indices of the local maxima of `x` that reach `height`, `distance` lags apart.

    `lags` holds the lag of each sample, increasing. It may skip: `x` may be
    runs cut from a longer array and joined in order, provided every sample
    that reaches `height` comes with both its neighbours. The peaks that
    reach `height` are then those of the whole array.

    A flat-topped maximum counts once, at the middle of its plateau (rounded
    down), and the first and last samples are never peaks. Of peaks closer
    than `distance` lags, the highest is kept and its neighbours dropped,
    highest first; equal heights are taken in the order of a default
    np.argsort.
    """
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    rising = dx[steps] > 0
    tops = np.flatnonzero(rising[:-1] & ~rising[1:])
    peaks = (steps[tops] + 1 + steps[tops + 1]) // 2
    peaks = peaks[x[peaks] >= height]
    at = lags[peaks]
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if not keep[j]:
            continue
        lo = np.searchsorted(at, at[j] - distance, side="right")
        hi = np.searchsorted(at, at[j] + distance, side="left")
        keep[lo:hi] = False
        keep[j] = True
    return peaks[keep]


def _kept_lags(metric: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the lags of one scan group that peak picking needs.

    These are the runs with metric >= threshold, one neighbour either side
    of each run, and the group's first and last lag, which are the
    neighbours of runs that cross into the adjacent groups.
    """
    above = metric >= threshold
    keep = above.copy()
    keep[1:] |= above[:-1]
    keep[:-1] |= above[1:]
    keep[0] = keep[-1] = True
    return keep


def _screen_bounds(blocks: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """delta[n2, b]: the most the single-precision screen of sector n2 can be
    off at any lag of block b, shape (3, n_blocks); `peak` holds max|S_n2|.

    delta = _SCREEN_MARGIN * eps32 * log2(L) * max|S_n2| * (||x_b||_2 + L * tiny32),
    with L the block length, S_n2 the sector's replica spectrum and tiny32
    the smallest normal float32. The L * tiny32 term bounds, with room, the
    absolute errors of results below single precision's normal range, which
    the relative bound does not cover.
    """
    block = blocks.shape[1]
    flat = blocks.view(np.float64)
    norm = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    f32 = np.finfo(np.float32)
    norm += block * f32.tiny
    norm *= _SCREEN_MARGIN * f32.eps * (block.bit_length() - 1)
    return np.outer(peak, norm)


def _bin_maxima(
    x_spec: np.ndarray, spectrum: np.ndarray, bin_shift: int, rolled: np.ndarray,
    prod: np.ndarray, mag: np.ndarray, peak: np.ndarray,
    k_best: np.ndarray | None = None, better: np.ndarray | None = None,
) -> None:
    """Write into `peak`, shape (n_blocks, step), the maximum over the CFO bins
    k = -MAX_CFO_BINS..MAX_CFO_BINS of |ifft(x_spec * roll(spectrum, k *
    bin_shift))| on each block's first `step` lags, in the buffers' dtype.

    `rolled` (spectrum's shape), `prod` (x_spec's) and `mag` (peak's) are
    work buffers. `k_best`, if given, receives the first (most negative)
    bin that reaches each maximum, with `better` (bool) as its work buffer.
    """
    block, step = rolled.size, peak.shape[1]
    peak.fill(0.0)
    if k_best is not None:
        k_best.fill(-MAX_CFO_BINS)
    for k in range(-MAX_CFO_BINS, MAX_CFO_BINS + 1):
        shift = k * bin_shift % block  # spectrum rolled by k * bin_shift
        rolled[shift:] = spectrum[:block - shift]
        rolled[:shift] = spectrum[block - shift:]
        np.multiply(x_spec, rolled, out=prod)
        np.fft.ifft(prod, axis=1, out=prod)
        np.abs(prod[:, :step], out=mag)
        if k_best is not None:
            np.greater(mag, peak, out=better)
            np.putmask(k_best, better, k)
        np.maximum(peak, mag, out=peak)


def _pss_scan(
    x: np.ndarray, params: OfdmParams, threshold: float
) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Runs of (lags, metric, winning CFO bin), in lag order, of the lags
    that peak picking needs, for sectors n2 = 0, 1, 2.

    The metric at lag t is |sum_j x[t+j] conj(r[j])| / (|x[t:t+len]| |r|),
    maximized over the replicas r of the sector shifted by integer CFO bins;
    zero-energy windows score 0. Of bins that tie on a lag, the first
    (most negative) wins. It is computed by overlap-save from the table of
    `_scan_tables`, _SCAN_GROUP blocks at a time; of each group's lags only
    those that `_kept_lags` marks are returned.

    `_load_blocks` loads each group's blocks once, zero-padded past the
    capture, into `spec`. Both passes run `_bin_maxima` in buffers allocated
    once per call, every transform into a buffer or in place. The
    single-precision screen runs first, in the two halves of `prod` (its
    input and its product) and the first halves of `rolled`, `mag` and
    `peak`, so `spec` keeps the blocks for the exact pass, which transforms
    them in place. A sector's exact pass runs only if at some lag with
    nonzero energy the screen plus its bound `_screen_bounds` reaches
    threshold * denominator. Otherwise no lag of the group can reach the
    threshold, and only the group's first and last lag are returned, with
    metric 0 and bin 0: any value below the threshold picks the same peaks.
    """
    length = params.symbol_len
    n_lags = x.size - length + 1

    # Block b holds x[b*step : b*step + block]; its first `step` circular
    # correlation lags are free of wrap-around and are lags b*step + t.
    # Only the last block can reach past the capture.
    block, spectra, spectra32, spectra_peak, ref_energy, _ = _scan_tables(params, MAX_CFO_BINS)
    step = block - length + 1
    n_blocks = -(-n_lags // step)
    bin_shift = block // params.fft_size

    # The kernel's buffers, shared by every group and hypothesis; the screen
    # runs in single-precision views of their memory.
    group = min(_SCAN_GROUP, n_blocks)
    spec, prod = np.empty((2, group, block), dtype=np.complex128)
    rolled = np.empty(block, dtype=np.complex128)
    mag, peak = np.empty((2, group, step))
    in32, prod32 = _halves(prod)
    rolled32, mag32, peak32 = (_halves(buf)[0] for buf in (rolled, mag, peak))
    k_best = np.empty((group, step), dtype=np.int64)
    better = np.empty((group, step), dtype=bool)
    metric_buf, energy_buf = np.empty((2, group * step))
    csum_buf = np.empty(group * step + length)

    kept: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = [[], [], []]
    carry = 0.0  # sum of |x|^2 before the group's first lag
    for b0 in range(0, n_blocks, group):
        n_b = min(group, n_blocks - b0)
        lo = b0 * step
        n = min(n_b * step, n_lags - lo)  # the group's lags are lo..lo+n-1
        x_spec = spec[:n_b]
        _load_blocks(x_spec, x, lo, step)

        # Running sum seeded with the carry: the same sequential additions,
        # so the same values, as one cumsum over the whole capture.
        csum = csum_buf[:n + length]
        csum[0] = carry
        np.square(np.abs(x[lo:lo + n + length - 1], out=csum[1:]), out=csum[1:])
        np.cumsum(csum, out=csum)
        carry = csum[n]
        window_energy = np.subtract(csum[length:], csum[:-length], out=energy_buf[:n])

        # Screen every sector before any exact pass. A sample beyond single
        # precision's range makes the screen inf or NaN, which fails the
        # `slack > delta` test and so takes the exact pass.
        exact = []
        slack = metric_buf[:n]
        x32 = in32[:n_b]
        with np.errstate(over="ignore", invalid="ignore"):
            delta = _screen_bounds(x_spec, spectra_peak)
            np.copyto(x32, x_spec)
            np.fft.fft(x32, axis=1, norm="forward", out=x32)
            for n2, spectrum in enumerate(spectra32):
                _bin_maxima(x32, spectrum, bin_shift, rolled32, prod32[:n_b],
                            mag32[:n_b], peak32[:n_b])
                np.multiply(window_energy, ref_energy[n2], out=slack)
                np.sqrt(slack, out=slack)  # the exact pass's denominators
                np.multiply(slack, threshold, out=slack)
                slack[slack <= 0] = np.inf  # a window without energy scores 0
                np.subtract(slack, peak32[:n_b].reshape(-1)[:n], out=slack)
                if not np.all(np.minimum.reduceat(slack, np.arange(0, n, step)) > delta[n2]):
                    exact.append(n2)
                    continue
                ends = np.array(sorted({lo, lo + n - 1}))
                kept[n2].append((ends, np.zeros(ends.size), np.zeros(ends.size, dtype=np.int64)))
        if not exact:
            continue

        np.fft.fft(x_spec, axis=1, out=x_spec)
        metric = metric_buf[:n]
        for n2 in exact:
            _bin_maxima(x_spec, spectra[n2], bin_shift, rolled, prod[:n_b], mag[:n_b],
                        peak[:n_b], k_best[:n_b], better[:n_b])
            denom = mag[:n_b].reshape(-1)[:n]  # free after the kernel
            np.sqrt(np.multiply(window_energy, ref_energy[n2], out=denom), out=denom)
            metric.fill(0.0)
            np.divide(peak[:n_b].reshape(-1)[:n], denom, out=metric, where=denom > 0)
            idx = np.flatnonzero(_kept_lags(metric, threshold))
            kept[n2].append((lo + idx, metric[idx], k_best[:n_b].reshape(-1)[idx]))
    return kept


def detect_pss(
    capture: IqCapture,
    params: OfdmParams,
    threshold: float = DEFAULT_PSS_THRESHOLD,
) -> list[PssCandidate]:
    """Scan a capture for PSS symbols.

    Sliding normalized cross-correlation of the capture against the three
    OFDM-modulated PSS replicas, each over integer CFO hypotheses
    -MAX_CFO_BINS..+MAX_CFO_BINS; local maxima with metric >= threshold
    become candidates. The reported CFO is the winning integer hypothesis
    plus the fractional refinement, in Hz.

    The capture is scanned in groups of _SCAN_GROUP overlap-save blocks,
    and each group keeps only the runs of lags at or above the threshold,
    with their neighbours. The scan's working memory is therefore bounded
    by the group, not the capture: beyond the capture itself, it grows only
    with the number of kept lags.

    Returns:
        Candidates sorted by timing, then descending metric.

    Raises:
        ValueError: the threshold is outside (0, 1), the capture's sample
            rate is not the numerology's, or the capture is shorter than one
            OFDM symbol.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    _check_sample_rate(capture, params)
    x = capture.samples
    length = params.symbol_len
    if x.size < length:
        raise ValueError(
            f"capture of {x.size} samples shorter than one OFDM symbol ({length})"
        )
    n_lags = x.size - length + 1
    shifted = _scan_tables(params, MAX_CFO_BINS)[-1]
    candidates: list[PssCandidate] = []
    for n2, runs in enumerate(_pss_scan(x, params, threshold)):
        # the runs joined, with sentinels either side, so maxima at the
        # capture edges are still local peaks
        lags, metric, k_best = map(np.concatenate, zip(
            ((-1,), (-1.0,), (0,)), *runs, ((n_lags,), (-1.0,), (0,))))
        for i in _find_peaks(metric, lags, threshold, length):
            lag, k = int(lags[i]), int(k_best[i])
            frac = _fractional_cfo(
                x[lag:lag + length], shifted[n2, k + MAX_CFO_BINS], params.fft_size
            )
            candidates.append(
                PssCandidate(
                    n2=n2,
                    timing=lag,
                    cfo=(k + frac) * params.scs,
                    metric=float(metric[i]),
                )
            )
    candidates.sort(key=lambda c: (c.timing, -c.metric, c.n2))
    return candidates


@lru_cache(maxsize=16, typed=True)
def _derotation(cfo_hz: float, sample_rate: float, length: int) -> np.ndarray:
    """The CFO-correcting phasor of `length` samples, read-only."""
    n = np.arange(length)
    phasor = np.exp(-2j * np.pi * cfo_hz / sample_rate * n)
    phasor.setflags(write=False)
    return phasor


def demodulate_burst(
    capture: IqCapture, timing: int, cfo_hz: float, params: OfdmParams
) -> np.ndarray:
    """CFO-correct and demodulate one SSB (4 symbols) starting at `timing`.

    The derotated samples go straight to ofdm_demodulate's symbol transform,
    with the SSB's subcarrier bins cached per FFT size and the derotation
    phasor cached per CFO.

    Raises:
        ValueError: the capture's sample rate is not the numerology's, the
            burst does not fit in the capture, the CFO is not finite, or the
            FFT is narrower than the SSB.
    """
    _check_sample_rate(capture, params)
    length = N_SSB_SYMBOLS * params.symbol_len
    x = capture.samples
    if timing < 0 or timing + length > x.size:
        raise ValueError(
            f"burst at sample {timing} does not fit in capture of {x.size} samples"
        )
    if not np.isfinite(cfo_hz):
        raise ValueError(f"cfo_hz must be finite, got {cfo_hz}")
    bins = _subcarrier_bins(N_SSB_SUBCARRIERS, params.fft_size)
    derotated = x[timing:timing + length] * _derotation(
        cfo_hz, params.sample_rate, length
    )
    return _demodulate_symbols(derotated, params, N_SSB_SYMBOLS, bins)


def _best_match(bank: np.ndarray, v: np.ndarray) -> tuple[int, float]:
    """The row of a matched bank that best matches `v`, and its score |row . v|
    normalized by ||v|| sqrt(row length); 0.0 when `v` is all zeros."""
    scores = np.abs(bank @ v)
    denom = np.linalg.norm(v) * np.sqrt(bank.shape[1])
    best = int(np.argmax(scores))
    return best, float(scores[best] / denom) if denom > 0 else 0.0


def _sss_from_grid(grid: np.ndarray, n2: int) -> tuple[int, float]:
    """Identify the SSS group of a demodulated burst with PSS sector `n2`.

    The SSS symbol (two symbols after the PSS) is equalized with the channel
    estimate taken from the PSS resource elements (per-RE least squares,
    flattened across the symbol, which averages the estimation noise down),
    then correlated against all 336 group hypotheses of the sector.

    Returns:
        (n1, normalized metric of the winning hypothesis).
    """
    pss, sss_bank = _sector_tables(n2)
    chan = np.mean(grid[0, SYNC_BAND] * pss)  # LS per RE, then flat
    return _best_match(sss_bank, grid[2, SYNC_BAND] * np.conj(chan))


def identify_ssb_index(grid: np.ndarray, cell_id: CellId) -> tuple[int, float]:
    """Pick the SSB index whose DM-RS best matches the demodulated grid.

    Returns:
        (i_ssb_bar, normalized metric of the winning hypothesis).
    """
    return _best_match(_dmrs_bank(cell_id.cell), grid[ssb_layout(cell_id.cell)["dmrs"]])


def _merge_candidates(
    cands: list[PssCandidate], window: int
) -> list[PssCandidate]:
    """Collapse candidates closer than `window` samples, keeping the best metric."""
    merged: list[PssCandidate] = []
    for cand in sorted(cands, key=lambda c: (c.timing, -c.metric)):
        if merged and cand.timing - merged[-1].timing < window:
            if cand.metric > merged[-1].metric:
                merged[-1] = cand
        else:
            merged.append(cand)
    return merged


def enumerate_ssb_bursts(
    capture: IqCapture,
    params: OfdmParams,
    threshold: float = DEFAULT_PSS_THRESHOLD,
) -> DetectionResult:
    """Run the full pipeline: PSS scan, SSS vote, per-burst DM-RS index.

    Candidates closer than one SSB duration are merged; the cell identity is
    the majority vote across bursts (ties resolved toward the smaller cell),
    and disagreement between bursts is flagged, not fatal.
    """
    cands = detect_pss(capture, params, threshold)
    merged = _merge_candidates(cands, window=N_SSB_SYMBOLS * params.symbol_len)
    merged = [
        c for c in merged
        if c.timing + N_SSB_SYMBOLS * params.symbol_len <= capture.samples.size
    ]
    if not merged:
        return DetectionResult(cell_id=None)

    votes: Counter[tuple[int, int]] = Counter()
    staged: list[tuple[PssCandidate, np.ndarray, float]] = []
    for cand in merged:
        grid = demodulate_burst(capture, cand.timing, cand.cfo, params)
        n1, sss_metric = _sss_from_grid(grid, cand.n2)
        votes[(n1, cand.n2)] += 1
        staged.append((cand, grid, sss_metric))
    (n1, n2), _ = min(votes.items(), key=lambda kv: (-kv[1], 3 * kv[0][0] + kv[0][1]))
    cell_id = CellId(n1=n1, n2=n2)

    bursts = []
    for cand, grid, sss_metric in staged:
        i_bar, dmrs_metric = identify_ssb_index(grid, cell_id)
        bursts.append(
            SsbBurst(
                timing=cand.timing,
                i_ssb_bar=i_bar,
                pss_metric=cand.metric,
                sss_metric=sss_metric,
                dmrs_metric=dmrs_metric,
            )
        )
    bursts.sort(key=lambda b: b.timing)
    return DetectionResult(
        cell_id=cell_id,
        bursts=bursts,
        cfo=_median([c.cfo for c, _, _ in staged]),
        cell_id_conflict=len(votes) > 1,
    )
