"""Blind SSB detection: PSS search, SSS/cell-id resolution, DM-RS index, bursts.

The PSS search is a normalized replica correlation computed by overlap-save:
the capture is cut into overlapping blocks whose length is a multiple of the
FFT size. Each sector's replica has one block spectrum, and an integer-bin
CFO hypothesis is that spectrum rolled by whole bins, so a (sector, CFO bin)
hypothesis costs one inverse transform. The blocks are streamed in groups of
_SCAN_GROUP: each group is transformed once, its window energies continue a
running |x|^2 sum carried from the group before, and all hypotheses share one
set of group-sized product, magnitude and comparison buffers. Of each group's
lags only the runs at or above the threshold, with a neighbour either side,
are kept for peak picking, so the scan's memory is bounded by the group, not
the capture. Each group is first screened in single precision: every
hypothesis runs through complex64 transforms, and a sector takes the exact,
double-precision pass only where the screen, widened by a proven bound on
its rounding error, could reach the threshold. A sector that cannot keeps
only the group's first and last lag, which lie below the threshold, so
every lag at or above it is scored by the exact pass. The winning bin is
refined by the phase slope between the two halves of the matched symbol,
against a bin-shifted replica cached per sector and bin.
Each burst is then demodulated once, its 4 symbols derotated and transformed
in one call, and its grid feeds the frequency-domain matched correlations of
the SSS and DM-RS stages against hypothesis banks cached per sector and cell.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .sequences import gen_pbch_dmrs, gen_pss, gen_sss
from .types import (
    N_SSB_SUBCARRIERS,
    N_SSB_SYMBOLS,
    SYNC_BAND,
    SYNC_SEQ_LEN,
    CellId,
    IqCapture,
    OfdmParams,
)
from .waveform import _demodulate_symbols, _subcarrier_bins, ofdm_modulate, ssb_layout

# Calibrated detection threshold: the Monte Carlo in tests/test_detector.py
# puts noise-only false alarms far below 1% per 1e5 samples at this value,
# while a matched burst at -6 dB SNR still scores ~0.45.
DEFAULT_PSS_THRESHOLD = 0.35
DEFAULT_MAX_CFO_BINS = 2

# Overlap-save blocks per PSS scan group. At the default numerology the scan
# then peaks at about 3.3 MB of traced memory, whatever the capture length:
# the exact pass's buffers set the peak, and the single-precision screen
# works inside them. Smaller groups pay Python overhead per group and
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


@lru_cache(maxsize=8)
def _pss_replicas(params: OfdmParams) -> np.ndarray:
    """Time-domain replicas of the three PSS symbols, shape (3, symbol_len)."""
    reps = np.empty((3, params.symbol_len), dtype=np.complex128)
    for n2 in range(3):
        row = np.zeros((1, N_SSB_SUBCARRIERS), dtype=np.complex128)
        row[0, SYNC_BAND] = gen_pss(n2)
        reps[n2] = ofdm_modulate(row, params).samples
    reps.setflags(write=False)
    return reps


@lru_cache(maxsize=3)
def _pss_sequence(n2: int) -> np.ndarray:
    """The PSS of one sector index, read-only."""
    seq = gen_pss(n2)
    seq.setflags(write=False)
    return seq


@lru_cache(maxsize=3)
def _sss_bank(n2: int) -> np.ndarray:
    """All 336 SSS hypotheses for one sector index, shape (336, 127).

    Held as complex128, so that the product with an equalized symbol is one
    BLAS call; its values equal those of the real-valued bank's mixed product.
    """
    bank = np.stack([gen_sss(n1, n2) for n1 in range(336)]).astype(np.complex128)
    bank.setflags(write=False)
    return bank


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


def _scan_block_len(params: OfdmParams) -> int:
    """Overlap-save block length: the smallest power of two >= 4 symbols.

    Being a power of two at least fft_size long, it is a multiple of
    fft_size, so an integer-bin CFO is a whole-bin roll of its spectrum.
    """
    return 1 << (4 * params.symbol_len - 1).bit_length()


@lru_cache(maxsize=8)
def _pss_replica_spectra(params: OfdmParams) -> np.ndarray:
    """Conjugated block-length spectra of the three PSS replicas, shape (3, L)."""
    spectra = np.conj(np.fft.fft(_pss_replicas(params), n=_scan_block_len(params)))
    spectra.setflags(write=False)
    return spectra


@lru_cache(maxsize=8)
def _screen_spectra(params: OfdmParams) -> tuple[np.ndarray, np.ndarray]:
    """The replica spectra times L, rounded to complex64, shape (3, L), and
    the largest magnitude of each sector's spectrum, shape (3,).

    The factor L undoes the 1/L of the screen's forward transform: np.fft
    runs a complex64 forward transform in single precision only when it
    is given a single-precision scale factor, as with norm="forward".
    Both are powers of two, so the products are those of the unscaled
    spectra.
    """
    spectra = _pss_replica_spectra(params)
    rounded = (spectra * spectra.shape[1]).astype(np.complex64)
    peak = np.abs(spectra).max(axis=1)
    rounded.setflags(write=False)
    peak.setflags(write=False)
    return rounded, peak


def _half_view(buf: np.ndarray, dtype: type) -> np.ndarray:
    """The first half of a contiguous buffer's memory as `dtype`, half as
    wide, in the buffer's shape."""
    return buf.reshape(-1).view(dtype)[:buf.size].reshape(buf.shape)


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


def _screen_bounds(blocks: np.ndarray, params: OfdmParams) -> np.ndarray:
    """delta[n2, b]: the most the single-precision screen of sector n2 can be
    off at any lag of block b, shape (3, n_blocks).

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
    return np.outer(_screen_spectra(params)[1], norm)


def _screened(
    blocks: np.ndarray,
    params: OfdmParams,
    max_cfo_bins: int,
    prod: np.ndarray,
    mag: np.ndarray,
    out: np.ndarray,
) -> Iterator[np.ndarray]:
    """The single-precision screen of a group of blocks: yields `out`,
    shape (n_blocks, step), for sectors n2 = 0, 1, 2 in turn, holding the
    maximum over the CFO bins of the correlation magnitude on each block's
    first `step` lags.

    `prod` (complex64, the blocks' shape) and `mag` (float32, `out`'s
    shape) are work buffers; `out` is overwritten for the next sector.
    """
    block = blocks.shape[1]
    step = out.shape[1]
    bin_shift = block // params.fft_size
    rolled = np.empty(block, dtype=np.complex64)
    np.copyto(prod, blocks)
    x_spec = np.fft.fft(prod, axis=1, norm="forward")
    for spectrum in _screen_spectra(params)[0]:
        out.fill(0.0)
        for k in range(-max_cfo_bins, max_cfo_bins + 1):
            shift = k * bin_shift % block  # rolled = np.roll(spectrum, k * bin_shift)
            rolled[shift:] = spectrum[:block - shift]
            rolled[:shift] = spectrum[block - shift:]
            np.multiply(x_spec, rolled, out=prod)
            np.abs(np.fft.ifft(prod, axis=1)[:, :step], out=mag)
            np.maximum(out, mag, out=out)
        yield out


def _pss_scan(
    x: np.ndarray, params: OfdmParams, max_cfo_bins: int, threshold: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(lags, metric, winning CFO bin) of the lags that peak picking needs,
    for sectors n2 = 0, 1, 2.

    The metric at lag t is |sum_j x[t+j] conj(r[j])| / (|x[t:t+len]| |r|),
    maximized over the replicas r of the sector shifted by integer CFO bins;
    zero-energy windows score 0. Of bins that tie on a lag, the first
    (most negative) wins. It is computed by overlap-save, as the module
    docstring describes, _SCAN_GROUP blocks at a time; of each group's lags
    only those that `_kept_lags` marks are returned.

    Each group is first screened in single precision. A sector's exact,
    double-precision pass runs only if at some lag with nonzero energy the
    screen plus its bound `_screen_bounds` reaches threshold * denominator.
    Otherwise no lag of the group can reach the threshold, and only the
    group's first and last lag are returned, with the screened metric and
    bin 0: below the threshold, they pick the same peaks as the exact
    values would.
    """
    length = params.symbol_len
    n_lags = x.size - length + 1

    # Block b holds x[b*step : b*step + block]; its first `step` circular
    # correlation lags are free of wrap-around and are lags b*step + t.
    # Only the last block can reach past the capture.
    block = _scan_block_len(params)
    step = block - length + 1
    n_blocks = -(-n_lags // step)
    bin_shift = block // params.fft_size
    replicas = _pss_replicas(params)
    ref_energy = [float(np.sum(np.abs(base) ** 2)) for base in replicas]

    # Buffers shared by every group and hypothesis. The inverse transform
    # still allocates its output: np.fft takes no out= before numpy 2.0.
    # The screen works in the first half of the exact pass's product,
    # magnitude and peak buffers, and is done with them before that pass.
    group = min(_SCAN_GROUP, n_blocks)
    prod_buf = np.empty((group, block), dtype=np.complex128)
    mag_buf = np.empty((group, step))
    peak_buf = np.empty(group * step)
    k_buf = np.empty(group * step, dtype=np.int64)
    better_buf = np.empty(group * step, dtype=bool)
    metric_buf = np.empty(group * step)
    prod32_buf = _half_view(prod_buf, np.complex64)
    mag32_buf = _half_view(mag_buf, np.float32)
    screen_buf = _half_view(peak_buf, np.float32).reshape(group, step)

    kept: list[list[tuple[np.ndarray, ...]]] = [[], [], []]
    carry = 0.0  # sum of |x|^2 before the group's first lag
    for b0 in range(0, n_blocks, group):
        n_b = min(group, n_blocks - b0)
        lo = b0 * step
        n = min(n_b * step, n_lags - lo)  # the group's lags are lo..lo+n-1
        width = (n_b - 1) * step + block
        span = x[lo:lo + width]
        if span.size < width:
            span = np.concatenate((span, np.zeros(width - span.size)))
        blocks = np.lib.stride_tricks.sliding_window_view(span, block)[::step]

        # Running sum seeded with the carry: the same sequential additions,
        # so the same values, as one cumsum over the whole capture.
        csum = np.empty(n + length)
        csum[0] = carry
        csum[1:] = np.abs(x[lo:lo + n + length - 1]) ** 2
        np.cumsum(csum, out=csum)
        carry = csum[n]
        window_energy = csum[length:] - csum[:-length]

        # Screen every sector before any exact pass. A sample beyond single
        # precision's range makes the screen inf or NaN, which fails the
        # `slack > delta` test and so takes the exact pass.
        exact = []
        slack = metric_buf[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            delta = _screen_bounds(blocks, params)
            for n2, screened in enumerate(_screened(
                blocks, params, max_cfo_bins,
                prod32_buf[:n_b], mag32_buf[:n_b], screen_buf[:n_b],
            )):
                peak = screened.reshape(-1)[:n]
                np.multiply(window_energy, ref_energy[n2], out=slack)
                np.sqrt(slack, out=slack)  # the exact pass's denominators
                np.multiply(slack, threshold, out=slack)
                slack[slack <= 0] = np.inf  # a window without energy scores 0
                np.subtract(slack, peak, out=slack)
                if not np.all(np.minimum.reduceat(slack, np.arange(0, n, step))
                              > delta[n2, :n_b]):
                    exact.append(n2)
                    continue
                ends = np.array(sorted({0, n - 1}))
                denom = np.sqrt(window_energy[ends] * ref_energy[n2])
                metric = np.divide(peak[ends], denom, out=np.zeros(ends.size),
                                   where=denom > 0)
                kept[n2].append((lo + ends, metric, np.zeros(ends.size, dtype=np.int64)))
        if not exact:
            continue

        x_spec = np.fft.fft(blocks, axis=1)
        prod = prod_buf[:n_b]
        block_mag = mag_buf[:n_b]
        mag = block_mag.reshape(-1)[:n]
        peak_corr, k_best = peak_buf[:n], k_buf[:n]
        better, metric = better_buf[:n], metric_buf[:n]
        for n2 in exact:
            spectrum = _pss_replica_spectra(params)[n2]
            peak_corr.fill(0.0)
            k_best.fill(0)
            for k in range(-max_cfo_bins, max_cfo_bins + 1):
                np.multiply(x_spec, np.roll(spectrum, k * bin_shift), out=prod)
                np.abs(np.fft.ifft(prod, axis=1)[:, :step], out=block_mag)
                np.greater(mag, peak_corr, out=better)
                np.putmask(k_best, better, k)
                np.maximum(peak_corr, mag, out=peak_corr)
            denom = np.sqrt(window_energy * ref_energy[n2])
            metric.fill(0.0)
            np.divide(peak_corr, denom, out=metric, where=denom > 0)
            idx = np.flatnonzero(_kept_lags(metric, threshold))
            kept[n2].append((lo + idx, metric[idx], k_best[idx]))
    return [tuple(np.concatenate(parts) for parts in zip(*runs)) for runs in kept]


@lru_cache(maxsize=32)
def _bin_replica(params: OfdmParams, n2: int, k: int) -> np.ndarray:
    """Sector n2's PSS replica shifted by integer CFO bin k, read-only."""
    ramp = np.arange(params.symbol_len) / params.fft_size
    rep = _pss_replicas(params)[n2] * np.exp(2j * np.pi * k * ramp)
    rep.setflags(write=False)
    return rep


def detect_pss(
    capture: IqCapture,
    params: OfdmParams,
    threshold: float = DEFAULT_PSS_THRESHOLD,
    max_cfo_bins: int = DEFAULT_MAX_CFO_BINS,
) -> list[PssCandidate]:
    """Scan a capture for PSS symbols.

    Sliding normalized cross-correlation of the capture against the three
    OFDM-modulated PSS replicas, each over integer CFO hypotheses
    -max_cfo_bins..+max_cfo_bins; local maxima with metric >= threshold
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
    if x.size == 0:
        raise ValueError("empty capture")
    length = params.symbol_len
    if x.size < length:
        raise ValueError(
            f"capture of {x.size} samples shorter than one OFDM symbol ({length})"
        )
    n_lags = x.size - length + 1
    candidates: list[PssCandidate] = []
    for n2, (lags, metric, k_best) in enumerate(
        _pss_scan(x, params, max_cfo_bins, threshold)
    ):
        # sentinels either side, so maxima at the capture edges are still
        # local peaks
        for i in _find_peaks(
            np.concatenate(([-1.0], metric, [-1.0])),
            np.concatenate(([-1], lags, [n_lags])),
            threshold,
            length,
        ):
            lag, k = int(lags[i - 1]), int(k_best[i - 1])
            frac = _fractional_cfo(
                x[lag:lag + length], _bin_replica(params, n2, k), params.fft_size
            )
            candidates.append(
                PssCandidate(
                    n2=n2,
                    timing=lag,
                    cfo=(k + frac) * params.scs,
                    metric=float(metric[i - 1]),
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


def _sss_from_grid(grid: np.ndarray, n2: int) -> tuple[int, float]:
    """Identify the SSS group of a demodulated burst with PSS sector `n2`.

    The SSS symbol (two symbols after the PSS) is equalized with the channel
    estimate taken from the PSS resource elements (per-RE least squares,
    flattened across the symbol, which averages the estimation noise down),
    then correlated against all 336 group hypotheses of the sector.

    Returns:
        (n1, normalized metric of the winning hypothesis).
    """
    chan = np.mean(grid[0, SYNC_BAND] * _pss_sequence(n2))  # LS per RE, then flat
    equalized = grid[2, SYNC_BAND] * np.conj(chan)
    scores = np.abs(_sss_bank(n2) @ equalized)
    denom = np.linalg.norm(equalized) * np.sqrt(SYNC_SEQ_LEN)
    n1 = int(np.argmax(scores))
    metric = float(scores[n1] / denom) if denom > 0 else 0.0
    return n1, metric


def identify_ssb_index(grid: np.ndarray, cell_id: CellId) -> tuple[int, float]:
    """Pick the SSB index whose DM-RS best matches the demodulated grid.

    Returns:
        (i_ssb_bar, normalized metric of the winning hypothesis).
    """
    mask = ssb_layout(cell_id.cell)["dmrs"]
    observed = grid[mask]
    bank = _dmrs_bank(cell_id.cell)
    scores = np.abs(bank @ observed)
    denom = np.linalg.norm(observed) * np.sqrt(bank.shape[1])
    i_bar = int(np.argmax(scores))
    metric = float(scores[i_bar] / denom) if denom > 0 else 0.0
    return i_bar, metric


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
        cfo=float(np.median([c.cfo for c, _, _ in staged])),
        cell_id_conflict=len(votes) > 1,
    )
