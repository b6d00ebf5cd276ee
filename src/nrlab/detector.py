"""Blind SSB detection: PSS search, SSS/cell-id resolution, DM-RS index, bursts.

The PSS search is a normalized replica correlation computed by overlap-save:
the capture is cut into overlapping blocks whose length is a multiple of the
FFT size and transformed once. Each sector's replica has one block spectrum,
and an integer-bin CFO hypothesis is that spectrum rolled by whole bins, so a
(sector, CFO bin) hypothesis costs one inverse transform. The winning bin is
refined by the phase slope between the two halves of the matched symbol.
All hypotheses share one set of product, magnitude and comparison buffers.
Each burst is then demodulated once, its 4 symbols derotated and transformed
in one call, and its grid feeds the frequency-domain matched correlations of
the SSS and DM-RS stages against hypothesis banks cached per sector and cell.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .sequences import gen_pbch_dmrs, gen_pss, gen_sss
from .types import (
    N_SSB_SUBCARRIERS,
    N_SSB_SYMBOLS,
    CellId,
    IqCapture,
    OfdmParams,
    ResourceGrid,
    SYNC_FIRST_SUBCARRIER,
    SYNC_SEQ_LEN,
)
from .waveform import _demodulate_symbols, _subcarrier_bins, ofdm_modulate, ssb_layout

# Calibrated detection threshold: the Monte Carlo in tests/test_detector.py
# puts noise-only false alarms far below 1% per 1e5 samples at this value,
# while a matched burst at -6 dB SNR still scores ~0.45.
DEFAULT_PSS_THRESHOLD = 0.35
DEFAULT_MAX_CFO_BINS = 2


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


@lru_cache(maxsize=8)
def _pss_replicas(params: OfdmParams) -> np.ndarray:
    """Time-domain replicas of the three PSS symbols, shape (3, symbol_len)."""
    reps = np.empty((3, params.symbol_len), dtype=np.complex128)
    sync = slice(SYNC_FIRST_SUBCARRIER, SYNC_FIRST_SUBCARRIER + SYNC_SEQ_LEN)
    for n2 in range(3):
        row = np.zeros((1, N_SSB_SUBCARRIERS), dtype=np.complex128)
        row[0, sync] = gen_pss(n2)
        reps[n2] = ofdm_modulate(ResourceGrid(row), params).samples
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


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of local maxima of `x` that reach `height`, `distance` apart.

    A flat-topped maximum counts once, at the middle of its plateau (rounded
    down), and the first and last samples are never peaks. Of peaks closer
    than `distance`, the highest is kept and its neighbours dropped, highest
    first; equal heights are taken in the order of a default np.argsort.
    """
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    rising = dx[steps] > 0
    tops = np.flatnonzero(rising[:-1] & ~rising[1:])
    peaks = (steps[tops] + 1 + steps[tops + 1]) // 2
    peaks = peaks[x[peaks] >= height]
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if not keep[j]:
            continue
        lo = np.searchsorted(peaks, peaks[j] - distance, side="right")
        hi = np.searchsorted(peaks, peaks[j] + distance, side="left")
        keep[lo:hi] = False
        keep[j] = True
    return peaks[keep]


def _pss_scan(x: np.ndarray, params: OfdmParams, max_cfo_bins: int):
    """Yield (metric, winning CFO bin) per lag for sectors n2 = 0, 1, 2.

    The metric at lag t is |sum_j x[t+j] conj(r[j])| / (|x[t:t+len]| |r|),
    maximized over the replicas r of the sector shifted by integer CFO bins;
    zero-energy windows score 0. It is computed by overlap-save, as the
    module docstring describes. Of bins that tie on a lag, the first
    (most negative) wins.
    """
    length = params.symbol_len
    csum = np.concatenate(([0.0], np.cumsum(np.abs(x) ** 2)))
    window_energy = csum[length:] - csum[:-length]
    n_lags = x.size - length + 1

    # Block b holds x[b*step : b*step + block]; its first `step` circular
    # correlation lags are free of wrap-around and are lags b*step + t.
    block = _scan_block_len(params)
    step = block - length + 1
    n_blocks = -(-n_lags // step)
    padded = np.zeros((n_blocks - 1) * step + block, dtype=np.complex128)
    padded[:x.size] = x
    blocks = np.lib.stride_tricks.sliding_window_view(padded, block)[::step]
    x_spec = np.fft.fft(blocks, axis=1)
    bin_shift = block // params.fft_size

    # Buffers shared by every hypothesis. The inverse transform still
    # allocates its output: np.fft takes no out= before numpy 2.0.
    prod = np.empty_like(x_spec)
    block_mag = np.empty((n_blocks, step))
    mag = block_mag.reshape(-1)[:n_lags]
    better = np.empty(n_lags, dtype=bool)
    for base, spectrum in zip(_pss_replicas(params), _pss_replica_spectra(params)):
        denom = np.sqrt(window_energy * float(np.sum(np.abs(base) ** 2)))
        peak_corr = np.zeros(n_lags)
        k_best = np.zeros(n_lags, dtype=np.int64)
        for k in range(-max_cfo_bins, max_cfo_bins + 1):
            np.multiply(x_spec, np.roll(spectrum, k * bin_shift), out=prod)
            np.abs(np.fft.ifft(prod, axis=1)[:, :step], out=block_mag)
            np.greater(mag, peak_corr, out=better)
            np.putmask(k_best, better, k)
            np.maximum(peak_corr, mag, out=peak_corr)
        metric = np.divide(peak_corr, denom, out=np.zeros(n_lags), where=denom > 0)
        yield metric, k_best


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

    Returns:
        Candidates sorted by timing, then descending metric.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    x = capture.samples
    if x.size == 0:
        raise ValueError("empty capture")
    length = params.symbol_len
    if x.size < length:
        raise ValueError(
            f"capture of {x.size} samples shorter than one OFDM symbol ({length})"
        )
    replicas = _pss_replicas(params)
    ramp = np.arange(length) / params.fft_size
    candidates: list[PssCandidate] = []
    for n2, (metric, k_best) in enumerate(_pss_scan(x, params, max_cfo_bins)):
        # pad so maxima at the capture edges are still local peaks
        padded = np.concatenate(([-1.0], metric, [-1.0]))
        for p in _find_peaks(padded, threshold, length):
            lag = int(p - 1)
            k = int(k_best[lag])
            rep_k = replicas[n2] * np.exp(2j * np.pi * k * ramp)
            frac = _fractional_cfo(x[lag:lag + length], rep_k, params.fft_size)
            candidates.append(
                PssCandidate(
                    n2=n2,
                    timing=lag,
                    cfo=(k + frac) * params.scs,
                    metric=float(metric[lag]),
                )
            )
    candidates.sort(key=lambda c: (c.timing, -c.metric, c.n2))
    return candidates


def demodulate_burst(
    capture: IqCapture, timing: int, cfo_hz: float, params: OfdmParams
) -> ResourceGrid:
    """CFO-correct and demodulate one SSB (4 symbols) starting at `timing`.

    The derotated samples go straight to ofdm_demodulate's symbol transform,
    with the SSB's subcarrier bins cached per FFT size.

    Raises:
        ValueError: the burst does not fit in the capture, the CFO is not
            finite, or the FFT is narrower than the SSB.
    """
    length = N_SSB_SYMBOLS * params.symbol_len
    x = capture.samples
    if timing < 0 or timing + length > x.size:
        raise ValueError(
            f"burst at sample {timing} does not fit in capture of {x.size} samples"
        )
    if not np.isfinite(cfo_hz):
        raise ValueError(f"cfo_hz must be finite, got {cfo_hz}")
    bins = _subcarrier_bins(N_SSB_SUBCARRIERS, params.fft_size)
    n = np.arange(length)
    derotated = x[timing:timing + length] * np.exp(
        -2j * np.pi * cfo_hz / params.sample_rate * n
    )
    return _demodulate_symbols(derotated, params, N_SSB_SYMBOLS, bins)


def _sss_from_grid(grid: ResourceGrid, n2: int) -> tuple[int, float]:
    """Identify the SSS group of a demodulated burst with PSS sector `n2`.

    The SSS symbol (two symbols after the PSS) is equalized with the channel
    estimate taken from the PSS resource elements (per-RE least squares,
    flattened across the symbol, which averages the estimation noise down),
    then correlated against all 336 group hypotheses of the sector.

    Returns:
        (n1, normalized metric of the winning hypothesis).
    """
    sync = slice(SYNC_FIRST_SUBCARRIER, SYNC_FIRST_SUBCARRIER + SYNC_SEQ_LEN)
    chan = np.mean(grid.data[0, sync] * _pss_sequence(n2))  # LS per RE, then flat
    equalized = grid.data[2, sync] * np.conj(chan)
    scores = np.abs(_sss_bank(n2) @ equalized)
    denom = np.linalg.norm(equalized) * np.sqrt(SYNC_SEQ_LEN)
    n1 = int(np.argmax(scores))
    metric = float(scores[n1] / denom) if denom > 0 else 0.0
    return n1, metric


def identify_ssb_index(grid: ResourceGrid, cell_id: CellId) -> tuple[int, float]:
    """Pick the SSB index whose DM-RS best matches the demodulated grid.

    Returns:
        (i_ssb_bar, normalized metric of the winning hypothesis).
    """
    mask = ssb_layout(cell_id.cell)["dmrs"]
    observed = grid.data[mask]
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
    staged: list[tuple[PssCandidate, ResourceGrid, float]] = []
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
