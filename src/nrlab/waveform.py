"""SSB resource-grid mapping and CP-OFDM conversion between grid and samples.

A grid is a plain (symbols, subcarriers) complex array; ssb_layout gives the
positions of each signal class in an SSB grid.
"""
from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from .sequences import gen_gold, gen_pbch_dmrs, gen_pss, gen_sss, qpsk_from_bits
from .types import (
    N_SSB_SUBCARRIERS,
    N_SSB_SYMBOLS,
    SYNC_BAND,
    IqCapture,
    OfdmParams,
    SsbConfig,
)

PBCH_PLACEHOLDER_BITS = 864  # 432 QPSK data symbols


def ssb_layout(cell: int) -> dict[str, np.ndarray]:
    """Boolean occupancy masks of one SSB for each signal class.

    This is the one source of the class positions in an SSB grid. The DM-RS
    comb offset is cell mod 4; PBCH data cells are the PBCH region minus the
    DM-RS comb. Masks share the 4 x 240 grid shape. They are built once per
    comb offset and are read-only; each call returns a new dict.
    """
    if not 0 <= cell <= 1007:
        raise ValueError(f"cell must be in 0..1007, got {cell}")
    return dict(_layout_masks(cell % 4))


@lru_cache(maxsize=4)
def _layout_masks(comb_offset: int) -> dict[str, np.ndarray]:
    """The read-only masks behind ssb_layout for one DM-RS comb offset."""
    shape = (N_SSB_SYMBOLS, N_SSB_SUBCARRIERS)
    pss = np.zeros(shape, dtype=bool)
    pss[0, SYNC_BAND] = True
    sss = np.zeros(shape, dtype=bool)
    sss[2, SYNC_BAND] = True

    region = np.zeros(shape, dtype=bool)
    region[1, :] = True
    region[3, :] = True
    region[2, :48] = True
    region[2, 192:] = True

    dmrs = np.zeros(shape, dtype=bool)
    comb = np.arange(comb_offset, N_SSB_SUBCARRIERS, 4)
    dmrs[1, comb] = True
    dmrs[3, comb] = True
    dmrs[2, comb[(comb < 48) | (comb >= 192)]] = True

    masks = {"pss": pss, "sss": sss, "dmrs": dmrs, "pbch": region & ~dmrs}
    for mask in masks.values():
        mask.setflags(write=False)
    return masks


def map_ssb(cfg: SsbConfig) -> np.ndarray:
    """Map one SSB into a fresh 4 x 240 complex grid.

    PBCH data cells carry a deterministic placeholder QPSK filler scrambled
    by the cell identity; every occupied resource element ends up with power
    cfg.re_power and unoccupied cells are exact zeros.
    """
    layout = ssb_layout(cfg.cell_id.cell)
    data = np.zeros((N_SSB_SYMBOLS, N_SSB_SUBCARRIERS), dtype=np.complex128)
    data[layout["pss"]] = gen_pss(cfg.cell_id.n2)
    data[layout["sss"]] = gen_sss(cfg.cell_id.n1, cfg.cell_id.n2)
    data[layout["dmrs"]] = gen_pbch_dmrs(cfg.cell_id, cfg.i_ssb_bar)
    data[layout["pbch"]] = qpsk_from_bits(
        gen_gold(cfg.cell_id.cell, 0, PBCH_PLACEHOLDER_BITS)
    )
    data *= np.sqrt(cfg.re_power)
    return data


def ofdm_modulate(grid: np.ndarray, params: OfdmParams) -> IqCapture:
    """CP-OFDM modulate a (symbols, subcarriers) grid, one symbol per row.

    Each row is centered in the transform bins and sent through a unitary
    inverse FFT, so with cp_len = 0 the time-domain energy equals the grid
    energy exactly (scale constant 1.0); the cyclic prefix prepends a copy of
    the symbol tail.

    Raises:
        ValueError: the grid is not 2-D, or is wider than the FFT.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {grid.shape}")
    n_sym, n_sc = grid.shape
    spectrum = np.zeros((n_sym, params.fft_size), dtype=np.complex128)
    spectrum[:, _subcarrier_bins(n_sc, params.fft_size)] = grid
    body = np.fft.ifft(spectrum, axis=1, norm="ortho")
    sym = np.concatenate([body[:, params.fft_size - params.cp_len:], body], axis=1)
    return IqCapture(sym.reshape(-1), sample_rate=params.sample_rate)


def ofdm_demodulate(
    capture: IqCapture,
    params: OfdmParams,
    symbol_start: int = 0,
    n_symbols: int | None = None,
) -> np.ndarray:
    """Inverse of ofdm_modulate: strip CPs, forward-transform, extract center bins.

    Args:
        capture: input samples.
        params: numerology used at modulation.
        symbol_start: sample index of the first symbol (its CP).
        n_symbols: symbols to demodulate; None takes every full symbol that fits.

    Returns:
        The (n_symbols, 240) complex grid.

    Raises:
        ValueError: fewer samples available than the requested symbols need.
    """
    bins = _subcarrier_bins(N_SSB_SUBCARRIERS, params.fft_size)
    x = capture.samples
    if symbol_start < 0:
        raise ValueError(f"symbol_start must be >= 0, got {symbol_start}")
    available = (x.size - symbol_start) // params.symbol_len
    if n_symbols is None:
        n_symbols = available
    if n_symbols < 1 or n_symbols > available:
        raise ValueError(
            f"capture holds {max(available, 0)} full symbols from sample "
            f"{symbol_start}, requested {n_symbols}"
        )
    seg = x[symbol_start:symbol_start + n_symbols * params.symbol_len]
    return _demodulate_symbols(seg, params, n_symbols, bins)


@lru_cache(maxsize=8)
def _subcarrier_bins(n_subcarriers: int, fft_size: int) -> np.ndarray:
    """Read-only transform bins of n_subcarriers centered subcarriers: where
    ofdm_modulate places them and the demodulators take them from.

    Raises:
        ValueError: the transform is narrower than the subcarriers.
    """
    if fft_size < n_subcarriers:
        raise ValueError(
            f"fft_size {fft_size} smaller than grid width {n_subcarriers}"
        )
    bins = (np.arange(n_subcarriers) - n_subcarriers // 2) % fft_size
    bins.setflags(write=False)
    return bins


def _demodulate_symbols(
    seg: np.ndarray, params: OfdmParams, n_symbols: int, bins: np.ndarray
) -> np.ndarray:
    """Strip the CPs of n_symbols whole symbols, forward-transform them in
    one call and keep the given bins."""
    sym = seg.reshape(n_symbols, params.symbol_len)[:, params.cp_len:]
    spectrum = np.fft.fft(sym, axis=1, norm="ortho")
    return spectrum[:, bins]


def ssb_waveform(cfg: SsbConfig, params: OfdmParams) -> np.ndarray:
    """Time-domain samples of a single SSB (4 OFDM symbols with CPs)."""
    return ofdm_modulate(map_ssb(cfg), params).samples


def synthesize_bursts(
    cfg: SsbConfig,
    params: OfdmParams,
    lead_in: int = 1000,
    tail: int = 1000,
) -> IqCapture:
    """Place a burst set into an otherwise silent capture.

    Burst k starts at lead_in + k*burst_period and carries SSB index
    (cfg.i_ssb_bar + k) mod l_max, so an 8-burst set starting at index 0
    walks through all eight indices. Each distinct SSB index is modulated
    once per call and copied into every burst that carries it.

    Raises:
        ValueError: lead_in or tail is negative, or burst_period is shorter
            than one SSB.
    """
    for name, value in (("lead_in", lead_in), ("tail", tail)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0 samples, got {value}")
    ssb_len = N_SSB_SYMBOLS * params.symbol_len
    if cfg.burst_count > 1 and cfg.burst_period < ssb_len:
        raise ValueError(
            f"burst_period {cfg.burst_period} shorter than one SSB ({ssb_len} samples)"
        )
    span = ssb_len if cfg.burst_count else 0
    total = lead_in + max(cfg.burst_count - 1, 0) * cfg.burst_period + span + tail
    out = np.zeros(total, dtype=np.complex128)
    waveforms: dict[int, np.ndarray] = {}
    for k in range(cfg.burst_count):
        index = (cfg.i_ssb_bar + k) % cfg.l_max
        if index not in waveforms:
            waveforms[index] = ssb_waveform(dataclasses.replace(cfg, i_ssb_bar=index), params)
        start = lead_in + k * cfg.burst_period
        out[start:start + ssb_len] = waveforms[index]
    return IqCapture(out, sample_rate=params.sample_rate)
