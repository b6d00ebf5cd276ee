"""Reference AoA-delay map: one FrequencySweep and one Cir per angle.

This is the per-angle form of nrlab.sounding.aoa_delay_profile: every
hypothesis angle's beamformed response is wrapped in a FrequencySweep, sent
through the windowed delay transform on its own, kept as a row (None for an
angle below the pattern mask) and copied into a NaN-filled map in a second
pass. The tests compare the library's one-pass map against it.
"""
import numpy as np

from nrlab.sounding import (
    PATTERN_MASK_DB,
    SPEED_OF_LIGHT,
    AoaDelayProfile,
    Cir,
    FrequencySweep,
    _unit_vectors,
)

_WINDOWS = {"rectangular": np.ones, "hann": np.hanning, "hamming": np.hamming}


def reference_sweep_to_cir(sweep, window="hann", pad_factor=4):
    """Window / coherent gain, zero-padded inverse FFT, n_fft/n scale."""
    n = sweep.h.size
    w = _WINDOWS[window](n)
    windowed = sweep.h * w / w.mean()
    n_fft = pad_factor * n
    taps = np.fft.ifft(windowed, n_fft) * (n_fft / n)
    return Cir(
        taps=taps,
        delay_resolution=1.0 / (n_fft * sweep.df),
        max_delay=1.0 / sweep.df,
    )


def reference_aoa_delay_profile(scan, angle_grid_deg, window="hann", pad_factor=4):
    """The per-angle map: rows stacked after the loop, masked rows NaN."""
    angles = np.asarray(angle_grid_deg, dtype=np.float64)
    freqs = scan.freqs
    h = np.stack([s.h for s in scan.sweeps])
    directions = _unit_vectors(angles)
    delays_m = scan.element_positions @ directions.T / SPEED_OF_LIGHT

    gains = None
    if scan.compensate_pattern:
        gains = scan.pattern.gain_at(angles)
    mask_lin = 10.0 ** (PATTERN_MASK_DB / 20.0)

    rows = []
    valid = np.ones(angles.size, dtype=bool)
    delays_axis = None
    for a in range(angles.size):
        steering = np.exp(2j * np.pi * freqs[None, :] * delays_m[:, a, None])
        combined = (h * steering).sum(axis=0)
        if gains is not None:
            if np.abs(gains[a]) < mask_lin:
                valid[a] = False
                rows.append(None)
                continue
            combined = combined / gains[a]
        cir = reference_sweep_to_cir(
            FrequencySweep(freqs, combined), window=window, pad_factor=pad_factor
        )
        delays_axis = cir.delays
        rows.append(np.abs(cir.taps))

    power = np.full((angles.size, delays_axis.size), np.nan)
    for a, row in enumerate(rows):
        if row is not None:
            power[a] = row
    peak = np.nanmax(power)
    with np.errstate(divide="ignore", invalid="ignore"):
        power_db = 20.0 * np.log10(power / peak)
    return AoaDelayProfile(
        angles_deg=angles, delays=delays_axis, power_db=power_db, valid=valid
    )
