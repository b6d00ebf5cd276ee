"""Frequency-sweep channel-sounding post-processing.

Covers the sweep-to-delay-domain transform with windowing, PDP extraction,
pilot-based phase-drift compensation, virtual-array delay-and-sum angle of
arrival mapping with optional antenna-pattern de-embedding.

The delay transform, a chirp-z transform, reads one cached table per window,
pad factor and sweep length, _delay_table, shared by sweep_to_cir and the
AoA map: the chirp, the spectrum of its conjugate and the window weights.

The AoA map runs its blocks of angles, and then its conversion to dB, on
worker threads, one per usable CPU (at most types.MAX_WORKERS), sharing
AOA_ANGLE_BLOCK angles in flight; numpy's FFT and ufunc loops release the
GIL. Each call starts its threads and joins them before it returns, and the
map does not depend on how many ran.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .types import _median, _run_slices, _worker_count

SPEED_OF_LIGHT = 299792458.0
PATTERN_MASK_DB = -30.0  # below this gain an angle is flagged invalid, not divided
AOA_ANGLE_BLOCK = 16  # angles in flight at once, shared among the worker threads

_WINDOWS: dict[str, Callable[[int], np.ndarray]] = {
    "rectangular": np.ones,
    "hann": np.hanning,
    "hamming": np.hamming,
}


@dataclass
class FrequencySweep:
    """One frequency sweep H(f) on a uniform grid, with optional pilot channel."""

    freqs: np.ndarray
    h: np.ndarray
    pilot: np.ndarray | None = None

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.freqs.ndim != 1 or self.freqs.size < 2:
            raise ValueError("sweep needs at least 2 frequency points")
        if self.h.shape != self.freqs.shape:
            raise ValueError("freqs and h lengths differ")
        if not np.all(np.isfinite(self.freqs)):
            raise ValueError("sweep contains non-finite frequencies")
        steps = np.diff(self.freqs)
        if np.any(steps <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ValueError("frequency grid is not uniform")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("sweep contains non-finite responses")
        if self.pilot is not None:
            self.pilot = np.asarray(self.pilot)
            if self.pilot.shape != self.freqs.shape:
                raise ValueError("pilot length differs from freqs")
            if not np.all(np.isfinite(self.pilot)):
                raise ValueError("pilot contains non-finite values")

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass
class Cir:
    """Delay-domain impulse response with its bin metadata."""

    taps: np.ndarray
    delay_resolution: float
    max_delay: float
    flags: tuple[str, ...] = ()

    @property
    def delays(self) -> np.ndarray:
        return np.arange(self.taps.size) * self.delay_resolution


@dataclass
class Pdp:
    """Power delay profile normalized to a 0 dB peak."""

    delays: np.ndarray
    power_db: np.ndarray
    noise_floor_db: float


@dataclass
class AntennaPattern:
    """Complex element gain versus angle, interpolated linearly in angle."""

    angles_deg: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        self.angles_deg = np.asarray(self.angles_deg, dtype=np.float64)
        self.gain = np.asarray(self.gain, dtype=np.complex128)
        if self.angles_deg.ndim != 1 or self.angles_deg.size < 2:
            raise ValueError("pattern needs at least 2 angle points")
        if not (np.isfinite(self.angles_deg).all() and np.isfinite(self.gain).all()):
            raise ValueError("pattern angles and gains must be finite")
        if np.any(np.diff(self.angles_deg) <= 0):
            raise ValueError("pattern angles must be strictly increasing")
        if self.gain.shape != self.angles_deg.shape:
            raise ValueError("pattern gain length differs from angles")

    def gain_at(self, angles_deg: np.ndarray) -> np.ndarray:
        if not (np.min(angles_deg) >= self.angles_deg[0]
                and np.max(angles_deg) <= self.angles_deg[-1]):
            raise ValueError("pattern table does not cover the requested angles")
        re = np.interp(angles_deg, self.angles_deg, self.gain.real)
        im = np.interp(angles_deg, self.angles_deg, self.gain.imag)
        return re + 1j * im


@dataclass
class VirtualArrayScan:
    """Per-element sweeps of a repositioned antenna plus optional pattern."""

    element_positions: np.ndarray
    sweeps: list[FrequencySweep]
    pattern: AntennaPattern | None = None
    compensate_pattern: bool = False

    def __post_init__(self):
        self.element_positions = np.asarray(self.element_positions, dtype=np.float64)
        if self.element_positions.ndim != 2 or self.element_positions.shape[1] != 3:
            raise ValueError("element_positions must have shape (n_elements, 3)")
        if not np.isfinite(self.element_positions).all():
            raise ValueError("element_positions must be finite")
        if len(self.sweeps) != self.element_positions.shape[0]:
            raise ValueError(
                f"one sweep per element position required: got {len(self.sweeps)} sweeps "
                f"for {self.element_positions.shape[0]} elements"
            )
        if len(self.sweeps) < 1:
            raise ValueError("scan needs at least one element")
        f0 = self.sweeps[0].freqs
        for s in self.sweeps[1:]:
            if s.freqs.shape != f0.shape or np.any(s.freqs != f0):
                raise ValueError("all sweeps must share the frequency grid")
        if self.compensate_pattern and self.pattern is None:
            raise ValueError("pattern compensation needs a scan with an antenna pattern")

    @property
    def freqs(self) -> np.ndarray:
        return self.sweeps[0].freqs


@dataclass
class AoaDelayProfile:
    """Angle-by-delay power map in dB, normalized to a 0 dB global peak."""

    angles_deg: np.ndarray
    delays: np.ndarray
    power_db: np.ndarray
    valid: np.ndarray


@lru_cache(maxsize=8)
def _delay_table(
    window: str, pad_factor: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The delay transform's table over n points, read-only and kept for the
    next call with the same arguments: with n_fft = pad_factor * n, the chirp
    c_k = exp(j*pi*k^2/n_fft), k < n_fft; the spectrum of its conjugate at
    the power-of-two length L >= n + n_fft - 1; and the weights
    chirp[:n] * w / (mean(w) * n) of the window w.

    With ik = (i^2 + k^2 - (k-i)^2)/2, sum_i x_i exp(+j*2*pi*ik/n_fft) is
    c_k * sum_i (x_i c_i) conj(c_{k-i}): a linear convolution, done as a
    circular one of length L (Rabiner, Schafer and Rader, 1969). k^2 is
    reduced modulo 2*n_fft, the chirp's period, before it is scaled, so the
    phase stays exact for large k.

    Rejects an unknown window, a pad factor below 1, and a window whose
    coherent gain over n points is zero (Hann over 2 points is [0, 0]); a
    rejection is not kept, so it raises again on every call.
    """
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {sorted(_WINDOWS)}, got {window!r}")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
    w = _WINDOWS[window](n)
    if not w.any():
        raise ValueError(
            f"a {window} window over {n} points is all zeros; "
            "the sweep needs more points or another window"
        )
    n_fft = pad_factor * n
    length = 1 << (n + n_fft - 2).bit_length()
    k = np.arange(n_fft, dtype=np.int64)
    chirp = np.exp(1j * np.pi * ((k * k) % (2 * n_fft)) / n_fft)
    conj = np.zeros(length, dtype=np.complex128)
    conj[:n_fft] = chirp.conj()
    conj[length - n + 1:] = chirp[n - 1:0:-1].conj()
    spectrum = np.fft.fft(conj)
    weights = chirp[:n] * (w / (w.mean() * n))
    for table in (chirp, spectrum, weights):
        table.setflags(write=False)
    return chirp, spectrum, weights


def _delay_taps(h: np.ndarray, window: str, pad_factor: int) -> np.ndarray:
    """Windowed, zero-padded inverse transform along the last axis.

    Returns the n_fft = pad_factor*n values (1/n) sum_i x_i exp(+j*2*pi*ik/n_fft)
    of the window-compensated responses x, by a chirp-z transform, so the
    cost follows a power-of-two FFT whatever the factors of n_fft.
    """
    chirp, spectrum, weights = _delay_table(window, pad_factor, h.shape[-1])
    conv = np.fft.fft(h * weights, spectrum.size)
    conv *= spectrum
    np.fft.ifft(conv, out=conv)
    return conv[..., :chirp.size] * chirp


def sweep_to_cir(
    sweep: FrequencySweep, window: str = "hann", pad_factor: int = 4
) -> Cir:
    """Inverse-transform a windowed sweep to the delay domain.

    The window is compensated by its coherent gain and the transform is
    scaled so an on-grid unit-amplitude path produces a unit-magnitude tap.
    Zero padding by pad_factor refines the delay sampling to
    1/(pad_factor*N*df) without adding resolution.
    """
    taps = _delay_taps(sweep.h, window, pad_factor)
    return Cir(
        taps=taps,
        delay_resolution=1.0 / (taps.size * sweep.df),
        max_delay=1.0 / sweep.df,
    )


def cir_to_pdp(cir: Cir) -> Pdp:
    """Normalize a CIR to a 0 dB-peak power delay profile.

    The noise floor is the median tap power over the upper half of the delay
    axis, debiased by 1/ln(2) so it estimates the mean power of Rayleigh
    noise rather than its median.
    """
    mag = np.abs(cir.taps)
    peak = mag.max()
    if peak == 0:
        raise ValueError("all-zero impulse response")
    with np.errstate(divide="ignore"):
        power_db = 20.0 * np.log10(mag / peak)
    median_db = _median(power_db[mag.size // 2:])
    noise_floor = median_db - 10.0 * np.log10(np.log(2.0))
    return Pdp(delays=cir.delays, power_db=power_db, noise_floor_db=noise_floor)


def compensate_phase(sweep: FrequencySweep) -> FrequencySweep:
    """Remove the common per-point phase drift measured by the pilot channel.

    h'(f_i) = h(f_i) * conj(pilot(f_i)) / |pilot(f_i)|, which cancels any
    phase common to both paths (fibre flex, temperature) while preserving
    the magnitude of h. The returned pilot is reduced to its magnitude.
    """
    if sweep.pilot is None:
        raise ValueError("sweep has no pilot channel")
    pilot = np.asarray(sweep.pilot, dtype=np.complex128)
    mag = np.abs(pilot)
    if np.any(mag == 0):
        raise ValueError("pilot contains zeros; phase reference undefined")
    return FrequencySweep(
        freqs=sweep.freqs,
        h=sweep.h * np.conj(pilot) / mag,
        pilot=mag,
    )


def deembed_pattern(scan: VirtualArrayScan) -> VirtualArrayScan:
    """Mark a scan for antenna-pattern compensation during beamforming.

    The division itself is a per-angle-hypothesis operation, so it happens
    inside aoa_delay_profile: each beamformed response is divided by the
    complex pattern gain at its hypothesis angle, and angles whose gain
    magnitude falls below the mask threshold are flagged invalid instead of
    being amplified. A scan without a pattern is rejected when the marked
    copy is built.
    """
    return dataclasses.replace(scan, compensate_pattern=True)


def _unit_vectors(angles_deg: np.ndarray) -> np.ndarray:
    """Arrival directions in the scan plane: 0 deg is broadside (+y), +x at 90."""
    rad = np.deg2rad(angles_deg)
    return np.stack([np.sin(rad), np.cos(rad), np.zeros_like(rad)], axis=1)


def _beamform(padded: np.ndarray, steps: tuple, tau: np.ndarray, work: tuple) -> np.ndarray:
    """sum_m h[m, i] * exp(+j*2*pi*f_i*tau[m, a]) for a block of angles,
    (n_angle, n_coarse*B); the columns from n on are zero.

    On the uniform grid f_i = f_(cB) + j*df, with B = ceil(sqrt(n)) and
    j < B, the steering phase factors into exp(j*2*pi*f_(cB)*tau) times
    exp(j*2*pi*j*df*tau), so each element and angle takes n/B + B
    exponentials instead of n. padded holds h zero-padded to
    (n_elem, n_coarse, B), and steps is (f_(cB), j*df). work holds the
    coarse and fine exponentials and the sum and its scratch term, for at
    least n_angle angles; the result is a view of the sum.
    """
    n_elem, n_angle = tau.shape
    coarse, fine = (w[:, :n_angle] for w in work[:2])
    combined, term = (w[:n_angle] for w in work[2:])
    phase = 2j * np.pi * tau[:, :, None]
    for out, step_freqs in zip((coarse, fine), steps):
        np.exp(np.multiply(phase, step_freqs, out=out), out=out)
    # one element at a time into one (n_angle, n_coarse, B) sum, so no
    # (n_elem, n_angle, n) steering tensor is formed
    combined.fill(0)
    for m in range(n_elem):
        np.multiply(fine[m, :, None, :], padded[m], out=term)
        term *= coarse[m, :, :, None]
        combined += term
    return combined.reshape(n_angle, -1)


def _aoa_block(rows: slice, worker: int, spaces, padded, steps, n, delays_m, gains,
               spectrum, power) -> None:
    """Beamform and delay-transform one block of valid angles (a slice of
    contiguous rows of power) over the n sweep points, and write the tap
    magnitudes into those rows.

    spaces[worker] is this worker's _beamform buffers plus one (block, L)
    complex buffer for the chirp convolution of length L, transformed in
    place, so a worker allocates no sum- or FFT-sized array; only the
    block's delays and steering phases.
    """
    *beam, conv = spaces[worker]
    k = rows.stop - rows.start
    x = _beamform(padded, steps, delays_m[:, rows], beam)[:, :n]
    if gains is not None:
        x /= gains[rows, None]
    np.fft.fft(x, spectrum.size, out=conv[:k])
    conv[:k] *= spectrum
    np.fft.ifft(conv[:k], out=conv[:k])
    np.abs(conv[:k, :power.shape[1]], out=power[rows])


def _to_db(rows: slice, worker: int, power: np.ndarray, peak: float) -> None:
    """20*log10(power / peak) in place, on rows of power; a zero reads -inf."""
    block = power[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        block /= peak
        np.log10(block, out=block)
        block *= 20.0


def aoa_delay_profile(
    scan: VirtualArrayScan,
    angle_grid_deg: np.ndarray,
    window: str = "hann",
    pad_factor: int = 4,
) -> AoaDelayProfile:
    """Delay-and-sum beamforming over an angle grid, then delay transform per angle.

    For each hypothesis angle the element responses are aligned with steering
    phases exp(+j*2*pi*f*(r_m . u(angle))/c) and summed; the combined
    response goes through the same windowed delay transform as sweep_to_cir
    and its magnitude fills that angle's row of the map, which is globally
    normalized to a 0 dB peak. With pattern compensation, angles whose
    pattern gain is below PATTERN_MASK_DB are flagged invalid and left NaN.

    The window weights the element responses once, before the (linear)
    element sum, and the transform's final chirp is skipped, since only
    magnitudes are kept.

    The valid angles are split over worker threads, one per CPU the process
    may run on, capped at the number of AOA_ANGLE_BLOCK blocks and at
    types.MAX_WORKERS. The AOA_ANGLE_BLOCK angles in flight are shared among
    the workers, so peak memory does not grow with the core count: each takes
    the next block of at most AOA_ANGLE_BLOCK // workers adjacent valid
    angles from a shared queue, so a worker on a busy core takes fewer. A
    worker writes only its blocks' rows of the map, in a workspace allocated
    here, once per call. After the map's global peak is found, the same
    workers convert it to dB in place, AOA_ANGLE_BLOCK rows at a time. A
    row's values do not depend on the worker count.
    """
    angles = np.asarray(angle_grid_deg, dtype=np.float64)
    if angles.ndim != 1 or angles.size < 1:
        raise ValueError("angle grid must be a non-empty 1-D array")
    _, spectrum, weights = _delay_table(window, pad_factor, scan.freqs.size)
    if scan.element_positions.shape[0] < 2:
        raise ValueError("beamforming needs at least 2 elements")

    gains = None
    valid = np.ones(angles.size, dtype=bool)
    if scan.compensate_pattern:
        gains = scan.pattern.gain_at(angles)
        valid = np.abs(gains) >= 10.0 ** (PATTERN_MASK_DB / 20.0)
        if not valid.any():
            raise ValueError("every angle fell below the pattern mask")

    freqs = scan.freqs
    n_elem, n = len(scan.sweeps), freqs.size
    step = math.isqrt(n - 1) + 1
    n_coarse = -(-n // step)
    padded = np.zeros((n_elem, n_coarse, step), dtype=np.complex128)
    np.multiply(np.stack([s.h for s in scan.sweeps]), weights,
                out=padded.reshape(n_elem, -1)[:, :n])
    steps = (freqs[::step], (freqs[-1] - freqs[0]) / (n - 1) * np.arange(step))
    directions = _unit_vectors(angles)  # (n_angle, 3)
    delays_m = scan.element_positions @ directions.T / SPEED_OF_LIGHT  # (n_elem, n_angle)

    n_fft = pad_factor * n
    power = np.empty((angles.size, n_fft))  # the workers write every valid row
    power[~valid] = np.nan
    workers = _worker_count(-(-int(valid.sum()) // AOA_ANGLE_BLOCK))
    block = AOA_ANGLE_BLOCK // workers
    # each run of valid angles in blocks of at most `block`, so no block spans a masked one
    runs = np.flatnonzero(np.diff(valid, prepend=False, append=False)).reshape(-1, 2)
    blocks = [slice(s, min(s + block, stop)) for start, stop in runs
              for s in range(start, stop, block)]
    shapes = ((n_elem, block, n_coarse), (n_elem, block, step), (block, n_coarse, step),
              (block, n_coarse, step), (block, spectrum.size))
    spaces = [tuple(np.empty(shape, np.complex128) for shape in shapes) for _ in range(workers)]
    _run_slices(partial(_aoa_block, spaces=spaces, padded=padded, steps=steps, n=n,
                        delays_m=delays_m, gains=gains, spectrum=spectrum, power=power),
                blocks, workers)
    # Freed here rather than on return, the workspaces kept the peak RSS of
    # the bench's chamber job about 3 MB lower (glibc's heap).
    del spaces

    row_blocks = [slice(s, s + AOA_ANGLE_BLOCK) for s in range(0, angles.size, AOA_ANGLE_BLOCK)]
    _run_slices(partial(_to_db, power=power, peak=np.nanmax(power)), row_blocks, workers)
    delays = np.arange(n_fft) * (1.0 / (n_fft * float(freqs[1] - freqs[0])))
    return AoaDelayProfile(angles_deg=angles, delays=delays, power_db=power, valid=valid)
