"""OTA test-environment simulation.

Wireless-cable calibration (transfer-matrix estimation from magnitude-only
RSRP soundings and its inversion), reverberation-chamber exponential-decay /
keyhole fading with seeded draws, regularized deconvolution of the chamber
response, and tapped-delay-line channel application to captures.

apply_channel convolves a capture in chunks of CHANNEL_CHUNK output samples
on worker threads, one per usable CPU (at most types.MAX_WORKERS); np.convolve
releases the GIL. Each call starts its threads and joins them before it
returns, and the output does not depend on how many ran.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .sounding import Cir
from .types import IqCapture, _median, _run_slices, _worker_count

ALLOWED_PORT_COUNTS = (2, 4, 8)
CONDITION_CAP = 1e6
RANDOM_CONDITION_LIMIT = 8.0
ISOLATION_CAP_DB = 100.0
# Output of cancel_rc_decay is flagged when its out-of-peak floor (median of
# the upper-half delay bins) relative to the peak exceeds this bound.
NOISE_AMPLIFICATION_FLOOR_DB = -20.0
_SOUNDING_PHASES = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
# Output samples per chunk of apply_channel's convolution (128 KiB): small, so
# that the workers' chunk buffers add no peak memory to a long capture.
CHANNEL_CHUNK = 1 << 13


@dataclass
class TransferMatrix:
    """Complex coupling matrix between probe ports and DUT ports."""

    a: np.ndarray
    condition_number: float = field(init=False)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.complex128)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"transfer matrix must be square, got {self.a.shape}")
        if self.a.shape[0] not in ALLOWED_PORT_COUNTS:
            raise ValueError(
                f"port count must be one of {ALLOWED_PORT_COUNTS}, got {self.a.shape[0]}"
            )
        if not np.all(np.isfinite(self.a)):
            raise ValueError("transfer matrix contains non-finite entries")
        self.condition_number = float(np.linalg.cond(self.a))

    @property
    def n_ports(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class RcChannelModel:
    """Reverberation-chamber tapped-delay model with exponential mean decay."""

    tau_rc: float
    n_taps: int
    tap_spacing: float
    keyhole: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tau_rc < np.inf:
            raise ValueError(f"tau_rc must be finite and > 0, got {self.tau_rc}")
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        if not 0 < self.tap_spacing < np.inf:
            raise ValueError(f"tap_spacing must be finite and > 0, got {self.tap_spacing}")
        # (n_taps - 1) * tap_spacing overflows; an int compared with a float
        # raises nothing, however large n_taps is
        if self.n_taps - 1 > sys.float_info.max / self.tap_spacing:
            raise ValueError(
                f"the last tap's delay (n_taps - 1) * tap_spacing must be finite, got "
                f"{self.n_taps - 1} * {self.tap_spacing}"
            )


@dataclass
class FadingRealization:
    """One drawn set of (delay, complex gain) taps."""

    delays: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=np.float64)
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        if self.delays.shape != self.gains.shape or self.delays.ndim != 1:
            raise ValueError("delays and gains must be matching 1-D arrays")
        if not (np.isfinite(self.delays).all() and np.isfinite(self.gains).all()):
            raise ValueError("delays and gains must be finite")
        if self.delays.size and self.delays[0] < 0:
            raise ValueError("delays must be nonnegative")
        if np.any(np.diff(self.delays) <= 0):
            raise ValueError("delays must be strictly increasing")


def random_well_conditioned(n_ports: int, rng=None) -> TransferMatrix:
    """Draw a random transfer matrix with condition number below
    RANDOM_CONDITION_LIMIT.

    Built as U diag(s) V* with Haar-ish unitaries from QR factorizations and
    singular values uniform in [1/RANDOM_CONDITION_LIMIT, 1].
    """
    gen = np.random.default_rng(rng)

    def unitary() -> np.ndarray:
        z = gen.standard_normal((n_ports, n_ports)) + 1j * gen.standard_normal(
            (n_ports, n_ports)
        )
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    s = gen.uniform(1.0 / RANDOM_CONDITION_LIMIT, 1.0, size=n_ports)
    s[0] = 1.0
    return TransferMatrix(unitary() @ np.diag(s) @ unitary().conj().T)


def sound_rsrp(
    a: TransferMatrix,
    tx_weights: np.ndarray,
    noise_db: float | None = None,
    rng=None,
) -> np.ndarray:
    """Per-DUT-port received power for one probe excitation.

    RSRP_j = |sum_i a_ji w_i|^2 with complex noise injected before the
    magnitude at noise_db below the mean port power; phase is discarded, as
    a real DUT report would.
    """
    w = np.asarray(tx_weights, dtype=np.complex128)
    if w.shape != (a.n_ports,):
        raise ValueError(
            f"weight vector length {w.shape} does not match {a.n_ports} ports"
        )
    if noise_db is not None and not np.isfinite(noise_db):
        raise ValueError(f"noise_db must be finite or None, got {noise_db}")
    y = a.a @ w
    if noise_db is not None:
        gen = np.random.default_rng(rng)
        sigma2 = float(np.mean(np.abs(y) ** 2)) * 10.0 ** (-noise_db / 10.0)
        noise = gen.standard_normal(y.size) + 1j * gen.standard_normal(y.size)
        y = y + np.sqrt(sigma2 / 2.0) * noise
    return np.abs(y) ** 2


def make_rsrp_sounder(
    a: TransferMatrix, noise_db: float | None = None, rng=None
) -> Callable[[np.ndarray], np.ndarray]:
    """Bind a transfer matrix (and noise state) into a sounding callable."""
    gen = np.random.default_rng(rng)

    def sounder(tx_weights: np.ndarray) -> np.ndarray:
        return sound_rsrp(a, tx_weights, noise_db=noise_db, rng=gen)

    return sounder


def estimate_transfer_matrix(
    sounder: Callable[[np.ndarray], np.ndarray], n_ports: int
) -> TransferMatrix:
    """Recover the transfer matrix from magnitude-only soundings.

    Entry magnitudes come from single-probe excitations. Relative phases per
    row come from three-point soundings of probe 1 together with probe i at
    relative phases 0/120/240 degrees: RSRP_j(phi) = |a_j1|^2 + |a_ji|^2 +
    2|a_j1||a_ji|cos(phi + psi) is fitted in closed form (single-bin DFT over
    the three points) for psi = arg(a_ji) - arg(a_j1). Column 1 is the phase
    reference, so the estimate equals the truth up to one phase per row.

    Raises:
        ValueError: a DUT port couples to several probes but not measurably
            to the reference probe, making its row phases unrecoverable.
    """
    eye = np.eye(n_ports, dtype=np.complex128)
    mags = np.empty((n_ports, n_ports))
    for i in range(n_ports):
        mags[:, i] = np.sqrt(np.clip(sounder(eye[i]), 0.0, None))

    tol = 1e-6 * mags.max()
    for j in range(n_ports):
        if mags[j, 0] <= tol and np.count_nonzero(mags[j] > tol) >= 2:
            raise ValueError(
                f"reference probe 1 is degenerate for DUT port {j + 1} "
                "(no measurable coupling); re-sound with a different reference probe"
            )

    est = mags.astype(np.complex128)
    for i in range(1, n_ports):
        responses = np.stack(
            [sounder(eye[0] + np.exp(1j * phi) * eye[i]) for phi in _SOUNDING_PHASES]
        )
        spin = np.exp(-1j * np.asarray(_SOUNDING_PHASES))
        z = spin @ responses  # per row j: (3B/2) * exp(j*psi_j_i)
        est[:, i] = mags[:, i] * np.exp(1j * np.angle(z))
    return TransferMatrix(est)


def compute_calibration(a: TransferMatrix) -> np.ndarray:
    """Inverse of the transfer matrix; a*C is the effective channel.

    Raises:
        ValueError: singular or with condition number above CONDITION_CAP,
            beyond which the wireless-cable premise fails physically.
    """
    if not np.isfinite(a.condition_number) or a.condition_number > CONDITION_CAP:
        raise ValueError(
            f"transfer matrix too ill-conditioned to calibrate: condition number "
            f"{a.condition_number:.3e} exceeds cap {CONDITION_CAP:.1e}"
        )
    return np.linalg.inv(a.a)


def isolation_db(t: np.ndarray) -> float:
    """Worst-row isolation of an effective channel matrix in dB.

    Per row: 10*log10(|t_ii|^2 / sum_{j != i} |t_ij|^2), capped at
    ISOLATION_CAP_DB when the off-diagonal power underflows; a zero diagonal
    entry yields -inf as the fail value.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"effective matrix must be square, got {t.shape}")
    power = np.abs(t) ** 2
    diag = np.diag(power)
    off = power.sum(axis=1) - diag
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = 10.0 * np.log10(diag / off)
    rows[diag == 0.0] = -np.inf
    return float(np.minimum(rows, ISOLATION_CAP_DB).min())


def simulate_rc_channel(model: RcChannelModel) -> FadingRealization:
    """Draw one seeded fading realization from the chamber model.

    Tap k sits at k*tap_spacing with mean power proportional to
    exp(-k*tap_spacing/tau_rc), normalized to unit total mean power. Gains
    are complex circular Gaussian; with keyhole=True each gain is the
    product of two independent unit-power circular Gaussians, giving a
    double-Rayleigh envelope.
    """
    rng = np.random.default_rng(model.seed)
    k = np.arange(model.n_taps)
    with np.errstate(over="ignore"):  # a decay ratio past float range has power 0
        mean_power = np.exp(-k * model.tap_spacing / model.tau_rc)
    mean_power /= mean_power.sum()

    def circular(n: int) -> np.ndarray:
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    gains = circular(model.n_taps)
    if model.keyhole:
        gains = gains * circular(model.n_taps)
    gains = gains * np.sqrt(mean_power)
    return FadingRealization(delays=k * model.tap_spacing, gains=gains)


def cancel_rc_decay(measured: Cir, reference: Cir, epsilon: float) -> Cir:
    """Deconvolve the chamber response out of a measured impulse response.

    Regularized frequency-domain division
    H_corr = H_meas * conj(H_ref) / (|H_ref|^2 + epsilon), transformed back
    to the delay domain. The output carries a "noise-amplified" flag when
    its out-of-peak floor rises above NOISE_AMPLIFICATION_FLOOR_DB relative
    to the peak.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if measured.taps.size != reference.taps.size:
        raise ValueError(
            f"measured ({measured.taps.size}) and reference ({reference.taps.size}) "
            "lengths differ"
        )
    h_meas = np.fft.fft(measured.taps)
    h_ref = np.fft.fft(reference.taps)
    corrected = np.fft.ifft(
        h_meas * np.conj(h_ref) / (np.abs(h_ref) ** 2 + epsilon)
    )
    mag = np.abs(corrected)
    flags: tuple[str, ...] = ()
    peak = mag.max()
    if peak > 0:
        with np.errstate(divide="ignore"):
            rel_db = 20.0 * np.log10(mag / peak)
        if _median(rel_db[mag.size // 2:]) > NOISE_AMPLIFICATION_FLOOR_DB:
            flags = ("noise-amplified",)
    return Cir(
        taps=corrected,
        delay_resolution=measured.delay_resolution,
        max_delay=measured.max_delay,
        flags=flags,
    )


def _convolve_chunk(rows: slice, worker: int, x: np.ndarray, response: np.ndarray,
                    out: np.ndarray) -> None:
    """Write rows lo:hi of the full convolution of x with response into
    out[lo:hi], from the convolution of the inputs x[lo - m + 1:hi] that
    those rows reach (m = response.size). Its partial sums at either end are
    dropped, except at the ends of the whole, so each row is the sum that
    np.convolve(x, response) forms, in the same order, as long as each chunk
    spans at least m rows and every chunk but the last ends before x does."""
    first = max(rows.start - response.size + 1, 0)
    part = np.convolve(x[first:rows.stop], response)
    out[rows] = part[rows.start - first:rows.stop - first]


def apply_channel(capture: IqCapture, taps: FadingRealization) -> IqCapture:
    """Tapped-delay-line convolution of a capture with a fading realization.

    Tap delays must land on whole samples at the capture rate; the output is
    extended by the largest delay. The taps become one dense impulse
    response, where taps on the same sample add, and one convolution. That
    convolution is cut into chunks of CHANNEL_CHUNK output samples (or of
    one sample per tap, if there are more taps), which the worker threads
    write into one output array; its bytes equal np.convolve's.
    """
    delays = taps.delays * capture.sample_rate
    rounded = np.round(delays)
    bad = np.flatnonzero(np.abs(delays - rounded) > 1e-6)
    if bad.size:
        raise ValueError(
            f"tap {bad[0]} delay {taps.delays[bad[0]]:.3e} s is not a whole number "
            f"of samples at {capture.sample_rate:.6g} Hz"
        )
    shifts = rounded.astype(np.int64)
    n_taps = int(shifts.max(initial=0)) + 1
    response = (np.bincount(shifts, weights=taps.gains.real, minlength=n_taps)
                + 1j * np.bincount(shifts, weights=taps.gains.imag, minlength=n_taps))
    x = capture.samples
    if not x.size:
        return replace(capture, samples=np.zeros(n_taps - 1, dtype=np.complex128))
    out = np.empty(x.size + n_taps - 1, dtype=np.complex128)  # the chunks cover it
    # every chunk but the last starts and ends before x does
    bounds = [*range(0, x.size, max(CHANNEL_CHUNK, n_taps)), out.size]
    chunks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    _run_slices(partial(_convolve_chunk, x=x, response=response, out=out),
                chunks, _worker_count(len(chunks)))
    return replace(capture, samples=out)


def awgn(capture: IqCapture, noise_power: float, rng=None) -> IqCapture:
    """Add seeded complex white Gaussian noise of the given per-sample power.

    The noise is drawn, scaled and summed in the one output array: real
    parts first, then imaginary parts, from the same generator.
    """
    if not (np.isfinite(noise_power) and noise_power >= 0):
        raise ValueError(f"noise_power must be finite and >= 0, got {noise_power}")
    gen = np.random.default_rng(rng)
    n = capture.samples.size
    out = np.empty(n, dtype=np.complex128)
    out.real = gen.standard_normal(n)
    out.imag = gen.standard_normal(n)
    out *= np.sqrt(noise_power / 2.0)
    out += capture.samples
    return replace(capture, samples=out)
