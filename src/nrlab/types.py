"""Shared domain types for the synthesis/detection pipeline, and the worker
threads that the sounding and otasim layers share."""
from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

N_SSB_SYMBOLS = 4
N_SSB_SUBCARRIERS = 240
SYNC_SEQ_LEN = 127
SYNC_BAND = slice(56, 56 + SYNC_SEQ_LEN)  # the subcarriers of the PSS and the SSS
# At most 4 worker threads per call: each slice of work also costs some
# Python under the GIL (about 0.3 ms per block of the AoA map), which more
# workers cannot share.
MAX_WORKERS = 4


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(slices: int) -> int:
    """Threads for `slices` independent slices of work: one per usable CPU,
    at most MAX_WORKERS and at most one per slice, and at least one."""
    return max(1, min(_usable_cpus(), MAX_WORKERS, slices))


def _run_slices(run: Callable[[slice, int], None], slices: Sequence[slice], workers: int) -> None:
    """Call run(s, w) once for each s in slices, on `workers` threads that
    take the slices in order from one shared queue, so a worker on a busy
    core takes fewer. w (0 .. workers - 1) numbers the thread that took s,
    so that run can keep one buffer per worker.

    The calling thread is worker 0. The others are started here and joined
    before this returns, so no thread outlives the call. With one worker, or
    fewer than two slices, every slice runs in the calling thread and no
    thread starts. numpy releases the GIL in its FFT and ufunc loops and in
    np.convolve, so the workers overlap there. Error states set with
    np.errstate hold only in the thread that set them. An exception that run
    raises reaches the caller once every worker has stopped.
    """
    todo = deque(slices)
    workers = min(workers, len(todo))

    def drain(worker: int) -> None:
        while True:
            try:
                s = todo.popleft()  # thread-safe
            except IndexError:
                return
            run(s, worker)

    if workers <= 1:
        drain(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        others = [pool.submit(drain, w) for w in range(1, workers)]
        drain(0)
        for done in others:
            done.result()


def _median(values) -> float:
    """The median of a non-empty 1-D float sequence, bit for bit np.median's.

    np.median's NaN check imports numpy.ma on its first call (8-10 ms of a
    fresh process on a 2-core x86 host); this partitions with np.median's
    indices instead, then takes the middle value or the mean of the two
    middle values, or the NaN that the partition put last. Its mean sums
    from +0.0, as np.median's does, so that -0.0 comes out as 0.0.
    """
    a = np.asarray(values, dtype=np.float64)
    half = a.size // 2
    part = np.partition(a, [half, -1] if a.size % 2 else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if a.size % 2:
        return 0.0 + float(part[half])
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2.0


@dataclass(frozen=True)
class CellId:
    """Physical cell identity, split into its SSS group and PSS sector parts.

    Attributes:
        n1: group index carried by the SSS (0..335)
        n2: sector index carried by the PSS (0..2)
    """

    n1: int
    n2: int

    def __post_init__(self):
        if not 0 <= self.n1 <= 335:
            raise ValueError(f"n1 must be in 0..335, got {self.n1}")
        if not 0 <= self.n2 <= 2:
            raise ValueError(f"n2 must be in 0..2, got {self.n2}")

    @property
    def cell(self) -> int:
        """Combined cell identity 3*n1 + n2 (0..1007)."""
        return 3 * self.n1 + self.n2

    @classmethod
    def from_cell(cls, cell: int) -> "CellId":
        if not 0 <= cell <= 1007:
            raise ValueError(f"cell must be in 0..1007, got {cell}")
        return cls(n1=cell // 3, n2=cell % 3)


@dataclass(frozen=True)
class OfdmParams:
    """CP-OFDM numerology: subcarrier spacing 15*2**mu kHz, transform size and CP
    length, by default the normal CP of every SSB symbol, 144*fft_size/2048 (TS
    38.211 §5.3.1), set when built: dataclasses.replace(p, fft_size=n) keeps it."""

    mu: int = 1
    fft_size: int = 256
    cp_len: int | None = None

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.fft_size < 1 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.cp_len is None:
            object.__setattr__(self, "cp_len", 144 * self.fft_size // 2048)
        if not 0 <= self.cp_len <= self.fft_size:
            raise ValueError(f"cp_len must be in 0..fft_size {self.fft_size}, got {self.cp_len}")

    @property
    def scs(self) -> float:
        """Subcarrier spacing in Hz."""
        return 15e3 * 2**self.mu

    @property
    def sample_rate(self) -> float:
        return self.fft_size * self.scs

    @property
    def symbol_len(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cp_len


@dataclass(frozen=True)
class SsbConfig:
    """Configuration of a synthesized SSB burst set.

    burst_period is in samples; it must cover one whole SSB (4 OFDM symbols)
    when more than one burst is requested, which is checked at synthesis time
    where the numerology is known.
    """

    cell_id: CellId
    i_ssb_bar: int = 0
    l_max: int = 8
    burst_count: int = 1
    burst_period: int = 0
    re_power: float = 1.0

    def __post_init__(self):
        if self.l_max not in (4, 8):
            raise ValueError(f"l_max must be 4 or 8, got {self.l_max}")
        if not 0 <= self.i_ssb_bar < self.l_max:
            raise ValueError(
                f"i_ssb_bar must be in 0..{self.l_max - 1}, got {self.i_ssb_bar}"
            )
        if self.burst_count < 0:
            raise ValueError(f"burst_count must be >= 0, got {self.burst_count}")
        if self.burst_period < 0:
            raise ValueError(f"burst_period must be >= 0, got {self.burst_period}")
        if not self.re_power > 0:
            raise ValueError(f"re_power must be > 0, got {self.re_power}")


@dataclass
class IqCapture:
    """Time-domain complex baseband samples with acquisition metadata.

    scale relates file units to the working amplitude units; samples are
    always held in working units.
    """

    samples: np.ndarray
    sample_rate: float
    center_freq: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not 0 < self.sample_rate < np.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if not abs(self.center_freq) < np.inf:
            raise ValueError(f"center_freq must be finite, got {self.center_freq}")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        parts = self.samples[:, None].view(np.float64)  # (n, 2) re/im, no copy
        with np.errstate(invalid="ignore"):  # min and max propagate NaN, reach +-inf
            if parts.size and not (np.isfinite(parts.min()) and np.isfinite(parts.max())):
                raise ValueError("samples contain non-finite values")

    def __len__(self) -> int:
        return self.samples.size
