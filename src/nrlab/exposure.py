"""Code-selective power measurement, exposure extrapolation, uncertainty budget."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detector import DetectionResult, demodulate_burst
from .types import N_SSB_SYMBOLS, CellId, IqCapture, OfdmParams, SsbConfig
from .waveform import map_ssb, ssb_layout

SIGNAL_CLASSES = ("pss", "sss", "dmrs", "pbch")
CONDUCTED_TARGET_DB = 0.05
OTA_TARGET_DB = 0.5


@dataclass(frozen=True)
class UncertaintyComponent:
    """One standard uncertainty of the budget, in dB, with its distribution tag;
    `placeholder` marks a magnitude that was not measured in the run."""

    name: str
    std_db: float
    distribution: str
    placeholder: bool


# Placeholder magnitudes, flagged as such in every report.
DEFAULT_UNCERTAINTY_COMPONENTS = (
    UncertaintyComponent("correlation-loss", 0.02, "normal", placeholder=True),
    UncertaintyComponent("quantization", 0.01, "rectangular", placeholder=True),
    UncertaintyComponent("noise", 0.01, "normal", placeholder=True),
)


@dataclass(frozen=True)
class UncertaintyBudget:
    """Root-sum-square combined uncertainty with a coverage factor."""

    components: tuple[UncertaintyComponent, ...]
    coverage_factor: float
    expanded_db: float


@dataclass(frozen=True)
class TargetCheck:
    passed: bool
    mode: str
    target_db: float
    margin_db: float


@dataclass
class ExposureReport:
    """Per-class RE powers, linear and in dB, plus the extrapolated maximum and
    its uncertainty."""

    per_signal_re_power: dict[str, float]
    per_signal_re_power_db: dict[str, float]
    extrapolated_power: float
    extrapolated_power_db: float
    n_re_total: int
    duty: float
    uncertainty: UncertaintyBudget
    target_check: TargetCheck


@lru_cache(maxsize=8)  # the SSB indices of one cell
def _despread_table(cell: int, i_ssb_bar: int) -> tuple:
    """Per signal class, the (symbol, columns, reference, <reference, reference>)
    of every symbol the class occupies in the unit-power SSB of the cell and
    SSB index, in SIGNAL_CLASSES order. The arrays are read-only."""
    reference = map_ssb(
        SsbConfig(cell_id=CellId.from_cell(cell), i_ssb_bar=i_ssb_bar, re_power=1.0)
    )
    layout = ssb_layout(cell)
    table = []
    for name in SIGNAL_CLASSES:
        rows = []
        for sym in range(N_SSB_SYMBOLS):
            cols = np.flatnonzero(layout[name][sym])
            if cols.size == 0:
                continue
            ref = reference[sym, cols]
            cols.setflags(write=False)
            ref.setflags(write=False)
            rows.append((sym, cols, ref, np.vdot(ref, ref)))
        table.append((name, tuple(rows)))
    return tuple(table)


def code_selective_power(
    grid: np.ndarray, detection: DetectionResult, burst_index: int = 0
) -> dict[str, float]:
    """Mean per-RE power of each signal class, despread against its reference.

    For every signal class the grid cells at the class positions are fitted
    per OFDM symbol to the known reference sequence (h = <Y, r>/<r, r>), and
    the power is the RE-count-weighted mean of |h|^2 over the class symbols.
    The coherent fit rejects overlaid content from other cells through the
    sequence cross-correlation. The class positions, the references and
    <r, r> come from a table built once per (cell, SSB index).

    Args:
        grid: demodulated 4 x 240 SSB grid, timing/CFO-aligned.
        detection: result identifying the cell and per-burst SSB indices.
        burst_index: which detected burst the grid belongs to.
    """
    if not detection.bursts:
        raise ValueError("detection contains no bursts")
    if detection.cell_id is None:
        raise ValueError("detection carries no cell identity")
    burst = detection.bursts[burst_index]

    powers: dict[str, float] = {}
    for name, rows in _despread_table(detection.cell_id.cell, burst.i_ssb_bar):
        acc = 0.0
        count = 0
        for sym, cols, ref, ref_energy in rows:
            fit = np.vdot(ref, grid[sym, cols]) / ref_energy
            acc += cols.size * float(np.abs(fit) ** 2)
            count += cols.size
        powers[name] = acc / count
    return powers


def measure_exposure(
    capture: IqCapture,
    detection: DetectionResult,
    params: OfdmParams,
    n_re_total: int,
    duty: float,
    mode: str,
    coverage_factor: float = 2.0,
) -> ExposureReport:
    """Measure the exposure of the detected cell in a capture.

    Each detected burst is demodulated at the detection's CFO and despread
    per signal class; each class power is the mean over the bursts. The SSS
    power is extrapolated to the fully loaded maximum, P = P_RE * n_re_total
    * duty, and the placeholder budget, the root-sum-square of its components
    times the coverage factor, is checked against the target of the mode.

    Raises:
        ValueError: an argument is out of range, checked before any burst is
            demodulated, or the detection holds no bursts or no cell identity.
    """
    if n_re_total < 1:
        raise ValueError(f"n_re_total must be >= 1, got {n_re_total}")
    if not 0 < duty <= 1:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    targets = {"conducted": CONDUCTED_TARGET_DB, "ota": OTA_TARGET_DB}
    if mode not in targets:
        raise ValueError(f"mode must be one of {sorted(targets)}, got {mode!r}")
    target = targets[mode]
    if not (math.isfinite(coverage_factor) and coverage_factor > 0):
        raise ValueError(f"coverage factor must be finite and > 0, got {coverage_factor}")
    if not detection.bursts:
        raise ValueError("detection contains no bursts")

    per_burst = [
        code_selective_power(
            demodulate_burst(capture, burst.timing, detection.cfo, params), detection, index
        )
        for index, burst in enumerate(detection.bursts)
    ]
    powers = {name: float(np.mean([p[name] for p in per_burst])) for name in SIGNAL_CLASSES}
    linear = powers["sss"] * n_re_total * duty
    expanded = coverage_factor * math.sqrt(
        sum(c.std_db * c.std_db for c in DEFAULT_UNCERTAINTY_COMPONENTS)
    )
    return ExposureReport(
        per_signal_re_power=powers,
        per_signal_re_power_db={
            name: 10.0 * np.log10(p) if p > 0 else -np.inf for name, p in powers.items()
        },
        extrapolated_power=linear,
        extrapolated_power_db=10.0 * math.log10(linear) if linear > 0 else -math.inf,
        n_re_total=n_re_total,
        duty=duty,
        uncertainty=UncertaintyBudget(DEFAULT_UNCERTAINTY_COMPONENTS, coverage_factor, expanded),
        target_check=TargetCheck(expanded <= target, mode, target, target - expanded),
    )
