"""The benchmark's four workloads: seeded inputs, one job each, correctness checks.

Every workload is a closed loop of jobs run by one client. A job's inputs come
from (seed, job index) only, are built before the job's clock starts, and the
job's output is checked against the planted truth afterwards. Library calls go
through the nrlab module attributes (``detector.enumerate_ssb_bursts``) so that
a Tracer can wrap them.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nrlab import detector, exposure, otasim, sounding, waveform
from nrlab import io as nrio
from nrlab.exposure import CONDUCTED_TARGET_DB
from nrlab.sounding import SPEED_OF_LIGHT, AntennaPattern, Cir, FrequencySweep, VirtualArrayScan
from nrlab.types import N_SSB_SYMBOLS, CellId, IqCapture, OfdmParams, SsbConfig

PARAMS = OfdmParams()  # 30 kHz SCS, 7.68 Msps
SSB_LEN = N_SSB_SYMBOLS * PARAMS.symbol_len  # 1096 samples
TIMING_TOLERANCE = 1  # samples
SSB_TAIL = 1000

# ssb-dense: bursts packed just over one SSB apart, noiseless.
DENSE_BURSTS = 32
DENSE_PERIOD = 1200
# ssb-sparse-noisy: NR 20 ms burst periodicity, 0 dB SNR, CFO up to 0.3 SCS.
SPARSE_BURSTS = 2
SPARSE_PERIOD = 153_600
SPARSE_SNR_DB = 0.0
SPARSE_MAX_CFO_SCS = 0.3

# chamber: virtual-array scan, 8-port wireless cable, keyhole RC channel.
SWEEP_POINTS = 1601
SWEEP_START_HZ = 99e9
SWEEP_STEP_HZ = 1.25e6  # 2 GHz: no grating lobe of the half-wavelength array
ARRAY_ELEMENTS = 16
AOA_ANGLES = np.arange(-90.0, 90.5, 1.0)  # 361 hypotheses
PILOT_SNR_DB = 30.0
WC_PORTS = 8
WC_MATRICES = 4
WC_SNR_DB = 90.0  # see README: the isolation tail at lower sounding SNR
ISOLATION_BAR_DB = 30.0
RC_TAPS = 32
RC_TAU_SAMPLES = 4.0
RC_BINS = 256
RC_EPSILON = 1e-3
CHAMBER_CAPTURE_BURSTS = 80
CHAMBER_CAPTURE_PERIOD = 5480

# cli-roundtrip: small inputs, the CLI's own defaults elsewhere.
CLI_BURSTS = 8
CLI_BURST_PERIOD = 5480
CLI_LEAD_IN = 1000
CLI_SWEEP_POINTS = 201
CLI_SWEEP_STEP_HZ = 10e6
CLI_ELEMENTS = 8
CLI_ANGLES = 181  # the CLI's default -90..90 degree grid at 1 degree
CLI_ENTRY = "import sys; from nrlab.cli import main; sys.exit(main())"
DETECTION_KEYS = {"bursts", "cell_id", "cell_id_conflict", "cfo_hz", "config"}
EXPOSURE_KEYS = {"config", "duty", "extrapolated_power", "extrapolated_power_db",
                 "n_re_total", "per_signal_re_power", "per_signal_re_power_db",
                 "target_check", "uncertainty"}
WIRELESS_CABLE_KEYS = {"calibration_matrix", "config", "estimated_condition_number",
                       "estimated_matrix", "isolation_db", "true_matrix"}


def job_rng(seed: int, job: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, job, stream])


# --------------------------------------------------------------------------
# SSB workloads: synthesize_bursts -> enumerate_ssb_bursts -> per burst
# demodulate_burst + code_selective_power.


@dataclass(frozen=True)
class SsbJob:
    cell: int
    i_ssb: int
    lead_in: int
    n_bursts: int
    period: int
    snr_db: float | None = None
    cfo_hz: float = 0.0
    noise_seed: int = 0

    @property
    def timings(self) -> list[int]:
        return [self.lead_in + k * self.period for k in range(self.n_bursts)]

    @property
    def ssb_walk(self) -> list[int]:
        return [(self.i_ssb + k) % 8 for k in range(self.n_bursts)]

    @property
    def samples(self) -> int:
        return self.lead_in + (self.n_bursts - 1) * self.period + SSB_LEN + SSB_TAIL


def _ssb_job(seed: int, job: int, n_bursts: int, period: int, noisy: bool) -> SsbJob:
    rng = job_rng(seed, job, 0)
    return SsbJob(
        cell=int(rng.integers(0, 1008)),
        i_ssb=int(rng.integers(0, 8)),
        lead_in=int(rng.integers(100, 1100)),
        n_bursts=n_bursts,
        period=period,
        snr_db=SPARSE_SNR_DB if noisy else None,
        cfo_hz=float(rng.uniform(-SPARSE_MAX_CFO_SCS, SPARSE_MAX_CFO_SCS) * PARAMS.scs)
        if noisy else 0.0,
        noise_seed=int(rng.integers(0, 2**31)),
    )


def run_ssb(job: SsbJob, ctx: "RunContext"):
    cfg = SsbConfig(cell_id=CellId.from_cell(job.cell), i_ssb_bar=job.i_ssb,
                    burst_count=job.n_bursts, burst_period=job.period)
    capture = waveform.synthesize_bursts(cfg, PARAMS, lead_in=job.lead_in, tail=SSB_TAIL)
    if job.snr_db is not None:
        x = capture.samples
        signal_power = float(np.vdot(x, x).real) / (job.n_bursts * SSB_LEN)
        rotated = x * np.exp(2j * np.pi * job.cfo_hz / PARAMS.sample_rate * np.arange(x.size))
        capture = otasim.awgn(IqCapture(rotated, PARAMS.sample_rate),
                              signal_power * 10.0 ** (-job.snr_db / 10.0), rng=job.noise_seed)
    result = detector.enumerate_ssb_bursts(capture, PARAMS)
    powers = [
        exposure.code_selective_power(
            detector.demodulate_burst(capture, burst.timing, result.cfo, PARAMS), result, index)
        for index, burst in enumerate(result.bursts)
    ]
    return result, powers


def check_ssb(job: SsbJob, output) -> list[str]:
    """Cell id, burst count, +-1 sample timing, SSB-index walk and, when the
    capture is noiseless, per-class power within the conducted bar."""
    result, powers = output
    failures = []
    found = None if result.cell_id is None else result.cell_id.cell
    if found != job.cell:
        failures.append(f"cell id {found}, planted {job.cell}")
    if len(result.bursts) != job.n_bursts:
        return failures + [f"{len(result.bursts)} bursts, planted {job.n_bursts}"]
    timings = [b.timing for b in result.bursts]
    if any(abs(t - p) > TIMING_TOLERANCE for t, p in zip(timings, job.timings)):
        failures.append(f"burst timings {timings} off planted {job.timings}")
    walk = [b.i_ssb_bar for b in result.bursts]
    if walk != job.ssb_walk:
        failures.append(f"SSB-index walk {walk}, planted {job.ssb_walk}")
    if job.snr_db is None:
        worst = max(abs(10.0 * np.log10(p)) for per_class in powers for p in per_class.values())
        if not worst <= CONDUCTED_TARGET_DB:
            failures.append(f"code-selective power off by {worst:.4f} dB")
    return failures


def warm_up_ssb() -> None:
    """Fill the detector's first-call caches (PSS replicas, the SSS bank of
    each sector, the m-sequences) with one short capture per sector."""
    for cell in (0, 1, 2):
        capture = waveform.synthesize_bursts(SsbConfig(cell_id=CellId.from_cell(cell)), PARAMS)
        detector.enumerate_ssb_bursts(capture, PARAMS)


# --------------------------------------------------------------------------
# chamber: sounding and OTA simulation, no detector.


@dataclass(frozen=True)
class ChamberJob:
    paths: tuple[tuple[float, int, float], ...]  # (angle deg, delay bin, amplitude)
    sweeps: tuple[FrequencySweep, ...]
    wc_seeds: tuple[int, ...]
    rc_seed: int
    device_bin: int
    capture: IqCapture
    n_bursts = 0  # the capture's bursts are faded, never detected

    @property
    def samples(self) -> int:
        return len(self.capture)


def ula_positions(n_elements: int) -> np.ndarray:
    """Uniform linear array along x at half a wavelength of 100 GHz."""
    pos = np.zeros((n_elements, 3))
    pos[:, 0] = (np.arange(n_elements) - (n_elements - 1) / 2) * SPEED_OF_LIGHT / 100e9 / 2
    return pos


def element_pattern() -> AntennaPattern:
    angles = np.arange(-90.0, 91.0, 1.0)
    gain = (0.3 + 0.7 * np.cos(np.deg2rad(angles)) ** 2) * np.exp(1j * np.deg2rad(angles) / 5)
    return AntennaPattern(angles_deg=angles, gain=gain)


CHAMBER_ARRAY = ula_positions(ARRAY_ELEMENTS)
CHAMBER_PATTERN = element_pattern()


def plant_paths(rng: np.random.Generator, n_points: int) -> tuple[tuple[float, int, float], ...]:
    """Two far-field paths at whole-degree angles >= 20 degrees apart and
    on-grid delays >= 40 bins apart; the second is 0.8 of the first."""
    while True:
        angles = rng.integers(-60, 61, size=2)
        bins = rng.integers(n_points // 40, n_points // 2, size=2)
        if abs(angles[0] - angles[1]) >= 20 and abs(bins[0] - bins[1]) >= 40:
            return ((float(angles[0]), int(bins[0]), 1.0), (float(angles[1]), int(bins[1]), 0.8))


def scan_sweeps(paths, positions, freqs, rng, pattern=None):
    """Element sweeps of far-field paths. Each carries a random per-point phase
    drift, which a pilot channel at PILOT_SNR_DB also sees."""
    df = freqs[1] - freqs[0]
    sweeps = []
    for r in positions:
        h = np.zeros(freqs.size, dtype=complex)
        for angle, delay_bin, amplitude in paths:
            rad = np.deg2rad(angle)
            extra = (r[0] * np.sin(rad) + r[1] * np.cos(rad)) / SPEED_OF_LIGHT
            gain = amplitude if pattern is None else amplitude * pattern.gain_at(np.array([angle]))[0]
            h += gain * np.exp(-2j * np.pi * freqs * (delay_bin / (freqs.size * df) + extra))
        drift = np.exp(1j * rng.uniform(-np.pi, np.pi, freqs.size))
        sigma = 10.0 ** (-PILOT_SNR_DB / 20.0) / np.sqrt(2.0)
        pilot = drift + sigma * (rng.standard_normal(freqs.size)
                                 + 1j * rng.standard_normal(freqs.size))
        sweeps.append(FrequencySweep(freqs=freqs, h=h * drift, pilot=pilot))
    return tuple(sweeps)


@lru_cache(maxsize=1)
def chamber_capture(seed: int) -> IqCapture:
    """An 80-burst capture of a seeded cell, built once per run; jobs only read it."""
    cell = int(job_rng(seed, 0, 1).integers(0, 1008))
    cfg = SsbConfig(cell_id=CellId.from_cell(cell), burst_count=CHAMBER_CAPTURE_BURSTS,
                    burst_period=CHAMBER_CAPTURE_PERIOD)
    return waveform.synthesize_bursts(cfg, PARAMS)


def make_chamber(seed: int, job: int) -> ChamberJob:
    rng = job_rng(seed, job, 0)
    freqs = SWEEP_START_HZ + SWEEP_STEP_HZ * np.arange(SWEEP_POINTS)
    paths = plant_paths(rng, SWEEP_POINTS)
    return ChamberJob(
        paths=paths,
        sweeps=scan_sweeps(paths, CHAMBER_ARRAY, freqs, rng, CHAMBER_PATTERN),
        wc_seeds=tuple(int(s) for s in rng.integers(0, 2**31, size=WC_MATRICES)),
        rc_seed=int(rng.integers(0, 2**31)),
        device_bin=int(rng.integers(1, RC_BINS)),
        capture=chamber_capture(seed),
    )


def run_chamber(job: ChamberJob, ctx: "RunContext"):
    compensated = [sounding.compensate_phase(s) for s in job.sweeps]
    pdps = [sounding.cir_to_pdp(sounding.sweep_to_cir(s)) for s in compensated]
    scan = sounding.deembed_pattern(
        VirtualArrayScan(CHAMBER_ARRAY, compensated, pattern=CHAMBER_PATTERN))
    profile = sounding.aoa_delay_profile(scan, AOA_ANGLES)

    isolations = []
    for seed in job.wc_seeds:
        rng = np.random.default_rng(seed)
        truth = otasim.random_well_conditioned(WC_PORTS, rng)
        estimate = otasim.estimate_transfer_matrix(
            otasim.make_rsrp_sounder(truth, noise_db=WC_SNR_DB, rng=rng), WC_PORTS)
        calibration = otasim.compute_calibration(estimate)
        isolations.append(otasim.isolation_db(truth.a @ calibration))

    spacing = 1.0 / PARAMS.sample_rate
    fading = otasim.simulate_rc_channel(otasim.RcChannelModel(
        tau_rc=RC_TAU_SAMPLES * spacing, n_taps=RC_TAPS, tap_spacing=spacing,
        keyhole=True, seed=job.rc_seed))
    faded = otasim.apply_channel(job.capture, fading)
    chamber = np.zeros(RC_BINS, dtype=complex)
    chamber[:RC_TAPS] = fading.gains
    meta = {"delay_resolution": spacing, "max_delay": RC_BINS * spacing}
    corrected = otasim.cancel_rc_decay(
        Cir(taps=np.roll(chamber, job.device_bin), **meta), Cir(taps=chamber, **meta),
        RC_EPSILON)
    return profile, pdps, isolations, faded, corrected


def check_chamber(job: ChamberJob, output) -> list[str]:
    """AoA peaks within 1 degree and 1 delay bin of the planted paths,
    isolation >= 30 dB, and the device tap restored by the RC deconvolution."""
    profile, pdps, isolations, faded, corrected = output
    failures = []
    pad = profile.delays.size // SWEEP_POINTS
    for angle, delay_bin, _ in job.paths:
        a = int(np.argmin(np.abs(profile.angles_deg - angle)))
        d = delay_bin * pad
        window = profile.power_db[max(a - 1, 0):a + 2, max(d - 1, 0):d + 2]
        if not np.nanmax(window) > -3.0:
            failures.append(f"no AoA peak at {angle} deg, delay bin {delay_bin}")
    peak = np.unravel_index(np.nanargmax(profile.power_db), profile.power_db.shape)
    angle, delay_bin, _ = job.paths[0]
    if abs(profile.angles_deg[peak[0]] - angle) > 1.0 or abs(peak[1] - delay_bin * pad) > 1:
        failures.append(f"strongest AoA peak at {profile.angles_deg[peak[0]]} deg, "
                        f"bin {peak[1]}; planted {angle} deg, bin {delay_bin * pad}")
    if len(pdps) != ARRAY_ELEMENTS:
        failures.append(f"{len(pdps)} PDPs for {ARRAY_ELEMENTS} elements")
    if not min(isolations) >= ISOLATION_BAR_DB:
        failures.append(f"wireless-cable isolation {min(isolations):.2f} dB < {ISOLATION_BAR_DB}")
    if len(faded) != len(job.capture) + RC_TAPS - 1:
        failures.append(f"faded capture of {len(faded)} samples")
    if int(np.argmax(np.abs(corrected.taps))) != job.device_bin:
        failures.append("RC deconvolution did not restore the device tap")
    return failures


# --------------------------------------------------------------------------
# cli-roundtrip: the nrlab CLI as sequential subprocesses.


@dataclass(frozen=True)
class CliJob:
    workdir: Path
    cell: int
    i_ssb: int
    seed: int
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (name, argv)
    n_bursts = CLI_BURSTS

    @property
    def samples(self) -> int:
        return CLI_LEAD_IN + (CLI_BURSTS - 1) * CLI_BURST_PERIOD + SSB_LEN + SSB_TAIL


def make_cli(seed: int, job: int, workdir: Path) -> CliJob:
    """Write the job's sweep CSVs and geometry, and lay out the five calls."""
    rng = job_rng(seed, job, 0)
    cell, i_ssb = int(rng.integers(0, 1008)), int(rng.integers(0, 8))
    run_seed = int(rng.integers(0, 2**31))
    d = workdir / f"job{job}"
    d.mkdir(parents=True, exist_ok=True)
    freqs = SWEEP_START_HZ + CLI_SWEEP_STEP_HZ * np.arange(CLI_SWEEP_POINTS)
    positions = ula_positions(CLI_ELEMENTS)
    sweeps = scan_sweeps(plant_paths(rng, CLI_SWEEP_POINTS), positions, freqs, rng)
    csvs = []
    for i, sweep in enumerate(sweeps):
        csvs.append(str(d / f"el{i}.csv"))
        nrio.write_sweep_csv(csvs[-1], sweep)
    nrio.write_geometry(d / "array.json", positions)
    iq = str(d / "capture.iq")
    commands = (
        ("generate", ("generate", "--out", iq, "--cell", str(cell), "--i-ssb", str(i_ssb),
                      "--bursts", str(CLI_BURSTS), "--burst-period", str(CLI_BURST_PERIOD),
                      "--lead-in", str(CLI_LEAD_IN), "--seed", str(run_seed))),
        ("detect", ("detect", "--in", iq, "--out", str(d / "detection.json"))),
        ("exposure", ("exposure", "--capture", iq, "--detection", str(d / "detection.json"),
                      "--out", str(d / "exposure.json"))),
        ("sound", ("sound", "--in", *csvs, "--aoa", "--geometry", str(d / "array.json"),
                   "--out", str(d / "pdp.csv"), "--aoa-out", str(d / "aoa.csv"))),
        ("otasim", ("otasim", "wireless-cable", "--ports", str(WC_PORTS),
                    "--seed", str(run_seed), "--out", str(d / "wc.json"))),
    )
    return CliJob(workdir=d, cell=cell, i_ssb=i_ssb, seed=run_seed, commands=commands)


def cli_command(argv) -> list[str]:
    """The `nrlab` console script, run by this interpreter."""
    return [sys.executable, "-c", CLI_ENTRY, *argv]


def run_cli(job: CliJob, ctx: "RunContext"):
    """Each call as a subprocess; in a traced run also in-process through
    nrlab.cli.main so the library layers under the CLI get spans."""
    codes = {}
    for name, argv in job.commands:
        with ctx.span(f"cli.{name}"):
            codes[name] = subprocess.run(cli_command(argv), env=ctx.env,
                                         stdout=subprocess.DEVNULL,
                                         stderr=subprocess.DEVNULL).returncode
    if ctx.inproc:
        for name, argv in job.commands:
            with ctx.span(f"cli.{name}.inproc"):
                codes[f"{name}.inproc"] = sys.modules["nrlab.cli"].main(list(argv))
    return codes


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_cli(job: CliJob, codes) -> list[str]:
    """Exit codes 0, the expected report keys, the planted cell and burst
    count, a full AoA map and wireless-cable isolation >= 30 dB."""
    failures = [f"{name} exited {code}" for name, code in codes.items() if code != 0]
    if failures:
        return failures
    d = job.workdir
    reports = {"detection.json": DETECTION_KEYS, "exposure.json": EXPOSURE_KEYS,
               "wc.json": WIRELESS_CABLE_KEYS}
    for name, keys in reports.items():
        missing = keys - set(_report(d / name))
        if missing:
            failures.append(f"{name} lacks {sorted(missing)}")
    if failures:
        return failures
    detection = _report(d / "detection.json")
    if (detection["cell_id"] or {}).get("cell") != job.cell:
        failures.append(f"detected cell {detection['cell_id']}, planted {job.cell}")
    if len(detection["bursts"]) != CLI_BURSTS:
        failures.append(f"{len(detection['bursts'])} bursts, planted {CLI_BURSTS}")
    rows = (d / "aoa.csv").read_text(encoding="utf-8").count("\n")
    if rows != CLI_ANGLES + 1:
        failures.append(f"AoA map has {rows} lines")
    isolation = _report(d / "wc.json")["isolation_db"]
    if not isolation >= ISOLATION_BAR_DB:
        failures.append(f"wireless-cable isolation {isolation} dB")
    return failures


def warm_up_cli() -> None:
    """Import nrlab.cli before any job, so that a tracer installed for a job
    finds it loaded and rebinds the library functions it imported."""
    import nrlab.cli  # noqa: F401


def cli_version_seconds(env: dict) -> float:
    """Wall time of `nrlab --version` as a fresh subprocess."""
    start = time.perf_counter()
    subprocess.run(cli_command(["--version"]), env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# --------------------------------------------------------------------------


@dataclass
class RunContext:
    """What a job may need from the run: its environment for subprocesses,
    a temporary directory, whether the CLI replays in-process, and a span
    factory (a no-op unless the run is traced)."""

    env: dict
    workdir: Path
    inproc: bool
    span: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int, RunContext], Any]
    run: Callable[[Any, RunContext], Any]
    check: Callable[[Any, Any], list[str]]
    warm_up: Callable[[], None]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("ssb-dense",
                 lambda seed, k, ctx: _ssb_job(seed, k, DENSE_BURSTS, DENSE_PERIOD, noisy=False),
                 run_ssb, check_ssb, warm_up_ssb),
        Workload("ssb-sparse-noisy",
                 lambda seed, k, ctx: _ssb_job(seed, k, SPARSE_BURSTS, SPARSE_PERIOD, noisy=True),
                 run_ssb, check_ssb, warm_up_ssb),
        Workload("chamber", lambda seed, k, ctx: make_chamber(seed, k),
                 run_chamber, check_chamber, lambda: None),
        Workload("cli-roundtrip", lambda seed, k, ctx: make_cli(seed, k, ctx.workdir),
                 run_cli, check_cli, warm_up_cli),
    )
}
