"""Seeded CLI reports, chamber jobs and SSB jobs pinned in reports.json, and the
script that rewrites it.

    PYTHONPATH=src python tests/golden/regen.py

runs the commands below in a temporary directory and writes the reports they
produce to reports.json, next to this file, with the directory replaced by
"<tmp>" in every string. The `cap.iq` entry stands for the capture of
`nrlab generate`: its SHA-256 digest and its sidecar. The `sound` entry
stands for the two CSV files of `nrlab sound --aoa --deembed` on a seeded
8-element scan (see write_scan): their SHA-256 digests, their parsed dB
cells, the AoA peak cell and the number of masked AoA rows. The `chamber` entry holds two seeded library-level
chamber jobs (see chamber_job): digests of the AoA map, the PDPs and the
faded capture, and the values a check reads off them. The `ssb` entry holds
six seeded dense and six sparse noisy library-level SSB jobs (see ssb_job):
the cell, burst timings, SSB indices, the three metrics, the CFO and the
per-class powers. The `exit_codes` entry of `reports` holds each command
line with its exit code, those of four usage and input errors included.
tests/test_golden.py runs the same commands and jobs and compares. Rewrite
the file only for a change that is meant to move a report.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("reports.json")
TMP = "<tmp>"

SCAN_ELEMENTS = 8
SCAN_POINTS = 31

# (report file, nrlab command line); "{tmp}" is the working directory. The
# exit code of each command is pinned too; the last four are a usage error
# and three input errors.
COMMANDS = (
    ("cap.iq", ["generate", "--out", "{tmp}/cap.iq", "--cell", "212", "--bursts", "4",
                "--i-ssb", "2", "--snr-db", "10", "--seed", "5"]),
    ("detection.json", ["detect", "--in", "{tmp}/cap.iq", "--out", "{tmp}/detection.json"]),
    ("exposure.json", ["exposure", "--capture", "{tmp}/cap.iq", "--detection",
                       "{tmp}/detection.json", "--duty", "0.75", "--out", "{tmp}/exposure.json"]),
    ("exposure_ota.json", ["exposure", "--capture", "{tmp}/cap.iq", "--detection",
                           "{tmp}/detection.json", "--mode", "ota", "--coverage-k", "40",
                           "--out", "{tmp}/exposure_ota.json"]),
    ("wireless_cable.json", ["otasim", "wireless-cable", "--ports", "8", "--seed", "3",
                             "--out", "{tmp}/wireless_cable.json"]),
    ("rc.json", ["otasim", "rc", "--keyhole", "--seed", "7", "--out", "{tmp}/rc.json"]),
    ("sound", ["sound", "--in", *(f"{{tmp}}/el{m}.csv" for m in range(SCAN_ELEMENTS)),
               "--aoa", "--deembed", "--geometry", "{tmp}/array.json", "--pad", "2",
               "--angle-step", "4", "--out", "{tmp}/pdp.csv", "--aoa-out", "{tmp}/aoa.csv"]),
    (None, ["detect", "--in", "{tmp}/cap.iq", "--cp-len", "20", "--out", "{tmp}/error.json"]),
    (None, ["exposure", "--capture", "{tmp}/cap.iq", "--detection", "{tmp}/detection.json",
            "--coverage-k", "0", "--out", "{tmp}/error.json"]),
    (None, ["sound", "--in", *(f"{{tmp}}/el{m}.csv" for m in range(SCAN_ELEMENTS)),
            "--aoa", "--geometry", "{tmp}/array.json", "--angle-step", "0",
            "--out", "{tmp}/error.csv", "--aoa-out", "{tmp}/error_aoa.csv"]),
    (None, ["exposure", "--capture", "{tmp}/cap.iq", "--detection", "{tmp}/bad_detection.json",
            "--out", "{tmp}/error.json"]),
)


def write_scan(tmp: str) -> None:
    """Sweeps and geometry of a seeded 8-element half-wavelength array at
    100 GHz: two far-field paths, noise, a per-point phase drift that each
    sweep's pilot also carries, and a cos^2 element pattern with two nulls
    below the -30 dB mask, at 56-64 and 76-84 degrees."""
    from nrlab.io import write_geometry, write_sweep_csv
    from nrlab.sounding import SPEED_OF_LIGHT, AntennaPattern, FrequencySweep

    rng = np.random.default_rng(19)
    df = 10e6
    freqs = 100e9 + df * np.arange(SCAN_POINTS)
    x = (np.arange(SCAN_ELEMENTS) - (SCAN_ELEMENTS - 1) / 2) * SPEED_OF_LIGHT / 100e9 / 2
    angles = np.arange(-90.0, 91.0, 1.0)
    gain = (0.2 + 0.8 * np.cos(np.deg2rad(angles)) ** 2) * np.exp(1j * np.deg2rad(angles) / 4)
    gain[(np.abs(angles - 60) <= 4) | (np.abs(angles - 80) <= 4)] = 1e-2
    pattern = AntennaPattern(angles, gain)
    paths = ((-20.0, 6, 1.0), (36.0, 17, 0.6))  # (angle, delay bin, amplitude)
    for m, xm in enumerate(x):
        h = np.zeros(SCAN_POINTS, dtype=complex)
        for angle, delay_bin, amplitude in paths:
            tau = delay_bin / (SCAN_POINTS * df) + xm * np.sin(np.deg2rad(angle)) / SPEED_OF_LIGHT
            a = amplitude * pattern.gain_at(np.array([angle]))[0]
            h += a * np.exp(-2j * np.pi * freqs * tau)
        h += 0.05 * (rng.standard_normal(SCAN_POINTS) + 1j * rng.standard_normal(SCAN_POINTS))
        drift = np.exp(1j * rng.uniform(-np.pi, np.pi, SCAN_POINTS))
        write_sweep_csv(Path(tmp, f"el{m}.csv"),
                        FrequencySweep(freqs=freqs, h=h * drift, pilot=drift))
    write_geometry(Path(tmp, "array.json"), np.stack([x, 0 * x, 0 * x], axis=1), pattern)


def write_bad_detection(tmp: str) -> None:
    """The detection report of `detect` with one bad field: a negative
    timing of its second burst."""
    report = json.loads(Path(tmp, "detection.json").read_text(encoding="utf-8"))
    report["bursts"][1]["timing_sample"] = -5
    Path(tmp, "bad_detection.json").write_text(json.dumps(report), encoding="utf-8")


def _csv_db_cells(path: Path) -> list[list[float | None]]:
    """The dB columns of a PDP or AoA CSV, row by row; an empty cell is None."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(c) if c else None for c in line.split(",")[1:]] for line in lines]


def generate_outputs(tmp: str) -> dict:
    """The digest of the capture that `generate` wrote, and its sidecar."""
    from nrlab.io import sidecar_path

    capture = Path(tmp, "cap.iq")
    return {"capture_sha256": hashlib.sha256(capture.read_bytes()).hexdigest(),
            "sidecar": json.loads(sidecar_path(capture).read_text(encoding="utf-8"))}


def sound_outputs(tmp: str) -> dict:
    """Digests and parsed cells of the PDP and AoA CSVs that `sound` wrote."""
    pdp, aoa = Path(tmp, "pdp.csv"), Path(tmp, "aoa.csv")
    aoa_db = _csv_db_cells(aoa)
    cells = np.array(aoa_db, dtype=float)  # None -> NaN
    return {
        "pdp_csv_sha256": hashlib.sha256(pdp.read_bytes()).hexdigest(),
        "aoa_csv_sha256": hashlib.sha256(aoa.read_bytes()).hexdigest(),
        "pdp_power_db": [row[0] for row in _csv_db_cells(pdp)],
        "aoa_power_db": aoa_db,
        "aoa_peak_cell": [int(i) for i in np.unravel_index(np.nanargmax(cells), cells.shape)],
        "aoa_masked_rows": int(np.isnan(cells).all(axis=1).sum()),
    }


# chamber: an 8-element scan at 100 GHz with a pattern null, an 8-port
# wireless cable and a keyhole RC channel that fades a capture of several
# apply_channel chunks.
CHAMBER_SEEDS = (23, 29)
CHAMBER_POINTS = 101
CHAMBER_ANGLES = np.arange(-90.0, 91.0, 2.0)
CHAMBER_CAPTURE = 40_000
RC_TAPS = 32
RC_BINS = 256


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _energy(z: np.ndarray) -> float:
    """sum |z|^2 by numpy's own reduction: np.vdot's last bit depends on
    the number of threads OpenBLAS runs, which follows the usable CPUs."""
    return float(np.sum(z.real ** 2 + z.imag ** 2))


def chamber_job(seed: int) -> dict:
    """One seeded chamber job through the library: pilot-compensated sweeps
    to PDPs and a de-embedded AoA map, a wireless-cable calibration, and an
    RC channel that fades a capture and is deconvolved again."""
    from nrlab import otasim, sounding
    from nrlab.types import IqCapture

    rng = np.random.default_rng([7919, seed])
    df = 10e6
    freqs = 100e9 + df * np.arange(CHAMBER_POINTS)
    x = (np.arange(SCAN_ELEMENTS) - (SCAN_ELEMENTS - 1) / 2) * sounding.SPEED_OF_LIGHT / 100e9 / 2
    table = np.arange(-90.0, 91.0, 1.0)
    gain = (0.3 + 0.7 * np.cos(np.deg2rad(table)) ** 2) * np.exp(1j * np.deg2rad(table) / 5)
    gain[np.abs(table - 45) <= 5] = 1e-2  # below the mask
    pattern = sounding.AntennaPattern(table, gain)
    paths = [(float(rng.integers(-60, 30)), int(rng.integers(5, 45)), 1.0),
             (float(rng.integers(-60, 30)), int(rng.integers(55, 95)), 0.7)]
    sweeps = []
    for xm in x:
        h = np.zeros(CHAMBER_POINTS, dtype=complex)
        for angle, delay_bin, amplitude in paths:
            tau = (delay_bin / (CHAMBER_POINTS * df)
                   + xm * np.sin(np.deg2rad(angle)) / sounding.SPEED_OF_LIGHT)
            a = amplitude * pattern.gain_at(np.array([angle]))[0]
            h += a * np.exp(-2j * np.pi * freqs * tau)
        h += 0.05 * (rng.standard_normal(CHAMBER_POINTS) + 1j * rng.standard_normal(CHAMBER_POINTS))
        drift = np.exp(1j * rng.uniform(-np.pi, np.pi, CHAMBER_POINTS))
        sweeps.append(sounding.compensate_phase(
            sounding.FrequencySweep(freqs=freqs, h=h * drift, pilot=drift)))
    pdps = [sounding.cir_to_pdp(sounding.sweep_to_cir(s)) for s in sweeps]
    scan = sounding.deembed_pattern(sounding.VirtualArrayScan(
        np.stack([x, 0 * x, 0 * x], axis=1), sweeps, pattern=pattern))
    profile = sounding.aoa_delay_profile(scan, CHAMBER_ANGLES)

    truth = otasim.random_well_conditioned(8, rng)
    estimate = otasim.estimate_transfer_matrix(
        otasim.make_rsrp_sounder(truth, noise_db=60.0, rng=rng), 8)
    isolation = otasim.isolation_db(truth.a @ otasim.compute_calibration(estimate))

    spacing = 1e-6
    fading = otasim.simulate_rc_channel(otasim.RcChannelModel(
        tau_rc=4 * spacing, n_taps=RC_TAPS, tap_spacing=spacing, keyhole=True,
        seed=int(rng.integers(0, 2**31))))
    samples = rng.standard_normal(CHAMBER_CAPTURE) + 1j * rng.standard_normal(CHAMBER_CAPTURE)
    faded = otasim.apply_channel(IqCapture(samples, 1.0 / spacing), fading).samples
    device_bin = int(rng.integers(1, RC_BINS))
    chamber = np.zeros(RC_BINS, dtype=complex)
    chamber[:RC_TAPS] = fading.gains
    meta = {"delay_resolution": spacing, "max_delay": RC_BINS * spacing}
    corrected = otasim.cancel_rc_decay(
        sounding.Cir(taps=np.roll(chamber, device_bin), **meta),
        sounding.Cir(taps=chamber, **meta), 1e-3)
    return {
        "aoa_map_sha256": _digest(profile.power_db),
        "aoa_peak_cell": [int(i) for i in np.unravel_index(np.nanargmax(profile.power_db),
                                                           profile.power_db.shape)],
        "aoa_masked_rows": int(np.count_nonzero(~profile.valid)),
        "pdp_sha256": [_digest(pdp.power_db) for pdp in pdps],
        "pdp_noise_floor_db": [float(pdp.noise_floor_db) for pdp in pdps],
        "isolation_db": float(isolation),
        "rc_device_bin": device_bin,
        "rc_peak_bin": int(np.argmax(np.abs(corrected.taps))),
        "faded_sha256": _digest(faded),
        "faded_samples": int(faded.size),
        "faded_energy": _energy(faded),
    }


def run_chamber_jobs() -> list[dict]:
    return [chamber_job(seed) for seed in CHAMBER_SEEDS]


# ssb: seeded jobs shaped as the benchmark's SSB workloads, dense (32
# noiseless bursts 1200 samples apart) and sparse (2 bursts at the 20 ms
# period, 0 dB SNR, a CFO of at most 0.3 SCS).
SSB_SEEDS = (1, 2, 3, 4, 5, 6)
DENSE_BURSTS, DENSE_PERIOD = 32, 1200
SPARSE_BURSTS, SPARSE_PERIOD = 2, 153_600
SPARSE_MAX_CFO_SCS = 0.3
SSB_TAIL = 1000


def ssb_job(seed: int, sparse: bool) -> dict:
    """One seeded SSB job through the library: synthesize_bursts, then for a
    sparse job a CFO and noise, enumerate_ssb_bursts and measure_exposure."""
    from nrlab import detector, exposure, otasim, waveform
    from nrlab.types import N_SSB_SYMBOLS, CellId, IqCapture, OfdmParams, SsbConfig

    params = OfdmParams()
    rng = np.random.default_rng([7907, seed, sparse])
    n_bursts, period = (SPARSE_BURSTS, SPARSE_PERIOD) if sparse else (DENSE_BURSTS, DENSE_PERIOD)
    cfg = SsbConfig(cell_id=CellId.from_cell(int(rng.integers(0, 1008))),
                    i_ssb_bar=int(rng.integers(0, 8)), burst_count=n_bursts,
                    burst_period=period)
    capture = waveform.synthesize_bursts(cfg, params, lead_in=int(rng.integers(100, 1100)),
                                         tail=SSB_TAIL)
    if sparse:
        x = capture.samples
        power = _energy(x) / (n_bursts * N_SSB_SYMBOLS * params.symbol_len)
        cfo = rng.uniform(-SPARSE_MAX_CFO_SCS, SPARSE_MAX_CFO_SCS) * params.scs
        rotated = x * np.exp(2j * np.pi * cfo / params.sample_rate * np.arange(x.size))
        capture = otasim.awgn(IqCapture(rotated, params.sample_rate), power,
                              rng=int(rng.integers(0, 2**31)))
    result = detector.enumerate_ssb_bursts(capture, params)
    report = exposure.measure_exposure(capture, result, params, n_re_total=240, duty=1.0,
                                       mode="conducted")
    return {
        "cell": result.cell_id.cell,
        "cell_id_conflict": result.cell_id_conflict,
        "cfo_hz": result.cfo,
        "timings": [b.timing for b in result.bursts],
        "i_ssb_bar": [b.i_ssb_bar for b in result.bursts],
        "pss_metric": [b.pss_metric for b in result.bursts],
        "sss_metric": [b.sss_metric for b in result.bursts],
        "dmrs_metric": [b.dmrs_metric for b in result.bursts],
        "per_signal_re_power": report.per_signal_re_power,
    }


def run_ssb_jobs() -> dict:
    return {name: [ssb_job(seed, sparse) for seed in SSB_SEEDS]
            for name, sparse in (("dense", False), ("sparse", True))}


def _normalized(value, tmp: str):
    if isinstance(value, dict):
        return {k: _normalized(v, tmp) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalized(v, tmp) for v in value]
    if isinstance(value, str):
        return value.replace(tmp, TMP)
    return value


def run_commands() -> dict:
    """Run COMMANDS in a fresh directory; the reports that they write, by file
    name, and under "exit_codes" each command line with its exit code."""
    from nrlab.cli import EXIT_OK, main

    reports = {}
    exit_codes = []
    with tempfile.TemporaryDirectory() as tmp:
        write_scan(tmp)
        for name, argv in COMMANDS:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
            exit_codes.append([" ".join(["nrlab", *argv]).replace("{tmp}", TMP), code])
            if name is None or code != EXIT_OK:
                continue  # a report that is missing shows as a missing key
            if name == "sound":
                reports[name] = sound_outputs(tmp)
            elif name == "cap.iq":
                reports[name] = _normalized(generate_outputs(tmp), tmp)
            else:
                report = json.loads(Path(tmp, name).read_text(encoding="utf-8"))
                reports[name] = _normalized(report, tmp)
            if name == "detection.json":
                write_bad_detection(tmp)
    reports["exit_codes"] = exit_codes
    return reports


def _cpu_features() -> list[str]:
    """The CPU features numpy found, which pick its SIMD loops (exp, log, ...)."""
    from numpy._core._multiarray_umath import __cpu_features__

    return sorted(name for name, found in __cpu_features__.items() if found)


def _blas_build() -> dict | None:
    """The BLAS numpy was built against; None where its build names none."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas")
    if blas is None:
        return None
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _blas_cores() -> list[str]:
    """The kernels each OpenBLAS loaded in this process picked for this CPU;
    empty where there is no /proc/self/maps to find the libraries in."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return []
    cores = set()
    for path in {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                cores.add(corename().decode())
                break
    return sorted(cores)


def platform_fingerprint() -> dict:
    """What decides the last bit of a report float besides the code: numpy's
    version, the CPU features its loops dispatch on, and the BLAS build and
    the kernels it picked at run time."""
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": _cpu_features(),
        "blas": _blas_build(),
        "blas_cores": _blas_cores(),
    }


def main() -> None:
    golden = {"platform": platform_fingerprint(), "reports": run_commands(),
              "chamber": run_chamber_jobs(), "ssb": run_ssb_jobs()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)


if __name__ == "__main__":
    main()
