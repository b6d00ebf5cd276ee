"""Seeded CLI reports pinned in reports.json, and the script that rewrites it.

    PYTHONPATH=src python tests/golden/regen.py

runs the commands below in a temporary directory and writes the reports they
produce to reports.json, next to this file, with the directory replaced by
"<tmp>" in every string. tests/test_golden.py runs the same commands and
compares. Rewrite the file only for a change that is meant to move a report.
"""
from __future__ import annotations

import ctypes
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("reports.json")
TMP = "<tmp>"

# (report file, nrlab command line); "{tmp}" is the working directory.
COMMANDS = (
    (None, ["generate", "--out", "{tmp}/cap.iq", "--cell", "212", "--bursts", "4",
            "--i-ssb", "2", "--snr-db", "10", "--seed", "5"]),
    ("detection.json", ["detect", "--in", "{tmp}/cap.iq", "--out", "{tmp}/detection.json"]),
    ("exposure.json", ["exposure", "--capture", "{tmp}/cap.iq", "--detection",
                       "{tmp}/detection.json", "--duty", "0.75", "--out", "{tmp}/exposure.json"]),
    ("exposure_ota.json", ["exposure", "--capture", "{tmp}/cap.iq", "--detection",
                           "{tmp}/detection.json", "--mode", "ota", "--coverage-k", "40",
                           "--out", "{tmp}/exposure_ota.json"]),
    ("wireless_cable.json", ["otasim", "wireless-cable", "--ports", "8", "--seed", "3",
                             "--out", "{tmp}/wireless_cable.json"]),
    ("rc.json", ["otasim", "rc", "--keyhole", "--cancel-demo", "--seed", "7",
                 "--out", "{tmp}/rc.json"]),
)


def _normalized(value, tmp: str):
    if isinstance(value, dict):
        return {k: _normalized(v, tmp) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalized(v, tmp) for v in value]
    if isinstance(value, str):
        return value.replace(tmp, TMP)
    return value


def run_commands() -> dict:
    """Run COMMANDS in a fresh directory; the reports they write, by file name."""
    from nrlab.cli import EXIT_OK, main

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
            if code != EXIT_OK:
                raise RuntimeError(f"nrlab {' '.join(argv)} exited {code}")
            if name is not None:
                report = json.loads(Path(tmp, name).read_text(encoding="utf-8"))
                reports[name] = _normalized(report, tmp)
    return reports


def _cpu_features() -> list[str]:
    """The CPU features numpy found, which pick its SIMD loops (exp, log, ...)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, found in __cpu_features__.items() if found)


def _blas_build() -> dict | None:
    """The BLAS numpy was built against; None where numpy cannot say (< 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
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
    golden = {"platform": platform_fingerprint(), "reports": run_commands()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)


if __name__ == "__main__":
    main()
