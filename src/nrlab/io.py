"""File formats: raw IQ captures with JSON sidecars, sweep CSVs, geometry, reports.

IQ capture files are headerless little-endian float32, I then Q per sample.
The sidecar lives at the capture path plus ".json" and must carry
sample_rate_hz, center_freq_hz, scale and created_by; unknown keys survive a
rewrite. All number formatting is locale-independent.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .types import CellId, IqCapture

if TYPE_CHECKING:
    from .detector import DetectionResult
    from .sounding import AntennaPattern, AoaDelayProfile, FrequencySweep, Pdp

SIDECAR_SUFFIX = ".json"
_SIDECAR_NUMBERS = ("sample_rate_hz", "center_freq_hz", "scale")


def sidecar_path(capture_path) -> Path:
    p = Path(capture_path)
    return p.with_name(p.name + SIDECAR_SUFFIX)


def write_capture(
    path,
    capture: IqCapture,
    created_by: str = "nrlab",
    seed: int | None = None,
    extra: dict | None = None,
) -> None:
    """Write raw float32 IQ plus its sidecar; extra keys are carried through.
    A capture whose scaled samples overflow float32 writes nothing."""
    with np.errstate(over="ignore"):
        samples = (capture.samples / capture.scale).astype("<c8")
    if not np.isfinite(samples).all():
        raise ValueError(f"capture {path} overflows float32 at scale {capture.scale!r}")
    Path(path).write_bytes(samples.tobytes())

    sidecar = {**(extra or {}), "sample_rate_hz": capture.sample_rate, "scale": capture.scale,
               "center_freq_hz": capture.center_freq, "created_by": created_by}
    if seed is not None:
        sidecar["seed"] = seed
    _write_json(sidecar_path(path), sidecar, round_db=False)


def _validate_sidecar(raw: dict) -> dict:
    for key in _SIDECAR_NUMBERS:
        if key not in raw:
            raise ValueError(f"sidecar missing required key {key!r}")
        if not isinstance(raw[key], (int, float)) or isinstance(raw[key], bool):
            raise ValueError(f"sidecar key {key!r} must be a number, got {raw[key]!r}")
    if "created_by" not in raw:
        raise ValueError("sidecar missing required key 'created_by'")
    if not isinstance(raw["created_by"], str):
        raise ValueError("sidecar key 'created_by' must be a string")
    if "seed" in raw and type(raw["seed"]) is not int:  # a bool is not a seed
        raise ValueError("sidecar key 'seed' must be an integer")
    return raw


def read_sidecar(path) -> dict:
    """Load and validate the sidecar for a capture path."""
    sc_path = sidecar_path(path)
    if not sc_path.exists():
        raise ValueError(f"sidecar not found: {sc_path}")
    return _validate_sidecar(read_json_object(sc_path, "sidecar"))


def read_capture(path) -> tuple[IqCapture, dict]:
    """Read an IQ file and its sidecar.

    Returns:
        (capture with the sidecar scale applied, full sidecar dict).
    """
    sidecar = read_sidecar(path)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 2:
        raise ValueError(
            f"IQ file {path} holds an odd number of floats ({raw.size}); "
            "expected interleaved I/Q pairs"
        )
    samples = raw.view("<c8").astype(np.complex128) * sidecar["scale"]
    capture = IqCapture(
        samples,
        sample_rate=float(sidecar["sample_rate_hz"]),
        center_freq=float(sidecar["center_freq_hz"]),
        scale=float(sidecar["scale"]),
    )
    return capture, sidecar


def write_sweep_csv(path, sweep: FrequencySweep) -> None:
    """Write a sweep as freq_hz,re,im[,pilot_re,pilot_im] rows."""
    columns = ["freq_hz", "re", "im"]
    if sweep.pilot is not None:
        columns += ["pilot_re", "pilot_im"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i in range(sweep.freqs.size):
            row = [
                repr(float(sweep.freqs[i])),
                repr(float(sweep.h[i].real)),
                repr(float(sweep.h[i].imag)),
            ]
            if sweep.pilot is not None:
                pilot = complex(sweep.pilot[i])
                row += [repr(pilot.real), repr(pilot.imag)]
            writer.writerow(row)


def read_sweep_csv(path) -> FrequencySweep:
    """Parse a sweep CSV; the pilot columns are optional and other columns
    are ignored."""
    from .sounding import FrequencySweep

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"sweep CSV {path} is empty") from None
        header = [c.strip() for c in header]
        required = ["freq_hz", "re", "im"]
        if header[:3] != required:
            raise ValueError(
                f"sweep CSV {path} must start with columns {required}, got {header[:3]}"
            )
        index = {name: i for i, name in enumerate(header)}
        has_pilot = "pilot_re" in index and "pilot_im" in index
        freqs, h, pilot = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                freqs.append(float(row[index["freq_hz"]]))
                h.append(float(row[index["re"]]) + 1j * float(row[index["im"]]))
                if has_pilot:
                    pilot.append(
                        float(row[index["pilot_re"]])
                        + 1j * float(row[index["pilot_im"]])
                    )
            except (ValueError, IndexError) as exc:
                raise ValueError(f"sweep CSV {path} line {line_no}: {exc}") from None
    return FrequencySweep(
        freqs=np.asarray(freqs),
        h=np.asarray(h),
        pilot=np.asarray(pilot) if has_pilot else None,
    )


def write_pdp_csv(path, pdp: Pdp) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delay_s", "power_db"])
        for d, p in zip(pdp.delays, pdp.power_db):
            writer.writerow([repr(float(d)), f"{float(p):.2f}"])


def write_aoa_csv(path, profile: AoaDelayProfile) -> None:
    """Angle-by-delay matrix: first column angle_deg, one column per delay bin.

    Powers are written with 2 decimals and NaN (a masked cell) as an empty
    cell; lines end in CRLF, as csv.writer ends them.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg"] + [repr(float(d)) for d in profile.delays])
        # One format op per row; "%.2f" spells every NaN "nan", and no other
        # value contains that string.
        cells = ",%.2f" * profile.power_db.shape[1]
        for angle, row in zip(profile.angles_deg.tolist(), profile.power_db):
            line = cells % tuple(row.tolist())
            fh.write(f"{float(angle)!r}{line.replace('nan', '')}\r\n")


def read_geometry(path) -> tuple[np.ndarray, AntennaPattern | None]:
    """Load element positions and the optional pattern table.

    The file is a JSON object with "elements" ([x, y, z] triples in meters)
    and optionally "pattern" (rows of [angle_deg, gain_db, phase_deg]). Every
    cell must be a JSON number; a bool or a string is not one.
    """
    from .sounding import AntennaPattern

    raw = read_json_object(path, "geometry file")
    if "elements" not in raw:
        raise ValueError(f"geometry file {path} must hold an object with 'elements'")
    elements = _number_rows(raw, "elements", "[x, y, z]")
    pattern = None
    if "pattern" in raw:
        table = _number_rows(raw, "pattern", "[angle_deg, gain_db, phase_deg]")
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below if not finite
            gain = 10.0 ** (table[:, 1] / 20.0) * np.exp(1j * np.deg2rad(table[:, 2]))
        pattern = AntennaPattern(angles_deg=table[:, 0], gain=gain)
    return elements, pattern


def _number_rows(raw: dict, key: str, row: str) -> np.ndarray:
    """raw[key], a non-empty list of rows of 3 JSON numbers, as a float array."""
    rows = raw[key]
    if not (isinstance(rows, list) and rows and all(
            isinstance(r, list) and len(r) == 3
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in r)
            for r in rows)):
        raise ValueError(f"geometry {key!r} must be a list of {row} rows of numbers")
    return np.asarray(rows, dtype=np.float64)


def write_geometry(path, elements: np.ndarray, pattern: AntennaPattern | None = None) -> None:
    payload: dict = {"elements": np.asarray(elements, dtype=float).tolist()}
    if pattern is not None:
        nulls = pattern.angles_deg[pattern.gain == 0]
        if nulls.size:
            raise ValueError(f"pattern gain is 0 at {float(nulls[0])!r} deg: the geometry "
                             "format holds gains in dB, which cannot express a null")
        payload["pattern"] = [
            [float(a), 20.0 * math.log10(abs(g)), math.degrees(math.atan2(g.imag, g.real))]
            for a, g in zip(pattern.angles_deg, pattern.gain)
        ]
    _write_json(path, payload, round_db=False)


def write_report(path, payload: dict) -> None:
    """Write a strict-JSON report (see _json_value); measured values under a
    `_db` key are rounded to 2 decimals, the `config` echo holds what ran."""
    _write_json(path, payload, round_db=True)


def _write_json(path, payload: dict, round_db: bool) -> None:
    """Write `payload` as indented, key-sorted strict JSON (see _json_value)."""
    Path(path).write_text(
        json.dumps(_json_value(payload, round_db), indent=2, sort_keys=True, allow_nan=False)
        + "\n", encoding="utf-8")


def _reject_constant(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} overflows a float")
    return value


def _float_range_int(literal: str) -> int:
    value = int(literal)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{literal[:20]}... ({len(literal)} digits) overflows a float")
    return value


def read_json_object(path, what: str) -> dict:
    """Load a JSON file that must hold an object; `what` names the file in
    errors. NaN, Infinity and -Infinity, which are not JSON, are rejected,
    and so is a number such as 1e400, or an integer of 310 digits, that
    overflows a float."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float,
                         parse_int=_float_range_int)
    except ValueError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return raw


def write_detection_report(path, result: DetectionResult, config: dict) -> None:
    """Write a detection result and the configuration that produced it."""
    cell = None
    if result.cell_id is not None:
        cell = {**asdict(result.cell_id), "cell": result.cell_id.cell}
    payload = {
        "cell_id": cell,
        "cfo_hz": result.cfo,
        "cell_id_conflict": result.cell_id_conflict,
        "bursts": [
            {
                "timing_sample": b.timing,
                "i_ssb_bar": b.i_ssb_bar,
                "metrics": {
                    "pss": b.pss_metric,
                    "sss": b.sss_metric,
                    "dmrs": b.dmrs_metric,
                },
            }
            for b in result.bursts
        ],
        "config": config,
    }
    write_report(path, payload)


def _whole_number(value, name: str, top: int | None = None) -> int:
    """A report's whole number >= 0, and <= top if given; a float such as
    3.0 is accepted, a bool is not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int) or value < 0
            or top is not None and value > top):
        span = ">= 0" if top is None else f"in 0..{top}"
        raise ValueError(f"{name} must be a whole number {span}, got {value!r}")
    return value


def _finite_number(value, name: str) -> float:
    """A report's finite number; read_json_object admits no int past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _field(obj, key: str, name: str):
    """obj[key], where obj is the report object called name ("" for the top)."""
    path = f"{name}.{key}" if name else key
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be an object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"missing field {path}")
    return obj[key]


def read_detection_report(path) -> DetectionResult:
    """Parse a report written by `write_detection_report`.

    Timings must be whole numbers >= 0, SSB indices whole numbers in 0..7,
    the CFO and the metrics finite numbers, the conflict flag a bool, and the
    cell 3*n1 + n2. The error names the field that is missing or wrong.
    """
    from .detector import DetectionResult, SsbBurst

    payload = read_json_object(path, "report")
    try:
        cell = _field(payload, "cell_id", "")
        cell_id = None
        if cell is not None:
            cell_id = CellId(n1=_whole_number(_field(cell, "n1", "cell_id"), "cell_id.n1", 335),
                             n2=_whole_number(_field(cell, "n2", "cell_id"), "cell_id.n2", 2))
            if _field(cell, "cell", "cell_id") != cell_id.cell:
                raise ValueError(f"cell_id.cell must be 3*n1 + n2 = {cell_id.cell}, "
                                 f"got {cell['cell']!r}")
        bursts = _field(payload, "bursts", "")
        if not isinstance(bursts, list):
            raise ValueError(f"bursts must be a list, got {bursts!r}")
        read = []
        for i, b in enumerate(bursts):
            name = f"bursts[{i}]"
            metrics = _field(b, "metrics", name)
            read.append(SsbBurst(
                timing=_whole_number(_field(b, "timing_sample", name), f"{name}.timing_sample"),
                i_ssb_bar=_whole_number(_field(b, "i_ssb_bar", name), f"{name}.i_ssb_bar", 7),
                **{f"{key}_metric": _finite_number(_field(metrics, key, f"{name}.metrics"),
                                                   f"{name}.metrics.{key}")
                   for key in ("pss", "sss", "dmrs")},
            ))
        conflict = payload.get("cell_id_conflict", False)
        if not isinstance(conflict, bool):
            raise ValueError(f"cell_id_conflict must be true or false, got {conflict!r}")
        cfo = _finite_number(_field(payload, "cfo_hz", ""), "cfo_hz")
    except ValueError as exc:
        raise ValueError(f"detection report {path}: {exc}") from None
    return DetectionResult(cell_id=cell_id, bursts=read, cfo=cfo, cell_id_conflict=conflict)


def _json_value(value, round_db: bool, is_db: bool = False):
    """`value` in strict JSON types: arrays as lists, complex values as
    [re, im] pairs, non-finite floats as None. With `round_db`, floats under
    a `_db` key are rounded to 2 decimals, except under a `config` key."""
    if isinstance(value, dict):
        return {k: _json_value(v, round_db and k != "config", is_db or k.endswith("_db"))
                for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_json_value(v, round_db, is_db) for v in value]
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return round(value, 2) if round_db and is_db else value
    return value
