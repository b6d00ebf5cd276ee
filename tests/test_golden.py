"""The seeded CLI reports, chamber jobs and SSB jobs of tests/golden/regen.py against
tests/golden/reports.json.

Keys, ints, strings, bools and nulls must match exactly. Where the platform
fingerprint recorded in the file (numpy version, machine type, numpy's CPU
features, the BLAS build and its run-time kernels) matches, floats must match
to the bit. Elsewhere another FFT, SIMD loop or BLAS kernel may round
differently, so a float must lie within 1e-9 relative, and a dB value (under a
`_db` key), which a report rounds to 2 decimals, within 0.011. A SHA-256 digest
(under a `_sha256` key) pins bytes that only the writing platform reproduces,
so elsewhere it is left out and the parsed cells beside it are compared.
"""
import copy
import json
import math

import numpy as np
import pytest

from nrlab.cli import EXIT_OK, main

from golden.regen import (
    COMMANDS,
    GOLDEN,
    _normalized,
    generate_outputs,
    platform_fingerprint,
    run_chamber_jobs,
    run_commands,
    run_ssb_jobs,
)

REL_TOL = 1e-9
DB_TOL = 0.011


def mismatches(got, want, exact: bool, path: str = "", is_db: bool = False) -> list[str]:
    """The paths at which `got` departs from `want`."""
    if not exact and path.endswith("_sha256"):
        return []
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], exact, f"{path}/{k}", is_db or k.endswith("_db"))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} is not a list of {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, exact, f"{path}/{i}", is_db)]
    if type(got) is not type(want):
        ok = False
    elif isinstance(want, float) and not exact:
        ok = abs(got - want) <= DB_TOL if is_db else math.isclose(got, want, rel_tol=REL_TOL)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_reports_match_golden(golden):
    exact = golden["platform"] == platform_fingerprint()
    assert mismatches(run_commands(), golden["reports"], exact) == []


def test_chamber_jobs_match_golden(golden):
    # the AoA map, the PDPs and the faded capture were pinned before their
    # passes ran on worker threads; their bytes must not depend on that
    exact = golden["platform"] == platform_fingerprint()
    assert mismatches(run_chamber_jobs(), golden["chamber"], exact) == []


def test_ssb_jobs_match_golden(golden):
    # the candidates, CFOs and powers were pinned before the PSS scan read
    # each scan group from one zero-padded block load
    exact = golden["platform"] == platform_fingerprint()
    assert mismatches(run_ssb_jobs(), golden["ssb"], exact) == []


def test_ssb_comparison_catches_one_bit(golden):
    want = golden["ssb"]
    cfo = copy.deepcopy(want)
    cfo["sparse"][2]["cfo_hz"] = float(np.nextafter(want["sparse"][2]["cfo_hz"], np.inf))
    power = copy.deepcopy(want)
    powers = power["dense"][4]["per_signal_re_power"]
    powers["dmrs"] = float(np.nextafter(powers["dmrs"], np.inf))
    for got, path in ((cfo, "/sparse/2/cfo_hz"), (power, "/dense/4/per_signal_re_power/dmrs")):
        assert [m.split(":")[0] for m in mismatches(got, want, exact=True)] == [path]
        assert mismatches(got, want, exact=False) == []


def test_golden_file_stays_small():
    assert GOLDEN.stat().st_size < 200_000


def test_chamber_digests_off_the_writing_platform(golden):
    want = golden["chamber"]
    got = copy.deepcopy(want)
    got[0]["faded_sha256"] = "0" * 64
    got[1]["pdp_sha256"][3] = "0" * 64
    got[1]["isolation_db"] += 0.01
    assert mismatches(got, want, exact=True) == [
        f"/0/faded_sha256: {'0' * 64!r} != {want[0]['faded_sha256']!r}",
        f"/1/isolation_db: {got[1]['isolation_db']!r} != {want[1]['isolation_db']!r}",
        f"/1/pdp_sha256/3: {'0' * 64!r} != {want[1]['pdp_sha256'][3]!r}"]
    assert mismatches(got, want, exact=False) == []
    got[0]["rc_peak_bin"] += 1
    assert mismatches(got, want, exact=False) == [
        f"/0/rc_peak_bin: {want[0]['rc_peak_bin'] + 1} != {want[0]['rc_peak_bin']}"]


def test_comparison_catches_one_bit_and_one_sample(golden):
    want = golden["reports"]
    flipped = copy.deepcopy(want)
    power = flipped["exposure.json"]["per_signal_re_power"]
    power["sss"] = float(np.nextafter(power["sss"], np.inf))
    assert len(mismatches(flipped, want, exact=True)) == 1
    assert mismatches(flipped, want, exact=False) == []

    moved = copy.deepcopy(want)
    moved["detection.json"]["bursts"][1]["timing_sample"] += 1
    assert mismatches(moved, want, exact=False) == [
        "/detection.json/bursts/1/timing_sample: 6481 != 6480"]


def test_comparison_catches_one_exit_code(golden):
    want = golden["reports"]
    assert [code for _, code in want["exit_codes"]] == [0] * 7 + [1] * 4
    got = copy.deepcopy(want)
    got["exit_codes"][7][1] = 0  # detect --cp-len 20 accepted
    for exact in (True, False):
        assert mismatches(got, want, exact) == ["/exit_codes/7/1: 0 != 1"]


def test_generate_comparison_catches_one_bit(golden, tmp_path):
    # the capture of the corpus's `generate` run with its last bit flipped,
    # then one sidecar value changed by one bit
    want = golden["reports"]["cap.iq"]
    name, argv = COMMANDS[0]
    assert name == "cap.iq"
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == EXIT_OK
    capture = tmp_path / "cap.iq"
    data = bytearray(capture.read_bytes())
    data[-1] ^= 1
    capture.write_bytes(bytes(data))
    got = _normalized(generate_outputs(str(tmp_path)), str(tmp_path))
    assert [m.split(":")[0] for m in mismatches(got, want, exact=True)] == ["/capture_sha256"]
    assert mismatches(got, want, exact=False) == []
    got["sidecar"]["seed"] ^= 1
    assert [m.split(":")[0] for m in mismatches(got, want, exact=True)] == [
        "/capture_sha256", "/sidecar/seed"]
    assert mismatches(got, want, exact=False) == [
        f"/sidecar/seed: {want['sidecar']['seed'] ^ 1} != {want['sidecar']['seed']}"]


def test_tolerances_off_the_writing_platform(golden):
    want = golden["reports"]["exposure.json"]
    got = copy.deepcopy(want)
    got["extrapolated_power"] *= 1 + 1e-12
    got["per_signal_re_power_db"]["sss"] += 0.01
    assert mismatches(got, want, exact=False) == []
    got["extrapolated_power"] *= 1 + 1e-8
    got["per_signal_re_power_db"]["pss"] += 0.02
    assert len(mismatches(got, want, exact=False)) == 2


def test_sound_digests_off_the_writing_platform(golden):
    want = golden["reports"]["sound"]
    assert want["aoa_masked_rows"] == 4
    got = copy.deepcopy(want)
    got["aoa_csv_sha256"] = "0" * 64
    got["aoa_power_db"][0][0] += 0.01
    assert mismatches(got, want, exact=True, path="/sound") == [
        f"/sound/aoa_csv_sha256: {'0' * 64!r} != {want['aoa_csv_sha256']!r}",
        f"/sound/aoa_power_db/0/0: {got['aoa_power_db'][0][0]!r} != {want['aoa_power_db'][0][0]!r}"]
    assert mismatches(got, want, exact=False, path="/sound") == []

    row = next(i for i, cells in enumerate(want["aoa_power_db"]) if cells[0] is None)
    got["aoa_power_db"][row][0] = -40.0  # a masked cell that is not masked
    got["aoa_peak_cell"][1] += 1
    assert mismatches(got, want, exact=False, path="/sound") == [
        f"/sound/aoa_peak_cell/1: {want['aoa_peak_cell'][1] + 1} != {want['aoa_peak_cell'][1]}",
        f"/sound/aoa_power_db/{row}/0: -40.0 != None"]
