import contextlib
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import nrlab
from nrlab.cli import EXIT_ERROR, EXIT_NO_FINDINGS, EXIT_OK, main
from nrlab import CellId, DetectionResult, SsbBurst
from nrlab.io import (
    read_json_object,
    read_sidecar,
    sidecar_path,
    write_detection_report,
    write_sweep_csv,
)
from nrlab.sounding import FrequencySweep


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def cell3_capture(tmp_path):
    path = tmp_path / "cell3.iq"
    assert run("generate", "--out", path, "--cell", 3, "--bursts", 8, "--seed", 1) == EXIT_OK
    return path


class TestGenerate:
    def test_round_trip_detects_cell3(self, tmp_path, cell3_capture):
        report_path = tmp_path / "det.json"
        code = run("detect", "--in", cell3_capture, "--out", report_path)
        assert code == EXIT_OK
        report = read_json_object(report_path, "report")
        assert report["cell_id"]["cell"] == 3
        assert report["cell_id"] == {"n1": 1, "n2": 0, "cell": 3}
        assert len(report["bursts"]) == 8
        assert [b["i_ssb_bar"] for b in report["bursts"]] == list(range(8))
        assert report["config"]["threshold"] == 0.35

    def test_zero_bursts_gives_valid_file(self, tmp_path):
        path = tmp_path / "empty.iq"
        assert run("generate", "--out", path, "--bursts", 0) == EXIT_OK
        assert path.stat().st_size > 0
        assert run("detect", "--in", path) == EXIT_NO_FINDINGS

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.iq", tmp_path / "b.iq"
        for path in (a, b):
            assert run(
                "generate", "--out", path, "--cell", 7, "--bursts", 2,
                "--snr-db", 10, "--seed", 42,
            ) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_snr_sidecar_is_read_back(self, tmp_path):
        path = tmp_path / "clean.iq"
        assert run("generate", "--out", path, "--snr-db", "inf", "--seed", 2) == EXIT_OK
        assert read_sidecar(path)["generator_config"]["snr_db"] is None
        assert run("detect", "--in", path, "--out", tmp_path / "det.json") == EXIT_OK

    def test_sidecar_metadata(self, tmp_path, cell3_capture):
        sidecar = read_sidecar(cell3_capture)
        assert sidecar["sample_rate_hz"] == pytest.approx(256 * 30e3)
        assert sidecar["seed"] == 1
        assert sidecar["generator_config"]["cell"] == 3
        assert not {"n1", "n2"} & sidecar["generator_config"].keys()

    def test_float32_overflow_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "loud.iq"
        assert run("generate", "--out", path, "--re-power", 1e80) == EXIT_ERROR
        assert "overflows float32 at scale 1.0" in capsys.readouterr().err
        assert not path.exists()
        assert not sidecar_path(path).exists()

    def test_unwritable_path_fails(self, tmp_path):
        assert run("generate", "--out", tmp_path / "nope" / "x.iq") == EXIT_ERROR

    @pytest.mark.parametrize("flag", ["--lead-in", "--tail"])
    @pytest.mark.parametrize("value", [-100, -3000])
    def test_negative_padding_exit_1(self, tmp_path, capsys, flag, value):
        path = tmp_path / "x.iq"
        assert run("generate", "--out", path, flag, value) == EXIT_ERROR
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be >= 0 samples, got {value}" in capsys.readouterr().err
        assert not path.exists()

    def test_nan_snr_exit_1(self, tmp_path, capsys):
        path = tmp_path / "x.iq"
        assert run("generate", "--out", path, "--snr-db", "nan") == EXIT_ERROR
        assert "error: noise_power must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("fft_size", [512, 1024, 2048])
    def test_round_trip_at_wider_fft(self, tmp_path, fft_size):
        # No CP is given: both commands use NR's normal CP at this FFT size.
        path, det = tmp_path / "wide.iq", tmp_path / "det.json"
        period = 5480 * fft_size // 256
        assert run("generate", "--out", path, "--fft-size", fft_size, "--cell", 123,
                   "--bursts", 4, "--burst-period", period, "--snr-db", 10,
                   "--seed", 1) == EXIT_OK
        assert run("detect", "--in", path, "--fft-size", fft_size, "--out", det) == EXIT_OK
        report = read_json_object(det, "report")
        assert report["cell_id"]["cell"] == 123 and report["cell_id_conflict"] is False
        timings = [b["timing_sample"] for b in report["bursts"]]
        assert len(timings) == 4
        assert np.abs(np.subtract(timings, 1000 + period * np.arange(4))).max() <= 1


class TestDetect:
    def test_noise_only_exit_2(self, tmp_path):
        path = tmp_path / "noise.iq"
        assert run(
            "generate", "--out", path, "--bursts", 0, "--snr-db", 0, "--seed", 5,
            "--lead-in", 50000, "--tail", 50000,
        ) == EXIT_OK
        report_path = tmp_path / "det.json"
        assert run("detect", "--in", path, "--out", report_path) == EXIT_NO_FINDINGS
        assert read_json_object(report_path, "report")["bursts"] == []

    def test_truncated_iq_file_exit_1(self, tmp_path, cell3_capture):
        data = cell3_capture.read_bytes()
        cell3_capture.write_bytes(data[:-4])
        assert run("detect", "--in", cell3_capture) == EXIT_ERROR

    def test_malformed_sidecar_exit_1(self, tmp_path, cell3_capture):
        sidecar_file = cell3_capture.with_name(cell3_capture.name + ".json")
        raw = json.loads(sidecar_file.read_text())
        del raw["sample_rate_hz"]
        sidecar_file.write_text(json.dumps(raw))
        assert run("detect", "--in", cell3_capture) == EXIT_ERROR

    @pytest.mark.parametrize("scale", [0, -1])
    def test_non_positive_sidecar_scale_exit_1(self, cell3_capture, capsys, scale):
        sidecar_file = cell3_capture.with_name(cell3_capture.name + ".json")
        raw = json.loads(sidecar_file.read_text())
        raw["scale"] = scale
        sidecar_file.write_text(json.dumps(raw))
        assert run("detect", "--in", cell3_capture) == EXIT_ERROR
        assert f"error: scale must be finite and > 0, got {float(scale)}" in capsys.readouterr().err

    def test_missing_input_flag(self):
        assert run("detect") == EXIT_ERROR

    def test_sample_rate_mismatch_exit_1(self, tmp_path, cell3_capture, capsys):
        det = tmp_path / "det.json"
        assert run("detect", "--in", cell3_capture, "--out", det) == EXIT_OK
        assert run("detect", "--in", cell3_capture, "--fft-size", 512) == EXIT_ERROR
        assert run(
            "exposure", "--capture", cell3_capture, "--detection", det, "--fft-size", 512,
        ) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("7.68e+06 Hz") == 2
        assert err.count("1.536e+07 Hz") == 2


class TestExposure:
    def test_report_values(self, tmp_path, cell3_capture):
        det = tmp_path / "det.json"
        assert run("detect", "--in", cell3_capture, "--out", det) == EXIT_OK
        out = tmp_path / "exp.json"
        code = run(
            "exposure", "--capture", cell3_capture, "--detection", det,
            "--rb-count", 100, "--duty", 0.75, "--out", out,
        )
        assert code == EXIT_OK
        report = read_json_object(out, "report")
        assert abs(report["per_signal_re_power_db"]["sss"]) <= 0.05
        assert report["extrapolated_power_db"] == pytest.approx(29.54, abs=0.01)
        assert report["target_check"]["mode"] == "conducted"
        assert report["config"]["duty"] == 0.75
        budget = report["uncertainty"]
        assert all(c["placeholder"] for c in budget["components"])

    def test_ota_target_failure_reported(self, tmp_path, cell3_capture):
        det = tmp_path / "det.json"
        run("detect", "--in", cell3_capture, "--out", det)
        out = tmp_path / "exp.json"
        # inflate the budget via config file: coverage factor 40 pushes the
        # expanded uncertainty past the 0.5 dB OTA bar
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "ota", "coverage_k": 40.0}))
        assert run(
            "exposure", "--capture", cell3_capture, "--detection", det,
            "--config", cfg, "--out", out,
        ) == EXIT_OK
        report = read_json_object(out, "report")
        assert report["uncertainty"]["expanded_db"] > 0.5
        assert report["target_check"]["passed"] is False

    @pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
    def test_bad_coverage_factor_exit_1(self, tmp_path, cell3_capture, capsys, k):
        det = tmp_path / "det.json"
        assert run("detect", "--in", cell3_capture, "--out", det) == EXIT_OK
        out = tmp_path / "exp.json"
        code = run("exposure", "--capture", cell3_capture, "--detection", det,
                   "--coverage-k", k, "--out", out)
        assert code == EXIT_ERROR
        assert "error: coverage factor must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where, value, message", [
        ("timing_sample", 1.5, "bursts[0].timing_sample must be a whole number >= 0, got 1.5"),
        ("timing_sample", True, "bursts[0].timing_sample must be a whole number >= 0, got True"),
        ("timing_sample", -5, "bursts[0].timing_sample must be a whole number >= 0, got -5"),
        ("i_ssb_bar", 9, "bursts[0].i_ssb_bar must be a whole number in 0..7, got 9"),
        ("i_ssb_bar", 2.7, "bursts[0].i_ssb_bar must be a whole number in 0..7, got 2.7"),
        ("cell_id_conflict", "no", "cell_id_conflict must be true or false, got 'no'"),
        ("cell", 4, "cell_id.cell must be 3*n1 + n2 = 3, got 4"),
        ("cfo_hz", None, "cfo_hz must be a finite number, got None"),
        ("pss", None, "bursts[0].metrics.pss must be a finite number, got None"),
    ], ids=["timing-1.5", "timing-true", "timing-negative", "i_ssb_bar-9", "i_ssb_bar-2.7",
            "conflict-string", "cell-not-3n1+n2", "cfo-null", "metric-null"])
    def test_bad_detection_field_exit_1(self, tmp_path, capsys, cell3_capture, where, value,
                                        message):
        det = tmp_path / "det.json"
        assert run("detect", "--in", cell3_capture, "--out", det) == EXIT_OK
        report = json.loads(det.read_text())
        burst = report["bursts"][0]
        {"timing_sample": burst, "i_ssb_bar": burst, "pss": burst["metrics"],
         "cell": report["cell_id"]}.get(where, report)[where] = value
        det.write_text(json.dumps(report))
        out = tmp_path / "exp.json"
        assert run("exposure", "--capture", cell3_capture, "--detection", det,
                   "--out", out) == EXIT_ERROR
        assert f"error: detection report {det}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_detection_exit_2(self, tmp_path):
        noise = tmp_path / "noise.iq"
        run("generate", "--out", noise, "--bursts", 0, "--snr-db", 0)
        det = tmp_path / "det.json"
        run("detect", "--in", noise, "--out", det)
        assert run(
            "exposure", "--capture", noise, "--detection", det,
            "--out", tmp_path / "exp.json",
        ) == EXIT_NO_FINDINGS


class TestSound:
    def make_two_path_sweep(self, path):
        n, df = 201, 10e6
        freqs = 100e9 + df * np.arange(n)
        t1, t2 = 20 / (n * df), 60 / (n * df)
        h = np.exp(-2j * np.pi * freqs * t1) + 0.5 * np.exp(-2j * np.pi * freqs * t2)
        write_sweep_csv(path, FrequencySweep(freqs=freqs, h=h))
        return t1, t2

    def test_two_path_pdp(self, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        t1, t2 = self.make_two_path_sweep(sweep_path)
        out = tmp_path / "pdp.csv"
        assert run("sound", "--in", sweep_path, "--out", out, "--pad", 4) == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "delay_s,power_db"
        delays, power = [], []
        for row in rows[1:]:
            d, p = row.split(",")
            delays.append(float(d))
            power.append(float(p))
        power = np.array(power)
        from scipy.signal import find_peaks

        peaks, _ = find_peaks(power, height=-10.0, distance=8)
        assert peaks.size == 2
        found = sorted(delays[i] for i in peaks)
        assert found[0] == pytest.approx(t1, abs=1 / (201 * 10e6 * 4))
        assert found[1] == pytest.approx(t2, abs=1 / (201 * 10e6 * 4))

    def test_flat_sweep_peak_at_zero(self, tmp_path):
        sweep_path = tmp_path / "flat.csv"
        freqs = 1e9 + 1e6 * np.arange(64)
        write_sweep_csv(sweep_path, FrequencySweep(freqs=freqs, h=np.ones(64)))
        out = tmp_path / "pdp.csv"
        assert run("sound", "--in", sweep_path, "--out", out, "--window",
                   "rectangular", "--pad", 1) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def make_broadside_scan(self, tmp_path):
        """Eight element sweeps of a broadside path and their geometry file."""
        n, df = 101, 10e6
        freqs = 100e9 + df * np.arange(n)
        c = 299792458.0
        spacing = c / 100e9 / 2
        positions = [[(m - 3.5) * spacing, 0.0, 0.0] for m in range(8)]
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"elements": positions}))
        paths = []
        tau = 10 / (n * df)
        for m in range(8):
            h = np.exp(-2j * np.pi * freqs * tau)  # broadside: no per-element delay
            p = tmp_path / f"el{m}.csv"
            write_sweep_csv(p, FrequencySweep(freqs=freqs, h=h))
            paths.append(p)
        return paths, geo

    def test_aoa_broadside(self, tmp_path):
        paths, geo = self.make_broadside_scan(tmp_path)
        aoa_out = tmp_path / "aoa.csv"
        assert run(
            "sound", "--in", *paths, "--aoa", "--geometry", geo,
            "--out", tmp_path / "pdp.csv", "--aoa-out", aoa_out, "--pad", 1,
        ) == EXIT_OK
        rows = aoa_out.read_text().splitlines()
        body = [r.split(",") for r in rows[1:]]
        angles = [float(r[0]) for r in body]
        matrix = np.array([[float(v) if v else np.nan for v in r[1:]] for r in body])
        best_angle = angles[int(np.nanargmax(np.nanmax(matrix, axis=1)))]
        assert best_angle == 0.0

    def test_inputs_from_config_file(self, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        self.make_two_path_sweep(sweep_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(sweep_path), "pad": 2.0}))
        assert run("sound", "--config", cfg) == EXIT_OK
        assert (tmp_path / "sweep.csv.pdp.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--angle-step", 0), ("--angle-step", -1), ("--angle-step", "nan"),
        ("--angle-start", "inf"), ("--angle-stop", "nan"),
    ])
    def test_bad_angle_grid_exit_1(self, tmp_path, capsys, flag, value):
        paths, geo = self.make_broadside_scan(tmp_path)
        aoa_out = tmp_path / "aoa.csv"
        assert run(
            "sound", "--in", *paths, "--aoa", "--geometry", geo, flag, value,
            "--out", tmp_path / "pdp.csv", "--aoa-out", aoa_out,
        ) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: angle grid needs a finite start and stop and a finite step > 0" in err
        assert "Traceback" not in err
        assert not aoa_out.exists()

    def test_two_point_sweep_with_hann_exit_1(self, tmp_path, capsys):
        sweep_path = tmp_path / "two.csv"
        write_sweep_csv(sweep_path, FrequencySweep(freqs=[1e9, 1.001e9], h=[1.0, 0.5j]))
        out = tmp_path / "pdp.csv"
        assert run("sound", "--in", sweep_path, "--out", out) == EXIT_ERROR
        assert "error: a hann window over 2 points is all zeros" in capsys.readouterr().err
        assert not out.exists()
        assert run("sound", "--in", sweep_path, "--out", out, "--window", "hamming") == EXIT_OK

    @pytest.mark.parametrize("case", ["angle-step-0", "deembed-no-pattern",
                                      "grid-wider-than-pattern", "nan-in-geometry",
                                      "string-in-geometry"])
    def test_failed_aoa_run_writes_no_file(self, tmp_path, capsys, case):
        paths, geo = self.make_broadside_scan(tmp_path)
        extra, message = {
            "angle-step-0": (["--angle-step", 0], "angle grid needs"),
            "deembed-no-pattern": (["--deembed"], "needs a scan with an antenna pattern"),
            "grid-wider-than-pattern": (["--deembed"], "does not cover the requested angles"),
            "nan-in-geometry": ([], "is not valid JSON: NaN is not a JSON number"),
            "string-in-geometry": ([], "geometry 'elements' must be a list of [x, y, z] rows "
                                       "of numbers"),
        }[case]
        geometry = json.loads(geo.read_text())
        if case == "grid-wider-than-pattern":
            geometry["pattern"] = [[a, 0.0, 0.0] for a in (-30.0, 0.0, 30.0)]
        elif case == "nan-in-geometry":
            geometry["elements"][0][0] = float("nan")  # json.dumps writes NaN
        elif case == "string-in-geometry":
            geometry["elements"][1][0] = "0.001"  # once read as the number 0.001
        geo.write_text(json.dumps(geometry))
        out, aoa_out = tmp_path / "pdp.csv", tmp_path / "aoa.csv"
        assert run(
            "sound", "--in", *paths, "--aoa", "--geometry", geo, *extra,
            "--out", out, "--aoa-out", aoa_out,
        ) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not aoa_out.exists()

    @pytest.mark.parametrize("case, message", [
        ("pattern-gain-1e400", "is not valid JSON: 1e400 overflows a float"),
        ("element-1e400", "is not valid JSON: 1e400 overflows a float"),
        ("pattern-gain-past-float-range", "pattern angles and gains must be finite"),
    ])
    def test_overflowing_geometry_exit_1(self, tmp_path, capsys, case, message):
        # JSON reads 1e400 as inf, which once left AoA rows empty and exited 0
        paths, geo = self.make_broadside_scan(tmp_path)
        geometry = json.loads(geo.read_text())
        geometry["pattern"] = [[a, 0.0, 0.0] for a in range(-90, 91)]
        if case == "element-1e400":
            geometry["elements"][3][0] = "HUGE"
        else:
            geometry["pattern"][90][1] = "HUGE"
        huge = "1e300" if case == "pattern-gain-past-float-range" else "1e400"
        geo.write_text(json.dumps(geometry).replace('"HUGE"', huge))
        out, aoa_out = tmp_path / "pdp.csv", tmp_path / "aoa.csv"
        assert run(
            "sound", "--in", *paths, "--aoa", "--deembed", "--geometry", geo,
            "--out", out, "--aoa-out", aoa_out,
        ) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not aoa_out.exists()

    @pytest.mark.parametrize("column, message", [
        ("freq_hz", "sweep contains non-finite frequencies"),
        ("pilot_re", "pilot contains non-finite values"),
    ])
    def test_nan_in_sweep_exit_1(self, tmp_path, capsys, column, message):
        sweep_path = tmp_path / "sweep.csv"
        freqs = 1e9 + 1e6 * np.arange(16)
        write_sweep_csv(sweep_path, FrequencySweep(freqs=freqs, h=np.ones(16),
                                                   pilot=np.ones(16, complex)))
        rows = list(csv.DictReader(sweep_path.read_text().splitlines()))
        rows[5][column] = "nan"
        with open(sweep_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "pdp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sound", "--in", sweep_path, "--out", out) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_element_count(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.csv"
        self.make_two_path_sweep(sweep_path)
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"elements": [[0, 0, 0], [0.001, 0, 0]]}))
        out, aoa_out = tmp_path / "pdp.csv", tmp_path / "aoa.csv"
        assert run(
            "sound", "--in", sweep_path, "--aoa", "--geometry", geo,
            "--out", out, "--aoa-out", aoa_out,
        ) == EXIT_ERROR
        assert ("error: one sweep per element position required: got 1 sweeps for 2 elements"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not aoa_out.exists()


# the readers and layers that a command with a bad output location must not reach
INPUT_READERS_AND_LAYERS = (
    "nrlab.io.read_capture", "nrlab.io.read_detection_report", "nrlab.io.read_sweep_csv",
    "nrlab.io.read_geometry", "nrlab.detector.enumerate_ssb_bursts",
    "nrlab.exposure.measure_exposure", "nrlab.sounding.aoa_delay_profile",
)


class TestOutputChecks:
    """Every output location is checked, and --geometry required with --aoa,
    before any input is read or any layer runs."""

    # "exposure-no-bursts" exited 2 ("nothing to measure") when the location
    # was checked last
    @pytest.mark.parametrize("case", ["detect", "exposure", "exposure-no-bursts", "sound",
                                      "sound-aoa", "sound-aoa-without-geometry"])
    def test_fails_before_any_input_is_read(self, tmp_path, capsys, cell3_capture, case):
        burst = SsbBurst(timing=1000, i_ssb_bar=0, pss_metric=1.0, sss_metric=1.0,
                         dmrs_metric=1.0)
        det = tmp_path / "det.json"
        bursts = [] if case == "exposure-no-bursts" else [burst]
        write_detection_report(det, DetectionResult(CellId.from_cell(3), bursts), {})
        sweeps = [tmp_path / "el0.csv", tmp_path / "el1.csv"]
        for path in sweeps:
            write_sweep_csv(path, FrequencySweep(1e9 + 1e6 * np.arange(16), np.ones(16)))
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"elements": [[0, 0, 0], [0.001, 0, 0]]}))
        missing, pdp, aoa = tmp_path / "missing", tmp_path / "pdp.csv", tmp_path / "aoa.csv"
        exposure = ["exposure", "--capture", cell3_capture, "--detection", det,
                    "--out", missing / "exp.json"]
        argv = {
            "detect": ["detect", "--in", cell3_capture, "--out", missing / "det.json"],
            "exposure": exposure,
            "exposure-no-bursts": exposure,
            "sound": ["sound", "--in", *sweeps, "--out", missing / "pdp.csv"],
            "sound-aoa": ["sound", "--in", *sweeps, "--aoa", "--geometry", geo,
                          "--out", pdp, "--aoa-out", missing / "aoa.csv"],
            "sound-aoa-without-geometry": ["sound", "--in", *sweeps, "--aoa",
                                           "--out", pdp, "--aoa-out", aoa],
        }[case]
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch(target, side_effect=AssertionError(target)))
                     for target in INPUT_READERS_AND_LAYERS]
            assert run(*argv) == EXIT_ERROR
        message = ("--geometry is required with --aoa" if case.endswith("without-geometry")
                   else "output directory does not exist")
        assert message in capsys.readouterr().err
        assert not any(spy.called for spy in spies)
        assert not pdp.exists() and not aoa.exists()


class TestOtasim:
    def test_wireless_cable_isolation(self, tmp_path):
        out = tmp_path / "wc.json"
        assert run("otasim", "wireless-cable", "--ports", 4, "--seed", 3,
                   "--out", out) == EXIT_OK
        report = read_json_object(out, "report")
        assert report["isolation_db"] >= 30.0
        assert len(report["estimated_matrix"]) == 4

    def test_config_echo_holds_the_values_that_ran(self, tmp_path):
        # only measured dB values are rounded; the echo replays the run
        out = tmp_path / "wc.json"
        assert run("otasim", "wireless-cable", "--ports", 4, "--seed", 3,
                   "--snr-db", 12.345, "--out", out) == EXIT_OK
        report = read_json_object(out, "report")
        assert report["config"]["snr_db"] == 12.345
        assert report["isolation_db"] == round(report["isolation_db"], 2)

    def test_rc_seed_determinism(self, tmp_path):
        out = tmp_path / "rc.json"
        assert run("otasim", "rc", "--seed", 11, "--keyhole", "--out", out) == EXIT_OK
        first = out.read_bytes()
        assert run("otasim", "rc", "--seed", 11, "--keyhole", "--out", out) == EXIT_OK
        assert out.read_bytes() == first

    def test_non_finite_tap_spacing_exit_1(self, tmp_path, capsys):
        out = tmp_path / "rc.json"
        assert run("otasim", "rc", "--tap-spacing", "inf", "--out", out) == EXIT_ERROR
        assert "tap_spacing must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_value_written_as_null(self, tmp_path):
        # a burst placed in the silent lead-in despreads to zero power in
        # every class, whose dB values are -inf
        capture = tmp_path / "quiet.iq"
        assert run("generate", "--out", capture, "--lead-in", 3000) == EXIT_OK
        det = tmp_path / "det.json"
        burst = SsbBurst(timing=0, i_ssb_bar=0, pss_metric=1.0, sss_metric=1.0, dmrs_metric=1.0)
        write_detection_report(det, DetectionResult(CellId(n1=0, n2=0), [burst], cfo=0.0), {})
        out = tmp_path / "exp.json"
        assert run("exposure", "--capture", capture, "--detection", det, "--out", out) == EXIT_OK

        def reject(constant):
            raise ValueError(f"report holds non-standard JSON constant {constant}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert set(report["per_signal_re_power_db"].values()) == {None}
        assert report["extrapolated_power_db"] is None


class TestConfigangling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cell": 5, "bursts": 2, "seed": 9}))
        out = tmp_path / "cap.iq"
        assert run("generate", "--config", cfg, "--out", out, "--cell", 8) == EXIT_OK
        sidecar = read_sidecar(out)
        assert sidecar["generator_config"]["cell"] == 8  # flag wins
        assert sidecar["generator_config"]["bursts"] == 2  # config wins over default
        assert sidecar["seed"] == 9

    @pytest.mark.parametrize("config", [
        {"bursts": True}, {"cell": 3.9}, {"l_max": 6}, {"seed": None}, {"out": 5},
    ])
    def test_mistyped_config_values_rejected(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.iq"
        assert run("generate", "--config", cfg, "--out", out) == EXIT_ERROR
        assert not out.exists()
        assert repr(next(iter(config))) in capsys.readouterr().err

    def test_config_values_echoed_as_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cell": 3.0, "re_power": 2, "bursts": 2}))
        out = tmp_path / "cap.iq"
        assert run("generate", "--config", cfg, "--out", out) == EXIT_OK
        echoed = read_sidecar(out)["generator_config"]
        assert echoed["cell"] == 3 and type(echoed["cell"]) is int
        assert echoed["re_power"] == 2.0 and type(echoed["re_power"]) is float

    def test_null_config_value_is_the_default(self, tmp_path):
        # JSON null for an option whose default is None runs as the default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": None, "bursts": 2}))
        with_null, without = tmp_path / "null.iq", tmp_path / "plain.iq"
        assert run("generate", "--config", cfg, "--out", with_null) == EXIT_OK
        assert run("generate", "--bursts", 2, "--out", without) == EXIT_OK
        assert with_null.read_bytes() == without.read_bytes()
        assert read_sidecar(with_null)["generator_config"]["snr_db"] is None

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": 5}))
        assert run("generate", "--config", cfg, "--out", tmp_path / "x.iq") == EXIT_ERROR

    def test_effective_config_echoed(self, tmp_path, cell3_capture):
        report_path = tmp_path / "det.json"
        run("detect", "--in", cell3_capture, "--out", report_path, "--threshold", 0.4)
        config = read_json_object(report_path, "report")["config"]
        assert config["threshold"] == 0.4
        assert config["fft_size"] == 256  # defaults resolved into the echo
        assert config["mu"] == 1


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ("detect", "--threshold", "abc"),
        ("detect", "--no-such-flag"),
        ("otasim", "--out", "x.json"),
        (),
        ("otasim", "rc", "--cancel-demo", "--out", "x.json"),
        ("otasim", "rc", "--epsilon", "1e-3", "--out", "x.json"),
    ])
    def test_usage_errors_exit_1(self, argv):
        assert run(*argv) == EXIT_ERROR

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("detect", "--help")])
    def test_help_and_version_exit_0(self, argv):
        assert run(*argv) == EXIT_OK

    def test_cp_len_is_not_an_option(self, tmp_path, cell3_capture, capsys):
        # the CP follows from the FFT size; a wrong one once gave a wrong cell with exit 0
        det = tmp_path / "det.json"
        assert run("detect", "--in", cell3_capture, "--out", det) == EXIT_OK
        for argv in (("generate", "--out", tmp_path / "x.iq"),
                     ("detect", "--in", cell3_capture, "--out", tmp_path / "d.json"),
                     ("exposure", "--capture", cell3_capture, "--detection", det,
                      "--out", tmp_path / "e.json")):
            assert run(*argv, "--cp-len", 20) == EXIT_ERROR
            assert "unrecognized arguments: --cp-len 20" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cp_len": 18}))
        assert run("detect", "--in", cell3_capture, "--config", cfg) == EXIT_ERROR
        assert f"config file {cfg} has unknown keys: cp_len" in capsys.readouterr().err
        cfg.unlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell3.iq", "cell3.iq.json",
                                                              "det.json"]
        assert "cp_len" not in read_sidecar(cell3_capture)["generator_config"]
        assert "cp_len" not in read_json_object(det, "report")["config"]

    @pytest.mark.parametrize("key", ["n1", "n2"])
    def test_cell_halves_are_not_options(self, tmp_path, capsys, key):
        # `--cell 7 --n1 10 --n2 1` once wrote cell 31 with exit 0
        out = tmp_path / "x.iq"
        assert run("generate", "--out", out, "--cell", 7, f"--{key}", 1) == EXIT_ERROR
        assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert run("generate", "--out", out, "--config", cfg) == EXIT_ERROR
        assert f"config file {cfg} has unknown keys: {key}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_detect_rejects_seed(self, tmp_path, cell3_capture):
        assert run("detect", "--in", cell3_capture, "--seed", 1) == EXIT_ERROR
        assert not (tmp_path / "cell3.iq.detection.json").exists()


def run_probe(code, *argv):
    """Stdout of `code` run in a fresh interpreter that imports this nrlab."""
    env = dict(os.environ, PYTHONPATH=str(Path(nrlab.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return out.stdout


# Runs the CLI, then prints its exit code, whether numpy was loaded and the
# nrlab modules that were.
CLI_PROBE = (
    "import sys; from nrlab.cli import main; code = main(sys.argv[1:]); "
    "print(code, 'numpy' in sys.modules, *sorted(m for m in sys.modules if m.startswith('nrlab.')))"
)
# Every layer: `import *` loads each module named in nrlab.__all__.
IMPORT_ALL = "import sys, threading, nrlab.cli, nrlab.io; from nrlab import *; "


@pytest.fixture(scope="module")
def cli_argv(tmp_path_factory):
    """A successful call of each command, on inputs written here."""
    d = tmp_path_factory.mktemp("cli")
    capture, detection = d / "c.iq", d / "c.det.json"
    assert run("generate", "--out", capture, "--bursts", 2) == EXIT_OK
    assert run("detect", "--in", capture, "--out", detection) == EXIT_OK
    sweeps, geometry = TestSound().make_broadside_scan(d)
    return {
        "generate": ("generate", "--out", d / "g.iq", "--bursts", 2),
        "detect": ("detect", "--in", capture, "--out", d / "d.json"),
        "exposure": ("exposure", "--capture", capture, "--detection", detection,
                     "--out", d / "e.json"),
        "sound": ("sound", "--in", *sweeps, "--aoa", "--geometry", geometry,
                  "--out", d / "pdp.csv", "--aoa-out", d / "aoa.csv"),
        "otasim": ("otasim", "wireless-cable", "--out", d / "wc.json"),
    }


class TestImports:
    def test_import_loads_no_scipy(self):
        # scipy, pytest and hypothesis are test-only dependencies; importing
        # the package, its CLI and every layer in a fresh interpreter must
        # not pull in any of them.
        probe = IMPORT_ALL + (
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'pytest', 'hypothesis')))"
        )
        assert run_probe(probe).strip() == "[]"

    def test_import_starts_no_thread(self):
        # the AoA map's worker pool is made inside the call; importing the
        # CLI and every layer starts no thread and loads no concurrent.futures
        probe = IMPORT_ALL + (
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        assert run_probe(probe).split() == ["1", "False"]

    @pytest.mark.parametrize("command, layers", [
        ("generate", "io sequences types waveform"),
        ("detect", "detector io sequences types waveform"),
        ("exposure", "detector exposure io sequences types waveform"),
        ("sound", "io sounding types"),
        ("otasim", "io otasim sounding types"),
    ])
    def test_command_loads_only_its_layers(self, cli_argv, command, layers):
        code, _, *loaded = run_probe(CLI_PROBE, *cli_argv[command]).split()
        assert code == str(EXIT_OK)
        assert sorted(loaded) == sorted(["nrlab.cli", *(f"nrlab.{m}" for m in layers.split())])

    @pytest.mark.parametrize("argv, code", [
        (("--version",), EXIT_OK),
        (("--help",), EXIT_OK),
        (("detect", "--no-such-flag"), EXIT_ERROR),
    ])
    def test_no_numpy_before_a_command_runs(self, argv, code):
        last = run_probe(CLI_PROBE, *argv).splitlines()[-1]
        assert last.split() == [str(code), "False", "nrlab.cli"]

    def test_every_public_name_resolves(self):
        assert set(nrlab.__all__) <= set(dir(nrlab))
        for name in nrlab.__all__:
            assert getattr(nrlab, name) is not None
        assert nrlab.detect_pss is nrlab.detector.detect_pss
        namespace = {}
        exec("from nrlab import *", namespace)
        assert set(nrlab.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            nrlab.no_such_name

    def test_detection_and_pdp_load_no_numpy_ma(self):
        # np.median's NaN check imports numpy.ma, 8-10 ms of a fresh process
        # on a 2-core x86 host
        probe = (
            "import sys, numpy as np, nrlab; params = nrlab.OfdmParams(); "
            "cfg = nrlab.SsbConfig(nrlab.CellId.from_cell(3), burst_count=2, burst_period=2200); "
            "assert nrlab.enumerate_ssb_bursts(nrlab.synthesize_bursts(cfg, params), params).bursts; "
            "sweep = nrlab.FrequencySweep(freqs=1e9 + 1e6 * np.arange(64), h=np.ones(64)); "
            "cir = nrlab.sweep_to_cir(sweep); nrlab.cir_to_pdp(cir); "
            "nrlab.cancel_rc_decay(cir, cir, 1e-3); print('numpy.ma' in sys.modules)"
        )
        assert run_probe(probe).strip() == "False"
