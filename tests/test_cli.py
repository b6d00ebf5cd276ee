import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nrlab
from nrlab.cli import EXIT_ERROR, EXIT_NO_FINDINGS, EXIT_OK, main
from nrlab.io import read_json_object, read_sidecar, write_sweep_csv
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

    def test_sidecar_metadata(self, tmp_path, cell3_capture):
        sidecar = read_sidecar(cell3_capture)
        assert sidecar["sample_rate_hz"] == pytest.approx(256 * 30e3)
        assert sidecar["seed"] == 1
        assert sidecar["generator_config"]["cell"] == 3

    def test_unwritable_path_fails(self, tmp_path):
        assert run("generate", "--out", tmp_path / "nope" / "x.iq") == EXIT_ERROR


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
                                      "grid-wider-than-pattern"])
    def test_failed_aoa_run_writes_no_file(self, tmp_path, capsys, case):
        paths, geo = self.make_broadside_scan(tmp_path)
        extra, message = {
            "angle-step-0": (["--angle-step", 0], "angle grid needs"),
            "deembed-no-pattern": (["--deembed"], "needs a scan with an antenna pattern"),
            "grid-wider-than-pattern": (["--deembed"], "does not cover the requested angles"),
        }[case]
        if case == "grid-wider-than-pattern":
            geometry = json.loads(geo.read_text())
            geometry["pattern"] = [[a, 0.0, 0.0] for a in (-30.0, 0.0, 30.0)]
            geo.write_text(json.dumps(geometry))
        out, aoa_out = tmp_path / "pdp.csv", tmp_path / "aoa.csv"
        assert run(
            "sound", "--in", *paths, "--aoa", "--geometry", geo, *extra,
            "--out", out, "--aoa-out", aoa_out,
        ) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not aoa_out.exists()

    def test_wrong_element_count(self, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        self.make_two_path_sweep(sweep_path)
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"elements": [[0, 0, 0], [0.001, 0, 0]]}))
        assert run(
            "sound", "--in", sweep_path, "--aoa", "--geometry", geo,
            "--out", tmp_path / "pdp.csv",
        ) == EXIT_ERROR


class TestOtasim:
    def test_wireless_cable_isolation(self, tmp_path):
        out = tmp_path / "wc.json"
        assert run("otasim", "wireless-cable", "--ports", 4, "--seed", 3,
                   "--out", out) == EXIT_OK
        report = read_json_object(out, "report")
        assert report["isolation_db"] >= 30.0
        assert len(report["estimated_matrix"]) == 4

    def test_rc_seed_determinism(self, tmp_path):
        out = tmp_path / "rc.json"
        assert run("otasim", "rc", "--seed", 11, "--keyhole", "--out", out) == EXIT_OK
        first = out.read_bytes()
        assert run("otasim", "rc", "--seed", 11, "--keyhole", "--out", out) == EXIT_OK
        assert out.read_bytes() == first

    def test_rc_cancellation_demo(self, tmp_path):
        out = tmp_path / "rc.json"
        assert run("otasim", "rc", "--cancel-demo", "--out", out) == EXIT_OK
        report = read_json_object(out, "report")
        demo = report["cancellation"]
        assert demo["out_of_bin_before_db"] > -5.0
        assert demo["out_of_bin_after_db"] <= -20.0

    def test_non_finite_value_written_as_null(self, tmp_path):
        out = tmp_path / "rc.json"
        assert run("otasim", "rc", "--cancel-demo", "--epsilon", 1e-12, "--out", out) == EXIT_OK

        def reject(constant):
            raise ValueError(f"report holds non-standard JSON constant {constant}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["cancellation"]["out_of_bin_after_db"] is None


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
    ])
    def test_usage_errors_exit_1(self, argv):
        assert run(*argv) == EXIT_ERROR

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("detect", "--help")])
    def test_help_and_version_exit_0(self, argv):
        assert run(*argv) == EXIT_OK

    def test_detect_rejects_seed(self, tmp_path, cell3_capture):
        assert run("detect", "--in", cell3_capture, "--seed", 1) == EXIT_ERROR
        assert not (tmp_path / "cell3.iq.detection.json").exists()


class TestImports:
    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency; importing the package and its CLI
        # in a fresh interpreter must not pull in any of it.
        env = dict(os.environ, PYTHONPATH=str(Path(nrlab.__file__).parents[1]))
        probe = (
            "import sys, nrlab, nrlab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"
