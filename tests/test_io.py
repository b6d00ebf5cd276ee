import csv
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nrlab import CellId, DetectionResult, FrequencySweep, IqCapture, SsbBurst
from nrlab.io import (
    read_capture,
    read_detection_report,
    read_geometry,
    read_json_object,
    read_sidecar,
    read_sweep_csv,
    sidecar_path,
    write_aoa_csv,
    write_capture,
    write_detection_report,
    write_geometry,
    write_report,
    write_sweep_csv,
)
from nrlab.sounding import AntennaPattern, AoaDelayProfile


def sample_capture():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    return IqCapture(samples, sample_rate=7.68e6, center_freq=3.5e9, scale=0.5)


class TestCaptureFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cap.iq"
        capture = sample_capture()
        write_capture(path, capture, seed=7)
        back, sidecar = read_capture(path)
        # float32 on disk: relative error bounded by single precision
        assert_allclose(back.samples, capture.samples, rtol=1e-6, atol=1e-6)
        assert back.sample_rate == capture.sample_rate
        assert back.center_freq == capture.center_freq
        assert back.scale == capture.scale
        assert sidecar["seed"] == 7

    def test_interleaved_little_endian_floats(self, tmp_path):
        path = tmp_path / "cap.iq"
        capture = IqCapture(np.array([1 + 2j, 3 - 4j]), 1e6)
        write_capture(path, capture)
        raw = np.fromfile(path, dtype="<f4")
        assert_array_equal(raw, np.array([1, 2, 3, -4], dtype="<f4"))

    def test_odd_float_count_rejected(self, tmp_path):
        path = tmp_path / "cap.iq"
        write_capture(path, sample_capture())
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # drop one float
        with pytest.raises(ValueError, match="odd"):
            read_capture(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "cap.iq"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="sidecar"):
            read_capture(path)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("sample_rate_hz"), "sample_rate_hz"),
            (lambda d: d.update(scale="wide"), "scale"),
            (lambda d: d.update(created_by=3), "created_by"),
            (lambda d: d.update(seed="abc"), "seed"),
            (lambda d: d.update(seed=True), "'seed' must be an integer"),
        ],
    )
    def test_field_level_sidecar_errors(self, tmp_path, mutate, message):
        path = tmp_path / "cap.iq"
        write_capture(path, sample_capture(), seed=1)
        sidecar = json.loads(sidecar_path(path).read_text())
        mutate(sidecar)
        sidecar_path(path).write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=message):
            read_capture(path)

    def test_unknown_keys_preserved_on_rewrite(self, tmp_path):
        path = tmp_path / "cap.iq"
        write_capture(path, sample_capture(), extra={"operator": "bench-2", "run": 17})
        sidecar = read_sidecar(path)
        write_capture(path, sample_capture(), seed=99, extra=sidecar)
        back = read_sidecar(path)
        assert back["operator"] == "bench-2"
        assert back["run"] == 17
        assert back["seed"] == 99

    def test_sidecar_bytes(self, tmp_path):
        # sorted keys, 2-space indent, floats in full; a non-finite extra is null
        path = tmp_path / "cap.iq"
        write_capture(path, sample_capture(), seed=3, extra={"snr_db": 12.345, "gain": np.inf})
        want = {"center_freq_hz": 3.5e9, "created_by": "nrlab", "gain": None,
                "sample_rate_hz": 7.68e6, "scale": 0.5, "seed": 3, "snr_db": 12.345}
        assert sidecar_path(path).read_text() == json.dumps(want, indent=2) + "\n"
        assert read_sidecar(path) == want

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.iq", tmp_path / "b.iq"
        write_capture(a, sample_capture(), seed=3)
        write_capture(b, sample_capture(), seed=3)
        assert a.read_bytes() == b.read_bytes()
        assert sidecar_path(a).read_text() == sidecar_path(b).read_text()


class TestSweepCsv:
    def test_round_trip_with_pilot(self, tmp_path):
        path = tmp_path / "sweep.csv"
        freqs = 1e9 + 1e6 * np.arange(32)
        rng = np.random.default_rng(2)
        sweep = FrequencySweep(
            freqs=freqs,
            h=rng.standard_normal(32) + 1j * rng.standard_normal(32),
            pilot=np.exp(1j * rng.uniform(0, 1, 32)),
        )
        write_sweep_csv(path, sweep)
        header = path.read_text().splitlines()[0]
        assert header == "freq_hz,re,im,pilot_re,pilot_im"
        back = read_sweep_csv(path)
        assert_allclose(back.freqs, sweep.freqs, rtol=0, atol=0)
        assert_allclose(back.h, sweep.h, rtol=0, atol=0)
        assert_allclose(back.pilot, sweep.pilot, rtol=0, atol=0)

    def test_minimal_columns(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("freq_hz,re,im\n1e9,1.0,0.0\n1.001e9,0.5,-0.5\n")
        sweep = read_sweep_csv(path)
        assert sweep.pilot is None
        assert sweep.h[1] == 0.5 - 0.5j

    def test_timestamp_column_ignored(self, tmp_path):
        # a timestamp_s column, which no computation read, is one more
        # unknown column: its cells, nan and inf included, are not parsed
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        rows = [("1e9", "1.0", "0.0", "1.0", "0.0", "0.0"),
                ("1.001e9", "0.5", "-0.5", "0.0", "1.0", "nan"),
                ("1.002e9", "0.25", "2.0", "-1.0", "0.5", "inf")]
        plain.write_text("freq_hz,re,im,pilot_re,pilot_im\n"
                         + "".join(",".join(r[:5]) + "\n" for r in rows))
        timed.write_text("freq_hz,re,im,pilot_re,pilot_im,timestamp_s\n"
                         + "".join(",".join(r) + "\n" for r in rows))
        want, got = read_sweep_csv(plain), read_sweep_csv(timed)
        for name in ("freqs", "h", "pilot"):
            assert_array_equal(getattr(got, name), getattr(want, name))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("hz,i,q\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            read_sweep_csv(path)

    def test_bad_cell(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("freq_hz,re,im\n1e9,1.0,zero\n1.001e9,1,0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_sweep_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("freq_hz,re,im\n1e9,1.0,0.0\n1.001e9,0.5,-0.5\n")
        spaced.write_text("freq_hz,re,im\n\n1e9,1.0,0.0\n\n1.001e9,0.5,-0.5\n\n")
        want, got = read_sweep_csv(plain), read_sweep_csv(spaced)
        assert_array_equal(got.freqs, want.freqs)
        assert_array_equal(got.h, want.h)


class TestRejectedFiles:
    """A sidecar without its writer, a sidecar number that is not finite JSON
    (rejected by read_json_object, the one owner of finiteness) and an empty
    sweep CSV each fail with the error that names them."""

    @pytest.mark.parametrize("case, message", [
        ("sidecar-without-created-by", "sidecar missing required key 'created_by'"),
        ("sidecar-scale-nan", "is not valid JSON: NaN is not a JSON number"),
        ("sidecar-rate-1e400", "is not valid JSON: 1e400 overflows a float"),
        ("empty-sweep-csv", "is empty"),
    ])
    def test_rejected(self, tmp_path, case, message):
        if case == "empty-sweep-csv":
            path = tmp_path / "sweep.csv"
            path.write_text("")
            with pytest.raises(ValueError, match=message):
                read_sweep_csv(path)
            return
        path = tmp_path / "cap.iq"
        write_capture(path, sample_capture())
        sidecar = json.loads(sidecar_path(path).read_text())
        if case == "sidecar-without-created-by":
            del sidecar["created_by"]
        elif case == "sidecar-scale-nan":
            sidecar["scale"] = float("nan")  # json.dumps writes NaN
        else:
            sidecar["sample_rate_hz"] = "HUGE"
        sidecar_path(path).write_text(json.dumps(sidecar).replace('"HUGE"', "1e400"))
        with pytest.raises(ValueError, match=message):
            read_capture(path)


def reference_write_aoa_csv(path, profile):
    """The per-cell writer: one np.isnan and one f-string per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg"] + [repr(float(d)) for d in profile.delays])
        for a in range(profile.angles_deg.size):
            row = [repr(float(profile.angles_deg[a]))]
            for p in profile.power_db[a]:
                row.append("" if np.isnan(p) else f"{float(p):.2f}")
            writer.writerow(row)


class TestAoaCsv:
    def test_bytes_equal_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        power = rng.uniform(-80.0, 0.0, (7, 33))
        power[2] = np.nan  # a masked angle
        power[4, 5] = -np.inf
        power[4, 6] = -0.004  # rounds to -0.00
        power[5, ::3] = np.nan
        power[6, 0] = 0.0
        profile = AoaDelayProfile(
            angles_deg=np.linspace(-90.0, 90.0, 7),
            delays=np.arange(33) / 3e9,
            power_db=power,
            valid=~np.isnan(power),
        )
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_aoa_csv(got, profile)
        reference_write_aoa_csv(want, profile)
        lines = got.read_bytes().split(b"\r\n")
        assert lines[0].startswith(b"angle_deg,0.0,")
        assert lines[3] == b"-30.0" + b"," * 33
        assert b",-inf,-0.00," in lines[5]
        assert got.read_bytes() == want.read_bytes()


class TestGeometry:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "geo.json"
        elements = np.array([[0.0, 0, 0], [0.0015, 0, 0], [0.003, 0, 0]])
        pattern = AntennaPattern(
            angles_deg=np.array([-90.0, 0.0, 90.0]),
            gain=np.array([0.5, 1.0, 0.5 * 1j]),
        )
        write_geometry(path, elements, pattern)
        back_elements, back_pattern = read_geometry(path)
        assert_allclose(back_elements, elements, atol=0)
        assert_allclose(back_pattern.gain, pattern.gain, atol=1e-12)

    def test_bytes(self, tmp_path):
        path = tmp_path / "geo.json"
        pattern = AntennaPattern(angles_deg=np.array([-90.0, 90.0]), gain=np.array([1.0, 1j]))
        write_geometry(path, np.array([[0.0, 0.5, 0]]), pattern)
        want = {"elements": [[0.0, 0.5, 0.0]], "pattern": [[-90.0, 0.0, 0.0], [90.0, 0.0, 90.0]]}
        assert path.read_text() == json.dumps(want, indent=2) + "\n"

    def test_null_in_pattern_rejected(self, tmp_path):
        path = tmp_path / "geo.json"
        pattern = AntennaPattern(angles_deg=np.array([-90.0, 0.0, 90.0]),
                                 gain=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=r"gain is 0 at 0\.0 deg.*gains in dB"):
            write_geometry(path, np.zeros((1, 3)), pattern)
        assert not path.exists()

    def test_positions_only(self, tmp_path):
        path = tmp_path / "geo.json"
        path.write_text('{"elements": [[0,0,0],[1,0,0]]}')
        elements, pattern = read_geometry(path)
        assert elements.shape == (2, 3)
        assert pattern is None

    @pytest.mark.parametrize("geometry, message", [
        ({"points": []}, "must hold an object with 'elements'"),
        ({"elements": [["0", "0.001", "0"], [0, 0, 0]]}, "'elements' must be a list of"),
        ({"elements": [[True, False, False], [0, 0, 0]]}, "'elements' must be a list of"),
        ({"elements": [[0, 0], [1, 0]]}, "'elements' must be a list of"),
        ({"elements": []}, "'elements' must be a list of"),
        ({"elements": [[0, 0, 0]], "pattern": False}, "'pattern' must be a list of"),
        ({"elements": [[0, 0, 0]], "pattern": 0}, "'pattern' must be a list of"),
        ({"elements": [[0, 0, 0]], "pattern": None}, "'pattern' must be a list of"),
        ({"elements": [[0, 0, 0]], "pattern": [["-90", "0", "0"], ["90", "0", "0"]]},
         "'pattern' must be a list of"),
        ({"elements": [[0, 0, 0]], "pattern": [[-90, 0, True], [90, 0, 0]]},
         "'pattern' must be a list of"),
    ], ids=["no-elements", "element-strings", "element-bools", "element-pairs", "no-rows",
            "pattern-false", "pattern-0", "pattern-null", "pattern-strings", "pattern-bool"])
    def test_malformed(self, tmp_path, geometry, message):
        path = tmp_path / "geo.json"
        path.write_text(json.dumps(geometry))
        with pytest.raises(ValueError, match=message):
            read_geometry(path)


class TestReports:
    def test_db_values_rounded_to_two_decimals(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(
            path,
            {
                "isolation_db": 31.23456,
                "nested": {"margin_db": -0.005678, "power": 0.123456789},
                "items": [{"level_db": 1.0 / 3.0}],
                "per_class_db": {"sss": 5.2e-9, "pss": 1.23456},
            },
        )
        raw = json.loads(path.read_text())
        assert raw["isolation_db"] == 31.23
        assert raw["nested"]["margin_db"] == -0.01
        assert raw["nested"]["power"] == 0.123456789  # linear: full precision
        assert raw["items"][0]["level_db"] == 0.33
        # values nested under a *_db container are dB values too
        assert raw["per_class_db"] == {"sss": 0.0, "pss": 1.23}

    def test_non_finite_floats_written_as_null(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"power_db": -np.inf, "ratio": float("nan"), "items": [np.inf, 1.5]})

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        raw = json.loads(path.read_text(), parse_constant=reject)
        assert raw == {"power_db": None, "ratio": None, "items": [None, 1.5]}

    def test_arrays_and_complex_values(self, tmp_path):
        m = np.array([[1 + 2j, 3 - 0.5j], [-0.0 + 1e-300j, np.inf + 0j]])
        path = tmp_path / "report.json"
        write_report(path, {"m": m, "d": np.array([0.5, np.nan]), "c": 1j,
                            "level_db": np.array([1.23456])})
        raw = json.loads(path.read_text())
        assert raw == {"m": [[[1.0, 2.0], [3.0, -0.5]], [[-0.0, 1e-300], [None, 0.0]]],
                       "d": [0.5, None], "c": [0.0, 1.0], "level_db": [1.23]}
        # the same bytes as the element-by-element lists of Python floats
        by_element = tmp_path / "by_element.json"
        write_report(by_element, {
            "m": [[[float(v.real), float(v.imag)] for v in row] for row in m],
            "d": [0.5, float("nan")], "c": [0.0, 1.0], "level_db": [1.23456],
        })
        assert path.read_bytes() == by_element.read_bytes()

    def test_detection_report_round_trip(self, tmp_path):
        path = tmp_path / "det.json"
        result = DetectionResult(
            cell_id=CellId(n1=1, n2=0),
            bursts=[SsbBurst(timing=1000, i_ssb_bar=2, pss_metric=0.9, sss_metric=0.8,
                             dmrs_metric=0.7)],
            cfo=12.5,
        )
        write_detection_report(path, result, {"threshold": 0.35})
        assert read_detection_report(path) == result
        raw = json.loads(path.read_text())
        assert raw["cell_id"] == {"n1": 1, "n2": 0, "cell": 3}
        assert raw["config"] == {"threshold": 0.35}
        del raw["bursts"][0]["metrics"]["sss"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="missing field"):
            read_detection_report(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_read_rejects_non_standard_constants(self, tmp_path, constant):
        path = tmp_path / "geo.json"
        path.write_text(f'{{"elements": [[{constant}, 0, 0]]}}')
        with pytest.raises(ValueError, match=f"is not valid JSON: {constant} is not a JSON number"):
            read_json_object(path, "geometry file")

    @pytest.mark.parametrize("number", ["1e400", "-1e400", "1.8e308"])
    def test_read_rejects_numbers_past_float_range(self, tmp_path, number):
        path = tmp_path / "geo.json"
        path.write_text(f'{{"elements": [[0, {number}, 0]]}}')
        with pytest.raises(ValueError, match=f"is not valid JSON: {number} overflows a float"):
            read_json_object(path, "geometry file")

    def test_read_rejects_integers_past_float_range(self, tmp_path):
        path = tmp_path / "geo.json"
        path.write_text('{"elements": [[0, %s, 0]], "seed": %d}' % ("9" * 309, 2**64))
        with pytest.raises(ValueError, match=r"99999999999999999999\.\.\. \(309 digits\) overflows"):
            read_json_object(path, "geometry file")
        path.write_text('{"elements": [[0, %s, 0]], "seed": %d}' % ("9" * 308, 2**64))
        assert read_json_object(path, "geometry file")["seed"] == 2**64

    def test_detection_report_fields_checked(self, tmp_path):
        path = tmp_path / "det.json"
        result = DetectionResult(
            cell_id=CellId(n1=7, n2=2),
            bursts=[SsbBurst(timing=0, i_ssb_bar=7, pss_metric=1, sss_metric=0.5,
                             dmrs_metric=0.25)],
            cfo=-3.0,
            cell_id_conflict=True,
        )
        write_detection_report(path, result, {})
        raw = json.loads(path.read_text())
        # whole numbers written as floats, and ints for floats, read back the same
        raw["bursts"][0]["timing_sample"] = 0.0
        raw["bursts"][0]["metrics"]["pss"] = 1
        path.write_text(json.dumps(raw))
        assert read_detection_report(path) == result
        for broken, message in [
            ({"cfo_hz": "12.5"}, "cfo_hz must be a finite number, got '12.5'"),
            ({"cell_id": {"n1": 7, "n2": 3, "cell": 24}}, "cell_id.n2 must be a whole number in 0..2"),
            ({"cell_id": {"n1": 7, "n2": 2}}, "missing field cell_id.cell"),
            ({"bursts": {}}, "bursts must be a list"),
            ({"bursts": [5]}, "bursts[0] must be an object"),
        ]:
            path.write_text(json.dumps({**raw, **broken}))
            with pytest.raises(ValueError, match=re.escape(message)):
                read_detection_report(path)

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            read_json_object(path, "report")
