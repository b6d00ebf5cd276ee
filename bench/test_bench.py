"""Tests of the benchmark itself: seeded inputs, failing checks, span accounting.

    python3 -m pytest bench -q
"""
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nrlab import otasim, waveform  # noqa: E402
from nrlab.detector import DetectionResult, SsbBurst  # noqa: E402
from nrlab.types import CellId, SsbConfig  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return workloads.RunContext(env={}, workdir=tmp_path, inproc=False, span=None)


def fingerprint(job):
    if isinstance(job, workloads.SsbJob):
        return dataclasses.astuple(job)
    if isinstance(job, workloads.ChamberJob):
        return (job.paths, job.wc_seeds, job.rc_seed, job.device_bin,
                job.sweeps[0].h.tobytes(), job.capture.samples.tobytes())
    return (job.cell, job.i_ssb, job.seed, (job.workdir / "el0.csv").read_bytes())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_alone_determines_inputs(name, ctx, tmp_path):
    make = workloads.WORKLOADS[name].make
    first = fingerprint(make(1, 0, ctx))
    other = workloads.RunContext(env={}, workdir=tmp_path / "other", inproc=False, span=None)
    assert fingerprint(make(1, 0, other)) == first
    assert fingerprint(make(2, 0, ctx)) != first
    assert fingerprint(make(1, 1, ctx)) != first


def planted_ssb_output(job):
    """What a perfect detector and exposure fit would return for the job."""
    bursts = [SsbBurst(timing=t, i_ssb_bar=i, pss_metric=1.0, sss_metric=1.0, dmrs_metric=1.0)
              for t, i in zip(job.timings, job.ssb_walk)]
    powers = [{c: 1.0 for c in ("pss", "sss", "dmrs", "pbch")} for _ in bursts]
    return DetectionResult(cell_id=CellId.from_cell(job.cell), bursts=bursts), powers


@pytest.mark.parametrize("corrupt", [
    lambda r, p: setattr(r, "cell_id", CellId.from_cell((r.cell_id.cell + 1) % 1008)),
    lambda r, p: setattr(r, "cell_id", None),
    lambda r, p: r.bursts.__setitem__(3, dataclasses.replace(r.bursts[3],
                                                             timing=r.bursts[3].timing + 2)),
    lambda r, p: r.bursts.pop(),
    lambda r, p: r.bursts.__setitem__(0, dataclasses.replace(r.bursts[0], i_ssb_bar=(
        r.bursts[0].i_ssb_bar + 1) % 8)),
    lambda r, p: p[5].__setitem__("sss", 10 ** 0.01),  # 0.1 dB high
], ids=["wrong-cell", "no-cell", "shifted-burst", "missing-burst", "wrong-index", "power"])
def test_corrupted_ssb_result_fails(corrupt, ctx):
    job = workloads.WORKLOADS["ssb-dense"].make(3, 0, ctx)
    result, powers = planted_ssb_output(job)
    assert workloads.check_ssb(job, (result, powers)) == []
    corrupt(result, powers)
    assert workloads.check_ssb(job, (result, powers))


def test_noisy_job_skips_only_the_power_bar(ctx):
    job = workloads.WORKLOADS["ssb-sparse-noisy"].make(3, 0, ctx)
    result, powers = planted_ssb_output(job)
    powers[0]["sss"] = 2.0
    assert workloads.check_ssb(job, (result, powers)) == []
    result.bursts[-1] = dataclasses.replace(result.bursts[-1], timing=result.bursts[-1].timing - 2)
    assert workloads.check_ssb(job, (result, powers))


def test_real_dense_job_passes(ctx):
    w = workloads.WORKLOADS["ssb-dense"]
    job = w.make(5, 0, ctx)
    assert w.check(job, w.run(job, ctx)) == []


def test_corrupted_chamber_output_fails(ctx):
    w = workloads.WORKLOADS["chamber"]
    job = w.make(5, 0, ctx)
    profile, pdps, isolations, faded, corrected = w.run(job, ctx)
    assert w.check(job, (profile, pdps, isolations, faded, corrected)) == []
    assert w.check(job, (profile, pdps, isolations + [29.9], faded, corrected))
    shifted = dataclasses.replace(corrected, taps=corrected.taps[::-1].copy())
    assert w.check(job, (profile, pdps, isolations, faded, shifted))
    moved = dataclasses.replace(profile, angles_deg=profile.angles_deg + 3.0)
    assert w.check(job, (moved, pdps, isolations, faded, corrected))


def write_cli_outputs(job, cell):
    d = job.workdir
    detection = {"cell_id": {"cell": cell}, "cfo_hz": 0.0, "cell_id_conflict": False,
                 "bursts": [{}] * workloads.CLI_BURSTS, "config": {}}
    (d / "detection.json").write_text(json.dumps(detection))
    (d / "exposure.json").write_text(json.dumps(dict.fromkeys(workloads.EXPOSURE_KEYS, 0)))
    wc = dict.fromkeys(workloads.WIRELESS_CABLE_KEYS, 0) | {"isolation_db": 100.0}
    (d / "wc.json").write_text(json.dumps(wc))
    (d / "aoa.csv").write_text("row\n" * (workloads.CLI_ANGLES + 1))


def test_corrupted_cli_outputs_fail(ctx):
    job = workloads.WORKLOADS["cli-roundtrip"].make(1, 0, ctx)
    codes = {name: 0 for name, _ in job.commands}
    write_cli_outputs(job, job.cell)
    assert workloads.check_cli(job, codes) == []
    assert workloads.check_cli(job, codes | {"detect": 2})
    write_cli_outputs(job, (job.cell + 1) % 1008)
    assert workloads.check_cli(job, codes)
    write_cli_outputs(job, job.cell)
    (job.workdir / "exposure.json").write_text(json.dumps({"config": {}}))
    assert workloads.check_cli(job, codes)


@dataclasses.dataclass
class FakeJob:
    k: int
    samples: int = 100
    n_bursts: int = 1


def test_failed_and_raising_jobs_are_counted(ctx):
    """The loop counts a failed check and a raising job as failures."""
    def job_run(job, ctx):
        if job.k == 1:
            raise RuntimeError("boom")
        return job.k

    fake = workloads.Workload("fake", lambda seed, k, ctx: FakeJob(k), job_run,
                              lambda job, out: ["wrong"] if out == 2 else [], lambda: None)
    args = run.parse_args(["--workload", "chamber", "--seed", "1", "--seconds", "0"])
    records, setup = run.run_jobs(fake, args, ctx, tracer=None)
    assert [r["failed"] for r in records] == [False] and setup == []
    args.seconds = 0.01
    records, _ = run.run_jobs(fake, args, ctx, tracer=None)
    assert [r["failed"] for r in records[:3]] == [False, True, True]


def test_set_ups_are_spread_over_the_window(ctx):
    """Every set-up is timed, and they are spread over the window."""
    events = []

    def job_run(job, ctx):
        events.append(("job", time.perf_counter()))
        time.sleep(0.005)

    def probe():
        events.append(("setup", time.perf_counter()))
        return 1.0

    fake = workloads.Workload("fake", lambda seed, k, ctx: FakeJob(k), job_run,
                              lambda job, out: [], lambda: None)
    args = run.parse_args(["--workload", "chamber", "--seed", "1", "--seconds", "0.5"])
    records, setup = run.run_jobs(fake, args, ctx, tracer=None, probe=probe)
    assert setup == [1.0] * run.SETUP_SAMPLES
    assert [e for e, _ in events].count("job") == len(records)
    stamps = [t for e, t in events if e == "setup"]
    step = args.seconds / run.SETUP_SAMPLES
    assert all(t - stamps[0] >= i * step - 1e-3 for i, t in enumerate(stamps))
    assert stamps[-1] - stamps[0] < args.seconds  # none is left until the window closes


@pytest.mark.xfail(strict=True, reason="row phases are recovered against probe 1 only, and "
                   "this matrix couples one DUT port to probe 1 at 0.4 % of its row's largest")
def test_wireless_cable_isolation_at_70_db_sounding_snr():
    """The chamber job sounds at WC_SNR_DB (90 dB). At a realistic 70 dB, about
    1 in 700 seeded 8-port matrices misses the 30 dB bar; this is one of them."""
    rng = np.random.default_rng(1175)
    truth = otasim.random_well_conditioned(workloads.WC_PORTS, rng)
    estimate = otasim.estimate_transfer_matrix(
        otasim.make_rsrp_sounder(truth, noise_db=70.0, rng=rng), workloads.WC_PORTS)
    isolation = otasim.isolation_db(truth.a @ otasim.compute_calibration(estimate))
    assert isolation >= workloads.ISOLATION_BAR_DB


def test_self_time_subtracts_covered_interval():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        Span("c", 8.0, 9.0, 0, 0),
        Span("a.x", 2.0, 3.0, 1, 0),
        Span("late", 9.5, 11.0, 0, 0),  # only its part inside root counts
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 3.0, 1.0, 1.0, 1.5])


def test_job_traces_sum_per_job_and_top_level():
    spans = [
        Span("detector.enumerate_ssb_bursts", 0.0, 5.0, None, 0, {"bursts": 2}),
        Span("detector.detect_pss", 0.0, 3.0, 0, 0, {"candidates": 4, "samples": 1000}),
        Span("detector.demodulate_burst", 3.0, 4.0, 0, 0),
        Span("detector.demodulate_burst", 6.0, 7.0, None, 0),
        Span("detector.demodulate_burst", 0.0, 1.0, None, 2),
    ]
    traces = layers.job_traces(spans, {0: (8.0, 2), 2: (1.5, 1)})
    values = {name: [fn(t) for t in traces] for name, _, fn in layers.PER_JOB}
    assert values["detector.enumerate_ssb_bursts.self_s"] == [1.0, 0.0]
    assert values["detector.demodulate_burst.calls_per_burst"] == [1.0, 1.0]
    assert values["detector.candidate_yield"] == [0.5, 0.0]
    assert values["detector.detect_pss.ns_per_sample"] == [3e6, 0.0]
    assert values["trace.uncovered_s"] == pytest.approx([2.0, 0.5])


def test_tracer_reaches_calls_inside_the_library():
    import nrlab
    from nrlab import sequences

    original = waveform.map_ssb
    tracer = Tracer()
    with tracer.installed(job=7):
        assert nrlab.map_ssb is waveform.map_ssb is not original
        waveform.synthesize_bursts(SsbConfig(cell_id=CellId.from_cell(5)), workloads.PARAMS)
    assert waveform.map_ssb is original and nrlab.map_ssb is original
    assert sequences.gen_sss.__name__ == "gen_sss" and not hasattr(sequences.gen_sss,
                                                                   "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names[0] == "waveform.synthesize_bursts"
    parent_of = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parent_of["sequences.gen_sss"] == "waveform.map_ssb"
    assert parent_of["sequences.gen_gold"] in ("sequences.gen_pbch_dmrs", "waveform.map_ssb")
    assert {s.job for s in tracer.spans} == {7}


def test_tail_has_ten_jobs_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    times = [float(i) for i in range(30)]
    assert run.tail(times) == (19.0, pytest.approx(100 * 20 / 30), 10)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, run.UNITS[name]) for name in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
