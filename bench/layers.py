"""Per-layer metrics computed from the spans of one traced job.

Each metric is the median over a run's traced jobs of a per-job value. The
table below is the single definition of the names and units; BENCHMARK.json
lists the same ones.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from spans import Span, self_times

CLI_COMMANDS = ("generate", "detect", "exposure", "sound", "otasim")

# Counts recorded at a layer boundary: span name -> (args, kwargs, result) -> counts.
COUNTERS = {
    "detector.detect_pss": lambda a, kw, r: {"candidates": len(r), "samples": len(a[0])},
    "detector.enumerate_ssb_bursts": lambda a, kw, r: {"bursts": len(r.bursts)},
    "sounding.aoa_delay_profile": lambda a, kw, r: {"valid": int(r.valid.sum()),
                                                    "angles": int(r.valid.size)},
    "io.read_capture": lambda a, kw, r: {"bytes": 8 * len(r[0])},
    "io.write_capture": lambda a, kw, r: {"bytes": 8 * len(a[1])},
}


@dataclass
class JobTrace:
    """Span totals of one traced job, keyed by span name."""

    seconds: float  # the job's wall time
    bursts: int  # bursts planted in the job's capture
    s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: defaultdict = field(default_factory=lambda: defaultdict(float))
    top_level_s: float = 0.0


def job_traces(spans: list[Span], jobs: dict[int, tuple[float, int]]) -> list[JobTrace]:
    """Group spans by job; `jobs` maps a traced job id to (seconds, bursts)."""
    traces = {job: JobTrace(seconds, bursts) for job, (seconds, bursts) in jobs.items()}
    for span, own in zip(spans, self_times(spans)):
        t = traces[span.job]
        t.s[span.name] += span.duration
        t.self_s[span.name] += own
        t.calls[span.name] += 1
        for key, value in span.counts.items():
            t.counts[f"{span.name}.{key}"] += value
        if span.parent is None:
            t.top_level_s += span.duration
    return list(traces.values())


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when the layer did no work (b == 0)."""
    return a / b if b else 0.0


def _cli_import_s(t: JobTrace) -> float:
    pairs = [(t.s[f"cli.{c}"], t.s[f"cli.{c}.inproc"]) for c in CLI_COMMANDS
             if t.calls[f"cli.{c}.inproc"]]
    return ratio(sum(sub - inproc for sub, inproc in pairs), len(pairs))


def _seconds(name: str):
    return lambda t: t.s[name]


PER_JOB = [
    ("detector.detect_pss.s", "s", _seconds("detector.detect_pss")),
    ("detector.detect_pss.ns_per_sample", "ns", lambda t: 1e9 * ratio(
        t.s["detector.detect_pss"], t.counts["detector.detect_pss.samples"])),
    ("detector.detect_sss.s", "s", _seconds("detector.detect_sss")),
    ("detector.identify_ssb_index.s", "s", _seconds("detector.identify_ssb_index")),
    ("detector.demodulate_burst.s", "s", _seconds("detector.demodulate_burst")),
    ("detector.demodulate_burst.calls_per_burst", "calls/burst",
     lambda t: ratio(t.calls["detector.demodulate_burst"], t.bursts)),
    ("detector.enumerate_ssb_bursts.self_s", "s",
     lambda t: t.self_s["detector.enumerate_ssb_bursts"]),
    ("detector.candidates_raw", "count", lambda t: t.counts["detector.detect_pss.candidates"]),
    ("detector.bursts_found", "count", lambda t: t.counts["detector.enumerate_ssb_bursts.bursts"]),
    ("detector.candidate_yield", "ratio", lambda t: ratio(
        t.counts["detector.enumerate_ssb_bursts.bursts"],
        t.counts["detector.detect_pss.candidates"])),
    ("exposure.code_selective_power.s", "s", _seconds("exposure.code_selective_power")),
    ("exposure.code_selective_power.calls", "count",
     lambda t: t.calls["exposure.code_selective_power"]),
    ("sequences.gen_calls_per_job", "count", lambda t: sum(
        t.calls[f"sequences.{g}"] for g in ("gen_pss", "gen_sss", "gen_pbch_dmrs"))),
    ("waveform.synthesize_bursts.s", "s", _seconds("waveform.synthesize_bursts")),
    ("waveform.ofdm_modulate.calls", "count", lambda t: t.calls["waveform.ofdm_modulate"]),
    ("sounding.aoa_delay_profile.s", "s", _seconds("sounding.aoa_delay_profile")),
    ("sounding.aoa_delay_profile.self_s", "s", lambda t: t.self_s["sounding.aoa_delay_profile"]),
    ("sounding.sweep_to_cir.calls", "count", lambda t: t.calls["sounding.sweep_to_cir"]),
    ("sounding.sweep_to_cir.s", "s", _seconds("sounding.sweep_to_cir")),
    ("sounding.compensate_phase.s", "s", _seconds("sounding.compensate_phase")),
    ("sounding.cir_to_pdp.s", "s", _seconds("sounding.cir_to_pdp")),
    ("sounding.aoa.valid_ratio", "ratio", lambda t: ratio(
        t.counts["sounding.aoa_delay_profile.valid"], t.counts["sounding.aoa_delay_profile.angles"])),
    ("otasim.estimate_transfer_matrix.s", "s", _seconds("otasim.estimate_transfer_matrix")),
    ("otasim.sound_rsrp.calls_per_estimate", "calls", lambda t: ratio(
        t.calls["otasim.sound_rsrp"], t.calls["otasim.estimate_transfer_matrix"])),
    ("otasim.compute_calibration.s", "s", _seconds("otasim.compute_calibration")),
    ("otasim.apply_channel.s", "s", _seconds("otasim.apply_channel")),
    ("otasim.simulate_rc_channel.s", "s", _seconds("otasim.simulate_rc_channel")),
    ("otasim.cancel_rc_decay.s", "s", _seconds("otasim.cancel_rc_decay")),
    ("otasim.awgn.s", "s", _seconds("otasim.awgn")),
    *[(f"cli.{c}.s", "s", _seconds(f"cli.{c}")) for c in CLI_COMMANDS],
    *[(f"cli.{c}.inproc_s", "s", _seconds(f"cli.{c}.inproc")) for c in CLI_COMMANDS],
    ("cli.import_s", "s", _cli_import_s),
    ("io.read_capture.s", "s", _seconds("io.read_capture")),
    ("io.write_capture.s", "s", _seconds("io.write_capture")),
    ("io.write_report.s", "s", _seconds("io.write_report")),
    ("io.capture_bytes", "bytes", lambda t: t.counts["io.read_capture.bytes"]
     + t.counts["io.write_capture.bytes"]),
    ("trace.uncovered_s", "s", lambda t: t.seconds - t.top_level_s),
    ("trace.uncovered_ratio", "ratio", lambda t: ratio(t.seconds - t.top_level_s, t.seconds)),
]

# Metrics of the whole traced run rather than of one job. job_s_p50 and msps
# are those of the run's untraced jobs, as an untraced run defines them.
PER_RUN = [
    ("job_s_p50", "s"),
    ("msps", "Msps"),
    ("trace_overhead", "ratio"),
    ("fail_ratio", "ratio"),
    ("traced_jobs", "count"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_JOB} | dict(PER_RUN)
