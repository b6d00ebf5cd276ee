"""Command-line entry point: generate, detect, exposure, sound, otasim.

Each option is declared once, in the option tables below: its default is
overridden by a JSON config file (--config), which is overridden by flags. Every
report echoes the fully resolved configuration so a run can be replayed exactly.

Exit codes: 0 success, 1 usage/input/format error, 2 clean run with no findings.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .detector import (
    DEFAULT_PSS_THRESHOLD,
    _check_sample_rate,
    demodulate_burst,
    enumerate_ssb_bursts,
)
from .exposure import SIGNAL_CLASSES, build_report, code_selective_power
from .io import (
    read_capture,
    read_detection_report,
    read_geometry,
    read_json_object,
    read_sweep_csv,
    write_aoa_csv,
    write_capture,
    write_detection_report,
    write_pdp_csv,
    write_report,
)
from .otasim import (
    RcChannelModel,
    awgn,
    cancel_rc_decay,
    compute_calibration,
    estimate_transfer_matrix,
    isolation_db,
    make_rsrp_sounder,
    random_well_conditioned,
    simulate_rc_channel,
)
from .sounding import (
    Cir,
    VirtualArrayScan,
    aoa_delay_profile,
    cir_to_pdp,
    compensate_phase,
    deembed_pattern,
    sweep_to_cir,
)
from .types import CellId, OfdmParams, SsbConfig
from .waveform import ssb_waveform, synthesize_bursts

LOG = logging.getLogger("nrlab")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_FINDINGS = 2


@dataclass(frozen=True)
class Opt:
    """One option: its config key, type, default and flag (``--`` plus the key
    with ``-`` for ``_`` unless given; no dashes means positional). A bool
    option is a switch that can only turn on."""

    key: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    flag: str | None = None
    nargs: str | None = None
    required: bool = False

    @property
    def arg(self) -> str:
        """The name argparse is given: the flag, or the positional's name."""
        return self.flag or "--" + self.key.replace("_", "-")


_OFDM = (
    Opt("mu", int, 1, "numerology (SCS = 15*2^mu kHz)"),
    Opt("fft_size", int, 256, "FFT size"),
    Opt("cp_len", int, 18, "cyclic-prefix length in samples"),
)
_SEED = Opt("seed", int, 0, "random seed")

GENERATE_OPTIONS = (
    *_OFDM,
    Opt("cell", int, 0, "cell identity 0..1007"),
    Opt("n1", int, None, "SSS group index (with --n2)"),
    Opt("n2", int, None, "PSS sector index (with --n1)"),
    Opt("i_ssb", int, 0, "first SSB index"),
    Opt("l_max", int, 8, "SSB indices per half frame", choices=(4, 8)),
    Opt("bursts", int, 1, "number of SSB bursts"),
    Opt("burst_period", int, 5480, "burst spacing in samples"),
    Opt("re_power", float, 1.0, "linear power per occupied resource element"),
    Opt("snr_db", float, None, "add white noise at this SNR relative to the SSB power"),
    Opt("lead_in", int, 1000, "samples before the first burst"),
    Opt("tail", int, 1000, "samples after the last burst"),
    _SEED,
    Opt("out", help="IQ capture path", required=True),
)

DETECT_OPTIONS = (
    *_OFDM,
    Opt("input", help="IQ capture file", flag="--in", required=True),
    Opt("threshold", float, DEFAULT_PSS_THRESHOLD, "PSS detection threshold in (0,1)"),
    Opt("out", help="report path (default <in>.detection.json)"),
)

EXPOSURE_OPTIONS = (
    *_OFDM,
    Opt("capture", help="IQ capture file", required=True),
    Opt("detection", help="detection report from 'detect'", required=True),
    Opt("rb_count", int, 100, "resource blocks for extrapolation"),
    Opt("duty", float, 1.0, "duty factor in (0,1]"),
    Opt("mode", str, "conducted", "uncertainty target to check", choices=("conducted", "ota")),
    Opt("coverage_k", float, 2.0, "coverage factor of the expanded uncertainty"),
    Opt("out", help="report path (default <capture>.exposure.json)"),
)

SOUND_OPTIONS = (
    Opt("input", help="sweep CSV(s), one per element", flag="--in", nargs="+", required=True),
    Opt("window", str, "hann", "window applied before the IFFT",
        choices=("rectangular", "hann", "hamming")),
    Opt("pad", int, 4, "zero-padding factor"),
    Opt("aoa", bool, False, "also write the angle-delay map"),
    Opt("deembed", bool, False, "de-embed the antenna pattern from the geometry file"),
    Opt("geometry", help="geometry JSON (elements + optional pattern)"),
    Opt("angle_start", float, -90.0, "first angle of the map, degrees"),
    Opt("angle_stop", float, 90.0, "last angle of the map, degrees"),
    Opt("angle_step", float, 1.0, "angle step of the map, degrees"),
    Opt("aoa_out", help="angle-delay CSV path (default <first in>.aoa.csv)"),
    Opt("out", help="PDP CSV path (default <first in>.pdp.csv)"),
)

OTASIM_OPTIONS = (
    Opt("mode", help="what to simulate", choices=("wireless-cable", "rc"), flag="mode"),
    Opt("ports", int, 4, "number of ports (wireless-cable)", choices=(2, 4, 8)),
    Opt("snr_db", float, None, "RSRP sounding SNR (wireless-cable)"),
    Opt("tau_rc", float, 2e-7, "decay constant, s"),
    Opt("n_taps", int, 32, "number of delay taps"),
    Opt("tap_spacing", float, 5e-8, "tap spacing, s"),
    Opt("keyhole", bool, False, "double-Rayleigh keyhole fading"),
    Opt("cancel_demo", bool, False, "include a decay-cancellation demonstration"),
    Opt("epsilon", float, None, "deconvolution regularizer (default: swept)"),
    _SEED,
    Opt("out", help="report path", required=True),
)


def _typed(opt: Opt, value, source):
    """Check a config-file value against its option and convert it to the option's type."""
    if value is None and opt.default is None and not opt.required:
        return None
    if opt.nargs:
        items = value if isinstance(value, list) and value else [value]
        return [_typed(replace(opt, nargs=None), item, source) for item in items]
    if (type(value) is int and opt.type is float
            or type(value) is float and opt.type is int and value.is_integer()):
        value = opt.type(value)
    expected = f"one of {list(opt.choices)}" if opt.choices else opt.type.__name__
    if type(value) is not opt.type or opt.choices and value not in opt.choices:
        raise ValueError(f"config file {source} key {opt.key!r} must be {expected}, got {value!r}")
    return value


def resolve_config(options: tuple[Opt, ...], args: argparse.Namespace) -> dict:
    """Resolve defaults <- config file <- flags given on the command line (flags win)."""
    cfg = {opt.key: opt.default for opt in options}
    if args.config is not None:
        raw = read_json_object(args.config, "config file")
        by_key = {opt.key: opt for opt in options}
        unknown = sorted(set(raw) - set(by_key))
        if unknown:
            raise ValueError(f"config file {args.config} has unknown keys: {', '.join(unknown)}")
        cfg.update((key, _typed(by_key[key], value, args.config)) for key, value in raw.items())
    cfg.update((opt.key, getattr(args, opt.key)) for opt in options if opt.key in args)
    for opt in options:
        if opt.required and cfg[opt.key] is None:
            raise ValueError(f"{opt.arg} is required")
    return cfg


def _check_writable(path) -> None:
    """Fail on an unwritable output location before any work starts."""
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"output directory does not exist: {parent}")


def _ofdm_params(cfg: dict) -> OfdmParams:
    return OfdmParams(mu=cfg["mu"], fft_size=cfg["fft_size"], cp_len=cfg["cp_len"])


def _read_capture_at(path, params: OfdmParams):
    """Read a capture whose sidecar rate must match the numerology's rate."""
    capture, _ = read_capture(path)
    _check_sample_rate(capture, params)
    return capture


def _complex_matrix_payload(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def cmd_generate(cfg: dict) -> int:
    _check_writable(cfg["out"])
    if cfg["n1"] is not None or cfg["n2"] is not None:
        if cfg["n1"] is None or cfg["n2"] is None:
            raise ValueError("--n1 and --n2 must be given together")
        cell_id = CellId(n1=cfg["n1"], n2=cfg["n2"])
    else:
        cell_id = CellId.from_cell(cfg["cell"])
    cfg.update(asdict(cell_id), cell=cell_id.cell)

    params = _ofdm_params(cfg)
    ssb_cfg = SsbConfig(
        cell_id=cell_id,
        i_ssb_bar=cfg["i_ssb"],
        l_max=cfg["l_max"],
        burst_count=cfg["bursts"],
        burst_period=cfg["burst_period"],
        re_power=cfg["re_power"],
    )
    capture = synthesize_bursts(ssb_cfg, params, lead_in=cfg["lead_in"], tail=cfg["tail"])
    if cfg["snr_db"] is not None:
        ssb_power = float(np.mean(np.abs(ssb_waveform(ssb_cfg, params)) ** 2))
        noise_power = ssb_power * 10.0 ** (-cfg["snr_db"] / 10.0)
        capture = awgn(capture, noise_power, rng=cfg["seed"])
    write_capture(
        cfg["out"],
        capture,
        created_by=f"nrlab {__version__} generate",
        seed=cfg["seed"],
        extra={"generator_config": cfg},
    )
    LOG.info("wrote %s (%d samples, cell %d, %d bursts)",
             cfg["out"], len(capture), cell_id.cell, ssb_cfg.burst_count)
    return EXIT_OK


def cmd_detect(cfg: dict) -> int:
    params = _ofdm_params(cfg)
    capture = _read_capture_at(cfg["input"], params)
    result = enumerate_ssb_bursts(capture, params, threshold=cfg["threshold"])
    cfg["out"] = cfg["out"] or cfg["input"] + ".detection.json"
    _check_writable(cfg["out"])
    write_detection_report(cfg["out"], result, cfg)
    if not result.bursts:
        LOG.info("no bursts found; report written to %s", cfg["out"])
        return EXIT_NO_FINDINGS
    LOG.info(
        "found %d bursts, cell %s; report written to %s",
        len(result.bursts),
        "?" if result.cell_id is None else result.cell_id.cell,
        cfg["out"],
    )
    return EXIT_OK


def cmd_exposure(cfg: dict) -> int:
    params = _ofdm_params(cfg)
    capture = _read_capture_at(cfg["capture"], params)
    detection = read_detection_report(cfg["detection"])
    if not detection.bursts:
        LOG.info("detection report holds no bursts; nothing to measure")
        return EXIT_NO_FINDINGS

    per_burst = []
    for index, burst in enumerate(detection.bursts):
        grid = demodulate_burst(capture, burst.timing, detection.cfo, params)
        per_burst.append(code_selective_power(grid, detection, index))
    mean_powers = {name: float(np.mean([p[name] for p in per_burst])) for name in SIGNAL_CLASSES}

    report = build_report(
        mean_powers,
        n_re_total=cfg["rb_count"] * 12,
        duty=cfg["duty"],
        mode=cfg["mode"],
        coverage_factor=cfg["coverage_k"],
    )
    cfg["out"] = cfg["out"] or cfg["capture"] + ".exposure.json"
    _check_writable(cfg["out"])
    payload = asdict(report)
    payload["uncertainty"]["components"] = [
        {"name": n, "std_db": u, "distribution": d, "placeholder": True}
        for n, u, d in report.uncertainty.components
    ]
    payload["per_signal_re_power_db"] = {
        k: 10.0 * np.log10(v) if v > 0 else -np.inf
        for k, v in report.per_signal_re_power.items()
    }
    payload["config"] = cfg
    write_report(cfg["out"], payload)
    LOG.info("exposure report written to %s", cfg["out"])
    return EXIT_OK


def cmd_sound(cfg: dict) -> int:
    sweeps = []
    for path in cfg["input"]:
        sweep = read_sweep_csv(path)
        if sweep.pilot is not None:
            sweep = compensate_phase(sweep)
        sweeps.append(sweep)

    # Both outputs are built, and both locations checked, before either file
    # is written, so a run that fails leaves no file behind.
    cfg["out"] = cfg["out"] or cfg["input"][0] + ".pdp.csv"
    _check_writable(cfg["out"])
    pdp = cir_to_pdp(sweep_to_cir(sweeps[0], window=cfg["window"], pad_factor=cfg["pad"]))
    profile = None
    if cfg["aoa"]:
        if cfg["geometry"] is None:
            raise ValueError("--geometry is required with --aoa")
        elements, pattern = read_geometry(cfg["geometry"])
        if len(sweeps) != elements.shape[0]:
            raise ValueError(
                f"AoA mode needs one sweep per element: got {len(sweeps)} sweeps "
                f"for {elements.shape[0]} elements"
            )
        scan = VirtualArrayScan(elements, sweeps, pattern=pattern)
        if cfg["deembed"]:
            scan = deembed_pattern(scan)
        step = cfg["angle_step"]
        if not (step > 0 and np.isfinite([cfg["angle_start"], cfg["angle_stop"], step]).all()):
            raise ValueError(
                f"angle grid needs a finite start and stop and a finite step > 0, got "
                f"{cfg['angle_start']}:{cfg['angle_stop']}:{step}"
            )
        angles = np.arange(cfg["angle_start"], cfg["angle_stop"] + step / 2.0, step)
        profile = aoa_delay_profile(scan, angles, window=cfg["window"], pad_factor=cfg["pad"])
        cfg["aoa_out"] = cfg["aoa_out"] or cfg["input"][0] + ".aoa.csv"
        _check_writable(cfg["aoa_out"])

    write_pdp_csv(cfg["out"], pdp)
    LOG.info("PDP written to %s (noise floor %.2f dB)", cfg["out"], pdp.noise_floor_db)
    if profile is not None:
        write_aoa_csv(cfg["aoa_out"], profile)
        LOG.info("AoA-delay map written to %s", cfg["aoa_out"])
    return EXIT_OK


def _single_tap_smeared(n_bins: int, decay_bins: float, tap_bin: int) -> tuple[Cir, Cir]:
    """Demo pair: a chamber decay kernel and a single tap smeared by it."""
    k = np.arange(n_bins)
    kernel = np.exp(-k / (2.0 * decay_bins)).astype(np.complex128)
    measured = np.roll(kernel, tap_bin)
    meta = {"delay_resolution": 1.0, "max_delay": float(n_bins)}
    return Cir(taps=measured, **meta), Cir(taps=kernel, **meta)


def _out_of_bin_db(taps: np.ndarray, tap_bin: int) -> float:
    power = np.abs(taps) ** 2
    peak = power[tap_bin]
    rest = power.sum() - peak
    if rest == 0:
        return -np.inf
    return float(10.0 * np.log10(rest / peak))


def cmd_otasim(cfg: dict) -> int:
    _check_writable(cfg["out"])
    if cfg["mode"] == "wireless-cable":
        rng = np.random.default_rng(cfg["seed"])
        truth = random_well_conditioned(cfg["ports"], rng)
        sounder = make_rsrp_sounder(truth, noise_db=cfg["snr_db"], rng=rng)
        estimate = estimate_transfer_matrix(sounder, truth.n_ports)
        calibration = compute_calibration(estimate)
        isolation = isolation_db(truth.a @ calibration)
        payload = {
            "true_matrix": _complex_matrix_payload(truth.a),
            "estimated_matrix": _complex_matrix_payload(estimate.a),
            "calibration_matrix": _complex_matrix_payload(calibration),
            "estimated_condition_number": estimate.condition_number,
            "isolation_db": isolation,
        }
        LOG.info("wireless-cable isolation: %.2f dB", isolation)
    else:
        model = RcChannelModel(
            tau_rc=cfg["tau_rc"],
            n_taps=cfg["n_taps"],
            tap_spacing=cfg["tap_spacing"],
            keyhole=cfg["keyhole"],
            seed=cfg["seed"],
        )
        realization = simulate_rc_channel(model)
        payload = {
            "delays_s": [float(d) for d in realization.delays],
            "gains": [[float(g.real), float(g.imag)] for g in realization.gains],
        }
        if cfg["cancel_demo"]:
            tap_bin = 40
            measured, reference = _single_tap_smeared(256, decay_bins=10.0, tap_bin=tap_bin)
            # without a given epsilon, sweep decades for the cleanest single tap
            epsilons = ([10.0 ** -e for e in range(1, 9)] if cfg["epsilon"] is None
                        else [cfg["epsilon"]])
            corrected = [cancel_rc_decay(measured, reference, eps) for eps in epsilons]
            after_db = [_out_of_bin_db(c.taps, tap_bin) for c in corrected]
            best = int(np.argmin(after_db))
            payload["cancellation"] = {
                "epsilon": epsilons[best],
                "tap_bin": tap_bin,
                "out_of_bin_before_db": _out_of_bin_db(measured.taps, tap_bin),
                "out_of_bin_after_db": after_db[best],
                "flags": list(corrected[best].flags),
            }
    payload["config"] = cfg
    write_report(cfg["out"], payload)
    LOG.info("%s report written to %s", cfg["mode"], cfg["out"])
    return EXIT_OK


_COMMANDS = (
    ("generate", "synthesize an SSB burst capture", cmd_generate, GENERATE_OPTIONS),
    ("detect", "blind-detect SSB bursts in a capture", cmd_detect, DETECT_OPTIONS),
    ("exposure", "code-selective power and extrapolation", cmd_exposure, EXPOSURE_OPTIONS),
    ("sound", "sweep CSV to PDP / AoA-delay CSV", cmd_sound, SOUND_OPTIONS),
    ("otasim", "wireless-cable calibration / RC fading", cmd_otasim, OTASIM_OPTIONS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrlab",
        description="Desk-scale NR signal synthesis, detection, exposure, "
                    "channel-sounding post-processing and OTA simulation",
    )
    parser.add_argument("--version", action="version", version=f"nrlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        # only flags given on the command line land in the namespace
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--verbose", action="store_true", default=False, help="debug logging")
        for opt in options:
            kwargs = {"help": opt.help}
            if opt.type is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=opt.type, choices=opt.choices, nargs=opt.nargs)
            if opt.arg.startswith("-"):
                kwargs["dest"] = opt.key
            p.add_argument(opt.arg, **kwargs)
        p.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as "no findings"
        return EXIT_ERROR if exc.code else EXIT_OK
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return args.handler(resolve_config(args.options, args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
