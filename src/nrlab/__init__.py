"""nrlab: desk-scale 5G NR measurement toolkit.

Synthesis and blind detection of synchronization-signal blocks,
code-selective exposure measurement, VNA-style channel-sounding
post-processing, and OTA test-environment simulation.

Importing the package loads no layer and no numpy: each public name, and
each layer module named in ``__all__``, is imported on first use (PEP 562),
so ``from nrlab import enumerate_ssb_bursts`` loads the detector and the
layers it needs, and nothing else.
"""

__version__ = "0.1.0"

# Detection threshold. Under complex white Gaussian noise one test (one lag,
# one hypothesis) reaches eta with probability (1 - eta^2)^(N-1), N = symbol_len
# = 274 (Scharf and Friedlander, "Matched subspace detectors", IEEE Trans. SP,
# 1994): 3.2e-16 at 0.35, about 5e-10 false candidates per 1e5 samples over 15
# hypotheses per lag. A matched burst at -6 dB SNR still scores ~0.45. It is
# defined here, beside the version, so that the CLI's option tables need no
# layer module.
DEFAULT_PSS_THRESHOLD = 0.35

# The public names of each layer module.
_EXPORTS = {
    "detector": (
        "DetectionResult", "PssCandidate", "SsbBurst", "demodulate_burst", "detect_pss",
        "enumerate_ssb_bursts", "identify_ssb_index",
    ),
    "exposure": (
        "ExposureReport", "UncertaintyBudget", "check_targets", "code_selective_power",
        "combine_uncertainty", "extrapolate_exposure", "measure_exposure",
    ),
    "otasim": (
        "FadingRealization", "RcChannelModel", "TransferMatrix", "apply_channel", "awgn",
        "cancel_rc_decay", "compute_calibration", "estimate_transfer_matrix", "isolation_db",
        "make_rsrp_sounder", "random_well_conditioned", "simulate_rc_channel", "sound_rsrp",
    ),
    "sequences": ("gen_gold", "gen_pbch_dmrs", "gen_pss", "gen_sss"),
    "sounding": (
        "AntennaPattern", "AoaDelayProfile", "Cir", "FrequencySweep", "Pdp", "VirtualArrayScan",
        "aoa_delay_profile", "cir_to_pdp", "compensate_phase", "deembed_pattern", "sweep_to_cir",
    ),
    "types": ("CellId", "IqCapture", "OfdmParams", "SsbConfig"),
    "waveform": (
        "map_ssb", "ofdm_demodulate", "ofdm_modulate", "ssb_layout", "ssb_waveform",
        "synthesize_bursts",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["DEFAULT_PSS_THRESHOLD", *_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    # Not cached in the package namespace: a name always reads its module's
    # current binding.
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
