"""nrlab: desk-scale 5G NR measurement toolkit.

Synthesis and blind detection of synchronization-signal blocks,
code-selective exposure measurement, VNA-style channel-sounding
post-processing, and OTA test-environment simulation.
"""

__version__ = "0.1.0"

from .detector import (
    DEFAULT_PSS_THRESHOLD,
    DetectionResult,
    PssCandidate,
    SsbBurst,
    demodulate_burst,
    detect_pss,
    enumerate_ssb_bursts,
    identify_ssb_index,
)
from .exposure import (
    ExposureReport,
    UncertaintyBudget,
    check_targets,
    code_selective_power,
    combine_uncertainty,
    extrapolate_exposure,
    measure_exposure,
)
from .otasim import (
    FadingRealization,
    RcChannelModel,
    TransferMatrix,
    apply_channel,
    awgn,
    cancel_rc_decay,
    compute_calibration,
    estimate_transfer_matrix,
    isolation_db,
    make_rsrp_sounder,
    random_well_conditioned,
    simulate_rc_channel,
    sound_rsrp,
)
from .sequences import gen_gold, gen_pbch_dmrs, gen_pss, gen_sss
from .sounding import (
    AntennaPattern,
    AoaDelayProfile,
    Cir,
    FrequencySweep,
    Pdp,
    VirtualArrayScan,
    aoa_delay_profile,
    cir_to_pdp,
    compensate_phase,
    deembed_pattern,
    sweep_to_cir,
)
from .types import CellId, IqCapture, OfdmParams, SsbConfig
from .waveform import (
    map_ssb,
    ofdm_demodulate,
    ofdm_modulate,
    ssb_layout,
    ssb_waveform,
    synthesize_bursts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
