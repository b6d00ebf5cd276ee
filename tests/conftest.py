import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from nrlab import CellId, OfdmParams, SsbConfig, awgn, ssb_waveform, synthesize_bursts

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# failure in CI replays locally with the same flag. Each test keeps its own
# max_examples.
settings.register_profile("ci", settings.get_profile("default"), derandomize=True,
                          print_blob=True)


@pytest.fixture(scope="session")
def params():
    return OfdmParams()


@pytest.fixture(scope="session")
def burst_capture(params):
    """Factory for synthetic SSB captures, optionally noisy.

    snr_db is relative to the mean per-sample power of the SSB waveform.
    """

    def make(cell=3, bursts=1, period=2200, lead_in=300, tail=300,
             i_ssb_bar=0, re_power=1.0, snr_db=None, seed=0):
        cfg = SsbConfig(
            cell_id=CellId.from_cell(cell),
            i_ssb_bar=i_ssb_bar,
            burst_count=bursts,
            burst_period=period,
            re_power=re_power,
        )
        capture = synthesize_bursts(cfg, params, lead_in=lead_in, tail=tail)
        if snr_db is not None:
            signal_power = float(np.mean(np.abs(ssb_waveform(cfg, params)) ** 2))
            noise_power = signal_power * 10.0 ** (-snr_db / 10.0)
            capture = awgn(capture, noise_power, rng=seed)
        return capture

    return make
