"""Reference per-burst stages: the direct forms that nrlab's cached tables replace.

`reference_code_selective_power` maps a fresh unit-power SSB with map_ssb for
every call and loops over the boolean class masks; `reference_demodulate_burst`
derotates the burst into an IqCapture and demodulates it with ofdm_demodulate;
the SSS and DM-RS decisions multiply by the real-valued SSS bank and by the
DM-RS bank conjugated at each call. The tests require the library's results
to equal these exactly.
"""
import numpy as np

from nrlab import IqCapture, SsbConfig, gen_pbch_dmrs, gen_pss, gen_sss
from nrlab.types import N_SSB_SYMBOLS, SYNC_BAND, SYNC_SEQ_LEN
from nrlab.waveform import map_ssb, ofdm_demodulate, ssb_layout

SIGNAL_CLASSES = ("pss", "sss", "dmrs", "pbch")


def reference_code_selective_power(grid, detection, burst_index=0):
    """Per-class despread power, mapping the reference SSB on every call."""
    burst = detection.bursts[burst_index]
    reference = map_ssb(
        SsbConfig(cell_id=detection.cell_id, i_ssb_bar=burst.i_ssb_bar, re_power=1.0)
    )
    layout = ssb_layout(detection.cell_id.cell)
    powers = {}
    for name in SIGNAL_CLASSES:
        mask = layout[name]
        acc = 0.0
        count = 0
        for sym in range(grid.shape[0]):
            cols = mask[sym]
            n = int(cols.sum())
            if n == 0:
                continue
            ref = reference[sym, cols]
            fit = np.vdot(ref, grid[sym, cols]) / np.vdot(ref, ref)
            acc += n * float(np.abs(fit) ** 2)
            count += n
        powers[name] = acc / count
    return powers


def reference_demodulate_burst(capture, timing, cfo_hz, params):
    """Derotate one SSB into its own capture and demodulate its 4 symbols."""
    length = N_SSB_SYMBOLS * params.symbol_len
    n = np.arange(length)
    derotated = capture.samples[timing:timing + length] * np.exp(
        -2j * np.pi * cfo_hz / params.sample_rate * n
    )
    seg = IqCapture(derotated, sample_rate=params.sample_rate)
    return ofdm_demodulate(seg, params, symbol_start=0, n_symbols=N_SSB_SYMBOLS)


def reference_sss_from_grid(grid, n2):
    """SSS decision through the real-valued bank's mixed product."""
    chan = np.mean(grid[0, SYNC_BAND] * gen_pss(n2))
    equalized = grid[2, SYNC_BAND] * np.conj(chan)
    bank = np.stack([gen_sss(n1, n2) for n1 in range(336)])
    scores = np.abs(bank @ equalized)
    denom = np.linalg.norm(equalized) * np.sqrt(SYNC_SEQ_LEN)
    n1 = int(np.argmax(scores))
    return n1, float(scores[n1] / denom) if denom > 0 else 0.0


def reference_identify_ssb_index(grid, cell_id):
    """DM-RS decision, conjugating the bank at the call."""
    observed = grid[ssb_layout(cell_id.cell)["dmrs"]]
    bank = np.stack([gen_pbch_dmrs(cell_id, i) for i in range(8)])
    scores = np.abs(bank.conj() @ observed)
    denom = np.linalg.norm(observed) * np.sqrt(bank.shape[1])
    i_bar = int(np.argmax(scores))
    return i_bar, float(scores[i_bar] / denom) if denom > 0 else 0.0
