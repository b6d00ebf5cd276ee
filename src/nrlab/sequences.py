"""Synchronization-block sequence generators (PSS, SSS, Gold, PBCH DM-RS).

All generators are pure: identical inputs give bit-identical outputs. Gold
bits come from basis tables built once per size: x1 does not depend on c_init
and each x2 bit is a fixed GF(2) linear function of its 31 bits (TS 38.211
5.2.1), so a call is a slice, an AND with c_init and a parity.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .types import CellId, SYNC_SEQ_LEN

_GOLD_ADVANCE = 1600  # register run-in before the first output bit


@lru_cache(maxsize=None)
def _m_sequence(init: tuple[int, ...], tap: int) -> np.ndarray:
    """Length-127 binary m-sequence x(i+7) = (x(i+tap) + x(i)) mod 2."""
    x = np.zeros(SYNC_SEQ_LEN, dtype=np.int64)
    x[:7] = init
    for i in range(SYNC_SEQ_LEN - 7):
        x[i + 7] = x[i + tap] ^ x[i]
    x.setflags(write=False)
    return x


def gen_pss(n2: int) -> np.ndarray:
    """Primary synchronization sequence for sector index n2.

    Args:
        n2: PSS sector index, 0..2.

    Returns:
        127 BPSK values in {-1.0, +1.0}.
    """
    if n2 not in (0, 1, 2):
        raise ValueError(f"n2 must be in 0..2, got {n2}")
    x = _m_sequence((0, 1, 1, 0, 1, 1, 1), tap=4)
    m = (np.arange(SYNC_SEQ_LEN) + 43 * n2) % SYNC_SEQ_LEN
    return 1.0 - 2.0 * x[m]


def gen_sss(n1: int, n2: int) -> np.ndarray:
    """Secondary synchronization sequence for group n1 and sector n2.

    Args:
        n1: SSS group index, 0..335.
        n2: PSS sector index, 0..2.

    Returns:
        127 BPSK values in {-1.0, +1.0}, the product of the two shifted
        base m-sequences.
    """
    if not 0 <= n1 <= 335:
        raise ValueError(f"n1 must be in 0..335, got {n1}")
    if n2 not in (0, 1, 2):
        raise ValueError(f"n2 must be in 0..2, got {n2}")
    return _sss(n1, n2)


def _sss(n1, n2: int) -> np.ndarray:
    """gen_sss without the range checks; an integer array n1 of shape (k, 1)
    gives the k sequences as rows, shape (k, 127)."""
    x0 = _m_sequence((1, 0, 0, 0, 0, 0, 0), tap=4)
    x1 = _m_sequence((1, 0, 0, 0, 0, 0, 0), tap=1)
    m0 = 15 * (n1 // 112) + 5 * n2
    m1 = n1 % 112
    n = np.arange(SYNC_SEQ_LEN)
    return (1.0 - 2.0 * x0[(n + m0) % SYNC_SEQ_LEN]) * (
        1.0 - 2.0 * x1[(n + m1) % SYNC_SEQ_LEN]
    )


@lru_cache(maxsize=None)
def _gold_basis(size: int) -> tuple[np.ndarray, np.ndarray]:
    """x1(0..size-1) as uint8, and per n the uint32 mask of c_init bits XORed into x2(n).

    Both recurrences run in blocks of 28 bits, the largest step the 31-stage
    registers allow with their highest tap at +3. Callers pass powers of two,
    so the cache holds a few read-only tables.
    """
    x1 = np.zeros(size, dtype=np.uint8)
    x2 = np.zeros(size, dtype=np.uint32)
    x1[0] = 1
    x2[:31] = 1 << np.arange(31, dtype=np.uint32)
    filled = 31
    while filled < size:
        step = min(28, size - filled)
        n = np.arange(filled - 31, filled - 31 + step)
        x1[filled:filled + step] = x1[n + 3] ^ x1[n]
        x2[filled:filled + step] = x2[n + 3] ^ x2[n + 2] ^ x2[n + 1] ^ x2[n]
        filled += step
    x1.setflags(write=False)
    x2.setflags(write=False)
    return x1, x2


def gen_gold(c_init: int, offset: int, length: int) -> np.ndarray:
    """Length-31 Gold bit sequence c(offset..offset+length-1).

    c(n) is x1(n) XOR the parity of c_init AND the x2 mask of n, read from
    the smallest power-of-two basis tables that hold the 1600-bit run-in.

    Args:
        c_init: 31-bit initializer of the second register (bit i of c_init
            seeds x2(i)).
        offset: index of the first output bit.
        length: number of output bits.

    Returns:
        A fresh uint8 array of bits in {0, 1}.
    """
    if not 0 <= c_init < 2**31:
        raise ValueError(f"c_init must be a 31-bit value, got {c_init}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    start = _GOLD_ADVANCE + offset
    stop = start + length
    x1, masks = _gold_basis(1 << (stop - 1).bit_length())
    parity = masks[start:stop] & np.uint32(c_init)
    for shift in (16, 8, 4, 2, 1):
        parity ^= parity >> shift
    return x1[start:stop] ^ (parity & 1).astype(np.uint8)


def qpsk_from_bits(bits: np.ndarray) -> np.ndarray:
    """Map a bit sequence to unit-power QPSK symbols, two bits per symbol."""
    b = np.asarray(bits, dtype=np.float64)
    if b.size % 2:
        raise ValueError(f"bit count must be even, got {b.size}")
    return ((1.0 - 2.0 * b[0::2]) + 1j * (1.0 - 2.0 * b[1::2])) / np.sqrt(2.0)


def dmrs_c_init(cell: int, i_ssb_bar: int) -> int:
    """Gold initializer for the PBCH DM-RS of a cell and SSB index."""
    return (2**11 * (i_ssb_bar + 1) * (cell // 4 + 1)
            + 2**6 * (i_ssb_bar + 1)
            + cell % 4)


def gen_pbch_dmrs(cell_id: CellId, i_ssb_bar: int) -> np.ndarray:
    """PBCH demodulation reference sequence: 144 unit-magnitude QPSK symbols.

    Args:
        cell_id: cell identity selecting the scrambling.
        i_ssb_bar: SSB index used for scrambling, 0..7.
    """
    if not 0 <= i_ssb_bar < 8:
        raise ValueError(f"i_ssb_bar must be in 0..7, got {i_ssb_bar}")
    bits = gen_gold(dmrs_c_init(cell_id.cell, i_ssb_bar), 0, 288)
    return qpsk_from_bits(bits)
