import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from nrlab import gen_gold, gen_pbch_dmrs, gen_pss, gen_sss
from nrlab.sequences import dmrs_c_init, qpsk_from_bits
from nrlab.types import CellId

from reference_sequences import ref_dmrs, ref_gold, ref_pss, ref_sss

# frozen from the brute-force recurrence evaluator in reference_sequences.py
PSS0_FIRST_16 = [1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, -1, -1, 1, 1, -1]
SSS_1_0_FIRST_12 = [-1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1]
GOLD_CINIT0_FIRST_16 = [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0]
# SHA-256 of the PBCH placeholder bits gen_gold(c, 0, 864) for c in 0..1007,
# then the DM-RS bits gen_gold(dmrs_c_init(cell, i), 0, 288) for every cell and
# i in 0..7, as raw uint8 bytes; frozen from the register-stepping generator
GOLD_NR_DIGEST = "12f3794516c9cc56b0319fe174cecdf1caa49bf9e71d7f3ee9bedceb49a354bc"


class TestPss:
    def test_first_value_is_plus_one(self):
        assert gen_pss(0)[0] == 1.0

    def test_frozen_prefix(self):
        assert_array_equal(gen_pss(0)[:16], PSS0_FIRST_16)

    @pytest.mark.parametrize("n2", [0, 1, 2])
    def test_matches_reference(self, n2):
        assert_array_equal(gen_pss(n2), ref_pss(n2))

    @pytest.mark.parametrize("n2", [1, 2])
    def test_cyclic_shift_structure(self, n2):
        assert_array_equal(gen_pss(n2), np.roll(gen_pss(0), -43 * n2))

    @pytest.mark.parametrize("n2", [0, 1, 2])
    def test_bpsk_energy(self, n2):
        d = gen_pss(n2)
        assert set(np.unique(d)) == {-1.0, 1.0}
        assert np.sum(d**2) == 127.0

    def test_sequences_pairwise_distinct(self):
        seqs = [tuple(gen_pss(n2)) for n2 in range(3)]
        assert len(set(seqs)) == 3

    @pytest.mark.parametrize("n2", [-1, 3, 100])
    def test_range_check(self, n2):
        with pytest.raises(ValueError):
            gen_pss(n2)


class TestSss:
    def test_unshifted_product_at_origin(self):
        # n1 = n2 = 0 puts both base sequences at zero shift
        assert_array_equal(gen_sss(0, 0), ref_sss(0, 0))

    def test_cell3_scenario_shifts(self):
        # cell 3 is (n1, n2) = (1, 0): base shifts m0 = 0, m1 = 1
        assert_array_equal(gen_sss(1, 0)[:12], SSS_1_0_FIRST_12)
        assert_array_equal(gen_sss(1, 0), ref_sss(1, 0))

    @pytest.mark.parametrize("n1,n2", [(0, 1), (111, 2), (112, 0), (335, 2), (42, 1)])
    def test_matches_reference(self, n1, n2):
        assert_array_equal(gen_sss(n1, n2), ref_sss(n1, n2))

    @given(n1=st.integers(0, 335), n2=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_alphabet_and_length(self, n1, n2):
        d = gen_sss(n1, n2)
        assert d.shape == (127,)
        assert set(np.unique(d)) <= {-1.0, 1.0}

    def test_all_1008_distinct(self):
        seqs = np.stack(
            [gen_sss(cell // 3, cell % 3) for cell in range(1008)]
        ).astype(np.int8)
        assert np.unique(seqs, axis=0).shape[0] == 1008

    @pytest.mark.parametrize("n1,n2", [(-1, 0), (336, 0), (0, 3), (0, -2)])
    def test_range_check(self, n1, n2):
        with pytest.raises(ValueError):
            gen_sss(n1, n2)


class TestGold:
    def test_frozen_prefix(self):
        assert_array_equal(gen_gold(0, 0, 16), GOLD_CINIT0_FIRST_16)

    @pytest.mark.parametrize("c_init", [0, 1, 2115, 2**31 - 1, 0x12345678])
    def test_matches_reference(self, c_init):
        assert_array_equal(gen_gold(c_init, 0, 128), ref_gold(c_init, 0, 128))

    def test_zero_init_reduces_to_first_register(self):
        # x2 seeded all-zero stays all-zero, so c(n) is the x1 sequence alone
        x1_only = gen_gold(0, 0, 200)
        assert_array_equal(gen_gold(0, 50, 100), x1_only[50:150])

    @given(
        c_init=st.integers(0, 2**31 - 1),
        offset=st.integers(0, 300),
        length=st.integers(0, 200),
    )
    @settings(max_examples=25, deadline=None)
    def test_offset_is_a_slice(self, c_init, offset, length):
        full = gen_gold(c_init, 0, offset + length)
        chunk = gen_gold(c_init, offset, length)
        assert chunk.size == length
        assert set(np.unique(chunk)) <= {0, 1}
        assert_array_equal(chunk, full[offset:offset + length])

    # the examples end at, just past and across the 2048- and 4096-bit table edges
    @given(
        c_init=st.integers(0, 2**31 - 1),
        offset=st.integers(0, 3000),
        length=st.integers(0, 600),
    )
    @example(c_init=2**31 - 1, offset=0, length=448)
    @example(c_init=2**31 - 1, offset=0, length=449)
    @example(c_init=0x2AAAAAAA, offset=447, length=2)
    @example(c_init=0x55555555, offset=2495, length=2)
    @example(c_init=1, offset=3000, length=600)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_anywhere(self, c_init, offset, length):
        assert_array_equal(gen_gold(c_init, offset, length), ref_gold(c_init, offset, length))

    def test_every_nr_initializer_frozen(self):
        digest = hashlib.sha256()
        for c_init in range(1008):
            digest.update(gen_gold(c_init, 0, 864).tobytes())
        for cell in range(1008):
            for i in range(8):
                digest.update(gen_gold(dmrs_c_init(cell, i), 0, 288).tobytes())
        assert digest.hexdigest() == GOLD_NR_DIGEST

    def test_returns_a_fresh_array(self):
        want = gen_gold(2115, 0, 288).copy()
        first = gen_gold(2115, 0, 288)
        assert first.dtype == np.uint8 and first.flags.c_contiguous
        first[:] ^= 1
        assert_array_equal(gen_gold(2115, 0, 288), want)

    def test_dmrs_c_init_for_cell3(self):
        # 2^11*(0+1)*(3//4+1) + 2^6*(0+1) + 3 mod 4 = 2048 + 64 + 3
        assert dmrs_c_init(3, 0) == 2115

    @pytest.mark.parametrize("c_init,offset,length", [(-1, 0, 1), (2**31, 0, 1), (0, -1, 1), (0, 0, -1)])
    def test_range_check(self, c_init, offset, length):
        with pytest.raises(ValueError):
            gen_gold(c_init, offset, length)


class TestPbchDmrs:
    def test_unit_magnitude_qpsk(self):
        r = gen_pbch_dmrs(CellId.from_cell(3), 0)
        assert r.shape == (144,)
        assert np.allclose(np.abs(r), 1.0, atol=1e-15)
        assert np.allclose(np.abs(r.real), 1 / np.sqrt(2), atol=1e-15)

    def test_matches_reference(self):
        for cell, i_bar in [(3, 0), (0, 7), (500, 3), (1007, 5)]:
            got = gen_pbch_dmrs(CellId.from_cell(cell), i_bar)
            want = np.array([re + 1j * im for re, im in ref_dmrs(cell, i_bar)])
            assert np.allclose(got * np.sqrt(2), want, atol=1e-15)

    def test_eight_indices_distinct(self):
        seqs = [tuple(gen_pbch_dmrs(CellId.from_cell(3), i)) for i in range(8)]
        assert len(set(seqs)) == 8

    def test_deterministic(self):
        a = gen_pbch_dmrs(CellId.from_cell(123), 4)
        b = gen_pbch_dmrs(CellId.from_cell(123), 4)
        assert_array_equal(a, b)

    @pytest.mark.parametrize("i_bar", [-1, 8])
    def test_range_check(self, i_bar):
        with pytest.raises(ValueError):
            gen_pbch_dmrs(CellId.from_cell(0), i_bar)


def test_qpsk_requires_even_bits():
    with pytest.raises(ValueError):
        qpsk_from_bits(np.array([0, 1, 0]))
