"""``rng.fill_streams`` against one fresh Philox generator per key.

The block fill re-keys a single generator per row from a template state.
Each row must be the stream its key alone defines, whatever the key words
are, however many uniforms the previous row drew, and whatever state the
generator was in before the first row.  A fill from a counter offset
must continue each stream exactly where that many uniforms end.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from multinv import rng

EDGE_WORDS = [0, 1, 2 ** 63, 2 ** 64 - 1]

# every pair of edge words, then a repeat of the first and of a middle key
EDGE_KEYS = np.array([[a, b] for a in EDGE_WORDS for b in EDGE_WORDS]
                     + [[0, 0], [2 ** 63, 1]], dtype=np.uint64)


def fresh(key, shape):
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


def assert_rows_are_fresh_streams(out, keys):
    for row, key in zip(out, keys):
        assert row.tobytes() == fresh(key, out.shape[1:]).tobytes()


class TestFillStreams:
    # 1, 3 and 5 uniforms per row end a row part-way through Philox's
    # four-word buffer; 8 ends it on a block boundary
    @pytest.mark.parametrize("shape", [(1,), (3,), (5, 1), (4, 2)])
    def test_edge_key_words(self, shape):
        out = rng.fill_streams(np.empty((len(EDGE_KEYS),) + shape), EDGE_KEYS)
        assert_rows_are_fresh_streams(out, EDGE_KEYS)
        assert out[0].tobytes() == out[-2].tobytes()

    def test_repeated_key_rows_are_equal(self):
        keys = EDGE_KEYS[[5, 9, 5, 5, 9]]
        out = rng.fill_streams(np.empty((5, 3)), keys)
        assert out[0].tobytes() == out[2].tobytes() == out[3].tobytes()
        assert out[1].tobytes() == out[4].tobytes()
        assert out[0].tobytes() != out[1].tobytes()

    def test_consecutive_fills_are_independent(self):
        # an odd-length fill leaves a part-used buffer behind; a second
        # fill with the same keys must still start every row afresh
        keys = EDGE_KEYS[:6]
        first = rng.fill_streams(np.empty((6, 3)), keys)
        second = rng.fill_streams(np.empty((6, 7)), keys)
        assert_rows_are_fresh_streams(first, keys)
        assert_rows_are_fresh_streams(second, keys)
        again = rng.fill_streams(np.empty((6, 3)), keys)
        assert again.tobytes() == first.tobytes()

    def test_template_resets_a_used_generator(self):
        # buffer_pos, has_uint32, uinteger and the counter of whatever
        # state the generator starts in must not reach any row
        real = np.random.Philox

        def used_philox(*args, **kwargs):
            bits = real(12345)
            gen = np.random.Generator(bits)
            gen.random(3)
            gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)
            assert bits.state["has_uint32"] == 1
            assert bits.state["buffer_pos"] not in (0, 4)
            return bits

        keys = EDGE_KEYS[[0, 7, 15]]
        with mock.patch.object(rng.np.random, "Philox", used_philox):
            out = rng.fill_streams(np.empty((3, 5)), keys)
        assert_rows_are_fresh_streams(out, keys)

    @settings(max_examples=60, deadline=None)
    @given(keys=hs.lists(hs.tuples(hs.integers(0, 2 ** 64 - 1),
                                   hs.integers(0, 2 ** 64 - 1)),
                         min_size=1, max_size=6),
           length=hs.integers(1, 9))
    def test_property_any_key_words(self, keys, length):
        keys = np.array(keys, dtype=np.uint64)
        out = rng.fill_streams(np.empty((len(keys), length)), keys)
        assert_rows_are_fresh_streams(out, keys)

    def test_key_count_must_match_rows(self):
        with pytest.raises(ValueError, match="one key per output row"):
            rng.fill_streams(np.empty((3, 2)), EDGE_KEYS[:2])


STARTS = [0, 4, 1024, 2 ** 22]


def assert_rows_continue_fresh_streams(out, keys, start):
    n = out[0].size
    for row, key in zip(out, keys):
        want = fresh(key, start + n)[start:].reshape(out.shape[1:])
        assert row.tobytes() == want.tobytes()


class TestStreamOffset:
    # 1, 3 and 5 uniforms per row end it part-way through a Philox block
    @pytest.mark.parametrize("start", STARTS[:-1])
    @pytest.mark.parametrize("shape", [(1,), (3,), (5, 1), (4, 2)])
    def test_edge_key_words(self, start, shape):
        out = rng.fill_streams(np.empty((len(EDGE_KEYS),) + shape), EDGE_KEYS, start)
        assert_rows_continue_fresh_streams(out, EDGE_KEYS, start)

    def test_edge_key_words_far_into_the_stream(self):
        # each reference row draws 2**22 uniforms first, so one shape only
        out = rng.fill_streams(np.empty((len(EDGE_KEYS), 3)), EDGE_KEYS, STARTS[-1])
        assert_rows_continue_fresh_streams(out, EDGE_KEYS, STARTS[-1])

    def test_blocks_of_a_buffer_concatenate_to_the_stream(self):
        # the estimators fill the leading periods of one reused buffer
        buf = np.empty((len(EDGE_KEYS), 6, 2))
        first = rng.fill_streams(buf[:, :6], EDGE_KEYS, 0).copy()
        second = rng.fill_streams(buf[:, :3], EDGE_KEYS, 12)
        whole = np.concatenate((first, second), axis=1)
        assert_rows_continue_fresh_streams(whole, EDGE_KEYS, 0)

    @settings(max_examples=40, deadline=None)
    @given(keys=hs.lists(hs.tuples(hs.integers(0, 2 ** 64 - 1),
                                   hs.integers(0, 2 ** 64 - 1)),
                         min_size=1, max_size=4),
           start=hs.integers(0, 1024).map(lambda b: 4 * b),
           length=hs.integers(1, 9))
    def test_property_any_key_words(self, keys, start, length):
        keys = np.array(keys, dtype=np.uint64)
        out = rng.fill_streams(np.empty((len(keys), length)), keys, start)
        assert_rows_continue_fresh_streams(out, keys, start)

    @pytest.mark.parametrize("start", [0, 4096])
    def test_edge_keys_among_many_rows(self, start):
        # 2500 rows, the edge words around rows 1024 and 2048 and at the
        # first and last rows
        rows = 2 * 1024 + 452
        keys = np.random.default_rng(7).integers(0, 2 ** 64, size=(rows, 2),
                                                 dtype=np.uint64)
        edges = EDGE_KEYS[[1, 2, 3, 8, 12, 15]]   # words 0, 2**63, 2**64 - 1
        for b in (0, 1024, 2 * 1024, rows):
            lo = max(0, b - 3)
            keys[lo:lo + 6] = edges[:len(keys[lo:lo + 6])]
        out = rng.fill_streams(np.empty((rows, 3, 2)), keys, start)
        assert_rows_continue_fresh_streams(out, keys, start)

    @pytest.mark.parametrize("start", [1, 2, 3, 1022, -4])
    def test_start_must_be_a_nonnegative_multiple_of_4(self, start):
        with pytest.raises(ValueError, match="multiple of 4"):
            rng.fill_streams(np.empty((2, 3)), EDGE_KEYS[:2], start)
