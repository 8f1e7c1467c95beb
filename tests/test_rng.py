"""Named stream derivation: the determinism everything else leans on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.rng import _seed_states, derive_rng, derive_rngs


def test_equal_paths_give_identical_streams():
    a = derive_rng(7, "mix", 3).standard_normal(16)
    b = derive_rng(7, "mix", 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_any_path_difference_changes_the_stream():
    base = derive_rng(7, "mix", 3).standard_normal(16)
    for other in (
        derive_rng(8, "mix", 3),
        derive_rng(7, "mixx", 3),
        derive_rng(7, "mix", 4),
        derive_rng(7, "mix"),
        derive_rng(7, 3, "mix"),
    ):
        assert not np.array_equal(base, other.standard_normal(16))


def test_streams_are_order_independent():
    # drawing slot 5 first or last yields the same values for slot 5
    direct = derive_rng(0, "slot", 5).random(8)
    for i in range(5):
        derive_rng(0, "slot", i).random(8)
    again = derive_rng(0, "slot", 5).random(8)
    assert np.array_equal(direct, again)


def test_numpy_integer_path_parts_match_python_ints():
    a = derive_rng(1, "x", np.int64(9)).random(4)
    b = derive_rng(1, "x", 9).random(4)
    assert np.array_equal(a, b)


def test_in_range_streams_keep_their_values():
    # pinned draws: range checking and label-hash caching must not move a stream
    got = derive_rng(7, "mix", 3).integers(0, 2**62, size=2).tolist()
    assert got == [1177109886749787726, 4152327958525300344]


@pytest.mark.parametrize("seed", [2**32, 2**32 + 5, -1, -(2**32)])
def test_out_of_range_seed_is_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        derive_rng(seed, "x")


@pytest.mark.parametrize("part", [2**32, -1, np.int64(-3), np.uint64(2**63)])
def test_out_of_range_integer_path_part_is_rejected(part):
    with pytest.raises(ValueError, match="path part"):
        derive_rng(0, "slot", part)


def test_range_edges_are_accepted():
    top = derive_rng(2**32 - 1, "x", 2**32 - 1).random(8)
    assert not np.array_equal(top, derive_rng(0, "x", 2**32 - 1).random(8))


_seeds = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
_names = st.one_of(st.sampled_from(["", "é", "<日本>", "x" * 1000]), st.text(max_size=40))


@settings(max_examples=100, deadline=None)
@given(_seeds, st.text(max_size=10), st.lists(_names, max_size=12))
def test_bulk_streams_are_the_single_streams(seed, label, names):
    bulk = list(derive_rngs(seed, label, names))
    assert len(bulk) == len(names)
    for rng, name in zip(bulk, names):
        want = derive_rng(seed, label, name)
        assert np.array_equal(rng.standard_normal(5), want.standard_normal(5))
        assert rng.integers(0, 2**62, size=3).tolist() == want.integers(0, 2**62, size=3).tolist()


@pytest.mark.parametrize("length", range(1, 10))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_array_mixing_is_seed_sequence_mixing(length, data):
    # below 4 words the pool is padded; above 4 each extra word is mixed into it
    word = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
    rows = data.draw(st.lists(st.lists(word, min_size=length, max_size=length), min_size=1, max_size=4))
    want = [np.random.SeedSequence(row).generate_state(8) for row in rows]
    assert np.array_equal(_seed_states(np.array(rows, np.uint32)), want)


def test_bulk_streams_check_the_seed():
    with pytest.raises(ValueError, match="seed"):
        derive_rngs(2**32, "gram", ["ab"])


def test_a_bulk_stream_seeds_its_generator_with_four_words_only():
    seed_seq = next(derive_rngs(0, "gram", ["ab"])).bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    with pytest.raises(ValueError, match="^holds 4 uint64 words, not 8 of "):
        seed_seq.generate_state(8, np.uint64)
