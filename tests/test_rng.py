"""The rng module's output contract: ``take`` against ``next_u64`` and the
shared rules that turn words into values."""

import pytest

from apolar.rng import GAMMA, SplitMix64, coin_of, nonzero_of, substream

STATES = {
    "zero": 0,
    "top": 2**64 - 1,
    "wraps": 2**64 - 5,
    **{
        f"substream-{seed}-{t}": substream(seed, t)._state
        for seed, t in [(4242, 0), (3001, 7), (71, 123)]
    },
}


@pytest.mark.parametrize("k", [0, 1, 2, 126, 1000])
@pytest.mark.parametrize("state", STATES.values(), ids=STATES.keys())
def test_take_returns_the_words_and_state_of_k_next_u64_calls(state, k):
    batch, single = SplitMix64(state), SplitMix64(state)
    assert list(batch.take(k)) == [single.next_u64() for _ in range(k)]
    assert batch._state == single._state == (state + k * GAMMA) % 2**64
    assert batch.next_u64() == single.next_u64()


def test_substream_4242_0_starts_with_its_pinned_words():
    pinned = (
        7089086377954958998,
        4064014251441399930,
        12707615902834169594,
        8625501192394093610,
    )
    assert substream(4242, 0).take(4) == pinned
    stream = substream(4242, 0)
    assert tuple(stream.next_u64() for _ in range(4)) == pinned


def test_take_refuses_a_negative_count():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        rng.take(-1)
    assert rng._state == 1


@pytest.mark.parametrize("bound", [1, 5, 9])
def test_nonzero_rule_maps_residues_onto_the_nonzero_range(bound):
    values = [nonzero_of(v, bound) for v in range(2 * bound)]
    assert values == [*range(-bound, 0), *range(1, bound + 1)]


def test_methods_apply_the_word_rules_to_one_word():
    rng, words = substream(5, 5), substream(5, 5)
    for _ in range(100):
        assert rng.coin() is coin_of(words.next_u64())
        assert rng.nonzero_int(7) == nonzero_of(words.next_u64(), 7)
