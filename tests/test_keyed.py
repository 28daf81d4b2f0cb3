"""invlog.keyed against numpy's own Generator, bit for bit.

The seeding layer is held to np.random.default_rng(key); the layer after
it (raw words, integers, random) to a Generator set to the same PCG64
state, including a state planted so that Lemire's rejection fires, which
no real key is known to do (its chance is 2**-32 per draw).
"""

import numpy as np
import pytest

from invlog import keyed
from invlog.keyed import Streams

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = 2**128


def _generator(state: int, inc: int) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _streams(states, incs) -> Streams:
    def halves(values):
        return (np.array([v >> 64 for v in values], dtype=np.uint64),
                np.array([v % 2**64 for v in values], dtype=np.uint64))
    return Streams(halves(states), halves(incs))


def _draws(gen_or_streams):
    """The calls a Schwarz draw makes: integers(5), integers(1, 5), random(9)."""
    return gen_or_streams.integers(0, 5), gen_or_streams.integers(1, 5), gen_or_streams.random(9)


_KEYS = ([(3, i, a) for i in range(300) for a in range(4)]
         + [(2**32 + 5, i, 0) for i in range(50)] + [(2**96 + 11, i, 3) for i in range(50)]
         + [(99, i) for i in range(50)] + list(range(50))
         + [(i, 2**33 + i, 2**64 + i) if i % 2 else (i, i) for i in range(50)]
         + [0, (0,), (), (1, 2, 3, 4, 5, 6, 7, 8, 9), 2**200 + 1])


def test_seeded_streams_give_default_rng_bits():
    raw = Streams.seeded(_KEYS).steps(5)
    for key, row in zip(_KEYS, raw):
        assert np.array_equal(np.random.default_rng(key).bit_generator.random_raw(5), row), key
    got = _draws(Streams.seeded(_KEYS))
    for s, key in enumerate(_KEYS):
        want = _draws(np.random.default_rng(key))
        assert [got[0][s], got[1][s], got[2][s].tolist()] == [
            want[0], want[1], want[2].tolist()], key


def test_a_lane_does_not_depend_on_the_lanes_drawn_with_it():
    together = Streams.seeded(_KEYS).steps(3)
    for s in (0, 17, len(_KEYS) - 1):
        assert np.array_equal(Streams.seeded(_KEYS[s:s + 1]).steps(3)[0], together[s])


def test_repeated_steps_share_one_read_only_jump_table():
    streams = Streams.seeded(_KEYS[:20])
    first, second = streams.steps(4), streams.steps(4)
    for key, a, b in zip(_KEYS, first, second):
        want = np.random.default_rng(key).bit_generator.random_raw(8)
        assert np.array_equal(np.concatenate([a, b]), want), key
    # computed once per count and shared by every caller, so never written
    assert keyed._jumps(4) is keyed._jumps(4)
    assert not any(table.flags.writeable for table in keyed._jumps(4))


def _state_before(output: int, inc: int) -> int:
    """A state whose next raw word is output: the step's target has no
    rotation (top six bits zero) and high ^ low = output, and the step
    s -> M s + inc is inverted with M's inverse modulo 2**128."""
    hi = 0x0123456789ABCDEF
    target = hi << 64 | (hi ^ output)
    return (target - inc) * pow(_PCG_MULT, -1, _M128) % _M128


@pytest.mark.parametrize("output", [0xDEADBEEF00000000, 0], ids=["low-half-zero", "zero"])
def test_lemire_rejection_redraws_as_numpy_does(output):
    inc = 2 * 0x9E3779B97F4A7C15F39CC0605CEDC835 % _M128 + 1
    planted = _state_before(output, inc)
    assert _generator(planted, inc).bit_generator.random_raw() == output
    # the other rows are real seeded states, whose first draw does not reject
    others = [np.random.default_rng((5, i)).bit_generator.state["state"] for i in range(6)]
    states = [o["state"] for o in others[:3]] + [planted] + [o["state"] for o in others[3:]]
    incs = [o["inc"] for o in others[:3]] + [inc] + [o["inc"] for o in others[3:]]
    got = _draws(_streams(states, incs))
    for s, (state, row_inc) in enumerate(zip(states, incs)):
        want = _draws(_generator(state, row_inc))
        assert [got[0][s], got[1][s], got[2][s].tolist()] == [want[0], want[1], want[2].tolist()]
    # the planted row took the rejection path: integers(5) read two or three
    # 32-bit words, where an accepted first word leaves its high half buffered
    rejected, stepped = _streams([planted], [inc]), _streams([planted], [inc])
    rejected.integers(0, 5)
    stepped.steps(2 if output == 0 else 1)
    assert (rejected.hi[0], rejected.lo[0]) == (stepped.hi[0], stepped.lo[0])
    assert rejected.buffered[0] == (output == 0)


def test_integers_takes_only_lemire_spans():
    streams = Streams.seeded([(1, 2)])
    for low, high in ((0, 1), (0, 2**32 + 1), (3, 3)):
        with pytest.raises(ValueError, match="high - low"):
            streams.integers(low, high)


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**96 + 11])
def test_key_columns_give_default_rng_bits(seed):
    # attempts 0-3 mixed in one table, and two-word indices (>= 2**32)
    # next to one-word ones, so rows of one table differ in length
    index = np.array([0, 1, 2**32, 7, 2**32 + 9, 2**40 + 3, 299, 2**32 - 1])
    attempt = np.array([0, 3, 1, 2, 0, 3, 1, 2])
    keys = keyed.Columns(seed, index, attempt)
    raw = Streams.seeded(keys).steps(5)
    got = _draws(Streams.seeded(keys))
    for s, key in enumerate(zip([seed] * len(index), index.tolist(), attempt.tolist())):
        assert np.array_equal(np.random.default_rng(key).bit_generator.random_raw(5), raw[s]), key
        want = _draws(np.random.default_rng(key))
        assert [got[0][s], got[1][s], got[2][s].tolist()] == [
            want[0], want[1], want[2].tolist()], key
        # a one-key replay, as a key list, is its row of the chunk
        assert np.array_equal(Streams.seeded([key]).steps(5)[0], raw[s]), key


def test_key_columns_refuse_a_negative_part():
    for index, attempt in (([1, -1], [0, 0]), ([1, 2], [0, -3])):
        with pytest.raises(ValueError, match="non-negative"):
            Streams.seeded(keyed.Columns(3, np.array(index), np.array(attempt)))
