"""numpy's default generator's draws for many keys at once, one lane per key.

Row s of every result has the bits that numpy's default generator seeded
with keys[s] (PCG64 under a seed sequence) gives for the same calls, as
numpy 2 defines them. keys is a list of keys (ints or tuples of them), or
Columns: one campaign pass's keys (seed, index[s], attempt[s]) as arrays.

  words     -- each key part's 32-bit words, low first, part after part;
               a list fills the table key by key, Columns with array ops
  seeding   -- the key's seed sequence: its words are hashed into a
               4-word pool (hashmix/mix; words past the fourth are mixed in
               afterwards), and generate_state(4, uint64) gives the PCG64
               seed (state, inc)
  raw words -- PCG64: a 128-bit LCG step, then the XSL-RR output (O'Neill,
               "PCG: a family of simple fast space-efficient statistically
               good algorithms for random number generation", 2014)
  integers  -- Lemire's bounded integers on 32-bit words (Lemire, "Fast
               random integer generation in an interval", ACM TOMACS 29(1),
               2019), the words taken low half first, the high half buffered
  random    -- (raw >> 11) * 2**-53

The 128-bit state is a (high, low) pair of uint64 arrays; products are
taken in 32-bit limbs. Every lane runs the same operations, so a lane's
bits never depend on the lanes drawn with it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_M32 = 0xFFFFFFFF
# the seed sequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32 = np.uint64(_M32)


def _key_words(key) -> list:
    """The seed sequence's entropy words of a key: each part's 32-bit words, low first."""
    words = []
    for part in key if isinstance(key, tuple) else (key,):
        n = operator.index(part)
        if n < 0:
            raise ValueError(f"expected non-negative integer key parts, got {n}")
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The seed sequence's running hash constant: init, then times mult, count times."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


def _hash(values, const, first: int, count: int) -> np.ndarray:
    """count hash calls, the k-th on column k of values (broadcast), each
    call xoring in the running constant, advancing it and multiplying."""
    out = (values ^ const[first : first + count]) * const[first + 1 : first + count + 1]
    return out ^ (out >> np.uint32(16))


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


class Columns:
    """One draw pass's keys (seed, index[s], attempt[s]): one seed, two integer
    arrays. A plain class: a dataclass costs about 0.8 ms at import."""

    def __init__(self, seed: int, index: np.ndarray, attempt: np.ndarray):
        self.seed, self.index, self.attempt = seed, index, attempt

    def __len__(self) -> int:
        return len(self.index)


def _word_table(keys) -> tuple:
    """Each key's entropy words as a row of a (S, >= 4) uint32 table, zero
    past the row's length (a key shorter than the pool hashes in zeros, as
    numpy's does), and the lengths."""
    if isinstance(keys, Columns):  # the seed's words, then each part's low word and any high one
        seed, rows = _key_words(keys.seed), np.arange(len(keys))
        table = np.zeros((len(keys), len(seed) + 4), dtype=np.uint32)
        table[:, :len(seed)], lengths = seed, np.full(len(keys), len(seed))
        for part in (keys.index, keys.attempt):
            part = np.asarray(part, dtype=np.int64)
            if part.min(initial=0) < 0:
                raise ValueError("expected non-negative integer key parts")
            # a one-word part's zero high word is overwritten, or lies past the row
            table[rows, lengths], table[rows, lengths + 1] = part & _M32, part >> 32
            lengths = lengths + 1 + (part > _M32)
    else:
        words = [_key_words(key) for key in keys]
        lengths = np.array([len(w) for w in words], dtype=np.intp)
        width = max(4, lengths.max(initial=0))
        table = np.array([w + [0] * (width - len(w)) for w in words], np.uint32).reshape(-1, width)
    return table[:, :max(4, lengths.max(initial=0))], lengths


def _seed_words(keys) -> list:
    """generate_state(4, uint64) of each key's seed sequence, as four
    uint64 arrays. Within one pass of the mixing loop the source word is
    fixed, so its three hashes are taken as one (S, 3) operation."""
    table, lengths = _word_table(keys)
    width = table.shape[1]
    const = _hash_consts(_INIT_A, _MULT_A, 4 * width)  # 4 * width hash calls
    pool = _hash(table[:, :4], const, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, [src]], const, 4 + 3 * src, 3))
    for src in range(4, width):  # the words past the pool, on the keys that have them
        mixed = _mix(pool, _hash(table[:, [src]], const, 4 * src, 4))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    state = _hash(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8), 0, 8)
    state = state.astype(np.uint64)
    return list((state[:, ::2] | state[:, 1::2] << np.uint64(32)).T)


def _split(x: int) -> tuple:
    return np.uint64(x >> 64), np.uint64(x & 0xFFFFFFFFFFFFFFFF)


def _mul(a, b):
    """a * b modulo 2**128, on (high, low) pairs of uint64 arrays."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _U32, a_lo >> np.uint64(32), b_lo & _U32, b_lo >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    carry = a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a, b):
    """a + b modulo 2**128, on (high, low) pairs of uint64 arrays."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


@functools.lru_cache
def _jumps(count: int) -> tuple:
    """(M^k, 1 + M + ... + M^(k-1)) modulo 2**128 for k = 1..count, with M
    the PCG64 multiplier: k steps take the state s to M^k s + (...) inc.
    Computed once per count; the arrays are read-only, as every caller
    shares them."""
    mult, add, out = 1, 0, []
    for _ in range(count):
        mult, add = mult * _PCG_MULT % 2**128, (add * _PCG_MULT + 1) % 2**128
        out.append(_split(mult) + _split(add))
    cols = tuple(np.array(col) for col in zip(*out))
    for col in cols:
        col.flags.writeable = False
    return cols


class Streams:
    """One PCG64 stream per lane, from its state and odd increment, each a
    (high, low) pair of uint64 arrays, with numpy's half-word buffer."""

    def __init__(self, state, inc):
        self.hi, self.lo = (np.array(x, dtype=np.uint64) for x in state)
        self.inc_hi, self.inc_lo = (np.array(x, dtype=np.uint64) for x in inc)
        self.buffered = np.zeros(self.hi.shape, dtype=bool)
        self.buffer = np.zeros(self.hi.shape, dtype=np.uint64)

    @classmethod
    def seeded(cls, keys) -> Streams:
        """The streams numpy's default generator gives the keys: PCG64's
        seeding steps once from 0, adds the seed state, and steps again."""
        s_hi, s_lo, i_hi, i_lo = _seed_words(keys)
        one = np.uint64(1)
        inc = (i_hi << one | i_lo >> np.uint64(63), i_lo << one | one)
        return cls(_add(_mul(_add(inc, (s_hi, s_lo)), _split(_PCG_MULT)), inc), inc)

    def steps(self, count: int, rows=slice(None)) -> np.ndarray:
        """The next count raw 64-bit words of the lanes rows, one lane per
        row: every step's state comes from the current one in one product."""
        mult_hi, mult_lo, add_hi, add_lo = _jumps(count)
        state = (self.hi[rows, None], self.lo[rows, None])
        inc = (self.inc_hi[rows, None], self.inc_lo[rows, None])
        hi, lo = _add(_mul(state, (mult_hi, mult_lo)), _mul(inc, (add_hi, add_lo)))
        self.hi[rows], self.lo[rows] = hi[:, -1], lo[:, -1]
        word, rot = hi ^ lo, hi >> np.uint64(58)
        return (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))

    def next32(self, rows: np.ndarray) -> np.ndarray:
        """The next 32-bit word of the lanes rows (an index array): a
        buffered high half, else the low half of a new raw word."""
        had = self.buffered[rows]
        out = self.buffer[rows]
        fresh = rows[~had]
        word = self.steps(1, fresh)[:, 0]
        out[~had] = word & _U32
        self.buffer[fresh] = word >> np.uint64(32)
        self.buffered[rows] = ~had
        return out

    def integers(self, low: int, high: int) -> np.ndarray:
        """Generator.integers(low, high) on every lane: Lemire's multiply,
        redrawn on the lanes whose low product half falls below the
        threshold (for any span 2 <= high - low < 2**32)."""
        span = high - low
        if not 2 <= span <= _M32:
            raise ValueError(f"need 2 <= high - low < 2**32, got {span}")
        threshold = np.uint64((_M32 + 1 - span) % span)
        todo = np.arange(self.hi.size)
        m = np.empty(self.hi.size, dtype=np.uint64)
        while todo.size:
            m[todo] = self.next32(todo) * np.uint64(span)
            todo = todo[(m[todo] & _U32) < threshold]
        return (m >> np.uint64(32)).astype(np.int64) + low

    def random(self, count: int) -> np.ndarray:
        """Generator.random(count) on every lane, one lane per row."""
        return (self.steps(count) >> np.uint64(11)) * (1.0 / 9007199254740992.0)
