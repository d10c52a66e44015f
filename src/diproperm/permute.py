"""Label permutation schemes with reproducible per-permutation streams.

Each permutation b owns an independent random stream derived from
(master seed, b), so results do not depend on how the permutations are
scheduled across workers.  derive_stream builds that stream through
numpy's SeedSequence, and permute_labels draws one relabeling from it.

A run relabels a block of permutations in one pass (relabel_block): it
checks y and finds its class index sets once, and computes the seed
words of every row at once by running SeedSequence's hash over numpy
arrays (_seed_words).  numpy's RNG policy (NEP 19) keeps that hash
stable, so each row's Generator(PCG64) starts where derive_stream's
would and draws the same labels bit for bit.  derive_stream, numpy's
own code, is the reference the block is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InfeasibleBalanceError, SingleClassError, ValidationError, is_integer

SCHEMES = ("balanced", "unbalanced")


@dataclass(frozen=True)
class PermutationPlan:
    scheme: str = "balanced"
    B: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not is_integer(self.B) or self.B < 1:
            raise ValidationError(f"B must be an integer >= 1, got {self.B!r}")
        if self.B >= 2**32:  # so every spawn key is one word (_seed_words)
            raise ValidationError(f"B must be below 2**32, got {self.B!r}")
        if not (is_integer(self.seed) and 0 <= int(self.seed) < 2**64):
            raise ValidationError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


def half_split_fits(n_neg: int, n_pos: int, keep: int | None = None) -> bool:
    """Whether the balanced half-and-half draw fits the class sizes.

    A draw keeping `keep` of the n_neg -1 members hands the other -1 labels
    to original +1 members.  `keep` defaults to n_neg // 2, the fewest a
    draw keeps, so by default the answer is whether every draw fits.
    """
    if keep is None:
        keep = n_neg // 2
    return n_neg - keep <= n_pos


def derive_stream(seed: int, perm_index: int) -> np.random.Generator:
    """Independent deterministic stream for one permutation.

    Built by spawning a child of the master seed keyed on perm_index, so
    the stream depends only on (seed, perm_index).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(perm_index),))
    return np.random.default_rng(ss)


_MASK = 0xFFFFFFFF


def _seed_words(seed: int, indices) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(b,)).generate_state(4, np.uint64) for
    each b of `indices` (0 <= b < 2**32), as the rows of an (m x 4) array.

    SeedSequence's mix_entropy and generate_state (numpy's
    random/bit_generator.pyx, constants included), with its 32-bit words
    held in masked uint64 lanes.  The entropy it mixes is the seed's two words, two zero words
    (a spawned sequence pads its entropy to the pool size) and then b, so
    only the last step and the output depend on b; they run over all of
    them at once.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK
        value = value * hash_const & _MASK
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK
        return x ^ x >> 16

    seed = int(seed)
    pool = [hashmix(word) for word in (seed & _MASK, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    b = np.asarray(indices, dtype=np.uint64)
    pool = [mix(word, hashmix(b)) for word in pool]
    state, hash_const = [], 0x8B51F9DD  # generate_state: 8 words, cycling over the pool
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK
        value = value * hash_const & _MASK
        state.append(value ^ value >> 16)
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


@cache
def _seed_words_type():
    """An ISeedSequence handing PCG64 one row of _seed_words.  Made on first
    use, so that importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds PCG64's four uint64 seed words")
            return self.words

    return SeedWords


def _relabeler(labels, scheme: str):
    """Check the labels and scheme once; return y and draw(stream, out),
    which writes one relabeling of y (permute_labels) into `out`."""
    y = np.asarray(labels, dtype=np.int64)
    neg = np.flatnonzero(y == -1)
    pos = np.flatnonzero(y == 1)
    n_neg, n_pos = neg.size, pos.size
    if n_neg == 0 or n_pos == 0:
        raise SingleClassError("both classes are required to permute")
    if scheme == "unbalanced":
        return y, lambda stream, out: np.take(y, stream.permutation(y.size), out=out)
    if scheme != "balanced":
        raise ValidationError(f"unknown scheme {scheme!r}")

    if n_neg < 2 or n_pos < 2:
        raise InfeasibleBalanceError(
            "balanced permutation needs at least 2 samples per class"
        )
    # the -1 members kept, for a draw of 0 and of 1 (only an odd n- draws);
    # where half-and-half is infeasible, the composition-matched draw, so
    # no class-mixture signal survives the relabeling
    splits = [k if half_split_fits(n_neg, n_pos, k)
              else n_neg - min(round(n_neg * n_pos / (n_neg + n_pos)), n_pos)
              for k in (n_neg // 2, n_neg // 2 + 1)]

    def draw(stream, out):
        k = splits[int(stream.integers(0, 2)) if n_neg % 2 else 0]
        out.fill(1)
        out[stream.choice(neg, size=k, replace=False)] = -1
        # -1 labels handed to original +1 members
        out[stream.choice(pos, size=n_neg - k, replace=False)] = -1

    return y, draw


def permute_labels(labels: np.ndarray, scheme: str,
                   stream: np.random.Generator) -> np.ndarray:
    """Draw one permuted label vector; class counts are always preserved.

    unbalanced: a uniformly random rearrangement of the label multiset.

    balanced: the new -1 group keeps k of the original -1 members
    (k = n-/2, randomized to floor/ceil when n- is odd) and fills the
    remaining n- - k slots with uniformly-chosen original +1 members.
    When the classes are too lopsided for that draw (n- - k exceeds the
    +1 group size), the out-group draw is reduced to round(n- n+ / n),
    which makes each relabeled group mirror the pooled class composition
    as closely as the preserved group sizes allow.
    """
    y, draw = _relabeler(labels, scheme)
    out = np.empty(y.size, dtype=np.int64)
    draw(stream, out)
    return out


def relabel_block(labels, scheme: str, seed: int, indices) -> np.ndarray:
    """The labels of a run's permutations `indices` as the rows of one
    (m x n) int64 array: row b is permute_labels(labels, scheme,
    derive_stream(seed, b)), bit for bit, and index 0 the labels
    themselves.  The labels are checked once, and every row's stream is
    seeded from _seed_words, which hashes all the rows' seeds at once.
    """
    y, draw = _relabeler(labels, scheme)
    seed_words = _seed_words_type()
    out = np.empty((len(indices), y.size), dtype=np.int64)
    for row, b, words in zip(out, indices, _seed_words(seed, indices)):
        if b:
            draw(np.random.Generator(np.random.PCG64(seed_words(words))), row)
        else:
            row[:] = y
    return out
