"""Label permutation schemes with reproducible per-permutation streams.

Each permutation owns an independent random stream derived from
(master seed, permutation index), so results do not depend on how the
permutations are scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBalanceError, SingleClassError, ValidationError

SCHEMES = ("balanced", "unbalanced")


@dataclass(frozen=True)
class PermutationPlan:
    scheme: str = "balanced"
    B: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.B < 1:
            raise ValidationError(f"B must be >= 1, got {self.B}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


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
    y = np.asarray(labels, dtype=np.int64)
    neg = np.flatnonzero(y == -1)
    pos = np.flatnonzero(y == 1)
    n_neg, n_pos = neg.size, pos.size
    if n_neg == 0 or n_pos == 0:
        raise SingleClassError("both classes are required to permute")
    if scheme == "unbalanced":
        return y[stream.permutation(y.size)]
    if scheme != "balanced":
        raise ValidationError(f"unknown scheme {scheme!r}")

    if n_neg < 2 or n_pos < 2:
        raise InfeasibleBalanceError(
            "balanced permutation needs at least 2 samples per class"
        )
    if n_neg % 2 == 0:
        k = n_neg // 2
    else:
        k = n_neg // 2 + int(stream.integers(0, 2))
    if not half_split_fits(n_neg, n_pos, k):
        # half-and-half is infeasible; fall back to the composition-matched
        # draw so no class-mixture signal survives the relabeling
        k = n_neg - min(round(n_neg * n_pos / (n_neg + n_pos)), n_pos)
    m = n_neg - k  # -1 labels handed to original +1 members
    keep_neg = stream.choice(neg, size=k, replace=False)
    take_pos = stream.choice(pos, size=m, replace=False)
    out = np.ones(y.size, dtype=np.int64)
    out[keep_neg] = -1
    out[take_pos] = -1
    return out
