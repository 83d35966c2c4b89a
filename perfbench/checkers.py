"""Reference checks the benchmark holds the program's outputs against.

They are written from the definitions, not from the program's code, so a
fault shared by the program's rank math and these checks is unlikely. Every
slate in this benchmark has exactly one relevant candidate, which makes NDCG
a function of that candidate's rank alone.
"""
from __future__ import annotations

import math


def ndcg_single_positive(rank: int, cutoff: int) -> float:
    """NDCG@cutoff of a slate whose only relevant item sits at 0-based `rank`.

    The ideal ordering puts the item first, with DCG 1/log2(2) = 1, so the
    normalised value is the item's own discount 1/log2(rank + 2), and 0 once
    the item falls past the cutoff.
    """
    if rank < 0 or cutoff < 1:
        raise ValueError(f"need rank >= 0 and cutoff >= 1, got {rank}, {cutoff}")
    return 1.0 / math.log2(rank + 2) if rank < cutoff else 0.0


def positive_rank(scores, positive: int) -> int:
    """0-based rank of slot `positive` when slots are sorted by descending score.

    A tie goes to the earlier slot: every slot with a higher score, and every
    earlier slot with an equal score, is ranked ahead of it.
    """
    values = [float(s) for s in scores]
    if not 0 <= positive < len(values):
        raise ValueError(f"slot {positive} out of range for {len(values)} scores")
    mine = values[positive]
    return sum(1 for slot, s in enumerate(values) if s > mine or (s == mine and slot < positive))


def is_permutation(seq, k: int) -> bool:
    """True when `seq` holds each of 0..k-1 exactly once."""
    items = [int(x) for x in seq]
    return len(items) == k and sorted(items) == list(range(k))


def rank_in_ranking(ranking, slot: int) -> int:
    """0-based position of `slot` in a ranking given as slots, best first."""
    for position, item in enumerate(ranking):
        if int(item) == slot:
            return position
    raise ValueError(f"slot {slot} does not appear in the ranking")
