"""Ranking rewards and the Plackett-Luce permutation model.

Everything here is exact math over small candidate slates: truncated DCG/NDCG
with base-2 gains, the Plackett-Luce distribution parameterized by a raw score
vector, its log-density gradient, and a brute-force enumeration oracle used to
cross-check the head's sampled gradient in training. DCG and the
Plackett-Luce log-density with its gradient are each written once, batched
over rankings; the one-ranking functions are validated views of them.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import AllZeroRelevance, ContractViolation, OracleTooLarge

# K! enumeration stays exact and affordable up to this slate size.
MAX_ENUMERATION_K = 8


def _as_permutation(perm) -> np.ndarray:
    p = np.asarray(perm, dtype=np.int64)
    if p.ndim != 1 or p.size == 0:
        raise ContractViolation("permutation must be a non-empty 1-d sequence")
    if not np.array_equal(np.sort(p), np.arange(p.size)):
        raise ContractViolation(f"not a permutation of 0..{p.size - 1}: {list(p)!r}")
    return p


def _as_grades(rel, n: int | None = None) -> np.ndarray:
    r = np.asarray(rel, dtype=np.float64)
    if r.ndim != 1 or r.size == 0 or (n is not None and r.size != n):
        raise ContractViolation(
            f"relevance must be 1-d of length {'>0' if n is None else n}, got shape {r.shape}"
        )
    if np.any(r < 0) or not np.all(np.isfinite(r)):
        raise ContractViolation("relevance grades must be finite and non-negative")
    return r


def _as_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ContractViolation("scores must be a non-empty 1-d vector")
    if not np.all(np.isfinite(s)):
        raise ContractViolation("scores must be finite")
    return s


def _check_cutoff(cutoff: int) -> int:
    c = int(cutoff)
    if c < 1:
        raise ContractViolation(f"cutoff must be >= 1, got {cutoff}")
    return c


def discounts(depth: int) -> np.ndarray:
    """1/log2(rank+1) for ranks 1..depth."""
    return 1.0 / np.log2(np.arange(1, depth + 1, dtype=np.float64) + 1.0)


def ideal_permutation(rel) -> np.ndarray:
    """Grades descending, ties broken by ascending candidate index."""
    r = _as_grades(rel)
    return np.lexsort((np.arange(r.size), -r)).astype(np.int64)


def _dcg(ranked_gains: np.ndarray, cutoff: int) -> np.ndarray:
    """Truncated DCG of each row of gains in rank order (..., K): sum over
    ranks k <= cutoff of gain_k / log2(k + 1)."""
    c = min(cutoff, ranked_gains.shape[-1])
    return ranked_gains[..., :c] @ discounts(c)


def dcg(perm, rel, cutoff: int) -> float:
    """Truncated DCG of one ranking, with gains 2^grade - 1."""
    p = _as_permutation(perm)
    r = _as_grades(rel, p.size)
    return float(_dcg((np.exp2(r) - 1.0)[p], _check_cutoff(cutoff)))


def batched_ndcg(perms, rel, cutoff: int) -> np.ndarray:
    """NDCG of every row of an (N, K) ranking array against one grade vector."""
    r = _as_grades(rel)
    p = np.asarray(perms, dtype=np.int64)
    if p.ndim != 2 or p.shape[1] != r.size:
        raise ContractViolation(f"rankings must be (N, {r.size}), got shape {p.shape}")
    if not np.any(r > 0):
        raise AllZeroRelevance("NDCG undefined: all relevance grades are zero")
    c = _check_cutoff(cutoff)
    gains = np.exp2(r) - 1.0
    return _dcg(gains[p], c) / float(_dcg(np.sort(gains)[::-1], c))


def ndcg(perm, rel, cutoff: int) -> float:
    """DCG normalized by the ideal ordering's DCG, truncated at the same cutoff."""
    return float(batched_ndcg(_as_permutation(perm)[None, :], rel, cutoff)[0])


def _suffix_logsumexp(s_perm: np.ndarray) -> np.ndarray:
    """lse[k] = logsumexp(s_perm[k:]) along the last axis, numerically stable."""
    rev = np.flip(s_perm, axis=-1)
    return np.flip(np.logaddexp.accumulate(rev, axis=-1), axis=-1)


def pl_log_probs_and_grads(perms, scores) -> tuple[np.ndarray, np.ndarray]:
    """Plackett-Luce log-probabilities (N,) of N rankings and their score gradients (N, K).

    P(perm|s) = prod_k exp(s_{perm[k]}) / sum_{j>=k} exp(s_{perm[j]}), and
    d log P / d s_i = 1 - the sum, over the stages k at which i was still
    available, of the stage-k softmax weight of i. Unavailable slots are
    masked before exp, so any score spread gives exact zeros, never inf * 0.
    """
    p = np.asarray(perms, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or p.ndim != 2 or p.shape[1] != s.size:
        raise ContractViolation(f"need rankings (N, K) and scores (K,), got {p.shape} and {s.shape}")
    k = s.size
    s_perm = s[p]
    lse = _suffix_logsumexp(s_perm)  # (N, K) stagewise denominators
    avail = np.arange(k)[:, None] <= np.arange(k)[None, :]  # stage k sees slots j >= k
    log_weights = np.where(avail, s_perm[:, None, :] - lse[:, :, None], -np.inf)  # (N, stage, slot)
    grads = np.empty_like(s_perm)
    np.put_along_axis(grads, p, 1.0 - np.exp(log_weights).sum(axis=1), axis=1)
    return np.sum(s_perm - lse, axis=1), grads


def _one_ranking(perm, scores) -> tuple[np.ndarray, np.ndarray]:
    p = _as_permutation(perm)
    s = _as_scores(scores)
    if s.size != p.size:
        raise ContractViolation(f"scores length {s.size} != permutation length {p.size}")
    return pl_log_probs_and_grads(p[None, :], s)


def pl_log_prob(perm, scores) -> float:
    """Log-probability of drawing `perm` under Plackett-Luce with raw scores."""
    return float(_one_ranking(perm, scores)[0][0])


def pl_grad_scores(perm, scores) -> np.ndarray:
    """Gradient of pl_log_prob with respect to the score vector."""
    return _one_ranking(perm, scores)[1][0]


def pl_sample_many(scores, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n permutations by sequential softmax over the remaining items.

    Returns an (n, K) int array. Each of the K positions is filled by a
    categorical draw over the not-yet-chosen items, which is exactly the
    Plackett-Luce factorization.
    """
    s = _as_scores(scores)
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    k = s.size
    work = np.broadcast_to(s, (n, k)).copy()
    out = np.empty((n, k), dtype=np.int64)
    rows = np.arange(n)
    for pos in range(k):
        shifted = work - work.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        cdf = np.cumsum(probs, axis=1)
        u = rng.random(n) * cdf[:, -1]
        choice = np.minimum((cdf <= u[:, None]).sum(axis=1), k - 1)
        # Float boundary hits on zero-width (already chosen) segments are
        # re-pointed at the most probable remaining item.
        bad = ~np.isfinite(work[rows, choice])
        if np.any(bad):
            choice[bad] = np.argmax(probs[bad], axis=1)
        out[:, pos] = choice
        work[rows, choice] = -np.inf
    return out


def enumerate_expected_reward(scores, rel, cutoff: int) -> tuple[float, np.ndarray]:
    """Exact E[ndcg(tau)] and its score gradient by summing over all K! permutations.

    Refuses K > MAX_ENUMERATION_K. The gradient is the exact REINFORCE
    identity sum_tau P(tau|s) * ndcg(tau) * d log P(tau|s)/ds, which every
    sampled estimator in training must match in expectation.
    """
    s = _as_scores(scores)
    if s.size > MAX_ENUMERATION_K:
        raise OracleTooLarge(
            f"enumeration over {s.size}! permutations exceeds the K={MAX_ENUMERATION_K} cap"
        )
    perms = np.array(list(itertools.permutations(range(s.size))), dtype=np.int64)
    log_probs, grads = pl_log_probs_and_grads(perms, s)
    weighted = np.exp(log_probs) * batched_ndcg(perms, rel, cutoff)
    return float(weighted.sum()), weighted @ grads
