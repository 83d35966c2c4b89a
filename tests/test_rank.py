"""Core ranking math against enumeration and finite-difference oracles.

Expected constants below were computed with standalone reference
implementations (pure-math DCG/PL recursions plus central differences)
before this module existed, then frozen.
"""
import itertools
import math

import numpy as np
import pytest

from plrank.errors import AllZeroRelevance, ContractViolation, OracleTooLarge
from plrank.rank import (
    dcg,
    enumerate_expected_reward,
    ideal_permutation,
    mc_reward_gradient,
    ndcg,
    pl_grad_scores,
    pl_log_prob,
    pl_log_probs_and_grads,
    pl_sample,
    pl_sample_many,
)

# Frozen oracle values.
DCG_102 = 0.6309297535714575          # dcg(perm=(1,0,2), rel=(1,0,0), cutoff=3)
DCG_GRADED = 7.4165082750002025       # dcg(perm=(1,0), rel=(3,2), cutoff=2)
NDCG_GRADED = 0.8339912323981488      # ndcg(perm=(1,0), rel=(3,2), cutoff=2)
NDCG_RANK10 = 0.2890648263178879      # single positive at rank 10, K=20, cutoff=10
LOGP_UNIFORM3 = -1.791759469228055    # pl_log_prob(any 3-perm, scores=(0,0,0)) = ln(1/6)
LOGP_LN2 = -0.4054651081081645        # pl_log_prob((0,1), scores=(ln2, 0)) = ln(2/3)
LOGP_DESC = -0.7208676519626032       # pl_log_prob((0,1,2), scores=(1,0,-1))
EXP_REWARD_K2 = 0.8154648767857288    # enumerate: scores=(0,0), rel=(1,0), cutoff=2
EXP_GRAD_K2 = 0.0922675616            # matching exact gradient (+ for item 0, - for item 1)
RANDOM_LEVEL_20_10 = 0.2271779669044173  # uniform rank of one positive in 20, cutoff 10


def test_dcg_worked_examples():
    assert dcg((1, 0, 2), (1, 0, 0), 3) == pytest.approx(DCG_102, abs=1e-12)
    assert dcg((1, 0), (3, 2), 2) == pytest.approx(DCG_GRADED, abs=1e-12)


def test_dcg_cutoff_truncates():
    rel = (1, 0, 0, 2)
    assert dcg((0, 1, 2, 3), rel, 1) == pytest.approx(1.0)
    # anything ranked past the cutoff contributes nothing
    assert dcg((0, 1, 2, 3), rel, 2) == dcg((0, 1, 3, 2), rel, 2)


def test_ndcg_worked_examples():
    assert ndcg((1, 0), (3, 2), 2) == pytest.approx(NDCG_GRADED, abs=1e-12)
    perm = list(range(20))
    rel = [0] * 20
    rel[9] = 1
    assert ndcg(perm, rel, 10) == pytest.approx(NDCG_RANK10, abs=1e-12)
    assert ndcg(perm, rel, 9) == 0.0


def test_ndcg_ideal_is_one_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        rel = rng.integers(0, 4, size=k)
        if not np.any(rel > 0):
            rel[int(rng.integers(0, k))] = 1
        cutoff = int(rng.integers(1, k + 2))
        ideal = ideal_permutation(rel)
        assert ndcg(ideal, rel, cutoff) == pytest.approx(1.0, abs=1e-12)
        perm = rng.permutation(k)
        v = ndcg(perm, rel, cutoff)
        assert 0.0 <= v <= 1.0 + 1e-12


def test_ndcg_invariant_under_equal_grade_swaps():
    rel = (2, 1, 1, 0, 0)
    a = ndcg((0, 1, 2, 3, 4), rel, 5)
    b = ndcg((0, 2, 1, 4, 3), rel, 5)  # swap equal-grade items
    assert a == pytest.approx(b, abs=1e-15)


def test_dcg_improves_when_higher_grade_moves_up():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        rel = rng.integers(0, 4, size=k).astype(float)
        perm = rng.permutation(k)
        i = int(rng.integers(0, k - 1))
        lo, hi = perm[i], perm[i + 1]
        if rel[lo] >= rel[hi]:
            continue
        swapped = perm.copy()
        swapped[i], swapped[i + 1] = hi, lo
        cutoff = int(rng.integers(1, k + 1))
        assert dcg(swapped, rel, cutoff) >= dcg(perm, rel, cutoff) - 1e-12


def test_ideal_tie_break_is_stable():
    assert list(ideal_permutation((1, 2, 2, 0))) == [1, 2, 0, 3]
    assert list(ideal_permutation((0, 0, 1))) == [2, 0, 1]


def test_all_zero_relevance_raises():
    with pytest.raises(AllZeroRelevance):
        ndcg((0, 1), (0, 0), 2)
    with pytest.raises(AllZeroRelevance):
        enumerate_expected_reward((0.0, 0.0), (0, 0), 2)


def test_contract_violations():
    with pytest.raises(ContractViolation):
        dcg((0, 0), (1, 0), 2)  # not a permutation
    with pytest.raises(ContractViolation):
        dcg((0, 1), (1, 0, 0), 2)  # length mismatch
    with pytest.raises(ContractViolation):
        ndcg((0, 1), (1, 0), 0)  # cutoff < 1
    with pytest.raises(ContractViolation):
        pl_log_prob((0, 1), (0.0, 0.0, 0.0))
    with pytest.raises(ContractViolation):
        dcg((0, 1), (1, -1), 2)  # negative grade


def test_pl_log_prob_worked_examples():
    assert pl_log_prob((0, 1, 2), (0.0, 0.0, 0.0)) == pytest.approx(LOGP_UNIFORM3, abs=1e-12)
    assert pl_log_prob((2, 0, 1), (0.0, 0.0, 0.0)) == pytest.approx(LOGP_UNIFORM3, abs=1e-12)
    assert pl_log_prob((0, 1), (math.log(2.0), 0.0)) == pytest.approx(LOGP_LN2, abs=1e-12)
    assert pl_log_prob((0, 1, 2), (1.0, 0.0, -1.0)) == pytest.approx(LOGP_DESC, abs=1e-12)


def test_pl_log_prob_normalizes_and_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        s = rng.normal(size=k) * 2.0
        total = sum(
            math.exp(pl_log_prob(p, s)) for p in itertools.permutations(range(k))
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        perm = rng.permutation(k)
        shifted = pl_log_prob(perm, s + 17.5)
        assert shifted == pytest.approx(pl_log_prob(perm, s), abs=1e-9)


def test_pl_log_prob_extreme_scores_stable():
    # max-subtraction keeps +-500 score spreads finite
    v = pl_log_prob((0, 1, 2), (500.0, 0.0, -500.0))
    assert np.isfinite(v)
    assert v == pytest.approx(0.0, abs=1e-12)
    # unavailable slots are masked before exp: spreads past exp's range never make inf * 0
    perms = np.array(list(itertools.permutations(range(3))))
    for s in ((500.0, 0.0, -500.0), (0.0, 360.0, -360.0)):
        _, grads = pl_log_probs_and_grads(perms, s)
        assert np.all(np.isfinite(grads))
        for perm, g in zip(perms, grads):
            assert np.array_equal(g, pl_grad_scores(perm, s))
        top = np.argsort(s)[::-1]  # every draw at this spread
        rel = np.zeros(3)
        rel[top[0]] = 1
        mean, grad, se = mc_reward_gradient(s, rel, 3, 64, np.random.default_rng(0))
        assert mean == 1.0
        assert np.array_equal(grad, pl_grad_scores(top, s))
        assert grad == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert np.array_equal(se, np.zeros(3))


def test_pl_grad_worked_example_and_zero_sum():
    g = pl_grad_scores((0, 1), (0.0, 0.0))
    assert g == pytest.approx([0.5, -0.5], abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        s = rng.normal(size=k) * 1.5
        perm = rng.permutation(k)
        grad = pl_grad_scores(perm, s)
        assert grad.sum() == pytest.approx(0.0, abs=1e-10)


def test_pl_grad_matches_central_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    worst = 0.0
    for _ in range(40):
        k = int(rng.integers(2, 7))
        s = rng.normal(size=k) * 1.5
        perm = rng.permutation(k)
        grad = pl_grad_scores(perm, s)
        for i in range(k):
            sp, sm = s.copy(), s.copy()
            sp[i] += h
            sm[i] -= h
            fd = (pl_log_prob(perm, sp) - pl_log_prob(perm, sm)) / (2 * h)
            worst = max(worst, abs(fd - grad[i]))
    assert worst < 1e-6


def test_pl_permutation_covariance():
    # relabeling items permutes log-probs and gradients consistently
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        s = rng.normal(size=k)
        perm = rng.permutation(k)
        relabel = rng.permutation(k)  # new_index = relabel[old_index]
        inv = np.argsort(relabel)
        s2 = s[inv]
        perm2 = relabel[perm]
        assert pl_log_prob(perm2, s2) == pytest.approx(pl_log_prob(perm, s), abs=1e-12)
        assert pl_grad_scores(perm2, s2)[relabel] == pytest.approx(
            pl_grad_scores(perm, s), abs=1e-12
        )


def test_pl_sample_matches_exact_distribution():
    rng = np.random.default_rng(23)
    s = np.array([0.8, -0.3, 0.1])
    n = 60_000
    draws = pl_sample_many(s, n, rng)
    perms = list(itertools.permutations(range(3)))
    counts = {p: 0 for p in perms}
    for row in map(tuple, draws):
        counts[row] += 1
    for p in perms:
        exact = math.exp(pl_log_prob(p, s))
        freq = counts[p] / n
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(freq - exact) < 4 * se, (p, freq, exact)


def test_pl_sample_single_draw_shape():
    rng = np.random.default_rng(1)
    perm = pl_sample((0.3, 0.1, -0.2, 0.0), rng)
    assert sorted(perm.tolist()) == [0, 1, 2, 3]


def test_enumerate_expected_reward_worked_example():
    value, grad = enumerate_expected_reward((0.0, 0.0), (1, 0), 2)
    assert value == pytest.approx(EXP_REWARD_K2, abs=1e-12)
    assert grad == pytest.approx([EXP_GRAD_K2, -EXP_GRAD_K2], abs=1e-9)


def test_enumerate_expected_reward_matches_value_finite_differences():
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(10):
        k = int(rng.integers(2, 5))
        s = rng.normal(size=k)
        rel = rng.integers(0, 3, size=k)
        if not np.any(rel > 0):
            rel[0] = 1
        cutoff = int(rng.integers(1, k + 1))
        _, grad = enumerate_expected_reward(s, rel, cutoff)
        for i in range(k):
            sp, sm = s.copy(), s.copy()
            sp[i] += h
            sm[i] -= h
            vp, _ = enumerate_expected_reward(sp, rel, cutoff)
            vm, _ = enumerate_expected_reward(sm, rel, cutoff)
            assert grad[i] == pytest.approx((vp - vm) / (2 * h), abs=5e-6)


def test_enumerate_rejects_large_k():
    with pytest.raises(OracleTooLarge):
        enumerate_expected_reward(np.zeros(9), np.eye(9)[0], 3)


def test_uniform_scores_random_level():
    rel = np.zeros(20)
    rel[4] = 1.0
    rng = np.random.default_rng(31)
    draws = pl_sample_many(np.zeros(20), 40_000, rng)
    rewards = []
    disc = {r: 1.0 / math.log2(r + 1) for r in range(1, 11)}
    for row in draws:
        rank = int(np.where(row == 4)[0][0]) + 1
        rewards.append(disc.get(rank, 0.0))
    mean = float(np.mean(rewards))
    se = float(np.std(rewards) / math.sqrt(len(rewards)))
    assert abs(mean - RANDOM_LEVEL_20_10) < 4 * se


def test_mc_reward_gradient_consistent_with_enumeration():
    rng = np.random.default_rng(37)
    s = rng.normal(size=4)
    rel = np.array([0, 1, 0, 0])
    exact_value, exact_grad = enumerate_expected_reward(s, rel, 2)
    mean, grad, se = mc_reward_gradient(s, rel, 2, 50_000, rng)
    assert abs(mean - exact_value) < 0.01
    for i in range(4):
        assert abs(grad[i] - exact_grad[i]) < 4 * se[i]
