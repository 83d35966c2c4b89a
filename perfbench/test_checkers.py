"""Hand-worked cases for the benchmark's reference checks.

Run with `python3 -m pytest perfbench/test_checkers.py`.
"""
import math

import pytest

from checkers import is_permutation, ndcg_single_positive, positive_rank, rank_in_ranking


def test_ndcg_at_top_is_one():
    assert ndcg_single_positive(0, 10) == 1.0


def test_ndcg_second_and_third_place():
    # log2(3) = 1.5849625..., log2(4) = 2
    assert ndcg_single_positive(1, 10) == pytest.approx(0.6309297535714574, abs=1e-15)
    assert ndcg_single_positive(2, 10) == 0.5


def test_ndcg_last_place_inside_and_outside_cutoff():
    # Rank 9 is the tenth place: 1/log2(11).
    assert ndcg_single_positive(9, 10) == pytest.approx(1.0 / math.log2(11), abs=1e-15)
    assert ndcg_single_positive(10, 10) == 0.0
    assert ndcg_single_positive(19, 10) == 0.0
    assert ndcg_single_positive(1, 1) == 0.0


def test_ndcg_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ndcg_single_positive(-1, 10)
    with pytest.raises(ValueError):
        ndcg_single_positive(0, 0)


def test_positive_rank_distinct_scores():
    # Sorted descending: slot 2 (0.9), slot 0 (0.5), slot 3 (0.4), slot 1 (0.1).
    scores = [0.5, 0.1, 0.9, 0.4]
    assert [positive_rank(scores, s) for s in range(4)] == [1, 3, 0, 2]


def test_positive_rank_ties_go_to_the_earlier_slot():
    scores = [1.0, 2.0, 1.0, 2.0]
    # Order: slot 1, slot 3, slot 0, slot 2.
    assert [positive_rank(scores, s) for s in range(4)] == [2, 0, 3, 1]
    assert [positive_rank([0.0] * 5, s) for s in range(5)] == [0, 1, 2, 3, 4]


def test_positive_rank_rejects_missing_slot():
    with pytest.raises(ValueError):
        positive_rank([1.0, 2.0], 2)


def test_is_permutation():
    assert is_permutation([2, 0, 1], 3)
    assert is_permutation([0], 1)
    assert not is_permutation([0, 1, 1], 3)
    assert not is_permutation([0, 1, 3], 3)
    assert not is_permutation([0, 1], 3)
    assert not is_permutation([1, 2, 3], 3)


def test_rank_in_ranking():
    assert rank_in_ranking([3, 0, 2, 1], 3) == 0
    assert rank_in_ranking([3, 0, 2, 1], 1) == 3
    with pytest.raises(ValueError):
        rank_in_ranking([0, 1], 5)
