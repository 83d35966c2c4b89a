"""Protocol fidelity tests for the synthetic recommendation world."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from plrank.errors import ConfigError, DataFormatError
from plrank.policy import Vocab, serialize_context
from plrank.rng import substream
from plrank.world import (
    CandidateItem,
    HistoryEvent,
    UserContext,
    WorldConfig,
    _affinity,
    bucket_centers,
    bucketize,
    build_instances,
    build_sft_corpus,
    generate_world,
    load_instances_jsonl,
    load_sft_jsonl,
    oracle_teacher,
    save_instances_jsonl,
    save_sft_jsonl,
    split_of_user,
    train_positive_counts,
    user_events,
)

SMALL = WorldConfig(n_users=300, n_items=200, exposure_pool=64)


def small_world(seed: int = 7, **overrides):
    return generate_world(dataclasses.replace(SMALL, **overrides), seed)


def test_bucketize_boundaries():
    vals = np.array([-1.0, -0.5001, -0.4999, 0.0, 0.4999, 0.5001, 0.9999, 1.0])
    assert bucketize(vals, 4).tolist() == [0, 0, 1, 2, 2, 3, 3, 3]
    # the midpoint of each bucket maps back inside that bucket
    centers = bucket_centers(np.arange(4), 4)
    assert bucketize(centers, 4).tolist() == [0, 1, 2, 3]
    assert np.allclose(centers, [-0.75, -0.25, 0.25, 0.75])


def test_world_generation_deterministic():
    a = small_world(seed=11)
    b = small_world(seed=11)
    c = small_world(seed=12)
    assert np.array_equal(a.user_latents, b.user_latents)
    assert np.array_equal(a.item_latents, b.item_latents)
    assert np.array_equal(a.popularity, b.popularity)
    assert not np.array_equal(a.user_latents, c.user_latents)
    assert np.all(np.abs(a.user_latents) < 1.0)
    assert np.all(np.abs(a.item_latents) < 1.0)
    assert a.popularity.min() > 0.0
    assert a.popularity.sum() == pytest.approx(1.0)
    assert np.array_equal(a.item_buckets, bucketize(a.item_latents, a.cfg.buckets))


def test_split_ratio_and_stability():
    seed = 42
    labels = [split_of_user(seed, u) for u in range(2000)]
    counts = {s: labels.count(s) for s in ("train", "valid", "test")}
    assert counts["train"] + counts["valid"] + counts["test"] == 2000
    assert abs(counts["train"] / 2000 - 0.8) < 0.04
    assert abs(counts["valid"] / 2000 - 0.1) < 0.03
    assert abs(counts["test"] / 2000 - 0.1) < 0.03
    assert labels == [split_of_user(seed, u) for u in range(2000)]
    other = [split_of_user(seed + 1, u) for u in range(2000)]
    assert other != labels


def test_user_events_shape_and_order():
    world = small_world()
    ev1 = user_events(world, 5)
    ev2 = user_events(world, 5)
    assert np.array_equal(ev1.pool, ev2.pool)
    assert np.array_equal(ev1.positives, ev2.positives)
    assert ev1.pool.size == world.cfg.exposure_pool
    assert np.unique(ev1.pool).size == ev1.pool.size
    n_rel = int(np.ceil(world.cfg.relevance_q * ev1.pool.size))
    assert ev1.relevant.size == n_rel
    assert set(ev1.relevant) <= set(ev1.pool)
    assert sorted(ev1.positives.tolist()) == sorted(ev1.relevant.tolist())
    # relevant items dominate the rest of the pool on the configured affinity
    rel_mask = np.isin(ev1.pool, ev1.relevant)
    assert ev1.affinities[rel_mask].min() >= ev1.affinities[~rel_mask].max()


def test_instance_protocol():
    world = small_world()
    K, L = 8, 5
    instances, stats = build_instances(world, "test", K=K, L=L)
    assert stats.built == len(instances) > 0
    assert stats.skipped_no_positive == 0 and stats.skipped_few_negatives == 0
    for inst in instances:
        assert len(inst.candidates) == K
        assert sum(inst.relevance) == 1
        ids = [c.item_id for c in inst.candidates]
        assert len(set(ids)) == K
        assert len(inst.ctx.history) <= L
        assert [ev.t for ev in inst.ctx.history] == list(range(len(inst.ctx.history)))
        uidx = int(inst.ctx.user_id[1:])
        events = user_events(world, uidx)
        positive = inst.candidates[inst.positive_index()]
        assert positive.item_id == world.item_id(int(events.positives[-1]))
        # history is the most recent stretch of earlier positives, oldest first
        hist_ids = [ev.item_id for ev in inst.ctx.history]
        earlier = [world.item_id(int(i)) for i in events.positives[:-1]]
        if hist_ids:
            assert hist_ids == earlier[len(earlier) - len(hist_ids) :]
        # negatives never come from the relevant set
        relevant_ids = {world.item_id(int(i)) for i in events.relevant}
        for slot, cand in enumerate(inst.candidates):
            if inst.relevance[slot] == 0:
                assert cand.item_id not in relevant_ids


def test_instances_deterministic_and_presentation_shuffled():
    world = small_world()
    a, _ = build_instances(world, "valid", K=8, L=5)
    b, _ = build_instances(world, "valid", K=8, L=5)
    assert a == b
    # at least one instance must not have its positive in slot 0
    assert any(inst.positive_index() != 0 for inst in a)


def test_history_cap_binds():
    world = small_world()
    instances, _ = build_instances(world, "train", K=8, L=2)
    lengths = [len(inst.ctx.history) for inst in instances]
    assert max(lengths) == 2
    assert min(lengths) >= 0


def test_starved_config_skips():
    world = small_world(exposure_pool=16)
    instances, stats = build_instances(world, "test", K=16)
    assert instances == []
    assert stats.built == 0
    assert stats.skipped_few_negatives > 0


def test_build_rejects_bad_arguments():
    world = small_world()
    with pytest.raises(ConfigError):
        build_instances(world, "evaluation")
    with pytest.raises(ConfigError):
        build_instances(world, "test", K=1)
    with pytest.raises(ConfigError):
        build_instances(world, "test", K=8, L=-1)


def test_positive_affinity_dominates_negatives():
    world = small_world()
    instances, _ = build_instances(world, "test", K=8)
    for inst in instances:
        uidx = int(inst.ctx.user_id[1:])
        idx = np.array([int(c.item_id[1:]) for c in inst.candidates])
        aff = _affinity(world, uidx, idx)
        pos = inst.positive_index()
        others = np.delete(aff, pos)
        assert aff[pos] >= others.max()


def test_teacher_all_shared_and_empty_selfcheck():
    vocab = Vocab(m=3, buckets=4)
    item = CandidateItem(item_id="i1", tokens=(0, 3, 2), train_frequency=0)
    ctx = UserContext(
        user_id="u0",
        profile_tokens=(1, 1, 1),
        history=(HistoryEvent(item_id="i1", tokens=(0, 3, 2), t=0),),
    )
    rng = substream(0, "t")
    ex = oracle_teacher(ctx, item, 1, 0.0, rng, vocab)
    expected = [
        vocab.SEC_REASON,
        vocab.attr(0, 0),
        vocab.attr(1, 3),
        vocab.attr(2, 2),
        vocab.SEC_SELFCHECK,
        vocab.SEC_CONCLUDE,
        vocab.RECOMMEND,
        vocab.EOS,
    ]
    assert ex.target.tolist() == expected
    assert ex.teacher_decision == 1


def test_teacher_selfcheck_orders_by_disagreement():
    vocab = Vocab(m=3, buckets=4)
    item = CandidateItem(item_id="i2", tokens=(0, 0, 0), train_frequency=0)
    ctx = UserContext(
        user_id="u0",
        profile_tokens=(0, 0, 0),
        history=(HistoryEvent(item_id="i9", tokens=(0, 3, 1), t=0),),
    )
    ex = oracle_teacher(ctx, item, 0, 0.0, substream(0, "t"), vocab)
    expected = [
        vocab.SEC_REASON,
        vocab.attr(0, 0),        # dim 0 shared
        vocab.SEC_SELFCHECK,
        vocab.attr(1, 0),        # disagreement 3 comes before disagreement 1
        vocab.attr(2, 0),
        vocab.SEC_CONCLUDE,
        vocab.NOT_RECOMMEND,
        vocab.EOS,
    ]
    assert ex.target.tolist() == expected


def test_teacher_empty_history_selfcheck_uses_dim_order():
    vocab = Vocab(m=4, buckets=4)
    item = CandidateItem(item_id="i3", tokens=(1, 2, 3, 0), train_frequency=0)
    ctx = UserContext(user_id="u0", profile_tokens=(0, 0, 0, 0), history=())
    ex = oracle_teacher(ctx, item, 1, 0.0, substream(0, "t"), vocab, selfcheck_k=2)
    expected = [
        vocab.SEC_REASON,
        vocab.SEC_SELFCHECK,
        vocab.attr(0, 1),
        vocab.attr(1, 2),
        vocab.SEC_CONCLUDE,
        vocab.RECOMMEND,
        vocab.EOS,
    ]
    assert ex.target.tolist() == expected


def test_teacher_noise_rate_flips_decisions():
    vocab = Vocab(m=2, buckets=4)
    item = CandidateItem(item_id="i4", tokens=(1, 1), train_frequency=0)
    ctx = UserContext(user_id="u0", profile_tokens=(1, 1), history=())
    rng = substream(3, "noise")
    n = 4000
    flips = sum(
        oracle_teacher(ctx, item, 1, 0.3, rng, vocab).teacher_decision == 0 for _ in range(n)
    )
    se = np.sqrt(0.3 * 0.7 / n)
    assert abs(flips / n - 0.3) < 4 * se


def test_sft_corpus_filters_noisy_teachers():
    world = small_world()
    vocab = Vocab(m=world.cfg.m, buckets=world.cfg.buckets)
    instances, _ = build_instances(world, "valid", K=8, L=5)
    noise = 0.25
    kept, stats = build_sft_corpus(instances, noise, seed=5, vocab=vocab, serialize_fn=lambda c, i: serialize_context(c, i, vocab))
    total = stats.kept + stats.rejected
    assert total == len(instances) * 8
    se = np.sqrt(noise * (1 - noise) / total)
    assert abs(stats.rejected / total - noise) < 4 * se
    assert stats.kept_positive == sum(ex.ground_truth for ex in kept)
    for ex in kept[:32]:
        assert ex.teacher_decision == ex.ground_truth
        assert ex.target[-1] == vocab.EOS
        decision = vocab.RECOMMEND if ex.ground_truth else vocab.NOT_RECOMMEND
        assert ex.target[-2] == decision
        assert ex.prefix[-1] == vocab.BOS
    # zero noise keeps every pair
    kept0, stats0 = build_sft_corpus(instances, 0.0, seed=5, vocab=vocab, serialize_fn=lambda c, i: serialize_context(c, i, vocab))
    assert stats0.rejected == 0
    assert stats0.kept == total


def test_train_frequency_matches_emitted_train_positives():
    world = small_world()
    counts = train_positive_counts(world)
    instances, stats = build_instances(world, "train", K=8, L=5, train_counts=counts)
    n_train_users = sum(
        split_of_user(world.seed, u) == "train" for u in range(world.cfg.n_users)
    )
    assert stats.built == n_train_users  # precondition: nothing skipped
    recount = np.zeros(world.cfg.n_items, dtype=np.int64)
    for inst in instances:
        pos = inst.candidates[inst.positive_index()]
        recount[int(pos.item_id[1:])] += 1
    assert np.array_equal(recount, counts)
    # the annotation on each candidate agrees with the fresh recount
    for inst in instances[:20]:
        for cand in inst.candidates:
            assert cand.train_frequency == counts[int(cand.item_id[1:])]


def test_cold_start_items_exist_in_test_split():
    world = small_world()
    instances, _ = build_instances(world, "test", K=8)
    freqs = [c.train_frequency for inst in instances for c in inst.candidates]
    assert any(f == 0 for f in freqs)
    assert any(f > 0 for f in freqs)


def test_instances_jsonl_round_trip(tmp_path):
    world = small_world()
    instances, _ = build_instances(world, "valid", K=8, L=5)
    path = tmp_path / "instances.jsonl"
    save_instances_jsonl(path, instances, meta={"seed": world.seed})
    loaded, header = load_instances_jsonl(path)
    assert header["count"] == len(instances)
    assert header["seed"] == world.seed
    assert loaded == instances


def test_instances_jsonl_validation_errors(tmp_path):
    header = json.dumps({"schema": 1, "kind": "instances", "count": 1})
    record = {
        "instance_id": "u1",
        "user": {"id": "u1", "profile_tokens": [0, 1], "history": []},
        "candidates": [
            {"item_id": "i0", "tokens": [0, 1], "train_frequency": 0},
            {"item_id": "i1", "tokens": [1, 1], "train_frequency": 2},
        ],
        "relevance": [1, 0],
    }

    def write(lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    ok = write([header, json.dumps(record)])
    loaded, _ = load_instances_jsonl(ok)
    assert len(loaded) == 1

    with pytest.raises(DataFormatError, match="line 1"):
        load_instances_jsonl(write(["{not json"]))
    with pytest.raises(DataFormatError, match="schema"):
        load_instances_jsonl(write([json.dumps({"schema": 99}), json.dumps(record)]))

    dup = write([header, json.dumps(record), json.dumps(record)])
    with pytest.raises(DataFormatError, match="line 3.*duplicate"):
        load_instances_jsonl(dup)

    missing = dict(record)
    del missing["relevance"]
    with pytest.raises(DataFormatError, match="line 2.*relevance"):
        load_instances_jsonl(write([header, json.dumps(missing)]))

    short = json.loads(json.dumps(record))
    short["candidates"][1]["tokens"] = [1]
    with pytest.raises(DataFormatError, match="line 2.*tokens length"):
        load_instances_jsonl(write([header, json.dumps(short)]))

    unbalanced = json.loads(json.dumps(record))
    unbalanced["relevance"] = [1]
    with pytest.raises(DataFormatError, match="line 2.*relevance length"):
        load_instances_jsonl(write([header, json.dumps(unbalanced)]))


def test_sft_jsonl_round_trip(tmp_path):
    world = small_world()
    vocab = Vocab(m=world.cfg.m, buckets=world.cfg.buckets)
    instances, _ = build_instances(world, "valid", K=4, L=3)
    kept, _ = build_sft_corpus(instances[:10], 0.0, seed=1, vocab=vocab, serialize_fn=lambda c, i: serialize_context(c, i, vocab))
    path = tmp_path / "sft.jsonl"
    save_sft_jsonl(path, kept, meta={"noise_rate": 0.0})
    loaded, header = load_sft_jsonl(path)
    assert header["noise_rate"] == 0.0
    assert len(loaded) == len(kept)
    for a, b in zip(kept, loaded):
        assert a.instance_id == b.instance_id and a.item_id == b.item_id
        assert np.array_equal(a.prefix, b.prefix)
        assert np.array_equal(a.target, b.target)
        assert a.ground_truth == b.ground_truth
        assert a.teacher_decision == b.teacher_decision
