"""Protocol fidelity tests for the synthetic recommendation world."""
from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np
import pytest

import plrank.world
from plrank.errors import ConfigError, DataFormatError
from plrank.policy import Vocab, serialize_context
from plrank.rng import substream
from plrank.world import (
    SPLITS,
    SftExample,
    WorldConfig,
    _affinity,
    bucket_centers,
    bucketize,
    build_instances,
    build_sft_corpus,
    generate_world,
    history_array,
    load_instances_jsonl,
    load_sft_jsonl,
    save_instances_jsonl,
    save_sft_jsonl,
    split_of_user,
    teacher_targets,
    train_positive_counts,
    user_events,
)

SMALL = WorldConfig(n_users=300, n_items=200, exposure_pool=64)


def small_world(seed: int = 7, **overrides):
    return generate_world(dataclasses.replace(SMALL, **overrides), seed)


def instances_of(world, split, K, L):
    """The split's instances, with the train counts taken from `world` itself."""
    return build_instances(world, split, K, L, train_positive_counts(world))


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
    instances, stats = instances_of(world, "test", K, L)
    assert len(instances) > 0
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
    a, _ = instances_of(world, "valid", 8, 5)
    b, _ = instances_of(world, "valid", 8, 5)
    assert a == b
    # at least one instance must not have its positive in slot 0
    assert any(inst.positive_index() != 0 for inst in a)


def test_history_cap_binds():
    world = small_world()
    instances, _ = instances_of(world, "train", 8, 2)
    lengths = [len(inst.ctx.history) for inst in instances]
    assert max(lengths) == 2
    assert min(lengths) >= 0


def test_starved_config_skips():
    world = small_world(exposure_pool=16)
    instances, stats = instances_of(world, "test", 16, 20)
    assert instances == []
    assert stats.skipped_few_negatives > 0


def test_build_rejects_bad_arguments():
    world = small_world()
    with pytest.raises(ConfigError):
        instances_of(world, "evaluation", 8, 5)
    with pytest.raises(ConfigError):
        instances_of(world, "test", 1, 5)
    with pytest.raises(ConfigError):
        instances_of(world, "test", 8, -1)


def test_positive_affinity_dominates_negatives():
    world = small_world()
    instances, _ = instances_of(world, "test", 8, 20)
    for inst in instances:
        uidx = int(inst.ctx.user_id[1:])
        idx = np.array([int(c.item_id[1:]) for c in inst.candidates])
        aff = _affinity(world, uidx, idx)
        pos = inst.positive_index()
        others = np.delete(aff, pos)
        assert aff[pos] >= others.max()


def test_teacher_all_shared_and_empty_selfcheck():
    vocab = Vocab(m=3, buckets=4)
    (target,) = teacher_targets(np.array([[0, 3, 2]]), np.array([[0, 3, 2]]), np.array([1]), vocab, selfcheck_k=2)
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
    assert target.tolist() == expected
    assert target.dtype == np.int32


def test_teacher_selfcheck_orders_by_disagreement():
    vocab = Vocab(m=3, buckets=4)
    (target,) = teacher_targets(np.array([[0, 3, 1]]), np.array([[0, 0, 0]]), np.array([0]), vocab, selfcheck_k=2)
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
    assert target.tolist() == expected


def test_teacher_empty_history_selfcheck_uses_dim_order():
    vocab = Vocab(m=4, buckets=4)
    no_history = np.empty((0, 4), dtype=np.int64)
    (target,) = teacher_targets(no_history, np.array([[1, 2, 3, 0]]), np.array([1]), vocab, selfcheck_k=2)
    expected = [
        vocab.SEC_REASON,
        vocab.SEC_SELFCHECK,
        vocab.attr(0, 1),
        vocab.attr(1, 2),
        vocab.SEC_CONCLUDE,
        vocab.RECOMMEND,
        vocab.EOS,
    ]
    assert target.tolist() == expected


def test_sft_corpus_filters_noisy_teachers():
    world = small_world()
    vocab = Vocab(m=world.cfg.m, buckets=world.cfg.buckets)
    instances, _ = instances_of(world, "valid", 8, 5)
    noise = 0.25
    serialize = lambda c, i: serialize_context(c, i, vocab)  # noqa: E731
    kept, stats = build_sft_corpus(instances, noise, seed=5, vocab=vocab, serialize_fn=serialize, selfcheck_k=2)
    total = len(kept) + stats.rejected
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
    kept0, stats0 = build_sft_corpus(instances, 0.0, seed=5, vocab=vocab, serialize_fn=serialize, selfcheck_k=2)
    assert stats0.rejected == 0
    assert len(kept0) == total


def _per_pair_corpus(instances, noise_rate, seed, vocab, selfcheck_k):
    """The corpus built one (instance, candidate) pair at a time, each with its own stream."""
    kept, stats = [], {"rejected": 0, "kept_positive": 0}
    for inst in instances:
        hist = history_array(inst.ctx, vocab.m)
        for slot, item in enumerate(inst.candidates):
            truth = inst.relevance[slot]
            draw = substream(seed, "teacher", inst.instance_id, item.item_id).random()
            decision = 1 - truth if noise_rate > 0.0 and draw < noise_rate else truth
            if decision != truth:
                stats["rejected"] += 1
                continue
            (target,) = teacher_targets(
                hist, np.array([item.tokens]), np.array([decision]), vocab, selfcheck_k
            )
            stats["kept_positive"] += truth
            kept.append(
                SftExample(
                    instance_id=inst.instance_id,
                    item_id=item.item_id,
                    prefix=np.asarray(serialize_context(inst.ctx, item, vocab), dtype=np.int32),
                    target=target,
                    ground_truth=truth,
                    teacher_decision=decision,
                )
            )
    return kept, stats


@pytest.mark.parametrize("noise, selfcheck_k", [(0.25, 2), (0.0, 2), (0.25, 0), (0.25, 5)])
def test_sft_corpus_matches_per_pair_reference(noise, selfcheck_k):
    world = small_world()
    vocab = Vocab(m=world.cfg.m, buckets=world.cfg.buckets)
    instances, _ = instances_of(world, "valid", 8, 5)
    no_history, _ = instances_of(world, "test", 8, 0)
    instances += no_history[:5]
    kept, stats = build_sft_corpus(
        instances, noise, seed=5, vocab=vocab,
        serialize_fn=lambda c, i: serialize_context(c, i, vocab), selfcheck_k=selfcheck_k,
    )
    ref, ref_stats = _per_pair_corpus(instances, noise, 5, vocab, selfcheck_k)
    assert dataclasses.asdict(stats) == ref_stats
    assert [(ex.instance_id, ex.item_id) for ex in kept] == [(ex.instance_id, ex.item_id) for ex in ref]
    for a, b in zip(kept, ref):
        assert (a.ground_truth, a.teacher_decision) == (b.ground_truth, b.teacher_decision)
        for name in ("prefix", "target"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.int32
            assert x.tobytes() == y.tobytes()


def test_train_frequency_matches_emitted_train_positives():
    world = small_world()
    counts = train_positive_counts(world)
    instances, stats = build_instances(world, "train", K=8, L=5, train_counts=counts)
    n_train_users = sum(
        split_of_user(world.seed, u) == "train" for u in range(world.cfg.n_users)
    )
    assert len(instances) == n_train_users  # precondition: nothing skipped
    recount = np.zeros(world.cfg.n_items, dtype=np.int64)
    for inst in instances:
        pos = inst.candidates[inst.positive_index()]
        recount[int(pos.item_id[1:])] += 1
    assert np.array_equal(recount, counts)
    # the annotation on each candidate agrees with the fresh recount
    for inst in instances[:20]:
        for cand in inst.candidates:
            assert cand.train_frequency == counts[int(cand.item_id[1:])]


def test_instances_are_the_same_with_the_counts_events_kept(tmp_path):
    """The events `train_positive_counts` keeps give every split the bytes a fresh derivation gives."""
    counts = train_positive_counts(small_world())

    def saved(world, split, name):
        instances, _ = build_instances(world, split, K=8, L=5, train_counts=counts)
        save_instances_jsonl(tmp_path / name, instances, meta={"split": split})
        return (tmp_path / name).read_bytes()

    for split in SPLITS:
        # counts run on a distinct but equal world: nothing kept applies
        reference = saved(small_world(), split, "reference.jsonl")
        same = small_world()
        train_positive_counts(same)
        assert same.train_events is not None
        assert saved(same, split, "same.jsonl") == reference
        assert same.train_events is None
        between = small_world()
        train_positive_counts(between)
        saved(between, next(s for s in SPLITS if s != split), "other.jsonl")
        assert saved(between, split, "between.jsonl") == reference


def test_each_train_users_events_are_derived_once(monkeypatch):
    calls = []

    def counting(world, uidx):
        calls.append(uidx)
        return user_events(world, uidx)

    monkeypatch.setattr(plrank.world, "user_events", counting)
    world = small_world()
    train_users = [u for u in range(world.cfg.n_users) if split_of_user(world.seed, u) == "train"]
    counts = train_positive_counts(world)
    build_instances(world, "train", K=8, L=5, train_counts=counts)
    assert sorted(calls) == train_users
    # the next build took them all: a second train build derives every user again
    calls.clear()
    build_instances(world, "train", K=8, L=5, train_counts=counts)
    assert sorted(calls) == train_users
    # a build of another split drops them unused
    train_positive_counts(world)
    build_instances(world, "test", K=8, L=5, train_counts=counts)
    assert world.train_events is None
    calls.clear()
    build_instances(world, "train", K=8, L=5, train_counts=counts)
    assert sorted(calls) == train_users


def test_kept_events_are_read_only():
    world = small_world()
    train_positive_counts(world)
    for pool, positives in world.train_events.values():
        assert pool.dtype == positives.dtype == np.int16
        assert not pool.flags.writeable and not positives.flags.writeable


def test_cold_start_items_exist_in_test_split():
    world = small_world()
    instances, _ = instances_of(world, "test", 8, 20)
    freqs = [c.train_frequency for inst in instances for c in inst.candidates]
    assert any(f == 0 for f in freqs)
    assert any(f > 0 for f in freqs)


def test_instances_jsonl_round_trip(tmp_path):
    world = small_world()
    instances, _ = instances_of(world, "valid", 8, 5)
    path = tmp_path / "instances.jsonl"
    save_instances_jsonl(path, instances, meta={"seed": world.seed})
    loaded, header = load_instances_jsonl(path, Vocab(m=world.cfg.m, buckets=world.cfg.buckets), max_history=5)
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
    load = functools.partial(load_instances_jsonl, vocab=Vocab(m=2, buckets=2), max_history=3)

    def write(lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    ok = write([header, json.dumps(record)])
    loaded, _ = load(ok)
    assert len(loaded) == 1

    with pytest.raises(DataFormatError, match="line 1"):
        load(write(["{not json"]))
    with pytest.raises(DataFormatError, match="schema"):
        load(write([json.dumps({"schema": 99}), json.dumps(record)]))

    dup = write([header, json.dumps(record), json.dumps(record)])
    with pytest.raises(DataFormatError, match="line 3.*duplicate"):
        load(dup)

    missing = dict(record)
    del missing["relevance"]
    with pytest.raises(DataFormatError, match="line 2.*relevance"):
        load(write([header, json.dumps(missing)]))

    short = json.loads(json.dumps(record))
    short["candidates"][1]["tokens"] = [1]
    with pytest.raises(DataFormatError, match="line 2.*tokens length"):
        load(write([header, json.dumps(short)]))

    unbalanced = json.loads(json.dumps(record))
    unbalanced["relevance"] = [1]
    with pytest.raises(DataFormatError, match="line 2.*relevance length"):
        load(write([header, json.dumps(unbalanced)]))

    with pytest.raises(DataFormatError, match="line 2: object of type 'int' has no len"):
        load(write([header, json.dumps(dict(record, candidates=3))]))

    lettered = json.loads(json.dumps(record))
    lettered["candidates"][0]["tokens"] = [0, "a"]
    with pytest.raises(DataFormatError, match="bad.jsonl: line 2: invalid literal"):
        load(write([header, json.dumps(lettered)]))

    numbered = json.loads(json.dumps(record))
    numbered["candidates"][1]["item_id"] = 7
    with pytest.raises(DataFormatError, match="bad.jsonl: line 2: candidate item_id 7 is not a string"):
        load(write([header, json.dumps(numbered)]))
    for grades, bad in (([-1, 1], -1), ([1, 2], 2)):
        with pytest.raises(DataFormatError, match=f"bad.jsonl: line 2: relevance grade {bad} is not 0 or 1"):
            load(write([header, json.dumps(dict(record, relevance=grades))]))

    long = json.loads(json.dumps(record))
    long["user"]["history"] = [{"item_id": f"h{t}", "tokens": [0, 1], "t": t} for t in range(4)]
    assert len(load(write([header, json.dumps(long)]), max_history=4)[0]) == 1
    with pytest.raises(DataFormatError, match="bad.jsonl: line 2: history length 4 exceeds L=3"):
        load(write([header, json.dumps(long)]))
    check_common_faults(load, write, header, record, other_kind="sft")


def check_common_faults(load, write, header, record, other_kind):
    """Faults every JSONL loader turns into a DataFormatError naming the file and line."""
    kind = json.loads(header)["kind"]
    path = write([header, json.dumps(record)])
    path.write_bytes(path.read_bytes() + b'{"item_id": "\xff"}\n')
    with pytest.raises(DataFormatError, match="bad.jsonl: line 3: 'utf-8' codec can't decode"):
        load(path)
    with pytest.raises(DataFormatError, match="bad.jsonl: line 1: header count 1 != 0 records"):
        load(write([header]))
    for line in ("7", "[1, 2]", '"u1"', "null"):
        with pytest.raises(DataFormatError, match="bad.jsonl: line 2: "):
            load(write([header, line]))
    wrong = json.dumps(dict(json.loads(header), kind=other_kind))
    with pytest.raises(DataFormatError, match=f"line 1: expected kind '{kind}', got '{other_kind}'"):
        load(write([wrong, json.dumps(record)]))


def test_sft_jsonl_validation_errors(tmp_path):
    header = json.dumps({"schema": 1, "kind": "sft", "count": 1})
    record = {
        "instance_id": "u1", "item_id": "i0", "prefix": [5, 6], "target": [7, 1],
        "ground_truth": 1, "teacher_decision": 1,
    }
    load = functools.partial(load_sft_jsonl, vocab=Vocab(m=2, buckets=2), max_len=4)

    def write(lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    loaded, _ = load(write([header, json.dumps(record)]))
    assert loaded[0].prefix.tolist() == [5, 6]
    with pytest.raises(DataFormatError, match="bad.jsonl: line 2: invalid literal"):
        load(write([header, json.dumps(dict(record, prefix=[5, "a"]))]))
    with pytest.raises(DataFormatError, match="line 2: missing field 'target'"):
        load(write([header, json.dumps({k: v for k, v in record.items() if k != "target"})]))
    with pytest.raises(DataFormatError, match="line 2: prefix and target must be lists"):
        load(write([header, json.dumps(dict(record, target=7))]))
    for key in ("prefix", "target"):
        with pytest.raises(DataFormatError, match="bad.jsonl: line 2: prefix and target must not be empty"):
            load(write([header, json.dumps(dict(record, **{key: []}))]))
    with pytest.raises(DataFormatError, match="line 2: ground_truth 2 and teacher_decision 1 must be 0 or 1"):
        load(write([header, json.dumps(dict(record, ground_truth=2))]))
    assert len(load(write([header, json.dumps(record)]))[0]) == 1
    with pytest.raises(DataFormatError, match="bad.jsonl: line 2: row length 2 \\+ 2 exceeds max_len 3"):
        load(write([header, json.dumps(record)]), max_len=3)
    check_common_faults(load, write, header, record, other_kind="instances")


def test_data_files_round_trip_byte_for_byte(tmp_path):
    world = small_world()
    vocab = Vocab(m=world.cfg.m, buckets=world.cfg.buckets)
    instances, _ = instances_of(world, "valid", 4, 3)
    kept, _ = build_sft_corpus(
        instances, 0.1, seed=1, vocab=vocab, serialize_fn=lambda c, i: serialize_context(c, i, vocab),
        selfcheck_k=2,
    )
    for save, load, records in (
        (save_instances_jsonl, functools.partial(load_instances_jsonl, vocab=vocab, max_history=3), instances),
        (save_sft_jsonl, functools.partial(load_sft_jsonl, vocab=vocab, max_len=256), kept),
    ):
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        save(first, records, meta={"seed": world.seed})
        loaded, header = load(first)
        save(again, loaded, meta=header)
        assert again.read_bytes() == first.read_bytes()


def test_sft_jsonl_round_trip(tmp_path):
    world = small_world()
    vocab = Vocab(m=world.cfg.m, buckets=world.cfg.buckets)
    instances, _ = instances_of(world, "valid", 4, 3)
    kept, _ = build_sft_corpus(
        instances[:10], 0.0, seed=1, vocab=vocab, serialize_fn=lambda c, i: serialize_context(c, i, vocab),
        selfcheck_k=2,
    )
    path = tmp_path / "sft.jsonl"
    save_sft_jsonl(path, kept, meta={"noise_rate": 0.0})
    loaded, header = load_sft_jsonl(path, vocab, max_len=256)
    assert header["noise_rate"] == 0.0
    assert len(loaded) == len(kept)
    for a, b in zip(kept, loaded):
        assert a.instance_id == b.instance_id and a.item_id == b.item_id
        assert np.array_equal(a.prefix, b.prefix)
        assert np.array_equal(a.target, b.target)
        assert a.ground_truth == b.ground_truth
        assert a.teacher_decision == b.teacher_decision
