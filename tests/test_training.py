"""Tests for both training stages and their building blocks."""
from __future__ import annotations

import collections
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

import plrank.autodiff as ad
import plrank.training
from plrank.autodiff import Tape
from plrank.errors import ConfigError, ContractViolation, TrainingDiverged
from plrank.policy import (
    PolicyConfig,
    clone_params,
    forward_hidden_tape,
    gather_positions_tape,
    head_score_tape,
    init_params,
    is_head_param,
    pack_rows,
    sequence_log_probs_tape,
    serialize_context,
    shared_prefix_length,
    token_log_probs,
)
from plrank.rank import pl_grad_scores, pl_log_prob
from plrank.report import report_header
from plrank.rng import KeyedStreams, substream
from plrank.training import (
    Adam,
    METRICS_COLUMNS,
    MetricsWriter,
    RankingInstance,
    SftConfig,
    TrainConfig,
    instance_objectives,
    lift_params,
    named_grads,
    pl_log_prob_tape,
    ranking_objective,
    ranking_weights,
    rl_step,
    rl_train,
    rollout,
    sft_batch_loss,
    sft_train,
)
from plrank.world import (
    CandidateItem,
    HistoryEvent,
    SftExample,
    UserContext,
    WorldConfig,
    build_instances,
    build_sft_corpus,
    generate_world,
    train_positive_counts,
)

WCFG = WorldConfig(n_users=80, n_items=60, m=4, exposure_pool=24)
PCFG = PolicyConfig(
    m=4, buckets=4, d_model=16, n_layers=2, n_heads=2, d_ff=32,
    max_len=96, max_gen=16, head_hidden=16, init_std=0.02,
)


def tiny_setup(seed: int = 3, split: str = "train", K: int = 4, L: int = 3):
    world = generate_world(WCFG, seed)
    instances, _ = build_instances(world, split, K=K, L=L, train_counts=train_positive_counts(world))
    return world, instances


def fresh_params(seed: int = 0):
    return init_params(PCFG, substream(seed, "init", "policy"))


def test_train_config_validation():
    TrainConfig().validate()
    with pytest.raises(ConfigError):
        TrainConfig(baseline="loo", rankings_per_instance=1).validate()
    TrainConfig(baseline="loo", rankings_per_instance=2).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epsilon=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epsilon=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(baseline="median").validate()
    with pytest.raises(ConfigError):
        TrainConfig(inner_epochs=0).validate()


def test_adam_first_step_matches_hand_calculation():
    params = {"w": np.array([1.0, -2.0]), "head.w": np.array([0.5])}
    grads = {"w": np.array([0.1, -0.2]), "head.w": np.array([0.3])}
    opt = Adam(params, lr_policy=0.01, lr_head=0.1)
    opt.step(params, grads)
    # after bias correction the first step is lr * g / (|g| + eps)
    assert params["w"][0] == pytest.approx(1.0 - 0.01 * (0.1 / (0.1 + 1e-8)), abs=1e-12)
    assert params["w"][1] == pytest.approx(-2.0 + 0.01 * (0.2 / (0.2 + 1e-8)), abs=1e-12)
    assert params["head.w"][0] == pytest.approx(0.5 - 0.1 * (0.3 / (0.3 + 1e-8)), abs=1e-12)


def test_adam_minimizes_quadratic():
    params = {"w": np.array([3.0, -4.0])}
    opt = Adam(params, lr_policy=0.1, lr_head=0.1)
    for _ in range(300):
        opt.step(params, {"w": 2.0 * params["w"]})
    assert np.all(np.abs(params["w"]) < 1e-2)


def test_flat_adam_matches_the_per_tensor_formula():
    params = fresh_params(3)
    policy_names = {n for n in params if not is_head_param(n)}
    head_names = {n for n in params if is_head_param(n)}
    # SFT trains the policy only, joint RL every name, frozen RL the head only
    for schedule in ([policy_names] * 12, [set(params)] * 12, [head_names] * 12):
        flat, ref = clone_params(params), clone_params(params)
        opt = Adam(flat, 3e-3, 1e-2)
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        for t, names in enumerate(schedule, start=1):
            rng = substream(t, "adam")
            grads = {name: rng.normal(size=params[name].shape) for name in sorted(names)}
            opt.step(flat, grads)
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for name in sorted(grads):  # the per-tensor reference
                g = grads[name]
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                lr = 1e-2 if is_head_param(name) else 3e-3
                ref[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + 1e-8)
            for name in params:
                assert np.array_equal(flat[name], ref[name]), (t, name)
            for name in schedule[0]:
                assert np.array_equal(opt.m[name], m[name]) and np.array_equal(opt.v[name], v[name])
    # one optimizer trains one set of names
    opt = Adam(params, 3e-3, 1e-2)
    opt.step(params, {name: np.zeros_like(params[name]) for name in policy_names})
    with pytest.raises(ContractViolation, match="laid out"):
        opt.step(params, {name: np.zeros_like(params[name]) for name in params})


def test_metrics_writer_format(tmp_path):
    path = tmp_path / "metrics.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = MetricsWriter(fh, "abc123", 7)
        w.write_row(step=0, stage="sft", ppo_obj=-3.25, grad_norm_theta=1.5, wallclock_ms=2.0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == report_header("metrics", "abc123", 7)
    assert lines[1] == ",".join(METRICS_COLUMNS)
    assert METRICS_COLUMNS[-1] == "wallclock_ms"  # the one timing column, stripped by A10
    cells = lines[2].split(",")
    assert cells[0] == "0" and cells[1] == "sft"
    assert cells[2] == ""  # mean_reward not applicable during cloning
    assert float(cells[3]) == -3.25


def test_sft_initial_loss_is_log_vocab():
    world, instances = tiny_setup()
    vocab = PCFG.vocab()
    examples, _ = build_sft_corpus(
        instances, 0.0, seed=1, vocab=vocab,
        serialize_fn=lambda c, i: serialize_context(c, i, vocab), selfcheck_k=2,
    )
    params = fresh_params()
    loss, grads = sft_batch_loss(params, examples[:16], PCFG)
    assert abs(loss - np.log(vocab.size)) < 0.05 * np.log(vocab.size)
    assert all(not is_head_param(n) for n in grads)
    assert any(np.any(g != 0) for g in grads.values())
    loss_eval, no_grads = sft_batch_loss(params, examples[:16], PCFG, train=False)
    assert loss_eval == pytest.approx(loss)
    assert no_grads == {}


def test_sft_loss_on_ragged_rows_matches_per_row_log_probs():
    vocab = PCFG.vocab()
    rng = substream(7, "ragged")

    def tokens():
        return tuple(int(b) for b in rng.integers(0, PCFG.buckets, PCFG.m))

    item = CandidateItem("c", tokens(), 0)
    batch = []
    for n_events in (0, 1, 3):
        history = tuple(HistoryEvent(f"h{t}", tokens(), t) for t in range(n_events))
        prefix = serialize_context(UserContext("u", tokens(), history), item, vocab)
        reason = rng.integers(vocab.SEC_REASON, vocab.size, n_events + 2)
        target = np.concatenate([reason, [vocab.RECOMMEND, vocab.EOS]])
        batch.append(SftExample("i", "c", prefix, target, 1, 1))
    assert len({ex.prefix.size for ex in batch}) == 3
    params = fresh_params(4)
    loss, _ = sft_batch_loss(params, batch, PCFG, train=False)
    nll = [-token_log_probs(params, ex.prefix, ex.target, PCFG) for ex in batch]
    assert abs(loss - np.concatenate(nll).mean()) < 1e-12


def _ragged_batch(seed: int, n_events: tuple[int, ...]) -> list[SftExample]:
    """One SFT row per history length, each with a random REASON run and a decision."""
    vocab = PCFG.vocab()
    rng = substream(seed, "ragged")

    def tokens():
        return tuple(int(b) for b in rng.integers(0, PCFG.buckets, PCFG.m))

    batch = []
    for n in n_events:
        history = tuple(HistoryEvent(f"h{t}", tokens(), t) for t in range(n))
        ctx = UserContext("u", tokens(), history)
        prefix = serialize_context(ctx, CandidateItem("c", tokens(), 0), vocab)
        reason = rng.integers(vocab.SEC_REASON, vocab.size, int(rng.integers(1, 8)))
        target = np.concatenate([reason, [vocab.NOT_RECOMMEND, vocab.EOS]])
        batch.append(SftExample("i", "c", prefix, target, 0, 0))
    return batch


def _length_class(ex: SftExample) -> int:
    """ceil(log2) of the row's length."""
    return int(np.ceil(np.log2(ex.prefix.size + ex.target.size)))


def test_sft_length_classes_match_one_padded_pass():
    batch = _ragged_batch(5, (1, 0, 8, 1, 4, 0, 3, 1))
    sizes = collections.Counter(_length_class(ex) for ex in batch)
    assert len(sizes) >= 3 and 1 in sizes.values()
    params = fresh_params(6)

    def padded(train):  # the reference: one pass over the whole batch
        ids, rows, positions = pack_rows(
            [ex.prefix for ex in batch], [ex.target for ex in batch], PCFG.vocab().EOS
        )
        tape = Tape()
        pt = lift_params(tape, params, train_policy=train, train_head=False)
        lp = sequence_log_probs_tape(pt, forward_hidden_tape(pt, ids, PCFG), ids, rows, positions)
        loss = ad.scale(ad.asum(lp), -1.0 / rows.size)
        return float(loss.data), named_grads(pt, tape.backward(loss)) if train else {}

    for train in (True, False):
        loss, grads = sft_batch_loss(params, batch, PCFG, train=train)
        ref_loss, ref_grads = padded(train)
        assert abs(loss - ref_loss) <= 1e-12
        trained = {n for n in params if not is_head_param(n)} if train else set()
        assert grads.keys() == ref_grads.keys() == trained
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12, name


def test_sft_pass_pads_at_most_twice_the_real_tokens(monkeypatch):
    batch = _ragged_batch(8, (0, 0, 0, 8, 1, 0, 3))
    real = sum(ex.prefix.size + ex.target.size for ex in batch)
    longest = max(ex.prefix.size + ex.target.size for ex in batch)
    assert len(batch) * longest > 2 * real  # one padded pass would break the bound
    shapes = []
    forward = plrank.training.forward_hidden_tape

    def spy(pt, ids, cfg, shared=0, window=None):
        shapes.append(ids.shape)
        return forward(pt, ids, cfg, shared, window)

    monkeypatch.setattr(plrank.training, "forward_hidden_tape", spy)
    sft_batch_loss(fresh_params(), batch, PCFG)
    assert sum(b for b, _ in shapes) == len(batch)
    assert sum(b * t for b, t in shapes) <= 2 * real


def test_sft_last_layer_runs_only_the_read_columns(monkeypatch):
    batch = _ragged_batch(8, (0, 0, 0, 8, 1, 0, 3))
    classes = sorted({_length_class(ex) for ex in batch})
    widths = [max(ex.target.size for ex in batch if _length_class(ex) == c) for c in classes]
    queries = []
    attention = ad.causal_attention

    def spy(q, k, v, n_heads, **positions):
        queries.append(q.shape[1])
        return attention(q, k, v, n_heads, **positions)

    monkeypatch.setattr(ad, "causal_attention", spy)
    sft_batch_loss(fresh_params(), batch, PCFG)
    assert len(queries) == len(classes) * PCFG.n_layers
    last = queries[PCFG.n_layers - 1 :: PCFG.n_layers]
    assert all(n <= w for n, w in zip(last, widths)), (last, widths)


def test_sft_training_reduces_loss():
    world, instances = tiny_setup()
    vocab = PCFG.vocab()
    examples, _ = build_sft_corpus(
        instances, 0.0, seed=1, vocab=vocab,
        serialize_fn=lambda c, i: serialize_context(c, i, vocab), selfcheck_k=2,
    )
    params = fresh_params()
    tcfg = SftConfig(steps=250, batch_size=8, lr_policy=1e-3)
    rows = sft_train(params, examples, PCFG, tcfg, seed=11)
    first = -rows[0]["ppo_obj"]
    last_losses = [-r["ppo_obj"] for r in rows[-10:]]
    assert first == pytest.approx(np.log(vocab.size), rel=0.05)
    assert np.mean(last_losses) < 0.7 * first


def test_pl_log_prob_tape_matches_reference():
    scores = substream(0, "s").normal(size=6)
    perms = np.stack([substream(0, "p", i).permutation(6) for i in range(3)])
    tape = Tape()
    leaf = tape.leaf(scores, requires_grad=True)
    lp = pl_log_prob_tape(leaf, perms)
    for j in range(3):
        assert lp.data[j] == pytest.approx(pl_log_prob(perms[j], scores), abs=1e-10)
    weights = np.array([0.5, -1.0, 2.0])
    loss = ad.asum(ad.mul(lp, tape.constant(weights)))
    grad = tape.backward(loss)[leaf.node_id]
    expected = sum(w * pl_grad_scores(p, scores) for w, p in zip(weights, perms))
    assert np.max(np.abs(grad - expected)) < 1e-10
    # one fused node, finite where exp of the score spread would overflow
    for s in ((500.0, 0.0, -500.0), (0.0, 360.0, -360.0)):
        for perm in itertools.permutations(range(3)):
            tape = Tape()
            leaf = tape.leaf(np.array(s), requires_grad=True)
            lp = pl_log_prob_tape(leaf, np.array([perm]))
            assert len(tape.nodes) == 2  # the score leaf and the fused node
            grad = tape.backward(ad.asum(lp))[leaf.node_id]
            assert np.all(np.isfinite(grad))
            assert np.array_equal(grad, pl_grad_scores(perm, s))


def test_ranking_weights():
    rewards = np.array([1.0, 0.5])
    assert np.allclose(ranking_weights(rewards, "none"), [0.5, 0.25])
    assert np.allclose(ranking_weights(rewards, "loo"), [0.25, -0.25])
    with pytest.raises(ConfigError):
        ranking_weights(np.array([1.0]), "loo")


def test_rollout_is_deterministic():
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig(rankings_per_instance=2)
    a = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=7)
    b = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=7)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.rankings, b.rankings)
    assert np.array_equal(a.rewards, b.rewards)
    c = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=8)
    assert not np.array_equal(a.ids, c.ids) or not np.array_equal(a.rankings, c.rankings)


def test_rollout_scores_ignore_presentation_order():
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig()
    inst = instances[0]
    k = len(inst.candidates)
    perm = substream(9, "shuffle").permutation(k)
    shuffled = RankingInstance(
        instance_id=inst.instance_id,
        ctx=inst.ctx,
        candidates=tuple(inst.candidates[p] for p in perm),
        relevance=tuple(inst.relevance[p] for p in perm),
    )
    a = rollout(params, inst, PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=0)
    b = rollout(params, shuffled, PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=0)
    # same items, same step: identical per-item scores and rationales, bitwise
    for s in range(k):
        assert b.scores[s] == a.scores[perm[s]]
    canon_a = sorted(range(k), key=lambda s: inst.candidates[s].item_id)
    canon_b = sorted(range(k), key=lambda s: shuffled.candidates[s].item_id)
    assert [inst.candidates[s].item_id for s in canon_a] == [
        shuffled.candidates[s].item_id for s in canon_b
    ]
    for ra, rb in zip(a.rationales, b.rationales):
        assert np.array_equal(ra.tokens, rb.tokens)
        assert np.array_equal(ra.token_logprobs, rb.token_logprobs)


def test_decision_only_rollout_is_short():
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig(cot=False)
    rec = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=0)
    v = PCFG.vocab()
    for r in rec.rationales:
        assert len(r.tokens) <= 2
        assert set(r.tokens.tolist()) <= {v.RECOMMEND, v.NOT_RECOMMEND, v.EOS}


def test_ratio_is_one_before_any_update():
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig(rankings_per_instance=2)
    rec = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=0)
    tape = Tape()
    pt = lift_params(tape, params)
    hidden = forward_hidden_tape(pt, rec.ids, PCFG)
    lp_live = sequence_log_probs_tape(pt, hidden, rec.ids, rec.rows, rec.positions)
    assert np.max(np.abs(lp_live.data - rec.logprobs_old)) < 1e-10


def test_instance_objectives_at_rollout_params():
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig(rankings_per_instance=3)
    rec = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=0)
    tape = Tape()
    pt = lift_params(tape, params)
    ppo_obj, head_obj, ratio = instance_objectives(pt, rec, tcfg, PCFG)
    # with ratios exactly one, the clipped objective equals the advantage
    assert ratio.shape == rec.logprobs_old.shape
    assert np.max(np.abs(ratio - 1.0)) < 1e-10
    assert float(ppo_obj.data) == pytest.approx(rec.rewards.mean(), abs=1e-10)
    weights = ranking_weights(rec.rewards, "none")
    expected = sum(
        w * pl_log_prob(p, rec.scores) for w, p in zip(weights, rec.rankings)
    )
    assert float(head_obj.data) == pytest.approx(expected, abs=1e-10)


def test_frozen_head_reads_the_rollout_finals():
    world, instances = tiny_setup(K=6)
    params = fresh_params(2)
    vocab = PCFG.vocab()
    for n_events, cot in itertools.product((0, 3), (True, False)):
        inst = _with_history(instances[n_events], n_events)
        tcfg = TrainConfig(rankings_per_instance=3, cot=cot, joint=False)
        rec = rollout(params, inst, PCFG, tcfg, vocab, KeyedStreams(6), step=n_events)

        def head(finals_of):
            tape = Tape()
            pt = lift_params(tape, params, train_policy=False, train_head=True)
            head_obj = finals_of(pt)
            return float(head_obj.data), named_grads(pt, tape.backward(head_obj))

        def tape_finals(pt):  # the reference: the trunk's tape forward, read as constants
            tape = pt["emb"].tape
            hidden = forward_hidden_tape(pt, rec.ids, PCFG)
            finals = gather_positions_tape(hidden, np.arange(len(rec.rationales)), rec.final_positions)
            scores = ad.index_select(head_score_tape(pt, tape.constant(finals.data)), rec.row_of_slot)
            return ranking_objective(scores, rec.rankings, rec.rewards, tcfg.baseline)

        def objectives(pt):
            ppo_obj, head_obj, ratio = instance_objectives(pt, rec, tcfg, PCFG)
            assert ppo_obj is None and ratio is None
            return head_obj

        value, grads = head(objectives)
        ref_value, ref_grads = head(tape_finals)
        assert abs(value - ref_value) <= 1e-12
        assert grads.keys() == ref_grads.keys() == {n for n in params if is_head_param(n)}
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12, (n_events, cot, name)


def test_frozen_policy_updates_head_only():
    world, instances = tiny_setup()
    params = fresh_params()
    before = {k: v.copy() for k, v in params.items()}
    tcfg = TrainConfig(steps=3, joint=False)
    rl_train(params, instances[:4], PCFG, tcfg, seed=17)
    for name in params:
        if is_head_param(name):
            continue
        assert np.array_equal(params[name], before[name]), name
    assert any(
        not np.array_equal(params[n], before[n]) for n in params if is_head_param(n)
    )


def test_joint_training_updates_both_groups():
    world, instances = tiny_setup()
    params = fresh_params()
    before = {k: v.copy() for k, v in params.items()}
    tcfg = TrainConfig(steps=3)
    rows = rl_train(params, instances[:4], PCFG, tcfg, seed=17)
    assert len(rows) == 3
    assert all(0.0 <= r.mean_reward <= 1.0 for r in rows)
    assert any(
        not np.array_equal(params[n], before[n]) for n in params if not is_head_param(n)
    )
    assert any(
        not np.array_equal(params[n], before[n]) for n in params if is_head_param(n)
    )
    assert rows[0].grad_norm_phi > 0.0


def test_rl_training_is_bit_reproducible():
    world, instances = tiny_setup()
    tcfg = TrainConfig(steps=3, rankings_per_instance=2, baseline="loo")

    def run(seed):
        params = fresh_params()
        rl_train(params, instances[:4], PCFG, tcfg, seed=seed)
        return params

    a, b, c = run(23), run(23), run(24)
    assert all(np.array_equal(a[n], b[n]) for n in a)
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_divergence_is_reported():
    world, instances = tiny_setup()
    params = fresh_params()
    params["out.b"][0] = np.nan
    opt = Adam(params, 3e-4, 1e-3)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        rl_step(
            params, opt, instances[:1], PCFG, TrainConfig(), PCFG.vocab(),
            KeyedStreams(5), step=0,
        )


def test_rl_metrics_rows(tmp_path):
    world, instances = tiny_setup()
    params = fresh_params()
    path = tmp_path / "metrics.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = MetricsWriter(fh, "cafe", 3)
        rl_train(params, instances[:4], PCFG, TrainConfig(steps=2), seed=3, metrics=writer)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == report_header("metrics", "cafe", 3)
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert row["stage"] == "rl"
    assert 0.0 <= float(row["mean_reward"]) <= 1.0
    assert 0.0 <= float(row["clip_frac"]) <= 1.0
    assert float(row["approx_kl"]) >= 0.0
    assert float(row["ratio_max"]) > 1.0  # the second inner epoch sees the first one's update
    assert 1.0 <= float(row["gen_len_mean"]) <= PCFG.max_gen
    assert 0.0 <= float(row["truncation_rate"]) <= 1.0
    assert 0.0 <= float(row["decision_acc"]) <= 1.0
    assert float(row["score_std"]) > 0.0
    assert float(row["wallclock_ms"]) > 0.0
    assert header.index("wallclock_ms") == len(header) - 1


def test_rl_health_stats_follow_the_ratio():
    world, instances = tiny_setup()

    def step(**fields):
        params = fresh_params()
        opt = Adam(params, 3e-2, 1e-3)
        tcfg = TrainConfig(rankings_per_instance=2, **fields)
        return rl_step(params, opt, instances[:2], PCFG, tcfg, PCFG.vocab(), KeyedStreams(9), step=0)

    stats, records = step(inner_epochs=1)
    rats = [r for rec in records for r in rec.rationales]
    assert stats.gen_len_mean == np.mean([r.tokens.size for r in rats])
    assert stats.truncation_rate == np.mean([r.truncated for r in rats])
    vocab = PCFG.vocab()
    hits = [  # a missing or doubled decision (None) counts as wrong
        rec.rationales[rec.row_of_slot[slot]].decision(vocab) == rec.instance.relevance[slot]
        for rec in records
        for slot in range(len(rec.instance.candidates))
    ]
    assert stats.decision_acc == np.mean(hits)
    assert stats.score_std == np.mean([np.std(rec.scores) for rec in records])
    # one epoch at the rollout weights: the ratio is 1 up to rounding
    assert stats.clip_frac == 0.0
    assert abs(stats.ratio_max - 1.0) < 1e-10 and abs(stats.approx_kl) < 1e-20
    moved, _ = step(inner_epochs=3, epsilon=0.01)
    assert moved.clip_frac > 0.0 and moved.approx_kl > 0.0 and moved.ratio_max > 1.0
    frozen, _ = step(inner_epochs=3, joint=False)
    assert (frozen.clip_frac, frozen.approx_kl, frozen.ratio_max) == (0.0, 0.0, 1.0)


def test_each_inner_epoch_graph_is_freed_before_the_next_forward(monkeypatch):
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig(rankings_per_instance=2, joint=True, inner_epochs=2)
    tapes = []  # a weakref to each epoch's tape
    alive_at_call = []  # how many earlier epochs' tapes are alive as a forward starts

    def spy(pt, *args, **kwargs):
        tape = pt["emb"].tape
        alive_at_call.append(sum(ref() is not None and ref() is not tape for ref in tapes))
        if not any(ref() is tape for ref in tapes):
            tapes.append(weakref.ref(tape))
        return forward_hidden_tape(pt, *args, **kwargs)

    monkeypatch.setattr(plrank.training, "forward_hidden_tape", spy)
    opt = Adam(params, 1e-3, 1e-3)
    gc.disable()  # what frees a tape must be reference counting
    try:
        rl_step(params, opt, instances[:2], PCFG, tcfg, PCFG.vocab(), KeyedStreams(9), step=0)
    finally:
        gc.enable()
    assert len(tapes) == 2 and len(alive_at_call) == 4
    assert alive_at_call == [0, 0, 0, 0]


def _with_history(inst: RankingInstance, n_events: int) -> RankingInstance:
    """inst with its history replaced by n_events events built from its candidates' tokens."""
    events = tuple(
        HistoryEvent(f"h{t}", inst.candidates[-1 - t].tokens, t) for t in range(n_events)
    )
    return dataclasses.replace(inst, ctx=dataclasses.replace(inst.ctx, history=events))


def test_shared_tape_pass_matches_full_rows(monkeypatch):
    world, instances = tiny_setup(K=6)
    params = fresh_params()
    vocab = PCFG.vocab()

    def full(prefix):  # the reference: every row runs whole
        return 0

    forward = plrank.training.forward_hidden_tape

    def whole(pt, ids, cfg, shared=0, window=None):  # the reference's last layer runs every column
        start, width = window
        return ad.column_window(forward(pt, ids, cfg, shared), start - shared, width)

    for n_events, cot, joint in itertools.product((0, 1, 3), (True, False), (True, False)):
        inst = _with_history(instances[n_events], n_events)
        tcfg = TrainConfig(rankings_per_instance=3, cot=cot, joint=joint)
        rec = rollout(params, inst, PCFG, tcfg, vocab, KeyedStreams(4), step=n_events)
        s = shared_prefix_length(rec.ids[:, : rec.prefix_len])
        assert PCFG.m * (n_events + 1) <= s < rec.prefix_len

        def objective(shared_rule, forward_rule):
            monkeypatch.setattr(plrank.training, "shared_prefix_length", shared_rule)
            monkeypatch.setattr(plrank.training, "forward_hidden_tape", forward_rule)
            tape = Tape()
            pt = lift_params(tape, params, train_policy=joint, train_head=True)
            ppo_obj, head_obj, ratio = instance_objectives(pt, rec, tcfg, PCFG)
            loss = head_obj if ppo_obj is None else ad.add(ppo_obj, head_obj)
            return float(loss.data), ratio, named_grads(pt, tape.backward(loss))

        calls = []
        attention = ad.causal_attention

        def recording(q, k, v, n_heads, positions=None):
            calls.append((q.shape, k.shape, positions))
            return attention(q, k, v, n_heads, positions)

        monkeypatch.setattr(ad, "causal_attention", recording)
        loss, ratio, grads = objective(shared_prefix_length, forward)
        monkeypatch.setattr(ad, "causal_attention", attention)
        k, t = rec.ids.shape
        d = PCFG.d_model
        p = rec.prefix_len
        # the shared columns run at batch 1 in every layer but the last, whose
        # shared rows feed nothing; the K rows run only their suffixes, and
        # the last layer's queries only from the last prefix column on, as
        # the last T - (P - 1) positions. A frozen policy runs no trunk.
        expected = []
        for layer in range(PCFG.n_layers):
            if layer + 1 < PCFG.n_layers:
                expected.append(((1, s, d), (1, s, d), None))
                expected.append(((k, t - s, d), (k, t, d), None))
            else:
                expected.append(((k, t - (p - 1), d), (k, t, d), None))
        assert calls == (expected if joint else [])

        ref_loss, ref_ratio, ref_grads = objective(full, whole)
        assert abs(loss - ref_loss) <= 1e-12
        if joint:
            assert np.max(np.abs(ratio - ref_ratio)) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12, (n_events, cot, joint, name)
