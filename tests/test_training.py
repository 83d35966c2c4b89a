"""Tests for both training stages and their building blocks."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import plrank.autodiff as ad
from plrank.autodiff import Tape
from plrank.errors import ConfigError, TrainingDiverged
from plrank.policy import (
    PolicyConfig,
    init_params,
    is_head_param,
    serialize_context,
)
from plrank.rank import pl_grad_scores, pl_log_prob
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
    pl_log_prob_tape,
    ranking_weights,
    rl_step,
    rl_train,
    rollout,
    sft_batch_loss,
    sft_train,
)
from plrank.world import WorldConfig, build_instances, build_sft_corpus, generate_world

WCFG = WorldConfig(n_users=80, n_items=60, m=4, exposure_pool=24)
PCFG = PolicyConfig(
    m=4, buckets=4, d_model=16, n_layers=2, n_heads=2, d_ff=32,
    max_len=96, max_gen=16, head_hidden=16, init_std=0.02,
)


def tiny_setup(seed: int = 3, split: str = "train", K: int = 4, L: int = 3):
    world = generate_world(WCFG, seed)
    instances, _ = build_instances(world, split, K=K, L=L)
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
    opt = Adam(params, lr_policy=0.01, lr_head=0.1, eps=1e-8)
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


def test_metrics_writer_format(tmp_path):
    path = tmp_path / "metrics.csv"
    w = MetricsWriter(path)
    w.write_row(step=0, stage="sft", ppo_obj=-3.25, grad_norm_theta=1.5, wallclock_ms=2.0)
    w.close()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "sft"
    assert cells[2] == ""  # mean_reward not applicable during cloning
    assert float(cells[3]) == -3.25


def test_sft_initial_loss_is_log_vocab():
    world, instances = tiny_setup()
    vocab = PCFG.vocab()
    examples, _ = build_sft_corpus(
        instances, 0.0, seed=1, vocab=vocab,
        serialize_fn=lambda c, i: serialize_context(c, i, vocab),
    )
    params = fresh_params()
    loss, grads = sft_batch_loss(params, examples[:16], PCFG)
    assert abs(loss - np.log(vocab.size)) < 0.05 * np.log(vocab.size)
    assert all(not is_head_param(n) for n in grads)
    assert any(np.any(g != 0) for g in grads.values())
    loss_eval, no_grads = sft_batch_loss(params, examples[:16], PCFG, train=False)
    assert loss_eval == pytest.approx(loss)
    assert no_grads == {}


def test_sft_training_reduces_loss():
    world, instances = tiny_setup()
    vocab = PCFG.vocab()
    examples, _ = build_sft_corpus(
        instances, 0.0, seed=1, vocab=vocab,
        serialize_fn=lambda c, i: serialize_context(c, i, vocab),
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
    from plrank.policy import sequence_log_probs_tape

    lp_live, _ = sequence_log_probs_tape(pt, rec.ids, rec.prefix_len, rec.gen_len, PCFG)
    diff = (lp_live.data - rec.logprobs_old) * rec.gen_mask
    assert np.max(np.abs(diff)) < 1e-10


def test_instance_objectives_at_rollout_params():
    world, instances = tiny_setup()
    params = fresh_params()
    tcfg = TrainConfig(rankings_per_instance=3)
    rec = rollout(params, instances[0], PCFG, tcfg, PCFG.vocab(), KeyedStreams(5), step=0)
    tape = Tape()
    pt = lift_params(tape, params)
    ppo_obj, head_obj, advantage = instance_objectives(pt, rec, tcfg, PCFG)
    # with ratios exactly one, the clipped objective equals the advantage
    assert advantage == pytest.approx(rec.rewards.mean())
    assert float(ppo_obj.data) == pytest.approx(advantage, abs=1e-10)
    weights = ranking_weights(rec.rewards, "none")
    expected = sum(
        w * pl_log_prob(p, rec.scores) for w, p in zip(weights, rec.rankings)
    )
    assert float(head_obj.data) == pytest.approx(expected, abs=1e-10)


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


def test_severed_head_path_keeps_ppo_updates():
    world, instances = tiny_setup()
    params_a = fresh_params()
    params_b = fresh_params()
    rl_train(params_a, instances[:4], PCFG, TrainConfig(steps=2), seed=17)
    rl_train(
        params_b, instances[:4], PCFG,
        TrainConfig(steps=2, head_grads_into_policy=False), seed=17,
    )
    # severing changes the policy update but both still move the policy
    assert any(
        not np.array_equal(params_a[n], params_b[n]) for n in params_a if not is_head_param(n)
    )


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
    writer = MetricsWriter(path)
    rl_train(params, instances[:4], PCFG, TrainConfig(steps=2), seed=3, metrics=writer)
    writer.close()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["stage"] == "rl"
    assert 0.0 <= float(row["mean_reward"]) <= 1.0
    assert float(row["wallclock_ms"]) > 0.0
