"""Acceptance gate: one test per shipped guarantee, heaviest last.

Each test prints a PASS line with the measured quantities, so `pytest -v -s`
doubles as a run report. The end-to-end, ablation, and determinism tests
train real models and take minutes; everything else is seconds.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import plrank.autodiff as ad
from plrank.autodiff import Tape, fd_check
from plrank.cli import main as cli_main
from plrank.config import RunConfig, policy_config, stage_config
from plrank.evaluation import (
    evaluate,
    presentation_index_scorer,
    probe_history_shuffle,
    probe_position,
    rank_by_scores,
)
from plrank.policy import (
    PolicyConfig,
    forward_hidden_tape,
    gather_positions_tape,
    head_score_tape,
    init_params,
    lift_params,
    sequence_log_probs_tape,
    serialize_context,
    token_log_probs,
)
from plrank.rank import (
    batched_ndcg,
    discounts,
    enumerate_expected_reward,
    ndcg,
    pl_grad_scores,
    pl_log_prob,
    pl_log_probs_and_grads,
    pl_sample_many,
)
from plrank.rng import KeyedStreams, substream
from plrank.training import (
    Adam,
    SftConfig,
    TrainConfig,
    clipped_token_objective,
    instance_objectives,
    ranking_objective,
    ranking_weights,
    rl_train,
    rollout,
    sft_train,
)
from plrank.world import (
    SPLITS,
    WorldConfig,
    build_instances,
    build_sft_corpus,
    generate_world,
    train_positive_counts,
    user_events,
)
from test_autodiff import fd_battery


def _serialize_fn(vocab):
    return lambda ctx, item: serialize_context(ctx, item, vocab)


def _build_split(world, cfg, split, counts):
    instances, _ = build_instances(world, split, cfg.data.K, cfg.data.L, counts)
    return instances


# ---------------------------------------------------------------------------
# 1. Plackett-Luce exactness
# ---------------------------------------------------------------------------


def test_a01_pl_exactness():
    t0 = time.perf_counter()
    streams = KeyedStreams(1402)

    worst_norm = 0.0
    for i in range(50):
        k = 2 + i % 4
        scores = streams.stream("norm", i).normal(0.0, 1.2, k)
        total = sum(
            math.exp(pl_log_prob(np.array(perm), scores))
            for perm in itertools.permutations(range(k))
        )
        worst_norm = max(worst_norm, abs(total - 1.0))
    assert worst_norm < 1e-9, worst_norm

    n = 100_000
    worst_z = 0.0
    for k in (2, 3, 4, 5):
        scores = streams.stream("sample", k).normal(0.0, 1.0, k)
        draws = pl_sample_many(scores, n, streams.stream("draws", k))
        uniq, counts = np.unique(draws, axis=0, return_counts=True)
        freq = {tuple(int(x) for x in row): int(c) for row, c in zip(uniq, counts)}
        for perm in itertools.permutations(range(k)):
            p = math.exp(pl_log_prob(np.array(perm), scores))
            se = math.sqrt(p * (1.0 - p) / n)
            dev = abs(freq.get(perm, 0) / n - p)
            assert dev <= 3.0 * se, (k, perm, dev, 3.0 * se)
            worst_z = max(worst_z, dev / se)

    dt = time.perf_counter() - t0
    assert dt < 30.0, dt
    print(
        f"PASS pl exactness: 50 normalizations off by <= {worst_norm:.2e}, "
        f"sampling worst dev {worst_z:.2f} SE across K=2..5, {dt:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. Gradient fidelity
# ---------------------------------------------------------------------------


def test_a02_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for f, leaves in fd_battery():
        worst = max(worst, fd_check(f, leaves))

    # the full twin-forward model, end to end
    tiny = PolicyConfig(
        m=2, buckets=3, d_model=4, n_layers=2, n_heads=2, d_ff=4,
        max_len=24, max_gen=6, head_hidden=4, init_std=0.4,
    )
    params = init_params(tiny, substream(13, "init", "policy"))
    names = sorted(params)
    v = tiny.vocab()
    rng = substream(5, "fd")
    prefix_len, gen_len, batch = 5, 3, 2
    ids = rng.integers(0, v.size, size=(batch, prefix_len + gen_len))
    # all three generated tokens of row 0, the first two of row 1
    rows = np.array([0, 0, 0, 1, 1])
    positions = np.array([4, 5, 6, 4, 5])
    finals = np.array([prefix_len + 2, prefix_len + 1])
    weights = np.array([0.7, -0.3])

    def model_loss(*leaves):
        pt = dict(zip(names, leaves))
        hidden = forward_hidden_tape(pt, ids, tiny)
        lp = sequence_log_probs_tape(pt, hidden, ids, rows, positions)
        picked = gather_positions_tape(hidden, np.arange(batch), finals)
        scores = head_score_tape(pt, picked)
        weighted = ad.mul(scores, scores.tape.constant(weights))
        return ad.add(ad.asum(lp), ad.asum(weighted))

    worst = max(worst, fd_check(model_loss, [params[name] for name in names]))
    assert worst < 1e-4, worst

    # choice-model gradient against central differences
    h = 1e-5
    worst_pl = 0.0
    for i in range(12):
        rng_i = np.random.default_rng(100 + i)
        k = 2 + i % 5
        scores = rng_i.normal(0.0, 1.3, k)
        perm = rng_i.permutation(k)
        grad = pl_grad_scores(perm, scores)
        fd = np.zeros(k)
        for j in range(k):
            up, dn = scores.copy(), scores.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (pl_log_prob(perm, up) - pl_log_prob(perm, dn)) / (2 * h)
        worst_pl = max(worst_pl, float(np.max(np.abs(grad - fd))))
    assert worst_pl < 1e-6, worst_pl

    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    print(
        f"PASS gradient fidelity: fd battery worst rel err {worst:.2e} (< 1e-4), "
        f"choice-model grad vs FD {worst_pl:.2e} (< 1e-6), {dt:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. Sampled-gradient consistency against exact enumeration
# ---------------------------------------------------------------------------


def _grouped_gradient(scores, rel, cutoff, perms, group, baseline):
    """The head's gradient estimate from sampled rankings (N, K) split into
    groups of `group`, as training weighs one instance's rankings: each
    group's estimate is ranking_weights(group rewards, baseline) @ the group's
    log-prob gradients. Returns the mean of the group estimates and its
    standard errors.

    On the first group, the backward pass of `ranking_objective`, the tape
    that training builds, must give that product bit for bit.
    """
    rewards = batched_ndcg(perms, rel, cutoff).reshape(-1, group)
    grads = pl_log_probs_and_grads(perms, scores)[1].reshape(-1, group, len(scores))
    per_group = np.array([ranking_weights(r, baseline) @ g for r, g in zip(rewards, grads)])
    tape = Tape()
    s = tape.leaf(scores, requires_grad=True)
    first = perms[:group]
    tape_grad = tape.backward(ranking_objective(s, first, rewards[0], baseline))[s.node_id]
    weights = ranking_weights(rewards[0], baseline)
    assert np.array_equal(tape_grad, weights @ pl_log_probs_and_grads(first, scores)[1])
    return per_group.mean(axis=0), per_group.std(axis=0, ddof=1) / math.sqrt(len(per_group))


def test_a03_estimator_consistency():
    t0 = time.perf_counter()
    streams = KeyedStreams(314)
    n_draws = 100_000
    group = RunConfig().rl.rankings_per_instance  # the desk trains on R = 8 rankings per instance
    baselines = ("loo", "none")  # the desk's leave-one-out baseline, and none
    worst_z = dict.fromkeys(baselines, 0.0)
    for i in range(20):
        rng = streams.stream("inst", i)
        scores = rng.normal(0.0, 1.0, 4)
        rel = np.zeros(4, dtype=np.int64)
        rel[rng.integers(0, 4)] = 1
        if rng.random() < 0.5:
            rel[rng.integers(0, 4)] = 1  # occasionally a second positive
        cutoff = int(rng.integers(2, 5))
        _, exact_grad = enumerate_expected_reward(scores, rel, cutoff)
        perms = pl_sample_many(scores, n_draws, streams.stream("mc", i))
        for baseline in baselines:
            grad, se = _grouped_gradient(scores, rel, cutoff, perms, group, baseline)
            z = np.abs(grad - exact_grad) / np.maximum(se, 1e-12)
            assert np.all(z <= 3.0), (baseline, i, z)
            worst_z[baseline] = max(worst_z[baseline], float(z.max()))

    # worked two-item case: equal scores, one positive, full cutoff
    value, exact = enumerate_expected_reward([0.0, 0.0], [1, 0], 2)
    assert exact == pytest.approx([0.0922675616, -0.0922675616], abs=1e-9)
    assert np.round(exact, 5) == pytest.approx([0.09227, -0.09227], abs=0)
    perms = pl_sample_many([0.0, 0.0], n_draws, streams.stream("worked"))
    for baseline in baselines:
        grad, se = _grouped_gradient(np.zeros(2), [1, 0], 2, perms, group, baseline)
        assert np.all(np.abs(grad - np.array([0.09227, -0.09227])) <= 3.0 * np.maximum(se, 1e-12))

    dt = time.perf_counter() - t0
    assert dt < 300.0, dt
    print(
        f"PASS estimator consistency: the head's gradient over groups of {group} rankings, "
        f"20 instances within 3 SEs (worst {worst_z['loo']:.2f} with the leave-one-out baseline, "
        f"{worst_z['none']:.2f} with none), worked case grad ({exact[0]:+.5f}, {exact[1]:+.5f}), {dt:.1f}s"
    )


# ---------------------------------------------------------------------------
# 4. Clipped-update contract
# ---------------------------------------------------------------------------


def test_a04_clipped_update_contract():
    # hand-checked single-token cases
    assert clipped_token_objective(np.array([1.3]), 0.8, 0.2)[0] == 0.96
    assert clipped_token_objective(np.array([0.5]), 0.8, 0.2)[0] == 0.40

    # the tape chain used in training computes the same numbers bit for bit
    tape = Tape()
    ratios = np.array([1.3, 0.5, 1.0, 0.97, 2.4])
    r = tape.constant(ratios)
    chain = ad.minimum(ad.scale(r, 0.8), ad.scale(ad.clip(r, 0.8, 1.2), 0.8))
    assert np.array_equal(chain.data, clipped_token_objective(ratios, 0.8, 0.2))

    # pessimism: never above the unclipped objective for nonnegative rewards
    rng = substream(99, "clip")
    gammas = np.exp(rng.normal(0.0, 0.7, 1000))
    advs = np.abs(rng.normal(0.0, 1.0, 1000))
    eps = rng.uniform(0.05, 0.5, 1000)
    for g, a, e in zip(gammas, advs, eps):
        assert clipped_token_objective(np.array([g]), a, e)[0] <= g * a + 1e-15

    # ratio identically one at the snapshot, via a real rollout
    wcfg = WorldConfig(n_users=80, n_items=60, m=4, exposure_pool=24)
    world = generate_world(wcfg, 11)
    counts = train_positive_counts(world)
    instances, _ = build_instances(world, "train", 6, 6, counts)
    pcfg = PolicyConfig(
        m=4, buckets=4, d_model=16, n_layers=2, n_heads=2, d_ff=32,
        max_len=96, max_gen=16, head_hidden=16, init_std=0.02,
    )
    params = init_params(pcfg, substream(11, "init", "policy"))
    tcfg = TrainConfig(steps=1, reward_cutoff=3)
    record = rollout(params, instances[0], pcfg, tcfg, pcfg.vocab(), KeyedStreams(11), 0)
    lp_now = np.concatenate(
        [
            token_log_probs(params, record.ids[k, : record.prefix_len], r.tokens, pcfg)
            for k, r in enumerate(record.rationales)
        ]
    )
    dev = float(np.max(np.abs(lp_now - record.logprobs_old)))
    assert dev <= 1e-10, dev
    ratio_dev = float(np.max(np.abs(np.exp(lp_now - record.logprobs_old) - 1.0)))
    assert ratio_dev <= 1e-10, ratio_dev

    # and therefore the first inner epoch's objective equals the raw advantage
    tape = Tape()
    pt = lift_params(tape, params, train_policy=True, train_head=True)
    ppo_obj, _, _ = instance_objectives(pt, record, tcfg, pcfg)
    advantage = float(record.rewards.mean())
    assert abs(float(ppo_obj.data) - advantage) <= 1e-10

    print(
        f"PASS clipped-update contract: hand cases 0.96/0.40 exact, "
        f"snapshot ratio dev {ratio_dev:.1e} (<= 1e-10), 1000 pessimism checks"
    )


# ---------------------------------------------------------------------------
# 5. End-to-end learning at the default desk scale
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_run():
    cfg = RunConfig()
    pcfg = policy_config(cfg)
    vocab = pcfg.vocab()

    t0 = time.perf_counter()
    world = generate_world(cfg.world, cfg.seed)
    counts = train_positive_counts(world)
    train_inst = _build_split(world, cfg, "train", counts)
    test_inst = _build_split(world, cfg, "test", counts)
    corpus, _ = build_sft_corpus(
        train_inst, cfg.data.noise_rate, cfg.seed, vocab, _serialize_fn(vocab),
        selfcheck_k=cfg.data.selfcheck_k,
    )
    params = init_params(pcfg, substream(cfg.seed, "init", "policy"))
    sft_train(params, corpus, pcfg, stage_config(cfg, "sft"), cfg.seed)
    rl_train(params, train_inst, pcfg, stage_config(cfg, "rl"), cfg.seed)
    train_seconds = time.perf_counter() - t0

    report = evaluate(params, test_inst, pcfg, cutoffs=cfg.eval.cutoffs, cot=cfg.rl.cot)
    return {
        "cfg": cfg,
        "pcfg": pcfg,
        "params": params,
        "test_instances": test_inst,
        "report": report,
        "train_seconds": train_seconds,
    }


def test_a05_end_to_end_learning(desk_run):
    cfg = desk_run["cfg"]
    K, cutoff = cfg.data.K, cfg.rl.reward_cutoff

    # random-policy level, closed form: one positive uniformly ranked in K
    disc = discounts(K)
    random_level = float(disc[:cutoff].sum() / K)
    # confirm the closed form against the enumeration oracle where enumerable
    for k_small, c_small in ((5, 3), (6, 4)):
        rel = np.zeros(k_small)
        rel[0] = 1
        exact, _ = enumerate_expected_reward(np.zeros(k_small), rel, c_small)
        closed = float(discounts(k_small)[:c_small].sum() / k_small)
        assert exact == pytest.approx(closed, abs=1e-12)
    assert random_level == pytest.approx(0.2271779669044173, abs=1e-12)

    achieved = desk_run["report"].mean[cutoff]
    ci = desk_run["report"].ci95[cutoff]
    minutes = desk_run["train_seconds"] / 60.0
    assert achieved >= 0.85, (achieved, ci)
    print(
        f"PASS end-to-end learning: test NDCG@{cutoff} {achieved:.4f} ± {ci:.4f} "
        f"(>= 0.85; random level {random_level:.4f}) after {minutes:.1f} min of training"
    )


# ---------------------------------------------------------------------------
# 6. Ablation ordering, three seeds per cell
# ---------------------------------------------------------------------------

ABLATION_WORLD = WorldConfig(n_users=500, n_items=300, exposure_pool=128)
ABLATION_SEEDS = (101, 102, 103)


def _ablation_cell(bundle, sft_init: bool, joint: bool, cot: bool, seed: int) -> float:
    world, train_inst, test_inst, corpus, cfg = bundle
    pcfg = policy_config(cfg)
    params = init_params(pcfg, substream(seed, "init", "policy"))
    if sft_init:
        sft_train(params, corpus, pcfg, stage_config(cfg, "sft"), seed)
    rl_cfg = dataclasses.replace(stage_config(cfg, "rl"), joint=joint, cot=cot)
    rl_train(params, train_inst, pcfg, rl_cfg, seed)
    report = evaluate(params, test_inst, pcfg, cutoffs=(10,), cot=cot)
    return report.mean[10]


def _gap_line(name, hi, lo):
    gap = hi[0] - lo[0]
    ci_diff = math.sqrt(hi[1] ** 2 + lo[1] ** 2)  # CI of the difference of means
    if gap >= 0.02:
        return gap, ci_diff, f"{name}: gap {gap:+.3f} (ordered)"
    return gap, ci_diff, (
        f"{name}: gap {gap:+.3f} ± {ci_diff:.3f} -> null result "
        f"(means {hi[0]:.3f}±{hi[1]:.3f} vs {lo[0]:.3f}±{lo[1]:.3f}, seeds {ABLATION_SEEDS})"
    )


def test_a06_ablation_ordering():
    cfg = RunConfig(
        seed=101,
        world=ABLATION_WORLD,
        data=dataclasses.replace(RunConfig().data, K=20, L=10),
        sft=SftConfig(steps=400, batch_size=8),
        rl=TrainConfig(steps=600, batch_size=1),
    )
    pcfg = policy_config(cfg)
    vocab = pcfg.vocab()
    world = generate_world(cfg.world, cfg.seed)
    counts = train_positive_counts(world)
    train_inst = _build_split(world, cfg, "train", counts)
    test_inst = _build_split(world, cfg, "test", counts)
    corpus, _ = build_sft_corpus(
        train_inst, cfg.data.noise_rate, cfg.seed, vocab, _serialize_fn(vocab),
        selfcheck_k=cfg.data.selfcheck_k,
    )
    bundle = (world, train_inst, test_inst, corpus, cfg)

    cells = {
        "sft_rl": dict(sft_init=True, joint=True, cot=True),
        "rl_only": dict(sft_init=False, joint=True, cot=True),
        "mlp_only": dict(sft_init=False, joint=False, cot=True),
        "no_cot": dict(sft_init=True, joint=True, cot=False),
    }
    stats = {}
    for name, switches in cells.items():
        vals = np.array([_ablation_cell(bundle, seed=s, **switches) for s in ABLATION_SEEDS])
        stats[name] = (float(vals.mean()), float(1.96 * vals.std(ddof=1) / math.sqrt(len(vals))), vals)

    lines = []
    gaps = []
    for name, hi, lo in (
        ("sft&rl >= rl-only", stats["sft_rl"], stats["rl_only"]),
        ("rl-only >= mlp-only", stats["rl_only"], stats["mlp_only"]),
        ("cot >= no-cot", stats["sft_rl"], stats["no_cot"]),
    ):
        gap, ci_diff, line = _gap_line(name, hi, lo)
        gaps.append((name, gap, ci_diff))
        lines.append(line)

    detail = "; ".join(
        f"{name} {mean:.3f}±{ci:.3f} {np.round(vals, 3).tolist()}"
        for name, (mean, ci, vals) in stats.items()
    )
    # a gap may be a null result, but an inversion its own CI cannot explain fails
    for name, gap, ci_diff in gaps:
        assert gap > -0.02 or abs(gap) <= ci_diff, (name, gap, ci_diff, detail)
    print(f"PASS ablation ordering: {'; '.join(lines)} | cells: {detail}")


# ---------------------------------------------------------------------------
# 7. Presentation-position immunity of the trained model
# ---------------------------------------------------------------------------


def test_a07_position_bias_immunity(desk_run):
    params, pcfg, cot = desk_run["params"], desk_run["pcfg"], desk_run["cfg"].rl.cot
    instances = desk_run["test_instances"][:100]
    probe = probe_position(params, instances, pcfg, slots=(1, 10, 20), cot=cot)
    assert probe.identical, probe.histograms
    assert probe.max_spread == 0

    leaky = probe_position(
        params, instances, pcfg, slots=(1, 10, 20), cot=cot, scorer=presentation_index_scorer
    )
    assert not leaky.identical
    assert leaky.max_spread > 0
    print(
        f"PASS position-bias immunity: rank histograms bit-identical across slots (1, 10, 20) "
        f"on {len(instances)} instances; order-sensitive reference shows spread {leaky.max_spread}"
    )


# ---------------------------------------------------------------------------
# 8. History-shuffle probe and its emitted summary
# ---------------------------------------------------------------------------


def test_a08_history_shuffle_probe(desk_run, tmp_path):
    from plrank.report import read_table, summarize_history_probe, write_history_probe_csv

    params, pcfg, cfg = desk_run["params"], desk_run["pcfg"], desk_run["cfg"]
    instances = desk_run["test_instances"][:40]
    result = probe_history_shuffle(
        params, instances, pcfg, cutoff=10, n_shuffles=10, seed=cfg.seed, cot=cfg.rl.cot
    )

    path = tmp_path / "probe_history.csv"
    write_history_probe_csv(path, result, "acceptance", cfg.seed)
    _, _, rows = read_table(path)
    summary = summarize_history_probe(rows)
    assert summary.original_mean == result.original_mean
    assert summary.avg == result.avg
    assert summary.std == result.std
    assert summary.range == result.range
    print(
        f"PASS history-shuffle probe: Avg {result.avg:.4f} Std {result.std:.4f} "
        f"Range {result.range:.4f} Original-Avg {result.original_mean:.4f}; "
        f"summary recomputed from raw rows matches exactly"
    )


# ---------------------------------------------------------------------------
# 9. Protocol fidelity over ten thousand instances
# ---------------------------------------------------------------------------


def test_a09_protocol_fidelity():
    wcfg = WorldConfig(n_users=10_500, n_items=1000)
    K = L = 20
    world = generate_world(wcfg, 1234)
    zero_counts = np.zeros(wcfg.n_items, dtype=np.int64)

    per_split = {}
    total = 0
    for split in SPLITS:
        instances, _ = build_instances(world, split, K, L, zero_counts)
        per_split[split] = instances
        total += len(instances)
    assert total >= 10_000, total

    for split, instances in per_split.items():
        for inst in instances:
            assert sum(inst.relevance) == 1, inst.instance_id
            assert len(inst.candidates) == K
            assert len({c.item_id for c in inst.candidates}) == K
            assert len(inst.ctx.history) <= L

            uidx = int(inst.instance_id[1:])
            events = user_events(world, uidx)
            positives = [world.item_id(i) for i in events.positives]
            positive_item = inst.candidates[inst.positive_index()].item_id
            assert positive_item == positives[-1], inst.instance_id
            earlier = positives[:-1]
            hist_ids = [ev.item_id for ev in inst.ctx.history]
            h = len(hist_ids)
            assert h <= min(L, len(earlier))
            assert hist_ids == earlier[len(earlier) - h :], inst.instance_id

    shares = {split: len(per_split[split]) / total for split in SPLITS}
    assert abs(shares["train"] - 0.8) < 0.015, shares
    assert abs(shares["valid"] - 0.1) < 0.015, shares
    assert abs(shares["test"] - 0.1) < 0.015, shares
    print(
        f"PASS protocol fidelity: {total} instances, one positive and {K - 1} negatives each, "
        f"histories are the most recent <= {L} prior positives, split shares "
        f"{shares['train']:.3f}/{shares['valid']:.3f}/{shares['test']:.3f}"
    )


# ---------------------------------------------------------------------------
# 10. Whole-pipeline determinism
# ---------------------------------------------------------------------------

PIPELINE_CONFIG = {
    "seed": 7,
    "world": {"n_users": 150, "n_items": 100, "m": 4, "exposure_pool": 48},
    "data": {"K": 6, "L": 6},
    "model": {
        "d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 32,
        "max_len": 72, "max_gen": 16, "head_hidden": 16,
    },
    "sft": {"steps": 60, "batch_size": 4},
    "rl": {"steps": 12, "batch_size": 1, "rankings_per_instance": 2},
    "eval": {"cutoffs": [1, 3], "split": "test", "history_cutoff": 3, "probe_slots": [1, 3, 6]},
}


def _run_pipeline(cfg_path: Path, out_dir: Path) -> None:
    base = ["--config", str(cfg_path), "--out", str(out_dir)]
    for cmd in (
        ["gen-data"],
        ["build-sft"],
        ["train", "--stage", "sft"],
        ["train", "--stage", "rl"],
        ["eval"],
    ):
        rc = cli_main(cmd + base)
        assert rc == 0, cmd


def _metrics_without_wallclock(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[-1] == "wallclock_ms" or len(cols) > 1
        out.append(",".join(cols[:-1]))
    return out


def test_a10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    for d in dirs:
        _run_pipeline(cfg_path, d)

    identical = [
        "effective_config.json",
        "instances_train.jsonl",
        "instances_valid.jsonl",
        "instances_test.jsonl",
        "sft.jsonl",
        "sft_model.bin",
        "rl_model.bin",
        "eval.csv",
        "strata.csv",
        "summary.json",
    ]
    for name in identical:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"

    for name in ("metrics_sft.csv", "metrics_rl.csv"):
        a = _metrics_without_wallclock(dirs[0] / name)
        b = _metrics_without_wallclock(dirs[1] / name)
        assert a == b, f"{name} differs beyond wallclock"

    checkpoints = (dirs[0] / "rl_model.bin").read_bytes()
    print(
        f"PASS pipeline determinism: {len(identical)} artifacts bit-identical across "
        f"two seeded runs (rl checkpoint {len(checkpoints)} bytes); metrics match up to wallclock"
    )
