"""Two-stage training: teacher cloning, then reward-driven fine-tuning.

Stage one clones the template teacher with token-level NLL. Stage two samples
one rationale per candidate, scores them with the head, samples rankings from
the score vector, and ascends two objectives at once: a clipped token-level
ratio objective on the rationale tokens (policy weights) and a score-gradient
objective through the ranking distribution (head weights, optionally flowing
back into the policy trunk). Every random draw comes from a keyed substream,
so runs are bit-reproducible and per-item draws never depend on slate order.
"""
from __future__ import annotations

import csv
import logging
import time
from dataclasses import asdict, dataclass

import numpy as np

import plrank.autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, ContractViolation, TrainingDiverged
from .policy import (
    PolicyConfig,
    Rationale,
    Vocab,
    decode_slate,
    forward_hidden_tape,
    gather_positions_tape,
    head_score_tape,
    is_head_param,
    lift_params,
    sequence_log_probs_tape,
)
from .rank import batched_ndcg, pl_log_probs_and_grads, pl_sample_many
from .rng import KeyedStreams
from .world import RankingInstance, SftExample

log = logging.getLogger("plrank.training")

METRICS_COLUMNS = (
    "step",
    "stage",
    "mean_reward",
    "ppo_obj",
    "head_obj",
    "grad_norm_theta",
    "grad_norm_phi",
    "wallclock_ms",
)


@dataclass(frozen=True)
class SftConfig:
    """Teacher-cloning knobs.

    SFT never trains the head: `lr_head` only sets the head rate of the Adam
    built for the stage, and no SFT step gives that rate a gradient.
    """

    steps: int = 3000
    batch_size: int = 1
    lr_policy: float = 3e-4
    lr_head: float = 1e-3

    def validate(self) -> None:
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("need steps >= 0 and batch_size >= 1")
        if self.lr_policy <= 0 or self.lr_head <= 0:
            raise ConfigError("learning rates must be positive")


@dataclass(frozen=True)
class TrainConfig(SftConfig):
    """The reward-driven stage's knobs: the SFT set plus the ranking fields."""

    reward_cutoff: int = 10
    epsilon: float = 0.2             # ratio clip width
    inner_epochs: int = 2
    rankings_per_instance: int = 1
    baseline: str = "none"           # or "loo" over sampled rankings
    joint: bool = True               # False freezes the policy during stage two
    head_grads_into_policy: bool = True
    cot: bool = True                 # False restricts rationales to bare decisions

    def validate(self) -> None:
        super().validate()
        if self.reward_cutoff < 1:
            raise ConfigError(f"reward_cutoff must be >= 1, got {self.reward_cutoff}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.inner_epochs < 1:
            raise ConfigError("inner_epochs must be >= 1")
        if self.rankings_per_instance < 1:
            raise ConfigError("rankings_per_instance must be >= 1")
        if self.baseline not in ("none", "loo"):
            raise ConfigError(f"unknown baseline {self.baseline!r}")
        if self.baseline == "loo" and self.rankings_per_instance < 2:
            raise ConfigError("loo baseline needs rankings_per_instance >= 2")


class Adam:
    """Per-tensor Adam with separate policy and head learning rates."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr_policy: float,
        lr_head: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr_policy = lr_policy
        self.lr_head = lr_head
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name in sorted(grads):
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            lr = self.lr_head if is_head_param(name) else self.lr_policy
            params[name] -= lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)


class MetricsWriter:
    """Append-only CSV log; floats are written at full precision."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(METRICS_COLUMNS)

    def write_row(self, **fields) -> None:
        row = []
        for col in METRICS_COLUMNS:
            value = fields.get(col, "")
            if isinstance(value, float):
                value = repr(value)
            row.append(value)
        self._writer.writerow(row)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def named_grads(pt: dict[str, Tensor], grads_by_node: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: grads_by_node[t.node_id] for name, t in pt.items() if t.node_id in grads_by_node}


def grad_norm(grads: dict[str, np.ndarray], head: bool) -> float:
    total = 0.0
    for name, g in grads.items():
        if is_head_param(name) == head:
            total += float(np.sum(g * g))
    return float(np.sqrt(total))


def _check_finite(value: float, grads: dict[str, np.ndarray], where: str) -> None:
    bad = [] if np.isfinite(value) else ["objective"]
    bad += [name for name, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise TrainingDiverged(f"non-finite quantities at {where}: {', '.join(sorted(bad))}")


# ---------------------------------------------------------------------------
# Stage one: teacher cloning
# ---------------------------------------------------------------------------


def sft_batch_loss(
    params: dict[str, np.ndarray],
    batch: list[SftExample],
    pcfg: PolicyConfig,
    train: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-token NLL of the teacher targets, plus policy gradients."""
    if not batch:
        raise ContractViolation("sft batch is empty")
    vocab = pcfg.vocab()
    widths = [ex.prefix.size + ex.target.size for ex in batch]
    t_max = max(widths)
    ids = np.full((len(batch), t_max), vocab.EOS, dtype=np.int64)
    rows, positions, targets = [], [], []
    for i, ex in enumerate(batch):
        seq = np.concatenate([ex.prefix.astype(np.int64), ex.target.astype(np.int64)])
        ids[i, : seq.size] = seq
        p = ex.prefix.size
        rows.append(np.full(ex.target.size, i))
        positions.append(np.arange(p - 1, p - 1 + ex.target.size))
        targets.append(ex.target.astype(np.int64))
    rows = np.concatenate(rows)
    positions = np.concatenate(positions)
    targets = np.concatenate(targets)
    tape = Tape()
    pt = lift_params(tape, params, train_policy=train, train_head=False)
    hidden = forward_hidden_tape(pt, ids, pcfg)
    picked = gather_positions_tape(hidden, rows, positions)
    lp = ad.log_softmax(ad.linear(picked, pt["out.w"], pt["out.b"]), axis=-1)
    onehot = np.zeros((targets.size, vocab.size))
    onehot[np.arange(targets.size), targets] = 1.0
    picked_lp = ad.asum(ad.mul(lp, tape.constant(onehot)))
    loss = ad.scale(picked_lp, -1.0 / targets.size)
    if not train:
        return float(loss.data), {}
    grads = named_grads(pt, tape.backward(loss))
    return float(loss.data), grads


def sft_train(
    params: dict[str, np.ndarray],
    examples: list[SftExample],
    pcfg: PolicyConfig,
    tcfg: SftConfig,
    seed: int,
    metrics: MetricsWriter | None = None,
) -> list[dict]:
    """Clone the teacher in place; returns one stats row per step.

    Batches are class-balanced: each slot flips a fair coin between the
    recommend and not-recommend examples, since slates are dominated by
    negatives and uniform draws teach the majority decision only.
    """
    tcfg.validate()
    if not examples:
        raise ContractViolation("no examples to clone from")
    by_label = (
        np.array([i for i, ex in enumerate(examples) if ex.ground_truth == 0], dtype=np.int64),
        np.array([i for i, ex in enumerate(examples) if ex.ground_truth == 1], dtype=np.int64),
    )
    balanced = by_label[0].size > 0 and by_label[1].size > 0
    streams = KeyedStreams(seed)
    opt = Adam(params, tcfg.lr_policy, tcfg.lr_head)
    rows = []
    for step in range(tcfg.steps):
        t0 = time.perf_counter()
        rng = streams.stream("sft", "batch", step)
        if balanced:
            labels = rng.integers(0, 2, tcfg.batch_size)
            idx = [by_label[l][rng.integers(0, by_label[l].size)] for l in labels]
        else:
            idx = rng.integers(0, len(examples), tcfg.batch_size)
        batch = [examples[int(i)] for i in idx]
        loss, grads = sft_batch_loss(params, batch, pcfg)
        _check_finite(loss, grads, f"sft step {step}")
        opt.step(params, grads)
        row = {
            "step": step,
            "stage": "sft",
            "ppo_obj": -loss,
            "grad_norm_theta": grad_norm(grads, head=False),
            "wallclock_ms": (time.perf_counter() - t0) * 1000.0,
        }
        rows.append(row)
        if metrics is not None:
            metrics.write_row(**row)
        if step % 200 == 0:
            log.info("sft step %d nll %.4f", step, loss)
    return rows


# ---------------------------------------------------------------------------
# Stage two: reward-driven fine-tuning
# ---------------------------------------------------------------------------


@dataclass
class RolloutRecord:
    """Everything one instance's sampled rationales leave behind for training.

    Token arrays are in canonical candidate order (sorted by item id), which
    makes the forward pass independent of slate presentation; `row_of_slot`
    maps presentation slots back to canonical rows.
    """

    instance: RankingInstance
    ids: np.ndarray            # (K, P+G) prefix + generated tokens, EOS padded
    prefix_len: int
    gen_len: int
    gen_mask: np.ndarray       # (K, G) 1.0 where a token was really generated
    logprobs_old: np.ndarray   # (K, G) sampling-time log-probs, zero padded
    final_positions: np.ndarray  # (K,) position of each row's last generated token
    row_of_slot: np.ndarray    # (K,) canonical row index per presentation slot
    rationales: list[Rationale]  # canonical row order
    scores: np.ndarray         # (K,) head scores in presentation order
    rankings: np.ndarray       # (R, K) sampled rankings over presentation slots
    rewards: np.ndarray        # (R,) truncated ranking quality per sample


def rollout(
    params: dict[str, np.ndarray],
    instance: RankingInstance,
    pcfg: PolicyConfig,
    tcfg: TrainConfig,
    vocab: Vocab,
    streams: KeyedStreams,
    step: int,
) -> RolloutRecord:
    """Sample rationales, score them, and sample rankings from the scores.

    Rationales are sampled at temperature 1, the policy whose log-probs the
    record keeps and whose ratio the clipped objective takes.
    """
    prefix, row_of_slot, rats, scores = decode_slate(
        params, instance.ctx, instance.candidates, pcfg, vocab, tcfg.cot,
        rng_of=lambda item_id: streams.stream("rollout", step, instance.instance_id, item_id),
    )
    k, p = prefix.shape
    lengths = np.array([r.tokens.size for r in rats])
    g = int(lengths.max())
    generated = np.arange(g) < lengths[:, None]
    ids = np.full((k, p + g), vocab.EOS, dtype=np.int64)
    ids[:, :p] = prefix
    ids[:, p:][generated] = np.concatenate([r.tokens for r in rats])
    logprobs_old = np.zeros((k, g))
    logprobs_old[generated] = np.concatenate([r.token_logprobs for r in rats])
    rank_rng = streams.stream("ranking", step, instance.instance_id)
    rankings = pl_sample_many(scores, tcfg.rankings_per_instance, rank_rng)
    rewards = batched_ndcg(rankings, instance.relevance, tcfg.reward_cutoff)
    return RolloutRecord(
        instance=instance,
        ids=ids,
        prefix_len=p,
        gen_len=g,
        gen_mask=generated.astype(np.float64),
        logprobs_old=logprobs_old,
        final_positions=p + lengths - 1,
        row_of_slot=row_of_slot,
        rationales=rats,
        scores=scores,
        rankings=rankings,
        rewards=rewards,
    )


def pl_log_prob_tape(scores: Tensor, perms: np.ndarray) -> Tensor:
    """Ranking log-probabilities (R,) of `perms` under a score Tensor (K,), as one tape node."""
    log_probs, grads = pl_log_probs_and_grads(np.atleast_2d(perms), scores.data)

    def backward_fn(g: np.ndarray):
        return (g @ grads,)

    return scores.tape._record(log_probs, (scores.node_id,), backward_fn, scores.requires)


def ranking_weights(rewards: np.ndarray, baseline: str) -> np.ndarray:
    """Per-ranking REINFORCE weights (reward minus baseline, averaged)."""
    r = rewards.size
    if baseline == "loo":
        if r < 2:
            raise ConfigError("loo baseline needs at least 2 rankings")
        b = (rewards.sum() - rewards) / (r - 1)
    else:
        b = np.zeros_like(rewards)
    return (rewards - b) / r


def clipped_token_objective(ratio, advantage: float, epsilon: float) -> np.ndarray:
    """Pessimistic clipped surrogate min(r*A, clip(r, 1-eps, 1+eps)*A).

    Reference form of the per-token objective built on tape by
    instance_objectives; useful for hand checks.
    """
    r = np.asarray(ratio, dtype=np.float64)
    return np.minimum(r * advantage, np.clip(r, 1.0 - epsilon, 1.0 + epsilon) * advantage)


def instance_objectives(
    pt: dict[str, Tensor],
    record: RolloutRecord,
    tcfg: TrainConfig,
    pcfg: PolicyConfig,
) -> tuple[Tensor | None, Tensor, float]:
    """Build the clipped token objective and the ranking objective on tape.

    Returns (token objective or None when the policy is frozen, ranking
    objective, advantage used for the token objective). Both objectives are
    to be maximized.
    """
    tape = pt["emb"].tape
    hidden = forward_hidden_tape(pt, record.ids, pcfg)
    k = record.ids.shape[0]

    ppo_obj: Tensor | None = None
    advantage = float(record.rewards.mean())
    if tcfg.joint:
        lp_live, _ = sequence_log_probs_tape(
            pt, record.ids, record.prefix_len, record.gen_len, pcfg, hidden=hidden
        )
        ratio = ad.exp(ad.add(lp_live, tape.constant(-record.logprobs_old)))
        unclipped = ad.scale(ratio, advantage)
        clipped = ad.scale(ad.clip(ratio, 1.0 - tcfg.epsilon, 1.0 + tcfg.epsilon), advantage)
        per_token = ad.mul(ad.minimum(unclipped, clipped), tape.constant(record.gen_mask))
        total_tokens = float(record.gen_mask.sum())
        ppo_obj = ad.scale(ad.asum(per_token), 1.0 / total_tokens)

    finals = gather_positions_tape(hidden, np.arange(k), record.final_positions)
    if not (tcfg.joint and tcfg.head_grads_into_policy):
        finals = tape.constant(finals.data)  # sever the path into the trunk
    scores_rows = head_score_tape(pt, finals)
    scores_pres = ad.index_select(scores_rows, record.row_of_slot)
    log_probs = pl_log_prob_tape(scores_pres, record.rankings)
    weights = ranking_weights(record.rewards, tcfg.baseline)
    head_obj = ad.asum(ad.mul(log_probs, tape.constant(weights)))
    return ppo_obj, head_obj, advantage


@dataclass
class RlStepStats:
    step: int
    mean_reward: float
    ppo_obj: float
    head_obj: float
    grad_norm_theta: float
    grad_norm_phi: float
    wallclock_ms: float = 0.0


def rl_step(
    params: dict[str, np.ndarray],
    opt: Adam,
    instances: list[RankingInstance],
    pcfg: PolicyConfig,
    tcfg: TrainConfig,
    vocab: Vocab,
    streams: KeyedStreams,
    step: int,
) -> tuple[RlStepStats, list[RolloutRecord]]:
    """One outer step: roll out a batch, then run the clipped inner epochs."""
    records = [rollout(params, inst, pcfg, tcfg, vocab, streams, step) for inst in instances]
    n = len(records)
    first_ppo = 0.0
    first_head = 0.0
    first_theta = 0.0
    first_phi = 0.0
    for epoch in range(tcfg.inner_epochs):
        tape = Tape()
        pt = lift_params(tape, params, train_policy=tcfg.joint, train_head=True)
        total: Tensor | None = None
        ppo_val = 0.0
        head_val = 0.0
        for record in records:
            ppo_obj, head_obj, _ = instance_objectives(pt, record, tcfg, pcfg)
            contrib = head_obj if ppo_obj is None else ad.add(ppo_obj, head_obj)
            ppo_val += float(ppo_obj.data) / n if ppo_obj is not None else 0.0
            head_val += float(head_obj.data) / n
            total = contrib if total is None else ad.add(total, contrib)
        loss = ad.scale(total, -1.0 / n)
        grads = named_grads(pt, tape.backward(loss))
        _check_finite(float(loss.data), grads, f"rl step {step} epoch {epoch}")
        if epoch == 0:
            first_ppo = ppo_val
            first_head = head_val
            first_theta = grad_norm(grads, head=False)
            first_phi = grad_norm(grads, head=True)
        opt.step(params, grads)
    stats = RlStepStats(
        step=step,
        mean_reward=float(np.mean([r.rewards.mean() for r in records])),
        ppo_obj=first_ppo,
        head_obj=first_head,
        grad_norm_theta=first_theta,
        grad_norm_phi=first_phi,
    )
    return stats, records


def rl_train(
    params: dict[str, np.ndarray],
    instances: list[RankingInstance],
    pcfg: PolicyConfig,
    tcfg: TrainConfig,
    seed: int,
    metrics: MetricsWriter | None = None,
) -> list[RlStepStats]:
    """Reward-driven fine-tuning in place; returns one stats row per step."""
    tcfg.validate()
    if not instances:
        raise ContractViolation("no instances to train on")
    vocab = pcfg.vocab()
    streams = KeyedStreams(seed)
    opt = Adam(params, tcfg.lr_policy, tcfg.lr_head)
    rows: list[RlStepStats] = []
    for step in range(tcfg.steps):
        t0 = time.perf_counter()
        idx = streams.stream("sched", step).integers(0, len(instances), tcfg.batch_size)
        batch = [instances[int(i)] for i in idx]
        stats, _ = rl_step(params, opt, batch, pcfg, tcfg, vocab, streams, step)
        stats.wallclock_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(stats)
        if metrics is not None:
            metrics.write_row(stage="rl", **asdict(stats))
        if step % 100 == 0:
            log.info("rl step %d mean reward %.4f", step, stats.mean_reward)
    return rows
