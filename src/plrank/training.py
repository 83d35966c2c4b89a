"""Two-stage training: teacher cloning, then reward-driven fine-tuning.

Stage one clones the template teacher with token-level NLL. Stage two samples
one rationale per candidate, scores them with the head, samples rankings from
the score vector, and ascends two objectives at once: a clipped token-level
ratio objective on the rationale tokens (policy weights) and a score-gradient
objective through the ranking distribution (head weights, and through them
the policy trunk exactly when `rl.joint` is true). Every random draw comes
from a keyed substream, so runs are bit-reproducible and per-item draws never
depend on slate order.

The update's tape pass runs an instance's shared user prefix once, at batch
1, and its K candidate rows only from there on (`instance_objectives`); its
last layer, like SFT's, runs only at the columns the objectives read.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields

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
    pack_rows,
    sequence_log_probs_tape,
    shared_prefix_length,
)
from .rank import batched_ndcg, pl_log_probs_and_grads, pl_sample_many
from .report import TableWriter
from .rng import KeyedStreams
from .world import RankingInstance, SftExample


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
    """Adam with separate policy and head learning rates, as one vector.

    The first step lays out flat moment buffers over the names it is given, in
    sorted order, and every later step must give the same names. A step
    concatenates their gradients and updates the buffers with the per-tensor
    formula; `m[name]` and `v[name]` are views into them.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr_policy: float, lr_head: float):
        self.lr_policy = lr_policy
        self.lr_head = lr_head
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._names: tuple[str, ...] | None = None

    def _lay_out(self, params: dict[str, np.ndarray], names: tuple[str, ...]) -> None:
        self._names = names
        self._bounds = np.cumsum([0] + [params[name].size for name in names])
        self._flat_m, self._flat_v = np.zeros(self._bounds[-1]), np.zeros(self._bounds[-1])
        for name, lo, hi in zip(names, self._bounds, self._bounds[1:]):
            self.m[name] = self._flat_m[lo:hi].reshape(params[name].shape)
            self.v[name] = self._flat_v[lo:hi].reshape(params[name].shape)
        self._lr = np.concatenate([
            np.full(params[name].size, self.lr_head if is_head_param(name) else self.lr_policy)
            for name in names
        ])

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        names = tuple(sorted(grads))
        if self._names is None:
            self._lay_out(params, names)
        elif names != self._names:
            raise ContractViolation(
                f"Adam was laid out over {len(self._names)} names, not this step's {len(names)}"
            )
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g = np.concatenate([grads[name].ravel() for name in names])
        m, v = self._flat_m, self._flat_v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = self._lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        for name, lo, hi in zip(names, self._bounds, self._bounds[1:]):
            params[name] -= update[lo:hi].reshape(params[name].shape)


class MetricsWriter(TableWriter):
    """The metrics table over an open text file, one `write_row` per step;
    a column with no value is left empty."""

    def __init__(self, fh, config_hash: str, seed: int):
        super().__init__(fh, "metrics", config_hash, seed, METRICS_COLUMNS)

    def write_row(self, **values) -> None:
        self.write([values.get(col, "") for col in METRICS_COLUMNS])


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
    """Mean per-token NLL of the teacher targets, plus policy gradients.

    Rows run in length classes: rows whose length has the same ceil(log2)
    share one padded pass, in batch order, so no row is padded to more than
    twice its length. The loss agrees with one padded pass over the whole
    batch up to the grouping of its sums. The last layer runs only at the
    columns the loss reads: W, the class's longest target, per row, ending at
    the row's last predicting column.
    """
    if not batch:
        raise ContractViolation("sft batch is empty")
    eos = pcfg.vocab().EOS
    classes = np.array([(ex.prefix.size + ex.target.size - 1).bit_length() for ex in batch])
    tape = Tape()
    pt = lift_params(tape, params, train_policy=train, train_head=False)
    parts = []
    for c in np.unique(classes):
        members = [batch[i] for i in np.flatnonzero(classes == c)]
        ids, rows, positions = pack_rows([ex.prefix for ex in members], [ex.target for ex in members], eos)
        targets = np.array([ex.target.size for ex in members])
        width = int(targets.max())
        lengths = np.array([ex.prefix.size for ex in members]) + targets
        starts = np.maximum(lengths - 1 - width, 0)
        hidden = forward_hidden_tape(pt, ids, pcfg, window=(starts, width))
        parts.append(sequence_log_probs_tape(pt, hidden, ids, rows, positions, starts))
    n_targets = sum(ex.target.size for ex in batch)
    loss = ad.scale(ad.asum(ad.concat(parts)), -1.0 / n_targets)
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
    rows: np.ndarray           # (N,) row of each generated token, see pack_rows
    positions: np.ndarray      # (N,) position each generated token is predicted from
    logprobs_old: np.ndarray   # (N,) sampling-time log-probs
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
    ids, rows, positions = pack_rows(prefix, [r.tokens for r in rats], vocab.EOS)
    p = prefix.shape[1]
    rank_rng = streams.stream("ranking", step, instance.instance_id)
    rankings = pl_sample_many(scores, tcfg.rankings_per_instance, rank_rng)
    rewards = batched_ndcg(rankings, instance.relevance, tcfg.reward_cutoff)
    return RolloutRecord(
        instance=instance,
        ids=ids,
        prefix_len=p,
        rows=rows,
        positions=positions,
        logprobs_old=np.concatenate([r.token_logprobs for r in rats]),
        final_positions=p + np.array([r.tokens.size for r in rats]) - 1,
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


def ranking_objective(scores: Tensor, rankings: np.ndarray, rewards: np.ndarray, baseline: str) -> Tensor:
    """The head's REINFORCE objective over R sampled rankings (R, K) of a score Tensor (K,).

    It is sum_r w_r log P(ranking r | scores) with w = ranking_weights(rewards,
    baseline), so its gradient with respect to the scores is w @ the rankings'
    log-prob gradients, the estimate of d E[reward] / d scores.
    """
    log_probs = pl_log_prob_tape(scores, rankings)
    return ad.asum(ad.mul(log_probs, scores.tape.constant(ranking_weights(rewards, baseline))))


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
) -> tuple[Tensor | None, Tensor, np.ndarray | None]:
    """Build the clipped token objective and the ranking objective on tape.

    Returns (token objective, ranking objective, per-token ratios (N,) of
    live to sampling-time probabilities); the first and last are None when
    the policy is frozen. Both objectives are to be maximized. The columns
    every row's prefix shares (the user's part) run once, at batch 1, and
    the last layer runs only from the last prefix column P - 1 on, the
    columns every generated token and final hidden state is read at; the
    hidden states start there. A frozen policy runs no
    trunk at all: its weights are the rollout's, so the head reads the
    rollout's final hidden states as constants.
    """
    tape = pt["emb"].tape
    ppo_obj: Tensor | None = None
    ratio: Tensor | None = None
    if tcfg.joint:
        s = shared_prefix_length(record.ids[:, : record.prefix_len])
        start = record.prefix_len - 1  # where the first generated token is predicted from
        window = (start, record.ids.shape[1] - start)
        hidden = forward_hidden_tape(pt, record.ids, pcfg, shared=s, window=window)
        advantage = float(record.rewards.mean())
        lp_live = sequence_log_probs_tape(pt, hidden, record.ids, record.rows, record.positions, start)
        ratio = ad.exp(ad.add(lp_live, tape.constant(-record.logprobs_old)))
        unclipped = ad.scale(ratio, advantage)
        clipped = ad.scale(ad.clip(ratio, 1.0 - tcfg.epsilon, 1.0 + tcfg.epsilon), advantage)
        ppo_obj = ad.mean(ad.minimum(unclipped, clipped))
        finals = gather_positions_tape(hidden, np.arange(record.ids.shape[0]), record.final_positions - start)
    else:
        finals = tape.constant(np.stack([r.final_hidden for r in record.rationales]))
    scores_rows = head_score_tape(pt, finals)
    scores_pres = ad.index_select(scores_rows, record.row_of_slot)
    head_obj = ranking_objective(scores_pres, record.rankings, record.rewards, tcfg.baseline)
    return ppo_obj, head_obj, None if ratio is None else ratio.data


@dataclass
class RlStepStats:
    """One RL step. The objectives and gradient norms are the first inner
    epoch's, at the rollout weights. The ratio columns are the last inner
    epoch's, after the updates before it: at the first epoch the ratio is 1
    up to rounding, so its clip fraction would read 0 on any run."""

    step: int
    mean_reward: float
    ppo_obj: float
    head_obj: float
    grad_norm_theta: float
    grad_norm_phi: float
    clip_frac: float        # share of tokens whose ratio lies outside [1 - eps, 1 + eps]
    approx_kl: float        # mean of r - 1 - log r, an estimate of KL(sampling || live)
    ratio_max: float
    gen_len_mean: float     # mean sampled rationale length, in tokens
    truncation_rate: float  # share of rationales cut at max_gen
    decision_acc: float     # share of rationales whose decision is the candidate's relevance
    score_std: float        # std of a slate's head scores, averaged over the step's slates
    wallclock_ms: float = 0.0  # stays last: A10 drops the last metrics column


# SFT rows fill the step, stage and the columns they have, and leave the rest empty.
METRICS_COLUMNS = ("step", "stage", *(f.name for f in fields(RlStepStats)[1:]))


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
        ratios = []
        for record in records:
            ppo_obj, head_obj, ratio = instance_objectives(pt, record, tcfg, pcfg)
            if ratio is not None:
                ratios.append(ratio)
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
    ratio = np.concatenate(ratios) if ratios else np.ones(1)  # a frozen policy keeps ratio 1
    rats = [r for record in records for r in record.rationales]
    stats = RlStepStats(
        step=step,
        mean_reward=float(np.mean([r.rewards.mean() for r in records])),
        ppo_obj=first_ppo,
        head_obj=first_head,
        grad_norm_theta=first_theta,
        grad_norm_phi=first_phi,
        clip_frac=float(np.mean(np.abs(ratio - 1.0) > tcfg.epsilon)),
        approx_kl=float(np.mean(ratio - 1.0 - np.log(ratio))),
        ratio_max=float(ratio.max()),
        gen_len_mean=float(np.mean([r.tokens.size for r in rats])),
        truncation_rate=float(np.mean([r.truncated for r in rats])),
        decision_acc=float(np.mean([
            record.rationales[row].decision(vocab) == rel
            for record in records
            for row, rel in zip(record.row_of_slot, record.instance.relevance)
        ])),
        score_std=float(np.mean([np.std(record.scores) for record in records])),
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
    return rows
