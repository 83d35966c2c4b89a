"""Synthetic recommendation world with exactly recomputable ground truth.

Users and items live in a shared latent cube; interactions are simulated from
popularity-weighted exposure plus latent affinity; every instance carries one
held-out positive and sampled negatives. All randomness flows through keyed
substreams, so any slice of the construction can be recomputed independently
and bit-exactly (which the protocol-fidelity tests exploit).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError, DataFormatError
from .rng import KeyedStreams

SPLITS = ("train", "valid", "test")
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for the synthetic world; defaults give the desk-scale protocol."""

    n_users: int = 2000
    n_items: int = 1000
    m: int = 8                      # latent dimensions
    buckets: int = 4                # equal-width buckets per dimension
    zipf_s: float = 1.1             # popularity exponent
    exposure_pool: int = 256        # popularity-sampled exposure pool size per user
    relevance_q: float = 0.10       # top fraction of the pool that counts as relevant
    history_geom_p: float = 0.3     # geometric parameter for target history length

    def validate(self) -> None:
        if self.n_users < 1 or self.n_items < 2:
            raise ConfigError("world needs n_users >= 1 and n_items >= 2")
        if self.m < 1 or self.buckets < 2:
            raise ConfigError("world needs m >= 1 and buckets >= 2")
        if not 0.0 < self.relevance_q < 1.0:
            raise ConfigError(f"relevance_q must be in (0, 1), got {self.relevance_q}")
        if not 0.0 < self.history_geom_p <= 1.0:
            raise ConfigError(f"history_geom_p must be in (0, 1], got {self.history_geom_p}")
        if self.exposure_pool > self.n_items:
            raise ConfigError("exposure_pool cannot exceed n_items")


@dataclass(frozen=True)
class HistoryEvent:
    item_id: str
    tokens: tuple[int, ...]  # bucket index per latent dimension
    t: int                   # event time, ascending within a history


@dataclass(frozen=True)
class UserContext:
    user_id: str
    profile_tokens: tuple[int, ...]
    history: tuple[HistoryEvent, ...]


@dataclass(frozen=True)
class CandidateItem:
    item_id: str
    tokens: tuple[int, ...]
    train_frequency: int  # appearances as a training positive


@dataclass(frozen=True)
class RankingInstance:
    instance_id: str
    ctx: UserContext
    candidates: tuple[CandidateItem, ...]
    relevance: tuple[int, ...]

    def positive_index(self) -> int:
        return int(np.argmax(self.relevance))


@dataclass(frozen=True)
class SftExample:
    instance_id: str
    item_id: str
    prefix: np.ndarray        # serialized context, vocab ids
    target: np.ndarray        # rationale tokens, vocab ids, ends with (decision, EOS)
    ground_truth: int         # 1 if the candidate is relevant
    teacher_decision: int     # 1 if the teacher said recommend


@dataclass
class BuildStats:
    built: int = 0
    skipped_no_positive: int = 0
    skipped_few_negatives: int = 0


@dataclass
class CorpusStats:
    kept: int = 0
    rejected: int = 0
    kept_positive: int = 0


@dataclass
class World:
    cfg: WorldConfig
    seed: int
    user_latents: np.ndarray    # (n_users, m) in (-1, 1)
    item_latents: np.ndarray    # (n_items, m) in (-1, 1)
    item_buckets: np.ndarray    # (n_items, m) ints in [0, buckets)
    popularity: np.ndarray      # (n_items,) Zipf weights, sums to 1

    def item_id(self, idx: int) -> str:
        return f"i{int(idx)}"

    def user_id(self, idx: int) -> str:
        return f"u{int(idx)}"


def bucketize(values: np.ndarray, buckets: int) -> np.ndarray:
    """Equal-width bucket index over (-1, 1); the boundary 0 lands in bucket B/2."""
    idx = np.floor((values + 1.0) * 0.5 * buckets).astype(np.int64)
    return np.clip(idx, 0, buckets - 1)


def bucket_centers(bucket_idx: np.ndarray, buckets: int) -> np.ndarray:
    """Midpoint of each bucket, mapping tokens back into (-1, 1)."""
    return (bucket_idx + 0.5) * (2.0 / buckets) - 1.0


def generate_world(cfg: WorldConfig, seed: int) -> World:
    cfg.validate()
    streams = KeyedStreams(seed)
    user_latents = streams.stream("world", "user_latents").uniform(-1.0, 1.0, (cfg.n_users, cfg.m))
    item_latents = streams.stream("world", "item_latents").uniform(-1.0, 1.0, (cfg.n_items, cfg.m))
    item_buckets = bucketize(item_latents, cfg.buckets)
    rank_of_item = streams.stream("world", "popularity").permutation(cfg.n_items) + 1
    weights = rank_of_item.astype(np.float64) ** (-cfg.zipf_s)
    return World(
        cfg=cfg,
        seed=seed,
        user_latents=user_latents,
        item_latents=item_latents,
        item_buckets=item_buckets,
        popularity=weights / weights.sum(),
    )


def split_of_user(seed: int, user_index: int) -> str:
    """Stable 8:1:1 assignment from a seeded hash of the user id."""
    h = hashlib.sha256(f"{seed}:split:u{user_index}".encode("ascii")).digest()
    bucket = int.from_bytes(h[:8], "little") % 10
    if bucket < 8:
        return "train"
    return "valid" if bucket == 8 else "test"


def _affinity(world: World, user_index: int, item_indices: np.ndarray) -> np.ndarray:
    """Per-item affinity of the bucket centers, scaled by 1/sqrt(m)."""
    cfg = world.cfg
    z = bucket_centers(bucketize(world.user_latents[user_index], cfg.buckets), cfg.buckets)
    w = bucket_centers(world.item_buckets[item_indices], cfg.buckets)
    return w @ z / np.sqrt(cfg.m)


@dataclass(frozen=True)
class UserEvents:
    """Deterministic interaction derivation for one user."""

    pool: np.ndarray           # exposure pool item indices
    relevant: np.ndarray       # relevant item indices, descending affinity
    positives: np.ndarray      # relevant items in simulated chronological order
    affinities: np.ndarray     # affinity per pool entry


def user_events(world: World, user_index: int) -> UserEvents:
    cfg = world.cfg
    streams = KeyedStreams(world.seed)
    pool = np.sort(
        streams.stream("exposure", user_index).choice(
            cfg.n_items, size=cfg.exposure_pool, replace=False, p=world.popularity
        )
    )
    dots = _affinity(world, user_index, pool)
    n_rel = max(1, int(np.ceil(cfg.relevance_q * pool.size)))
    order = np.lexsort((pool, -dots))  # affinity descending, item index breaks ties
    relevant = pool[order[:n_rel]]
    chronology = streams.stream("stream", user_index).permutation(n_rel)
    return UserEvents(
        pool=pool,
        relevant=relevant,
        positives=relevant[chronology],
        affinities=dots,
    )


def _positive_for_user(world: World, user_index: int) -> int:
    return int(user_events(world, user_index).positives[-1])


def train_positive_counts(world: World) -> np.ndarray:
    """How often each item is a training positive; drives cold-start strata."""
    counts = np.zeros(world.cfg.n_items, dtype=np.int64)
    for uidx in range(world.cfg.n_users):
        if split_of_user(world.seed, uidx) == "train":
            counts[_positive_for_user(world, uidx)] += 1
    return counts


def build_instances(
    world: World,
    split: str,
    K: int = 20,
    L: int = 20,
    train_counts: np.ndarray | None = None,
) -> tuple[list[RankingInstance], BuildStats]:
    """One ranking instance per eligible user of the split.

    Each instance: the user's most recent positive held out as the single
    relevant candidate, K-1 negatives sampled by popularity from the
    non-relevant exposure pool, presentation order shuffled per instance.
    """
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    cfg = world.cfg
    if K < 2 or K > cfg.n_items:
        raise ConfigError(f"K must be in [2, n_items], got {K}")
    if L < 0:
        raise ConfigError(f"L must be >= 0, got {L}")
    if train_counts is None:
        train_counts = train_positive_counts(world)
    streams = KeyedStreams(world.seed)
    stats = BuildStats()
    instances: list[RankingInstance] = []
    for uidx in range(cfg.n_users):
        if split_of_user(world.seed, uidx) != split:
            continue
        events = user_events(world, uidx)
        if events.positives.size == 0:
            stats.skipped_no_positive += 1
            continue
        positive = int(events.positives[-1])
        earlier = events.positives[:-1]
        target_len = int(streams.stream("histlen", uidx).geometric(cfg.history_geom_p))
        hist_len = min(L, earlier.size, target_len)
        hist_items = earlier[earlier.size - hist_len :]
        relevant_set = set(int(i) for i in events.relevant)
        non_relevant = np.array([i for i in events.pool if int(i) not in relevant_set])
        if non_relevant.size < K - 1:
            stats.skipped_few_negatives += 1
            continue
        w = world.popularity[non_relevant]
        negatives = streams.stream("negatives", uidx).choice(
            non_relevant, size=K - 1, replace=False, p=w / w.sum()
        )
        slate = np.concatenate(([positive], negatives))
        grades = np.zeros(K, dtype=np.int64)
        grades[0] = 1
        present = streams.stream("present", uidx).permutation(K)
        slate, grades = slate[present], grades[present]
        history = tuple(
            HistoryEvent(
                item_id=world.item_id(i),
                tokens=tuple(int(b) for b in world.item_buckets[i]),
                t=t,
            )
            for t, i in enumerate(hist_items)
        )
        ctx = UserContext(
            user_id=world.user_id(uidx),
            profile_tokens=tuple(
                int(b) for b in bucketize(world.user_latents[uidx], cfg.buckets)
            ),
            history=history,
        )
        candidates = tuple(
            CandidateItem(
                item_id=world.item_id(i),
                tokens=tuple(int(b) for b in world.item_buckets[i]),
                train_frequency=int(train_counts[i]),
            )
            for i in slate
        )
        instances.append(
            RankingInstance(
                instance_id=f"u{uidx}",
                ctx=ctx,
                candidates=candidates,
                relevance=tuple(int(g) for g in grades),
            )
        )
        stats.built += 1
    return instances, stats


def oracle_teacher(
    ctx: UserContext,
    item: CandidateItem,
    ground_truth: int,
    noise_rate: float,
    rng: np.random.Generator,
    vocab,
    selfcheck_k: int = 2,
) -> SftExample:
    """Template rationale: shared attributes, largest disagreements, decision.

    The reasoning section lists the candidate's attribute tokens that any
    history item shares; the self-check section revisits the worst-matching
    dimensions; the conclusion is the ground-truth decision flipped with
    probability noise_rate.
    """
    m = len(item.tokens)
    hist = np.array([ev.tokens for ev in ctx.history], dtype=np.int64).reshape(-1, m)
    cand = np.asarray(item.tokens, dtype=np.int64)
    if hist.shape[0]:
        shared_mask = (hist == cand[None, :]).any(axis=0)
        disagreement = np.abs(hist - cand[None, :]).min(axis=0)
    else:
        shared_mask = np.zeros(m, dtype=bool)
        disagreement = np.full(m, vocab.buckets, dtype=np.int64)
    target = [vocab.SEC_REASON]
    target.extend(vocab.attr(d, item.tokens[d]) for d in range(m) if shared_mask[d])
    target.append(vocab.SEC_SELFCHECK)
    unshared = [d for d in range(m) if not shared_mask[d]]
    unshared.sort(key=lambda d: (-int(disagreement[d]), d))
    target.extend(vocab.attr(d, item.tokens[d]) for d in unshared[:selfcheck_k])
    target.append(vocab.SEC_CONCLUDE)
    decision = int(ground_truth)
    if noise_rate > 0.0 and rng.random() < noise_rate:
        decision = 1 - decision
    target.append(vocab.RECOMMEND if decision else vocab.NOT_RECOMMEND)
    target.append(vocab.EOS)
    return SftExample(
        instance_id="",
        item_id=item.item_id,
        prefix=np.empty(0, dtype=np.int32),
        target=np.asarray(target, dtype=np.int32),
        ground_truth=int(ground_truth),
        teacher_decision=decision,
    )


def build_sft_corpus(
    instances,
    noise_rate: float,
    seed: int,
    vocab,
    serialize_fn,
    selfcheck_k: int = 2,
) -> tuple[list[SftExample], CorpusStats]:
    """Teacher every (instance, candidate) pair, keeping only correct decisions."""
    streams = KeyedStreams(seed)
    stats = CorpusStats()
    kept: list[SftExample] = []
    for inst in instances:
        for slot, item in enumerate(inst.candidates):
            rng = streams.stream("teacher", inst.instance_id, item.item_id)
            example = oracle_teacher(
                inst.ctx, item, inst.relevance[slot], noise_rate, rng, vocab, selfcheck_k
            )
            if example.teacher_decision != example.ground_truth:
                stats.rejected += 1
                continue
            stats.kept += 1
            stats.kept_positive += example.ground_truth
            kept.append(
                SftExample(
                    instance_id=inst.instance_id,
                    item_id=item.item_id,
                    prefix=np.asarray(serialize_fn(inst.ctx, item), dtype=np.int32),
                    target=example.target,
                    ground_truth=example.ground_truth,
                    teacher_decision=example.teacher_decision,
                )
            )
    return kept, stats


def save_instances_jsonl(path, instances, meta: dict | None = None) -> None:
    header = {"schema": SCHEMA_VERSION, "kind": "instances", "count": len(instances)}
    header.update(meta or {})
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for inst in instances:
            record = {
                "instance_id": inst.instance_id,
                "user": {
                    "id": inst.ctx.user_id,
                    "profile_tokens": list(inst.ctx.profile_tokens),
                    "history": [
                        {"item_id": ev.item_id, "tokens": list(ev.tokens), "t": ev.t}
                        for ev in inst.ctx.history
                    ],
                },
                "candidates": [
                    {
                        "item_id": c.item_id,
                        "tokens": list(c.tokens),
                        "train_frequency": c.train_frequency,
                    }
                    for c in inst.candidates
                ],
                "relevance": list(inst.relevance),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _require(record: dict, key: str, line: int):
    if key not in record:
        raise DataFormatError(f"line {line}: missing field {key!r}")
    return record[key]


def load_instances_jsonl(path) -> tuple[list[RankingInstance], dict]:
    """Parse and validate an instance file; errors name the offending line."""
    instances: list[RankingInstance] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise DataFormatError("line 1: missing schema header")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"line 1: invalid JSON header: {exc}") from exc
        if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
            raise DataFormatError(
                f"line 1: expected header with schema={SCHEMA_VERSION}, got {first.strip()[:80]}"
            )
        for line_no, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
            iid = _require(rec, "instance_id", line_no)
            if iid in seen:
                raise DataFormatError(f"line {line_no}: duplicate instance_id {iid!r}")
            seen.add(iid)
            user = _require(rec, "user", line_no)
            cands = _require(rec, "candidates", line_no)
            rel = _require(rec, "relevance", line_no)
            if len(cands) < 2:
                raise DataFormatError(f"line {line_no}: need at least 2 candidates")
            if len(rel) != len(cands):
                raise DataFormatError(
                    f"line {line_no}: relevance length {len(rel)} != candidates {len(cands)}"
                )
            m = len(_require(user, "profile_tokens", line_no))
            history = []
            for ev in _require(user, "history", line_no):
                tokens = _require(ev, "tokens", line_no)
                if len(tokens) != m:
                    raise DataFormatError(
                        f"line {line_no}: history tokens length {len(tokens)} != m={m}"
                    )
                history.append(
                    HistoryEvent(
                        item_id=_require(ev, "item_id", line_no),
                        tokens=tuple(int(t) for t in tokens),
                        t=int(_require(ev, "t", line_no)),
                    )
                )
            candidates = []
            for c in cands:
                tokens = _require(c, "tokens", line_no)
                if len(tokens) != m:
                    raise DataFormatError(
                        f"line {line_no}: candidate tokens length {len(tokens)} != m={m}"
                    )
                candidates.append(
                    CandidateItem(
                        item_id=_require(c, "item_id", line_no),
                        tokens=tuple(int(t) for t in tokens),
                        train_frequency=int(_require(c, "train_frequency", line_no)),
                    )
                )
            instances.append(
                RankingInstance(
                    instance_id=iid,
                    ctx=UserContext(
                        user_id=_require(user, "id", line_no),
                        profile_tokens=tuple(int(t) for t in user["profile_tokens"]),
                        history=tuple(history),
                    ),
                    candidates=tuple(candidates),
                    relevance=tuple(int(g) for g in rel),
                )
            )
    return instances, header


def save_sft_jsonl(path, examples: list[SftExample], meta: dict | None = None) -> None:
    header = {"schema": SCHEMA_VERSION, "kind": "sft", "count": len(examples)}
    header.update(meta or {})
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ex in examples:
            fh.write(
                json.dumps(
                    {
                        "instance_id": ex.instance_id,
                        "item_id": ex.item_id,
                        "prefix": ex.prefix.tolist(),
                        "target": ex.target.tolist(),
                        "ground_truth": ex.ground_truth,
                        "teacher_decision": ex.teacher_decision,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_sft_jsonl(path) -> tuple[list[SftExample], dict]:
    examples: list[SftExample] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"line 1: invalid JSON header: {exc}") from exc
        if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
            raise DataFormatError(f"line 1: expected header with schema={SCHEMA_VERSION}")
        for line_no, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
            examples.append(
                SftExample(
                    instance_id=_require(rec, "instance_id", line_no),
                    item_id=_require(rec, "item_id", line_no),
                    prefix=np.asarray(_require(rec, "prefix", line_no), dtype=np.int32),
                    target=np.asarray(_require(rec, "target", line_no), dtype=np.int32),
                    ground_truth=int(_require(rec, "ground_truth", line_no)),
                    teacher_decision=int(_require(rec, "teacher_decision", line_no)),
                )
            )
    return examples, header
