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
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError, DataFormatError
from .rng import KeyedStreams, first_randoms

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


@dataclass(frozen=True, slots=True)
class HistoryEvent:
    item_id: str
    tokens: tuple[int, ...]  # bucket index per latent dimension
    t: int                   # event time, ascending within a history


@dataclass(frozen=True, slots=True)
class UserContext:
    user_id: str
    profile_tokens: tuple[int, ...]
    history: tuple[HistoryEvent, ...]


@dataclass(frozen=True, slots=True)
class CandidateItem:
    item_id: str
    tokens: tuple[int, ...]
    train_frequency: int  # appearances as a training positive


@dataclass(frozen=True, slots=True)
class RankingInstance:
    instance_id: str
    ctx: UserContext
    candidates: tuple[CandidateItem, ...]
    relevance: tuple[int, ...]

    def positive_index(self) -> int:
        return int(np.argmax(self.relevance))


@dataclass(frozen=True, slots=True)
class SftExample:
    instance_id: str
    item_id: str
    prefix: np.ndarray        # serialized context, vocab ids
    target: np.ndarray        # rationale tokens, vocab ids, ends with (decision, EOS)
    ground_truth: int         # 1 if the candidate is relevant
    teacher_decision: int     # 1 if the teacher said recommend


@dataclass
class BuildStats:
    skipped_no_positive: int = 0
    skipped_few_negatives: int = 0


@dataclass
class CorpusStats:
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
    # Each train user's (pool, positives) from the last `train_positive_counts`,
    # until the next `build_instances` takes them; see there.
    train_events: dict[int, tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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


def train_positive_counts(world: World) -> np.ndarray:
    """How often each item is a training positive; drives cold-start strata.

    Each train user's exposure pool and positives, what `build_instances`
    reads of their events, stay on the world as read-only int16 arrays (int32
    past 32,768 items) until the next `build_instances` call on it takes them.
    """
    cfg = world.cfg
    dtype = np.int16 if cfg.n_items <= 2**15 else np.int32
    counts = np.zeros(cfg.n_items, dtype=np.int64)
    kept = {}
    for uidx in range(cfg.n_users):
        if split_of_user(world.seed, uidx) == "train":
            events = user_events(world, uidx)
            counts[int(events.positives[-1])] += 1
            kept[uidx] = (_frozen(events.pool, dtype), _frozen(events.positives, dtype))
    world.train_events = kept
    return counts


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    out = values.astype(dtype)
    out.flags.writeable = False
    return out


def build_instances(
    world: World,
    split: str,
    K: int,
    L: int,
    train_counts: np.ndarray,
) -> tuple[list[RankingInstance], BuildStats]:
    """One ranking instance per eligible user of the split.

    Each instance: the user's most recent positive held out as the single
    relevant candidate, K-1 negatives sampled by popularity from the
    non-relevant exposure pool, presentation order shuffled per instance.
    Each candidate's train frequency is read from `train_counts`, as
    `train_positive_counts` returns them.

    The events that the last `train_positive_counts` on this world kept are
    taken off it, whatever the split, and used for this split's users; every
    other user's are derived by `user_events`.
    """
    kept, world.train_events = world.train_events or {}, None
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    cfg = world.cfg
    if K < 2 or K > cfg.n_items:
        raise ConfigError(f"K must be in [2, n_items], got {K}")
    if L < 0:
        raise ConfigError(f"L must be >= 0, got {L}")
    streams = KeyedStreams(world.seed)
    stats = BuildStats()
    instances: list[RankingInstance] = []
    # Token tuples and ids are built once here, and every event of the same
    # item shares them; every slate shares the item's one candidate.
    item_ids = [world.item_id(i) for i in range(cfg.n_items)]
    item_tokens = [tuple(row) for row in world.item_buckets.tolist()]
    item_candidates = [
        CandidateItem(item_id=item_ids[i], tokens=item_tokens[i], train_frequency=count)
        for i, count in enumerate(train_counts.tolist())
    ]
    profiles = bucketize(world.user_latents, cfg.buckets).tolist()
    for uidx in range(cfg.n_users):
        if split_of_user(world.seed, uidx) != split:
            continue
        if uidx in kept:
            pool, positives = kept[uidx]
        else:
            events = user_events(world, uidx)
            pool, positives = events.pool, events.positives
        if positives.size == 0:
            stats.skipped_no_positive += 1
            continue
        positive = int(positives[-1])
        earlier = positives[:-1]
        target_len = int(streams.stream("histlen", uidx).geometric(cfg.history_geom_p))
        hist_len = min(L, earlier.size, target_len)
        hist_items = earlier[earlier.size - hist_len :]
        # the positives are the relevant items in another order
        non_relevant = pool[~np.isin(pool, positives)]
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
            HistoryEvent(item_id=item_ids[i], tokens=item_tokens[i], t=t)
            for t, i in enumerate(hist_items.tolist())
        )
        ctx = UserContext(
            user_id=world.user_id(uidx),
            profile_tokens=tuple(profiles[uidx]),
            history=history,
        )
        instances.append(
            RankingInstance(
                instance_id=f"u{uidx}",
                ctx=ctx,
                candidates=tuple(item_candidates[i] for i in slate.tolist()),
                relevance=tuple(grades.tolist()),
            )
        )
    return instances, stats


def history_array(ctx: UserContext, m: int) -> np.ndarray:
    """(H, m) bucket array of the user's history events, oldest first."""
    return np.array([ev.tokens for ev in ctx.history], dtype=np.int64).reshape(-1, m)


def teacher_targets(
    hist: np.ndarray,
    cand: np.ndarray,
    decisions: np.ndarray,
    vocab,
    selfcheck_k: int,
) -> list[np.ndarray]:
    """Template rationales for the (K, m) candidates `cand` against one (H, m) history.

    Row k's reasoning section lists the attribute tokens of candidate k that
    any history item shares, by dimension; the self-check section revisits up
    to selfcheck_k unshared dimensions, by largest disagreement (distance to
    the nearest history bucket) and then by dimension; the conclusion is
    decisions[k], then EOS. Returns K int32 arrays.
    """
    n, m = cand.shape
    if hist.shape[0]:
        disagreement = np.abs(hist[None, :, :] - cand[:, None, :]).min(axis=1)
    else:
        disagreement = np.full((n, m), vocab.buckets, dtype=np.int64)
    shared = disagreement == 0
    # A stable sort by descending disagreement puts the unshared dimensions
    # first, ties by dimension; the shared ones (disagreement 0) come last.
    order = np.argsort(-disagreement, axis=1, kind="stable")[:, :selfcheck_k]
    n_check = np.minimum(m - shared.sum(axis=1), order.shape[1])
    attrs = vocab.attrs(cand)

    def column(token):
        return np.full((n, 1), token, dtype=np.int64)

    tokens = np.concatenate(
        [
            column(vocab.SEC_REASON),
            attrs,
            column(vocab.SEC_SELFCHECK),
            np.take_along_axis(attrs, order, axis=1),
            column(vocab.SEC_CONCLUDE),
            vocab.decision_token(decisions)[:, None],
            column(vocab.EOS),
        ],
        axis=1,
    )
    keep = np.ones(tokens.shape, dtype=bool)
    keep[:, 1 : m + 1] = shared
    keep[:, m + 2 : m + 2 + order.shape[1]] = np.arange(order.shape[1]) < n_check[:, None]
    ends = np.cumsum(keep.sum(axis=1))
    return np.split(tokens[keep].astype(np.int32), ends[:-1])


def build_sft_corpus(
    instances,
    noise_rate: float,
    seed: int,
    vocab,
    serialize_fn,
    selfcheck_k: int,
) -> tuple[list[SftExample], CorpusStats]:
    """Teacher every (instance, candidate) pair, keeping only correct decisions.

    Each pair's teacher decision is its ground truth, flipped when the first
    draw of the stream ("teacher", instance_id, item_id) falls below
    noise_rate. A flipped decision means the row is rejected, so the kept rows
    get their `teacher_targets` a slate at a time.
    """
    stats = CorpusStats()
    kept: list[SftExample] = []
    pairs = [("teacher", inst.instance_id, c.item_id) for inst in instances for c in inst.candidates]
    if noise_rate > 0.0:
        keep = first_randoms(seed, pairs) >= noise_rate
    else:
        keep = np.ones(len(pairs), dtype=bool)
    start = 0
    for inst in instances:
        n = len(inst.candidates)
        truth = np.asarray(inst.relevance, dtype=np.int64)
        rows = np.flatnonzero(keep[start : start + n])
        start += n
        stats.rejected += n - rows.size
        if not rows.size:
            continue
        cand = np.array([c.tokens for c in inst.candidates], dtype=np.int64)[rows]
        targets = teacher_targets(
            history_array(inst.ctx, cand.shape[1]), cand, truth[rows], vocab, selfcheck_k
        )
        for slot, target in zip(rows.tolist(), targets):
            item = inst.candidates[slot]
            decision = int(truth[slot])
            kept.append(
                SftExample(
                    instance_id=inst.instance_id,
                    item_id=item.item_id,
                    prefix=np.asarray(serialize_fn(inst.ctx, item), dtype=np.int32),
                    target=target,
                    ground_truth=decision,
                    teacher_decision=decision,
                )
            )
            stats.kept_positive += decision
    return kept, stats


def _write_jsonl(path, kind: str, records: list[dict], meta: dict) -> None:
    """The data-file format: a header line (schema, kind, count, then `meta`),
    then one JSON object per record, every object with sorted keys."""
    header = {"schema": SCHEMA_VERSION, "kind": kind, "count": len(records), **meta}
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for obj in (header, *records):
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_jsonl(path, kind: str, parse) -> tuple[list, dict]:
    """`parse` of every record of a `kind` file `_write_jsonl` wrote, and its header.

    Every fault is a DataFormatError "{path}: line N: ...": bytes that are not
    UTF-8, bad JSON, a wrong header, a missing field or one of the wrong type,
    any DataFormatError `parse` raises, and a record count other than the
    header's.
    """
    records = []
    line_no = 1
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
                raise DataFormatError(f"expected a header with schema={SCHEMA_VERSION}")
            if header.get("kind") != kind:
                raise DataFormatError(f"expected kind {kind!r}, got {header.get('kind')!r}")
            # decoded a line at a time, so a bad byte is reported at its own line
            # (a newline byte never occurs inside a UTF-8 character)
            for line_no, raw in enumerate(fh, start=2):
                if raw.strip():
                    records.append(parse(json.loads(raw.decode("utf-8"))))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        fault = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise DataFormatError(f"{path}: line {line_no}: {fault}") from exc
    if header.get("count") != len(records):
        raise DataFormatError(f"{path}: line 1: header count {header.get('count')} != {len(records)} records")
    return records, header


def save_instances_jsonl(path, instances, meta: dict) -> None:
    records = [
        {
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
                {"item_id": c.item_id, "tokens": list(c.tokens), "train_frequency": c.train_frequency}
                for c in inst.candidates
            ],
            "relevance": list(inst.relevance),
        }
        for inst in instances
    ]
    _write_jsonl(path, "instances", records, meta)


def load_instances_jsonl(path, vocab, max_history: int) -> tuple[list[RankingInstance], dict]:
    """Parse and validate an instance file; errors name the file and line.

    Every id must be a string and every grade 0 or 1. Every token run must
    have the `vocab`'s m tokens, each a bucket below its `buckets`, and no
    user may have more than `max_history` history events.
    """
    seen: set[str] = set()

    def ident(value, what) -> str:
        if not isinstance(value, str):
            raise DataFormatError(f"{what} {value!r} is not a string")
        return value

    def parse(rec) -> RankingInstance:
        iid, user, cands, rel = rec["instance_id"], rec["user"], rec["candidates"], rec["relevance"]
        ident(iid, "instance_id")
        if iid in seen:
            raise DataFormatError(f"duplicate instance_id {iid!r}")
        seen.add(iid)
        if len(cands) < 2:
            raise DataFormatError("need at least 2 candidates")
        if len(rel) != len(cands):
            raise DataFormatError(f"relevance length {len(rel)} != candidates {len(cands)}")
        grades = tuple(int(g) for g in rel)
        bad = [g for g in grades if g not in (0, 1)]
        if bad:
            raise DataFormatError(f"relevance grade {bad[0]} is not 0 or 1")

        def tokens(values, what):
            if len(values) != vocab.m:
                raise DataFormatError(f"{what} tokens length {len(values)} != m={vocab.m}")
            values = tuple(int(t) for t in values)
            if min(values) < 0 or max(values) >= vocab.buckets:
                bad = next(t for t in values if not 0 <= t < vocab.buckets)
                raise DataFormatError(f"{what} bucket {bad} out of range [0, {vocab.buckets})")
            return values

        profile = tokens(user["profile_tokens"], "profile")
        if len(user["history"]) > max_history:
            raise DataFormatError(f"history length {len(user['history'])} exceeds L={max_history}")
        history = tuple(
            HistoryEvent(
                item_id=ident(ev["item_id"], "history item_id"),
                tokens=tokens(ev["tokens"], "history"),
                t=int(ev["t"]),
            )
            for ev in user["history"]
        )
        candidates = tuple(
            CandidateItem(
                item_id=ident(c["item_id"], "candidate item_id"),
                tokens=tokens(c["tokens"], "candidate"),
                train_frequency=int(c["train_frequency"]),
            )
            for c in cands
        )
        return RankingInstance(
            instance_id=iid,
            ctx=UserContext(user_id=ident(user["id"], "user id"), profile_tokens=profile, history=history),
            candidates=candidates,
            relevance=grades,
        )

    return _read_jsonl(path, "instances", parse)


def save_sft_jsonl(path, examples: list[SftExample], meta: dict) -> None:
    records = [
        {
            "instance_id": ex.instance_id,
            "item_id": ex.item_id,
            "prefix": ex.prefix.tolist(),
            "target": ex.target.tolist(),
            "ground_truth": ex.ground_truth,
            "teacher_decision": ex.teacher_decision,
        }
        for ex in examples
    ]
    _write_jsonl(path, "sft", records, meta)


def _parse_sft(rec, vocab, max_len) -> SftExample:
    prefix, target = (np.asarray(rec[key], dtype=np.int32) for key in ("prefix", "target"))
    if prefix.ndim != 1 or target.ndim != 1:
        raise DataFormatError("prefix and target must be lists of token ids")
    if not prefix.size or not target.size:
        raise DataFormatError("prefix and target must not be empty")
    if prefix.size + target.size > max_len:
        raise DataFormatError(f"row length {prefix.size} + {target.size} exceeds max_len {max_len}")
    for what, ids in (("prefix", prefix), ("target", target)):
        bad = ids[(ids < 0) | (ids >= vocab.size)]
        if bad.size:
            raise DataFormatError(f"{what} token {bad[0]} out of range [0, {vocab.size})")
    ground_truth, decision = int(rec["ground_truth"]), int(rec["teacher_decision"])
    if ground_truth not in (0, 1) or decision not in (0, 1):
        raise DataFormatError(f"ground_truth {ground_truth} and teacher_decision {decision} must be 0 or 1")
    return SftExample(
        instance_id=rec["instance_id"],
        item_id=rec["item_id"],
        prefix=prefix,
        target=target,
        ground_truth=ground_truth,
        teacher_decision=decision,
    )


def load_sft_jsonl(path, vocab, max_len: int) -> tuple[list[SftExample], dict]:
    """Parse and validate a teacher corpus: every token must be one of the
    `vocab`'s ids, and no row's prefix and target together may be longer than
    `max_len`."""
    return _read_jsonl(path, "sft", lambda rec: _parse_sft(rec, vocab, max_len))
