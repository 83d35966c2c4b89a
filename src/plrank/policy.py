"""Toy rationale policy: a small causal decoder plus a scoring head.

The decoder vocabulary is purely structural (section markers, decision tokens,
attribute tokens), contexts are serialized as attribute token runs, and the
scoring head maps the final generated token's last-layer hidden state to a raw
ranking score. Each layer's math is written once, in the fused autodiff ops
`linear` and `causal_attention`. Training runs them on the tape; sampling
calls their plain-numpy forwards, either over a whole prefix or one token at
a time against cached keys and values. A teacher-forced re-evaluation test
pins the two paths together.
"""
from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import plrank.autodiff as ad
from .atomic import atomic_write
from .autodiff import (
    NEG_MASK,
    Tape,
    Tensor,
    attention_forward,
    linear_forward,
    merge_heads,
    split_heads,
)
from .errors import ConfigError, ContractViolation, DataFormatError
from .world import CandidateItem, UserContext

CHECKPOINT_MAGIC = b"PLRK"
CHECKPOINT_VERSION = 1


class Vocab:
    """Structural tokens, decision tokens, and one token per (dim, bucket)."""

    BOS = 0
    EOS = 1
    SEP = 2
    SEC_REASON = 3
    SEC_SELFCHECK = 4
    SEC_CONCLUDE = 5
    RECOMMEND = 6
    NOT_RECOMMEND = 7
    _BASE = 8

    def __init__(self, m: int, buckets: int):
        if m < 1 or buckets < 2:
            raise ConfigError("vocab needs m >= 1 and buckets >= 2")
        self.m = m
        self.buckets = buckets
        self.size = self._BASE + m * buckets

    def attr(self, dim: int, bucket: int) -> int:
        if not 0 <= dim < self.m:
            raise ContractViolation(f"attribute dim {dim} out of range [0, {self.m})")
        if not 0 <= bucket < self.buckets:
            raise ContractViolation(f"bucket {bucket} out of range [0, {self.buckets})")
        return self._BASE + dim * self.buckets + bucket

    def attr_parts(self, token: int) -> tuple[int, int] | None:
        if token < self._BASE or token >= self.size:
            return None
        rel = token - self._BASE
        return rel // self.buckets, rel % self.buckets

    def is_decision(self, token: int) -> bool:
        return token in (self.RECOMMEND, self.NOT_RECOMMEND)

    def decision_token(self, decision: int) -> int:
        return self.RECOMMEND if decision else self.NOT_RECOMMEND

    def decision_value(self, token: int) -> int | None:
        if token == self.RECOMMEND:
            return 1
        if token == self.NOT_RECOMMEND:
            return 0
        return None


@dataclass(frozen=True)
class ModelConfig:
    """Decoder and head sizes; attribute vocabulary comes from the world."""

    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    max_len: int = 256
    max_gen: int = 24
    head_hidden: int = 32
    init_std: float = 0.1

    def validate(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if min(self.d_model, self.n_layers, self.n_heads, self.d_ff, self.head_hidden) < 1:
            raise ConfigError("model dimensions must be positive")
        if self.max_gen < 2 or self.max_gen > self.max_len:
            raise ConfigError("need 2 <= max_gen <= max_len")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class PolicyConfig(ModelConfig):
    """Model sizes plus the world's attribute vocabulary shape."""

    m: int = field(kw_only=True)
    buckets: int = field(kw_only=True)

    def vocab(self) -> Vocab:
        return Vocab(self.m, self.buckets)


def serialize_context(ctx: UserContext, item: CandidateItem, vocab: Vocab) -> np.ndarray:
    """[profile attrs] [history attrs, SEP between events] SEP [candidate attrs] BOS."""
    if len(ctx.profile_tokens) != vocab.m or len(item.tokens) != vocab.m:
        raise ContractViolation(
            f"profile/candidate need exactly m={vocab.m} attribute tokens"
        )
    out: list[int] = [vocab.attr(d, b) for d, b in enumerate(ctx.profile_tokens)]
    for i, ev in enumerate(ctx.history):
        if len(ev.tokens) != vocab.m:
            raise ContractViolation(f"history event {i} needs m={vocab.m} attribute tokens")
        if i > 0:
            out.append(vocab.SEP)
        out.extend(vocab.attr(d, b) for d, b in enumerate(ev.tokens))
    out.append(vocab.SEP)
    out.extend(vocab.attr(d, b) for d, b in enumerate(item.tokens))
    out.append(vocab.BOS)
    return np.asarray(out, dtype=np.int64)


def prefix_length(m: int, history_len: int) -> int:
    """Length of `serialize_context`'s output for a history of `history_len` events."""
    return m * (history_len + 2) + max(history_len - 1, 0) + 2


def init_params(cfg: PolicyConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """All weights N(0, init_std), all biases zero."""
    cfg.validate()
    v = cfg.vocab().size
    d, ff, dh = cfg.d_model, cfg.d_ff, cfg.head_hidden
    std = cfg.init_std

    def w(*shape):
        return rng.normal(0.0, std, size=shape)

    params: dict[str, np.ndarray] = {
        "emb": w(v, d),
        "pos": w(cfg.max_len, d),
        "out.w": w(d, v),
        "out.b": np.zeros(v),
    }
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        for name in ("wq", "wk", "wv", "wo"):
            params[p + name] = w(d, d)
        for name in ("bq", "bk", "bv", "bo"):
            params[p + name] = np.zeros(d)
        params[p + "w1"] = w(d, ff)
        params[p + "b1"] = np.zeros(ff)
        params[p + "w2"] = w(ff, d)
        params[p + "b2"] = np.zeros(d)
    params["head.w1"] = w(d, dh)
    params["head.b1"] = np.zeros(dh)
    params["head.w2"] = w(dh, 1)
    params["head.b2"] = np.zeros(1)
    return params


def is_head_param(name: str) -> bool:
    return name.startswith("head.")


def clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


# ---------------------------------------------------------------------------
# Tape forward (training path)
# ---------------------------------------------------------------------------


def lift_params(
    tape: Tape,
    params: dict[str, np.ndarray],
    train_policy: bool = True,
    train_head: bool = True,
) -> dict[str, Tensor]:
    lifted = {}
    for name, arr in params.items():
        requires = train_head if is_head_param(name) else train_policy
        lifted[name] = tape.leaf(arr, requires_grad=requires)
    return lifted


def forward_hidden_tape(pt: dict[str, Tensor], ids: np.ndarray, cfg: PolicyConfig) -> Tensor:
    """Last-layer hidden states (B, T, d) for token ids (B, T)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ContractViolation(f"ids must be (B, T), got shape {ids.shape}")
    b, t = ids.shape
    if t > cfg.max_len:
        raise ContractViolation(f"sequence length {t} exceeds max_len {cfg.max_len}")
    d = cfg.d_model
    tok = ad.index_select(pt["emb"], ids)
    pos = ad.index_select(pt["pos"], np.arange(t))
    x = ad.add(tok, ad.broadcast_to(ad.reshape(pos, (1, t, d)), (b, t, d)))
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        q, k, v = (ad.linear(x, pt[p + "w" + n], pt[p + "b" + n]) for n in "qkv")
        merged = ad.causal_attention(q, k, v, cfg.n_heads)
        x = ad.add(x, ad.linear(merged, pt[p + "wo"], pt[p + "bo"]))
        inner = ad.relu(ad.linear(x, pt[p + "w1"], pt[p + "b1"]))
        x = ad.add(x, ad.linear(inner, pt[p + "w2"], pt[p + "b2"]))
    return x


def gather_positions_tape(x: Tensor, rows: np.ndarray, positions: np.ndarray) -> Tensor:
    """x (B, T, ...) -> (N, ...) picking (rows[i], positions[i])."""
    b, t = x.shape[0], x.shape[1]
    flat = ad.reshape(x, (b * t,) + tuple(x.shape[2:]))
    return ad.index_select(flat, rows * t + positions)


def sequence_log_probs_tape(
    pt: dict[str, Tensor],
    ids: np.ndarray,
    prefix_len: int,
    gen_len: int,
    cfg: PolicyConfig,
    hidden: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Teacher-forced log-probs of the generated span.

    Returns (log_probs (B, gen_len), hidden (B, T, d)). Positions past a
    row's actual generation are garbage and must be masked by the caller.
    """
    if hidden is None:
        hidden = forward_hidden_tape(pt, ids, cfg)
    b = ids.shape[0]
    v = cfg.vocab().size
    rows = np.repeat(np.arange(b), gen_len)
    pred_pos = np.tile(np.arange(prefix_len - 1, prefix_len - 1 + gen_len), b)
    picked = gather_positions_tape(hidden, rows, pred_pos)  # (B*gen_len, d)
    logits = ad.linear(picked, pt["out.w"], pt["out.b"])
    log_probs = ad.log_softmax(logits, axis=-1)
    targets = ids[rows, pred_pos + 1]
    onehot = np.zeros((b * gen_len, v))
    onehot[np.arange(b * gen_len), targets] = 1.0
    lp = ad.asum(ad.mul(log_probs, log_probs.tape.constant(onehot)), axis=-1)
    return ad.reshape(lp, (b, gen_len)), hidden


def head_score_tape(pt: dict[str, Tensor], hidden_vecs: Tensor) -> Tensor:
    """Scoring head on (N, d) hidden vectors -> (N,) raw scores."""
    inner = ad.tanh(ad.linear(hidden_vecs, pt["head.w1"], pt["head.b1"]))
    return ad.reshape(ad.linear(inner, pt["head.w2"], pt["head.b2"]), (hidden_vecs.shape[0],))


# ---------------------------------------------------------------------------
# Numpy forward (sampling path)
# ---------------------------------------------------------------------------


def _np_log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class DecodeState:
    """Per-layer attention inputs for already-processed positions."""

    def __init__(self, cfg: PolicyConfig, batch: int):
        self.length = 0
        self.keys = [
            np.empty((batch, cfg.n_heads, cfg.max_len, cfg.head_dim)) for _ in range(cfg.n_layers)
        ]
        self.values = [
            np.empty((batch, cfg.n_heads, cfg.max_len, cfg.head_dim)) for _ in range(cfg.n_layers)
        ]


def _np_layers(params, x: np.ndarray, cfg: PolicyConfig, state: DecodeState | None, start: int):
    """Every decoder layer over x (B, T, d) holding positions start..start+T-1.

    With a state, each layer writes its keys and values there and the queries
    attend to every cached position; without one, start must be 0.
    """
    t = x.shape[1]
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        q, k, v = (
            split_heads(linear_forward(x, params[p + "w" + n], params[p + "b" + n]), cfg.n_heads)
            for n in "qkv"
        )
        if state is not None:
            state.keys[i][:, :, start : start + t] = k
            state.values[i][:, :, start : start + t] = v
            k = state.keys[i][:, :, : start + t]
            v = state.values[i][:, :, : start + t]
        _, ctx = attention_forward(q, k, v)
        x = x + linear_forward(merge_heads(ctx), params[p + "wo"], params[p + "bo"])
        inner = np.maximum(linear_forward(x, params[p + "w1"], params[p + "b1"]), 0.0)
        x = x + linear_forward(inner, params[p + "w2"], params[p + "b2"])
    return x


def _np_forward(params, ids: np.ndarray, cfg: PolicyConfig, state: DecodeState | None = None):
    """Full-sequence numpy forward (prefill); optionally records attention state.

    Returns last-layer hidden states (B, T, d).
    """
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    t = ids.shape[1]
    if t > cfg.max_len:
        raise ContractViolation(f"sequence length {t} exceeds max_len {cfg.max_len}")
    x = _np_layers(params, params["emb"][ids] + params["pos"][:t], cfg, state, 0)
    if state is not None:
        state.length = t
    return x


def _np_decode_step(params, state: DecodeState, tokens: np.ndarray, cfg: PolicyConfig):
    """Process one new token per row; returns hidden (B, d) at the new position."""
    t = state.length
    if t + 1 > cfg.max_len:
        raise ContractViolation(f"decode past max_len {cfg.max_len}")
    x = params["emb"][tokens][:, None, :] + params["pos"][t]
    x = _np_layers(params, x, cfg, state, t)
    state.length = t + 1
    return x[:, 0]


@dataclass
class Rationale:
    """One generated rationale plus everything training needs to replay it."""

    tokens: np.ndarray          # (T_gen,) sampled tokens, ends with EOS unless truncated
    token_logprobs: np.ndarray  # (T_gen,) log-probs under the temperature-1 policy
    final_hidden: np.ndarray    # (d,) last-layer hidden at the last generated token
    truncated: bool

    def decision(self, vocab: Vocab) -> int | None:
        """The unique decision value, or None if absent/ambiguous."""
        found = [vocab.decision_value(int(t)) for t in self.tokens if vocab.is_decision(int(t))]
        if len(found) != 1:
            return None
        return found[0]


def generate(
    params: dict[str, np.ndarray],
    prefix: np.ndarray,
    rngs,
    cfg: PolicyConfig,
    vocab: Vocab,
    cot: bool = True,
) -> list[Rationale]:
    """Decode one rationale per prefix row, for at most `cfg.max_gen` tokens.

    `prefix` is (B, T_p) with a shared prefix length; `rngs` is one Generator
    per row to sample at temperature 1, or None to decode by argmax.
    Without `cot` a row may write one decision token, then only EOS.
    Recorded token log-probs are the temperature-1 policy's, which is what
    PPO ratios and teacher-forced re-evaluation use.
    """
    prefix = np.atleast_2d(np.asarray(prefix, dtype=np.int64))
    b, t_p = prefix.shape
    if t_p + cfg.max_gen > cfg.max_len:
        raise ContractViolation(
            f"prefix length {t_p} + max_gen {cfg.max_gen} exceeds max_len {cfg.max_len}"
        )
    if rngs is not None and len(rngs) != b:
        raise ContractViolation(f"need one rng per row, got {len(rngs)} for {b} rows")
    state = DecodeState(cfg, b)
    hidden = _np_forward(params, prefix, cfg, state=state)[:, -1, :]
    tokens = np.full((b, cfg.max_gen), vocab.EOS, dtype=np.int64)
    logprobs = np.zeros((b, cfg.max_gen))
    lengths = np.zeros(b, dtype=np.int64)
    final_hidden = np.zeros((b, cfg.d_model))
    active = np.ones(b, dtype=bool)
    decided = np.zeros(b, dtype=bool)
    for step in range(cfg.max_gen):
        logits = linear_forward(hidden, params["out.w"], params["out.b"])
        lp1 = _np_log_softmax(logits)
        masked = logits.copy()
        if not cot:
            allow = np.zeros((b, vocab.size), dtype=bool)
            allow[:, vocab.EOS] = True
            allow[~decided, vocab.RECOMMEND] = True
            allow[~decided, vocab.NOT_RECOMMEND] = True
            masked[~allow] = NEG_MASK
        rows = np.flatnonzero(active)
        chosen = np.full(b, vocab.EOS, dtype=np.int64)
        if rngs is None:
            chosen[rows] = np.argmax(masked[rows], axis=-1)
        else:
            z = masked - masked.max(axis=-1, keepdims=True)
            cdf = np.cumsum(np.exp(z), axis=-1)[rows]
            u = np.array([rngs[row].random() for row in rows]) * cdf[:, -1]
            chosen[rows] = np.minimum((cdf <= u[:, None]).sum(axis=-1), vocab.size - 1)
        tokens[rows, step] = chosen[rows]
        logprobs[rows, step] = lp1[rows, chosen[rows]]
        lengths[rows] = step + 1
        decided |= (chosen == vocab.RECOMMEND) | (chosen == vocab.NOT_RECOMMEND)
        hidden = _np_decode_step(params, state, chosen, cfg)
        done = active & ((chosen == vocab.EOS) | (step == cfg.max_gen - 1))
        final_hidden[done] = hidden[done]
        active &= ~done
        if not active.any():
            break
    truncated = tokens[np.arange(b), lengths - 1] != vocab.EOS
    return [
        Rationale(tokens[row, :n], logprobs[row, :n], final_hidden[row], bool(truncated[row]))
        for row, n in enumerate(lengths)
    ]


def decode_slate(
    params: dict[str, np.ndarray],
    ctx: UserContext,
    candidates: tuple[CandidateItem, ...],
    cfg: PolicyConfig,
    vocab: Vocab,
    cot: bool,
    rng_of: Callable[[str], np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Rationale], np.ndarray]:
    """One rationale and one head score per candidate of a slate.

    Rows are the candidates sorted by item id, so the arithmetic never sees
    the presentation order. Decoding is greedy when `rng_of` is None;
    otherwise each row samples at temperature 1 from `rng_of(item_id)`.
    Returns (prefix (K, P) in row order, the row of each presentation slot,
    rationales in row order, scores (K,) in presentation order).
    """
    k = len(candidates)
    canon = sorted(range(k), key=lambda s: candidates[s].item_id)
    row_of_slot = np.empty(k, dtype=np.int64)
    row_of_slot[canon] = np.arange(k)
    prefix = np.stack([serialize_context(ctx, candidates[s], vocab) for s in canon])
    rngs = None if rng_of is None else [rng_of(candidates[s].item_id) for s in canon]
    rats = generate(params, prefix, rngs, cfg, vocab, cot=cot)
    scores = score_hidden(params, np.stack([r.final_hidden for r in rats]))[row_of_slot]
    return prefix, row_of_slot, rats, scores


def token_log_probs(
    params: dict[str, np.ndarray],
    prefix: np.ndarray,
    tokens: np.ndarray,
    cfg: PolicyConfig,
) -> np.ndarray:
    """Teacher-forced temperature-1 log-probs of `tokens` given `prefix`."""
    prefix = np.asarray(prefix, dtype=np.int64).reshape(-1)
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    if tokens.size == 0:
        return np.zeros(0)
    ids = np.concatenate([prefix, tokens])[None, :]
    hidden = _np_forward(params, ids, cfg)
    positions = np.arange(prefix.size - 1, prefix.size - 1 + tokens.size)
    logits = linear_forward(hidden[0, positions], params["out.w"], params["out.b"])
    return _np_log_softmax(logits)[np.arange(tokens.size), tokens]


def score_hidden(params: dict[str, np.ndarray], hidden: np.ndarray) -> np.ndarray:
    inner = np.tanh(linear_forward(hidden, params["head.w1"], params["head.b1"]))
    return linear_forward(inner, params["head.w2"], params["head.b2"])[:, 0]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: dict[str, np.ndarray], config_hash: str, seed: int) -> None:
    """Binary format: magic, version, seed, config hash, named float64 tensors."""
    hash_bytes = config_hash.encode("ascii")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQI", CHECKPOINT_VERSION, seed, len(hash_bytes)))
        fh.write(hash_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype=np.float64)
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str, int]:
    def read(fh, n, what):
        data = fh.read(n)
        if len(data) != n:
            raise DataFormatError(f"checkpoint truncated while reading {what}")
        return data

    with open(path, "rb") as fh:
        if read(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise DataFormatError("not a checkpoint: bad magic")
        version, seed, hash_len = struct.unpack("<IQI", read(fh, 16, "header"))
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}")
        config_hash = read(fh, hash_len, "config hash").decode("ascii")
        (count,) = struct.unpack("<I", read(fh, 4, "tensor count"))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(fh, 4, "name length"))
            name = read(fh, name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", read(fh, 4, "rank"))
            shape = struct.unpack(f"<{rank}Q", read(fh, 8 * rank, "dims"))
            n_elem = int(np.prod(shape)) if rank else 1
            data = np.frombuffer(read(fh, 8 * n_elem, f"tensor {name}"), dtype="<f8")
            params[name] = data.reshape(shape).copy()
        if fh.read(1):
            raise DataFormatError("trailing bytes after final tensor")
    return params, config_hash, seed
