"""Toy rationale policy: a small causal decoder plus a scoring head.

The decoder vocabulary is purely structural (section markers, decision tokens,
attribute tokens), contexts are serialized as attribute token runs, and the
scoring head maps the final generated token's last-layer hidden state to a raw
ranking score. Each layer's math is written once, in the fused autodiff ops
`linear` and `causal_attention`. Training runs them on the tape; sampling
calls their plain-numpy forwards, either over a prefix or one token at a time
against cached keys and values. A teacher-forced re-evaluation test pins the
two paths together.

Both paths run the columns a batch's rows share (`shared_prefix_length`: a
slate's profile and history) once, at batch 1, then only each row's rest:
`generate` writes the shared keys and values into every row's cache, and
`forward_hidden_tape(..., shared=S)` lets the rows' suffixes attend to them
through `broadcast_to`. The tape's last layer runs its queries, attention
and MLP only at the columns a caller reads (`window`).
"""
from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable, Sequence
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
    log_softmax_forward,
    merge_heads,
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
        self._offsets = self._BASE + buckets * np.arange(m)

    def attr(self, dim: int, bucket: int) -> int:
        if not 0 <= dim < self.m:
            raise ContractViolation(f"attribute dim {dim} out of range [0, {self.m})")
        if not 0 <= bucket < self.buckets:
            raise ContractViolation(f"bucket {bucket} out of range [0, {self.buckets})")
        return self._BASE + dim * self.buckets + bucket

    def attrs(self, runs: Sequence[Sequence[int]]) -> np.ndarray:
        """`attr(d, b)` over an (N, m) array of buckets, dimension d by column."""
        buckets = np.asarray(runs, dtype=np.int64)
        if buckets.min() < 0 or buckets.max() >= self.buckets:
            bad = buckets[(buckets < 0) | (buckets >= self.buckets)][0]
            raise ContractViolation(f"bucket {bad} out of range [0, {self.buckets})")
        return self._offsets + buckets

    def decision_token(self, decisions) -> np.ndarray:
        """RECOMMEND where a decision is nonzero, NOT_RECOMMEND elsewhere."""
        return np.where(np.asarray(decisions) != 0, self.RECOMMEND, self.NOT_RECOMMEND)


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


def serialize_user(ctx: UserContext, vocab: Vocab) -> np.ndarray:
    """[profile attrs] [history attrs, SEP between events] SEP: how every row of a slate starts."""
    if len(ctx.profile_tokens) != vocab.m:
        raise ContractViolation(f"profile needs exactly m={vocab.m} attribute tokens")
    for i, ev in enumerate(ctx.history):
        if len(ev.tokens) != vocab.m:
            raise ContractViolation(f"history event {i} needs m={vocab.m} attribute tokens")
    runs = np.full((len(ctx.history) + 1, vocab.m + 1), vocab.SEP, dtype=np.int64)
    runs[:, :-1] = vocab.attrs([ctx.profile_tokens, *(ev.tokens for ev in ctx.history)])
    runs = runs.ravel()
    # Every run of m attributes ends in SEP, but the profile's only when no event follows it.
    return np.concatenate([runs[: vocab.m], runs[vocab.m + 1 :]]) if ctx.history else runs


def serialize_candidates(items: Sequence[CandidateItem], vocab: Vocab) -> np.ndarray:
    """(K, m + 1): each candidate's attrs then BOS, how its row ends."""
    for item in items:
        if len(item.tokens) != vocab.m:
            raise ContractViolation(f"candidate needs exactly m={vocab.m} attribute tokens")
    out = np.full((len(items), vocab.m + 1), vocab.BOS, dtype=np.int64)
    out[:, :-1] = vocab.attrs([item.tokens for item in items])
    return out


# (ctx, vocab, read-only serialize_user(ctx, vocab)) of the last serialize_context
# call. The references keep both objects alive, so their identity stays theirs.
_last_user: tuple = (None, None, None)


def serialize_context(ctx: UserContext, item: CandidateItem, vocab: Vocab) -> np.ndarray:
    """[profile attrs] [history attrs, SEP between events] SEP [candidate attrs] BOS.

    Called with the same `ctx` and `vocab` objects as the last call, as for a
    slate's candidates in turn, it reuses that call's user part. Every call
    returns a new array.
    """
    global _last_user
    last_ctx, last_vocab, user = _last_user
    if ctx is not last_ctx or vocab is not last_vocab:
        user = serialize_user(ctx, vocab)
        user.flags.writeable = False
        _last_user = (ctx, vocab, user)
    return np.concatenate([user, serialize_candidates((item,), vocab)[0]])


def prefix_length(m: int, history_len: int) -> int:
    """Length of `serialize_context`'s output for a history of `history_len` events."""
    return m * (history_len + 2) + max(history_len - 1, 0) + 2


def param_shapes(cfg: PolicyConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor of the model, name -> shape, in the order `init_params` draws them.

    The 2-d tensors are weights and the 1-d ones biases.
    """
    v = cfg.vocab().size
    d, ff, dh = cfg.d_model, cfg.d_ff, cfg.head_hidden
    shapes = {"emb": (v, d), "pos": (cfg.max_len, d), "out.w": (d, v), "out.b": (v,)}
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        shapes.update({p + name: (d, d) for name in ("wq", "wk", "wv", "wo")})
        shapes.update({p + name: (d,) for name in ("bq", "bk", "bv", "bo")})
        shapes.update({p + "w1": (d, ff), p + "b1": (ff,), p + "w2": (ff, d), p + "b2": (d,)})
    shapes.update({"head.w1": (d, dh), "head.b1": (dh,), "head.w2": (dh, 1), "head.b2": (1,)})
    return shapes


def init_params(cfg: PolicyConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """All weights N(0, init_std), drawn in `param_shapes` order; all biases zero."""
    cfg.validate()
    return {
        name: rng.normal(0.0, cfg.init_std, size=shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in param_shapes(cfg).items()
    }


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


def shared_prefix_length(prefix: np.ndarray) -> int:
    """Leading columns on which every row of `prefix` (B, T_p) agrees, capped at T_p - 1.

    The cap leaves every row at least its last prefix token to run itself. A
    single row shares nothing, so it runs whole.
    """
    if prefix.shape[0] < 2:
        return 0
    agree = (prefix == prefix[0]).all(axis=0)[:-1]
    return int(np.logical_and.accumulate(agree).sum())


def _tape_embed(pt: dict[str, Tensor], ids: np.ndarray, start: int, d: int) -> Tensor:
    """Token plus position embeddings (B, T, d) of ids (B, T) at positions start..start+T-1."""
    b, t = ids.shape
    tok = ad.index_select(pt["emb"], ids)
    pos = ad.index_select(pt["pos"], np.arange(start, start + t))
    return ad.add(tok, ad.broadcast_to(ad.reshape(pos, (1, t, d)), (b, t, d)))


def _tape_layer(
    pt: dict[str, Tensor], p: str, x: Tensor, q: Tensor, k: Tensor, v: Tensor, n_heads: int, positions=None
):
    """The rest of a decoder layer once its projections are made: attention, then the MLP."""
    attended = ad.causal_attention(q, k, v, n_heads, positions=positions)
    x = ad.add(x, ad.linear(attended, pt[p + "wo"], pt[p + "bo"]))
    inner = ad.relu(ad.linear(x, pt[p + "w1"], pt[p + "b1"]))
    return ad.add(x, ad.linear(inner, pt[p + "w2"], pt[p + "b2"]))


def forward_hidden_tape(
    pt: dict[str, Tensor], ids: np.ndarray, cfg: PolicyConfig, shared: int = 0, window=None
) -> Tensor:
    """Last-layer hidden states (B, T - shared, d) of columns shared..T-1 of ids (B, T).

    The first `shared` columns must be the same in every row. They run once,
    at batch 1; each layer hands their keys and values to the (B, T - shared)
    rest through `broadcast_to`, whose backward sums the rows' gradients. With
    `shared` = 0 every row runs whole.

    A `window` (starts, W) is the columns a caller reads: starts[b]..starts[b]
    + W - 1 of row b, all at or past `shared`, with `starts` one int for every
    row or (B,) ints. Every layer but the last runs all columns; the last
    projects keys and values at all of them, but queries, attention and the
    MLP only at the window's, and the result is (B, W, d). A window that ends
    at column T - 1 in every row is a plain slice whose queries are the last
    W positions; any other attends by each query's own position.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ContractViolation(f"ids must be (B, T), got shape {ids.shape}")
    b, t = ids.shape
    if t > cfg.max_len:
        raise ContractViolation(f"sequence length {t} exceeds max_len {cfg.max_len}")
    if not 0 <= shared < t or (ids[:, :shared] != ids[:1, :shared]).any():
        raise ContractViolation(f"the first {shared} of {t} columns are not shared by every row")
    positions = None
    if window is not None:
        starts, width = np.asarray(window[0]), window[1]
        if starts.ndim or starts + width < t:
            positions = np.broadcast_to(starts[..., None] + np.arange(width), (b, width))
    d = cfg.d_model
    x = _tape_embed(pt, ids[:, shared:], shared, d)
    xs = _tape_embed(pt, ids[:1, :shared], 0, d) if shared else None
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        last = i + 1 == cfg.n_layers
        xq = ad.column_window(x, starts - shared, width) if last and window is not None else x
        q = ad.linear(xq, pt[p + "wq"], pt[p + "bq"])
        k, v = (ad.linear(x, pt[p + "w" + n], pt[p + "b" + n]) for n in "kv")
        if xs is not None:
            # the last layer's shared rows feed no later keys or values, so need no queries;
            # qs is made before ks and vs: that order fixes how the backward sums the
            # shared rows' gradient, and the RL weights are pinned bit for bit
            qs = None if last else ad.linear(xs, pt[p + "wq"], pt[p + "bq"])
            ks, vs = (ad.linear(xs, pt[p + "w" + n], pt[p + "b" + n]) for n in "kv")
            k, v = (
                ad.concat([ad.broadcast_to(zs, (b, shared, d)), z], axis=1) for zs, z in ((ks, k), (vs, v))
            )
            xs = None if last else _tape_layer(pt, p, xs, qs, ks, vs, cfg.n_heads)
        x = _tape_layer(pt, p, xq, q, k, v, cfg.n_heads, positions if last else None)
    return x


def gather_positions_tape(x: Tensor, rows: np.ndarray, positions: np.ndarray) -> Tensor:
    """x (B, T, ...) -> (N, ...) picking (rows[i], positions[i])."""
    b, t = x.shape[0], x.shape[1]
    flat = ad.reshape(x, (b * t,) + tuple(x.shape[2:]))
    return ad.index_select(flat, rows * t + positions)


def pack_rows(prefixes, continuations, eos: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teacher-forced layout of ragged prefix + continuation rows.

    Returns ids (B, T), each row's prefix then its continuation, padded with
    `eos` to the longest row, plus rows and positions (N,) over the N
    continuation tokens in row order: token j is ids[rows[j], positions[j] + 1]
    and is predicted from the hidden state at (rows[j], positions[j]).
    """
    p = np.array([len(x) for x in prefixes], dtype=np.int64)
    c = np.array([len(x) for x in continuations], dtype=np.int64)
    ids = np.full((p.size, int((p + c).max())), eos, dtype=np.int64)
    ids[np.arange(ids.shape[1]) < (p + c)[:, None]] = np.concatenate(
        [x for pair in zip(prefixes, continuations) for x in pair]
    )
    rows = np.repeat(np.arange(p.size), c)
    positions = np.arange(rows.size) + np.repeat(p - 1 - (np.cumsum(c) - c), c)
    return ids, rows, positions


def sequence_log_probs_tape(
    pt: dict[str, Tensor],
    hidden: Tensor,
    ids: np.ndarray,
    rows: np.ndarray,
    positions: np.ndarray,
    starts=0,
) -> Tensor:
    """Log-probs (N,) of the tokens ids[rows, positions + 1], teacher-forced.

    `hidden` holds each row's columns from its start on, as in
    `forward_hidden_tape`'s window: `starts` is one int or (B,) ints.
    """
    columns = positions - (starts[rows] if np.ndim(starts) else starts)
    picked = gather_positions_tape(hidden, rows, columns)
    log_probs = ad.log_softmax(ad.linear(picked, pt["out.w"], pt["out.b"]))
    n, v = log_probs.shape
    flat = ad.reshape(log_probs, (n * v,))
    return ad.index_select(flat, np.arange(n) * v + ids[rows, positions + 1])


def head_score_tape(pt: dict[str, Tensor], hidden_vecs: Tensor) -> Tensor:
    """Scoring head on (N, d) hidden vectors -> (N,) raw scores."""
    inner = ad.tanh(ad.linear(hidden_vecs, pt["head.w1"], pt["head.b1"]))
    return ad.reshape(ad.linear(inner, pt["head.w2"], pt["head.b2"]), (hidden_vecs.shape[0],))


# ---------------------------------------------------------------------------
# Numpy forward (sampling path)
# ---------------------------------------------------------------------------


class DecodeState:
    """Each layer's keys and values for already-processed positions.

    `kv[i]` is layer i's (B, 2, H, max_len, e) array: keys at [:, 0], values
    at [:, 1], so a layer writes both with one assignment per step.
    """

    def __init__(self, cfg: PolicyConfig, batch: int):
        self.length = 0
        self.kv = [
            np.empty((batch, 2, cfg.n_heads, cfg.max_len, cfg.head_dim)) for _ in range(cfg.n_layers)
        ]


def fused_qkv(params, cfg: PolicyConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's [wq|wk|wv] (d, 3d) and [bq|bk|bv] (3d,): one projection makes Q, K and V."""
    return [
        tuple(np.concatenate([params[f"layers.{i}.{kind}{n}"] for n in "qkv"], axis=-1) for kind in "wb")
        for i in range(cfg.n_layers)
    ]


def _np_layers(
    params, qkv, x: np.ndarray, cfg: PolicyConfig, state: DecodeState | None, start: int, last: bool = True
):
    """Every decoder layer over x (B, T, d) holding positions start..start+T-1.

    `qkv` is `fused_qkv(params, cfg)`. With a state, each layer writes its keys
    and values there, and the queries attend to every cached position of the
    state's first B rows; a batch-1 x writes into every row of the state.
    Without a state, start must be 0. Without `last` the last layer only
    writes its keys and values, and the result is None: nothing reads its
    queries' output.
    """
    b, t = x.shape[:2]
    for i, (w, bias) in enumerate(qkv):
        p = f"layers.{i}."
        # (B, T, 3d) -> (B, 3, H, T, e): queries at [:, 0], keys and values at [:, 1:]
        heads = linear_forward(x, w, bias).reshape(b, t, 3, cfg.n_heads, -1).transpose(0, 2, 3, 1, 4)
        kv = heads[:, 1:]
        if state is not None:
            state.kv[i][:, :, :, start : start + t] = kv
            kv = state.kv[i][:b, :, :, : start + t]
            if not last and i + 1 == cfg.n_layers:
                return None
        _, ctx = attention_forward(heads[:, 0], kv[:, 0], kv[:, 1])
        x = x + linear_forward(merge_heads(ctx), params[p + "wo"], params[p + "bo"])
        inner = np.maximum(linear_forward(x, params[p + "w1"], params[p + "b1"]), 0.0)
        x = x + linear_forward(inner, params[p + "w2"], params[p + "b2"])
    return x


def _np_forward(
    params,
    ids: np.ndarray,
    cfg: PolicyConfig,
    state: DecodeState | None = None,
    start: int = 0,
    qkv=None,
    last: bool = True,
):
    """Numpy forward (prefill) of ids (B, T) at positions start..start+T-1.

    With `start` > 0 the state must already hold positions 0..start-1, and
    the ids attend to them. Returns last-layer hidden states (B, T, d), or,
    without `last`, only fills the state and returns None. `qkv` is
    `fused_qkv(params, cfg)`, made here when not given.
    """
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    t = ids.shape[1]
    if start + t > cfg.max_len:
        raise ContractViolation(f"sequence length {start + t} exceeds max_len {cfg.max_len}")
    if start and (state is None or state.length != start):
        raise ContractViolation(f"prefill from position {start} needs a state holding 0..{start - 1}")
    if not last and state is None:
        raise ContractViolation("a prefill without the last layer's output needs a state to fill")
    x = params["emb"][ids] + params["pos"][start : start + t]
    x = _np_layers(params, qkv or fused_qkv(params, cfg), x, cfg, state, start, last)
    if state is not None:
        state.length = start + t
    return x


def _np_decode_step(params, state: DecodeState, tokens: np.ndarray, cfg: PolicyConfig, qkv=None):
    """Process one new token per row; returns hidden (B, d) at the new position."""
    t = state.length
    if t + 1 > cfg.max_len:
        raise ContractViolation(f"decode past max_len {cfg.max_len}")
    x = params["emb"][tokens][:, None, :] + params["pos"][t]
    x = _np_layers(params, qkv or fused_qkv(params, cfg), x, cfg, state, t)
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
        recommend = self.tokens == vocab.RECOMMEND
        found = np.flatnonzero(recommend | (self.tokens == vocab.NOT_RECOMMEND))
        if found.size != 1:
            return None
        return int(recommend[found[0]])


def generate(
    params: dict[str, np.ndarray],
    prefix: np.ndarray,
    rngs,
    cfg: PolicyConfig,
    vocab: Vocab,
    cot: bool = True,
) -> list[Rationale]:
    """Decode one rationale per prefix row, for at most `cfg.max_gen` tokens.

    `prefix` is (B, T_p); `rngs` is one Generator per row to sample at
    temperature 1, or None to decode by argmax. Each row draws its max_gen
    uniforms at once, `rngs[row].random(max_gen)`, and its k-th token reads
    the k-th; so every row's generator moves on by exactly max_gen draws,
    however early the row stops. The S leading columns on which all B > 1
    rows agree (S < T_p) are prefilled once, at batch 1, which writes their
    keys and values into every row of the one cache; then only the
    (B, T_p - S) remainder is prefilled. A slate's rows share the user's
    profile and history this way. Without `cot` a row may write one decision
    token, then only EOS. Recorded token log-probs are the temperature-1
    policy's, which is what PPO ratios and teacher-forced re-evaluation use.
    """
    prefix = np.atleast_2d(np.asarray(prefix, dtype=np.int64))
    b, t_p = prefix.shape
    g = cfg.max_gen
    if t_p + g > cfg.max_len:
        raise ContractViolation(f"prefix length {t_p} + max_gen {g} exceeds max_len {cfg.max_len}")
    if rngs is not None and len(rngs) != b:
        raise ContractViolation(f"need one rng per row, got {len(rngs)} for {b} rows")
    qkv = fused_qkv(params, cfg)
    state = DecodeState(cfg, b)
    s = shared_prefix_length(prefix)
    if s:
        _np_forward(params, prefix[:1, :s], cfg, state, qkv=qkv, last=False)
    hidden = _np_forward(params, prefix[:, s:], cfg, state, s, qkv=qkv)[:, -1, :]
    uniforms = None if rngs is None else np.stack([rng.random(g) for rng in rngs])
    if not cot:
        # allowed[decided[row]]: EOS, and one decision token until the row has written one
        allowed = np.zeros((2, vocab.size), dtype=bool)
        allowed[:, vocab.EOS] = True
        allowed[0, [vocab.RECOMMEND, vocab.NOT_RECOMMEND]] = True
        decided = np.zeros(b, dtype=np.int64)
    logits = np.empty((g, b, vocab.size))
    tokens = np.full((b, g), vocab.EOS, dtype=np.int64)
    final_hidden = np.zeros((b, cfg.d_model))
    active = np.ones(b, dtype=bool)
    for step in range(g):
        z = logits[step] = linear_forward(hidden, params["out.w"], params["out.b"])
        if not cot:
            z = np.where(allowed[decided], z, NEG_MASK)
        if uniforms is None:
            chosen = np.argmax(z, axis=-1)
        else:
            cdf = np.cumsum(np.exp(z - z.max(axis=-1, keepdims=True)), axis=-1)
            u = uniforms[:, step] * cdf[:, -1]
            chosen = np.minimum((cdf <= u[:, None]).sum(axis=-1), vocab.size - 1)
        chosen = tokens[:, step] = np.where(active, chosen, vocab.EOS)
        if not cot:
            decided |= (chosen == vocab.RECOMMEND) | (chosen == vocab.NOT_RECOMMEND)
        hidden = _np_decode_step(params, state, chosen, cfg, qkv)
        done = active & ((chosen == vocab.EOS) | (step == g - 1))
        np.copyto(final_hidden, hidden, where=done[:, None])
        active &= ~done
        if not active.any():
            break
    steps = step + 1
    ended = tokens == vocab.EOS
    truncated = ~ended.any(axis=1)
    lengths = np.where(truncated, g, ended.argmax(axis=1) + 1)
    # (B, steps): each row's token log-prob at each step, from one log-softmax
    logprobs = log_softmax_forward(logits[:steps])[np.arange(steps), np.arange(b)[:, None], tokens[:, :steps]]
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
    user = serialize_user(ctx, vocab)
    items = serialize_candidates([candidates[s] for s in canon], vocab)
    prefix = np.hstack([np.broadcast_to(user, (k, user.size)), items])
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
    return log_softmax_forward(logits)[np.arange(tokens.size), tokens]


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
    """Read a `save_checkpoint` file. Every fault in it (a bad magic, a short
    read, bytes that do not decode) is a DataFormatError that names the file."""

    def read(fh, n, what):
        # a length is checked against the bytes left first, so a forged one allocates nothing
        data = fh.read(n) if n <= size - fh.tell() else b""
        if len(data) != n:
            raise DataFormatError(f"checkpoint truncated while reading {what}")
        return data

    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
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
                # math.prod of Python ints cannot overflow, as np.prod's int64 can
                data = np.frombuffer(read(fh, 8 * math.prod(shape), f"tensor {name}"), dtype="<f8")
                params[name] = data.reshape(shape).copy()
            if fh.read(1):
                raise DataFormatError("trailing bytes after final tensor")
    except ValueError as exc:  # a DataFormatError above, or a UnicodeDecodeError
        raise DataFormatError(f"{path}: {exc}") from exc
    return params, config_hash, seed
