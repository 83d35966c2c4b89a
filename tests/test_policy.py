"""Tests for the rationale policy: serialization, twin forwards, generation."""
from __future__ import annotations

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

import plrank.autodiff as ad
import plrank.policy as policy
from plrank.autodiff import NEG_MASK, Tape, fd_check, linear_forward
from plrank.errors import ConfigError, ContractViolation, DataFormatError
from plrank.policy import (
    DecodeState,
    PolicyConfig,
    Rationale,
    Vocab,
    _np_decode_step,
    _np_forward,
    clone_params,
    decode_slate,
    forward_hidden_tape,
    gather_positions_tape,
    generate,
    head_score_tape,
    init_params,
    is_head_param,
    lift_params,
    load_checkpoint,
    pack_rows,
    prefix_length,
    save_checkpoint,
    score_hidden,
    sequence_log_probs_tape,
    serialize_context,
    token_log_probs,
)
from plrank.rng import substream
from plrank.world import CandidateItem, HistoryEvent, UserContext

TINY = PolicyConfig(
    m=2, buckets=3, d_model=4, n_layers=2, n_heads=2, d_ff=4,
    max_len=24, max_gen=6, head_hidden=4, init_std=0.4,
)


def tiny_params(seed: int = 0, cfg: PolicyConfig = TINY):
    return init_params(cfg, substream(seed, "init", "policy"))


def test_vocab_layout():
    v = Vocab(m=8, buckets=4)
    assert (v.BOS, v.EOS, v.SEP) == (0, 1, 2)
    assert (v.SEC_REASON, v.SEC_SELFCHECK, v.SEC_CONCLUDE) == (3, 4, 5)
    assert (v.RECOMMEND, v.NOT_RECOMMEND) == (6, 7)
    assert v.size == 8 + 8 * 4
    assert v.attr(0, 0) == 8
    assert v.attr(2, 3) == 8 + 2 * 4 + 3
    assert v.decision_token(1) == v.RECOMMEND
    assert v.decision_token(0) == v.NOT_RECOMMEND
    with pytest.raises(ContractViolation):
        v.attr(8, 0)
    with pytest.raises(ContractViolation):
        v.attr(0, 4)


def test_config_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(m=2, buckets=3, d_model=5, n_heads=2).validate()
    with pytest.raises(ConfigError):
        PolicyConfig(m=2, buckets=3, max_gen=1).validate()
    TINY.validate()


def test_serialize_context_worked_example():
    v = Vocab(m=2, buckets=4)
    ctx = UserContext(
        user_id="u0",
        profile_tokens=(1, 3),
        history=(
            HistoryEvent(item_id="a", tokens=(0, 2), t=0),
            HistoryEvent(item_id="b", tokens=(3, 1), t=1),
        ),
    )
    item = CandidateItem(item_id="c", tokens=(2, 2), train_frequency=0)
    ids = serialize_context(ctx, item, v)
    assert ids.tolist() == [9, 15, 8, 14, 2, 11, 13, 2, 10, 14, 0]
    # prefix length m*(L+2) + L + 1 for L >= 1 (2m + 2 at L = 0, see prefix_length)
    assert ids.size == 2 * (2 + 2) + 2 + 1

    empty = UserContext(user_id="u0", profile_tokens=(1, 3), history=())
    ids0 = serialize_context(empty, item, v)
    assert ids0.tolist() == [9, 15, 2, 10, 14, 0]

    with pytest.raises(ContractViolation):
        serialize_context(empty, CandidateItem(item_id="d", tokens=(1,), train_frequency=0), v)


def test_serialize_context_reuses_the_user_part_only_for_the_same_objects():
    v = Vocab(m=2, buckets=4)

    def user(first_bucket):
        history = (HistoryEvent(item_id="a", tokens=(first_bucket, 2), t=0),)
        return UserContext(user_id="u0", profile_tokens=(1, 3), history=history)

    items = [CandidateItem(item_id=f"c{b}", tokens=(b, 3 - b), train_frequency=0) for b in range(4)]
    wider = Vocab(m=2, buckets=5)  # other ids for the same buckets
    ctx = user(0)
    for item in items:
        got = serialize_context(ctx, item, v)
        got[:] = 0  # a returned prefix is the caller's own
        again = serialize_context(ctx, item, v)
        wide = serialize_context(ctx, item, wider)
        # each equals a call on an equal but distinct context
        assert np.array_equal(again, serialize_context(user(0), item, v))
        assert np.array_equal(wide, serialize_context(user(0), item, wider))
    # a different user with the same vocab is serialized afresh
    assert serialize_context(user(3), items[0], v)[2] == v.attr(0, 3)
    assert serialize_context(ctx, items[0], v)[2] == v.attr(0, 0)


def test_prefix_length_matches_serialization():
    for m in (1, 3, 8):
        v = Vocab(m=m, buckets=4)
        item = CandidateItem(item_id="c", tokens=(1,) * m, train_frequency=0)
        for n in (0, 1, 3, 20):
            history = tuple(HistoryEvent(item_id=f"h{t}", tokens=(2,) * m, t=t) for t in range(n))
            ctx = UserContext(user_id="u0", profile_tokens=(3,) * m, history=history)
            assert prefix_length(m, n) == serialize_context(ctx, item, v).size


def test_decode_slate_prefix_is_per_row_serialization():
    v = TINY.vocab()
    params = tiny_params(18)
    rng = substream(8, "slate")
    for n in (0, 1, 3):
        history = tuple(
            HistoryEvent(item_id=f"h{t}", tokens=tuple(rng.integers(0, v.buckets, size=v.m)), t=t)
            for t in range(n)
        )
        ctx = UserContext(user_id="u0", profile_tokens=tuple(rng.integers(0, v.buckets, size=v.m)), history=history)
        candidates = tuple(
            CandidateItem(item_id=f"c{j}", tokens=tuple(rng.integers(0, v.buckets, size=v.m)), train_frequency=0)
            for j in rng.permutation(5)
        )
        prefix = decode_slate(params, ctx, candidates, TINY, v, cot=True)[0]
        rows = sorted(candidates, key=lambda c: c.item_id)
        want = np.stack([serialize_context(ctx, c, v) for c in rows])
        assert prefix.dtype == want.dtype and np.array_equal(prefix, want)
    with pytest.raises(ContractViolation):
        decode_slate(params, ctx, candidates + (CandidateItem("x", (0,), 0),), TINY, v, cot=True)
    with pytest.raises(ContractViolation):
        serialize_context(UserContext("u0", (0, 3), ()), candidates[0], v)  # bucket 3 of 3


def test_init_params_shapes_and_partition():
    params = tiny_params()
    v = TINY.vocab().size
    assert params["emb"].shape == (v, 4)
    assert params["pos"].shape == (TINY.max_len, 4)
    assert params["layers.0.w1"].shape == (4, 4)
    assert params["out.w"].shape == (4, v)
    assert params["head.w2"].shape == (4, 1)
    head = sorted(n for n in params if is_head_param(n))
    assert head == ["head.b1", "head.b2", "head.w1", "head.w2"]
    for name in ("layers.0.bq", "layers.1.bo", "out.b", "head.b1"):
        assert np.all(params[name] == 0.0)
    again = tiny_params()
    for name in params:
        assert np.array_equal(params[name], again[name])


def test_tape_and_numpy_forwards_agree():
    params = tiny_params(3)
    rng = substream(1, "ids")
    ids = rng.integers(0, TINY.vocab().size, size=(3, 12))
    ref = _np_forward(params, ids, TINY)
    tape = Tape()
    pt = lift_params(tape, params)
    out = forward_hidden_tape(pt, ids, TINY)
    assert np.max(np.abs(out.data - ref)) < 1e-10


def test_incremental_decode_matches_full_forward():
    params = tiny_params(4)
    rng = substream(2, "ids")
    ids = rng.integers(0, TINY.vocab().size, size=(2, 12))
    full = _np_forward(params, ids, TINY)
    state = DecodeState(TINY, 2)
    h = _np_forward(params, ids[:, :4], TINY, state=state)[:, -1, :]
    assert np.max(np.abs(h - full[:, 3])) < 1e-10
    for t in range(4, 12):
        h = _np_decode_step(params, state, ids[:, t], TINY)
        assert np.max(np.abs(h - full[:, t])) < 1e-10


def test_long_sequences_agree_across_attention_blocks():
    cfg = PolicyConfig(
        m=2, buckets=3, d_model=4, n_layers=2, n_heads=2, d_ff=4,
        max_len=3 * ad.ATTENTION_BLOCK, max_gen=6, head_hidden=4, init_std=0.4,
    )
    params = init_params(cfg, substream(4, "init", "policy"))
    t = 2 * ad.ATTENTION_BLOCK + 5
    ids = substream(6, "ids").integers(0, cfg.vocab().size, size=(2, t))
    full = _np_forward(params, ids, cfg)
    tape = Tape()
    assert np.max(np.abs(forward_hidden_tape(lift_params(tape, params), ids, cfg).data - full)) < 1e-10
    state = DecodeState(cfg, 2)
    _np_forward(params, ids[:, : ad.ATTENTION_BLOCK + 3], cfg, state=state)
    for pos in range(ad.ATTENTION_BLOCK + 3, t):
        h = _np_decode_step(params, state, ids[:, pos], cfg)
        assert np.max(np.abs(h - full[:, pos])) < 1e-10


@pytest.mark.parametrize(
    "prefixes, targets, shared, starts, width",
    [
        # one class with rows of different target lengths, each window ending
        # at its row's last predicting column
        ((6, 9, 7), (2, 5, 3), 0, np.array([2, 8, 4]), 5),
        ((10,), (4,), 0, np.array([9]), 4),  # a one-row class
        ((1, 3), (2, 5), 0, np.array([0, 2]), 5),  # a window from column 0
        # RL: the rows share 5 columns and read the suffix from the last prefix column
        ((7, 7, 7), (3, 1, 2), 5, 6, 4),
    ],
)
def test_window_matches_the_full_pass(prefixes, targets, shared, starts, width):
    params = tiny_params(8)
    rng = substream(9, "window")
    v = TINY.vocab().size
    common = rng.integers(0, v, shared)
    ids, _, _ = pack_rows(
        [np.concatenate([common, rng.integers(0, v, n - shared)]) for n in prefixes],
        [rng.integers(0, v, n) for n in targets],
        TINY.vocab().EOS,
    )
    readout = rng.normal(size=(ids.shape[0], width, TINY.d_model))

    def run(hidden_of):
        tape = Tape()
        pt = lift_params(tape, params)
        hidden = hidden_of(pt)
        grads = tape.backward(ad.asum(ad.mul(hidden, tape.constant(readout))))
        return hidden.data, {name: grads[t.node_id] for name, t in pt.items()}

    got, grads = run(lambda pt: forward_hidden_tape(pt, ids, TINY, shared, (starts, width)))
    want, ref_grads = run(lambda pt: ad.column_window(forward_hidden_tape(pt, ids, TINY), starts, width))
    assert got.shape == (ids.shape[0], width, TINY.d_model)
    assert np.max(np.abs(got - want)) <= 1e-12
    for name, g in ref_grads.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12, name
    with pytest.raises(ContractViolation):
        forward_hidden_tape(lift_params(Tape(), params), ids, TINY, shared, (starts, ids.shape[1]))


def test_causal_masking_is_bit_exact():
    params = tiny_params(5)
    rng = substream(3, "ids")
    ids = rng.integers(0, TINY.vocab().size, size=(2, 10))
    mutated = ids.copy()
    mutated[:, 6] = (ids[:, 6] + 1) % TINY.vocab().size
    a = _np_forward(params, ids, TINY)
    b = _np_forward(params, mutated, TINY)
    assert np.array_equal(a[:, :6], b[:, :6])  # bitwise, not approximately
    assert not np.array_equal(a[:, 6], b[:, 6])
    tape = Tape()
    pt = lift_params(tape, params)
    ta = forward_hidden_tape(pt, ids, TINY)
    tb = forward_hidden_tape(pt, mutated, TINY)
    assert np.array_equal(ta.data[:, :6], tb.data[:, :6])


def test_generation_decision_only_support():
    params = tiny_params(6)
    v = TINY.vocab()
    prefix = np.array([[v.attr(0, 1), v.attr(1, 2), v.SEP, v.attr(0, 0), v.attr(1, 1), v.BOS]] * 4)
    rngs = [substream(9, "gen", i) for i in range(4)]
    outs = generate(params, prefix, rngs, TINY, v, cot=False)
    for r in outs:
        assert len(r.tokens) <= 2
        assert set(r.tokens.tolist()) <= {v.RECOMMEND, v.NOT_RECOMMEND, v.EOS}
        if len(r.tokens) == 2:
            assert r.tokens[1] == v.EOS
            assert r.tokens[0] in (v.RECOMMEND, v.NOT_RECOMMEND)
        assert not r.truncated
        assert r.token_logprobs.shape == r.tokens.shape
        assert np.all(r.token_logprobs <= 0.0)


def test_generation_cot_terminates_or_truncates():
    params = tiny_params(7)
    v = TINY.vocab()
    prefix = np.array([[v.attr(0, 0), v.SEP, v.attr(1, 1), v.BOS]] * 6)
    rngs = [substream(11, "gen", i) for i in range(6)]
    outs = generate(params, prefix, rngs, TINY, v, cot=True)
    for r in outs:
        assert 1 <= len(r.tokens) <= TINY.max_gen
        assert np.all(r.tokens < v.size)
        if r.truncated:
            assert len(r.tokens) == TINY.max_gen
        else:
            assert r.tokens[-1] == v.EOS
        assert r.final_hidden.shape == (TINY.d_model,)


def test_generation_deterministic_under_keyed_rngs():
    params = tiny_params(8)
    v = TINY.vocab()
    prefix = np.tile(np.array([v.attr(0, 2), v.SEP, v.attr(1, 0), v.BOS]), (3, 1))

    def roll():
        rngs = [substream(21, "gen", i) for i in range(3)]
        return generate(params, prefix, rngs, TINY, v, cot=True)

    a, b = roll(), roll()
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.tokens, rb.tokens)
        assert np.array_equal(ra.token_logprobs, rb.token_logprobs)
        assert np.array_equal(ra.final_hidden, rb.final_hidden)


def test_greedy_decoding_needs_no_rngs():
    params = tiny_params(9)
    v = TINY.vocab()
    prefix = np.array([[v.attr(0, 1), v.SEP, v.attr(1, 1), v.BOS]] * 2)
    a = generate(params, prefix, None, TINY, v)
    b = generate(params, prefix, None, TINY, v)
    assert np.array_equal(a[0].tokens, b[0].tokens)
    assert np.array_equal(a[0].tokens, a[1].tokens)  # identical rows decode identically
    with pytest.raises(ContractViolation):
        generate(params, prefix, [substream(1, "gen", 0)], TINY, v)  # one rng for two rows


def test_recorded_logprobs_match_teacher_forced_reeval():
    params = tiny_params(10)
    v = TINY.vocab()
    prefix_row = np.array([v.attr(0, 1), v.attr(1, 2), v.SEP, v.attr(0, 0), v.attr(1, 1), v.BOS])
    prefix = np.tile(prefix_row, (5, 1))
    rngs = [substream(33, "gen", i) for i in range(5)]
    outs = generate(params, prefix, rngs, TINY, v, cot=True)
    for row, r in enumerate(outs):
        redo = token_log_probs(params, prefix[row], r.tokens, TINY)
        assert np.max(np.abs(redo - r.token_logprobs)) < 1e-10


def test_tape_sequence_log_probs_match_recorded():
    params = tiny_params(11)
    v = TINY.vocab()
    prefix_row = np.array([v.attr(0, 2), v.attr(1, 0), v.SEP, v.attr(0, 1), v.attr(1, 1), v.BOS])
    prefix = np.tile(prefix_row, (4, 1))
    rngs = [substream(55, "gen", i) for i in range(4)]
    outs = generate(params, prefix, rngs, TINY, v, cot=True)
    ids, rows, positions = pack_rows(prefix, [r.tokens for r in outs], v.EOS)
    tape = Tape()
    pt = lift_params(tape, params)
    hidden = forward_hidden_tape(pt, ids, TINY)
    lp = sequence_log_probs_tape(pt, hidden, ids, rows, positions)
    recorded = np.concatenate([r.token_logprobs for r in outs])
    assert lp.shape == recorded.shape
    assert np.max(np.abs(lp.data - recorded)) < 1e-10
    # final hidden rows gathered off the same tape match the sampler's record
    finals = prefix.shape[1] + np.array([len(r.tokens) for r in outs]) - 1
    picked = gather_positions_tape(hidden, np.arange(4), finals)
    sampled = np.stack([r.final_hidden for r in outs])
    assert np.max(np.abs(picked.data - sampled)) < 1e-10


def test_pack_rows_layout():
    ids, rows, positions = pack_rows([[5, 6, 0], [7, 0], [8, 9, 9, 0]], [[3, 1], [4, 4, 1], [1]], 1)
    assert ids.tolist() == [[5, 6, 0, 3, 1], [7, 0, 4, 4, 1], [8, 9, 9, 0, 1]]
    assert rows.tolist() == [0, 0, 1, 1, 1, 2]
    assert positions.tolist() == [2, 3, 1, 2, 3, 3]
    assert ids[rows, positions + 1].tolist() == [3, 1, 4, 4, 1, 1]


def test_head_score_paths_agree():
    params = tiny_params(12)
    hidden = substream(4, "h").normal(size=(6, TINY.d_model))
    ref = score_hidden(params, hidden)
    tape = Tape()
    pt = lift_params(tape, params)
    out = head_score_tape(pt, tape.constant(hidden))
    assert np.max(np.abs(out.data - ref)) < 1e-12


def test_rationale_decision_helper():
    v = Vocab(m=2, buckets=3)
    mk = lambda toks: Rationale(
        tokens=np.array(toks), token_logprobs=np.zeros(len(toks)),
        final_hidden=np.zeros(4), truncated=False,
    )
    assert mk([v.SEC_CONCLUDE, v.RECOMMEND, v.EOS]).decision(v) == 1
    assert mk([v.NOT_RECOMMEND, v.EOS]).decision(v) == 0
    assert mk([v.EOS]).decision(v) is None
    assert mk([v.RECOMMEND, v.NOT_RECOMMEND, v.EOS]).decision(v) is None
    assert mk([v.RECOMMEND, v.attr(0, 1), v.RECOMMEND]).decision(v) is None
    assert mk([v.attr(1, 2), v.NOT_RECOMMEND]).decision(v) == 0


def test_gradients_match_finite_differences():
    params = tiny_params(13)
    names = sorted(params)
    v = TINY.vocab()
    rng = substream(5, "fd")
    prefix_len, gen_len, batch = 5, 3, 2
    ids = rng.integers(0, v.size, size=(batch, prefix_len + gen_len))
    # all three generated tokens of row 0, the first two of row 1
    rows = np.array([0, 0, 0, 1, 1])
    positions = np.array([4, 5, 6, 4, 5])
    finals = np.array([prefix_len + 2, prefix_len + 1])
    weights = np.array([0.7, -0.3])

    def loss_fn(*leaves):
        pt = dict(zip(names, leaves))
        hidden = forward_hidden_tape(pt, ids, TINY)
        lp = sequence_log_probs_tape(pt, hidden, ids, rows, positions)
        picked = gather_positions_tape(hidden, np.arange(batch), finals)
        scores = head_score_tape(pt, picked)
        weighted = ad.mul(scores, scores.tape.constant(weights))
        return ad.add(ad.asum(lp), ad.asum(weighted))

    worst = fd_check(loss_fn, [params[n] for n in names])
    assert worst < 1e-4


def test_policy_only_grads_leave_head_unkeyed():
    params = tiny_params(14)
    tape = Tape()
    pt = lift_params(tape, params, train_policy=True, train_head=False)
    ids, rows, positions = pack_rows([[8, 9, 2, 10, 0]], [[6, 1]], TINY.vocab().EOS)
    lp = sequence_log_probs_tape(pt, forward_hidden_tape(pt, ids, TINY), ids, rows, positions)
    grads = tape.backward(ad.asum(lp))
    got = {pid for pid in grads}
    for name in params:
        tensor = pt[name]
        if is_head_param(name):
            assert tensor.node_id not in got
        else:
            assert tensor.node_id in got


def test_checkpoint_round_trip(tmp_path):
    params = tiny_params(15)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, "abc123", seed=99)
    loaded, config_hash, seed = load_checkpoint(path)
    assert config_hash == "abc123" and seed == 99
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64


def test_interrupted_checkpoint_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "sft_model.bin"
    save_checkpoint(path, tiny_params(17), "cafe", seed=3)
    good = path.read_bytes()
    broken = dict(tiny_params(18), zz=np.array(["not a number"]))  # sorts last: raises mid-write
    with pytest.raises(ValueError):
        save_checkpoint(path, broken, "cafe", seed=3)
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sft_model.bin"]


def test_checkpoint_rejects_corruption(tmp_path):
    params = tiny_params(16)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, "deadbeef", seed=1)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(trailing)

    bad_version = tmp_path / "ver.bin"
    bad_version.write_bytes(raw[:4] + b"\x07\x00\x00\x00" + raw[8:])
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(bad_version)


@pytest.mark.parametrize("dims", [(2**59,), (2**29,), (2**32, 2**32)])
def test_checkpoint_checks_a_tensors_size_before_reading_it(tmp_path, dims):
    """Forged dims are a DataFormatError, and nothing the size of their claim is allocated."""
    path = tmp_path / "model.bin"
    params = {"a": np.arange(6.0).reshape(2, 3)}
    save_checkpoint(path, params, "cafe", seed=1)
    raw = path.read_bytes()
    at = raw.index(struct.pack("<I", 2) + struct.pack("<2Q", 2, 3))  # tensor a's rank, then its dims
    forged = tmp_path / "forged.bin"
    forged.write_bytes(
        raw[:at] + struct.pack(f"<I{len(dims)}Q", len(dims), *dims) + raw[at + 4 + 16 :]
    )
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="forged.bin: checkpoint truncated while reading tensor a"):
            load_checkpoint(forged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_init_logits_are_near_uniform():
    cfg = PolicyConfig(m=8, buckets=4)
    params = init_params(cfg, substream(0, "init", "policy"))
    v = cfg.vocab()
    prefix = np.array([v.attr(0, 1), v.SEP, v.attr(0, 2), v.BOS])
    tokens = np.array([v.SEC_REASON, v.RECOMMEND, v.EOS])
    nll = -token_log_probs(params, prefix, tokens, cfg).mean()
    assert abs(nll - np.log(v.size)) < 0.05 * np.log(v.size)


def test_clone_params_is_deep():
    params = tiny_params(17)
    copy = clone_params(params)
    copy["emb"][0, 0] += 1.0
    assert params["emb"][0, 0] != copy["emb"][0, 0]


def _reference_generate(params, prefix, rngs, cfg, vocab, mode="cot", temperature=1.0, max_gen=None):
    """Per-row decoding loop that `generate`'s array bookkeeping must reproduce bit for bit."""
    prefix = np.atleast_2d(np.asarray(prefix, dtype=np.int64))
    b, t_p = prefix.shape
    g_max = cfg.max_gen if max_gen is None else int(max_gen)
    state = DecodeState(cfg, b)
    hidden = _np_forward(params, prefix, cfg, state=state)[:, -1, :]
    tokens = [[] for _ in range(b)]
    logprobs = [[] for _ in range(b)]
    final_hidden = np.zeros((b, cfg.d_model))
    truncated = np.zeros(b, dtype=bool)
    active = np.ones(b, dtype=bool)
    decided = np.zeros(b, dtype=bool)
    decision_ids = (vocab.RECOMMEND, vocab.NOT_RECOMMEND)
    for step in range(g_max):
        logits = linear_forward(hidden, params["out.w"], params["out.b"])
        lp1 = ad.log_softmax_forward(logits)
        masked = logits.copy()
        if mode == "decision_only":
            allow = np.zeros((b, vocab.size), dtype=bool)
            allow[:, vocab.EOS] = True
            allow[~decided, vocab.RECOMMEND] = True
            allow[~decided, vocab.NOT_RECOMMEND] = True
            masked[~allow] = NEG_MASK
        chosen = np.full(b, vocab.EOS, dtype=np.int64)
        if temperature == 0.0:
            chosen_active = np.argmax(masked, axis=-1)
            chosen[active] = chosen_active[active]
        else:
            z = masked / temperature
            z -= z.max(axis=-1, keepdims=True)
            probs = np.exp(z)
            cdf = np.cumsum(probs, axis=-1)
            for row in np.nonzero(active)[0]:
                u = rngs[row].random() * cdf[row, -1]
                chosen[row] = min(int((cdf[row] <= u).sum()), vocab.size - 1)
        for row in np.nonzero(active)[0]:
            tok = int(chosen[row])
            tokens[row].append(tok)
            logprobs[row].append(float(lp1[row, tok]))
            if tok in decision_ids:
                decided[row] = True
        hidden = _np_decode_step(params, state, chosen, cfg)
        just_finished = active & (chosen == vocab.EOS)
        last_step = step == g_max - 1
        for row in np.nonzero(active)[0]:
            if just_finished[row] or last_step:
                final_hidden[row] = hidden[row]
                if not just_finished[row]:
                    truncated[row] = True
        active &= ~just_finished
        if not active.any():
            break
    return [
        Rationale(
            tokens=np.asarray(tokens[row], dtype=np.int64),
            token_logprobs=np.asarray(logprobs[row]),
            final_hidden=final_hidden[row].copy(),
            truncated=bool(truncated[row]),
        )
        for row in range(b)
    ]


def test_generate_matches_per_row_reference():
    v = TINY.vocab()
    for cot in (True, False):
        for temperature in (0.0, 1.0):
            stopped, cut = set(), 0
            for seed in range(12):
                params = tiny_params(40 + seed)
                prefix = substream(seed, "ref", "prefix").integers(0, v.size, size=(8, 9))
                prefix[:, -1] = v.BOS
                for max_gen in (1, 3, TINY.max_gen):
                    rngs = lambda: [substream(seed, "ref", i) for i in range(8)]
                    cfg = dataclasses.replace(TINY, max_gen=max_gen)
                    got = generate(params, prefix, rngs() if temperature else None, cfg, v, cot)
                    mode = "cot" if cot else "decision_only"
                    want = _reference_generate(params, prefix, rngs(), TINY, v, mode, temperature, max_gen)
                    for g, w in zip(got, want):
                        assert g.tokens.dtype == w.tokens.dtype
                        assert np.array_equal(g.tokens, w.tokens)
                        assert np.array_equal(g.token_logprobs, w.token_logprobs)
                        assert np.array_equal(g.final_hidden, w.final_hidden)
                        assert g.truncated == w.truncated
                        if g.truncated:
                            cut += 1
                        else:
                            stopped.add(len(g.tokens))
            assert len(stopped) >= 2 and cut > 0  # rows end at different steps and at max_gen


def _prefill_calls(monkeypatch):
    """Record (ids shape, start) of every `_np_forward` call that `generate` makes."""
    calls, inner = [], policy._np_forward

    def recording(params, ids, cfg, state=None, start=0, **kwargs):
        calls.append((np.shape(ids), start))
        return inner(params, ids, cfg, state, start, **kwargs)

    monkeypatch.setattr(policy, "_np_forward", recording)
    return calls


def _assert_matches_unshared(params, prefix, seed, exact):
    """`generate` against `_reference_generate`, which prefills every row in full.

    With `exact` the reference decodes the same batch and must agree bit for
    bit; otherwise it decodes each row alone, at batch 1, and log-probs and
    final hidden states must agree within 1e-12.
    """
    v = TINY.vocab()
    lengths = set()
    for cot in (True, False):
        mode = "cot" if cot else "decision_only"
        for sample in (False, True):
            rngs = lambda rows: [substream(seed, "shared", i) for i in rows] if sample else None
            got = generate(params, prefix, rngs(range(len(prefix))), TINY, v, cot)
            if exact:
                want = _reference_generate(params, prefix, rngs(range(len(prefix))), TINY, v, mode, float(sample))
            else:
                want = [
                    _reference_generate(params, prefix[i : i + 1], rngs([i]), TINY, v, mode, float(sample))[0]
                    for i in range(len(prefix))
                ]
            for g, w in zip(got, want):
                assert np.array_equal(g.tokens, w.tokens) and g.truncated == w.truncated
                if exact:
                    assert np.array_equal(g.token_logprobs, w.token_logprobs)
                    assert np.array_equal(g.final_hidden, w.final_hidden)
                else:
                    assert np.max(np.abs(g.token_logprobs - w.token_logprobs)) <= 1e-12
                    assert np.max(np.abs(g.final_hidden - w.final_hidden)) <= 1e-12
                lengths.add(len(g.tokens))
    return lengths


def test_shared_prefill_matches_rows_alone(monkeypatch):
    v = TINY.vocab()
    calls = _prefill_calls(monkeypatch)
    b, context = 5, 8
    lengths = set()
    for seed in range(6):
        params = tiny_params(60 + seed)
        rng = substream(seed, "shared", "prefix")
        for suffix in range(1, 10):
            prefix = np.hstack([
                np.tile(rng.integers(0, v.size, size=context), (b, 1)),
                rng.integers(0, v.size, size=(b, suffix)),
            ])
            prefix[:, context] = rng.permutation(v.size)[:b]  # rows part at the first suffix column
            calls.clear()
            generate(params, prefix, None, TINY, v)
            assert calls == [((1, context), 0), ((b, suffix), context)]
            lengths |= _assert_matches_unshared(params, prefix, seed, exact=False)
    assert len(lengths) >= 2


def test_shared_prefill_edge_cases(monkeypatch):
    v = TINY.vocab()
    calls = _prefill_calls(monkeypatch)
    params = tiny_params(70)
    rng = substream(9, "shared", "edges")
    row = rng.integers(0, v.size, size=12)
    apart = rng.integers(0, v.size, size=(4, 12))
    apart[:, 0] = [0, 1, 2, 3]
    cases = [
        (np.tile(row, (4, 1)), [((1, 11), 0), ((4, 1), 11)], False),  # identical rows: S = T_p - 1
        (row[None, :], [((1, 12), 0)], True),  # one row: nothing to share
        (apart, [((4, 12), 0)], True),  # no common column
    ]
    for prefix, prefill, exact in cases:
        calls.clear()
        generate(params, prefix, None, TINY, v)
        assert calls == prefill
        _assert_matches_unshared(params, prefix, 9, exact)


def test_prefill_from_a_start_position_matches_one_forward():
    params = tiny_params(71)
    ids = substream(10, "ids").integers(0, TINY.vocab().size, size=(3, 14))
    full = _np_forward(params, ids, TINY)
    for s in (1, 6, 13):
        state = DecodeState(TINY, 3)
        head = _np_forward(params, ids[:, :s], TINY, state)
        tail = _np_forward(params, ids[:, s:], TINY, state, start=s)
        assert state.length == 14
        assert np.max(np.abs(np.concatenate([head, tail], axis=1) - full)) <= 1e-12
    with pytest.raises(ContractViolation):
        _np_forward(params, ids[:, 6:], TINY, start=6)  # no state holds positions 0..5
    with pytest.raises(ContractViolation):
        _np_forward(params, ids[:, 6:], TINY, DecodeState(TINY, 3), start=6)


def test_prefill_without_the_last_layer_fills_the_same_cache():
    params = tiny_params(72)
    ids = substream(11, "ids").integers(0, TINY.vocab().size, size=(1, 13))
    full, keys_only = DecodeState(TINY, 1), DecodeState(TINY, 1)
    _np_forward(params, ids, TINY, full)
    assert _np_forward(params, ids, TINY, keys_only, last=False) is None
    assert keys_only.length == full.length == 13
    for got, want in zip(keys_only.kv, full.kv):
        assert np.array_equal(got[..., :13, :], want[..., :13, :])  # bitwise
    with pytest.raises(ContractViolation):
        _np_forward(params, ids, TINY, last=False)  # no state to fill


def test_batch_one_prefill_fills_every_row_of_the_cache():
    # generate's shared prefill: one row's keys and values land in every row of the slate's cache
    params = tiny_params(73)
    row = substream(12, "ids").integers(0, TINY.vocab().size, size=(1, 11))
    broadcast, repeated = DecodeState(TINY, 3), DecodeState(TINY, 3)
    assert _np_forward(params, row, TINY, broadcast, last=False) is None
    _np_forward(params, np.repeat(row, 3, axis=0), TINY, repeated, last=False)
    assert broadcast.length == repeated.length == 11
    for got, want in zip(broadcast.kv, repeated.kv):
        assert np.array_equal(got[..., :11, :], want[..., :11, :])  # bitwise, every row


def test_generate_moves_every_rng_on_by_max_gen_draws():
    params = tiny_params(74)
    v = TINY.vocab()
    prefix = substream(14, "rng", "prefix").integers(0, v.size, size=(6, 7))
    prefix[:, -1] = v.BOS
    for cot in (True, False):
        rngs = [substream(14, "rng", i) for i in range(6)]
        outs = generate(params, prefix, rngs, TINY, v, cot)
        assert len({len(r.tokens) for r in outs}) >= 2  # rows stop at different steps
        for i, rng in enumerate(rngs):
            fresh = substream(14, "rng", i)
            fresh.random(TINY.max_gen)
            assert np.array_equal(rng.random(3), fresh.random(3))
