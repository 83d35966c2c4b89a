"""Tests for the rationale policy: serialization, twin forwards, generation."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import plrank.autodiff as ad
from plrank.autodiff import NEG_MASK, Tape, fd_check, linear_forward
from plrank.errors import ConfigError, ContractViolation, DataFormatError
from plrank.policy import (
    DecodeState,
    PolicyConfig,
    Rationale,
    Vocab,
    _np_decode_step,
    _np_forward,
    _np_log_softmax,
    clone_params,
    forward_hidden_tape,
    gather_positions_tape,
    generate,
    head_score_tape,
    init_params,
    is_head_param,
    lift_params,
    load_checkpoint,
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
    assert v.attr_parts(v.attr(5, 1)) == (5, 1)
    assert v.attr_parts(v.SEP) is None
    assert v.decision_token(1) == v.RECOMMEND
    assert v.decision_token(0) == v.NOT_RECOMMEND
    assert v.decision_value(v.RECOMMEND) == 1
    assert v.decision_value(v.EOS) is None
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


def test_prefix_length_matches_serialization():
    for m in (1, 3, 8):
        v = Vocab(m=m, buckets=4)
        item = CandidateItem(item_id="c", tokens=(1,) * m, train_frequency=0)
        for n in (0, 1, 3, 20):
            history = tuple(HistoryEvent(item_id=f"h{t}", tokens=(2,) * m, t=t) for t in range(n))
            ctx = UserContext(user_id="u0", profile_tokens=(3,) * m, history=history)
            assert prefix_length(m, n) == serialize_context(ctx, item, v).size


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
            assert v.is_decision(int(r.tokens[0]))
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
    gen_len = max(len(r.tokens) for r in outs)
    ids = np.full((4, prefix.shape[1] + gen_len), v.EOS, dtype=np.int64)
    ids[:, : prefix.shape[1]] = prefix
    for i, r in enumerate(outs):
        ids[i, prefix.shape[1] : prefix.shape[1] + len(r.tokens)] = r.tokens
    tape = Tape()
    pt = lift_params(tape, params)
    lp, hidden = sequence_log_probs_tape(pt, ids, prefix.shape[1], gen_len, TINY)
    assert lp.shape == (4, gen_len)
    for i, r in enumerate(outs):
        assert np.max(np.abs(lp.data[i, : len(r.tokens)] - r.token_logprobs)) < 1e-10
    # final hidden rows gathered off the same tape match the sampler's record
    rows = np.arange(4)
    finals = prefix.shape[1] + np.array([len(r.tokens) for r in outs]) - 1
    picked = gather_positions_tape(hidden, rows, finals)
    sampled = np.stack([r.final_hidden for r in outs])
    assert np.max(np.abs(picked.data - sampled)) < 1e-10


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


def test_gradients_match_finite_differences():
    params = tiny_params(13)
    names = sorted(params)
    v = TINY.vocab()
    rng = substream(5, "fd")
    prefix_len, gen_len, batch = 5, 3, 2
    ids = rng.integers(0, v.size, size=(batch, prefix_len + gen_len))
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    finals = np.array([prefix_len + 2, prefix_len + 1])
    weights = np.array([0.7, -0.3])

    def loss_fn(*leaves):
        pt = dict(zip(names, leaves))
        lp, hidden = sequence_log_probs_tape(pt, ids, prefix_len, gen_len, TINY)
        masked = ad.mul(lp, lp.tape.constant(mask))
        picked = gather_positions_tape(hidden, np.arange(batch), finals)
        scores = head_score_tape(pt, picked)
        weighted = ad.mul(scores, scores.tape.constant(weights))
        return ad.add(ad.asum(masked), ad.asum(weighted))

    worst = fd_check(loss_fn, [params[n] for n in names])
    assert worst < 1e-4


def test_policy_only_grads_leave_head_unkeyed():
    params = tiny_params(14)
    tape = Tape()
    pt = lift_params(tape, params, train_policy=True, train_head=False)
    ids = np.array([[8, 9, 2, 10, 0, 6, 1]])
    lp, _ = sequence_log_probs_tape(pt, ids, 5, 2, TINY)
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
        lp1 = _np_log_softmax(logits)
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
