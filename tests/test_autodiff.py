"""Tape engine versus finite differences and hand-worked gradients."""
import gc
import weakref

import numpy as np
import pytest

import plrank.autodiff as ad
from plrank.autodiff import NEG_MASK, Tape, fd_check
from plrank.errors import ContractViolation
from plrank.training import pl_log_prob_tape


def test_matmul_forward_example():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3, 2)))
    out = ad.matmul(a, b)
    assert np.array_equal(out.data, np.full((2, 2), 3.0))


def test_softmax_rows_sum_to_one():
    tape = Tape()
    x = tape.leaf(np.random.default_rng(0).normal(size=(4, 7)) * 3)
    y = ad.softmax(x, axis=-1)
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_logsumexp_gradient_is_softmax():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 0.0, -1.0]), requires_grad=True)
    out = ad.logsumexp(x, axis=0)
    grads = tape.backward(out)
    expected = np.exp([1.0, 0.0, -1.0])
    expected /= expected.sum()
    assert grads[x.node_id] == pytest.approx(expected, abs=1e-12)
    assert grads[x.node_id] == pytest.approx([0.66524096, 0.24472847, 0.09003057], abs=1e-8)


def test_index_select_backward_accumulates_duplicates():
    tape = Tape()
    table = tape.leaf(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
    picked = ad.index_select(table, np.array([0, 2, 0]))
    loss = ad.asum(picked)
    grads = tape.backward(loss)
    assert np.array_equal(grads[table.node_id], np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]))


def test_gradient_accumulation_for_reused_tensor():
    tape = Tape()
    x = tape.leaf(np.array([2.0, -1.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
    loss = ad.asum(y)
    grads = tape.backward(loss)
    assert grads[x.node_id] == pytest.approx([7.0, 1.0], abs=1e-12)


def test_elementwise_shape_mismatch_rejected():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3,)))
    with pytest.raises(ContractViolation):
        ad.add(a, b)
    with pytest.raises(ContractViolation):
        ad.mul(a, tape.leaf(np.ones((2, 1))))


def test_scalar_operand_allowed():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)), requires_grad=True)
    out = ad.asum(ad.mul(a, tape.constant(2.0)))
    grads = tape.backward(out)
    assert np.array_equal(grads[a.node_id], np.full((2, 3), 2.0))


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones(3), requires_grad=True)
    with pytest.raises(ContractViolation):
        tape.backward(ad.scale(x, 2.0))


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    with pytest.raises(ContractViolation):
        ad.add(t1.leaf(np.ones(2)), t2.leaf(np.ones(2)))


def test_unused_parameter_gets_zero_gradient():
    tape = Tape()
    x = tape.leaf(np.ones(2), requires_grad=True)
    unused = tape.leaf(np.ones(3), requires_grad=True)
    grads = tape.backward(ad.asum(x))
    assert np.array_equal(grads[unused.node_id], np.zeros(3))


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(42)
    w = rng.normal(size=(5, 4))
    x = rng.normal(size=(3, 5))

    def run():
        tape = Tape()
        wt = tape.leaf(w, requires_grad=True)
        xt = tape.leaf(x)
        loss = ad.asum(ad.tanh(ad.matmul(xt, wt)))
        return tape.backward(loss)[wt.node_id]

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_quadratic_fd_error_tiny():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 3))
    t = rng.normal(size=(2, 3))
    x = rng.normal(size=(2, 4))

    def f(wl):
        tape = wl.tape
        diff = ad.add(ad.matmul(tape.constant(x), wl), ad.scale(tape.constant(t), -1.0))
        return ad.asum(ad.mul(diff, diff))

    assert fd_check(f, [w]) < 1e-7


def _battery():
    """Ten computation shapes covering every op the training stack uses."""
    rng = np.random.default_rng(7)
    n = lambda *s: rng.normal(size=s) * 0.1  # noqa: E731
    cases = []

    # 1. affine + tanh readout
    w, b, v = n(5, 4), n(1, 4), n(4, 1)
    x = rng.normal(size=(3, 5))

    def f1(wl, bl, vl):
        h = ad.tanh(ad.add(ad.matmul(wl.tape.constant(x), wl), ad.broadcast_to(bl, (3, 4))))
        return ad.asum(ad.matmul(h, vl))

    cases.append((f1, [w, b, v]))

    # 2. log-softmax pick via one-hot (classification shape)
    w2 = n(6, 5)
    x2 = rng.normal(size=(4, 6))
    onehot = np.eye(5)[rng.integers(0, 5, size=4)]

    def f2(wl):
        lp = ad.log_softmax(ad.matmul(wl.tape.constant(x2), wl), axis=-1)
        return ad.scale(ad.asum(ad.mul(lp, wl.tape.constant(onehot))), -1.0)

    cases.append((f2, [w2]))

    # 3. single-head causal attention block
    t_len, dm = 4, 6
    wq, wk, wv = n(dm, dm), n(dm, dm), n(dm, dm)
    x3 = rng.normal(size=(t_len, dm))
    mask = np.triu(np.full((t_len, t_len), NEG_MASK), k=1)

    def f3(ql, kl, vl):
        tape = ql.tape
        xc = tape.constant(x3)
        q, k, v = ad.matmul(xc, ql), ad.matmul(xc, kl), ad.matmul(xc, vl)
        scores = ad.add(
            ad.scale(ad.matmul(q, ad.swapaxes(k, 0, 1)), dm ** -0.5),
            tape.constant(mask),
        )
        ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
        return ad.asum(ad.mul(ctx, ctx))

    cases.append((f3, [wq, wk, wv]))

    # 4. two-layer relu MLP with mean reduction
    w4a, w4b = n(5, 8), n(8, 2)
    x4 = rng.normal(size=(6, 5))

    def f4(al, bl):
        h = ad.relu(ad.matmul(al.tape.constant(x4), al))
        return ad.mean(ad.matmul(h, bl))

    cases.append((f4, [w4a, w4b]))

    # 5. logsumexp composition
    w5 = n(4, 7)
    x5 = rng.normal(size=(3, 4))

    def f5(wl):
        return ad.asum(ad.logsumexp(ad.matmul(wl.tape.constant(x5), wl), axis=-1))

    cases.append((f5, [w5]))

    # 6. embedding gather + positional add (index_select path)
    table, pos = n(9, 4), n(5, 4)
    ids = rng.integers(0, 9, size=(2, 5))

    def f6(tl, pl):
        emb = ad.index_select(tl, ids)
        both = ad.add(emb, ad.broadcast_to(ad.reshape(pl, (1, 5, 4)), (2, 5, 4)))
        return ad.asum(ad.mul(both, both))

    cases.append((f6, [table, pos]))

    # 7. concat + swapaxes + exp/log mix
    w7a, w7b = n(3, 4), n(3, 4)

    def f7(al, bl):
        joined = ad.concat([al, bl], axis=0)
        flipped = ad.swapaxes(joined, 0, 1)
        return ad.asum(ad.log(ad.add(ad.exp(flipped), flipped.tape.constant(1.5))))

    cases.append((f7, [w7a, w7b]))

    # 8. scoring head into a Plackett-Luce log-prob, REINFORCE-shaped
    k_items, dm8, dh = 4, 5, 3
    hidden = rng.normal(size=(k_items, dm8))
    h1, h2 = n(dm8, dh), n(dh, 1)
    perm = np.array([2, 0, 3, 1])
    stage_mask = np.where(
        np.arange(k_items)[:, None] >= np.arange(k_items)[None, :], 0.0, NEG_MASK
    )

    def f8(al, bl):
        tape = al.tape
        s = ad.reshape(ad.matmul(ad.tanh(ad.matmul(tape.constant(hidden), al)), bl), (k_items,))
        s_perm = ad.index_select(s, perm)
        stages = ad.add(
            ad.broadcast_to(ad.reshape(s_perm, (1, k_items)), (k_items, k_items)),
            tape.constant(stage_mask),
        )
        logp = ad.add(ad.asum(s_perm), ad.scale(ad.asum(ad.logsumexp(stages, axis=-1)), -1.0))
        return ad.scale(logp, 0.73)  # fixed reward weight

    cases.append((f8, [h1, h2]))

    # 9. fused linear on a 3-d input with a bias
    x9, w9, b9 = rng.normal(size=(2, 3, 5)), n(5, 4), n(4)

    def f9(xl, wl, bl):
        return ad.asum(ad.tanh(ad.linear(xl, wl, bl)))

    cases.append((f9, [x9, w9, b9]))

    # 10. fused two-head causal attention, B=2, T=5
    q10, k10, v10 = rng.normal(size=(3, 2, 5, 4))
    read10 = rng.normal(size=(2, 5, 4))

    def f10(ql, kl, vl):
        out = ad.causal_attention(ql, kl, vl, 2)
        return ad.asum(ad.mul(ad.tanh(out), out.tape.constant(read10)))

    cases.append((f10, [q10, k10, v10]))

    # 11. fused Plackett-Luce log-probs of R=3 rankings over head scores, K=5
    hidden11 = rng.normal(size=(5, 4))
    h11a, h11b = n(4, 3), n(3, 1)
    perms11 = np.stack([rng.permutation(5) for _ in range(3)])
    weights11 = rng.normal(size=3)

    def f11(al, bl):
        tape = al.tape
        s = ad.reshape(ad.matmul(ad.tanh(ad.matmul(tape.constant(hidden11), al)), bl), (5,))
        return ad.asum(ad.mul(pl_log_prob_tape(s, perms11), tape.constant(weights11)))

    cases.append((f11, [h11a, h11b]))
    return cases


def test_fd_battery():
    worst = 0.0
    for f, params in _battery():
        err = fd_check(f, params)
        worst = max(worst, err)
    assert worst < 1e-4, worst


def test_minimum_and_clip_ppo_shape():
    rng = np.random.default_rng(11)
    d = rng.normal(size=(6,)) * 0.3
    rho = 0.8

    def f(dl):
        ratio = ad.exp(dl)
        lhs = ad.scale(ratio, rho)
        rhs = ad.scale(ad.clip(ratio, 0.8, 1.2), rho)
        return ad.asum(ad.minimum(lhs, rhs))

    assert fd_check(f, [d]) < 1e-4


def test_mean_and_sum_axis_variants():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4, 5))

    def f_sum(xl):
        return ad.asum(ad.asum(xl, axis=1), axis=None)

    def f_mean(xl):
        return ad.asum(ad.mean(xl, axis=(0, 2)))

    assert fd_check(f_sum, [x]) < 1e-6
    assert fd_check(f_mean, [x]) < 1e-6
    tape = Tape()
    xt = tape.leaf(x)
    assert ad.sum(xt, axis=2).data == pytest.approx(x.sum(axis=2))


def _reference_attention_block(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """The fine-grained tape block the fused ops replace: matmul plus
    broadcast bias, swapaxes heads, scale, masked softmax, merge."""
    b, t, d = x.shape
    e = d // n_heads

    def lin(z, w, bias):
        y = ad.matmul(z, w)
        return ad.add(y, ad.broadcast_to(ad.reshape(bias, (1,) * (len(y.shape) - 1) + bias.shape), y.shape))

    def heads(z):
        return ad.swapaxes(ad.reshape(z, (b, t, n_heads, e)), 1, 2)

    causal = x.tape.constant(np.triu(np.full((t, t), NEG_MASK), k=1).reshape(1, 1, t, t))
    q, k, v = heads(lin(x, wq, bq)), heads(lin(x, wk, bk)), heads(lin(x, wv, bv))
    scores = ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), e ** -0.5)
    scores = ad.add(scores, ad.broadcast_to(causal, (b, n_heads, t, t)))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
    return lin(ad.reshape(ad.swapaxes(ctx, 1, 2), (b, t, d)), wo, bo)


def _fused_attention_block(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    q, k, v = ad.linear(x, wq, bq), ad.linear(x, wk, bk), ad.linear(x, wv, bv)
    return ad.linear(ad.causal_attention(q, k, v, n_heads), wo, bo)


def test_fused_ops_match_fine_grained_reference():
    rng = np.random.default_rng(11)
    # three query blocks of unequal sizes
    b, t, d, n_heads = 3, 3 * ad.ATTENTION_BLOCK + 5, 6, 2
    arrays = [rng.normal(size=(b, t, d))]
    for _ in range(4):
        arrays += [rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d,)) * 0.1]
    readout = rng.normal(size=(b, t, d))

    def run(block):
        tape = Tape()
        leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
        out = block(*leaves, n_heads)
        loss = ad.asum(ad.mul(ad.tanh(out), tape.constant(readout)))
        grads = tape.backward(loss)
        return out.data, [grads[leaf.node_id] for leaf in leaves]

    ref_out, ref_grads = run(_reference_attention_block)
    out, grads = run(_fused_attention_block)
    names = ["out", "x", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]
    wanted = dict(zip(names, [ref_out] + ref_grads))
    # float64 arithmetic in a different order: fixed at 1e-12 relative
    for name, got in zip(names, [out] + grads):
        want = wanted[name]
        assert got.shape == want.shape, name
        # The key bias adds one constant to each query's scores, which the
        # softmax ignores: its exact gradient is 0, so both sides hold rounding
        # noise, measured against the key weights' gradient.
        scale = np.max(np.abs(wanted["wk" if name == "bk" else name]))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, name


def test_fused_ops_reject_bad_shapes():
    tape = Tape()
    with pytest.raises(ContractViolation):
        ad.linear(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((4, 2))), tape.leaf(np.ones(2)))
    with pytest.raises(ContractViolation):
        ad.linear(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))), tape.leaf(np.ones(3)))
    q = tape.leaf(np.ones((1, 4, 6)))
    with pytest.raises(ContractViolation):
        ad.causal_attention(q, q, tape.leaf(np.ones((1, 3, 6))), 2)
    with pytest.raises(ContractViolation):
        ad.causal_attention(q, q, q, 4)


def test_finished_tape_is_freed_by_reference_counting():
    """No backward closure holds a Tensor, so no graph is a reference cycle."""
    cases = _battery()
    ratio = np.array([0.7, 1.1, 1.4])

    def ppo_shaped(rl):
        clipped = ad.clip(rl, 0.8, 1.2)
        return ad.asum(ad.minimum(ad.scale(rl, 0.5), ad.scale(clipped, 0.5)))

    cases.append((ppo_shaped, [ratio]))
    gc.disable()
    try:
        for f, arrays in cases:
            tape = Tape()
            leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
            loss = f(*leaves)
            tape.backward(loss)
            alive = weakref.ref(tape)
            del tape, leaves, loss
            assert alive() is None, f.__name__
    finally:
        gc.enable()
