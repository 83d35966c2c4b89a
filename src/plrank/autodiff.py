"""Define-by-run reverse-mode autodiff over dense float64 arrays.

A Tape records every op application in creation order; backward() replays the
records in reverse, which is a valid topological order for a define-by-run
graph. Elementwise binaries require identical shapes; anything else must go
through an explicit broadcast_to/reshape, so shape bugs fail loudly at op time
instead of silently broadcasting. Reductions (`asum`, `mean`) take the whole
tensor, and `softmax` and `log_softmax` work on the last axis.

Besides the fine-grained primitives there are two fused layer ops, `linear`
and `causal_attention`. The numpy decoder shares their plain-numpy forwards,
and `log_softmax`'s.

Backward closures capture arrays, shapes and flags, never a Tensor: a Tensor
holds its Tape, so capturing one would make every graph a reference cycle
that only the cyclic garbage collector could free.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation

Array = np.ndarray

# Additive attention masks use this instead of -inf: it absorbs any realistic
# score under float64 addition, and exp() underflows to an exact 0.0, so masked
# positions influence nothing at the bit level.
NEG_MASK = -1e30


class Node:
    __slots__ = ("parents", "backward_fn", "requires")

    def __init__(self, parents: tuple[int, ...], backward_fn, requires: bool):
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires = requires


class Tensor:
    __slots__ = ("data", "tape", "node_id", "requires")

    def __init__(self, data: Array, tape: "Tape", node_id: int, requires: bool):
        self.data = data
        self.tape = tape
        self.node_id = node_id
        self.requires = requires

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id}, requires={self.requires})"


class Tape:
    """Append-only op record; rebuilt for every forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._param_data: dict[int, Array] = {}

    def _record(self, data: Array, parents: tuple[int, ...], backward_fn, requires: bool) -> Tensor:
        node_id = len(self.nodes)
        self.nodes.append(Node(parents, backward_fn, requires))
        return Tensor(data, self, node_id, requires)

    def leaf(self, data, requires_grad: bool = False) -> Tensor:
        arr = np.asarray(data, dtype=np.float64)
        t = self._record(arr, (), None, requires_grad)
        if requires_grad:
            self._param_data[t.node_id] = arr
        return t

    def constant(self, data) -> Tensor:
        return self.leaf(data, requires_grad=False)

    def backward(self, loss: Tensor) -> dict[int, Array]:
        """Accumulated gradients for every requires_grad leaf, keyed by node_id."""
        if loss.tape is not self:
            raise ContractViolation("loss belongs to a different tape")
        if loss.data.size != 1:
            raise ContractViolation(f"backward needs a scalar loss, got shape {loss.data.shape}")
        grads: list[Array | None] = [None] * len(self.nodes)
        grads[loss.node_id] = np.ones_like(loss.data)
        for node_id in range(loss.node_id, -1, -1):
            g = grads[node_id]
            if g is None:
                continue
            node = self.nodes[node_id]
            if node.backward_fn is None or not node.requires:
                continue
            contributions = node.backward_fn(g)
            for parent_id, contrib in zip(node.parents, contributions):
                if contrib is None or not self.nodes[parent_id].requires:
                    continue
                if grads[parent_id] is None:
                    grads[parent_id] = contrib
                else:
                    grads[parent_id] = grads[parent_id] + contrib
        out: dict[int, Array] = {}
        for pid, data in self._param_data.items():
            g = grads[pid]
            out[pid] = np.zeros_like(data) if g is None else np.ascontiguousarray(g)
        return out


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractViolation("operands were created on different tapes")
    return tape


def _check_elementwise(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ContractViolation(f"elementwise op needs equal shapes, got {a.data.shape} and {b.data.shape}")


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to `shape` after numpy-style broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    _check_elementwise(a, b)
    out = a.data + b.data
    requires = a.requires or b.requires

    def backward_fn(g: Array):
        return (g, g)

    return tape._record(out, (a.node_id, b.node_id), backward_fn, requires)


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    _check_elementwise(a, b)
    a_data, b_data = a.data, b.data
    out = a_data * b_data
    requires = a.requires or b.requires

    def backward_fn(g: Array):
        return (g * b_data, g * a_data)

    return tape._record(out, (a.node_id, b.node_id), backward_fn, requires)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def backward_fn(g: Array):
        return (g * c,)

    return a.tape._record(out, (a.node_id,), backward_fn, a.requires)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractViolation(
            f"matmul operands must be at least 2-d, got {a.data.shape} @ {b.data.shape}"
        )
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)

    def backward_fn(g: Array):
        ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
        gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
        return (_unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape))

    return tape._record(out, (a.node_id, b.node_id), backward_fn, a.requires or b.requires)


# Fused layer ops. Each pairs a plain-numpy forward, which the numpy decoder in
# policy.py calls directly, with an analytic backward.


def linear_forward(x: Array, w: Array, b: Array) -> Array:
    """x (..., n) @ w (n, m) + b (m,) as one 2-D GEMM over the leading axes."""
    y = x.reshape(-1, x.shape[-1]) @ w
    y += b
    return y.reshape(x.shape[:-1] + (w.shape[1],))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of the last axis: x (..., n), w (n, m), b (m,) -> (..., m)."""
    tape = _same_tape(x, w, b)
    if w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1] or b.data.shape != w.data.shape[1:]:
        raise ContractViolation(
            f"linear needs x (..., n), w (n, m), b (m,), got {x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    x_shape, w_data = x.data.shape, w.data
    x2 = x.data.reshape(-1, x_shape[-1])
    out = linear_forward(x.data, w_data, b.data)
    x_req, w_req, b_req = x.requires, w.requires, b.requires

    def backward_fn(g: Array):
        g2 = g.reshape(-1, w_data.shape[1])
        return (
            (g2 @ w_data.T).reshape(x_shape) if x_req else None,
            x2.T @ g2 if w_req else None,
            g2.sum(axis=0) if b_req else None,
        )

    return tape._record(out, (x.node_id, w.node_id, b.node_id), backward_fn, x_req or w_req or b_req)


def split_heads(x: Array, n_heads: int) -> Array:
    """(B, T, d) -> (B, H, T, d / H), as a view."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Array) -> Array:
    """(B, H, T, e) -> (B, T, H * e)."""
    b, h, t, e = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * e)


_causal = np.zeros((0, 0))  # NEG_MASK above the diagonal, grown to fit the largest Tq asked for


def _causal_mask(t: int) -> Array:
    """(t, t) additive causal mask: a read-only view of one triangle kept across calls."""
    global _causal
    if t > _causal.shape[0]:
        n = -(-t // ATTENTION_BLOCK) * ATTENTION_BLOCK  # so a growing t rebuilds it rarely
        _causal = np.triu(np.full((n, n), NEG_MASK), k=1)
        _causal.flags.writeable = False
    return _causal[:t, :t]


def attention_forward(
    q: Array, k: Array, v: Array, positions: Array | None = None
) -> tuple[Array, Array]:
    """Causal scaled dot-product attention on heads-first arrays.

    q is (B, H, Tq, e); k and v are (B, H, Tk, e). Without `positions`,
    Tk >= Tq and query i sits at position Tk - Tq + i and sees keys
    0..Tk - Tq + i, so a single query sees every key. With `positions`
    (B, Tq), query j of row b sees keys 0..positions[b, j]. Returns
    (probs (B, H, Tq, Tk), out (B, H, Tq, e)).
    """
    tq, tk = q.shape[-2], k.shape[-2]
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= q.shape[-1] ** -0.5
    if positions is not None:
        scores += np.where(np.arange(tk) > positions[..., None], NEG_MASK, 0.0)[:, None]
    elif tq > 1:
        # every query sees keys 0..Tk - Tq, so only the last Tq columns need a mask
        scores[..., tk - tq :] += _causal_mask(tq)
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs, probs @ v


# The tape op splits the queries into blocks of about this many. A block only
# scores the keys its last query can see, which skips most of the causal
# mask's upper triangle; each block costs a dozen numpy calls, so blocks stay
# this large. The numpy decoder's prefill, over short prefixes, measured
# faster as one block.
ATTENTION_BLOCK = 32


def _query_blocks(t: int) -> list[slice]:
    """Equal blocks of about ATTENTION_BLOCK query rows covering 0..t-1."""
    n = max(1, round(t / ATTENTION_BLOCK))
    bounds = [i * t // n for i in range(n + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def causal_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, positions: Array | None = None
) -> Tensor:
    """Multi-head causal attention of (B, Tq, d) queries over (B, Tk, d) keys and values.

    Without `positions`, Tk >= Tq and the queries are the last Tq positions,
    so query i sits at position Tk - Tq + i, as in `attention_forward`. With
    `positions` (B, Tq), query j of row b sits at positions[b, j] < Tk and
    sees keys 0..positions[b, j]; all queries then run as one block over the
    keys the furthest one sees. Returns (B, Tq, d).
    """
    tape = _same_tape(q, k, v)
    shape = q.data.shape
    if (
        len(shape) != 3
        or k.data.ndim != 3
        or k.data.shape != v.data.shape
        or (k.data.shape[0], k.data.shape[2]) != (shape[0], shape[2])
        or (positions is None and k.data.shape[1] < shape[1])
        or shape[-1] % n_heads
    ):
        raise ContractViolation(
            f"causal_attention needs q (B, Tq, d) and equal k/v (B, Tk, d) with Tk >= Tq and d "
            f"divisible by {n_heads} heads, got {q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    qh, kh, vh = (split_heads(z.data, n_heads) for z in (q, k, v))
    if positions is None:
        offset = k.data.shape[1] - shape[1]
        blocks = [(rows, offset + rows.stop) for rows in _query_blocks(shape[1])]
    else:
        positions = np.asarray(positions)
        if (
            positions.shape != shape[:2]
            or not np.issubdtype(positions.dtype, np.integer)
            or positions.min() < 0
            or positions.max() >= k.data.shape[1]
        ):
            raise ContractViolation(
                f"causal_attention positions must be integers (B, Tq) = {shape[:2]} in "
                f"[0, {k.data.shape[1]}), got shape {positions.shape}"
            )
        blocks = [(slice(0, shape[1]), int(positions.max()) + 1)]
    out = np.empty(qh.shape)
    probs = []  # per block, (B, H, rows, keys): the block's rows see at most keys 0..keys-1
    for rows, keys in blocks:
        p, out[..., rows, :] = attention_forward(
            qh[..., rows, :], kh[..., :keys, :], vh[..., :keys, :], positions
        )
        probs.append(p)
    scale = qh.shape[-1] ** -0.5

    def backward_fn(g: Array):
        gh = split_heads(g, n_heads)
        gq, gk, gv = np.empty(qh.shape), np.zeros(kh.shape), np.zeros(vh.shape)
        # The softmax backward subtracts rowsum(gp * p) from gp, the gradient
        # of p; that row sum equals rowsum(gh * out), a (T, e) product.
        inner = (gh * out).sum(axis=-1, keepdims=True)
        for (rows, keys), p in zip(blocks, probs):
            g_rows = gh[..., rows, :]
            gs = g_rows @ np.swapaxes(vh[..., :keys, :], -1, -2)
            gs -= inner[..., rows, :]
            gs *= p
            gq[..., rows, :] = gs @ kh[..., :keys, :]
            gk[..., :keys, :] += np.swapaxes(gs, -1, -2) @ qh[..., rows, :]
            gv[..., :keys, :] += np.swapaxes(p, -1, -2) @ g_rows
        gq *= scale
        gk *= scale
        return merge_heads(gq), merge_heads(gk), merge_heads(gv)

    requires = q.requires or k.requires or v.requires
    return tape._record(merge_heads(out), (q.node_id, k.node_id, v.node_id), backward_fn, requires)


def softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: Array):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner) * y,)

    return x.tape._record(y, (x.node_id,), backward_fn, x.requires)


def log_softmax_forward(x: Array) -> Array:
    """Log-softmax of a plain array along its last axis: the tape op's forward,
    which the numpy decoder calls."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    y = log_softmax_forward(x.data)

    def backward_fn(g: Array):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return x.tape._record(y, (x.node_id,), backward_fn, x.requires)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward_fn(g: Array):
        return (g * out,)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward_fn(g: Array):
        return (g * (1.0 - out * out),)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    positive = x.data > 0.0

    def backward_fn(g: Array):
        return (g * positive,)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def asum(x: Tensor) -> Tensor:
    """The sum of every element of x, a 0-d Tensor."""
    out = x.data.sum()
    shape = x.data.shape

    def backward_fn(g: Array):
        return (np.full(shape, g, dtype=np.float64),)

    return x.tape._record(np.asarray(out), (x.node_id,), backward_fn, x.requires)


def mean(x: Tensor) -> Tensor:
    """The mean of every element of x, a 0-d Tensor."""
    return scale(asum(x), 1.0 / x.data.size)


def index_select(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractViolation("index_select indices must be integers")
    if table.data.ndim < 1:
        raise ContractViolation("index_select table must have at least one axis")
    out = table.data[idx]
    shape = table.data.shape

    def backward_fn(g: Array):
        # One bincount over the flat index of every picked element (a negative
        # pick counts from the end, as in the forward). It sums each element's
        # gradients in pick order, as np.add.at would, so bit for bit.
        width = math.prod(shape[1:])
        cells = ((idx.reshape(-1, 1) % shape[0]) * width + np.arange(width)).reshape(-1)
        return (np.bincount(cells, weights=g.reshape(-1), minlength=shape[0] * width).reshape(shape),)

    return table.tape._record(out, (table.node_id,), backward_fn, table.requires)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if len(tensors) == 0:
        raise ContractViolation("concat needs at least one tensor")
    tape = _same_tape(*tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g: Array):
        return tuple(np.split(g, splits, axis=axis))

    return tape._record(
        out,
        tuple(t.node_id for t in tensors),
        backward_fn,
        any(t.requires for t in tensors),
    )


def column_window(x: Tensor, starts, width: int) -> Tensor:
    """Columns starts[b]..starts[b] + width - 1 of each row b of x (B, T, ...) -> (B, width, ...).

    `starts` is one int, a plain slice of every row, or (B,) ints.
    """
    shape = x.data.shape
    starts = np.asarray(starts)
    if (
        len(shape) < 2
        or not np.issubdtype(starts.dtype, np.integer)
        or starts.shape not in ((), shape[:1])
        or width < 1
        or starts.min() < 0
        or starts.max() + width > shape[1]
    ):
        raise ContractViolation(f"column_window of width {width} from {starts} does not fit x {shape}")
    if starts.ndim == 0:
        index = (slice(None), slice(int(starts), int(starts) + width))
    else:
        index = (np.arange(shape[0])[:, None], starts[:, None] + np.arange(width))
    out = x.data[index]

    def backward_fn(g: Array):
        gx = np.zeros(shape)
        gx[index] = g  # a window holds each (row, column) once
        return (gx,)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)
    in_shape = x.data.shape

    def backward_fn(g: Array):
        return (g.reshape(in_shape),)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = np.swapaxes(x.data, a, b)

    def backward_fn(g: Array):
        return (np.swapaxes(g, a, b),)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def broadcast_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = np.broadcast_to(x.data, shape)
    in_shape = x.data.shape

    def backward_fn(g: Array):
        return (_unbroadcast(g, in_shape),)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    _check_elementwise(a, b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)

    def backward_fn(g: Array):
        return (g * take_a, g * ~take_a)

    return tape._record(out, (a.node_id, b.node_id), backward_fn, a.requires or b.requires)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    if not lo <= hi:
        raise ContractViolation(f"clip needs lo <= hi, got [{lo}, {hi}]")
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)

    def backward_fn(g: Array):
        return (g * inside,)

    return x.tape._record(out, (x.node_id,), backward_fn, x.requires)


def fd_check(
    f: Callable[..., Tensor],
    params: Sequence[Array],
    h: float = 1e-5,
) -> float:
    """Worst relative error between backward() and central finite differences.

    `f` receives one leaf Tensor per entry of `params` (all requiring grad, on
    a fresh tape) and must return a scalar Tensor. Every parameter entry is
    probed with a central difference of step h.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]

    def run(arrays) -> tuple[float, list[Array]]:
        tape = Tape()
        leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
        out = f(*leaves)
        if out.data.size != 1:
            raise ContractViolation("fd_check target must return a scalar")
        grads = tape.backward(out)
        return float(out.data.reshape(())), [
            grads.get(leaf.node_id, np.zeros_like(a)) for leaf, a in zip(leaves, arrays)
        ]

    def value(arrays) -> float:
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        out = f(*leaves)
        return float(out.data.reshape(()))

    _, analytic = run(params)
    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = value(params)
            flat[j] = orig - h
            down = value(params)
            flat[j] = orig
            fd = (up - down) / (2.0 * h)
            a = analytic[pi].reshape(-1)[j]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst
