"""Reverse-mode automatic differentiation over float64 numpy buffers.

A `Tensor` wraps an n-dimensional float64 array plus an optional gradient of
the same shape. Operators are pure functions of their inputs; while a `Tape`
is active they append one backward record to it. `backward(loss, tape)`
seeds the scalar loss gradient and replays the records in exact reverse
execution order, accumulating additively into every `requires_grad`
ancestor.

A training step's memory is its tape, so a record keeps only what its
gradient functions read. `conv1d` keeps its input, not the k-fold unfolded
copy its forward pass multiplies; its kernel gradient unfolds the input
again. A tape is replayed once: `backward` pops each record as it replays
it and clears that record's output gradient, so every intermediate array
and gradient is freed as soon as the replay has passed it, and the tape is
empty afterwards. Only tensors that no record produced, the leaves, keep
their gradients.

Every op states three things: its checks, its forward value, and one
gradient function per parent. It hands the value and the `(parent, grad_fn)`
pairs to `_op`, and `_op` and `backward` together are the tape protocol:
- the output tracks iff a tape is active and some parent tracks;
- a tracking output appends exactly one record, `(output, pairs)`, to the
  innermost tape;
- replay pops the record and resets its output's `grad` to None; it does
  nothing more when that output got no gradient `g`;
- otherwise it calls `grad_fn(g)` for each tracking parent, in the order the
  op lists them, and adds the result into that parent's `grad`. A frozen
  parent's gradient is never computed and its `grad` stays None.

A parameter's `grad` may also be a pre-zeroed buffer, its view of a training
stage's gradient arena (`optim.AdamState`); then the first arrival adds into
zeros in place instead of storing a copy. The sums are the same bits, except
that 0.0 + (-0.0) is +0.0 where the copy kept -0.0. For Adam that sign never
reaches an update: `m` and `v` start at +0.0, a float sum is -0.0 only when
both terms are, and with `optim.BETA1` > 0.5 a nonzero `m` never rounds to
zero when scaled, so `m` and `v` never hold -0.0 and adding either zero to
them gives the same value.

One op may list the same parent in several pairs; each adds in its turn.
The gradient functions of one record may share work through `_lazy`, which
computes an intermediate gradient on the first call that needs it. The
fused ops (`attention`, `conditional_layer_norm`) use both to leave one
record where the composed graph of primitive ops left many, with the same
bits: their pairs follow the order in which that graph's replay reached
each parent, and work only a frozen parent needs is never done.

Broadcasting is deliberately narrow: elementwise binary ops accept equal
shapes, or a second operand of shape (d,) or (1, d) broadcast over the rows
of a (T, d) first operand. Anything else raises `ShapeError`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ConfigError, ShapeError

_ACTIVE_TAPES: list["Tape"] = []


class Tensor:
    """Float64 array with an optional same-shaped gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations for one run context.

    Use as a context manager; ops executed inside append their backward
    records here. Nesting pushes/pops a stack, innermost tape records.
    `backward` consumes the tape: it can be replayed once.
    """

    __slots__ = ("_records", "_replayed")

    def __init__(self):
        self._records = []
        self._replayed = False

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE_TAPES.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self._records)


def _op(data, *pairs):
    """Output tensor of one op, recorded by the tape protocol above.

    `pairs` are `(parent, grad_fn)` in the op's accumulation order;
    `grad_fn(g)` maps the output's gradient to that parent's.
    """
    out = Tensor(data)
    if not _ACTIVE_TAPES:
        return out
    for parent, _ in pairs:  # any() over a generator costs more on this per-op path
        if parent.requires_grad:
            break
    else:
        return out
    out.requires_grad = True
    _ACTIVE_TAPES[-1]._records.append((out, pairs))
    return out


def backward(loss, tape):
    """Populate gradients of every tracked ancestor of a scalar loss.

    Replays the tape's records in reverse. Tensors not feeding the loss are
    left untouched (their grad stays None, or zero in a pre-zeroed buffer).
    A parent whose grad is None stores its first gradient as a copy; every
    other arrival, including the first into a pre-zeroed buffer, is added in
    place.

    Each record is popped before it is replayed and its output's grad is
    reset to None, so the record, its saved arrays and that gradient are
    freed as the replay moves on. Afterwards the tape is empty, only leaves
    (tensors no record of it produced) hold gradients, and a second
    `backward` on it raises `RuntimeError`.
    """
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._replayed:
        raise RuntimeError("this tape was already replayed by backward; "
                           "record the graph again on a new tape")
    tape._replayed = True
    loss.grad = np.float64(1.0)
    records = tape._records
    while records:
        out, pairs = records.pop()
        g, out.grad = out.grad, None
        if g is None:
            continue
        for parent, grad_fn in pairs:
            if parent.requires_grad:
                gp = grad_fn(g)
                if parent.grad is None:
                    parent.grad = np.array(gp)  # copy: gp may alias a consumer's buffer
                else:
                    parent.grad += gp


def _broadcast_kind(a_shape, b_shape):
    if a_shape == b_shape:
        return "same"
    if len(a_shape) == 2:
        if len(b_shape) == 1 and b_shape[0] == a_shape[1]:
            return "row1d"
        if len(b_shape) == 2 and b_shape == (1, a_shape[1]):
            return "row2d"
    raise ShapeError(f"incompatible shapes for elementwise op: {a_shape} vs {b_shape}")


def _reduce_to(g, kind):
    if kind == "same":
        return g
    if kind == "row1d":
        return g.sum(axis=0)
    return g.sum(axis=0, keepdims=True)


def add(a, b):
    kind = _broadcast_kind(a.shape, b.shape)
    return _op(a.data + b.data, (a, lambda g: g), (b, lambda g: _reduce_to(g, kind)))


def sub(a, b):
    kind = _broadcast_kind(a.shape, b.shape)
    return _op(a.data - b.data, (a, lambda g: g), (b, lambda g: -_reduce_to(g, kind)))


def mul(a, b):
    kind = _broadcast_kind(a.shape, b.shape)
    return _op(a.data * b.data, (a, lambda g: g * b.data),
               (b, lambda g: _reduce_to(g * a.data, kind)))


def smul(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    return _op(a.data * c, (a, lambda g: g * c))


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _op(a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def transpose(a):
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _op(a.data.T.copy(), (a, lambda g: g.T))


def relu(a):
    mask = a.data > 0
    return _op(np.where(mask, a.data, 0.0), (a, lambda g: g * mask))


def _softmax(a, axis):
    ex = np.exp(a - a.max(axis=axis, keepdims=True))
    return ex / ex.sum(axis=axis, keepdims=True)


def _softmax_grad(s, g, axis):
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def softmax(a, axis):
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    s = _softmax(a.data, axis)
    return _op(s, (a, lambda g: _softmax_grad(s, g, axis)))


LN_EPS = 1e-9


def _normalize(a):
    """Rows of a (T, d) array at zero mean and unit variance: (xhat, 1/std)."""
    if a.ndim != 2:
        raise ShapeError(f"layer_norm expects (T, d), got {a.shape}")
    centered = a - _row_mean(a)
    inv = 1.0 / np.sqrt(_row_mean(centered * centered) + LN_EPS)
    return centered * inv, inv


def _row_mean(a):
    """`a.mean(axis=1, keepdims=True)` of a 2-D array, bit for bit: the same
    row sum and division numpy's mean makes, without its Python overhead."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _normalize_grad(g, xhat, inv):
    """Gradient through `_normalize` of the gradient `g` wrt xhat."""
    m1 = _row_mean(g)
    m2 = _row_mean(g * xhat)
    return inv * (g - m1 - xhat * m2)


def layer_norm(a, gamma, beta):
    """Row-wise normalization xhat of a (T, d) tensor, then xhat * gamma + beta.

    A zero-variance row maps to beta through the `LN_EPS` guard.
    """
    xhat, inv = _normalize(a.data)
    d = a.shape[1]
    if gamma.shape != (d,):
        raise ShapeError(f"gamma shape {gamma.shape} does not match feature dim {d}")
    if beta.shape != (d,):
        raise ShapeError(f"beta shape {beta.shape} does not match feature dim {d}")
    return _op(xhat * gamma.data + beta.data,
               (a, lambda g: _normalize_grad(g * gamma.data, xhat, inv)),
               (gamma, lambda g: (g * xhat).sum(axis=0)),
               (beta, lambda g: g.sum(axis=0)))


@lru_cache(maxsize=256)
def _window_rows(t, k):
    """(t, k) row indices of the k-row windows of a (t + k - 1)-row array."""
    rows = np.arange(t)[:, None] + np.arange(k)
    rows.setflags(write=False)  # shared cache entry
    return rows


def conv1d(a, kernel, bias):
    """Same-padded 1-D convolution over time: (T, d_in) x (k, d_in, d_out) -> (T, d_out).

    Borders are zero-padded; k must be odd so the padding is symmetric. The
    record holds the input and no k-fold unfolded copy of it: the kernel
    gradient, computed only when the kernel trains, unfolds `a.data` again
    into the same bits.
    """
    if kernel.ndim != 3:
        raise ShapeError(f"conv1d kernel must be (k, d_in, d_out), got {kernel.shape}")
    k, d_in, d_out = kernel.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd for same-padding, got {k}")
    if a.ndim != 2 or a.shape[1] != d_in:
        raise ShapeError(f"conv1d input {a.shape} does not match kernel {kernel.shape}")
    if bias.shape != (d_out,):
        raise ShapeError(f"conv1d bias shape {bias.shape} != ({d_out},)")
    t = a.shape[0]
    pad = k // 2
    w2 = kernel.data.reshape(k * d_in, d_out)

    def unfold():
        """The (T, k * d_in) windows of the zero-padded input, laid out
        (T, k, d_in) and flattened to match w2's rows."""
        padded = np.zeros((t + 2 * pad, d_in))
        padded[pad:pad + t] = a.data
        return padded[_window_rows(t, k)].reshape(t, k * d_in)

    def grad_a(g):
        gu = (g @ w2.T).reshape(t, k, d_in)
        gp = np.zeros((t + 2 * pad, d_in))
        for j in range(k):
            gp[j:j + t] += gu[:, j, :]
        return gp[pad:pad + t]

    return _op(unfold() @ w2 + bias.data,
               (kernel, lambda g: (unfold().T @ g).reshape(k, d_in, d_out)), (a, grad_a),
               (bias, lambda g: g.sum(axis=0)))


def _scatter_rows(g, rows, like):
    """Zeros shaped like `like`, with the rows of `g` added at `rows`."""
    out = np.zeros_like(like)
    np.add.at(out, rows, g)
    return out


def embedding(table, ids):
    """Row lookup into a (V, d) table by an integer id array."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ConfigError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return _op(table.data[ids], (table, lambda g: _scatter_rows(g, ids, table.data)))


def gather_rows(a, indices):
    """Select/repeat rows of a (N, d) tensor; backward scatter-adds."""
    indices = np.asarray(indices)
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got {a.shape}")
    return _op(a.data[indices], (a, lambda g: _scatter_rows(g, indices, a.data)))


def slice_cols(a, lo, hi):
    if a.ndim != 2 or not (0 <= lo < hi <= a.shape[1]):
        raise ShapeError(f"slice_cols [{lo}:{hi}] invalid for shape {a.shape}")

    def grad_a(g):
        ga = np.zeros_like(a.data)
        ga[:, lo:hi] = g
        return ga

    return _op(a.data[:, lo:hi].copy(), (a, grad_a))


def concat_cols(parts):
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    rows = {p.shape[0] for p in parts}
    if any(p.ndim != 2 for p in parts) or len(rows) != 1:
        raise ShapeError(f"concat_cols shape mismatch: {[p.shape for p in parts]}")
    offsets = list(accumulate((p.shape[1] for p in parts), initial=0))
    return _op(np.concatenate([p.data for p in parts], axis=1),
               *[(p, lambda g, lo=lo, hi=hi: g[:, lo:hi])
                 for p, lo, hi in zip(parts, offsets, offsets[1:])])


# -- fused ops: one record for what a composed graph of the ops above records
# step by step. Each runs the composed graph's numpy expressions, so values
# and gradients are the same bits, and lists its pairs in the order the
# composed graph's replay reached each parent.


def _lazy(fn):
    """`fn(g)`, computed on the first call for an output gradient `g` and
    reused by the other gradient functions of the same record."""
    memo = [None, None]

    def get(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, fn(g)
        return memo[1]

    return get


def _linear_pairs(x, w, b, grad_out):
    """Pairs of `x @ w + b` given its output's lazy gradient, in the replay
    order of the composed `add(matmul(x, w), b)`: b, then x, then w."""
    return ((b, lambda g: grad_out(g).sum(axis=0)),
            (x, lambda g: grad_out(g) @ w.data.T),
            (w, lambda g: x.data.T @ grad_out(g)))


def _join_heads(parts, shape):
    """A (T, d) gradient from its heads' column blocks, built the way
    `slice_cols` backward and accumulation build it: a single head is copied
    in; several are each added into zeros, which turns a -0.0 into +0.0
    exactly as the accumulation there does."""
    out = np.zeros(shape)
    if len(parts) == 1:
        out[:] = parts[0]
        return out
    dh = shape[1] // len(parts)
    for h, part in enumerate(parts):
        out[:, h * dh:(h + 1) * dh] += part
    return out


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """Multi-head scaled dot-product self-attention over the rows of (T, d) x.

    q, k, v = x @ w + b; head h is softmax(q_h k_h^T / sqrt(d / n_heads)) v_h;
    the output is the concatenated heads @ wo + bo. The same bits as that
    graph of `matmul`, `add`, `slice_cols`, `transpose`, `smul`, `softmax`
    and `concat_cols`, in one record. x gets its three gradients in the
    composed replay order: through v, then k, then q.
    """
    if x.ndim != 2:
        raise ShapeError(f"attention expects (T, d), got {x.shape}")
    t, d = x.shape
    if n_heads < 1 or d % n_heads:
        raise ConfigError(f"hidden size {d} does not split into {n_heads} heads")
    for w in (wq, wk, wv, wo):
        if w.shape != (d, d):
            raise ShapeError(f"attention weight shape {w.shape} for hidden size {d}")
    for b in (bq, bk, bv, bo):
        if b.shape != (d,):
            raise ShapeError(f"attention bias shape {b.shape} for hidden size {d}")
    dh = d // n_heads
    c = dh ** -0.5
    q, k, v = (x.data @ w.data + b.data for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    # contiguous copies, as the composed graph's ops made them: matmul can
    # round differently on a strided view
    saved, heads = [], []  # per head: (q_h, k_h^T, v_h, softmax)
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qs, kt, vs = q[:, cols].copy(), k[:, cols].T.copy(), v[:, cols].copy()
        s = _softmax((qs @ kt) * c, 1)
        saved.append((qs, kt, vs, s))
        heads.append(s @ vs)
    cat = heads[0] if n_heads == 1 else np.concatenate(heads, axis=1)

    @_lazy
    def grad_heads(g):
        gc = g @ wo.data.T
        if n_heads == 1:
            return [gc]
        return [np.array(gc[:, h * dh:(h + 1) * dh]) for h in range(n_heads)]

    @_lazy
    def grad_scores(g):  # per head, wrt q_h k_h^T
        return [_softmax_grad(s, gh @ vs.T, 1) * c
                for (_, _, vs, s), gh in zip(saved, grad_heads(g))]

    @_lazy
    def grad_v(g):
        return _join_heads([s.T @ gh for (_, _, _, s), gh in zip(saved, grad_heads(g))],
                           (t, d))

    @_lazy
    def grad_k(g):
        return _join_heads([(qs.T @ gm).T for (qs, _, _, _), gm in zip(saved, grad_scores(g))],
                           (t, d))

    @_lazy
    def grad_q(g):
        return _join_heads([gm @ kt.T for (_, kt, _, _), gm in zip(saved, grad_scores(g))],
                           (t, d))

    return _op(cat @ wo.data + bo.data,
               (bo, lambda g: g.sum(axis=0)), (wo, lambda g: cat.T @ g),
               *_linear_pairs(x, wv, bv, grad_v), *_linear_pairs(x, wk, bk, grad_k),
               *_linear_pairs(x, wq, bq, grad_q))


def conditional_layer_norm(x, e, w_scale, b_scale, w_bias, b_bias):
    """layer_norm(x) * (e @ w_scale + b_scale) + (e @ w_bias + b_bias).

    x is (T, d) and e one (1, n) conditioning row. The same bits as that
    graph of `matmul`, `add`, `layer_norm` and `mul`, in one record. e gets
    its two gradients in the composed replay order: through the bias map,
    then through the scale map.
    """
    xhat, inv = _normalize(x.data)
    d = x.shape[1]
    if e.ndim != 2 or e.shape[0] != 1:
        raise ShapeError(f"conditioning input must be one (1, n) row, got {e.shape}")
    for w in (w_scale, w_bias):
        if w.shape != (e.shape[1], d):
            raise ShapeError(f"conditioning map shape {w.shape} != {(e.shape[1], d)}")
    for b in (b_scale, b_bias):
        if b.shape != (d,):
            raise ShapeError(f"conditioning offset shape {b.shape} != ({d},)")
    scale = e.data @ w_scale.data + b_scale.data
    bias = e.data @ w_bias.data + b_bias.data
    grad_bias = _lazy(lambda g: g.sum(axis=0, keepdims=True))
    grad_scale = _lazy(lambda g: (g * xhat).sum(axis=0, keepdims=True))
    return _op(xhat * scale + bias,
               (x, lambda g: _normalize_grad(g * scale, xhat, inv)),
               *_linear_pairs(e, w_bias, b_bias, grad_bias),
               *_linear_pairs(e, w_scale, b_scale, grad_scale))


def sum_all(a):
    return _op(a.data.sum(), (a, lambda g: np.full_like(a.data, float(g))))


def mean_all(a):
    n = a.size
    return _op(a.data.sum() / n, (a, lambda g: np.full_like(a.data, float(g) / n)))


def _loss_diff(pred, target):
    """pred - target for a loss over every element: training scores one
    utterance at a time, so no row is padding. The `masked_` names of the
    losses below are historical."""
    if pred.shape != target.shape:
        raise ShapeError(f"loss operands differ in shape: {pred.shape} vs {target.shape}")
    return pred.data - target.data


def masked_mae(pred, target):
    """Mean absolute difference of two same-shaped tensors."""
    diff = _loss_diff(pred, target)
    n = diff.size
    grad = lambda g: np.sign(diff) * (float(g) / n)
    return _op(np.abs(diff).sum() / n, (pred, grad), (target, lambda g: -grad(g)))


def masked_mse(pred, target):
    """Mean squared difference of two same-shaped tensors."""
    diff = _loss_diff(pred, target)
    n = diff.size
    grad = lambda g: diff * (2.0 * float(g) / n)
    return _op((diff * diff).sum() / n, (pred, grad), (target, lambda g: -grad(g)))
