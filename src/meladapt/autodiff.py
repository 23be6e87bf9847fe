"""Reverse-mode automatic differentiation over float64 numpy buffers.

A `Tensor` wraps an n-dimensional float64 array plus an optional gradient of
the same shape. Operators are pure functions of their inputs; while a `Tape`
is active they append a backward closure to it. `backward(loss, tape)` seeds
the scalar loss gradient and replays the closures in exact reverse execution
order, accumulating additively into every `requires_grad` ancestor.

Broadcasting is deliberately narrow: elementwise binary ops accept equal
shapes, or a second operand of shape (d,) or (1, d) broadcast over the rows
of a (T, d) first operand. Anything else raises `ShapeError`.
"""

from __future__ import annotations

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

    def detach(self):
        """Constant view of the same buffer; never tracked, never mutated by ops."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations for one run context.

    Use as a context manager; ops executed inside record their backward
    closures here. Nesting pushes/pops a stack, innermost tape records.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records = []

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE_TAPES.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self._records)


def _tape():
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.array(g)  # copy: g may alias a consumer's buffer
    else:
        t.grad += g


def _result(data, *parents):
    """Build the output tensor; track it iff a tape is active and any parent tracks."""
    tape = _tape()
    rg = tape is not None and any(p.requires_grad for p in parents)
    return Tensor(data, rg), (tape if rg else None)


def backward(loss, tape, seed=1.0):
    """Populate gradients of every tracked ancestor of a scalar loss.

    Tensors not feeding the loss are left untouched (their grad stays None).
    """
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.float64(seed)
    for record in reversed(tape._records):
        record()


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
    out, tape = _result(a.data + b.data, a, b)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, _reduce_to(g, kind))
        tape._records.append(bw)
    return out


def sub(a, b):
    kind = _broadcast_kind(a.shape, b.shape)
    out, tape = _result(a.data - b.data, a, b)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, -_reduce_to(g, kind))
        tape._records.append(bw)
    return out


def mul(a, b):
    kind = _broadcast_kind(a.shape, b.shape)
    out, tape = _result(a.data * b.data, a, b)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accumulate(a, g * b.data)
            if b.requires_grad:
                _accumulate(b, _reduce_to(g * a.data, kind))
        tape._records.append(bw)
    return out


def smul(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    out, tape = _result(a.data * c, a)
    if tape is not None:
        def bw():
            if out.grad is not None:
                _accumulate(a, out.grad * c)
        tape._records.append(bw)
    return out


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    out, tape = _result(a.data @ b.data, a, b)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)
        tape._records.append(bw)
    return out


def transpose(a):
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    out, tape = _result(a.data.T.copy(), a)
    if tape is not None:
        def bw():
            if out.grad is not None:
                _accumulate(a, out.grad.T)
        tape._records.append(bw)
    return out


def relu(a):
    mask = a.data > 0
    out, tape = _result(np.where(mask, a.data, 0.0), a)
    if tape is not None:
        def bw():
            if out.grad is not None:
                _accumulate(a, out.grad * mask)
        tape._records.append(bw)
    return out


def softmax(a, axis):
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=axis, keepdims=True)
    out, tape = _result(s, a)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            _accumulate(a, s * (g - (g * s).sum(axis=axis, keepdims=True)))
        tape._records.append(bw)
    return out


def layer_norm(a, gamma=None, beta=None, eps=1e-9):
    """Row-wise normalization of a (T, d) tensor, optional affine.

    A zero-variance row maps to zeros through the eps guard.
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    if a.ndim != 2:
        raise ShapeError(f"layer_norm expects (T, d), got {a.shape}")
    d = a.shape[1]
    if gamma is not None and gamma.shape != (d,):
        raise ShapeError(f"gamma shape {gamma.shape} does not match feature dim {d}")
    if beta is not None and beta.shape != (d,):
        raise ShapeError(f"beta shape {beta.shape} does not match feature dim {d}")
    mu = a.data.mean(axis=1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    y = xhat
    if gamma is not None:
        y = y * gamma.data
    if beta is not None:
        y = y + beta.data
    parents = [p for p in (a, gamma, beta) if p is not None]
    out, tape = _result(y, *parents)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            gh = g * gamma.data if gamma is not None else g
            if a.requires_grad:
                m1 = gh.mean(axis=1, keepdims=True)
                m2 = (gh * xhat).mean(axis=1, keepdims=True)
                _accumulate(a, inv * (gh - m1 - xhat * m2))
            if gamma is not None and gamma.requires_grad:
                _accumulate(gamma, (g * xhat).sum(axis=0))
            if beta is not None and beta.requires_grad:
                _accumulate(beta, g.sum(axis=0))
        tape._records.append(bw)
    return out


def conv1d(a, kernel, bias=None):
    """Same-padded 1-D convolution over time: (T, d_in) x (k, d_in, d_out) -> (T, d_out).

    Borders are zero-padded; k must be odd so the padding is symmetric.
    """
    if kernel.ndim != 3:
        raise ShapeError(f"conv1d kernel must be (k, d_in, d_out), got {kernel.shape}")
    k, d_in, d_out = kernel.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd for same-padding, got {k}")
    if a.ndim != 2 or a.shape[1] != d_in:
        raise ShapeError(f"conv1d input {a.shape} does not match kernel {kernel.shape}")
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(f"conv1d bias shape {bias.shape} != ({d_out},)")
    t = a.shape[0]
    pad = k // 2
    padded = np.zeros((t + 2 * pad, d_in))
    padded[pad:pad + t] = a.data
    # windows laid out (T, k, d_in) then flattened to match kernel.reshape(k*d_in, d_out)
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)
    unfolded = np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(t, k * d_in)
    w2 = kernel.data.reshape(k * d_in, d_out)
    y = unfolded @ w2
    if bias is not None:
        y = y + bias.data
    parents = [p for p in (a, kernel, bias) if p is not None]
    out, tape = _result(y, *parents)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            if kernel.requires_grad:
                _accumulate(kernel, (unfolded.T @ g).reshape(k, d_in, d_out))
            if a.requires_grad:
                gu = (g @ w2.T).reshape(t, k, d_in)
                gp = np.zeros_like(padded)
                for j in range(k):
                    gp[j:j + t] += gu[:, j, :]
                _accumulate(a, gp[pad:pad + t])
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g.sum(axis=0))
        tape._records.append(bw)
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
    out, tape = _result(table.data[ids], table)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accumulate(table, gt)
        tape._records.append(bw)
    return out


def gather_rows(a, indices):
    """Select/repeat rows of a (N, d) tensor; backward scatter-adds."""
    indices = np.asarray(indices)
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got {a.shape}")
    out, tape = _result(a.data[indices], a)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            ga = np.zeros_like(a.data)
            np.add.at(ga, indices, g)
            _accumulate(a, ga)
        tape._records.append(bw)
    return out


def slice_cols(a, lo, hi):
    if a.ndim != 2 or not (0 <= lo < hi <= a.shape[1]):
        raise ShapeError(f"slice_cols [{lo}:{hi}] invalid for shape {a.shape}")
    out, tape = _result(a.data[:, lo:hi].copy(), a)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            ga = np.zeros_like(a.data)
            ga[:, lo:hi] = g
            _accumulate(a, ga)
        tape._records.append(bw)
    return out


def concat_cols(parts):
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    rows = {p.shape[0] for p in parts}
    if any(p.ndim != 2 for p in parts) or len(rows) != 1:
        raise ShapeError(f"concat_cols shape mismatch: {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    out, tape = _result(np.concatenate([p.data for p in parts], axis=1), *parts)
    if tape is not None:
        offsets = np.cumsum([0] + widths)
        def bw():
            g = out.grad
            if g is None:
                return
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    _accumulate(p, g[:, lo:hi])
        tape._records.append(bw)
    return out


def sum_all(a):
    out, tape = _result(a.data.sum(), a)
    if tape is not None:
        def bw():
            if out.grad is not None:
                _accumulate(a, np.full_like(a.data, float(out.grad)))
        tape._records.append(bw)
    return out


def mean_all(a):
    n = a.size
    out, tape = _result(a.data.sum() / n, a)
    if tape is not None:
        def bw():
            if out.grad is not None:
                _accumulate(a, np.full_like(a.data, float(out.grad) / n))
        tape._records.append(bw)
    return out


def _masked_selection(pred, target, mask):
    if pred.shape != target.shape:
        raise ShapeError(f"loss operands differ in shape: {pred.shape} vs {target.shape}")
    if mask is None:
        return None, pred.data - target.data, pred.data.size
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (pred.shape[0],):
        raise ShapeError(f"mask shape {mask.shape} != ({pred.shape[0]},)")
    sel = np.flatnonzero(mask)
    if sel.size == 0:
        raise ConfigError("fully-masked input: mean over zero elements is undefined")
    diff = pred.data[sel] - target.data[sel]
    return sel, diff, diff.size


def masked_mae(pred, target, mask=None):
    """Mean absolute difference over unmasked rows. Mask is a bool array over axis 0."""
    sel, diff, n = _masked_selection(pred, target, mask)
    out, tape = _result(np.abs(diff).sum() / n, pred, target)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            core = np.sign(diff) * (float(g) / n)
            if sel is not None:
                full = np.zeros_like(pred.data)
                full[sel] = core
            else:
                full = core
            if pred.requires_grad:
                _accumulate(pred, full)
            if target.requires_grad:
                _accumulate(target, -full)
        tape._records.append(bw)
    return out


def masked_mse(pred, target, mask=None):
    """Mean squared difference over unmasked rows. Mask is a bool array over axis 0."""
    sel, diff, n = _masked_selection(pred, target, mask)
    out, tape = _result((diff * diff).sum() / n, pred, target)
    if tape is not None:
        def bw():
            g = out.grad
            if g is None:
                return
            core = diff * (2.0 * float(g) / n)
            if sel is not None:
                full = np.zeros_like(pred.data)
                full[sel] = core
            else:
                full = core
            if pred.requires_grad:
                _accumulate(pred, full)
            if target.requires_grad:
                _accumulate(target, -full)
        tape._records.append(bw)
    return out


def dropout(a, rate, rng):
    """Inverted dropout; identity when rate is 0."""
    if rate < 0 or rate >= 1:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out, tape = _result(np.where(keep, a.data * scale, 0.0), a)
    if tape is not None:
        def bw():
            if out.grad is not None:
                _accumulate(a, np.where(keep, out.grad * scale, 0.0))
        tape._records.append(bw)
    return out
