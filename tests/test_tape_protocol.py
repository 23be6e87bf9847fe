"""The tape protocol that every autodiff op shares: when an output tracks,
how many backward records it leaves, and which parents its record touches.

Every public op the benchmark tracer wraps (`perfbench/spans.py`'s `OPS`)
is covered, so an op added there without a case here fails
`test_every_traced_op_has_a_case`.
"""

import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt.autodiff import Tape, Tensor
from tests.test_tracer import _load_spans

T, D = 4, 3


def _t(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


# op name -> factory of (parents, call); `call(*parents)` runs the op
CASES = {
    "add": lambda: ((_t(T, D), _t(D, seed=1)), lambda a, b: ad.add(a, b)),
    "sub": lambda: ((_t(T, D), _t(1, D, seed=1)), lambda a, b: ad.sub(a, b)),
    "mul": lambda: ((_t(T, D), _t(T, D, seed=1)), lambda a, b: ad.mul(a, b)),
    "smul": lambda: ((_t(T, D),), lambda a: ad.smul(a, 1.5)),
    "matmul": lambda: ((_t(T, D), _t(D, 2, seed=1)), lambda a, b: ad.matmul(a, b)),
    "transpose": lambda: ((_t(T, D),), lambda a: ad.transpose(a)),
    "relu": lambda: ((_t(T, D),), lambda a: ad.relu(a)),
    "softmax": lambda: ((_t(T, D),), lambda a: ad.softmax(a, axis=1)),
    "layer_norm": lambda: ((_t(T, D), _t(D, seed=1), _t(D, seed=2)),
                           lambda a, g, b: ad.layer_norm(a, g, b)),
    "conv1d": lambda: ((_t(T, D), _t(3, D, 2, seed=1), _t(2, seed=2)),
                       lambda a, k, b: ad.conv1d(a, k, b)),
    "embedding": lambda: ((_t(5, D),), lambda w: ad.embedding(w, np.array([0, 2, 2]))),
    "gather_rows": lambda: ((_t(T, D),), lambda a: ad.gather_rows(a, np.array([1, 1, 3]))),
    "slice_cols": lambda: ((_t(T, D),), lambda a: ad.slice_cols(a, 1, 3)),
    "concat_cols": lambda: ((_t(T, D), _t(T, 2, seed=1), _t(T, 1, seed=2)),
                            lambda *ps: ad.concat_cols(list(ps))),
    "sum_all": lambda: ((_t(T, D),), lambda a: ad.sum_all(a)),
    "mean_all": lambda: ((_t(T, D),), lambda a: ad.mean_all(a)),
    "masked_mae": lambda: ((_t(T, D), _t(T, D, seed=1)), lambda p, t: ad.masked_mae(p, t)),
    "masked_mse": lambda: ((_t(T, D), _t(T, D, seed=1)), lambda p, t: ad.masked_mse(p, t)),
}
OPS = sorted(CASES)


def _run(op, tracking):
    """Run `op` under a fresh tape with the parents at `tracking` indices
    tracking; returns (parents, output, tape)."""
    parents, call = CASES[op]()
    for i, p in enumerate(parents):
        p.requires_grad = i in tracking
    with Tape() as tape:
        out = call(*parents)
    return parents, out, tape


def _backprop(out, tape):
    """Backward from sum(out * w) on `tape`, for a fixed constant w; the
    op's own record then sees the output gradient w, which is returned."""
    w = Tensor(np.random.default_rng(9).normal(size=out.shape))
    with tape:
        loss = ad.sum_all(ad.mul(out, w))
    ad.backward(loss, tape)
    return w.data


def test_every_traced_op_has_a_case():
    assert set(CASES) == set(_load_spans().OPS)


@pytest.mark.parametrize("op", OPS)
def test_one_record_when_some_parent_tracks(op):
    n = len(CASES[op]()[0])
    for tracking in [{i} for i in range(n)] + [set(range(n))]:
        _, out, tape = _run(op, tracking)
        assert len(tape) == 1, tracking
        assert out.requires_grad


@pytest.mark.parametrize("op", OPS)
def test_no_record_when_no_parent_tracks(op):
    _, out, tape = _run(op, set())
    assert len(tape) == 0
    assert not out.requires_grad


@pytest.mark.parametrize("op", OPS)
def test_no_tracking_without_a_tape(op):
    parents, call = CASES[op]()
    for p in parents:
        p.requires_grad = True
    out = call(*parents)
    assert not out.requires_grad


@pytest.mark.parametrize("op", [op for op in OPS if len(CASES[op]()[0]) > 1])
def test_frozen_parent_grad_stays_none(op):
    n = len(CASES[op]()[0])
    for frozen in range(n):
        parents, out, tape = _run(op, set(range(n)) - {frozen})
        _backprop(out, tape)
        for i, p in enumerate(parents):
            if i == frozen:
                assert p.grad is None
            else:
                assert p.grad is not None and p.grad.shape == p.shape


@pytest.mark.parametrize("op", OPS)
def test_output_without_gradient_leaves_parents_untouched(op):
    n = len(CASES[op]()[0])
    parents, out, tape = _run(op, set(range(n)))
    unrelated = Tensor(np.ones(2), requires_grad=True)
    with tape:
        loss = ad.sum_all(unrelated)
    ad.backward(loss, tape)
    assert out.grad is None
    assert all(p.grad is None for p in parents)


@pytest.mark.parametrize("op, parts", [
    ("add", lambda g, x: [g, g]),
    ("mul", lambda g, x: [g * x, g * x]),
    ("concat_cols", lambda g, x: [g[:, :D], g[:, D:2 * D], g[:, 2 * D:]]),
])
def test_shared_parent_accumulates_in_listed_order(op, parts):
    """The parent's grad is the first part copied, then each later part
    added in place, in the op's listed order (bitwise)."""
    x = Tensor(np.random.default_rng(3).normal(size=(T, D)), requires_grad=True)
    with Tape() as tape:
        out = ad.concat_cols([x, x, x]) if op == "concat_cols" else getattr(ad, op)(x, x)
    g = _backprop(out, tape)
    first, *rest = parts(g, x.data)
    expected = np.array(first)
    for part in rest:
        expected += part
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("op", OPS)
def test_prezeroed_grad_buffer_is_filled_in_place(op):
    """A parent whose grad is a zeroed buffer, as a stage's arena view is,
    keeps that buffer and gets the copy path's gradient added into it: the
    same bits, with -0.0 turned into +0.0."""
    n = len(CASES[op]()[0])
    parents, out, tape = _run(op, set(range(n)))
    _backprop(out, tape)
    expected = [p.grad + 0.0 for p in parents]
    parents, out, tape = _run(op, set(range(n)))
    buffers = [np.zeros(p.shape) for p in parents]
    for p, buf in zip(parents, buffers):
        p.grad = buf
    _backprop(out, tape)
    for p, buf, want in zip(parents, buffers, expected):
        assert p.grad is buf
        assert buf.tobytes() == want.tobytes()
