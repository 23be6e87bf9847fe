"""The fused ops `autodiff.attention` and `autodiff.conditional_layer_norm`
against the graphs of primitive ops they replace.

The oracles below are those graphs, as `model._attention` and
`model.conditional_layer_norm` built them before the fusion. A fused op must
give the same bits: its output and every tracking parent's gradient, signed
zeros included, for any set of tracking parents and when a parent already
holds a gradient from another consumer. It leaves one tape record and never
gives a frozen parent a gradient.
"""

import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt.autodiff import Tape, Tensor
from meladapt.errors import ConfigError, ShapeError
from meladapt.gradcheck import grad_check

T, D, E = 5, 8, 3


def composed_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    dh = x.shape[1] // n_heads
    q = ad.add(ad.matmul(x, wq), bq)
    k = ad.add(ad.matmul(x, wk), bk)
    v = ad.add(ad.matmul(x, wv), bv)
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qs, ks, vs = (ad.slice_cols(t, lo, hi) for t in (q, k, v))
        scores = ad.smul(ad.matmul(qs, ad.transpose(ks)), dh ** -0.5)
        heads.append(ad.matmul(ad.softmax(scores, axis=1), vs))
    cat = heads[0] if len(heads) == 1 else ad.concat_cols(heads)
    return ad.add(ad.matmul(cat, wo), bo)


def composed_conditional_layer_norm(x, e, w_scale, b_scale, w_bias, b_bias):
    scale = ad.add(ad.matmul(e, w_scale), b_scale)
    bias = ad.add(ad.matmul(e, w_bias), b_bias)
    d = x.shape[1]
    return ad.add(ad.mul(ad.layer_norm(x, Tensor(np.ones(d)), Tensor(np.zeros(d))), scale), bias)


ATTENTION = ("x", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
CLN = ("x", "e", "w_scale", "b_scale", "w_bias", "b_bias")
SHAPES = {"x": (T, D), "e": (1, E), "w_scale": (E, D), "w_bias": (E, D)}


def _arrays(names, seed, zero=()):
    """Name -> random array (weights (D, D), biases (D,)); `zero` names are 0."""
    rng = np.random.default_rng(seed)
    out = {}
    for name in names:
        shape = SHAPES.get(name, (D,) if name.startswith("b") else (D, D))
        out[name] = np.zeros(shape) if name in zero else rng.normal(size=shape)
    return out


# op -> (parent names, fused call, composed call); a call takes the parents
OPS = {
    "attention": (ATTENTION, ad.attention, composed_attention),
    "conditional_layer_norm": (CLN, ad.conditional_layer_norm,
                               composed_conditional_layer_norm),
}
INPUTS = {"attention": ("x",), "conditional_layer_norm": ("x", "e")}


def _tracking_sets(op):
    names, inputs = OPS[op][0], INPUTS[op]
    weights = set(names) - set(inputs)
    return ([set(inputs), weights, set(names)]
            + [{n} for n in names] + [set(names) - {n} for n in names])


def _run(op, call, arrays, tracking, extra, other_consumer):
    """Parents and output of `call` under a tape, after backward from
    sum(out * w) (plus sum(p * w_p) for each input p when `other_consumer`,
    recorded after the op so it reaches p first)."""
    names = OPS[op][0]
    parents = [Tensor(arrays[n].copy(), requires_grad=n in tracking) for n in names]
    rng = np.random.default_rng(99)
    with Tape() as tape:
        out = call(*parents, *extra)
        loss = ad.sum_all(ad.mul(out, Tensor(rng.normal(size=out.shape))))
        if other_consumer:
            for p in parents[:len(INPUTS[op])]:
                loss = ad.add(loss, ad.sum_all(ad.mul(p, Tensor(rng.normal(size=p.shape)))))
    ad.backward(loss, tape)
    return parents, out


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and np.asarray(a).tobytes() == np.asarray(b).tobytes()


CASES = ([("attention", (n_heads,)) for n_heads in (1, 2, 4)]
         + [("conditional_layer_norm", ())])


@pytest.mark.parametrize("zero", [(), ("wo", "b_scale", "w_scale")],
                         ids=["random", "zeroed_maps"])
@pytest.mark.parametrize("other_consumer", [False, True])
@pytest.mark.parametrize("op, extra", CASES)
def test_matches_composed_graph_bitwise(op, extra, other_consumer, zero):
    names, fused, composed = OPS[op]
    arrays = _arrays(names, seed=0, zero=zero)
    for tracking in _tracking_sets(op):
        got_parents, got = _run(op, fused, arrays, tracking, extra, other_consumer)
        want_parents, want = _run(op, composed, arrays, tracking, extra, other_consumer)
        assert _same_bits(got.data, want.data)
        for name, p, w in zip(names, got_parents, want_parents):
            assert _same_bits(p.grad, w.grad), (sorted(tracking), name)


@pytest.mark.parametrize("op, extra", CASES)
def test_one_record_and_frozen_parents_stay_none(op, extra):
    names, fused, _ = OPS[op]
    arrays = _arrays(names, seed=3)
    for tracking in _tracking_sets(op):
        parents = [Tensor(arrays[n], requires_grad=n in tracking) for n in names]
        with Tape() as tape:
            out = fused(*parents, *extra)
        assert len(tape) == 1 and out.requires_grad
        with tape:
            loss = ad.sum_all(out)
        ad.backward(loss, tape)
        for name, p in zip(names, parents):
            if name in tracking:
                assert p.grad is not None and p.grad.shape == p.shape
            else:
                assert p.grad is None, name


@pytest.mark.parametrize("op, extra", CASES)
def test_no_record_when_nothing_tracks(op, extra):
    names, fused, _ = OPS[op]
    parents = [Tensor(a) for a in _arrays(names, seed=4).values()]
    with Tape() as tape:
        out = fused(*parents, *extra)
    assert len(tape) == 0 and not out.requires_grad


@pytest.mark.parametrize("op, extra", CASES)
def test_gradient_check(op, extra):
    names, fused, _ = OPS[op]
    ts = {n: Tensor(a) for n, a in _arrays(names, seed=5).items()}

    def f(ts):
        out = fused(*(ts[n] for n in names), *extra)
        return ad.mean_all(ad.mul(out, out))

    report = grad_check(f, ts, sample=6, rng=np.random.default_rng(0))
    assert report.passed, str(report)


def test_attention_shape_checks():
    arrays = _arrays(ATTENTION, seed=6)
    parents = {n: Tensor(a) for n, a in arrays.items()}
    with pytest.raises(ConfigError):
        ad.attention(*parents.values(), 3)
    for name, bad in (("x", (T, D, 1)), ("wk", (D, D + 1)), ("bo", (1, D))):
        broken = dict(parents, **{name: Tensor(np.zeros(bad))})
        with pytest.raises(ShapeError):
            ad.attention(*broken.values(), 2)


def test_conditional_layer_norm_shape_checks():
    parents = {n: Tensor(a) for n, a in _arrays(CLN, seed=7).items()}
    for name, bad in (("x", (D,)), ("e", (2, E)), ("w_bias", (E + 1, D)), ("b_scale", (1, D))):
        broken = dict(parents, **{name: Tensor(np.zeros(bad))})
        with pytest.raises(ShapeError):
            ad.conditional_layer_norm(*broken.values())


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_heads_join_as_slice_cols_accumulates(n_heads):
    """Signed zeros of the head gradients come out as the composed slices'
    backward and accumulation leave them (BLAS rarely yields a -0.0, so the
    op-level comparison above may never meet one)."""
    dh = D // n_heads
    parts = [np.where(np.arange(T * dh).reshape(T, dh) % 3 == 0, -0.0, -1.5 - h)
             for h in range(n_heads)]
    q = Tensor(np.ones((T, D)), requires_grad=True)
    with Tape() as tape:
        loss = None
        for h, part in enumerate(parts):
            term = ad.sum_all(ad.mul(ad.slice_cols(q, h * dh, (h + 1) * dh), Tensor(part)))
            loss = term if loss is None else ad.add(loss, term)
    ad.backward(loss, tape)
    assert _same_bits(ad._join_heads(parts, (T, D)), q.grad)
