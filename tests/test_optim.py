import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt import optim
from meladapt import pipeline as pl
from meladapt.autodiff import Tape, Tensor
from meladapt.errors import ConfigError, NumericError, ShapeError
from meladapt.optim import AdamState, adam_step


def step(params, grads, state, **kwargs):
    """One `adam_step` with `grads` (name -> array) written into the arena."""
    state.grad.fill(0.0)
    for name, g in grads.items():
        state.grads[name][...] = g
    adam_step(params, state.grads, state, **kwargs)


def test_zero_grad_is_noop():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    state = AdamState({"w": p}, learning_rate=0.1)
    step({"w": p}, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_single_step_closed_form():
    # fresh state, g=1 everywhere: update reduces to lr*ghat where
    # ghat = (g/(1-b1)) / (sqrt(g^2/(1-b2)) + eps) evaluated at t=1.
    # frozen from a 50-digit evaluation of that expression
    expected_delta = 0.09999999990000007
    p = Tensor(np.array([0.0, 5.0]))
    state = AdamState({"w": p}, learning_rate=0.1)
    step({"w": p}, {"w": np.ones(2)}, state)
    np.testing.assert_allclose(p.data, [-expected_delta, 5.0 - expected_delta], rtol=1e-15)


def test_two_steps_same_gradient_keep_moving():
    p = Tensor(np.array([0.0]))
    state = AdamState({"w": p}, learning_rate=0.1)
    step({"w": p}, {"w": np.ones(1)}, state)
    after_one = p.data.copy()
    step({"w": p}, {"w": np.ones(1)}, state)
    assert p.data[0] < after_one[0] < 0.0
    assert state.t == 2


def _per_tensor_adam(params, grads, state, m, v):
    """The textbook update, one tensor at a time: the reference the arena's
    whole-buffer passes must reproduce bit for bit."""
    b1, b2 = optim.BETA1, optim.BETA2
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        params[name].data -= state.learning_rate * mhat / (np.sqrt(vhat) + optim.EPSILON)


def test_betas_keep_bias_correction_and_signed_zero_argument():
    # 1 - beta**t must stay nonzero, and `autodiff`'s claim that the moments
    # never hold -0.0 needs BETA1 > 0.5
    assert 0.5 < optim.BETA1 < 1
    assert 0 < optim.BETA2 < 1
    assert optim.EPSILON > 0


def test_bitwise_determinism():
    def run():
        rng = np.random.default_rng(77)
        p = Tensor(rng.normal(size=(4, 3)))
        state = AdamState({"w": p}, learning_rate=0.01)
        for _ in range(25):
            step({"w": p}, {"w": rng.normal(size=(4, 3))}, state)
        return p.data

    a, b = run(), run()
    assert np.array_equal(a, b)


def _check_arena_matches_per_tensor_update():
    """12 arena updates against the per-tensor reference, bit for bit, on a
    set that spans more than one `ADAM_CHUNK` and ends in a partial chunk."""
    chunk = optim.ADAM_CHUNK
    rng = np.random.default_rng(5)
    shapes = {"w": (4, 3), "b": (3,), "big": (chunk + 9,), "s": (2, 1, 2)}
    size = sum(int(np.prod(sh)) for sh in shapes.values())
    assert size > chunk and size % chunk
    init = {n: rng.normal(size=sh) for n, sh in shapes.items()}
    packed = {n: Tensor(a) for n, a in init.items()}
    loose = {n: Tensor(a) for n, a in init.items()}
    state = AdamState(packed, learning_rate=0.01)
    assert state._scratch.size == chunk
    ref = AdamState({}, learning_rate=0.01)
    m = {n: np.zeros(sh) for n, sh in shapes.items()}
    v = {n: np.zeros(sh) for n, sh in shapes.items()}
    for _ in range(12):
        grads = {n: rng.normal(size=sh) * rng.choice([0.0, 1e-8, 1.0, 1e3])
                 for n, sh in shapes.items()}
        step(packed, grads, state)
        _per_tensor_adam(loose, grads, ref, m, v)
    for n in shapes:
        assert packed[n].data.tobytes() == loose[n].data.tobytes()
    assert state.m.tobytes() == np.concatenate([m[n].ravel() for n in shapes]).tobytes()
    assert state.v.tobytes() == np.concatenate([v[n].ravel() for n in shapes]).tobytes()


def test_arena_matches_per_tensor_update_bitwise():
    _check_arena_matches_per_tensor_update()


def test_chunk_edges_inside_tensors_change_no_bit(monkeypatch):
    monkeypatch.setattr(optim, "ADAM_CHUNK", 5)
    _check_arena_matches_per_tensor_update()


def test_state_buffers_track_parameters():
    p = Tensor(np.zeros((2, 2)))
    q = Tensor(np.zeros(3))
    params = {"w": p, "b": q}
    state = AdamState(params)
    step(params, {"w": np.ones((2, 2)), "b": np.ones(3)}, state)
    assert state.m.shape == state.v.shape == (7,)
    m, v = state.views(state.m), state.views(state.v)
    assert list(m) == ["w", "b"]
    assert m["w"].shape == (2, 2)
    assert v["b"].shape == (3,)
    # per-name views share the flat moments, laid out in the set's order
    assert np.shares_memory(m["w"], state.m[:4]) and np.shares_memory(v["b"], state.v[4:])
    assert np.all(state.m != 0.0) and np.all(state.v != 0.0)
    # the tensors themselves read and write the parameter and gradient arenas
    assert p.data.base is state.data and q.data.base is state.data
    assert p.grad.base is state.grad and q.grad.base is state.grad
    np.testing.assert_array_equal(state.data[:4], p.data.ravel())


def test_nonfinite_gradient_aborts_before_mutation():
    p = Tensor(np.array([1.0, 2.0]))
    q = Tensor(np.array([3.0]))
    params = {"w": p, "b": q}
    state = AdamState(params, learning_rate=0.1)
    step(params, {"w": np.array([0.5, -0.25]), "b": np.array([1.0])}, state)
    before = {n: t.data.copy() for n, t in params.items()}
    m, v = state.m.copy(), state.v.copy()
    grads = {"w": np.array([0.1, np.nan]), "b": np.array([0.1])}
    with pytest.raises(NumericError, match="'w' \\(group decoder\\)"):
        step(params, grads, state, group_of=lambda n: "decoder")
    # nothing was applied: parameters, moments and t untouched
    for n, t in params.items():
        assert t.data.tobytes() == before[n].tobytes()
    assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
    assert state.t == 1


def test_nonfinite_error_names_first_offender_in_set_order():
    # "w" comes first in the set, though not in sorted order
    params = {"w": Tensor(np.zeros(2)), "b": Tensor(np.zeros(1))}
    state = AdamState(params)
    with pytest.raises(NumericError, match="'w'"):
        step(params, {"w": np.array([0.0, np.inf]), "b": np.array([np.nan])}, state)
    with pytest.raises(NumericError, match="'b'"):
        step(params, {"w": np.zeros(2), "b": np.array([-np.inf])}, state)
    assert state.t == 0


def test_unreached_parameter_gets_zero_update():
    # `q` is trainable but the loss never reads it: backward leaves its
    # arena slice at zero, and a first step moves it by exactly nothing
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    q = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    params = {"p": p, "q": q}
    state = AdamState(params, learning_rate=0.1)
    with Tape() as tape:
        loss = ad.sum_all(ad.smul(p, 2.0))
    ad.backward(loss, tape)
    np.testing.assert_array_equal(p.grad, [[2.0, 2.0]])
    np.testing.assert_array_equal(q.grad, [[0.0, 0.0]])
    adam_step(params, state.grads, state)
    np.testing.assert_array_equal(q.data, [[3.0, 4.0]])
    assert not np.array_equal(p.data, [[1.0, -2.0]])
    assert np.all(state.views(state.m)["q"] == 0.0)
    assert np.all(state.views(state.v)["q"] == 0.0)


def test_nonfinite_error_names_group():
    p = Tensor(np.array([1.0]))
    with pytest.raises(NumericError, match="decoder"):
        step({"w": p}, {"w": np.array([np.inf])}, AdamState({"w": p}),
             group_of=lambda n: "decoder")


def test_shape_mismatch_rejected():
    # gradients come from the state's own arena views, whose shapes are the
    # parameters'; any other mapping is refused
    p = Tensor(np.zeros(3))
    state = AdamState({"w": p})
    with pytest.raises(ShapeError):
        adam_step({"w": p}, {"w": np.zeros(4)}, state)
    with pytest.raises(ShapeError):
        adam_step({"w": p}, dict(state.grads), state)
    assert state.t == 0


def test_missing_grad_key_rejected():
    p, q = Tensor(np.zeros(3)), Tensor(np.zeros(2))
    state = AdamState({"w": p})
    with pytest.raises(ShapeError, match="w"):
        adam_step({}, state.grads, state)
    with pytest.raises(ShapeError, match="x"):
        adam_step({"w": p, "x": q}, state.grads, state)
    assert state.t == 0


# each stage plan's learning rate by kind: source warms up, then decays as
# 1/sqrt(step); align and adapt hold theirs constant
RATE = {"constant": lambda value, warmup: pl.AlignOpts(learning_rate=value),
        "inverse_sqrt": lambda value, warmup: pl.SourceOpts(peak_scale=value, warmup=warmup)}


class TestSchedule:
    def test_constant(self):
        for plan in (pl.AlignOpts(learning_rate=2e-4), pl.AdaptOpts(learning_rate=2e-4)):
            assert plan.lr(1) == plan.lr(10_000) == 2e-4

    def test_inverse_sqrt_warmup_then_decay(self):
        s = pl.SourceOpts(peak_scale=1.0, warmup=100)
        # linear ramp during warmup
        assert s.lr(50) == pytest.approx(50 * 100 ** -1.5)
        # peak at warmup boundary, then decays as step^-1/2
        assert s.lr(100) == pytest.approx(100 ** -0.5)
        assert s.lr(400) == pytest.approx(400 ** -0.5)
        assert s.lr(100) > s.lr(101) > s.lr(400)

    @pytest.mark.parametrize("kind", ["constant", "inverse_sqrt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-12])
    def test_nonfinite_or_negative_value_rejected(self, kind, value):
        with pytest.raises(ConfigError, match="learning rate") as e:
            RATE[kind](value, 10)
        assert e.value.exit_code == 2

    def test_zero_value_allowed(self):
        assert RATE["constant"](0.0, 10).lr(5) == 0.0
        assert RATE["inverse_sqrt"](0.0, 10).lr(5) == 0.0

    def test_warmup_below_one_rejected(self):
        with pytest.raises(ConfigError, match="warmup must be >= 1"):
            pl.SourceOpts(warmup=0)

    def test_monotone_after_warmup(self):
        s = pl.SourceOpts(peak_scale=0.5, warmup=10)
        vals = [s.lr(i) for i in range(10, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
