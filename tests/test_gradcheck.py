import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt.autodiff import Tensor
from meladapt.gradcheck import NonDeterministicFunction, grad_check


def test_clean_function_passes():
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    report = grad_check(lambda ts: ad.sum_all(ad.mul(ts["x"], ts["x"])), {"x": x})
    assert report.passed
    assert report.max_rel_error < 1e-6
    assert report.n_checked == 4


def test_composite_path():
    rng = np.random.default_rng(17)
    tensors = {
        "x": Tensor(rng.normal(size=(4, 3))),
        "w": Tensor(rng.normal(size=(3, 3))),
        "g": Tensor(rng.normal(size=3)),
    }

    def f(ts):
        h = ad.relu(ad.matmul(ts["x"], ts["w"]))
        h = ad.layer_norm(h, ts["g"], Tensor(np.zeros(3)))
        return ad.mean_all(ad.mul(h, h))

    report = grad_check(f, tensors)
    assert report.passed, str(report)


def test_broken_gradient_detected():
    # op with a deliberately wrong backward: forward x*2, backward claims 3
    def bad_double(t):
        return ad._op(t.data * 2.0, (t, lambda g: 3.0 * g))

    x = Tensor(np.array([1.0, 2.0]))
    report = grad_check(lambda ts: ad.sum_all(bad_double(ts["x"])), {"x": x})
    assert not report.passed
    assert len(report.failures) == 2


def test_nondeterministic_function_rejected():
    state = {"n": 0}

    def f(ts):
        state["n"] += 1
        return ad.smul(ad.sum_all(ts["x"]), float(state["n"]))

    with pytest.raises(NonDeterministicFunction):
        grad_check(f, {"x": Tensor(np.ones(3))})


def test_sampling_limits_probes():
    x = Tensor(np.random.default_rng(0).normal(size=(10, 10)))
    report = grad_check(
        lambda ts: ad.sum_all(ad.mul(ts["x"], ts["x"])),
        {"x": x},
        sample=5,
        rng=np.random.default_rng(1),
    )
    assert report.n_checked == 5
    assert report.passed


def test_report_str_mentions_worst_case():
    x = Tensor(np.array([2.0]))
    report = grad_check(lambda ts: ad.sum_all(ad.mul(ts["x"], ts["x"])), {"x": x})
    text = str(report)
    assert "1" in text  # n_checked appears
