import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt import melencoder as me
from meladapt import model as m
from meladapt.autodiff import Tape, Tensor, backward
from meladapt.errors import ConfigError, ShapeError
from meladapt.gradcheck import grad_check
from tests.test_model import TINY


@pytest.fixture
def tiny():
    return m.TtsModel(TINY, seed=42)


class TestMelEncoderForward:
    @pytest.mark.parametrize("T", [1, 9, 40])
    def test_output_shape(self, tiny, T):
        mel = Tensor(np.random.default_rng(T).normal(size=(T, 4)))
        assert me.mel_encoder_forward(tiny, mel).shape == (T, 8)

    def test_deterministic_bitwise(self, tiny):
        mel = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
        a = me.mel_encoder_forward(tiny, mel)
        b = me.mel_encoder_forward(tiny, Tensor(mel.data.copy()))
        assert np.array_equal(a.data, b.data)

    def test_wrong_mel_dim(self, tiny):
        with pytest.raises(ShapeError):
            me.mel_encoder_forward(tiny, Tensor(np.zeros((4, 7))))

    def test_grad_check(self, tiny):
        mel = Tensor(np.random.default_rng(2).normal(size=(4, 4)))
        picks = {
            "in.w": tiny.params["melenc.in.w"],
            "blk.wq": tiny.params["melenc.0.attn.wq"],
            "blk.k2": tiny.params["melenc.0.ffn.k2"],
        }

        def f(ts):
            h = me.mel_encoder_forward(tiny, mel)
            return ad.mean_all(ad.mul(h, h))

        report = grad_check(f, picks, sample=6, rng=np.random.default_rng(0))
        assert report.passed, str(report)


class TestAlignmentLoss:
    def test_identical_is_zero(self):
        x = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
        assert me.alignment_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_constant_offset_is_c_squared(self):
        x = Tensor(np.random.default_rng(4).normal(size=(6, 8)))
        shifted = Tensor(x.data + 0.75)
        assert me.alignment_loss(shifted, x).item() == pytest.approx(0.75 ** 2, rel=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(7, 8)), rng.normal(size=(7, 8))
        expected = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(7) for j in range(8)
        ) / 56
        got = me.alignment_loss(Tensor(a), Tensor(b)).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_value_symmetric(self):
        rng = np.random.default_rng(6)
        a, b = Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=(4, 8)))
        assert me.alignment_loss(a, b).item() == me.alignment_loss(b, a).item()

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 8)))
        b = Tensor(a.data + 1e-9)
        assert me.alignment_loss(a, b).item() > 0

    def test_gradient_one_sided(self):
        rng = np.random.default_rng(8)
        mel_hidden = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        phon = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        with Tape() as tape:
            loss = me.alignment_loss(mel_hidden, phon)
        backward(loss, tape)
        assert mel_hidden.grad is not None
        assert phon.grad is None  # target side detached by contract

    def test_fully_masked_rejected(self):
        x = Tensor(np.ones((3, 8)))
        with pytest.raises(ConfigError):
            me.alignment_loss(x, x, np.zeros(3, dtype=bool))

    def test_padded_frames_bitwise_neutral(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        plain_a = Tensor(a, requires_grad=True)
        with Tape() as tape:
            plain = me.alignment_loss(plain_a, Tensor(b), np.ones(5, dtype=bool))
        backward(plain, tape)
        pad_a = Tensor(np.vstack([a, rng.normal(size=(3, 8))]), requires_grad=True)
        pad_b = Tensor(np.vstack([b, rng.normal(size=(3, 8))]))
        mask = np.array([True] * 5 + [False] * 3)
        with Tape() as tape:
            padded = me.alignment_loss(pad_a, pad_b, mask)
        backward(padded, tape)
        assert plain.item() == padded.item()
        assert np.array_equal(plain_a.grad, pad_a.grad[:5])
        assert np.all(pad_a.grad[5:] == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            me.alignment_loss(Tensor(np.zeros((3, 8))), Tensor(np.zeros((4, 8))))


class TestReconstructionForward:
    def test_output_shape_matches_input(self, tiny):
        mel = Tensor(np.random.default_rng(10).normal(size=(7, 4)))
        out = me.reconstruction_forward(tiny, mel, tiny.speaker_context(0))
        assert out.shape == mel.shape

    def test_signature_admits_no_phoneme_argument(self):
        import inspect

        for fn, want in ((me.reconstruction_forward,
                          {"model", "mel_in", "speaker", "pitch", "acoustic"}),
                         (me.reconstruction_inputs,
                          {"model", "mel_in", "pitch", "acoustic"})):
            names = set(inspect.signature(fn).parameters)
            assert "phoneme" not in " ".join(names)
            assert "duration" not in " ".join(names)
            assert names == want

    def test_is_decode_of_reconstruction_inputs(self, tiny):
        mel = Tensor(np.random.default_rng(14).normal(size=(6, 4)))
        spk = tiny.speaker_context(1)
        x = me.reconstruction_inputs(tiny, mel)
        assert x.shape == (6, TINY.hidden_dim)
        assert np.array_equal(me.reconstruction_forward(tiny, mel, spk).data,
                              m.decode(tiny, x, spk).data)

    def test_deterministic(self, tiny):
        mel = Tensor(np.random.default_rng(11).normal(size=(5, 4)))
        spk = tiny.speaker_context(2)
        a = me.reconstruction_forward(tiny, mel, spk)
        b = me.reconstruction_forward(tiny, mel, spk)
        assert np.array_equal(a.data, b.data)

    def test_melenc_only_training_sees_zero_grads_elsewhere(self, tiny):
        tiny.set_trainable({"MelEncoder"})
        mel = Tensor(np.random.default_rng(12).normal(size=(5, 4)))
        phon_target = Tensor(np.random.default_rng(13).normal(size=(5, 8)))
        with Tape() as tape:
            h = me.mel_encoder_forward(tiny, mel)
            recon = me.reconstruction_forward(tiny, mel, tiny.speaker_context(0))
            loss = ad.add(me.alignment_loss(h, phon_target),
                          ad.masked_mae(recon, mel))
        backward(loss, tape)
        for name, t in tiny.params.items():
            if name.startswith("melenc."):
                continue
            assert t.grad is None, f"gradient leaked into frozen {name}"
        got_grad = [n for n, t in tiny.params.items()
                    if n.startswith("melenc.") and t.grad is not None]
        assert got_grad, "mel encoder received no gradient at all"
