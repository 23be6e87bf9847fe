import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt import model as m
from meladapt.autodiff import Tape, Tensor, backward
from meladapt.errors import ConfigError, ShapeError
from meladapt.gradcheck import grad_check

TINY = m.ModelConfig(
    phoneme_vocab_size=6, hidden_dim=8, n_heads=2, ffn_filter=12, conv_kernel=3,
    n_encoder_blocks=1, n_decoder_blocks=1, n_mel_encoder_blocks=1, mel_dim=4,
    n_speakers=3, speaker_embedding_dim=5, max_duration=6,
)


@pytest.fixture
def tiny():
    return m.TtsModel(TINY, m.init_params(TINY, 42))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            m.ModelConfig(hidden_dim=10, n_heads=3)

    def test_even_kernel(self):
        with pytest.raises(ConfigError):
            m.ModelConfig(conv_kernel=8)

    def test_nonpositive(self):
        with pytest.raises(ConfigError):
            m.ModelConfig(mel_dim=0)

    def test_dict_round_trip(self):
        c = m.ModelConfig()
        assert m.ModelConfig.from_dict(c.to_dict()) == c

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            m.ModelConfig.from_dict({"bogus": 1})


class TestPartition:
    def test_exhaustive_and_disjoint(self, tiny):
        labels = m.param_groups(tiny.config)
        assert sorted(labels) == sorted(tiny.params)  # every param in exactly one group
        assert set(labels.values()) == set(m.GROUPS)
        for g in ("PhonemeEncoder", "DurationPredictor", "PitchPredictor",
                  "AcousticCondition", "DecoderCore", "ConditionalLN",
                  "MelLinear", "SpeakerTable", "MelEncoder"):
            assert g in labels.values(), f"group {g} is empty"

    def test_unknown_name_rejected(self, tiny):
        with pytest.raises(ConfigError, match="Nonsense"):
            tiny.set_trainable({"MelEncoder", "Nonsense"})

    def test_param_groups_cover_registry_in_order(self):
        groups = m.param_groups(TINY)
        assert list(groups) == list(m.param_shapes(TINY))
        assert set(groups.values()) == set(m.GROUPS)
        assert [(n, g) for n, _, g, _ in m.param_specs(TINY)] == list(groups.items())
        assert m.param_groups(m.ModelConfig(**TINY.to_dict())) is groups
        with pytest.raises(TypeError):
            groups["mel_out.b"] = "DecoderCore"

    def test_cln_separated_from_decoder_core(self, tiny):
        labels = m.param_groups(tiny.config)
        assert [n for n, g in labels.items() if g == "ConditionalLN"] == \
            [n for n in tiny.params if ".cln" in n]
        assert not any(".cln" in n for n, g in labels.items() if g == "DecoderCore")
        desk = m.param_groups(m.ModelConfig())
        assert [n for n, g in desk.items() if g == "ConditionalLN"] == \
            [n for n in desk if ".cln" in n]

    def test_set_trainable_scopes_grads(self, tiny):
        tiny.set_trainable({"MelEncoder"})
        trn = tiny.trainable_params()
        assert trn and all(n.startswith("melenc.") for n in trn)
        tiny.set_trainable(set(m.GROUPS))
        assert len(tiny.trainable_params()) == len(tiny.params)

    def test_param_shapes_match_built_model(self, tiny):
        shapes = m.param_shapes(TINY)
        assert len(shapes) == len(m.param_specs(TINY))  # names are unique
        assert list(shapes.items()) == [(n, t.shape) for n, t in tiny.params.items()]
        assert m.param_shapes(m.ModelConfig(**TINY.to_dict())) is shapes
        with pytest.raises(TypeError):
            shapes["mel_out.b"] = (1,)

    def test_build_deterministic(self):
        a = m.TtsModel(TINY, m.init_params(TINY, 7))
        b = m.TtsModel(TINY, m.init_params(TINY, 7))
        assert all(np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)


class TestLengthRegulate:
    def test_all_ones_identity_bitwise(self):
        h = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        out = m.length_regulate(h, np.ones(4, dtype=int))
        assert np.array_equal(out.data, h.data)

    def test_hand_expansion(self):
        h = Tensor(np.array([[1.0], [2.0]]))
        out = m.length_regulate(h, np.array([2, 3]))
        np.testing.assert_array_equal(out.data.reshape(-1), [1, 1, 2, 2, 2])

    def test_zero_duration_row_omitted(self):
        h = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = m.length_regulate(h, np.array([1, 0, 2]))
        np.testing.assert_array_equal(out.data.reshape(-1), [1, 3, 3])

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            m.length_regulate(Tensor(np.ones((2, 2))), np.zeros(2, dtype=int))

    def test_grad_is_duration_weighted(self):
        h = Tensor(np.random.default_rng(1).normal(size=(3, 2)), requires_grad=True)
        dur = np.array([2, 1, 4])
        with Tape() as tape:
            loss = ad.sum_all(m.length_regulate(h, dur))
        backward(loss, tape)
        np.testing.assert_array_equal(h.grad, np.tile(dur[:, None], (1, 2)))


class TestFftBlock:
    def test_zeroed_projections_identity(self, tiny):
        for name in ("enc.0.attn.wo", "enc.0.attn.bo", "enc.0.ffn.k2", "enc.0.ffn.b2"):
            tiny.params[name].data[:] = 0.0
        x = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
        out = m.fft_block(x, tiny, "enc.0")
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("T", [1, 5, 17])
    def test_shape_preserved(self, tiny, T):
        x = Tensor(np.random.default_rng(T).normal(size=(T, 8)))
        assert m.fft_block(x, tiny, "enc.0").shape == (T, 8)

    def test_speaker_to_plain_block_rejected(self, tiny):
        spk = tiny.speaker_context(0)
        with pytest.raises(ConfigError):
            m.fft_block(Tensor(np.zeros((3, 8))), tiny, "enc.0", speaker=spk)

    def test_conditional_block_needs_speaker(self, tiny):
        with pytest.raises(ConfigError):
            m.fft_block(Tensor(np.zeros((3, 8))), tiny, "dec.0")

    def test_grad_check_through_block(self, tiny):
        x = Tensor(np.random.default_rng(5).normal(size=(4, 8)))
        picks = {"x": x}
        for name in ("enc.0.attn.wq", "enc.0.ffn.k1", "enc.0.ln1.gamma"):
            picks[name] = tiny.params[name]

        def f(ts):
            return ad.mean_all(ad.mul(m.fft_block(ts["x"], tiny, "enc.0"),
                                      m.fft_block(ts["x"], tiny, "enc.0")))

        report = grad_check(f, picks, sample=6, rng=np.random.default_rng(0))
        assert report.passed, str(report)


class TestConditionalLayerNorm:
    def test_degenerate_equals_plain(self, tiny):
        # built degenerate: zero maps, scale offset 1, bias offset 0
        x = Tensor(np.random.default_rng(7).normal(size=(5, 8)))
        out = m.conditional_layer_norm(x, tiny.speaker_context(1), tiny, "dec.0.cln1")
        np.testing.assert_array_equal(out.data, ad.layer_norm(x).data)

    def test_degenerate_decoder_speaker_invariant(self, tiny):
        x = Tensor(np.random.default_rng(8).normal(size=(6, 8)))
        outs = [m.decode(tiny, x, tiny.speaker_context(s)).data for s in range(3)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])

    def test_nonzero_map_distinguishes_speakers(self, tiny):
        rng = np.random.default_rng(9)
        tiny.params["dec.0.cln1.w_scale"].data[:] = rng.normal(size=(5, 8))
        x = Tensor(rng.normal(size=(4, 8)))
        a = m.conditional_layer_norm(x, tiny.speaker_context(0), tiny, "dec.0.cln1")
        b = m.conditional_layer_norm(x, tiny.speaker_context(2), tiny, "dec.0.cln1")
        assert float(np.abs(a.data - b.data).max()) > 0

    def test_gradients_reach_conditioning_maps(self, tiny):
        rng = np.random.default_rng(10)
        tiny.params["dec.0.cln1.w_scale"].data[:] = rng.normal(size=(5, 8)) * 0.1
        x = Tensor(rng.normal(size=(4, 8)))
        target = Tensor(rng.normal(size=(4, 4)))
        with Tape() as tape:
            loss = ad.masked_mae(m.decode(tiny, x, tiny.speaker_context(1)), target)
        backward(loss, tape)
        for name in ("dec.0.cln1.w_scale", "dec.0.cln1.b_scale",
                     "dec.0.cln1.w_bias", "dec.0.cln1.b_bias"):
            g = tiny.params[name].grad
            assert g is not None and float(np.abs(g).max()) > 0, name

    def test_cln_grad_check(self, tiny):
        rng = np.random.default_rng(11)
        tiny.params["dec.0.cln1.w_scale"].data[:] = rng.normal(size=(5, 8)) * 0.3
        x = Tensor(rng.normal(size=(3, 8)))
        spk = tiny.speaker_context(0)
        picks = {
            "ws": tiny.params["dec.0.cln1.w_scale"],
            "bs": tiny.params["dec.0.cln1.b_scale"],
            "wb": tiny.params["dec.0.cln1.w_bias"],
            "table": tiny.params["speaker_table"],
        }

        def f(ts):
            out = m.conditional_layer_norm(x, tiny.speaker_context(0), tiny, "dec.0.cln1")
            return ad.mean_all(ad.mul(out, out))

        report = grad_check(f, picks, sample=8, rng=np.random.default_rng(1))
        assert report.passed, str(report)


class TestPredictors:
    def test_duration_shapes_and_rounding(self, tiny):
        h = Tensor(np.random.default_rng(12).normal(size=(5, 8)))
        log_dur = m.duration_predictor(tiny, h)
        assert log_dur.shape == (5, 1)
        # ln(3.4 + 1) rounds to 3 frames
        assert m.durations_from_log(tiny, Tensor(np.array([[np.log(4.4)]])))[0] == 3

    def test_rounding_clamps_to_valid_range(self, tiny):
        preds = Tensor(np.array([[-50.0], [50.0]]))
        np.testing.assert_array_equal(m.durations_from_log(tiny, preds), [1, 6])

    def test_pitch_pathway_identity_at_zero(self, tiny):
        h = Tensor(np.random.default_rng(13).normal(size=(7, 8)))
        out = m.pitch_pathway(tiny, h, Tensor(np.zeros((7, 1))))
        assert np.array_equal(out.data, h.data)  # proj bias starts at zero

    def test_pitch_predictor_shape(self, tiny):
        h = Tensor(np.random.default_rng(14).normal(size=(9, 8)))
        assert m.pitch_predictor(tiny, h).shape == (9, 1)

    def test_perfect_prediction_zero_loss(self, tiny):
        target = Tensor(np.random.default_rng(15).normal(size=(6, 1)))
        assert ad.masked_mse(Tensor(target.data.copy()), target).item() == 0.0


class TestAcousticCondition:
    def test_constant_mel_gives_equal_vecs(self, tiny):
        mel = Tensor(np.full((6, 4), 0.7))
        _, vecs = m.acoustic_condition(tiny, mel, np.array([2, 2, 2]))
        assert np.allclose(vecs.data, vecs.data[0])

    def test_single_span_equals_utterance_vec(self, tiny):
        mel = Tensor(np.random.default_rng(16).normal(size=(5, 4)))
        utt, vecs = m.acoustic_condition(tiny, mel, np.array([5]))
        assert np.array_equal(utt.data.reshape(-1), vecs.data[0])

    def test_duration_mismatch_rejected(self, tiny):
        with pytest.raises(ShapeError):
            m.acoustic_condition(tiny, Tensor(np.zeros((5, 4))), np.array([2, 2]))

    def test_predictor_shape(self, tiny):
        h = Tensor(np.random.default_rng(17).normal(size=(4, 8)))
        assert m.acoustic_predict(tiny, h).shape == (4, 8)


class TestTtsForward:
    def test_frame_count_matches_durations(self, tiny):
        dur = np.array([2, 1, 3])
        res = m.tts_forward(tiny, [0, 1, 2], tiny.speaker_context(0), durations=dur,
                            pitch=np.zeros(6))
        assert res.mel.shape == (6, 4)
        assert res.expanded_hidden.shape == (6, 8)

    def test_deterministic(self, tiny):
        spk = tiny.speaker_context(1)
        a = m.tts_forward(tiny, [1, 2], spk, durations=np.array([2, 2]),
                          pitch=np.zeros(4))
        b = m.tts_forward(tiny, [1, 2], spk, durations=np.array([2, 2]),
                          pitch=np.zeros(4))
        assert np.array_equal(a.mel.data, b.mel.data)

    def test_speakers_differ_with_live_conditioning(self, tiny):
        rng = np.random.default_rng(18)
        for i in range(TINY.n_decoder_blocks):
            tiny.params[f"dec.{i}.cln1.w_scale"].data[:] = rng.normal(size=(5, 8)) * 0.5
        dur = np.array([1, 2])
        mels = [
            m.tts_forward(tiny, [3, 4], tiny.speaker_context(s), durations=dur,
                          pitch=np.zeros(3)).mel.data
            for s in (0, 2)
        ]
        assert float(np.sqrt(((mels[0] - mels[1]) ** 2).sum())) > 0

    def test_inference_mode_predicts_everything(self, tiny):
        res = m.tts_forward(tiny, [0, 1, 2, 3], tiny.speaker_context(0))
        assert res.durations.sum() == res.mel.shape[0]
        assert np.all(res.durations >= 1)
        assert res.acoustic_pred is not None and res.acoustic_target is None

    def test_teacher_forcing_supplies_both_acoustic_sides(self, tiny):
        dur = np.array([2, 2])
        mel = Tensor(np.random.default_rng(19).normal(size=(4, 4)))
        res = m.tts_forward(tiny, [1, 5], tiny.speaker_context(0), durations=dur,
                            pitch=np.zeros(4), mel_target=mel)
        assert res.acoustic_target is not None and res.acoustic_pred is not None

    def test_bad_speaker_id(self, tiny):
        with pytest.raises(ConfigError):
            tiny.speaker_context(99)

    def test_full_path_grad_check(self, tiny):
        dur = np.array([2, 1])
        mel = Tensor(np.random.default_rng(20).normal(size=(3, 4)))
        target = Tensor(np.random.default_rng(21).normal(size=(3, 4)))
        picks = {
            "phoneme_embed": tiny.params["phoneme_embed"],
            "enc.0.attn.wv": tiny.params["enc.0.attn.wv"],
            "dur.out.w": tiny.params["dur.out.w"],
            "pitch.proj.w": tiny.params["pitch.proj.w"],
            "acou.dense.w": tiny.params["acou.dense.w"],
            "acou.ext1.kernel": tiny.params["acou.ext1.kernel"],
            "dec.0.ffn.k1": tiny.params["dec.0.ffn.k1"],
            "dec.0.cln2.b_scale": tiny.params["dec.0.cln2.b_scale"],
            "mel_out.w": tiny.params["mel_out.w"],
            "speaker_table": tiny.params["speaker_table"],
        }

        def f(ts):
            res = m.tts_forward(tiny, [0, 3], tiny.speaker_context(1), durations=dur,
                                pitch=np.array([0.1, -0.2, 0.3]), mel_target=mel)
            mel_loss = ad.masked_mae(res.mel, target)
            dur_loss = ad.masked_mse(res.log_duration, Tensor(np.log([[3.0], [2.0]])))
            return ad.add(mel_loss, dur_loss)

        report = grad_check(f, picks, sample=4, rng=np.random.default_rng(2))
        assert report.passed, str(report)
