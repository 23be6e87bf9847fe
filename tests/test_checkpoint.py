import numpy as np
import pytest

from meladapt import checkpoint as cp
from meladapt import model as m
from meladapt.errors import CheckpointFormatError, FreezeViolation
from meladapt.optim import AdamState, adam_step
from tests.test_model import TINY


@pytest.fixture
def tiny():
    return m.TtsModel(TINY, seed=42)


def snap(model, **prov):
    return cp.Checkpoint.from_model(model, provenance=prov)


class TestSnapshot:
    def test_from_model_copies(self, tiny):
        ckpt = snap(tiny, stage="initialized")
        tiny.params["mel_out.b"].data[:] = 123.0
        assert not np.any(ckpt.params["mel_out.b"] == 123.0)

    def test_to_model_round_trip(self, tiny):
        ckpt = snap(tiny, stage="initialized")
        rebuilt = ckpt.to_model()
        for n in tiny.params:
            assert np.array_equal(rebuilt.params[n].data, tiny.params[n].data)

    def test_to_model_rejects_renamed_param(self, tiny):
        ckpt = snap(tiny)
        ckpt.params["bogus.w"] = ckpt.params.pop("mel_out.w")
        with pytest.raises(CheckpointFormatError) as e:
            ckpt.to_model()
        assert e.value.code == "unknown-names"


    def test_to_model_rejects_reshaped_param(self, tiny):
        ckpt = snap(tiny)
        ckpt.params["mel_out.b"] = np.zeros((1, TINY.mel_dim))
        with pytest.raises(CheckpointFormatError, match="registry expects"):
            ckpt.to_model()

    def test_to_model_copies_in_registry_order(self, tiny):
        ckpt = snap(tiny)
        ckpt.params = dict(reversed(list(ckpt.params.items())))
        rebuilt = ckpt.to_model()
        assert list(rebuilt.params) == list(tiny.params)
        assert all(t.requires_grad for t in rebuilt.params.values())
        rebuilt.params["mel_out.b"].data[:] = 5.0
        assert not np.any(ckpt.params["mel_out.b"] == 5.0)

    def test_loading_draws_no_random_model(self, tiny, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        cp.save_checkpoint(snap(tiny), path)

        def refuse(*args, **kwargs):
            raise AssertionError("a random model was built")

        monkeypatch.setattr(m.TtsModel, "__init__", refuse)
        rebuilt = cp.load_checkpoint(path).to_model()
        assert np.array_equal(rebuilt.params["speaker_table"].data,
                              tiny.params["speaker_table"].data)


class TestSerialization:
    def test_save_load_save_byte_identical(self, tiny, tmp_path):
        rng = np.random.default_rng(3)
        state = AdamState(learning_rate=0.01)
        grads = {n: np.full(t.shape, 0.1) for n, t in tiny.params.items()}
        adam_step(tiny.params, grads, state)
        ckpt = cp.Checkpoint.from_model(
            tiny, provenance={"stage": "source_training", "steps": 1},
            rng=rng, adam_state=state)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        cp.save_checkpoint(ckpt, p1)
        loaded = cp.load_checkpoint(p1)
        cp.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_state_bitwise_equal(self, tiny, tmp_path):
        ckpt = snap(tiny, stage="source_training", seed=7)
        path = tmp_path / "c.ckpt"
        cp.save_checkpoint(ckpt, path)
        loaded = cp.load_checkpoint(path)
        assert loaded.provenance == {"stage": "source_training", "seed": 7}
        assert loaded.stage == "source_training"
        assert loaded.config == tiny.config
        for n in ckpt.params:
            assert np.array_equal(loaded.params[n], ckpt.params[n])

    def test_rng_state_round_trips(self, tiny, tmp_path):
        rng = np.random.default_rng(9)
        rng.normal(size=100)  # advance
        ckpt = cp.Checkpoint.from_model(tiny, rng=rng)
        path = tmp_path / "r.ckpt"
        cp.save_checkpoint(ckpt, path)
        restored = np.random.default_rng()
        restored.bit_generator.state = cp.load_checkpoint(path).rng_state
        assert np.array_equal(rng.normal(size=5), restored.normal(size=5))

    def test_adam_buffers_round_trip(self, tiny, tmp_path):
        state = AdamState(learning_rate=0.02)
        grads = {n: np.full(t.shape, 0.3) for n, t in tiny.params.items()}
        adam_step(tiny.params, grads, state)
        ckpt = cp.Checkpoint.from_model(tiny, adam_state=state)
        path = tmp_path / "adam.ckpt"
        cp.save_checkpoint(ckpt, path)
        loaded = cp.load_checkpoint(path)
        assert loaded.adam["hyper"]["t"] == 1
        assert np.array_equal(loaded.adam["m"]["mel_out.w"], state.m["mel_out.w"])

    def test_corrupted_magic(self, tiny, tmp_path):
        path = tmp_path / "x.ckpt"
        cp.save_checkpoint(snap(tiny), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError) as e:
            cp.load_checkpoint(path)
        assert e.value.code == "magic"

    def test_corrupted_header_is_an_error_not_a_crash(self, tiny, tmp_path):
        path = tmp_path / "h.ckpt"
        cp.save_checkpoint(snap(tiny), path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            cp.load_checkpoint(path)

    def test_unknown_parameter_name_code(self, tiny, tmp_path):
        ckpt = snap(tiny)
        ckpt.params["mystery.w"] = np.zeros((2, 2))
        path = tmp_path / "u.ckpt"
        cp.save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointFormatError) as e:
            cp.load_checkpoint(path)
        assert e.value.code == "unknown-names"


class TestDiffAndFreeze:
    def test_diff_empty_for_identical(self, tiny):
        assert cp.param_diff(snap(tiny), snap(tiny)) == []

    def test_diff_names_changed_tensor(self, tiny):
        before = snap(tiny)
        tiny.params["dur.out.b"].data += 1e-300  # any bit flip counts
        assert cp.param_diff(before, snap(tiny)) == ["dur.out.b"]

    def test_freeze_passes_for_allowed_change(self, tiny):
        before = snap(tiny)
        tiny.params["melenc.in.w"].data += 0.5
        cp.assert_freeze(before, snap(tiny), allowed_names={"melenc.in.w"})

    def test_freeze_violation_names_offender(self, tiny):
        before = snap(tiny)
        tiny.params["enc.0.attn.wq"].data += 0.5
        with pytest.raises(FreezeViolation, match="enc.0.attn.wq"):
            cp.assert_freeze(before, snap(tiny), allowed_names={"melenc.in.w"},
                             stage="mel_encoder_aligning")

    def test_row_scoped_freeze(self, tiny):
        before = snap(tiny)
        tiny.params["speaker_table"].data[2] += 1.0
        after = snap(tiny)
        cp.assert_freeze(before, after, allowed_names=set(),
                         allowed_rows={"speaker_table": [2]})
        with pytest.raises(FreezeViolation):
            cp.assert_freeze(before, after, allowed_names=set(),
                             allowed_rows={"speaker_table": [1]})

    def test_row_scoped_rejects_other_row_change(self, tiny):
        before = snap(tiny)
        tiny.params["speaker_table"].data[0] += 1.0
        tiny.params["speaker_table"].data[2] += 1.0
        with pytest.raises(FreezeViolation, match="speaker_table"):
            cp.assert_freeze(before, snap(tiny), allowed_names=set(),
                             allowed_rows={"speaker_table": [2]})
