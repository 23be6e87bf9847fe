import dataclasses
import json
import struct

import numpy as np
import pytest

from meladapt import binio
from meladapt import checkpoint as cp
from meladapt import model as m
from meladapt.errors import CheckpointFormatError, FreezeViolation
from meladapt.optim import AdamState, adam_step
from tests.test_model import TINY


@pytest.fixture
def tiny():
    return m.TtsModel(TINY, m.init_params(TINY, 42))


def snap(model, **prov):
    return cp.Checkpoint.from_model(model, provenance=prov)


def write_params(path, params):
    """A checkpoint file holding `params` as they are, checked or not."""
    binio.write_container(path, cp.CKPT_MAGIC, cp.CKPT_VERSION,
                          {"model_config": TINY.to_dict(), "provenance": {}},
                          {f"param.{n}": a for n, a in params.items()})


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

    # a parameter set off the registry never becomes a Checkpoint, so no
    # `to_model` can build from one
    def test_to_model_rejects_renamed_param(self, tiny):
        params = dict(snap(tiny).params)
        params["bogus.w"] = params.pop("mel_out.w")
        with pytest.raises(CheckpointFormatError,
                           match=r"do not match the registry \(extra: \['bogus\.w'\]"):
            cp.Checkpoint(config=TINY, params=params)

    def test_to_model_rejects_reshaped_param(self, tiny):
        params = {**snap(tiny).params, "mel_out.b": np.zeros((1, TINY.mel_dim))}
        with pytest.raises(CheckpointFormatError, match="registry expects"):
            cp.Checkpoint(config=TINY, params=params)

    def test_params_cannot_be_reassigned(self, tiny):
        ckpt = snap(tiny)
        with pytest.raises(TypeError):
            ckpt.params["mel_out.b"] = np.ones(TINY.mel_dim)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ckpt.params = {}
        rebuilt = ckpt.to_model()
        assert np.array_equal(rebuilt.params["mel_out.b"].data, tiny.params["mel_out.b"].data)

    def test_later_writes_to_the_passed_dict_do_not_reach_it(self, tiny):
        params = dict(snap(tiny).params)
        ckpt = cp.Checkpoint(config=TINY, params=params)
        params["mel_out.b"] = np.ones(TINY.mel_dim)
        assert ckpt.params["mel_out.b"] is not params["mel_out.b"]

    def test_to_model_shares_in_registry_order(self, tiny):
        ckpt = cp.Checkpoint(config=TINY,
                             params=dict(reversed(list(snap(tiny).params.items()))))
        before = ckpt.params["mel_out.b"].copy()
        rebuilt = ckpt.to_model()
        assert list(rebuilt.params) == list(tiny.params)
        assert all(t.requires_grad for t in rebuilt.params.values())
        with pytest.raises(ValueError, match="read-only"):
            rebuilt.params["mel_out.b"].data[:] = 5.0
        assert np.array_equal(ckpt.params["mel_out.b"], before)

    def test_to_model_shares_every_array(self, tiny):
        ckpt = snap(tiny)
        rebuilt = ckpt.to_model()
        for name, arr in ckpt.params.items():
            assert np.shares_memory(rebuilt.params[name].data, arr), name

    @pytest.mark.parametrize("source", ["from_model", "load", "hand_built"])
    def test_checkpoint_arrays_are_read_only(self, tiny, tmp_path, source):
        if source == "from_model":
            ckpt = snap(tiny)
        elif source == "load":
            cp.save_checkpoint(snap(tiny), tmp_path / "c.ckpt")
            ckpt = cp.load_checkpoint(tmp_path / "c.ckpt")
        else:
            ckpt = cp.Checkpoint(config=TINY, params={
                n: t.data.copy() for n, t in tiny.params.items()})
        assert not any(a.flags.writeable for a in ckpt.params.values())

    def test_write_to_frozen_parameter_raises(self, tiny):
        ckpt = snap(tiny)
        model = ckpt.to_model()
        model.set_trainable({"MelEncoder"})
        frozen = model.params["mel_out.b"]
        assert not frozen.requires_grad
        with pytest.raises(ValueError, match="read-only"):
            frozen.data += 1.0
        assert np.array_equal(ckpt.params["mel_out.b"], tiny.params["mel_out.b"].data)

    def test_loading_draws_no_random_model(self, tiny, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        cp.save_checkpoint(snap(tiny), path)

        def refuse(*args, **kwargs):
            raise AssertionError("a random model was built")

        monkeypatch.setattr(m, "init_params", refuse)
        rebuilt = cp.load_checkpoint(path).to_model()
        assert np.array_equal(rebuilt.params["speaker_table"].data,
                              tiny.params["speaker_table"].data)


class TestSerialization:
    def test_save_load_save_byte_identical(self, tiny, tmp_path):
        state = AdamState(tiny.params)
        state.grad.fill(0.1)
        adam_step(tiny.params, state.grads, state, lr=0.01)
        ckpt = cp.Checkpoint.from_model(
            tiny, provenance={"stage": "source_training", "steps": 1})
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
        assert loaded.config == tiny.config
        for n in ckpt.params:
            assert np.array_equal(loaded.params[n], ckpt.params[n])

    def test_meta_holds_config_and_provenance_only(self, tiny, tmp_path):
        path = tmp_path / "c.ckpt"
        cp.save_checkpoint(snap(tiny, stage="source_training"), path)
        meta, arrays = binio.read_container(path, cp.CKPT_MAGIC, cp.CKPT_VERSION)
        assert sorted(meta) == ["model_config", "provenance"]
        assert all(n.startswith("param.") for n in arrays)

    def test_older_format_with_null_resume_keys_loads(self, tiny, tmp_path):
        # files written before the resume fields went carry two null meta keys
        ckpt = snap(tiny, stage="source_training", seed=7)
        meta = {"model_config": TINY.to_dict(), "provenance": ckpt.provenance,
                "rng_state": None, "adam_hyper": None}
        path = tmp_path / "old.ckpt"
        binio.write_container(path, cp.CKPT_MAGIC, cp.CKPT_VERSION, meta,
                              {f"param.{n}": a for n, a in ckpt.params.items()})
        loaded = cp.load_checkpoint(path)
        assert loaded.provenance == {"stage": "source_training", "seed": 7}
        assert cp.param_diff(ckpt, loaded) == []
        resaved = tmp_path / "new.ckpt"
        cp.save_checkpoint(loaded, resaved)
        cp.save_checkpoint(cp.load_checkpoint(resaved), tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == resaved.read_bytes()

    def test_resume_arrays_rejected(self, tiny, tmp_path):
        ckpt = snap(tiny)
        arrays = {f"param.{n}": a for n, a in ckpt.params.items()}
        arrays["adam_m.mel_out.b"] = np.zeros(TINY.mel_dim)
        path = tmp_path / "m.ckpt"
        binio.write_container(path, cp.CKPT_MAGIC, cp.CKPT_VERSION,
                              {"model_config": TINY.to_dict(), "provenance": {}}, arrays)
        with pytest.raises(CheckpointFormatError, match="unexpected array 'adam_m.mel_out.b'"):
            cp.load_checkpoint(path)

    def test_corrupted_magic(self, tiny, tmp_path):
        path = tmp_path / "x.ckpt"
        cp.save_checkpoint(snap(tiny), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="does not match expected"):
            cp.load_checkpoint(path)

    def test_corrupted_header_is_an_error_not_a_crash(self, tiny, tmp_path):
        path = tmp_path / "h.ckpt"
        cp.save_checkpoint(snap(tiny), path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            cp.load_checkpoint(path)

    def test_load_rejects_reshaped_param(self, tiny, tmp_path):
        path = tmp_path / "r.ckpt"
        write_params(path, {**snap(tiny).params, "mel_out.b": np.zeros((1, TINY.mel_dim))})
        with pytest.raises(CheckpointFormatError,
                           match=r"r\.ckpt: parameter 'mel_out\.b' .* registry expects"):
            cp.load_checkpoint(path)

    def test_load_rejects_int64_param(self, tiny, tmp_path):
        params = {**snap(tiny).params, "mel_out.b": np.zeros(TINY.mel_dim, dtype=np.int64)}
        path = tmp_path / "i.ckpt"
        write_params(path, params)
        with pytest.raises(CheckpointFormatError, match="int64, not float64"):
            cp.load_checkpoint(path)
        with pytest.raises(CheckpointFormatError, match="int64, not float64"):
            cp.Checkpoint(config=TINY, params=params)

    def test_unknown_parameter_name_rejected(self, tiny, tmp_path):
        path = tmp_path / "u.ckpt"
        write_params(path, {**snap(tiny).params, "mystery.w": np.zeros((2, 2))})
        with pytest.raises(CheckpointFormatError,
                           match=r"u\.ckpt: parameter names do not match the registry "
                                 r"\(extra: \['mystery\.w'\]"):
            cp.load_checkpoint(path)


def _container(header, payload=b""):
    head = json.dumps(header).encode()
    return (cp.CKPT_MAGIC + struct.pack("<I", cp.CKPT_VERSION)
            + struct.pack("<Q", len(head)) + head + payload)


class TestContainerSchema:
    ONE = {"name": "a", "dtype": "f8", "shape": [1]}

    @pytest.mark.parametrize("header", [
        [{"meta": {}, "arrays": []}],                                  # list header
        {"meta": [], "arrays": []},                                    # list meta
        {"meta": {}, "arrays": {"a": ONE}},                            # non-list arrays
        {"meta": {}, "arrays": [{**ONE, "name": 7}]},                  # non-str name
        {"meta": {}, "arrays": [ONE, ONE]},                            # duplicate name
        {"meta": {}, "arrays": [{**ONE, "shape": [1.0]}]},             # float dim
        {"meta": {}, "arrays": [{**ONE, "shape": "1"}]},               # string shape
        {"meta": {}, "arrays": [{**ONE, "shape": [True]}]},            # bool dim
        {"meta": {}, "arrays": [{**ONE, "shape": [-1]}]},              # negative dim
        {"meta": {}, "arrays": [{**ONE, "dtype": ["f8"]}]},            # unhashable dtype
        {"meta": {}, "arrays": ["a"]},                                 # non-object entry
    ])
    def test_malformed_header_is_a_format_error(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_container(header, b"\x00" * 16))
        with pytest.raises(CheckpointFormatError):
            binio.read_container(path, cp.CKPT_MAGIC, cp.CKPT_VERSION)

    @pytest.mark.parametrize("provenance", [["stage"], "source_training", None])
    def test_non_object_provenance_is_a_format_error(self, tiny, tmp_path, provenance):
        path = tmp_path / "p.ckpt"
        binio.write_container(path, cp.CKPT_MAGIC, cp.CKPT_VERSION,
                              {"model_config": TINY.to_dict(), "provenance": provenance},
                              {f"param.{n}": t.data for n, t in tiny.params.items()})
        with pytest.raises(CheckpointFormatError, match="malformed meta"):
            cp.load_checkpoint(path)


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

    def test_diff_matches_a_nan_to_itself(self, tiny):
        tiny.params["phoneme_embed"].data[0, 0] = np.nan
        before = snap(tiny)
        assert cp.param_diff(before, snap(tiny)) == []
        cp.assert_freeze(before, snap(tiny), allowed_names=set())

    def test_diff_names_a_sign_flip_of_zero(self, tiny):
        before = snap(tiny)
        assert tiny.params["dur.out.b"].data[0] == 0.0
        tiny.params["dur.out.b"].data[0] = -0.0
        assert cp.param_diff(before, snap(tiny)) == ["dur.out.b"]

    def test_row_scoped_freeze_is_bitwise(self, tiny):
        table = tiny.params["speaker_table"].data
        table[0, 0] = np.nan
        table[1, 0] = 0.0
        before = snap(tiny)
        table[2] += 1.0
        cp.assert_freeze(before, snap(tiny), allowed_names=set(),
                         allowed_rows={"speaker_table": [2]})
        table[1, 0] = -0.0
        with pytest.raises(FreezeViolation, match="speaker_table"):
            cp.assert_freeze(before, snap(tiny), allowed_names=set(),
                             allowed_rows={"speaker_table": [2]})


class TestInferenceModel:
    def test_built_once_and_shares_every_array(self, tiny):
        ckpt = snap(tiny)
        model = ckpt.inference_model
        assert ckpt.inference_model is model
        for name, t in model.params.items():
            assert t.data is ckpt.params[name]
            assert not t.requires_grad and t.grad is None

    def test_to_model_stays_fresh_and_trainable(self, tiny):
        ckpt = snap(tiny)
        memo = ckpt.inference_model
        fresh = ckpt.to_model()
        assert fresh is not memo and ckpt.to_model() is not fresh
        assert all(t.requires_grad for t in fresh.params.values())
        assert not any(t.requires_grad for t in memo.params.values())

    def test_not_carried_into_a_rebuilt_checkpoint(self, tiny):
        ckpt = snap(tiny)
        memo = ckpt.inference_model
        assert dataclasses.replace(ckpt).inference_model is not memo
