import filecmp
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from meladapt import binio, cli
from meladapt import synthdata as sd
from meladapt.checkpoint import CKPT_MAGIC, CKPT_VERSION, load_checkpoint
from meladapt.evalmetrics import read_report_csv

TINY_CFG = """\
[model]
phoneme_vocab_size = 8
hidden_dim = 8
n_heads = 2
ffn_filter = 12
conv_kernel = 3
n_encoder_blocks = 1
n_decoder_blocks = 1
n_mel_encoder_blocks = 1
mel_dim = 6
n_speakers = 5
speaker_embedding_dim = 5

[oracle]
seed = 11
phoneme_vocab_size = 8
mel_dim = 6

[corpus]
n_speakers = 3
utts_per_speaker = 5
n_adapt_speakers = 2

[source]
steps = 5
warmup = 2

[align]
steps = 4

[adapt]
steps = 3
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One CLI pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cliwork")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    c = str(cfg)
    assert cli.main(["gen-corpus", "--config", c, "--out", str(root / "data")]) == 0
    assert cli.main(["train-source", "--corpus", str(root / "data"),
                     "--config", c, "--out", str(root / "source.ckpt")]) == 0
    assert cli.main(["align-mel-encoder", "--ckpt", str(root / "source.ckpt"),
                     "--corpus", str(root / "data"), "--config", c,
                     "--out", str(root / "aligned.ckpt")]) == 0
    assert cli.main(["adapt", "--ckpt", str(root / "aligned.ckpt"),
                     "--corpus", str(root / "data"), "--speaker", "3",
                     "--n-utts", "4", "--config", c,
                     "--out", str(root / "adapted.ckpt")]) == 0
    return root


class TestPipelineCommands:
    def test_gen_corpus_layout(self, workdir):
        data = workdir / "data"
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["source"]["speakers"] == [0, 1, 2]
        assert sorted(manifest["adaptation"]) == ["3", "4"]
        assert (data / "source.corpus").is_file()
        assert (data / "adapt_3_pool.corpus").is_file()
        assert (data / "adapt_4_eval.corpus").is_file()
        assert (data / "effective.cfg").is_file()

    def test_checkpoints_succeed_each_stage(self, workdir):
        src = load_checkpoint(workdir / "source.ckpt")
        assert src.provenance["stage"] == "source_training"
        adapted = load_checkpoint(workdir / "adapted.ckpt")
        assert adapted.provenance["adapted_speaker"] == 3
        assert adapted.provenance["n_adapt_utterances"] == 4
        # effective config echoed next to file outputs
        assert (workdir / "adapted.ckpt.cfg").is_file()
        assert (workdir / "source.ckpt.metrics.csv").is_file()

    def test_train_source_prints_final_losses(self, workdir, tmp_path, capsys):
        assert cli.main(["train-source", "--corpus", str(workdir / "data"),
                         "--config", str(workdir / "tiny.cfg"),
                         "--out", str(tmp_path / "s.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "final losses: acoustic " in out
        assert f"trained source model (5 steps) -> {tmp_path / 's.ckpt'}" in out

    def test_adapt_refuses_transcript_bearing_corpus(self, workdir, capsys):
        code = cli.main(["adapt", "--ckpt", str(workdir / "aligned.ckpt"),
                         "--corpus", str(workdir / "data" / "source.corpus"),
                         "--speaker", "0", "--n-utts", "2",
                         "--out", str(workdir / "never.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "transcript" in err
        assert not (workdir / "never.ckpt").exists()

    @pytest.mark.parametrize("n_utts", ["999", "-3"])
    def test_adapt_rejects_oversized_request(self, workdir, n_utts):
        code = cli.main(["adapt", "--ckpt", str(workdir / "aligned.ckpt"),
                         "--corpus", str(workdir / "data"), "--speaker", "3",
                         "--n-utts", n_utts, "--out", str(workdir / "never.ckpt")])
        assert code == 2
        assert not (workdir / "never.ckpt").exists()

    def test_align_rejects_nan_learning_rate(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TINY_CFG.replace("[align]\n", "[align]\nlearning_rate = nan\n"))
        code = cli.main(["align-mel-encoder", "--ckpt", str(workdir / "source.ckpt"),
                         "--corpus", str(workdir / "data"), "--config", str(cfg),
                         "--out", str(tmp_path / "never.ckpt")])
        assert code == 2
        assert "learning rate" in capsys.readouterr().err
        assert not (tmp_path / "never.ckpt").exists()

    def test_adapt_zero_steps_still_adapts(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY_CFG.replace("[adapt]\nsteps = 3", "[adapt]\nsteps = 0"))
        out = tmp_path / "zero.ckpt"
        assert cli.main(["adapt", "--ckpt", str(workdir / "aligned.ckpt"),
                         "--corpus", str(workdir / "data"), "--speaker", "3",
                         "--n-utts", "4", "--config", str(cfg), "--out", str(out)]) == 0
        assert "consumed fields: []" in capsys.readouterr().out
        assert load_checkpoint(out).provenance["adapted_speaker"] == 3

    def test_synthesize_writes_mel_container(self, workdir, tmp_path):
        text = tmp_path / "text.txt"
        text.write_text("1 2 3 4 2\n")
        out = tmp_path / "out.mel"
        assert cli.main(["synthesize", "--ckpt", str(workdir / "adapted.ckpt"),
                         "--text-file", str(text), "--speaker", "3",
                         "--out", str(out)]) == 0
        mel, meta = cli.load_mel(out)
        assert mel.shape[1] == 6
        assert mel.shape[0] >= 5
        assert meta["speaker_id"] == 3

    def test_synthesize_rejects_bad_ids(self, workdir, tmp_path):
        text = tmp_path / "bad.txt"
        text.write_text("1 2 99\n")
        assert cli.main(["synthesize", "--ckpt", str(workdir / "adapted.ckpt"),
                         "--text-file", str(text), "--speaker", "3",
                         "--out", str(tmp_path / "x.mel")]) == 2
        text.write_text("one two\n")
        assert cli.main(["synthesize", "--ckpt", str(workdir / "adapted.ckpt"),
                         "--text-file", str(text), "--speaker", "3",
                         "--out", str(tmp_path / "x.mel")]) == 2

    def test_eval_two_arms_writes_report_and_summary(self, workdir, tmp_path):
        report = tmp_path / "report.csv"
        assert cli.main(["eval", "--arms", str(workdir / "adapted.ckpt"),
                         str(workdir / "aligned.ckpt"),
                         "--corpus", str(workdir / "data" / "adapt_3_eval.corpus"),
                         "--report", str(report)]) == 0
        rows = read_report_csv(report)
        arms = {r[1] for r in rows}
        assert arms == {"adapted", "aligned"}
        assert Path(str(report) + ".summary.txt").is_file()

    def test_strip_transcripts_round_trip(self, workdir, tmp_path):
        out = tmp_path / "mel_only.corpus"
        assert cli.main(["strip-transcripts",
                         "--corpus", str(workdir / "data" / "adapt_3_eval.corpus"),
                         "--speaker", "3", "--out", str(out)]) == 0
        records = sd.load_corpus(out)
        assert records and all(isinstance(r, sd.MelOnlyUtterance) for r in records)


class TestExitCodes:
    def test_missing_config_is_exit_2(self, tmp_path):
        assert cli.main(["gen-corpus", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "d")]) == 2

    def test_negative_experiment_seed_is_exit_2(self, tmp_path, capsys):
        code = cli.main(["experiment", "--recipe", "main", "--seed", "-1",
                         "--out", str(tmp_path / "run")])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_checkpoint_file_is_exit_5(self, tmp_path, workdir):
        code = cli.main(["synthesize", "--ckpt", str(tmp_path / "nope.ckpt"),
                         "--text-file", str(tmp_path / "nope.txt"),
                         "--speaker", "0", "--out", str(tmp_path / "x.mel")])
        assert code == 5

    def test_corrupt_checkpoint_is_exit_5(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"BADMAGIC" + b"\x00" * 64)
        code = cli.main(["eval", "--arms", str(bad), "--corpus", str(bad),
                         "--report", str(tmp_path / "r.csv")])
        assert code == 5

    @pytest.mark.parametrize("corrupt", [{"mystery_key": 1}, {"hidden_dim": -1},
                                         {"n_heads": True}])
    def test_corrupt_model_config_is_exit_5(self, workdir, tmp_path, corrupt, capsys):
        meta, arrays = binio.read_container(workdir / "source.ckpt",
                                            CKPT_MAGIC, CKPT_VERSION)
        meta["model_config"].update(corrupt)
        bad = tmp_path / "bad.ckpt"
        binio.write_container(bad, CKPT_MAGIC, CKPT_VERSION, meta, arrays)
        text = tmp_path / "text.txt"
        text.write_text("1 2 3\n")
        code = cli.main(["synthesize", "--ckpt", str(bad), "--text-file", str(text),
                         "--speaker", "0", "--out", str(tmp_path / "x.mel")])
        assert code == 5
        assert "malformed meta" in capsys.readouterr().err

    def test_int64_checkpoint_param_is_exit_5(self, workdir, tmp_path, capsys):
        meta, arrays = binio.read_container(workdir / "source.ckpt",
                                            CKPT_MAGIC, CKPT_VERSION)
        arrays["param.mel_out.b"] = arrays["param.mel_out.b"].astype(np.int64)
        bad = tmp_path / "bad.ckpt"
        binio.write_container(bad, CKPT_MAGIC, CKPT_VERSION, meta, arrays)
        text = tmp_path / "text.txt"
        text.write_text("1 2 3\n")
        code = cli.main(["synthesize", "--ckpt", str(bad), "--text-file", str(text),
                         "--speaker", "0", "--out", str(tmp_path / "x.mel")])
        assert code == 5
        assert "not float64" in capsys.readouterr().err

    def test_nan_checkpoint_param_is_exit_5(self, workdir, tmp_path, capsys):
        meta, arrays = binio.read_container(workdir / "adapted.ckpt",
                                            CKPT_MAGIC, CKPT_VERSION)
        arrays["param.mel_out.b"][0] = np.nan
        bad = tmp_path / "bad.ckpt"
        binio.write_container(bad, CKPT_MAGIC, CKPT_VERSION, meta, arrays)
        text = tmp_path / "text.txt"
        text.write_text("1 2 3\n")
        code = cli.main(["synthesize", "--ckpt", str(bad), "--text-file", str(text),
                         "--speaker", "3", "--out", str(tmp_path / "x.mel")])
        assert code == 5
        assert "array 'param.mel_out.b' holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "x.mel").exists()

    def test_inf_mel_in_mel_only_corpus_is_exit_5(self, workdir, tmp_path, capsys):
        meta, arrays = binio.read_container(workdir / "data" / "adapt_3_pool.corpus",
                                            sd.CORPUS_MAGIC, sd.CORPUS_VERSION)
        assert {r["kind"] for r in meta["records"]} == {"mel_only"}
        arrays["u000001.mel"][2, 0] = np.inf
        bad = tmp_path / "bad.corpus"
        binio.write_container(bad, sd.CORPUS_MAGIC, sd.CORPUS_VERSION, meta, arrays)
        code = cli.main(["adapt", "--ckpt", str(workdir / "aligned.ckpt"),
                         "--corpus", str(bad), "--speaker", "3", "--n-utts", "4",
                         "--out", str(tmp_path / "never.ckpt")])
        assert code == 5
        assert "array 'u000001.mel' holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "never.ckpt").exists()

    # the tiny model's speaker table has 5 rows
    @pytest.mark.parametrize("trained", [5, ["a"], [99], [[1]], [-1], [1.5], [True]])
    def test_corrupt_trained_speakers_is_exit_5(self, workdir, tmp_path, trained, capsys):
        meta, arrays = binio.read_container(workdir / "adapted.ckpt",
                                            CKPT_MAGIC, CKPT_VERSION)
        meta["provenance"]["trained_speakers"] = trained
        bad = tmp_path / "bad.ckpt"
        binio.write_container(bad, CKPT_MAGIC, CKPT_VERSION, meta, arrays)
        text = tmp_path / "text.txt"
        text.write_text("1 2 3\n")
        code = cli.main(["synthesize", "--ckpt", str(bad), "--text-file", str(text),
                         "--speaker", "4", "--out", str(tmp_path / "x.mel")])
        assert code == 5
        assert "trained_speakers" in capsys.readouterr().err
        assert not (tmp_path / "x.mel").exists()

    def test_non_utf8_text_file_is_exit_2(self, workdir, tmp_path, capsys):
        text = tmp_path / "latin1.txt"
        text.write_bytes(b"1 2 \xe9 3\n")
        code = cli.main(["synthesize", "--ckpt", str(workdir / "adapted.ckpt"),
                         "--text-file", str(text), "--speaker", "3",
                         "--out", str(tmp_path / "x.mel")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(text) in err and "UTF-8" in err
        assert not (tmp_path / "x.mel").exists()

    @pytest.mark.parametrize("breakage", ["string_shape", "duplicate_array"])
    def test_malformed_container_header_is_exit_5(self, workdir, tmp_path, breakage,
                                                  capsys):
        blob = (workdir / "source.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20:20 + hlen])
        if breakage == "string_shape":
            header["arrays"][0]["shape"] = str(header["arrays"][0]["shape"])
        else:
            header["arrays"][1]["name"] = header["arrays"][0]["name"]
        head = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:12] + struct.pack("<Q", len(head)) + head
                        + blob[20 + hlen:])
        text = tmp_path / "text.txt"
        text.write_text("1 2 3\n")
        code = cli.main(["synthesize", "--ckpt", str(bad), "--text-file", str(text),
                         "--speaker", "0", "--out", str(tmp_path / "x.mel")])
        assert code == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("breakage", [
        "record_without_kind", "non_object_record", "spec_out_of_range",
        "records_not_a_list", "durations_off_mel_frames", "mel_width_off_spec",
        "string_speaker_id", "float_phonemes", "pitch_one_frame_short",
        "phoneme_without_duration", "phoneme_outside_vocabulary",
        "negative_duration", "int64_mel", "nan_pitch"])
    def test_corrupt_corpus_is_exit_5(self, workdir, tmp_path, breakage, capsys):
        meta, arrays = binio.read_container(workdir / "data" / "adapt_3_eval.corpus",
                                            sd.CORPUS_MAGIC, sd.CORPUS_VERSION)
        if breakage == "record_without_kind":
            del meta["records"][0]["kind"]
        elif breakage == "non_object_record":
            meta["records"][0] = 7
        elif breakage == "spec_out_of_range":
            meta["spec"]["mel_dim"] = -1
        elif breakage == "records_not_a_list":
            meta["records"] = {"0": meta["records"][0]}
        elif breakage == "durations_off_mel_frames":
            arrays["u000000.durations"][0] += 1
        elif breakage == "mel_width_off_spec":
            arrays["u000000.mel"] = arrays["u000000.mel"][:, :-1]
        elif breakage == "nan_pitch":
            arrays["u000000.pitch"][3] = np.nan
        elif breakage == "int64_mel":
            arrays["u000000.mel"] = arrays["u000000.mel"].astype(np.int64)
        elif breakage == "float_phonemes":
            arrays["u000000.phonemes"] = arrays["u000000.phonemes"].astype(np.float64)
        elif breakage == "pitch_one_frame_short":
            arrays["u000000.pitch"] = arrays["u000000.pitch"][:-1]
        elif breakage == "phoneme_without_duration":
            arrays["u000000.phonemes"] = np.append(arrays["u000000.phonemes"], 0)
        elif breakage == "phoneme_outside_vocabulary":
            arrays["u000000.phonemes"][0] = meta["spec"]["phoneme_vocab_size"]
        elif breakage == "negative_duration":  # the sum still fits the mel
            durations = arrays["u000000.durations"]
            durations[0] += durations[1] + 1
            durations[1] = -1
        else:
            meta["records"][0]["speaker_id"] = "3"
        bad = tmp_path / "bad.corpus"
        binio.write_container(bad, sd.CORPUS_MAGIC, sd.CORPUS_VERSION, meta, arrays)
        code = cli.main(["strip-transcripts", "--corpus", str(bad), "--speaker", "3",
                         "--out", str(tmp_path / "out.corpus")])
        assert code == 5
        assert "Traceback" not in capsys.readouterr().err

    # the tiny config's oracle has vocabulary 8 and mel_dim 6
    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("seed", True), ("mel_dim", 6.0), ("phoneme_vocab_size", 8.0),
        ("noise_sigma", True)])
    def test_non_int_corpus_spec_is_exit_5(self, workdir, tmp_path, key, value, capsys):
        meta, arrays = binio.read_container(workdir / "data" / "adapt_3_eval.corpus",
                                            sd.CORPUS_MAGIC, sd.CORPUS_VERSION)
        meta["spec"][key] = value
        bad = tmp_path / "bad.corpus"
        binio.write_container(bad, sd.CORPUS_MAGIC, sd.CORPUS_VERSION, meta, arrays)
        code = cli.main(["eval", "--arms", str(workdir / "adapted.ckpt"),
                         "--corpus", str(bad), "--report", str(tmp_path / "r.csv")])
        assert code == 5
        kind = "a finite real" if key == "noise_sigma" else "an int"
        assert f"{key} must be {kind}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_subcommand_raises_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2


class TestExperimentCommand:
    def test_experiment_seeded_rerun_identical(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["experiment", "--recipe", "main", "--seed", "7",
                             "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
        assert "report.csv" in names
