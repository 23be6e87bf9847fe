import filecmp
import json
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

    def test_adapt_refuses_transcript_bearing_corpus(self, workdir, capsys):
        code = cli.main(["adapt", "--ckpt", str(workdir / "aligned.ckpt"),
                         "--corpus", str(workdir / "data" / "source.corpus"),
                         "--speaker", "0", "--n-utts", "2",
                         "--out", str(workdir / "never.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "transcript" in err
        assert not (workdir / "never.ckpt").exists()

    def test_adapt_rejects_oversized_request(self, workdir):
        code = cli.main(["adapt", "--ckpt", str(workdir / "aligned.ckpt"),
                         "--corpus", str(workdir / "data"), "--speaker", "3",
                         "--n-utts", "999", "--out", str(workdir / "never.ckpt")])
        assert code == 2

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

    @pytest.mark.parametrize("corrupt", [{"mystery_key": 1}, {"hidden_dim": -1}])
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
