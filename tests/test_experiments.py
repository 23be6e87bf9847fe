import filecmp
import json
import math
from pathlib import Path

import pytest

from meladapt import config as cf
from meladapt import experiments as ex
from meladapt.errors import ConfigError
from meladapt.model import ModelConfig
from meladapt.synthdata import MelOnlyUtterance, OracleSpec

REPO = Path(__file__).resolve().parent.parent


def tiny_config(seed=3):
    return cf.RunConfig(
        model=ModelConfig(phoneme_vocab_size=8, hidden_dim=8, n_heads=2,
                          ffn_filter=12, conv_kernel=3, n_encoder_blocks=1,
                          n_decoder_blocks=1, n_mel_encoder_blocks=1, mel_dim=6,
                          n_speakers=5, speaker_embedding_dim=5, max_duration=10,
                          predictor_kernel=3),
        oracle=OracleSpec(seed=seed, phoneme_vocab_size=8, mel_dim=6,
                          noise_sigma=0.01),
        corpus=cf.CorpusOpts(n_speakers=3, utts_per_speaker=6,
                             n_adapt_speakers=2),
        source=cf.SourceOpts(steps=6, warmup=3),
        align=cf.AlignOpts(steps=4),
        adapt=cf.AdaptOpts(steps=3),
    )


@pytest.fixture(scope="module")
def bench():
    return ex.Workbench(tiny_config(), seed=0)


class TestWorkbench:
    def test_corpora_cover_all_speakers(self, bench):
        assert bench.all_speaker_ids() == [0, 1, 2, 3, 4]
        assert sorted(bench.adapt_corpora) == [3, 4]

    def test_adapt_pool_and_eval_disjoint(self, bench):
        records = bench.adapt_records(3, 5)
        assert len(records) == 5
        assert all(isinstance(r, MelOnlyUtterance) for r in records)
        assert all(r.speaker_id == 3 for r in records)
        evals = bench.eval_utterances(3)
        assert len(evals) == ex.EVAL_COUNT
        pool_ids = {r.utterance_id for r in bench.adapt_records(3, ex.ADAPT_POOL)}
        assert pool_ids.isdisjoint(u.utterance_id for u in evals)
        assert all(u.transcript_present for u in evals)

    def test_pool_size_bounded(self, bench):
        with pytest.raises(ConfigError):
            bench.adapt_records(3, ex.ADAPT_POOL + 1)

    def test_stage_checkpoints_cached(self, bench):
        assert bench.source() is bench.source()
        assert bench.aligned() is bench.aligned()
        assert bench.adapted(3, 2) is bench.adapted(3, 2)
        assert bench.adapted(3, 2) is not bench.adapted(4, 2)

    def test_arm_bases_branch_from_shared_upstream(self, bench):
        a = bench.adapted(3, 2, base="no_l2")
        assert a.provenance["variant"] == "main"
        assert bench.aligned("no_l2").provenance["stage"] == "mel_encoder_aligning"
        joint = bench.adapted(3, 2, base="joint")
        assert joint.provenance["adapted_speaker"] == 3
        with pytest.raises(ConfigError):
            bench.adapted(3, 2, base="mystery")

    def test_evaluate_covers_all_eval_utterances(self, bench):
        vals = bench.evaluate(bench.aligned(), 3)
        assert set(vals) == set(ex.EVAL_METRICS)
        assert len(vals["mel_mae"]) == ex.EVAL_COUNT
        assert all(v >= 0 for v in vals["mel_mae"].values())


class TestRecipes:
    def test_unknown_recipe_rejected(self):
        with pytest.raises(ConfigError):
            ex.run_experiment("mystery", tiny_config())

    def test_paired_recipe_rows(self, tmp_path):
        res = ex.run_experiment("main", tiny_config(), seed=0,
                                out_dir=tmp_path / "run")
        n_eval = 2 * ex.EVAL_COUNT
        assert len(res.report_rows) == n_eval * 2 * len(ex.EVAL_METRICS)
        arms = {r[1] for r in res.report_rows}
        assert arms == {"adapted", "unadapted"}
        assert (tmp_path / "run" / "report.csv").is_file()
        assert (tmp_path / "run" / "effective.cfg").is_file()
        assert len(res.summaries) == len(ex.EVAL_METRICS)

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        ex.run_experiment("main", tiny_config(), seed=7, out_dir=tmp_path / "a")
        ex.run_experiment("main", tiny_config(), seed=7, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_different_seed_changes_corpus(self):
        a = ex.Workbench(tiny_config(), seed=0)
        b = ex.Workbench(tiny_config(), seed=1)
        from meladapt.synthdata import corpus_hash
        assert corpus_hash(a.source_corpus) != corpus_hash(b.source_corpus)

    def test_data_sweep_rows_and_means(self, tmp_path):
        res = ex.run_experiment("data-sweep", tiny_config(), seed=0,
                                out_dir=tmp_path / "sweep")
        assert res.sweep_means is not None
        for metric in ex.EVAL_METRICS:
            assert sorted(res.sweep_means[metric]) == sorted(ex.SWEEP_SIZES)
        arms = {r[1] for r in res.report_rows}
        assert arms == {f"n={n}" for n in ex.SWEEP_SIZES}
        sweep_csv = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "n,mean_mel_mae,mean_proximity"
        assert len(sweep_csv) == 1 + len(ex.SWEEP_SIZES)
        assert [int(line.split(",")[0]) for line in sweep_csv[1:]] == list(
            ex.SWEEP_SIZES)


def _leaves(d, path=()):
    for key, v in d.items():
        if isinstance(v, dict):
            yield from _leaves(v, path + (key,))
        else:
            yield path + (key,), v


def test_reference_record_matches_the_pinned_schema():
    """The record `scripts/run_reference.py --pin` writes and the acceptance
    suite compares has exactly the pinned file's leaves, finite numbers, and
    the same values from two fresh workbenches."""
    pinned = json.loads((REPO / "configs" / "reference_desk.json").read_text())
    record = ex.reference_record(ex.Workbench(tiny_config(), seed=0))
    leaves = dict(_leaves(record))
    assert leaves.keys() == dict(_leaves(pinned)).keys()
    assert all(math.isfinite(v) for v in leaves.values() if not isinstance(v, str))
    assert record == ex.reference_record(ex.Workbench(tiny_config(), seed=0))
