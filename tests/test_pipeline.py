import csv

import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt import checkpoint as cp
from meladapt import melencoder as me
from meladapt import model as m
from meladapt import pipeline as pl
from meladapt import synthdata as sd
from meladapt.autodiff import Tensor
from meladapt.errors import ConfigError, FreezeViolation, NumericError
from meladapt.optim import LrSchedule

SPEC = sd.OracleSpec(seed=1, phoneme_vocab_size=6, mel_dim=4, noise_sigma=0.01)
CFG = m.ModelConfig(phoneme_vocab_size=6, hidden_dim=8, n_heads=2, ffn_filter=12,
                    conv_kernel=3, n_encoder_blocks=1, n_decoder_blocks=1,
                    n_mel_encoder_blocks=1, mel_dim=4, n_speakers=4,
                    speaker_embedding_dim=4, max_duration=10)


@pytest.fixture(scope="module")
def corpus():
    return sd.gen_corpus(SPEC, 3, 10)


@pytest.fixture(scope="module")
def adapt_records():
    return sd.strip_transcripts(sd.gen_corpus(SPEC, 1, 10, first_speaker=3), 3)


@pytest.fixture(scope="module")
def source_ckpt(corpus):
    ckpt, _ = pl.train_source(corpus, CFG, pl.source_plan(steps=30, seed=0))
    return ckpt


@pytest.fixture(scope="module")
def aligned_ckpt(source_ckpt, corpus):
    ckpt, _ = pl.align_mel_encoder(source_ckpt, corpus, pl.align_plan(steps=25, seed=1))
    return ckpt


class TestStagePlan:
    def test_source_trains_all_but_mel_encoder(self):
        plan = pl.source_plan(steps=1)
        assert set(plan.trainable_groups) == set(m.GROUPS) - {"MelEncoder"}

    def test_align_trains_exactly_mel_encoder(self):
        assert set(pl.align_plan(steps=1).trainable_groups) == {"MelEncoder"}

    def test_adapt_trains_cln_and_optionally_row(self):
        assert set(pl.adapt_plan(steps=1).trainable_groups) == {
            "ConditionalLN", "SpeakerTable"}
        assert set(pl.adapt_plan(steps=1, adapt_speaker_row=False).trainable_groups) \
            == {"ConditionalLN"}

    def test_wrong_trainable_set_rejected(self):
        with pytest.raises(ConfigError):
            pl.StagePlan(stage=pl.STAGE_ALIGN, steps=1,
                         trainable_groups=frozenset({"DecoderCore"}))

    def test_joint_variant_trains_everything(self):
        plan = pl.source_plan(steps=1, variant="joint_training")
        assert set(plan.trainable_groups) == set(m.GROUPS)
        assert dict(plan.loss_weights)["alignment"] == 1.0

    def test_no_l2_zeroes_alignment_weight(self):
        plan = pl.align_plan(steps=1, variant="no_l2")
        assert dict(plan.loss_weights)["alignment"] == 0.0
        assert set(plan.trainable_groups) == {"MelEncoder"}

    def test_finetune_variant_extends_adaptation_set(self):
        plan = pl.adapt_plan(steps=1, variant="finetune_mel_encoder_and_decoder")
        assert set(plan.trainable_groups) == {
            "ConditionalLN", "SpeakerTable", "MelEncoder", "DecoderCore"}

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            pl.StagePlan(stage=pl.STAGE_SOURCE, steps=1, variant="mystery",
                         trainable_groups=frozenset(m.GROUPS))


class TestTrainSource:
    def test_step0_metrics_match_fresh_model(self, corpus):
        plan = pl.source_plan(steps=1, batch_size=2, seed=5)
        _, metrics = pl.train_source(corpus, CFG, plan)
        step0 = {n: v for s, st, n, v in metrics if s == 0}
        # replicate the first batch against an untouched model
        model = m.TtsModel(CFG, seed=plan.seed)
        items = corpus.train_split().utterances
        rng = np.random.default_rng(plan.seed)
        picks = rng.integers(0, len(items), size=plan.batch_size)
        mel_losses = []
        for i in picks:
            u = items[i]
            res = m.tts_forward(model, u.phonemes, model.speaker_context(u.speaker_id),
                                durations=u.durations, pitch=u.pitch,
                                mel_target=Tensor(u.mel))
            mel_losses.append(ad.masked_mae(res.mel, Tensor(u.mel)).item())
        assert step0["mel"] == pytest.approx(np.mean(mel_losses), rel=1e-12)

    def test_bitwise_determinism(self, corpus, source_ckpt):
        again, _ = pl.train_source(corpus, CFG, pl.source_plan(steps=30, seed=0))
        assert cp.param_diff(source_ckpt, again) == []

    def test_mel_encoder_untouched(self, corpus, source_ckpt):
        fresh = cp.Checkpoint.from_model(m.TtsModel(CFG, seed=0))
        changed = cp.param_diff(fresh, source_ckpt)
        assert changed, "nothing trained at all"
        assert not any(n.startswith("melenc.") for n in changed)

    def test_seed_changes_result(self, corpus, source_ckpt):
        other, _ = pl.train_source(corpus, CFG, pl.source_plan(steps=30, seed=9))
        assert cp.param_diff(source_ckpt, other) != []

    def test_needs_two_speakers(self):
        solo = sd.gen_corpus(SPEC, 1, 6)
        with pytest.raises(ConfigError):
            pl.train_source(solo, CFG, pl.source_plan(steps=1))

    def test_loss_goes_down(self, corpus):
        _, metrics = pl.train_source(corpus, CFG, pl.source_plan(steps=60, seed=3))
        curve, acc = [], None
        for _, stage, name, value in metrics:
            if stage == pl.STAGE_SOURCE and name == "total":
                acc = value if acc is None else 0.9 * acc + 0.1 * value
                curve.append(acc)
        assert curve[-1] < curve[min(10, len(curve) - 1)]

    def test_provenance_recorded(self, source_ckpt, corpus):
        p = source_ckpt.provenance
        assert p["stage"] == pl.STAGE_SOURCE
        assert p["trained_speakers"] == [0, 1, 2]
        assert p["corpus_hash"] == sd.corpus_hash(corpus)


class TestAlignMelEncoder:
    def test_only_mel_encoder_differs(self, source_ckpt, aligned_ckpt):
        changed = cp.param_diff(source_ckpt, aligned_ckpt)
        assert changed and all(n.startswith("melenc.") for n in changed)

    def test_alignment_strictly_decreases(self, source_ckpt, corpus):
        _, metrics = pl.align_mel_encoder(
            source_ckpt, corpus, pl.align_plan(steps=40, seed=4))
        curve = [v for s, st, n, v in metrics if n == "alignment"]
        assert curve[-1] < curve[0]

    def test_freeze_violation_surfaces(self, source_ckpt, corpus, monkeypatch):
        # simulate a freeze-wiring bug: set_trainable silently enables all
        # groups, so training leaks into frozen parameters and the post-run
        # bitwise audit must abort
        real = m.TtsModel.set_trainable
        monkeypatch.setattr(m.TtsModel, "set_trainable",
                            lambda self, groups: real(self, set(m.GROUPS)))
        with pytest.raises(FreezeViolation):
            pl.align_mel_encoder(source_ckpt, corpus, pl.align_plan(steps=2, seed=1))

    def test_nan_abort_keeps_last_good(self, source_ckpt, corpus):
        bad = cp.Checkpoint(
            config=source_ckpt.config,
            params={n: (np.full_like(a, 1e308) if n == "melenc.in.w" else a.copy())
                    for n, a in source_ckpt.params.items()},
            provenance=dict(source_ckpt.provenance))
        with np.errstate(all="ignore"), pytest.raises(NumericError) as e:
            pl.align_mel_encoder(bad, corpus, pl.align_plan(steps=5))
        assert hasattr(e.value, "last_good")
        assert e.value.last_good.provenance["aborted"] is True
        # nothing was applied: parameters still bitwise equal to the input
        assert cp.param_diff(bad, e.value.last_good) == []


class TestAdaptUntranscribed:
    def test_zero_steps_bitwise_identity(self, aligned_ckpt, adapt_records, tmp_path):
        out, metrics = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                              pl.adapt_plan(steps=0))
        assert metrics == []
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        cp.save_checkpoint(aligned_ckpt, p1)
        cp.save_checkpoint(out, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_diff_confined_to_cln_and_row(self, aligned_ckpt, adapt_records):
        out, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                        pl.adapt_plan(steps=8, seed=2))
        for name in cp.param_diff(aligned_ckpt, out):
            assert ".cln" in name or name == "speaker_table", name
        before = aligned_ckpt.params["speaker_table"]
        after = out.params["speaker_table"]
        assert np.array_equal(before[:3], after[:3])  # source rows frozen
        assert not np.array_equal(before[3], after[3])

    def test_row_flag_off_keeps_table(self, aligned_ckpt, adapt_records):
        out, _ = pl.adapt_untranscribed(
            aligned_ckpt, adapt_records,
            pl.adapt_plan(steps=5, seed=2, adapt_speaker_row=False))
        assert np.array_equal(aligned_ckpt.params["speaker_table"],
                              out.params["speaker_table"])

    def test_transcript_bearing_record_rejected(self, aligned_ckpt, corpus):
        with pytest.raises(ConfigError, match="mel-only"):
            pl.adapt_untranscribed(aligned_ckpt, corpus.of_speaker(0)[:2],
                                   pl.adapt_plan(steps=1))

    def test_record_count_bounds(self, aligned_ckpt, adapt_records):
        with pytest.raises(ConfigError):
            pl.adapt_untranscribed(aligned_ckpt, [], pl.adapt_plan(steps=1))
        too_many = adapt_records * 11  # 110 records
        with pytest.raises(ConfigError):
            pl.adapt_untranscribed(aligned_ckpt, too_many, pl.adapt_plan(steps=1))

    def test_mixed_speakers_rejected(self, aligned_ckpt, corpus):
        mixed = [sd.MelOnlyUtterance(0, 0, corpus.utterances[0].mel),
                 sd.MelOnlyUtterance(1, 0, corpus.utterances[0].mel)]
        with pytest.raises(ConfigError, match="speakers"):
            pl.adapt_untranscribed(aligned_ckpt, mixed, pl.adapt_plan(steps=1))

    def test_field_audit_in_provenance(self, aligned_ckpt, adapt_records):
        out, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                        pl.adapt_plan(steps=3, seed=0))
        assert out.provenance["field_audit"] == ["mel", "speaker_id"]
        assert out.provenance["adapted_speaker"] == 3
        assert 3 in out.provenance["trained_speakers"]

    def test_determinism(self, aligned_ckpt, adapt_records):
        a, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                      pl.adapt_plan(steps=6, seed=2))
        b, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                      pl.adapt_plan(steps=6, seed=2))
        assert cp.param_diff(a, b) == []


# loss functions as they were before the per-stage cache: every sub-graph is
# recomputed on every pick, through the public model and mel-encoder calls


def _uncached_align(model, utt, key, cache):
    mel = Tensor(utt.mel)
    spk = model.speaker_context(utt.speaker_id)
    h_reg = m.length_regulate(m.encode_phonemes(model, utt.phonemes), utt.durations)
    h_mel = me.mel_encoder_forward(model, mel)
    recon = me.reconstruction_forward(model, mel, spk)
    return {"reconstruction": ad.masked_mae(recon, mel),
            "alignment": me.alignment_loss(h_mel, h_reg)}


def _uncached_adapt(model, record, key, cache):
    mel = Tensor(record.mel)
    spk = model.speaker_context(record.speaker_id)
    recon = me.reconstruction_forward(model, mel, spk)
    return {"reconstruction": ad.masked_mae(recon, mel)}


def _ckpt_bytes(ckpt, path):
    cp.save_checkpoint(ckpt, path)
    return path.read_bytes()


class TestFrozenCache:
    def _counting(self, monkeypatch, owner, attr):
        calls = []
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return calls

    @pytest.mark.parametrize("variant", ["main", "finetune_mel_encoder_and_decoder"])
    def test_adapt_bit_exact_with_uncached_loop(self, aligned_ckpt, adapt_records,
                                               variant, monkeypatch, tmp_path):
        plan = pl.adapt_plan(steps=8, seed=2, variant=variant)
        cached, cached_metrics = pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        monkeypatch.setattr(pl, "_adapt_losses", _uncached_adapt)
        plain, plain_metrics = pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        assert cached_metrics == plain_metrics
        assert _ckpt_bytes(cached, tmp_path / "c.ckpt") == \
            _ckpt_bytes(plain, tmp_path / "p.ckpt")

    def test_align_bit_exact_with_uncached_loop(self, source_ckpt, corpus,
                                               monkeypatch, tmp_path):
        plan = pl.align_plan(steps=8, seed=1)
        cached, cached_metrics = pl.align_mel_encoder(source_ckpt, corpus, plan)
        monkeypatch.setattr(pl, "_align_losses", _uncached_align)
        plain, plain_metrics = pl.align_mel_encoder(source_ckpt, corpus, plan)
        assert cached_metrics == plain_metrics
        assert _ckpt_bytes(cached, tmp_path / "c.ckpt") == \
            _ckpt_bytes(plain, tmp_path / "p.ckpt")

    def test_adapt_encodes_each_record_once(self, aligned_ckpt, adapt_records,
                                            monkeypatch):
        calls = self._counting(monkeypatch, me, "mel_encoder_forward")
        plan = pl.adapt_plan(steps=8, seed=2)
        pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        assert 0 < len(calls) <= len(adapt_records) < plan.steps * plan.batch_size

    def test_finetune_recomputes_every_pick(self, aligned_ckpt, adapt_records,
                                            monkeypatch):
        calls = self._counting(monkeypatch, me, "mel_encoder_forward")
        plan = pl.adapt_plan(steps=3, seed=2, variant="finetune_mel_encoder_and_decoder")
        pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        assert len(calls) == plan.steps * plan.batch_size

    def test_align_encodes_phonemes_once_per_record(self, source_ckpt, corpus,
                                                    monkeypatch):
        calls = self._counting(monkeypatch, m, "encode_phonemes")
        plan = pl.align_plan(steps=10, seed=1)
        pl.align_mel_encoder(source_ckpt, corpus, plan)
        n = len(corpus.train_split().utterances)
        assert 0 < len(calls) <= n < plan.steps * plan.batch_size

    def test_consecutive_calls_share_no_entries(self, source_ckpt, aligned_ckpt,
                                                adapt_records, monkeypatch, tmp_path):
        # the second checkpoint's mel encoder is this test's own, so a decoder
        # input kept from any earlier call would change the second result
        fresh = cp.Checkpoint(
            config=aligned_ckpt.config,
            params={n: a * 1.5 if n == "melenc.in.w" else a.copy()
                    for n, a in aligned_ckpt.params.items()},
            provenance=dict(aligned_ckpt.provenance))
        plan = pl.adapt_plan(steps=5, seed=2)
        pl.adapt_untranscribed(source_ckpt, adapt_records, plan)
        second, second_metrics = pl.adapt_untranscribed(fresh, adapt_records, plan)
        monkeypatch.setattr(pl, "_adapt_losses", _uncached_adapt)
        alone, alone_metrics = pl.adapt_untranscribed(fresh, adapt_records, plan)
        assert second_metrics == alone_metrics
        assert _ckpt_bytes(second, tmp_path / "s.ckpt") == \
            _ckpt_bytes(alone, tmp_path / "a.ckpt")


class TestSynthesize:
    def test_deterministic(self, aligned_ckpt):
        a = pl.synthesize(aligned_ckpt, [0, 1, 2], 0)
        b = pl.synthesize(aligned_ckpt, [0, 1, 2], 0)
        assert np.array_equal(a, b)

    def test_frame_count_is_predicted_durations(self, aligned_ckpt):
        mel = pl.synthesize(aligned_ckpt, [0, 1, 2, 3], 0)
        model = aligned_ckpt.to_model()
        h = m.encode_phonemes(model, [0, 1, 2, 3])
        dur = m.durations_from_log(model, m.duration_predictor(model, h))
        assert mel.shape == (int(dur.sum()), CFG.mel_dim)

    def test_unknown_speaker_id_rejected(self, aligned_ckpt):
        with pytest.raises(ConfigError):
            pl.synthesize(aligned_ckpt, [0, 1], 7)

    def test_untrained_speaker_uses_mean_row(self, aligned_ckpt):
        # speaker 3 never trained: must not depend on its random table row
        doctored = cp.Checkpoint(
            config=aligned_ckpt.config,
            params={n: (a + np.where(np.arange(a.shape[0])[:, None] == 3, 99.0, 0.0)
                        if n == "speaker_table" else a.copy())
                    for n, a in aligned_ckpt.params.items()},
            provenance=dict(aligned_ckpt.provenance))
        assert np.array_equal(pl.synthesize(aligned_ckpt, [0, 1], 3),
                              pl.synthesize(doctored, [0, 1], 3))


class TestMetricsIo:
    def test_round_trip(self, tmp_path):
        rows = [(0, "source_training", "mel", 1.5), (1, "source_training", "mel", 1.25)]
        path = tmp_path / "metrics.csv"
        pl.write_metrics(rows, path)
        with open(path, newline="") as fh:
            got = [(int(r["step"]), r["stage"], r["loss_name"], float(r["value"]))
                   for r in csv.DictReader(fh)]
        assert got == rows
