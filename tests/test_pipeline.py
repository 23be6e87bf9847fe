import copy
import csv
import gc
from dataclasses import replace

import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt import checkpoint as cp
from meladapt import evalmetrics as ev
from meladapt import experiments as ex
from meladapt import melencoder as me
from meladapt import model as m
from meladapt import pipeline as pl
from meladapt import synthdata as sd
from meladapt.autodiff import Tensor
from meladapt.errors import ConfigError, FreezeViolation, NumericError

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
    ckpt, _ = pl.align_mel_encoder(source_ckpt, corpus, pl.AlignOpts(steps=25, seed=1))
    return ckpt


# every (stage, variant) and the groups its plan trains
_ALL = set(m.GROUPS)
TRAINABLE = [
    (pl.STAGE_SOURCE, "main", _ALL - {"MelEncoder"}),
    (pl.STAGE_SOURCE, "joint_training", _ALL),
    (pl.STAGE_ALIGN, "main", {"MelEncoder"}),
    (pl.STAGE_ALIGN, "no_l2", {"MelEncoder"}),
    (pl.STAGE_ADAPT, "main", {"ConditionalLN", "SpeakerTable"}),
    (pl.STAGE_ADAPT, "finetune_mel_encoder_and_decoder",
     {"ConditionalLN", "SpeakerTable", "MelEncoder", "DecoderCore"}),
]


STAGE_CLASS = {pl.STAGE_SOURCE: pl.SourceOpts, pl.STAGE_ALIGN: pl.AlignOpts,
               pl.STAGE_ADAPT: pl.AdaptOpts}


def _plan(stage, variant):
    return STAGE_CLASS[stage](steps=1, variant=variant)


class TestStagePlan:
    def test_source_trains_all_but_mel_encoder(self):
        plan = pl.source_plan(steps=1)
        assert set(plan.trainable_groups) == set(m.GROUPS) - {"MelEncoder"}

    def test_align_trains_exactly_mel_encoder(self):
        assert set(pl.AlignOpts(steps=1).trainable_groups) == {"MelEncoder"}

    def test_adapt_trains_cln_and_row(self):
        assert set(pl.AdaptOpts(steps=1).trainable_groups) == {
            "ConditionalLN", "SpeakerTable"}

    def test_wrong_trainable_set_rejected(self):
        # the set follows from stage and variant; a plan cannot declare
        # another, nor rename its stage
        with pytest.raises(TypeError):
            pl.AlignOpts(trainable_groups=frozenset({"DecoderCore"}))
        with pytest.raises(TypeError):
            replace(pl.AlignOpts(steps=1), trainable_groups=frozenset({"DecoderCore"}))
        with pytest.raises(TypeError):
            replace(pl.AlignOpts(steps=1), stage=pl.STAGE_ADAPT)

    @pytest.mark.parametrize("stage,variant,groups", TRAINABLE)
    def test_trainable_groups_per_stage_and_variant(self, stage, variant, groups):
        plan = _plan(stage, variant)
        assert plan.trainable_groups == groups
        assert replace(plan, steps=7, batch_size=2).trainable_groups == groups

    def test_table_covers_every_combination(self):
        assert {(s, v) for s, v, _ in TRAINABLE} == {
            (s, v) for s, variants in pl.TRAINS.items() for v in variants}

    @pytest.mark.parametrize("stage,variant", [
        (pl.STAGE_SOURCE, "no_l2"), (pl.STAGE_ALIGN, "joint_training"),
        (pl.STAGE_ADAPT, "no_l2")])
    def test_variant_of_another_stage_rejected(self, stage, variant):
        with pytest.raises(ConfigError):
            _plan(stage, variant)

    def test_joint_variant_trains_everything(self):
        plan = pl.source_plan(steps=1, variant="joint_training")
        assert set(plan.trainable_groups) == set(m.GROUPS)
        assert pl.TRAINS[plan.stage][plan.variant] == (frozenset(m.GROUPS), None)

    def test_no_l2_zeroes_alignment_weight(self):
        plan = pl.AlignOpts(steps=1, variant="no_l2")
        assert pl.TRAINS[plan.stage][plan.variant][1] == "alignment"
        assert set(plan.trainable_groups) == {"MelEncoder"}

    def test_finetune_variant_extends_adaptation_set(self):
        plan = pl.AdaptOpts(steps=1, variant="finetune_mel_encoder_and_decoder")
        assert set(plan.trainable_groups) == {
            "ConditionalLN", "SpeakerTable", "MelEncoder", "DecoderCore"}

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            _plan(pl.STAGE_SOURCE, "mystery")


class TestTrainSource:
    def test_step0_metrics_match_fresh_model(self, corpus):
        plan = pl.source_plan(steps=1, batch_size=2, seed=5)
        _, metrics = pl.train_source(corpus, CFG, plan)
        step0 = {n: v for s, st, n, v in metrics if s == 0}
        # replicate the first batch against an untouched model
        model = m.TtsModel(CFG, m.init_params(CFG, plan.seed))
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
        fresh = cp.Checkpoint.from_model(m.TtsModel(CFG, m.init_params(CFG, 0)))
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
            source_ckpt, corpus, pl.AlignOpts(steps=40, seed=4))
        curve = [v for s, st, n, v in metrics if n == "alignment"]
        assert curve[-1] < curve[0]

    @pytest.mark.parametrize("variant, in_total", [
        ("main", ("reconstruction", "alignment")), ("no_l2", ("reconstruction",))])
    def test_total_counts_each_loss_once(self, source_ckpt, corpus, variant, in_total):
        # no_l2 still records the alignment loss but leaves it out of the total
        _, metrics = pl.align_mel_encoder(
            source_ckpt, corpus, pl.AlignOpts(variant=variant, steps=1))
        step0 = {n: v for s, st, n, v in metrics if s == 0}
        assert step0.keys() == {"reconstruction", "alignment", "total"}
        assert step0["total"] == pytest.approx(sum(step0[n] for n in in_total), rel=1e-12)

    def test_freeze_violation_surfaces(self, source_ckpt, corpus, monkeypatch):
        # simulate a freeze-wiring bug: set_trainable silently enables all
        # groups, so training leaks into frozen parameters and the post-run
        # bitwise audit must abort
        real = m.TtsModel.set_trainable
        monkeypatch.setattr(m.TtsModel, "set_trainable",
                            lambda self, groups: real(self, set(m.GROUPS)))
        with pytest.raises(FreezeViolation):
            pl.align_mel_encoder(source_ckpt, corpus, pl.AlignOpts(steps=2, seed=1))

    def test_nan_abort_keeps_last_good(self, source_ckpt, corpus):
        bad = cp.Checkpoint(
            config=source_ckpt.config,
            params={n: (np.full_like(a, 1e308) if n == "melenc.in.w" else a.copy())
                    for n, a in source_ckpt.params.items()},
            provenance=dict(source_ckpt.provenance))
        with np.errstate(all="ignore"), pytest.raises(NumericError) as e:
            pl.align_mel_encoder(bad, corpus, pl.AlignOpts(steps=5))
        assert hasattr(e.value, "last_good")
        assert e.value.last_good.provenance["aborted"] is True
        # nothing was applied: parameters still bitwise equal to the input
        assert cp.param_diff(bad, e.value.last_good) == []


class TestAdaptUntranscribed:
    def test_zero_steps_fills_zero_shot_row(self, aligned_ckpt, adapt_records):
        # no step runs, yet the output is an adaptation: its provenance and
        # the target's zero-shot row, and nothing else changed
        out, metrics = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                              pl.AdaptOpts(steps=0))
        target = adapt_records[0].speaker_id
        trained = aligned_ckpt.provenance["trained_speakers"]
        assert metrics == []
        assert out.provenance["stage"] == pl.STAGE_ADAPT
        assert out.provenance["field_audit"] == []
        assert out.provenance["adapted_speaker"] == target
        assert out.provenance["trained_speakers"] == sorted(trained + [target])
        assert cp.param_diff(aligned_ckpt, out) == ["speaker_table"]
        before, after = aligned_ckpt.params["speaker_table"], out.params["speaker_table"]
        assert np.array_equal(after[target], pl._zero_shot_row(before, trained))
        others = [i for i in range(len(before)) if i != target]
        assert np.array_equal(after[others], before[others])

    def test_diff_confined_to_cln_and_row(self, aligned_ckpt, adapt_records):
        out, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                        pl.AdaptOpts(steps=8, seed=2))
        for name in cp.param_diff(aligned_ckpt, out):
            assert ".cln" in name or name == "speaker_table", name
        before = aligned_ckpt.params["speaker_table"]
        after = out.params["speaker_table"]
        assert np.array_equal(before[:3], after[:3])  # source rows frozen
        assert not np.array_equal(before[3], after[3])

    def test_other_speaker_row_change_is_a_freeze_violation(self, aligned_ckpt,
                                                            adapt_records, monkeypatch):
        # a loss wired to a source speaker's row trains a row the audit forbids
        def wrong_row(model, record, key, cache):
            mel = Tensor(record.mel)
            recon = m.decode(model, me.reconstruction_inputs(model, mel),
                             model.speaker_context(0))
            return {"reconstruction": ad.masked_mae(recon, mel)}

        monkeypatch.setattr(pl, "_adapt_losses", wrong_row)
        with pytest.raises(FreezeViolation, match="speaker_table"):
            pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                   pl.AdaptOpts(steps=2, seed=2))

    def test_nan_in_an_array_it_never_touches_passes_the_audit(self, aligned_ckpt,
                                                               adapt_records):
        # the audit compares bits, and a NaN's bits match themselves
        embed = aligned_ckpt.params["phoneme_embed"].copy()
        embed[0, 0] = np.nan
        start = cp.Checkpoint(aligned_ckpt.config,
                              {**aligned_ckpt.params, "phoneme_embed": embed},
                              aligned_ckpt.provenance)
        out, _ = pl.adapt_untranscribed(start, adapt_records,
                                        pl.AdaptOpts(steps=2, seed=2))
        assert "phoneme_embed" not in cp.param_diff(start, out)

    def test_transcript_bearing_record_rejected(self, aligned_ckpt, corpus):
        with pytest.raises(ConfigError, match="mel-only"):
            pl.adapt_untranscribed(aligned_ckpt, corpus.of_speaker(0)[:2],
                                   pl.AdaptOpts(steps=1))

    def test_record_count_bounds(self, aligned_ckpt, adapt_records):
        with pytest.raises(ConfigError):
            pl.adapt_untranscribed(aligned_ckpt, [], pl.AdaptOpts(steps=1))
        too_many = adapt_records * 11  # 110 records
        with pytest.raises(ConfigError):
            pl.adapt_untranscribed(aligned_ckpt, too_many, pl.AdaptOpts(steps=1))

    def test_mixed_speakers_rejected(self, aligned_ckpt, corpus):
        mixed = [sd.MelOnlyUtterance(0, 0, corpus.utterances[0].mel),
                 sd.MelOnlyUtterance(1, 0, corpus.utterances[0].mel)]
        with pytest.raises(ConfigError, match="speakers"):
            pl.adapt_untranscribed(aligned_ckpt, mixed, pl.AdaptOpts(steps=1))

    def test_field_audit_in_provenance(self, aligned_ckpt, adapt_records):
        out, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                        pl.AdaptOpts(steps=3, seed=0))
        assert out.provenance["field_audit"] == ["mel", "speaker_id"]
        assert out.provenance["adapted_speaker"] == 3
        assert 3 in out.provenance["trained_speakers"]

    def test_determinism(self, aligned_ckpt, adapt_records):
        a, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                      pl.AdaptOpts(steps=6, seed=2))
        b, _ = pl.adapt_untranscribed(aligned_ckpt, adapt_records,
                                      pl.AdaptOpts(steps=6, seed=2))
        assert cp.param_diff(a, b) == []


# loss functions as they were before the per-stage cache: every sub-graph is
# recomputed on every pick, through the public model and mel-encoder calls;
# align builds both of its losses from one mel-encoder latent


class TestInputCheckpointUntouched:
    """Stages read their input checkpoint and never write into it. Each test
    runs on its own copy of a fixture, so an earlier test's write (the same
    zero-shot row, say) cannot hide this one's."""

    @staticmethod
    def _own(ckpt):
        return cp.Checkpoint(config=ckpt.config,
                             params={n: a.copy() for n, a in ckpt.params.items()},
                             provenance=copy.deepcopy(ckpt.provenance))

    @staticmethod
    def _assert_untouched(ckpt, run):
        before = {n: a.copy() for n, a in ckpt.params.items()}
        out = run()
        assert ckpt.params.keys() == before.keys()
        for name, arr in before.items():
            assert np.array_equal(ckpt.params[name], arr), name
        return out

    def test_align(self, source_ckpt, corpus):
        ckpt = self._own(source_ckpt)
        self._assert_untouched(ckpt, lambda: pl.align_mel_encoder(
            ckpt, corpus, pl.AlignOpts(steps=3, seed=1)))

    def test_adapt_zero_shot_row(self, aligned_ckpt, adapt_records):
        ckpt = self._own(aligned_ckpt)
        plan = pl.AdaptOpts(steps=3, seed=2)
        target = adapt_records[0].speaker_id
        trained = ckpt.provenance["trained_speakers"]
        table = ckpt.params["speaker_table"]
        assert target not in trained
        assert not np.array_equal(table[target], pl._zero_shot_row(table, trained))
        out, _ = self._assert_untouched(ckpt, lambda: pl.adapt_untranscribed(
            ckpt, adapt_records, plan))
        assert not np.array_equal(out.params["speaker_table"][target], table[target])

    def test_adapt_zero_steps(self, aligned_ckpt, adapt_records):
        ckpt = self._own(aligned_ckpt)
        self._assert_untouched(ckpt, lambda: pl.adapt_untranscribed(
            ckpt, adapt_records, pl.AdaptOpts(steps=0)))


@pytest.mark.parametrize("stage", ["align", "adapt"])
def test_output_shares_every_array_it_froze(stage, source_ckpt, aligned_ckpt, corpus,
                                            adapt_records):
    """A stage's output holds its start checkpoint's own array for every
    tensor outside the trained groups, and a fresh read-only copy of every
    trained one. Adaptation's start is the aligned checkpoint with the
    target's zero-shot row filled into a copy of the table."""
    if stage == "align":
        start, plan = source_ckpt, pl.AlignOpts(steps=2)
        out, _ = pl.align_mel_encoder(start, corpus, plan)
    else:
        start, plan = aligned_ckpt, pl.AdaptOpts(steps=2)
        out, _ = pl.adapt_untranscribed(start, adapt_records, plan)
    for name, group in m.param_groups(CFG).items():
        arr = out.params[name]
        if group in plan.trainable_groups:
            assert arr.flags.owndata and not arr.flags.writeable, name
            assert not np.shares_memory(arr, start.params[name]), name
        else:
            assert arr is start.params[name], name


def _uncached_align(model, utt, key, cache):
    mel = Tensor(utt.mel)
    spk = model.speaker_context(utt.speaker_id)
    h_reg = m.length_regulate(m.encode_phonemes(model, utt.phonemes), utt.durations)
    h_mel = me.mel_encoder_forward(model, mel)
    recon = m.decode(model, me.decoder_inputs(model, h_mel, mel), spk)
    return {"reconstruction": ad.masked_mae(recon, mel),
            "alignment": me.alignment_loss(h_mel, h_reg)}


def _uncached_adapt(model, record, key, cache):
    mel = Tensor(record.mel)
    spk = model.speaker_context(record.speaker_id)
    recon = m.decode(model, me.reconstruction_inputs(model, mel), spk)
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
        plan = pl.AdaptOpts(steps=8, seed=2, variant=variant)
        cached, cached_metrics = pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        monkeypatch.setattr(pl, "_adapt_losses", _uncached_adapt)
        plain, plain_metrics = pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        assert cached_metrics == plain_metrics
        assert _ckpt_bytes(cached, tmp_path / "c.ckpt") == \
            _ckpt_bytes(plain, tmp_path / "p.ckpt")

    def test_align_bit_exact_with_uncached_loop(self, source_ckpt, corpus,
                                               monkeypatch, tmp_path):
        plan = pl.AlignOpts(steps=8, seed=1)
        cached, cached_metrics = pl.align_mel_encoder(source_ckpt, corpus, plan)
        monkeypatch.setattr(pl, "_align_losses", _uncached_align)
        plain, plain_metrics = pl.align_mel_encoder(source_ckpt, corpus, plan)
        assert cached_metrics == plain_metrics
        assert _ckpt_bytes(cached, tmp_path / "c.ckpt") == \
            _ckpt_bytes(plain, tmp_path / "p.ckpt")

    def test_adapt_encodes_each_record_once(self, aligned_ckpt, adapt_records,
                                            monkeypatch):
        calls = self._counting(monkeypatch, me, "mel_encoder_forward")
        plan = pl.AdaptOpts(steps=8, seed=2)
        pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        assert 0 < len(calls) <= len(adapt_records) < plan.steps * plan.batch_size

    def test_finetune_recomputes_every_pick(self, aligned_ckpt, adapt_records,
                                            monkeypatch):
        calls = self._counting(monkeypatch, me, "mel_encoder_forward")
        plan = pl.AdaptOpts(steps=3, seed=2, variant="finetune_mel_encoder_and_decoder")
        pl.adapt_untranscribed(aligned_ckpt, adapt_records, plan)
        assert len(calls) == plan.steps * plan.batch_size

    def test_align_encodes_mel_once_per_pick(self, source_ckpt, corpus, monkeypatch):
        calls = self._counting(monkeypatch, me, "mel_encoder_forward")
        plan = pl.AlignOpts(steps=3, seed=1)
        pl.align_mel_encoder(source_ckpt, corpus, plan)
        assert len(calls) == plan.steps * plan.batch_size

    def test_joint_source_encodes_mel_once_per_pick(self, corpus, monkeypatch):
        calls = self._counting(monkeypatch, me, "mel_encoder_forward")
        plan = pl.source_plan(steps=2, seed=0, variant="joint_training")
        pl.train_source(corpus, CFG, plan)
        assert len(calls) == plan.steps * plan.batch_size

    def test_align_encodes_phonemes_once_per_record(self, source_ckpt, corpus,
                                                    monkeypatch):
        calls = self._counting(monkeypatch, m, "encode_phonemes")
        plan = pl.AlignOpts(steps=10, seed=1)
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
        plan = pl.AdaptOpts(steps=5, seed=2)
        pl.adapt_untranscribed(source_ckpt, adapt_records, plan)
        second, second_metrics = pl.adapt_untranscribed(fresh, adapt_records, plan)
        monkeypatch.setattr(pl, "_adapt_losses", _uncached_adapt)
        alone, alone_metrics = pl.adapt_untranscribed(fresh, adapt_records, plan)
        assert second_metrics == alone_metrics
        assert _ckpt_bytes(second, tmp_path / "s.ckpt") == \
            _ckpt_bytes(alone, tmp_path / "a.ckpt")


class TestStageLoop:
    # every stage and variant the arena test covers: name -> (run, loss builder)
    STAGES = {
        "source": (lambda c, s, a, r: pl.train_source(c, CFG, pl.source_plan(steps=2)),
                   "_source_losses"),
        "joint": (lambda c, s, a, r: pl.train_source(
            c, CFG, pl.source_plan(steps=2, variant="joint_training")), "_source_losses"),
        "align": (lambda c, s, a, r: pl.align_mel_encoder(s, c, pl.AlignOpts(steps=2)),
                  "_align_losses"),
        "adapt": (lambda c, s, a, r: pl.adapt_untranscribed(a, r, pl.AdaptOpts(steps=2)),
                  "_adapt_losses"),
        "adapt_finetune": (lambda c, s, a, r: pl.adapt_untranscribed(
            a, r, pl.AdaptOpts(steps=2, variant="finetune_mel_encoder_and_decoder")),
            "_adapt_losses"),
    }

    @staticmethod
    def _check_arena(monkeypatch):
        """Wrap `adam_step` so every call asserts that each trainable tensor's
        `data` is still its own slice of the stage's parameter arena."""
        calls = []
        real = pl.adam_step

        def checked(params, grads, state, **kwargs):
            views = state.views(state.data)
            for name, t in params.items():
                view = views[name]
                assert t.data.base is state.data, f"'{name}' detached from the arena"
                assert t.data.__array_interface__ == view.__array_interface__, name
                assert t.grad is grads[name]
            calls.append(len(params))
            return real(params, grads, state, **kwargs)

        monkeypatch.setattr(pl, "adam_step", checked)
        return calls

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_trainable_tensors_stay_arena_views(self, stage, corpus, source_ckpt,
                                                aligned_ckpt, adapt_records, monkeypatch):
        calls = self._check_arena(monkeypatch)
        run, _ = self.STAGES[stage]
        run(corpus, source_ckpt, aligned_ckpt, adapt_records)
        assert len(calls) == 2 and calls[0] > 0

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_rebinding_loss_fn_is_caught(self, stage, corpus, source_ckpt, aligned_ckpt,
                                         adapt_records, monkeypatch):
        run, builder = self.STAGES[stage]
        real = getattr(pl, builder)

        def rebinding(model, *args, **kwargs):
            t = next(t for t in model.params.values() if t.requires_grad)
            t.data = t.data.copy()
            return real(model, *args, **kwargs)

        monkeypatch.setattr(pl, builder, rebinding)
        self._check_arena(monkeypatch)
        with pytest.raises(AssertionError, match="detached"):
            run(corpus, source_ckpt, aligned_ckpt, adapt_records)

    @pytest.mark.parametrize("stage", ["source", "align", "adapt"])
    def test_audit_snapshot_wraps_initial_arrays(self, stage, corpus, source_ckpt,
                                                 aligned_ckpt, adapt_records, monkeypatch):
        # the freeze audit's `before` is the stage's start checkpoint, whose
        # arrays are read-only and apart from Adam's arenas
        states, audited = [], []
        real_state, real_audit = pl.AdamState, pl.assert_freeze

        def state_spy(*args, **kwargs):
            states.append(real_state(*args, **kwargs))
            return states[-1]

        def audit_spy(before, *args, **kwargs):
            audited.append(before)
            return real_audit(before, *args, **kwargs)

        monkeypatch.setattr(pl, "AdamState", state_spy)
        monkeypatch.setattr(pl, "assert_freeze", audit_spy)
        if stage == "source":
            plan = pl.source_plan(steps=2)
            pl.train_source(corpus, CFG, plan)
        elif stage == "align":
            pl.align_mel_encoder(source_ckpt, corpus, pl.AlignOpts(steps=2))
        else:
            pl.adapt_untranscribed(aligned_ckpt, adapt_records, pl.AdaptOpts(steps=2))
        (state,), (before,) = states, audited
        for name, arr in before.params.items():
            assert not arr.flags.writeable, name
            assert not np.shares_memory(arr, state.data), name
        if stage == "source":
            fresh = m.init_params(CFG, plan.seed)
            for name, arr in before.params.items():
                assert arr.tobytes() == fresh[name].tobytes(), name
        elif stage == "align":
            assert before is source_ckpt
        else:
            # speaker 3 is untrained, so adaptation starts from its zero-shot row
            trained = aligned_ckpt.provenance["trained_speakers"]
            assert 3 not in trained
            table = aligned_ckpt.params["speaker_table"]
            filled = table.copy()
            filled[3] = table[sorted(trained)].mean(axis=0)
            assert before.params["speaker_table"].tobytes() == filled.tobytes()
            for name, arr in before.params.items():
                if name != "speaker_table":
                    assert np.shares_memory(arr, aligned_ckpt.params[name]), name

    def test_gradients_released_after_stage(self, corpus, monkeypatch):
        models = []
        real = cp.Checkpoint.to_model

        def spy(ckpt):
            models.append(real(ckpt))
            return models[-1]

        monkeypatch.setattr(cp.Checkpoint, "to_model", spy)
        pl.train_source(corpus, CFG, pl.source_plan(steps=1))
        (model,) = models
        assert all(t.grad is None for t in model.params.values())

    @staticmethod
    def _collector_seen(monkeypatch):
        seen = []
        real = pl.adam_step

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(pl, "adam_step", spy)
        return seen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_then_restored(self, enabled, corpus, monkeypatch):
        seen = self._collector_seen(monkeypatch)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            pl.train_source(corpus, CFG, pl.source_plan(steps=2))
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_restored_after_numeric_error(self, enabled, source_ckpt, corpus):
        bad = cp.Checkpoint(
            config=source_ckpt.config,
            params={n: (np.full_like(a, 1e308) if n == "melenc.in.w" else a.copy())
                    for n, a in source_ckpt.params.items()},
            provenance=dict(source_ckpt.provenance))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with np.errstate(all="ignore"), pytest.raises(NumericError):
                pl.align_mel_encoder(bad, corpus, pl.AlignOpts(steps=5))
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("stage", ["source", "align", "adapt", "adapt_finetune"])
    def test_write_to_frozen_parameter_raises(self, stage, enabled, corpus, source_ckpt,
                                              aligned_ckpt, adapt_records, monkeypatch):
        # frozen tensors share the input checkpoint's read-only arrays (in
        # source training, the audit snapshot's), so the write fails where it
        # happens, before any freeze audit
        run, builder = self.STAGES[stage]
        real = getattr(pl, builder)

        def writing(model, *args, **kwargs):
            t = next(t for t in model.params.values() if not t.requires_grad)
            t.data[...] = 0.0
            return real(model, *args, **kwargs)

        monkeypatch.setattr(pl, builder, writing)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ValueError, match="read-only"):
                run(corpus, source_ckpt, aligned_ckpt, adapt_records)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled


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

    @pytest.mark.parametrize("phonemes", [[0.5, 1], [True, False], np.array([[1, 2]])],
                             ids=["float", "bool", "2d"])
    def test_phonemes_must_be_1d_integers(self, aligned_ckpt, phonemes):
        with pytest.raises(ConfigError, match="1-d integer") as e:
            pl.synthesize(aligned_ckpt, phonemes, 0)
        assert e.value.exit_code == 2

    @pytest.mark.parametrize("speaker", [1.0, True, np.float64(1.0), np.True_, "1"],
                             ids=["float", "bool", "np-float", "np-bool", "str"])
    def test_speaker_must_be_an_integer(self, aligned_ckpt, speaker):
        with pytest.raises(ConfigError, match="must be an integer"):
            pl.synthesize(aligned_ckpt, [0, 1], speaker)
        with pytest.raises(ConfigError, match="must be an integer"):
            aligned_ckpt.to_model().speaker_context(speaker)

    def test_numpy_integer_speaker_accepted(self, aligned_ckpt):
        assert np.array_equal(pl.synthesize(aligned_ckpt, np.array([0, 1], np.int32),
                                            np.int64(1)),
                              pl.synthesize(aligned_ckpt, [0, 1], 1))

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


def _fresh(ckpt):
    """`ckpt`'s arrays in a new checkpoint, whose inference model is unbuilt."""
    return cp.Checkpoint(ckpt.config, dict(ckpt.params), ckpt.provenance)


class TestInferenceModel:
    """Inference builds one model per checkpoint, and training never sees it."""

    def test_score_utterances_builds_one_model(self, aligned_ckpt, corpus, monkeypatch):
        ckpt, utts, speakers = _fresh(aligned_ckpt), corpus.utterances[:16], [0, 1, 2]
        calls = []
        real = cp.Checkpoint.to_model

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(cp.Checkpoint, "to_model", spy)
        got = ex.score_utterances(ckpt, utts, SPEC, speakers)
        assert calls == [ckpt]
        model = real(ckpt)
        want = {"mel_mae": {}, "proximity": {}}
        for utt in utts:
            spk = model.speaker_context(utt.speaker_id)
            mel = m.tts_forward(model, utt.phonemes, spk).mel.data
            uid = ex._utt_uid(utt.speaker_id, utt.utterance_id)
            want["mel_mae"][uid] = ev.mel_distance(mel, utt.mel).value
            want["proximity"][uid] = ev.speaker_proximity(mel, utt.speaker_id, SPEC, speakers)
        for metric in ("mel_mae", "proximity"):
            assert list(got[metric]) == list(want[metric])
            assert (np.array(list(got[metric].values())).tobytes()
                    == np.array(list(want[metric].values())).tobytes())

    def test_synthesize_under_a_tape_records_nothing(self, aligned_ckpt):
        ckpt = _fresh(aligned_ckpt)
        with ad.Tape() as tape:
            pl.synthesize(ckpt, [0, 1, 2], 0)
            pl.synthesize(ckpt, [0, 1, 2], 3)  # the zero-shot row
        assert len(tape) == 0
        assert all(t.grad is None for t in ckpt.inference_model.params.values())

    def test_stage_from_a_synthesized_checkpoint_is_unchanged(self, source_ckpt, corpus,
                                                              tmp_path):
        path = tmp_path / "source.ckpt"
        cp.save_checkpoint(source_ckpt, path)
        used = cp.load_checkpoint(path)
        pl.synthesize(used, [0, 1, 2], 0)
        assert used.to_model() is not used.inference_model
        plan = pl.AlignOpts(steps=2, seed=1)
        out_used, _ = pl.align_mel_encoder(used, corpus, plan)
        out_fresh, _ = pl.align_mel_encoder(cp.load_checkpoint(path), corpus, plan)
        assert (_ckpt_bytes(out_used, tmp_path / "used.ckpt")
                == _ckpt_bytes(out_fresh, tmp_path / "fresh.ckpt"))
        assert not any(t.requires_grad for t in used.inference_model.params.values())


class TestMetricsIo:
    def test_round_trip(self, tmp_path):
        rows = [(0, "source_training", "mel", 1.5), (1, "source_training", "mel", 1.25)]
        path = tmp_path / "metrics.csv"
        pl.write_metrics(rows, path)
        with open(path, newline="") as fh:
            got = [(int(r["step"]), r["stage"], r["loss_name"], float(r["value"]))
                   for r in csv.DictReader(fh)]
        assert got == rows
