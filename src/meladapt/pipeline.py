"""Staged training: source model, mel-encoder aligning, untranscribed
adaptation, and synthesis.

Every stage maps a start checkpoint to an output checkpoint through one
runner, `_train`, which audits the output bitwise against its start. Source
training starts from a fresh initialisation, aligning from the source
checkpoint, and adaptation from the aligned one.
"""

import csv
import gc
import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import melencoder as me
from . import model as mm
from .autodiff import Tape, Tensor, backward
from .binio import atomic_write
from .checkpoint import Checkpoint, assert_freeze
from .errors import ConfigError, NumericError
from .model import GROUPS
from .optim import AdamState, adam_step
from .synthdata import MelOnlyUtterance, corpus_hash

STAGE_SOURCE = "source_training"
STAGE_ALIGN = "mel_encoder_aligning"
STAGE_ADAPT = "untranscribed_adaptation"

# stage -> variant -> the parameter groups it trains; adaptation also trains
# the adapted speaker's SpeakerTable row, and the freeze audit holds every
# other row of the table
TRAINS = {
    STAGE_SOURCE: {
        "main": frozenset(GROUPS) - {"MelEncoder"},
        "joint_training": frozenset(GROUPS),
    },
    STAGE_ALIGN: {
        "main": frozenset({"MelEncoder"}),
        "no_l2": frozenset({"MelEncoder"}),
    },
    STAGE_ADAPT: {
        "main": frozenset({"ConditionalLN", "SpeakerTable"}),
        "finetune_mel_encoder_and_decoder":
            frozenset({"ConditionalLN", "SpeakerTable", "MelEncoder", "DecoderCore"}),
    },
}

# (stage, variant) -> a loss it records but leaves out of the total; every
# other recorded loss counts once. no_l2 is aligning without the L2 latent
# constraint.
RECORDED_ONLY = {(STAGE_ALIGN, "no_l2"): "alignment"}


@dataclass(frozen=True)
class StagePlan:
    """One stage run: the settings of a `[source]`, `[align]` or `[adapt]`
    section, each subclass writing their defaults once, and `--variant`."""

    stage: ClassVar[str]
    steps: int
    batch_size: int
    seed: int
    variant: str = "main"

    def __post_init__(self):
        if self.variant not in TRAINS[self.stage]:
            raise ConfigError(
                f"variant '{self.variant}' is not a {self.stage} variant "
                f"(choose from {sorted(TRAINS[self.stage])})"
            )
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def trainable_groups(self) -> frozenset:
        return TRAINS[self.stage][self.variant]


def _check_rate(value):
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"learning rate must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class SourceOpts(StagePlan):
    stage = STAGE_SOURCE
    steps: int = 2000
    batch_size: int = 4
    seed: int = 0
    peak_scale: float = 0.02
    warmup: int = 100

    def __post_init__(self):
        super().__post_init__()
        _check_rate(self.peak_scale)
        if self.warmup < 1:
            raise ConfigError(f"warmup must be >= 1, got {self.warmup}")

    def lr(self, step):
        """FastSpeech 2's rate (arXiv 2006.04558) for 1-based `step`: a linear
        ramp over `warmup` steps to peak_scale/sqrt(warmup), then
        peak_scale/sqrt(step)."""
        step = max(step, 1)
        return self.peak_scale * min(step ** -0.5, step * self.warmup ** -1.5)


@dataclass(frozen=True)
class AlignOpts(StagePlan):
    stage = STAGE_ALIGN
    steps: int = 500
    batch_size: int = 4
    seed: int = 1
    learning_rate: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        _check_rate(self.learning_rate)

    def lr(self, step):
        return self.learning_rate


@dataclass(frozen=True)
class AdaptOpts(AlignOpts):
    """Aligning's constant rate, with adaptation's stage and defaults."""

    stage = STAGE_ADAPT
    steps: int = 200
    batch_size: int = 4
    seed: int = 2
    # constant-lr plateau for conditional-LN adaptation is wide (3e-3..1e-2
    # measured equivalent); full-model fine-tuning destabilizes above ~5e-3
    learning_rate: float = 7e-3


def source_plan(variant="main", **settings):
    return SourceOpts(variant=variant, **settings)


def align_plan(variant="main", **settings):
    return AlignOpts(variant=variant, **settings)


def adapt_plan(variant="main", **settings):
    return AdaptOpts(variant=variant, **settings)


# -- per-stage loss builders ----------------------------------------------


def _frozen(cache, key, compute):
    """`compute()`, kept under `key` for the rest of the stage call when the
    tape marks the result constant.

    `requires_grad` is False exactly when no trainable parameter feeds the
    result, so a recomputation would give the same bits and record no
    backward step; a result the trainable set reaches is recomputed.
    """
    out = cache.get(key)
    if out is None:
        out = compute()
        if not out.requires_grad:
            cache[key] = out
    return out


def _source_losses(model, utt, with_alignment=False):
    mel = Tensor(utt.mel)
    spk = model.speaker_context(utt.speaker_id)
    res = mm.tts_forward(model, utt.phonemes, spk, durations=utt.durations,
                         pitch=utt.pitch, mel_target=mel)
    log_dur_target = Tensor(np.log(utt.durations + 1.0).reshape(-1, 1))
    pitch_target = Tensor(utt.pitch.reshape(-1, 1))
    acoustic_target = Tensor(res.acoustic_target.data)  # stop-gradient
    losses = {
        "mel": ad.masked_mae(res.mel, mel),
        "duration": ad.masked_mse(res.log_duration, log_dur_target),
        "pitch": ad.masked_mse(res.pitch_pred, pitch_target),
        "acoustic": ad.masked_mse(res.acoustic_pred, acoustic_target),
    }
    if with_alignment:
        # joint baseline: mel-encoder objectives run in the same step, so the
        # decoder serves the phoneme and mel latent streams simultaneously
        h_mel = me.mel_encoder_forward(model, mel)
        losses["alignment"] = me.alignment_loss(h_mel, res.expanded_hidden)
        recon = mm.decode(model, me.decoder_inputs(model, h_mel, mel), spk)
        losses["reconstruction"] = ad.masked_mae(recon, mel)
    return losses


def _align_losses(model, utt, key, cache):
    mel = Tensor(utt.mel)
    spk = model.speaker_context(utt.speaker_id)
    h_reg = _frozen(cache, key, lambda: mm.length_regulate(
        mm.encode_phonemes(model, utt.phonemes), utt.durations))
    h_mel = me.mel_encoder_forward(model, mel)
    recon = mm.decode(model, me.decoder_inputs(model, h_mel, mel), spk)
    return {
        "reconstruction": ad.masked_mae(recon, mel),
        "alignment": me.alignment_loss(h_mel, h_reg),
    }


class _AuditedRecord:
    """Attribute-access proxy: records every field the adaptation loop reads."""

    def __init__(self, record, seen: set):
        object.__setattr__(self, "_record", record)
        object.__setattr__(self, "_seen", seen)

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._record, name)


def _adapt_losses(model, record, key, cache):
    mel = Tensor(record.mel)
    spk = model.speaker_context(record.speaker_id)
    x = _frozen(cache, key, lambda: me.reconstruction_inputs(model, mel))
    recon = mm.decode(model, x, spk)
    return {"reconstruction": ad.masked_mae(recon, mel)}


# -- stage entry points ----------------------------------------------------


def _train(start, plan, items, loss_fn, provenance, rows=None):
    """Run `plan` on a model of the checkpoint `start`; returns the audited
    output checkpoint and the metrics.

    Per-item losses accumulate on one tape per step; `loss_fn(model, item,
    key)` gets the item's position in `items` as `key`. Metrics for a step
    are recorded before its update, so step 0 describes `start` exactly. The
    trainable set is packed into one Adam arena; `loss_fn` must not rebind a
    parameter's `data`, and a frozen one is `start`'s read-only array. The
    cyclic garbage collector is paused for the steps (tape records hold no
    reference cycles) and restored after. The output's provenance is
    `start`'s, updated with the plan's stage and variant and then
    `provenance`. A non-finite loss re-raises with `last_good`, the model as
    it stood, attached. The output is audited bitwise against `start`: only
    the groups the plan trains may change, and of a tensor named in `rows`
    ({name: row indices}) only those rows.
    """
    if not items:
        raise ConfigError(f"stage {plan.stage} has no training records")
    model = start.to_model()
    model.set_trainable(plan.trainable_groups)
    trainable = model.trainable_params()
    state = AdamState(trainable)
    left_out = RECORDED_ONLY.get((plan.stage, plan.variant))
    labels = mm.param_groups(model.config)
    provenance = {**start.provenance, "stage": plan.stage, "variant": plan.variant,
                  **provenance}
    metrics = []
    rng = np.random.default_rng(plan.seed)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for step in range(plan.steps):
            picks = rng.integers(0, len(items), size=plan.batch_size)
            sums = {}
            with Tape() as tape:
                for i in picks:
                    for name, part in loss_fn(model, items[i], int(i)).items():
                        sums[name] = part if name not in sums else ad.add(sums[name], part)
                total = None
                for name, part in sums.items():
                    if name == left_out:
                        continue
                    term = ad.smul(part, 1 / plan.batch_size)
                    total = term if total is None else ad.add(total, term)
            for name, part in sums.items():
                metrics.append((step, plan.stage, name, part.item() / plan.batch_size))
            metrics.append((step, plan.stage, "total", total.item()))
            if not np.isfinite(total.item()):
                raise NumericError(
                    f"non-finite loss at step {step} of {plan.stage}; parameters "
                    f"kept at their last finite state"
                )
            state.grad.fill(0.0)
            backward(total, tape)
            adam_step(trainable, state.grads, state, lr=plan.lr(state.t + 1),
                      group_of=labels.__getitem__)
    except NumericError as exc:
        exc.last_good = Checkpoint.from_model(
            model, provenance={**provenance, "aborted": True})
        raise
    finally:
        if gc_was_enabled:
            gc.enable()
        for t in trainable.values():
            t.grad = None
    out = Checkpoint.from_model(model, provenance=provenance)
    rows = rows or {}
    allowed = {n for n, g in labels.items()
               if g in plan.trainable_groups and n not in rows}
    assert_freeze(start, out, allowed, allowed_rows=rows, stage=plan.stage)
    return out, metrics


def train_source(corpus, config, plan):
    """Stage one: train everything except the mel encoder on transcribed data,
    starting from a fresh initialisation drawn with the plan's seed.

    Joint-training variant folds the mel encoder in, with the alignment loss.
    """
    if plan.stage != STAGE_SOURCE:
        raise ConfigError(f"expected a {STAGE_SOURCE} plan, got {plan.stage}")
    train = corpus.train_split()
    speakers = train.speakers()
    if len(speakers) < 2:
        raise ConfigError("source training needs at least two speakers")
    provenance = {"steps": plan.steps, "seed": plan.seed, "trained_speakers": speakers,
                  "corpus_hash": corpus_hash(corpus)}
    joint = plan.variant == "joint_training"
    return _train(Checkpoint(config, mm.init_params(config, plan.seed)), plan,
                  train.utterances,
                  lambda m, u, _: _source_losses(m, u, with_alignment=joint),
                  provenance)


def align_mel_encoder(source_ckpt, corpus, plan):
    """Stage two: fit the mel encoder to the frozen phoneme-side latents."""
    if plan.stage != STAGE_ALIGN:
        raise ConfigError(f"expected a {STAGE_ALIGN} plan, got {plan.stage}")
    return _train(source_ckpt, plan, corpus.train_split().utterances,
                  partial(_align_losses, cache={}),
                  {"align_steps": plan.steps, "align_seed": plan.seed})


def adapt_untranscribed(aligned_ckpt, records, plan):
    """Stage three: speech-reconstruction fine-tuning on mel-only records.

    Inputs carrying transcripts are rejected outright; the loop reads records
    through an access-auditing proxy and the consumed field names land in the
    output provenance. A target the checkpoint never trained starts from its
    zero-shot row.
    """
    if plan.stage != STAGE_ADAPT:
        raise ConfigError(f"expected a {STAGE_ADAPT} plan, got {plan.stage}")
    records = list(records)
    if not 1 <= len(records) <= 100:
        raise ConfigError(f"adaptation takes 1 to 100 utterances, got {len(records)}")
    for r in records:
        if not isinstance(r, MelOnlyUtterance):
            raise ConfigError(
                f"adaptation input must be mel-only records, got {type(r).__name__} "
                f"(transcript-bearing inputs are rejected by contract)"
            )
    speakers = sorted({r.speaker_id for r in records})
    if len(speakers) != 1:
        raise ConfigError(f"adaptation set spans speakers {speakers}, expected one")
    target = speakers[0]

    start = aligned_ckpt
    trained = set(aligned_ckpt.provenance.get("trained_speakers", []))
    if trained and target not in trained:
        # a filled copy of the table; every other array is the input's own
        table = aligned_ckpt.params["speaker_table"].copy()
        table[target] = _zero_shot_row(table, trained)
        start = Checkpoint(aligned_ckpt.config,
                           {**aligned_ckpt.params, "speaker_table": table},
                           aligned_ckpt.provenance)

    seen_fields = set()
    audited = [_AuditedRecord(r, seen_fields) for r in records]
    provenance = {"adapt_steps": plan.steps, "adapt_seed": plan.seed,
                  "adapted_speaker": target, "n_adapt_utterances": len(records)}
    out, metrics = _train(start, plan, audited, partial(_adapt_losses, cache={}),
                          provenance, {"speaker_table": [target]})

    banned = seen_fields - {"mel", "speaker_id", "utterance_id"}
    if banned:
        raise ConfigError(f"adaptation read transcript-adjacent fields: {sorted(banned)}")
    out.provenance["field_audit"] = sorted(seen_fields)
    out.provenance["trained_speakers"] = sorted(trained | {target})
    return out, metrics


def _zero_shot_row(table, trained):
    """The speaker row a checkpoint gives a speaker it never trained: the mean
    of the trained speakers' rows, taken in sorted id order."""
    return table[np.asarray(sorted(trained), dtype=np.int64)].mean(axis=0)


def synthesize(ckpt, phonemes, speaker_id) -> np.ndarray:
    """Transcript-only inference: durations, pitch, and acoustic conditions
    all predicted. A speaker the checkpoint never trained falls back to the
    mean of the trained speaker rows (zero-shot baseline). Runs on the
    checkpoint's `inference_model`, so a checkpoint builds one model however
    many utterances it synthesizes."""
    mm.check_speaker_id(speaker_id, ckpt.config.n_speakers)
    model = ckpt.inference_model
    trained = set(ckpt.provenance.get("trained_speakers", []))
    if trained and speaker_id not in trained:
        mean_row = _zero_shot_row(model.params["speaker_table"].data, trained)
        spk = Tensor(mean_row[None, :])
    else:
        spk = model.speaker_context(speaker_id)
    res = mm.tts_forward(model, phonemes, spk)
    return res.mel.data


# -- metrics ---------------------------------------------------------------


def write_metrics(rows, path):
    with atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "stage", "loss_name", "value"])
        for step, stage, loss_name, value in rows:
            w.writerow([step, stage, loss_name, repr(float(value))])
