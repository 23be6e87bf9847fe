"""Staged training: source model, mel-encoder aligning, untranscribed
adaptation, and synthesis, with bitwise freeze auditing between stages."""

import csv
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from . import melencoder as me
from . import model as mm
from .autodiff import Tape, Tensor, backward
from .checkpoint import Checkpoint, assert_freeze
from .errors import ConfigError, NumericError
from .model import GROUPS, TtsModel, group_of
from .optim import AdamState, LrSchedule, adam_step
from .synthdata import MelOnlyUtterance, corpus_hash

STAGE_SOURCE = "source_training"
STAGE_ALIGN = "mel_encoder_aligning"
STAGE_ADAPT = "untranscribed_adaptation"

VARIANTS = ("main", "joint_training", "no_l2", "finetune_mel_encoder_and_decoder")


@dataclass(frozen=True)
class StagePlan:
    stage: str
    steps: int
    batch_size: int = 4
    seed: int = 0
    schedule: LrSchedule = field(default_factory=LrSchedule)
    trainable_groups: frozenset = frozenset()
    loss_weights: tuple = ()          # ((name, weight), ...), order fixed
    variant: str = "main"
    adapt_speaker_row: bool = True    # adaptation only
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_epsilon: float = 1e-9

    def __post_init__(self):
        if self.stage not in (STAGE_SOURCE, STAGE_ALIGN, STAGE_ADAPT):
            raise ConfigError(f"unknown stage '{self.stage}'")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}'")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        unknown = set(self.trainable_groups) - set(GROUPS)
        if unknown:
            raise ConfigError(f"unknown parameter groups: {sorted(unknown)}")
        self._check_trainable_set()

    def _check_trainable_set(self):
        got = set(self.trainable_groups)
        if self.stage == STAGE_SOURCE:
            want = (set(GROUPS) if self.variant == "joint_training"
                    else set(GROUPS) - {"MelEncoder"})
        elif self.stage == STAGE_ALIGN:
            want = {"MelEncoder"}
        else:
            want = {"ConditionalLN"}
            if self.adapt_speaker_row:
                want |= {"SpeakerTable"}
            if self.variant == "finetune_mel_encoder_and_decoder":
                want |= {"MelEncoder", "DecoderCore"}
        if got != want:
            raise ConfigError(
                f"stage {self.stage} (variant {self.variant}) must train "
                f"{sorted(want)}, plan says {sorted(got)}"
            )

    def weights(self) -> dict:
        return dict(self.loss_weights)


def source_plan(steps=2000, batch_size=4, seed=0, variant="main",
                peak_scale=0.02, warmup=100, alignment_weight=1.0, **adam):
    groups = set(GROUPS) - {"MelEncoder"}
    weights = [("mel", 1.0), ("duration", 1.0), ("pitch", 1.0), ("acoustic", 1.0)]
    if variant == "joint_training":
        groups = set(GROUPS)
        weights.append(("alignment", alignment_weight))
        weights.append(("reconstruction", 1.0))
    return StagePlan(
        stage=STAGE_SOURCE, steps=steps, batch_size=batch_size, seed=seed,
        schedule=LrSchedule(kind="inverse_sqrt", value=peak_scale, warmup=warmup),
        trainable_groups=frozenset(groups), loss_weights=tuple(weights),
        variant=variant, **adam,
    )


def align_plan(steps=500, batch_size=4, seed=1, learning_rate=1e-3,
               alignment_weight=1.0, variant="main", **adam):
    if variant not in ("main", "no_l2"):
        raise ConfigError(f"variant '{variant}' is not an aligning variant")
    if variant == "no_l2":
        alignment_weight = 0.0
    return StagePlan(
        stage=STAGE_ALIGN, steps=steps, batch_size=batch_size, seed=seed,
        schedule=LrSchedule(kind="constant", value=learning_rate),
        trainable_groups=frozenset({"MelEncoder"}),
        loss_weights=(("reconstruction", 1.0), ("alignment", alignment_weight)),
        variant=variant, **adam,
    )


def adapt_plan(steps=200, batch_size=4, seed=2, learning_rate=1e-3,
               adapt_speaker_row=True, variant="main", **adam):
    if variant not in ("main", "finetune_mel_encoder_and_decoder"):
        raise ConfigError(f"variant '{variant}' is not an adaptation variant")
    groups = {"ConditionalLN"}
    if adapt_speaker_row:
        groups |= {"SpeakerTable"}
    if variant == "finetune_mel_encoder_and_decoder":
        groups |= {"MelEncoder", "DecoderCore"}
    return StagePlan(
        stage=STAGE_ADAPT, steps=steps, batch_size=batch_size, seed=seed,
        schedule=LrSchedule(kind="constant", value=learning_rate),
        trainable_groups=frozenset(groups),
        loss_weights=(("reconstruction", 1.0),),
        variant=variant, adapt_speaker_row=adapt_speaker_row, **adam,
    )


# -- generic loop ----------------------------------------------------------


def _run_stage(model, plan, items, loss_fn, metrics):
    """Shared training loop: per-item losses accumulate on one tape per step.

    `loss_fn(model, item, key)` gets the item's position in `items` as `key`.
    Metrics for a step are recorded before its update, so step 0 describes
    the incoming model exactly.
    """
    if not items:
        raise ConfigError(f"stage {plan.stage} has no training records")
    model.set_trainable(set(plan.trainable_groups))
    trainable = model.trainable_params()
    if not trainable:
        raise ConfigError(f"stage {plan.stage} trains no parameters")
    state = AdamState(learning_rate=plan.schedule.value, beta1=plan.adam_beta1,
                      beta2=plan.adam_beta2, epsilon=plan.adam_epsilon)
    weights = plan.weights()
    rng = np.random.default_rng(plan.seed)
    for step in range(plan.steps):
        picks = rng.integers(0, len(items), size=plan.batch_size)
        sums = {}
        with Tape() as tape:
            for i in picks:
                for name, part in loss_fn(model, items[i], int(i)).items():
                    sums[name] = part if name not in sums else ad.add(sums[name], part)
            total = None
            for name, part in sums.items():
                w = weights.get(name, 1.0)
                if w == 0.0:
                    continue
                term = ad.smul(part, w / plan.batch_size)
                total = term if total is None else ad.add(total, term)
        for name, part in sums.items():
            metrics.append((step, plan.stage, name, part.item() / plan.batch_size))
        metrics.append((step, plan.stage, "total", total.item()))
        if not np.isfinite(total.item()):
            raise NumericError(
                f"non-finite loss at step {step} of {plan.stage}; parameters "
                f"kept at their last finite state"
            )
        backward(total, tape)
        grads = {}
        for name, t in trainable.items():
            grads[name] = t.grad if t.grad is not None else np.zeros(t.shape)
        state.learning_rate = plan.schedule.at(state.t + 1)
        adam_step(trainable, grads, state, group_of=group_of)
        for t in model.params.values():
            t.grad = None
    return state, rng


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
        recon = me.reconstruction_forward(model, mel, spk)
        losses["reconstruction"] = ad.masked_mae(recon, mel)
    return losses


def _align_losses(model, utt, key, cache):
    mel = Tensor(utt.mel)
    spk = model.speaker_context(utt.speaker_id)
    h_reg = _frozen(cache, key, lambda: mm.length_regulate(
        mm.encode_phonemes(model, utt.phonemes), utt.durations))
    h_mel = me.mel_encoder_forward(model, mel)
    recon = me.reconstruction_forward(model, mel, spk)
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


def _abort_with_last_good(model, plan, provenance, exc):
    ckpt = Checkpoint.from_model(model, provenance={**provenance, "aborted": True})
    exc.last_good = ckpt
    raise exc


def train_source(corpus, config, plan):
    """Stage one: train everything except the mel encoder on transcribed data.

    Joint-training variant folds the mel encoder in, with the alignment loss.
    """
    if plan.stage != STAGE_SOURCE:
        raise ConfigError(f"expected a {STAGE_SOURCE} plan, got {plan.stage}")
    train = corpus.train_split()
    speakers = train.speakers()
    if len(speakers) < 2:
        raise ConfigError("source training needs at least two speakers")
    model = TtsModel(config, seed=plan.seed)
    init = Checkpoint.from_model(model)
    metrics = []
    provenance = {
        "stage": STAGE_SOURCE, "variant": plan.variant, "steps": plan.steps,
        "seed": plan.seed, "trained_speakers": speakers,
        "corpus_hash": corpus_hash(corpus),
    }
    joint = plan.variant == "joint_training"
    try:
        _run_stage(model, plan, train.utterances,
                   lambda m, u, _: _source_losses(m, u, with_alignment=joint),
                   metrics)
    except NumericError as exc:
        _abort_with_last_good(model, plan, provenance, exc)
    out = Checkpoint.from_model(model, provenance=provenance)
    allowed = {n for n in model.params if group_of(n) in plan.trainable_groups}
    assert_freeze(init, out, allowed, stage=plan.stage)
    return out, metrics


def align_mel_encoder(source_ckpt, corpus, plan):
    """Stage two: fit the mel encoder to the frozen phoneme-side latents."""
    if plan.stage != STAGE_ALIGN:
        raise ConfigError(f"expected a {STAGE_ALIGN} plan, got {plan.stage}")
    model = source_ckpt.to_model()
    metrics = []
    provenance = {
        **{k: v for k, v in source_ckpt.provenance.items() if k != "stage"},
        "stage": STAGE_ALIGN, "variant": plan.variant,
        "align_steps": plan.steps, "align_seed": plan.seed,
    }
    try:
        _run_stage(model, plan, corpus.train_split().utterances,
                   partial(_align_losses, cache={}), metrics)
    except NumericError as exc:
        _abort_with_last_good(model, plan, provenance, exc)
    out = Checkpoint.from_model(model, provenance=provenance)
    allowed = {n for n in model.params if group_of(n) == "MelEncoder"}
    assert_freeze(source_ckpt, out, allowed, stage=plan.stage)
    return out, metrics


def adapt_untranscribed(aligned_ckpt, records, plan):
    """Stage three: speech-reconstruction fine-tuning on mel-only records.

    Inputs carrying transcripts are rejected outright; the loop reads records
    through an access-auditing proxy and the consumed field names land in the
    output provenance.
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

    if plan.steps == 0:
        return Checkpoint(
            config=aligned_ckpt.config,
            params={n: a.copy() for n, a in aligned_ckpt.params.items()},
            provenance=dict(aligned_ckpt.provenance),
            rng_state=aligned_ckpt.rng_state,
            adam=aligned_ckpt.adam,
        ), []

    model = aligned_ckpt.to_model()
    trained = list(aligned_ckpt.provenance.get("trained_speakers", []))
    if plan.adapt_speaker_row and target not in trained:
        table = model.params["speaker_table"].data
        if trained:
            table[target] = table[np.asarray(trained, dtype=np.int64)].mean(axis=0)

    seen_fields = set()
    audited = [_AuditedRecord(r, seen_fields) for r in records]
    metrics = []
    provenance = {
        **{k: v for k, v in aligned_ckpt.provenance.items() if k != "stage"},
        "stage": STAGE_ADAPT, "variant": plan.variant,
        "adapt_steps": plan.steps, "adapt_seed": plan.seed,
        "adapted_speaker": target, "n_adapt_utterances": len(records),
        "speaker_row_adapted": bool(plan.adapt_speaker_row),
    }
    try:
        _run_stage(model, plan, audited, partial(_adapt_losses, cache={}), metrics)
    except NumericError as exc:
        _abort_with_last_good(model, plan, provenance, exc)

    banned = seen_fields - {"mel", "speaker_id", "utterance_id"}
    if banned:
        raise ConfigError(f"adaptation read transcript-adjacent fields: {sorted(banned)}")
    provenance["field_audit"] = sorted(seen_fields)
    provenance["trained_speakers"] = sorted(set(trained) | {target})

    out = Checkpoint.from_model(model, provenance=provenance)
    allowed = {n for n in model.params
               if group_of(n) in plan.trainable_groups - {"SpeakerTable"}}
    rows = {"speaker_table": [target]} if plan.adapt_speaker_row else None
    assert_freeze(aligned_ckpt, out, allowed, allowed_rows=rows, stage=plan.stage)
    return out, metrics


def synthesize(ckpt, phonemes, speaker_id) -> np.ndarray:
    """Transcript-only inference: durations, pitch, and acoustic conditions
    all predicted. A speaker the checkpoint never trained falls back to the
    mean of the trained speaker rows (zero-shot baseline)."""
    model = ckpt.to_model()
    trained = set(ckpt.provenance.get("trained_speakers", []))
    if not 0 <= speaker_id < model.config.n_speakers:
        raise ConfigError(
            f"speaker id {speaker_id} outside table of {model.config.n_speakers} rows"
        )
    if trained and speaker_id not in trained:
        rows = np.asarray(sorted(trained), dtype=np.int64)
        mean_row = model.params["speaker_table"].data[rows].mean(axis=0)
        spk = mm.SpeakerContext(speaker_id, Tensor(mean_row[None, :]))
    else:
        spk = model.speaker_context(speaker_id)
    res = mm.tts_forward(model, phonemes, spk)
    return res.mel.data


# -- metrics ---------------------------------------------------------------


def write_metrics(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "stage", "loss_name", "value"])
        for step, stage, loss_name, value in rows:
            w.writerow([step, stage, loss_name, repr(float(value))])
