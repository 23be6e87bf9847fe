"""The benchmark's workloads: a seeded set-up and one fixed, repeatable job.

Every workload is a closed loop with one client: the job runs its stages to
completion, the harness checks the outputs, and only then starts the next
job. A job is a pure function of the set-up, so every repetition must produce
the same losses and the same bytes.

Inputs have the desk shape: a source corpus of 8 speakers x 60 utterances
and two held-out adaptation speakers with 100 mel-only records and 16 held-out
utterances each, served through `experiments.Workbench`. The oracle world
(phoneme inventory, speaker voices and speaking rates) is the desk oracle's
and stays fixed; the seed picks which utterances exist. A seed-dependent
world would change every speaker's speaking rate, and with it the frames per
utterance by up to a third, which would swamp the timings being compared.
For the same reason every corpus slot keeps the phoneme count of the desk
corpus's utterance in that slot, and the seed picks an utterance of that
length: the steps draw records by slot, so a step's batch has the same
phoneme counts under every seed. With lengths drawn freely, the longest
batches a job draws moved the process's peak memory by a quarter between
seeds.
Stage plans are the desk recipe's, seeds included, cut to a fixed step
count, so every job starts from the same initialisation and its losses
differ between seeds only through the data.
"""

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from meladapt import checkpoint as ck
from meladapt import evalmetrics, pipeline, synthdata
from meladapt.config import desk_config
from meladapt.experiments import ADAPT_POOL, DEFAULT_ADAPT_N, EVAL_COUNT, Workbench

# steps per stage and job. Short jobs repeat often within a run, so each
# step's median repetition is taken over many; adapt runs the recipe's full
# 200-step adaptation.
STEPS = {"source": 20, "align": 15, "adapt": 200, "adapt_finetune": 40}

# set-up pre-training at the peak learning rate from step one. Training
# stages start from its checkpoints, whose state does not change step cost.
# Evaluation output length follows the predicted durations, and 20 source
# steps bring the mean synthesized length within about a quarter of the
# corpus's; a few align and adapt steps make the evaluated checkpoints real
# stage outputs. Align steps hold the largest tape, so set-up aligns one
# record per step: otherwise the process's peak memory would be set by the
# four records that set-up happens to draw, not by the measured jobs.
PRE_SOURCE = pipeline.source_plan(steps=4, peak_scale=0.02, warmup=1)
PRE_SOURCE_EVAL_STEPS = 20
PRE_ALIGN_STEPS = 4
PRE_ALIGN_BATCH = 1
PRE_ADAPT_STEPS = 4

ALLOWED_FIELDS = {"mel", "speaker_id", "utterance_id"}

# utterance ids of seed s are drawn from [s, s + 1) * UTTERANCE_ID_STRIDE
UTTERANCE_ID_STRIDE = 10000


@dataclass
class StageResult:
    """One stage of a job: its deterministic outputs, compared across jobs."""

    name: str
    units: int                   # training steps or evaluated utterances
    trajectory: list             # loss rows, or per-utterance results
    mean_loss: float             # mean total loss, or mean mel distance
    output: Path = None          # checkpoint file the stage wrote
    field_audit: set = None      # adaptation: record fields the stage read


@dataclass
class State:
    dir: Path
    cfg: object
    bench: Workbench
    files: dict = None           # checkpoint files written by set-up
    speaker: int = None          # adaptation speaker
    records: list = None         # its mel-only records
    arms: list = None            # evaluation: (checkpoint file, speaker) pairs


def length_matched(spec, speaker, n, first):
    """`n` utterances of `speaker`: slot i holds the first utterance from id
    `first` on whose phoneme count is that of desk utterance i."""
    want = [len(synthdata.gen_utterance(spec, speaker, u).phonemes) for u in range(n)]
    open_slots = {}
    for slot, length in enumerate(want):
        open_slots.setdefault(length, []).append(slot)
    out = [None] * n
    for u in range(first, first + UTTERANCE_ID_STRIDE):
        utt = synthdata.gen_utterance(spec, speaker, u)
        slots = open_slots.get(len(utt.phonemes))
        if slots:
            out[slots.pop(0)] = utt
            if all(x is not None for x in out):
                return out
    raise RuntimeError(f"speaker {speaker}: no {n} length-matched utterances "
                       f"among ids {first}..{first + UTTERANCE_ID_STRIDE - 1}")


def workbench(seed):
    """Desk-shaped corpora whose utterances are drawn by `seed`."""
    cfg = desk_config()
    spec = cfg.oracle
    first = seed * UTTERANCE_ID_STRIDE

    def corpus(speakers, n):
        return synthdata.Corpus(spec, [utt for s in speakers
                                       for utt in length_matched(spec, s, n, first)])

    source = corpus(range(cfg.corpus.n_speakers), cfg.corpus.utts_per_speaker)
    adapt = {s: corpus([s], ADAPT_POOL + EVAL_COUNT) for s in cfg.adapt_speaker_ids()}
    return Workbench(cfg, seed, spec=spec, source_corpus=source, adapt_corpora=adapt)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def roundtrip_ok(path, copy):
    """save -> load -> save (to `copy`) must reproduce the file byte for byte."""
    ck.save_checkpoint(ck.load_checkpoint(path), copy)
    return Path(copy).read_bytes() == Path(path).read_bytes()


def _pretrain(bench, directory, source_steps=PRE_SOURCE.steps, adapt_speakers=()):
    cfg = bench.cfg
    plan = replace(PRE_SOURCE, steps=source_steps)
    src, _ = pipeline.train_source(bench.source_corpus, cfg.model, plan)
    files = {"source": directory / "source.ckpt"}
    ck.save_checkpoint(src, files["source"])
    plan = replace(cfg.align_plan(), steps=PRE_ALIGN_STEPS, batch_size=PRE_ALIGN_BATCH)
    aligned, _ = pipeline.align_mel_encoder(src, bench.source_corpus, plan)
    files["aligned"] = directory / "aligned.ckpt"
    ck.save_checkpoint(aligned, files["aligned"])
    for spk in adapt_speakers:
        plan = cfg.adapt_plan("main", steps=PRE_ADAPT_STEPS)
        adapted, _ = pipeline.adapt_untranscribed(
            aligned, bench.adapt_records(spk, DEFAULT_ADAPT_N), plan)
        files[f"adapted-{spk}"] = directory / f"adapted-{spk}.ckpt"
        ck.save_checkpoint(adapted, files[f"adapted-{spk}"])
    return files


def _trained(name, metrics, out, field_audit=None):
    losses = [(step, loss, value) for step, _, loss, value in metrics]
    totals = [v for _, loss, v in losses if loss == "total"]
    return StageResult(name, len(totals), losses, float(np.mean(totals)), out, field_audit)


def verify(st, stage):
    """Checks on one stage's output, run outside the timed job: every number
    finite, save -> load -> save byte-identical, and adaptation reading only
    mel-side fields. Returns ([(name, passed)], output sha256)."""
    numbers = [x for row in stage.trajectory for x in row if isinstance(x, float)]
    checks = [("outputs_finite", bool(np.isfinite(numbers).all()))]
    digest = ""
    if stage.output is not None:
        digest = sha256(stage.output)
        checks.append(("save_load_save_identical",
                       roundtrip_ok(stage.output, st.dir / "roundtrip.ckpt")))
    if stage.field_audit is not None:
        checks.append(("field_audit_mel_only",
                       bool(stage.field_audit) and stage.field_audit <= ALLOWED_FIELDS))
    return checks, digest


class Workload:
    """One named workload. `setup(seed, dir)` returns a State; `job(state,
    tracer)` runs the stages in order, each inside a stage span, and returns
    their StageResults.

    Every workload reports the same metrics: `primary` and `secondary` name
    (stage, span) pairs whose spans are timed as `step_ms` / `step_ms_p95`
    and `step2_ms`; `job_s` is the median repetition of the primary stage,
    file in to file out."""

    name = ""
    primary = secondary = (None, None)
    aliases = {}            # benchmark metric -> stage-specific name, printed too

    def setup(self, seed, directory):
        bench = workbench(seed)
        return State(directory, bench.cfg, bench)

    def job(self, st, tracer):
        raise NotImplementedError


class TrainTranscribed(Workload):
    """Source steps, then align steps from a source checkpoint file, on the
    desk source corpus (384 training records, batch 4). In source steps the
    whole phoneme-side graph runs forward and backward and Adam updates
    nearly every parameter; in align steps the frozen phoneme encoder is
    recomputed on every pick, the mel encoder runs twice per record, and only
    the mel encoder trains. Teacher forcing fixes the shapes, so step cost
    does not depend on how far training has got."""

    name = "train-transcribed"
    primary, secondary = ("source", "step"), ("align", "step")
    aliases = {"step_ms": "source_step_ms", "step_ms_p95": "source_step_ms_p95",
               "step2_ms": "align_step_ms", "mean_loss": "source_final_loss"}

    def setup(self, seed, directory):
        st = super().setup(seed, directory)
        st.files = _pretrain(st.bench, directory)
        return st

    def job(self, st, tracer):
        cfg, corpus = st.cfg, st.bench.source_corpus
        with tracer.stage("source"):
            plan = replace(cfg.source_plan(), steps=STEPS["source"])
            ckpt, metrics = pipeline.train_source(corpus, cfg.model, plan)
            ck.save_checkpoint(ckpt, st.dir / "source-out.ckpt")
        source = _trained("source", metrics, st.dir / "source-out.ckpt")
        with tracer.stage("align"):
            plan = replace(cfg.align_plan(), steps=STEPS["align"])
            start = ck.load_checkpoint(st.files["source"])
            ckpt, metrics = pipeline.align_mel_encoder(start, corpus, plan)
            ck.save_checkpoint(ckpt, st.dir / "align-out.ckpt")
        return [source, _trained("align", metrics, st.dir / "align-out.ckpt")]


class AdaptUntranscribed(Workload):
    """The adopter's path: aligned checkpoint file in, adapted file out, 200
    steps on one held-out speaker's 50 mel-only records with the freeze
    audit; then the finetune_mel_encoder_and_decoder variant from the same
    file. The same pipeline and mel-encoder code runs two ways: in `adapt`
    only the conditional layer norms and one speaker row train, so the
    mel-encoder prefix is frozen and recomputed on every pick and Adam is
    nearly idle; in `adapt_finetune` that prefix trains and Adam is busy."""

    name = "adapt-untranscribed"
    primary, secondary = ("adapt", "step"), ("adapt_finetune", "step")
    aliases = {"step_ms": "adapt_step_ms", "step_ms_p95": "adapt_step_ms_p95",
               "step2_ms": "adapt_finetune_step_ms", "job_s": "adapt_total_s",
               "mean_loss": "adapt_final_loss"}

    def setup(self, seed, directory):
        st = super().setup(seed, directory)
        st.files = _pretrain(st.bench, directory)
        st.speaker = st.cfg.adapt_speaker_ids()[0]
        st.records = st.bench.adapt_records(st.speaker, DEFAULT_ADAPT_N)
        return st

    def job(self, st, tracer):
        cfg, out = st.cfg, []
        for stage, variant in (("adapt", "main"),
                               ("adapt_finetune", "finetune_mel_encoder_and_decoder")):
            path = st.dir / f"{stage}-out.ckpt"
            with tracer.stage(stage):
                plan = cfg.adapt_plan(variant, steps=STEPS[stage])
                aligned = ck.load_checkpoint(st.files["aligned"])
                ckpt, metrics = pipeline.adapt_untranscribed(aligned, st.records, plan)
                ck.save_checkpoint(ckpt, path)
            out.append(_trained(stage, metrics, path,
                                set(ckpt.provenance.get("field_audit", ()))))
        return out


class EvaluateArms(Workload):
    """Inference the way `meladapt eval` works: load the adapted and the
    unadapted checkpoints from disk, then synthesize and score every held-out
    utterance (2 speakers x 16 per arm). No tape and no optimizer: checkpoint
    loading and `to_model`, inference-mode model forward and the metrics
    take the time. `step_ms` times `synthesize`, `step2_ms` a whole
    utterance's evaluation (synthesize plus both metrics)."""

    name = "evaluate-arms"
    primary, secondary = ("synth", "synthesize"), ("synth", "utterance")
    aliases = {"step_ms": "synth_ms", "step_ms_p95": "synth_ms_p95",
               "units_per_s": "eval_utts_per_s"}

    def setup(self, seed, directory):
        st = super().setup(seed, directory)
        speakers = st.cfg.adapt_speaker_ids()
        st.files = _pretrain(st.bench, directory, PRE_SOURCE_EVAL_STEPS,
                             adapt_speakers=speakers)
        # the adapted arm, then the unadapted one
        st.arms = ([(st.files[f"adapted-{s}"], s) for s in speakers]
                   + [(st.files["aligned"], s) for s in speakers])
        return st

    def job(self, st, tracer):
        rows = []
        speakers = st.bench.all_speaker_ids()
        with tracer.stage("synth"):
            for path, speaker in st.arms:
                ckpt = ck.load_checkpoint(path)
                for utt in st.bench.eval_utterances(speaker):
                    with tracer.unit("utterance"):
                        mel = pipeline.synthesize(ckpt, utt.phonemes, speaker)
                        mae = evalmetrics.mel_distance(mel, utt.mel).value
                        prox = evalmetrics.speaker_proximity(mel, speaker, st.bench.spec,
                                                             speakers)
                    rows.append((path.name, utt.utterance_id, mel.shape[0], mae, prox))
        return [StageResult("synth", len(rows), rows, float(np.mean([r[3] for r in rows])))]


WORKLOADS = {w.name: w for w in (TrainTranscribed(), AdaptUntranscribed(), EvaluateArms())}
