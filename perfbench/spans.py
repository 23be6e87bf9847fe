"""In-memory spans recorded around meladapt's public functions, from outside.

A `Tracer` replaces module and class attributes of each meladapt layer with
thin wrappers that append spans (name, start, end, parent, job, unit, stage,
info) to a list, and puts the originals back on `uninstall`. Nothing under
`src/` knows about it.

`Tracer(full=False)` wraps only the step and synthesis boundaries; the
untraced end-to-end run times steps with it. `Tracer(full=True)` also wraps
every autodiff op, the model layers, the mel encoder, Adam, the freeze audit,
checkpoint and container I/O, the evaluation metrics and the corpus
generator; the per-layer numbers come from that run.

A training step is the interval from `Tape.__enter__` to the return of the
stage loop's `adam_step`: its children are the forward pass (the tape's
context), `backward` and Adam.
"""

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from meladapt import (autodiff, binio, checkpoint, evalmetrics, melencoder, model,
                      pipeline, synthdata)

_now = time.perf_counter

# autodiff op -> reported category; every other public op counts as "other"
OP_CATEGORIES = ("matmul", "conv1d", "layer_norm", "softmax", "add", "gather_rows", "other")
OPS = ("add", "sub", "mul", "smul", "matmul", "transpose", "relu", "softmax",
       "layer_norm", "conv1d", "embedding", "gather_rows", "slice_cols",
       "concat_cols", "sum_all", "mean_all", "masked_mae", "masked_mse")

# model-layer function -> reported layer
MODEL_LAYERS = {
    "encode_phonemes": "encode_phonemes",
    "duration_predictor": "predictors",
    "durations_from_log": "predictors",
    "length_regulate": "predictors",
    "pitch_predictor": "predictors",
    "pitch_pathway": "predictors",
    "acoustic_condition": "acoustic",
    "acoustic_extract": "acoustic",
    "acoustic_predict": "acoustic",
    "acoustic_additions": "acoustic",
    "decode": "decode",
}

# span field positions
NAME, START, END, PARENT, JOB, UNIT, STAGE, INFO = range(8)


class Tracer:
    def __init__(self, full):
        self.full = full
        self.spans = []
        self.stack = []
        self.job = 0
        self.unit_index = 0
        self.stage_name = None
        self._undo = []

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.job, self.unit_index,
                           self.stage_name, None])
        self.stack.append(idx)
        return idx

    def close(self, idx, info=None):
        self.spans[idx][END] = _now()
        if info is not None:
            self.spans[idx][INFO] = info
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")

    def begin_job(self, job):
        """Spans opened from here on belong to `job` (0 is set-up, None none)."""
        self.job = job
        self.unit_index = 0
        self.stage_name = None
        self.stack.clear()

    @contextmanager
    def stage(self, name):
        """A stage of a job, file in to file out; labels the spans inside."""
        self.stage_name = name
        idx = self.open("stage")
        try:
            yield
        finally:
            self.close(idx)
            self.stage_name = None

    @contextmanager
    def unit(self, name):
        """One evaluated item, numbered within the job."""
        self.unit_index += 1
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr, name, info=None):
        self._patch(owner, attr, self._spanned(getattr(owner, attr), name, info))

    def _spanned(self, fn, name, info=None):
        """`fn` inside a span; `info(result, *args)` annotates the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info is not None:
                tracer.spans[idx][INFO] = info(result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        tracer, full = self, self.full
        tape_enter, tape_exit = autodiff.Tape.__enter__, autodiff.Tape.__exit__
        adam_step = pipeline.adam_step

        def enter(tape):
            tracer.unit_index += 1
            tracer.open("step")
            if full:
                tracer.open("forward")
            return tape_enter(tape)

        def exit_(tape, *exc):
            result = tape_exit(tape, *exc)
            if full:
                tracer.close(tracer.stack[-1], info=len(tape))
            return result

        def adam(params, grads, state, **kwargs):
            idx = tracer.open("adam") if full else None
            try:
                adam_step(params, grads, state, **kwargs)
            finally:
                if full:
                    tracer.close(idx, info=(len(params),
                                            sum(t.data.size for t in params.values())))
                tracer.close(tracer.stack[-1])

        self._patch(autodiff.Tape, "__enter__", enter)
        self._patch(autodiff.Tape, "__exit__", exit_)
        self._patch(pipeline, "adam_step", adam)
        self._wrap(pipeline, "synthesize", "synthesize")
        if not full:
            return

        for op in OPS:
            cat = op if op in OP_CATEGORIES else "other"
            self._wrap(autodiff, op, f"op.{cat}")
        for fn, layer in MODEL_LAYERS.items():
            frames = (lambda out, *a: out.shape[0]) if fn == "decode" else None
            self._wrap(model, fn, f"model.{layer}", frames)
        self._wrap(melencoder, "mel_encoder_forward", "melencoder.forward",
                   lambda out, m, mel: hash(mel.data.tobytes()))
        self._wrap(pipeline, "backward", "backward")
        self._wrap(pipeline, "assert_freeze", "pipeline.freeze_audit")
        from_model = checkpoint.Checkpoint.__dict__["from_model"].__func__
        self._patch(checkpoint.Checkpoint, "from_model",
                    classmethod(self._spanned(from_model, "checkpoint.from_model")))
        self._wrap(checkpoint.Checkpoint, "to_model", "checkpoint.to_model",
                   lambda out, ckpt: id(ckpt))
        self._wrap(checkpoint, "save_checkpoint", "checkpoint.save")
        self._wrap(checkpoint, "load_checkpoint", "checkpoint.load")
        self._wrap(binio, "write_container", "binio.write",
                   lambda out, path, *a: os.path.getsize(path))
        self._wrap(binio, "read_container", "binio.read",
                   lambda out, path, *a: os.path.getsize(path))
        self._wrap(evalmetrics, "mel_distance", "evalmetrics.mel_distance")
        self._wrap(evalmetrics, "speaker_proximity", "evalmetrics.proximity")
        self._wrap(synthdata, "gen_utterance", "synthdata.gen_corpus")
        self._wrap(synthdata, "strip_transcripts", "synthdata.strip_transcripts")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ------------------------------------------------------------

    def durations(self, name, stage, job):
        """Wall time in seconds of each `name` span of one stage of one job."""
        return [s[END] - s[START] for s in self.spans
                if s[NAME] == name and s[STAGE] == stage and s[JOB] == job]

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_us,end_us,parent,job,unit,stage,info\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{(s[START] - t0) * 1e6:.1f},"
                         f"{(s[END] - t0) * 1e6:.1f},{s[PARENT]},{s[JOB]},{s[UNIT]},"
                         f"{s[STAGE] or ''},{'' if s[INFO] is None else s[INFO]}\n")


def job_profiles(tracer):
    """Per-layer totals: {(job, stage): (times in ms, exact counts)}."""
    out = {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        key = (s[JOB], s[STAGE])
        if key not in out:
            out[key] = (defaultdict(float), Counter(), set(), set())
        ms, counts, distinct_mel, ckpts = out[key]
        name, dur, own = s[NAME], (s[END] - s[START]) * 1e3, own * 1e3
        if name.startswith("op."):
            ms[f"autodiff.op_ms.{name[3:]}"] += own
            counts[f"autodiff.op_calls.{name[3:]}"] += 1
        elif name.startswith("model."):
            ms[f"{name}_ms"] += own
            if name == "model.decode":
                counts["model.decoded_frames"] += s[INFO]
                counts["model.decode_calls"] += 1
        elif name == "step":
            counts["units"] += 1
            ms["pipeline.step_self_ms"] += own
            ms["step_ms"] += dur
        elif name == "synthesize":
            counts["units"] += 1
            ms["pipeline.synthesize_self_ms"] += own
        elif name == "forward":
            counts["autodiff.tape_records"] += s[INFO]
        elif name == "backward":
            ms["autodiff.backward_ms"] += own
        elif name == "adam":
            ms["optim.adam_ms"] += own
            counts["optim.tensors_updated"] += s[INFO][0]
            counts["optim.elements_updated"] += s[INFO][1]
        elif name == "melencoder.forward":
            ms["melencoder.forward_ms"] += dur
            counts["melencoder.forward_calls"] += 1
            distinct_mel.add(s[INFO])
        elif name == "checkpoint.to_model":
            ms["checkpoint.to_model_ms"] += dur
            counts["checkpoint.to_model_calls"] += 1
            ckpts.add(s[INFO])
        elif name == "binio.write":
            ms["binio.write_ms"] += dur
            counts["binio.bytes_written"] += s[INFO]
        elif name == "binio.read":
            ms["binio.read_ms"] += dur
            counts["binio.bytes_read"] += s[INFO]
        elif name not in ("stage", "utterance"):
            # freeze audit, checkpoint i/o, evalmetrics, synthdata
            ms[f"{name}_ms"] += dur
    for key, (ms, counts, distinct_mel, ckpts) in out.items():
        counts["melencoder.distinct_inputs"] = len(distinct_mel)
        counts["checkpoint.distinct_ckpts"] = len(ckpts)
        out[key] = (ms, counts)
    return out


TRAIN_STAGES = ("source", "align", "adapt", "adapt_finetune")
MEL_STAGES = ("align", "adapt", "adapt_finetune")
RATIOS = {
    "model.frames_per_utt": ("model.decoded_frames", "model.decode_calls"),
    "melencoder.distinct_input_ratio": ("melencoder.distinct_inputs",
                                        "melencoder.forward_calls"),
    "checkpoint.to_model_calls_per_ckpt": ("checkpoint.to_model_calls",
                                           "checkpoint.distinct_ckpts"),
}

# per-layer metrics: (reported name, unit, profile key, stage, normaliser).
# "unit" divides a stage's total by its steps or evaluated utterances, "job"
# divides the total by the number of jobs, "setup" reads the traced set-up,
# "ratio" averages the per-job quotient of two counts (see RATIOS). A stage
# of None means every stage of the job.
PER_LAYER = (
    [(f"{key}.{st}", unit, key, st, "unit") for st in TRAIN_STAGES
     for key, unit in (("autodiff.backward_ms", "ms"), ("autodiff.tape_records", "count"),
                       ("optim.adam_ms", "ms"), ("optim.tensors_updated", "count"),
                       ("optim.elements_updated", "count"),
                       ("pipeline.step_self_ms", "ms"))]
    + [(f"autodiff.{kind}.{op}.{st}", unit, f"autodiff.{kind}.{op}", st, "unit")
       for st in ("source", "adapt", "synth") for op in OP_CATEGORIES
       for kind, unit in (("op_calls", "count"), ("op_ms", "ms"))]
    + [(f"model.{layer}_ms.{st}", "ms", f"model.{layer}_ms", st, "unit")
       for st in ("source", "synth")
       for layer in ("encode_phonemes", "predictors", "acoustic", "decode")]
    + [("model.frames_per_utt", "count", "model.frames_per_utt", "synth", "ratio")]
    + [(f"{key}.{st}", unit, key, st, norm) for st in MEL_STAGES
       for key, unit, norm in (("melencoder.forward_ms", "ms", "unit"),
                               ("melencoder.forward_calls", "count", "unit"),
                               ("melencoder.distinct_input_ratio", "ratio", "ratio"))]
    + [(f"pipeline.freeze_audit_ms.{st}", "ms", "pipeline.freeze_audit_ms", st, "job")
       for st in TRAIN_STAGES]
    + [(key, unit, key, None, norm) for key, unit, norm in (
        ("checkpoint.from_model_ms", "ms", "job"),
        ("checkpoint.save_ms", "ms", "job"),
        ("checkpoint.load_ms", "ms", "job"),
        ("checkpoint.to_model_ms", "ms", "job"),
        ("checkpoint.to_model_calls_per_ckpt", "ratio", "ratio"),
        ("binio.write_ms", "ms", "job"),
        ("binio.read_ms", "ms", "job"),
        ("binio.bytes_written", "B", "job"),
        ("binio.bytes_read", "B", "job"))]
    + [(key, "ms", key, "synth", "unit") for key in (
        "pipeline.synthesize_self_ms", "evalmetrics.mel_distance_ms",
        "evalmetrics.proximity_ms")]
    + [(key, "ms", key, None, "setup") for key in (
        "synthdata.gen_corpus_ms", "synthdata.strip_transcripts_ms")]
    + [("trace.overhead_pct", "%", None, None, "overhead")]
)


def _totals(profiles, jobs, stage):
    """Summed (times, counts) of the given jobs, one stage or (None) all."""
    ms, counts = defaultdict(float), Counter()
    for (job, st), (m, c) in profiles.items():
        if job in jobs and stage in (None, st):
            for k, v in m.items():
                ms[k] += v
            counts.update(c)
    return ms, counts


def layer_metrics(profiles, jobs, overhead_pct):
    """Per-layer metrics over the traced `jobs`; a layer or stage the
    workload never runs reports 0."""
    out = {}
    for name, unit, key, stage, norm in PER_LAYER:
        if norm == "overhead":
            value = overhead_pct
        elif norm == "setup":
            value = _totals(profiles, {0}, None)[0][key]
        elif norm == "ratio":
            num, den = RATIOS[key]
            per_job = [_totals(profiles, {job}, stage)[1] for job in jobs]
            value = sum(c[num] / c[den] for c in per_job if c[den]) / len(jobs)
        else:
            ms, counts = _totals(profiles, set(jobs), stage)
            total = ms[key] if unit == "ms" else counts[key]
            divisor = counts["units"] if norm == "unit" else len(jobs)
            value = total / divisor if divisor else 0.0
        out[name] = (value, unit)
    return out
