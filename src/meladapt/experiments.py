"""Reproducible experiment recipes over the four-stage pipeline.

A `Workbench` owns one seeded run: the oracle corpus, the stage plans, and a
cache of stage checkpoints so paired recipe arms share everything upstream of
the step where they differ (the no-alignment arm reuses the main source
checkpoint, the decoder-finetune arm reuses source and aligning, and so on).
`run_experiment` drives a named recipe and writes checkpoints, per-utterance
reports, and summaries into an output directory; identical (config, recipe,
seed) triples produce byte-identical files. `reference_record` runs every
recipe on one `Workbench` and returns the numbers configs/reference_desk.json
pins.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path

from . import pipeline as pl
from . import synthdata as sd
from .binio import write_text
from .checkpoint import save_checkpoint
from .errors import ConfigError
from .evalmetrics import mel_distance, paired_report, speaker_proximity, write_report_csv

# paired recipe -> its arms A and B, each (name, adaptation base, adapt
# variant); an arm with no base is the unadapted aligned checkpoint
PAIRED = {
    "main": (("adapted", "main", "main"), ("unadapted", None, None)),
    "joint": (("main", "main", "main"), ("joint", "joint", "main")),
    "no-l2": (("main", "main", "main"), ("no_l2", "no_l2", "main")),
    "finetune-all": (("main", "main", "main"),
                     ("finetune", "main", "finetune_mel_encoder_and_decoder")),
}
RECIPES = (*PAIRED, "data-sweep")
SWEEP_SIZES = (1, 2, 5, 10, 20, 50, 100)

ADAPT_POOL = 100       # mel-only records generated per adaptation speaker
EVAL_COUNT = 16        # held-out transcripted utterances per adaptation speaker
DEFAULT_ADAPT_N = 50

EVAL_METRICS = ("mel_mae", "proximity")

# adaptation base -> its upstream checkpoint's key: (Workbench method, variant)
_UPSTREAM = {"main": ("aligned", "main"), "joint": ("source", "joint_training"),
             "no_l2": ("aligned", "no_l2")}


def _utt_uid(speaker_id, utterance_id):
    return speaker_id * 1000 + utterance_id


def score_utterances(ckpt, utts, spec, speakers) -> dict:
    """Synthesize each utterance's transcript for its speaker and score the
    result against its reference mel and, among `speakers`, against the
    oracle voice of `spec`; keyed {metric: {uid: value}}."""
    out = {m: {} for m in EVAL_METRICS}
    for utt in utts:
        mel = pl.synthesize(ckpt, utt.phonemes, utt.speaker_id)
        uid = _utt_uid(utt.speaker_id, utt.utterance_id)
        out["mel_mae"][uid] = mel_distance(mel, utt.mel).value
        out["proximity"][uid] = speaker_proximity(mel, utt.speaker_id, spec, speakers)
    return out


@dataclass
class Workbench:
    cfg: object
    seed: int
    spec: object = None
    source_corpus: object = None
    adapt_corpora: dict = field(default_factory=dict)
    _ckpts: dict = field(default_factory=dict)
    _metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.spec is None:
            self.spec = replace(self.cfg.oracle,
                                seed=self.cfg.oracle.seed + 1009 * self.seed)
        if self.source_corpus is None:
            self.source_corpus = sd.gen_corpus(
                self.spec, self.cfg.corpus.n_speakers,
                self.cfg.corpus.utts_per_speaker)
        if not self.adapt_corpora:
            for spk in self.cfg.adapt_speaker_ids():
                self.adapt_corpora[spk] = sd.gen_corpus(
                    self.spec, 1, ADAPT_POOL + EVAL_COUNT, first_speaker=spk)

    def all_speaker_ids(self):
        return sorted(set(self.source_corpus.speakers())
                      | set(self.adapt_corpora))

    # -- stage checkpoints, cached by content-determining key ---------------

    def _stage(self, key, train):
        """The checkpoint cached under `key`; `train()` returns (checkpoint,
        metrics) the first time the key is asked for."""
        if key not in self._ckpts:
            self._ckpts[key], self._metrics[key] = train()
        return self._ckpts[key]

    def source(self, variant="main"):
        plan = self.cfg.source_plan(variant)
        return self._stage(("source", variant), lambda: pl.train_source(
            self.source_corpus, self.cfg.model, replace(plan, seed=plan.seed + self.seed)))

    def aligned(self, variant="main"):
        plan = self.cfg.align_plan(variant)
        return self._stage(("aligned", variant), lambda: pl.align_mel_encoder(
            self.source("main"), self.source_corpus, replace(plan, seed=plan.seed + self.seed)))

    def adapt_records(self, speaker, n):
        pool = sd.strip_transcripts(self.adapt_corpora[speaker], speaker)
        if n > ADAPT_POOL:
            raise ConfigError(f"adaptation pool holds {ADAPT_POOL} records, "
                              f"asked for {n}")
        return pool[:n]

    def eval_utterances(self, speaker):
        utts = self.adapt_corpora[speaker].of_speaker(speaker)
        return utts[ADAPT_POOL:ADAPT_POOL + EVAL_COUNT]

    def adapted(self, speaker, n=DEFAULT_ADAPT_N, variant="main", base="main"):
        """base picks the upstream path: 'main' (source+align), 'joint'
        (jointly trained source, no aligning stage), 'no_l2' (align without
        the latent constraint)."""
        if base not in _UPSTREAM:
            raise ConfigError(f"unknown adaptation base '{base}'")
        stage, upstream = _UPSTREAM[base]
        plan = self.cfg.adapt_plan(
            variant, seed=self.cfg.adapt.seed + self.seed + 31 * speaker + n)
        key = ("adapted", base, variant, speaker, n)
        return self._stage(key, lambda: pl.adapt_untranscribed(
            getattr(self, stage)(upstream), self.adapt_records(speaker, n), plan))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, ckpt, speaker) -> dict:
        """Metric values for each held-out utterance of `speaker`,
        keyed {metric: {uid: value}}."""
        return score_utterances(ckpt, self.eval_utterances(speaker), self.spec,
                                self.all_speaker_ids())

    def evaluate_arm(self, ckpt_for_speaker) -> dict:
        """Pool per-speaker evaluations; `ckpt_for_speaker` maps speaker ->
        checkpoint to synthesize with."""
        pooled = {m: {} for m in EVAL_METRICS}
        for speaker in sorted(ckpt_for_speaker):
            got = self.evaluate(ckpt_for_speaker[speaker], speaker)
            for m in EVAL_METRICS:
                pooled[m].update(got[m])
        return pooled


def _arm(bench, base, variant, n=DEFAULT_ADAPT_N):
    """{speaker: checkpoint} of one arm over the adaptation speakers: adapted
    with `n` records from `base` in `variant`, or the aligned checkpoint when
    `base` is None."""
    return {s: bench.adapted(s, n, variant, base) if base else bench.aligned()
            for s in bench.cfg.adapt_speaker_ids()}


def paired_reports(name_a, vals_a, name_b, vals_b) -> dict:
    """{metric: PairedReport} of arm A against arm B, from each arm's values
    keyed {metric: {uid: value}}."""
    return {m: paired_report(name_a, vals_a[m], name_b, vals_b[m], metric=m)
            for m in EVAL_METRICS}


@dataclass
class ExperimentResult:
    recipe: str
    report_rows: list        # (utterance_id, arm, metric, value)
    summaries: list
    sweep_means: dict = None  # data-sweep only: {metric: {n: mean}}
    reports: dict = None      # paired recipes only: {metric: PairedReport}

    def summary_text(self):
        return "\n".join(self.summaries) + "\n"


def run_experiment(recipe, cfg, seed=0, out_dir=None) -> ExperimentResult:
    if recipe not in RECIPES:
        raise ConfigError(f"unknown recipe '{recipe}' (choose from {RECIPES})")
    if seed < 0:
        raise ConfigError(f"experiment seed must be non-negative, got {seed}")
    bench = Workbench(cfg, seed)
    if recipe == "data-sweep":
        result = _run_sweep(bench)
    else:
        result = _run_paired(bench, recipe)
    if out_dir is not None:
        _write_outputs(bench, result, Path(out_dir))
    return result


def _run_paired(bench, recipe) -> ExperimentResult:
    (name_a, *a), (name_b, *b) = PAIRED[recipe]
    arm_a, arm_b = _arm(bench, *a), _arm(bench, *b)
    reports = paired_reports(name_a, bench.evaluate_arm(arm_a),
                             name_b, bench.evaluate_arm(arm_b))
    rows = [row for rep in reports.values() for row in rep.rows()]
    summaries = [rep.summary() for rep in reports.values()]
    return ExperimentResult(recipe=recipe, report_rows=rows, summaries=summaries,
                            reports=reports)


def _run_sweep(bench) -> ExperimentResult:
    rows, summaries = [], []
    means = {m: {} for m in EVAL_METRICS}
    for n in SWEEP_SIZES:
        arm = f"n={n}"
        vals = bench.evaluate_arm(_arm(bench, "main", "main", n))
        for metric in EVAL_METRICS:
            per_utt = vals[metric]
            for uid in sorted(per_utt):
                rows.append((uid, arm, metric, per_utt[uid]))
            mean = sum(per_utt[u] for u in sorted(per_utt)) / len(per_utt)
            means[metric][n] = mean
        summaries.append(
            f"n={n}: " + ", ".join(
                f"mean {m} {means[m][n]:.6f}" for m in EVAL_METRICS))
    return ExperimentResult(recipe="data-sweep", report_rows=rows,
                            summaries=summaries, sweep_means=means)


# pinned block -> paired recipe it is read from
_PINNED_BLOCKS = {
    "criterion4_adaptation_gain": "main",
    "criterion5a_no_l2": "no-l2",
    "criterion5b_finetune": "finetune-all",
    "criterion6_joint": "joint",
}


def _tail_mean(metrics, loss_name, k=20):
    vals = [v for _, _, name, v in metrics if name == loss_name]
    return sum(vals[-k:]) / min(k, len(vals))


def _paired_block(rep):
    """Arm means, the mean difference and arm A's win fraction. The main
    recipe's block pins the gain of adapting, unadapted minus adapted mean,
    as `margin`; every other block pins `mean_delta`, A minus B."""
    mean_a = sum(rep.a_values) / len(rep.a_values)
    mean_b = sum(rep.b_values) / len(rep.b_values)
    block = {f"{rep.arm_a}_mean": mean_a, f"{rep.arm_b}_mean": mean_b,
             f"fraction_{rep.arm_a}_wins": rep.fraction_a_beats_b}
    if rep.arm_b == "unadapted":
        block["margin"] = mean_b - mean_a
    else:
        block["mean_delta"] = rep.mean_delta
    return block


def reference_record(bench) -> dict:
    """Every number configs/reference_desk.json pins, computed on `bench`:
    the stage-loss tails, one block per paired recipe (criteria 4-6), the
    data-sweep means keyed by str(n) (criterion 7), the seed, the source
    corpus hash and the relative tolerance the acceptance suite compares at."""
    record = {"seed": bench.seed,
              "source_corpus_hash": sd.corpus_hash(bench.source_corpus),
              "tolerance_rel": 1e-9}
    for key, recipe in _PINNED_BLOCKS.items():
        reports = _run_paired(bench, recipe).reports
        record[key] = {m: _paired_block(reports[m]) for m in EVAL_METRICS}
    means = _run_sweep(bench).sweep_means
    record["criterion7_sweep"] = {
        m: {str(n): v for n, v in means[m].items()} for m in EVAL_METRICS}
    source = bench._metrics[("source", "main")]
    joint = bench._metrics[("source", "joint_training")]
    align = bench._metrics[("aligned", "main")]
    record.update(
        source_final_mel_mae=_tail_mean(source, "mel"),
        joint_final_mel_mae=_tail_mean(joint, "mel"),
        align_first_alignment=_tail_mean(align[:8], "alignment", k=2),
        align_final_alignment=_tail_mean(align, "alignment"),
        align_final_reconstruction=_tail_mean(align, "reconstruction"))
    return record


class _Absent:
    def __repr__(self):
        return "absent"


_ABSENT = _Absent()


def pin_changes(old, new, path="") -> list:
    """One line `path: old -> new (rel r)` per leaf of two JSON values that
    differs, in key order; `rel` is given between two numbers, and a leaf on
    one side only shows the other side as `absent`."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for k in sorted(old.keys() | new.keys())
                for line in pin_changes(old.get(k, _ABSENT), new.get(k, _ABSENT),
                                        f"{path}.{k}" if path else str(k))]
    if isinstance(old, list) and isinstance(new, list):
        n = max(len(old), len(new))
        old, new = (v + [_ABSENT] * (n - len(v)) for v in (old, new))
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in pin_changes(a, b, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    line = f"{path}: {old!r} -> {new!r}"
    if all(type(v) in (int, float) for v in (old, new)) and old != 0:
        line += f" (rel {abs(new - old) / abs(old):.1e})"
    return [line]


def _write_outputs(bench, result, out_dir):
    from .config import write_effective_config

    out_dir.mkdir(parents=True, exist_ok=True)
    write_effective_config(bench.cfg, out_dir)
    for key, ckpt in sorted(bench._ckpts.items(), key=repr):
        stem = "_".join(str(p) for p in key)
        save_checkpoint(ckpt, out_dir / f"{stem}.ckpt")
        metrics = bench._metrics.get(key)
        if metrics:
            pl.write_metrics(metrics, out_dir / f"{stem}_metrics.csv")
    write_report_csv(result.report_rows, out_dir / "report.csv")
    write_text(out_dir / "summary.txt", result.summary_text())
    if result.sweep_means is not None:
        lines = ["n," + ",".join(f"mean_{m}" for m in EVAL_METRICS)]
        for n in SWEEP_SIZES:
            vals = ",".join(repr(result.sweep_means[m][n]) for m in EVAL_METRICS)
            lines.append(f"{n},{vals}")
        write_text(out_dir / "sweep.csv", "\n".join(lines) + "\n")
