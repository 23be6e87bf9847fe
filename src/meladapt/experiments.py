"""Reproducible experiment recipes over the four-stage pipeline.

An arm is a chain, the (stage, variant) steps it runs in order from a fresh
initialisation. A `Workbench` owns one seeded run: the oracle corpus and a
cache of checkpoints by chain, so paired arms share every step before their
chains part. `run_experiment` drives a named recipe and writes checkpoints,
per-utterance reports, and summaries into an output directory; identical
(config, recipe, seed) triples produce byte-identical files. `reference_record`
runs every recipe on one `Workbench` and returns the numbers
configs/reference_desk.json pins.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path

from . import pipeline as pl
from . import synthdata as sd
from .binio import write_text
from .checkpoint import save_checkpoint
from .config import write_effective_config
from .errors import ConfigError
from .evalmetrics import mel_distance, paired_report, speaker_proximity, write_report_csv

SOURCE = ((pl.STAGE_SOURCE, "main"),)
ALIGNED = SOURCE + ((pl.STAGE_ALIGN, "main"),)
ADAPTED = ALIGNED + ((pl.STAGE_ADAPT, "main"),)
JOINT = ((pl.STAGE_SOURCE, "joint_training"),)
JOINT_ADAPTED = JOINT + ((pl.STAGE_ADAPT, "main"),)
NO_L2_ALIGNED = SOURCE + ((pl.STAGE_ALIGN, "no_l2"),)
NO_L2_ADAPTED = NO_L2_ALIGNED + ((pl.STAGE_ADAPT, "main"),)
FINETUNE_ADAPTED = ALIGNED + ((pl.STAGE_ADAPT, "finetune_mel_encoder_and_decoder"),)

# paired recipe -> its arms A and B, each (name, chain)
PAIRED = {
    "main": (("adapted", ADAPTED), ("unadapted", ALIGNED)),
    "joint": (("main", ADAPTED), ("joint", JOINT_ADAPTED)),
    "no-l2": (("main", ADAPTED), ("no_l2", NO_L2_ADAPTED)),
    "finetune-all": (("main", ADAPTED), ("finetune", FINETUNE_ADAPTED)),
}
RECIPES = (*PAIRED, "data-sweep")
SWEEP_SIZES = (1, 2, 5, 10, 20, 50, 100)

ADAPT_POOL = 100       # mel-only records generated per adaptation speaker
EVAL_COUNT = 16        # held-out transcripted utterances per adaptation speaker
DEFAULT_ADAPT_N = 50

EVAL_METRICS = ("mel_mae", "proximity")


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
    _runs: dict = field(default_factory=dict)  # (chain, speaker, n) -> (ckpt, metrics)

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

    def adapt_records(self, speaker, n):
        pool = sd.strip_transcripts(self.adapt_corpora[speaker], speaker)
        if n > ADAPT_POOL:
            raise ConfigError(f"adaptation pool holds {ADAPT_POOL} records, "
                              f"asked for {n}")
        return pool[:n]

    def eval_utterances(self, speaker):
        utts = self.adapt_corpora[speaker].of_speaker(speaker)
        return utts[ADAPT_POOL:ADAPT_POOL + EVAL_COUNT]

    # -- stage checkpoints, cached by chain ---------------------------------

    def run(self, chain, speaker=None, n=DEFAULT_ADAPT_N):
        """The checkpoint at the end of the tuple `chain`, whose one source
        step comes first; an adaptation step adapts to `speaker` with `n` of
        its records. A chain trains once, one that adapts once per (speaker, n)."""
        if pl.STAGE_ADAPT not in dict(chain):
            speaker = n = None
        key = (chain, speaker, n)
        if key not in self._runs:
            upstream, (stage, variant) = chain[:-1], chain[-1]
            if stage not in pl.TRAINS or (stage == pl.STAGE_SOURCE) == bool(upstream):
                raise ConfigError(f"chain {chain} is not one source step then other stages")
            if stage == pl.STAGE_SOURCE:
                plan = self.cfg.source_plan(variant)
                out = pl.train_source(self.source_corpus, self.cfg.model,
                                      replace(plan, seed=plan.seed + self.seed))
            elif stage == pl.STAGE_ALIGN:
                plan = self.cfg.align_plan(variant)
                out = pl.align_mel_encoder(self.run(upstream), self.source_corpus,
                                           replace(plan, seed=plan.seed + self.seed))
            else:
                plan = self.cfg.adapt_plan(
                    variant, seed=self.cfg.adapt.seed + self.seed + 31 * speaker + n)
                out = pl.adapt_untranscribed(self.run(upstream, speaker, n),
                                             self.adapt_records(speaker, n), plan)
            self._runs[key] = out
        return self._runs[key][0]

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


def _arm(bench, chain, n=DEFAULT_ADAPT_N):
    """{speaker: checkpoint} of one arm over the adaptation speakers: the end
    of `chain`, adapted with `n` records of the speaker if it adapts."""
    return {s: bench.run(chain, s, n) for s in bench.cfg.adapt_speaker_ids()}


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
    (name_a, chain_a), (name_b, chain_b) = PAIRED[recipe]
    arm_a, arm_b = _arm(bench, chain_a), _arm(bench, chain_b)
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
        vals = bench.evaluate_arm(_arm(bench, ADAPTED, n))
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
    source, joint, align = (bench._runs[c, None, None][1] for c in (SOURCE, JOINT, ALIGNED))
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
    write_effective_config(bench.cfg, out_dir)
    for (chain, speaker, size), (ckpt, metrics) in bench._runs.items():
        stem = ".".join(f"{stage}-{variant}" for stage, variant in chain)
        if speaker is not None:
            stem += f".speaker{speaker}-n{size}"
        save_checkpoint(ckpt, out_dir / f"{stem}.ckpt")
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
