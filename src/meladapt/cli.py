"""Command-line entry point.

Subcommands cover corpus generation, the three training stages, inference,
objective evaluation, and the paired experiment recipes. Every run is fully
determined by its config file, flags, and seed; the effective configuration is
echoed next to each output so results are self-describing.

Exit codes: 0 success, 2 configuration error, 3 parameter-freeze violation,
4 numeric failure, 5 file-format error. The training commands print their
final losses (adapt: the record fields it consumed) and `eval` each arm it
scored, besides the output paths.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import binio
from . import experiments as ex
from . import pipeline as pl
from . import synthdata as sd
from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_text, desk_config, load_config, write_effective_config
from .errors import ConfigError, MelAdaptError
from .evalmetrics import write_report_csv

MEL_MAGIC = b"MAMEL\x00\x00\x01"
MEL_VERSION = 1


def _load_cfg(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    return desk_config()


def _corpus(path, full, command, mel_dim=None, default_name="source.corpus"):
    """The corpus `command` reads from `path`, a file or a directory holding
    `default_name`: a `Corpus` of full records when `full`, else a list of
    mel-only records. The other kind exits 2, and a file whose mel width is
    not `mel_dim` (when given) exits 5."""
    p = Path(path)
    if p.is_dir():
        p = p / default_name
    corpus = sd.load_corpus(p, expect_mel_dim=mel_dim)
    if isinstance(corpus, sd.Corpus) != full:
        kinds = ("mel-only", "transcript-bearing")
        raise ConfigError(f"{p}: {command} reads a {kinds[full]} corpus, "
                          f"not a {kinds[not full]} one")
    return corpus


def _echo_config(cfg, out_path):
    """Write the effective config next to an output file or into a directory."""
    out_path = Path(out_path)
    if out_path.is_dir():
        return write_effective_config(cfg, out_path)
    target = out_path.with_name(out_path.name + ".cfg")
    target.parent.mkdir(parents=True, exist_ok=True)
    binio.write_text(target, config_text(cfg))
    return target


def save_mel(mel, path, speaker_id):
    mel = np.asarray(mel, dtype=np.float64)
    meta = {"speaker_id": int(speaker_id), "n_frames": int(mel.shape[0]),
            "mel_dim": int(mel.shape[1])}
    binio.write_container(path, MEL_MAGIC, MEL_VERSION, meta, {"mel": mel})


def _finish_stage(cfg, args, ckpt, metrics):
    """Write a training command's checkpoint, its metrics CSV and the echoed
    configuration."""
    save_checkpoint(ckpt, args.out)
    pl.write_metrics(metrics, str(args.out) + ".metrics.csv")
    _echo_config(cfg, args.out)


def _tail_losses(metrics, stage):
    last = {}
    for step, st, name, value in metrics:
        if st == stage:
            last[name] = value
    return ", ".join(f"{k} {v:.5f}" for k, v in sorted(last.items()))


# -- subcommands ------------------------------------------------------------

def cmd_gen_corpus(args):
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench = ex.Workbench(cfg, 0)
    source = bench.source_corpus
    sd.save_corpus(source.spec, source.utterances, out / "source.corpus")
    manifest = {
        "spec": sd.spec_meta(bench.spec),
        "source": {"file": "source.corpus", "hash": sd.corpus_hash(source),
                   "speakers": source.speakers()},
        "adaptation": {},
    }
    for spk in cfg.adapt_speaker_ids():
        pool = bench.adapt_records(spk, ex.ADAPT_POOL)
        evals = sd.Corpus(bench.spec, bench.eval_utterances(spk))
        pool_name = f"adapt_{spk}_pool.corpus"
        eval_name = f"adapt_{spk}_eval.corpus"
        sd.save_corpus(bench.spec, pool, out / pool_name)
        sd.save_corpus(bench.spec, evals.utterances, out / eval_name)
        manifest["adaptation"][str(spk)] = {
            "pool": pool_name, "n_pool": len(pool),
            "eval": eval_name, "eval_hash": sd.corpus_hash(evals),
        }
    binio.write_text(out / "manifest.json",
                     json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _echo_config(cfg, out)
    print(f"wrote corpus for {len(source.speakers())} source and "
          f"{len(manifest['adaptation'])} adaptation speakers to {out}")


def cmd_train_source(args):
    cfg = _load_cfg(args)
    corpus = _corpus(args.corpus, True, "train-source", cfg.model.mel_dim)
    plan = cfg.source_plan(args.variant)
    ckpt, metrics = pl.train_source(corpus, cfg.model, plan)
    _finish_stage(cfg, args, ckpt, metrics)
    print(f"final losses: {_tail_losses(metrics, plan.stage)}")
    print(f"trained source model ({plan.steps} steps) -> {args.out}")


def cmd_align(args):
    cfg = _load_cfg(args)
    ckpt_in = load_checkpoint(args.ckpt)
    corpus = _corpus(args.corpus, True, "align-mel-encoder", ckpt_in.config.mel_dim)
    plan = cfg.align_plan(args.variant)
    ckpt, metrics = pl.align_mel_encoder(ckpt_in, corpus, plan)
    _finish_stage(cfg, args, ckpt, metrics)
    print(f"final losses: {_tail_losses(metrics, plan.stage)}")
    print(f"aligned mel encoder ({plan.steps} steps) -> {args.out}")


def cmd_adapt(args):
    cfg = _load_cfg(args)
    ckpt_in = load_checkpoint(args.ckpt)
    records = _corpus(args.corpus, False, "adapt", ckpt_in.config.mel_dim,
                      default_name=f"adapt_{args.speaker}_pool.corpus")
    records = [r for r in records if r.speaker_id == args.speaker]
    if args.n_utts < 1:
        raise ConfigError(f"--n-utts must be at least 1, got {args.n_utts}")
    if len(records) < args.n_utts:
        raise ConfigError(f"asked for {args.n_utts} utterances of speaker "
                          f"{args.speaker}, corpus holds {len(records)}")
    plan = cfg.adapt_plan(args.variant)
    ckpt, metrics = pl.adapt_untranscribed(ckpt_in, records[: args.n_utts], plan)
    _finish_stage(cfg, args, ckpt, metrics)
    print(f"consumed fields: {ckpt.provenance.get('field_audit')}")
    print(f"adapted to speaker {args.speaker} with {args.n_utts} utterances "
          f"-> {args.out}")


def cmd_synthesize(args):
    ckpt = load_checkpoint(args.ckpt)
    try:
        text = Path(args.text_file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.text_file}: not UTF-8 text ({exc.reason} at "
                          f"byte {exc.start})") from None
    try:
        phonemes = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ConfigError(f"{args.text_file}: phoneme ids must be integers "
                          f"({exc})") from None
    if not phonemes:
        raise ConfigError(f"{args.text_file}: no phoneme ids")
    vocab = ckpt.config.phoneme_vocab_size
    bad = [p for p in phonemes if not 0 <= p < vocab]
    if bad:
        raise ConfigError(f"phoneme ids {bad} outside vocabulary 0..{vocab - 1}")
    mel = pl.synthesize(ckpt, np.asarray(phonemes, dtype=np.int64), args.speaker)
    save_mel(mel, args.out, args.speaker)
    print(f"synthesized {mel.shape[0]} frames x {mel.shape[1]} dims -> {args.out}")


def cmd_eval(args):
    corpus = _corpus(args.corpus, True, "eval")
    names, seen = [], set()
    for path in args.arms:
        stem = Path(path).stem
        name = stem
        k = 2
        while name in seen:
            name = f"{stem}#{k}"
            k += 1
        seen.add(name)
        names.append(name)
    values = {}
    for name, path in zip(names, args.arms):
        values[name] = ex.score_utterances(load_checkpoint(path), corpus.utterances,
                                           corpus.spec, corpus.speakers())
        print(f"evaluated {name} on {len(corpus.utterances)} utterances")
    rows = []
    for name in names:
        for metric in ex.EVAL_METRICS:
            per = values[name][metric]
            rows.extend((uid, name, metric, per[uid]) for uid in sorted(per))
    write_report_csv(rows, args.report)
    print(f"wrote {len(rows)} metric rows -> {args.report}")
    if len(names) == 2:
        reports = ex.paired_reports(names[0], values[names[0]], names[1], values[names[1]])
        lines = [rep.summary() for rep in reports.values()]
        summary_path = Path(str(args.report) + ".summary.txt")
        binio.write_text(summary_path, "\n".join(lines) + "\n")
        for line in lines:
            print(line)


def cmd_experiment(args):
    cfg = _load_cfg(args)
    out = Path(args.out) if args.out else Path("runs") / f"{args.recipe}-seed{args.seed}"
    result = ex.run_experiment(args.recipe, cfg, seed=args.seed, out_dir=out)
    for line in result.summaries:
        print(line)
    print(f"experiment '{args.recipe}' (seed {args.seed}) -> {out}")


def cmd_strip_transcripts(args):
    corpus = _corpus(args.corpus, True, "strip-transcripts")
    records = sd.strip_transcripts(corpus, args.speaker)
    sd.save_corpus(corpus.spec, records, args.out)
    print(f"stripped {len(records)} records of speaker {args.speaker} -> {args.out}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="meladapt",
        description="Custom-voice TTS adaptation from untranscribed speech, "
                    "on a synthetic oracle corpus.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        return sp

    sp = add("gen-corpus", cmd_gen_corpus, "generate the synthetic corpus")
    sp.add_argument("--config", help="config file (defaults to desk profile)")
    sp.add_argument("--out", required=True, help="output directory")

    sp = add("train-source", cmd_train_source, "stage 1: multi-speaker source training")
    sp.add_argument("--corpus", required=True, help="corpus dir or file")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--variant", default="main", choices=list(pl.TRAINS[pl.STAGE_SOURCE]))

    sp = add("align-mel-encoder", cmd_align, "stage 2: fit mel encoder to the "
             "phoneme latent space")
    sp.add_argument("--ckpt", required=True, help="source checkpoint")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.add_argument("--variant", default="main", choices=list(pl.TRAINS[pl.STAGE_ALIGN]))

    sp = add("adapt", cmd_adapt, "stage 3: untranscribed speaker adaptation")
    sp.add_argument("--ckpt", required=True, help="aligned checkpoint")
    sp.add_argument("--corpus", required=True, help="mel-only corpus dir or file")
    sp.add_argument("--speaker", required=True, type=int)
    sp.add_argument("--n-utts", required=True, type=int)
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.add_argument("--variant", default="main", choices=list(pl.TRAINS[pl.STAGE_ADAPT]))

    sp = add("synthesize", cmd_synthesize, "stage 4: mel from phoneme ids")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--text-file", required=True,
                    help="whitespace-separated phoneme ids")
    sp.add_argument("--speaker", required=True, type=int)
    sp.add_argument("--out", required=True, help="mel container path")

    sp = add("eval", cmd_eval, "objective metrics for one or more checkpoints")
    sp.add_argument("--arms", required=True, nargs="+", help="checkpoint paths")
    sp.add_argument("--corpus", required=True, help="reference corpus")
    sp.add_argument("--report", required=True, help="CSV output path")

    sp = add("experiment", cmd_experiment, "full paired recipe, seeded")
    sp.add_argument("--recipe", required=True, choices=ex.RECIPES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config")
    sp.add_argument("--out", help="output directory (default runs/<recipe>-seed<n>)")

    sp = add("strip-transcripts", cmd_strip_transcripts,
             "drop transcript fields from one speaker's records")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--speaker", required=True, type=int)
    sp.add_argument("--out", required=True)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except MelAdaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
