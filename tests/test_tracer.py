"""The benchmark's tracer (perfbench/spans.py) wraps meladapt functions by
attribute name from outside the package. Installing it fails if a name it
wraps is gone, and uninstalling it must put every original back."""

import importlib.util
from pathlib import Path

from meladapt import pipeline as pl
from meladapt import synthdata as sd
from tests.test_model import TINY

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(spans):
    return [spans.autodiff, spans.autodiff.Tape, spans.model, spans.melencoder,
            spans.pipeline, spans.checkpoint, spans.checkpoint.Checkpoint,
            spans.binio, spans.evalmetrics, spans.synthdata]


def _snapshot(owners):
    return [dict(vars(owner)) for owner in owners]


def test_full_tracer_installs_traces_a_step_and_restores_originals():
    spans = _load_spans()
    owners = _owners(spans)
    before = _snapshot(owners)
    tracer = spans.Tracer(full=True)
    tracer.install()
    try:
        patched = [name for owner, old in zip(owners, before)
                   for name, value in vars(owner).items()
                   if name in old and value is not old[name]]
        assert set(spans.OPS) <= set(patched)
        assert {"adam_step", "backward", "assert_freeze", "synthesize"} <= set(patched)
        assert {"from_model", "to_model"} <= set(patched)
        spec = sd.OracleSpec(seed=1, phoneme_vocab_size=TINY.phoneme_vocab_size,
                             mel_dim=TINY.mel_dim, noise_sigma=0.01)
        plan = pl.source_plan(steps=1, batch_size=2)
        ckpt, _ = pl.train_source(sd.gen_corpus(spec, 2, 4), TINY, plan)
        pl.synthesize(ckpt, [0, 1, 2], 0)
    finally:
        tracer.uninstall()
    after = _snapshot(owners)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is old[name] for name in old)

    names = [s[spans.NAME] for s in tracer.spans]
    for name in ("step", "forward", "backward", "adam", "pipeline.freeze_audit",
                 "checkpoint.from_model", "synthesize", "checkpoint.to_model"):
        assert name in names, name
    step = names.index("step")
    children = [s[spans.NAME] for s in tracer.spans if s[spans.PARENT] == step]
    assert children == ["forward", "backward", "adam"]
    assert not tracer.stack
