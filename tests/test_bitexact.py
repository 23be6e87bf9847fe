"""Bit-exactness guard: a short TINY pipeline reproduces pinned loss rows
and checkpoint bytes.

Two source steps, two align steps and two steps of each adaptation variant
run on the small corpus and config of `tests/test_pipeline.py`. Every loss
row (each float exact) and the sha256 of each saved checkpoint are pinned in
`tests/bitexact_tiny.json`. The acceptance suite pins the desk-scale numbers
but runs for minutes; this runs in well under a second, so a change to any
op's bits or summation order fails the fast suite.

Exact float results depend on the numpy and BLAS kernels the CPU selects.
The pin therefore carries a fingerprint of that float environment: a hash of
plain numpy results (matmuls at the pipeline's shapes, exp, sqrt, sin,
reductions). Where the fingerprint matches, every bit must match. Elsewhere
the loss rows must agree to the reference tolerance, 1e-9 relative, and the
checkpoint hashes are not compared.

Re-pin after a change that alters numerics on purpose (the re-pin protocol
of ROADMAP.md): `PYTHONPATH=src python3 -m tests.test_bitexact --pin`. It
prints every pinned value that changed as `path: old -> new (rel r)`.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from meladapt import autodiff as ad
from meladapt import checkpoint as cp
from meladapt import pipeline as pl
from meladapt import synthdata as sd
from meladapt.binio import write_text
from meladapt.experiments import pin_changes
from tests.test_fused_ops import composed_attention, composed_conditional_layer_norm
from tests.test_pipeline import CFG, SPEC

PIN = Path(__file__).with_name("bitexact_tiny.json")
TOLERANCE_REL = 1e-9


def float_fingerprint():
    """sha256 of plain numpy results whose bits vary with the float kernels."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(23, 36)), rng.normal(size=(36, 12))
    ab = a @ b
    parts = [ab, a.T @ ab, ab @ b.T, a[:, :8] @ b[:8, :8], np.exp(a), np.sqrt(np.abs(a)),
             np.log(np.abs(a)), np.sin(a), np.cos(a), a.sum(axis=0), a.mean(axis=1),
             np.array(a.sum())]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def run_tiny(tmp_dir):
    """(loss rows, {checkpoint: sha256}) of the short pipeline."""
    corpus = sd.gen_corpus(SPEC, 3, 10)
    records = sd.strip_transcripts(sd.gen_corpus(SPEC, 1, 10, first_speaker=3), 3)
    source, rows = pl.train_source(corpus, CFG, pl.source_plan(steps=2, seed=0))
    aligned, more = pl.align_mel_encoder(source, corpus, pl.AlignOpts(steps=2, seed=1))
    rows += more
    ckpts = {"source": source, "aligned": aligned}
    for variant in pl.TRAINS[pl.STAGE_ADAPT]:
        plan = pl.AdaptOpts(variant=variant, steps=2, seed=2, learning_rate=1e-3)
        ckpts[variant], more = pl.adapt_untranscribed(aligned, records, plan)
        rows += more
    hashes = {}
    Path(tmp_dir).mkdir(parents=True, exist_ok=True)
    for name, ckpt in ckpts.items():
        path = Path(tmp_dir) / f"{name}.ckpt"
        cp.save_checkpoint(ckpt, path)
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return [list(r) for r in rows], hashes


def test_tiny_pipeline_matches_the_pin(tmp_path):
    pin = json.loads(PIN.read_text())
    rows, hashes = run_tiny(tmp_path)
    assert [r[:3] for r in rows] == [r[:3] for r in pin["rows"]]
    if float_fingerprint() == pin["float_fingerprint"]:
        assert rows == pin["rows"]
        assert hashes == pin["checkpoint_sha256"]
    else:
        for got, want in zip(rows, pin["rows"]):
            assert abs(got[3] - want[3]) <= TOLERANCE_REL * abs(want[3]), (got, want)


def test_fused_ops_match_the_composed_graphs(tmp_path, monkeypatch):
    """The same bits from the graphs of primitive ops that `ad.attention` and
    `ad.conditional_layer_norm` replace, on any float environment."""
    fused = run_tiny(tmp_path / "fused")
    monkeypatch.setattr(ad, "attention", composed_attention)
    monkeypatch.setattr(ad, "conditional_layer_norm", composed_conditional_layer_norm)
    assert run_tiny(tmp_path / "composed") == fused


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: PYTHONPATH=src python3 -m tests.test_bitexact --pin")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rows, hashes = run_tiny(tmp)
    pin = {"float_fingerprint": float_fingerprint(), "rows": rows,
           "checkpoint_sha256": hashes}
    changes = pin_changes(json.loads(PIN.read_text()) if PIN.exists() else {}, pin)
    print(f"{len(changes)} pinned values changed", *changes, sep="\n")
    write_text(PIN, json.dumps(pin, indent=1)
               .replace("\n   ", " ").replace("\n  ]", "]") + "\n")
    print(f"wrote {PIN}")
