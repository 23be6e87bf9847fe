"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers. Criteria 4-7 rerun the desk-scale reference
pipeline (shared session fixtures) and compare `experiments.reference_record`,
the call scripts/run_reference.py prints, against every value pinned in
configs/reference_desk.json; the stack is bitwise deterministic, so those
comparisons are exact up to a tiny relative tolerance.
"""

import filecmp
import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest

from meladapt import autodiff as ad
from meladapt import experiments as ex
from meladapt import melencoder as me
from meladapt import model as mm
from meladapt import pipeline as pl
from meladapt import synthdata as sd
from meladapt.autodiff import Tape, Tensor, backward
from meladapt.checkpoint import load_checkpoint, param_diff, save_checkpoint
from meladapt.config import desk_config
from meladapt.errors import ConfigError, FreezeViolation
from meladapt.model import ModelConfig, TtsModel, init_params, param_groups
from tests.gradcheck import grad_check

REPO = Path(__file__).resolve().parent.parent
REF = json.loads((REPO / "configs" / "reference_desk.json").read_text())
RTOL = REF["tolerance_rel"]

TIMINGS = {}


def _timed(label, fn):
    t0 = time.time()
    out = fn()
    TIMINGS[label] = TIMINGS.get(label, 0.0) + time.time() - t0
    return out


def _ok(name, detail):
    print(f"[PASS] {name}: {detail}")


# -- shared desk-scale pipeline fixtures ------------------------------------

@pytest.fixture(scope="session")
def bench():
    return ex.Workbench(desk_config(), REF["seed"])


@pytest.fixture(scope="session")
def source_ckpt(bench):
    return _timed("source", lambda: bench.run(ex.SOURCE))


@pytest.fixture(scope="session")
def aligned_ckpt(bench, source_ckpt):
    return _timed("align", lambda: bench.run(ex.ALIGNED))


@pytest.fixture(scope="session")
def adapted_main(bench, aligned_ckpt):
    return {s: _timed("adapt_main", lambda s=s: bench.run(ex.ADAPTED, s))
            for s in bench.cfg.adapt_speaker_ids()}


@pytest.fixture(scope="session")
def record(bench, adapted_main):
    """The reference record; every stage it trains is timed first under its
    own label, so the record itself only evaluates."""
    _timed("source_joint", lambda: bench.run(ex.JOINT))
    _timed("align_no_l2", lambda: bench.run(ex.NO_L2_ALIGNED))
    for s in bench.cfg.adapt_speaker_ids():
        _timed("adapt_joint", lambda s=s: bench.run(ex.JOINT_ADAPTED, s))
        _timed("adapt_no_l2", lambda s=s: bench.run(ex.NO_L2_ADAPTED, s))
        _timed("adapt_finetune", lambda s=s: bench.run(ex.FINETUNE_ADAPTED, s))
        for n in ex.SWEEP_SIZES:
            _timed("adapt_sweep", lambda s=s, n=n: bench.run(ex.ADAPTED, s, n))
    return _timed("eval", lambda: ex.reference_record(bench))


def _check_pinned(got, pinned, where):
    """Compare every leaf of a pinned block: floats at `tolerance_rel`, the
    adaptation `margin` at 1e-6 relative, anything else exactly."""
    assert sorted(got) == sorted(pinned), where
    for key, want in pinned.items():
        path = f"{where}.{key}"
        if isinstance(want, dict):
            _check_pinned(got[key], want, path)
            continue
        if key == "margin":
            ok = got[key] == pytest.approx(want, rel=1e-6, abs=1e-9)
        elif isinstance(want, float) and key != "tolerance_rel":
            ok = got[key] == pytest.approx(want, rel=RTOL, abs=1e-12)
        else:
            ok = got[key] == want
        assert ok, (path, got[key], want)


# -- criterion 1: gradient suite --------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    cfg = ModelConfig(phoneme_vocab_size=6, hidden_dim=8, n_heads=2,
                      ffn_filter=12, conv_kernel=3, n_encoder_blocks=1,
                      n_decoder_blocks=1, n_mel_encoder_blocks=1, mel_dim=4,
                      n_speakers=3, speaker_embedding_dim=5, max_duration=6,
                      predictor_kernel=3)
    n_seeds = 20
    checked = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        model = TtsModel(cfg, init_params(cfg, seed))
        # give conditional LN live weights so its gradients are exercised
        for name, p in model.params.items():
            if ".cln" in name and name.split(".")[-1].startswith("w_"):
                p.data = rng.normal(scale=0.1, size=p.data.shape)
        dur = np.array([2, 1, 2])
        pitch = rng.normal(size=5)
        mel = Tensor(rng.normal(size=(5, 4)))
        target = Tensor(rng.normal(size=(5, 4)))
        spk = 1
        # the training loop detaches the acoustic target fresh each step; for
        # finite differences the target must be a true constant, so capture it
        # once at the unperturbed parameters
        res0 = mm.tts_forward(model, [0, 3, 2], model.speaker_context(spk),
                              durations=dur, pitch=pitch, mel_target=mel)
        acou_const = res0.acoustic_target.data.copy()

        def tts_loss(ts):
            res = mm.tts_forward(model, [0, 3, 2], model.speaker_context(spk),
                                 durations=dur, pitch=pitch, mel_target=mel)
            total = ad.masked_mae(res.mel, target)
            total = ad.add(total, ad.masked_mse(
                res.log_duration, Tensor(np.log([[3.0], [2.0], [3.0]]))))
            total = ad.add(total, ad.masked_mse(
                res.pitch_pred, Tensor(pitch.reshape(-1, 1))))
            total = ad.add(total, ad.masked_mse(
                res.acoustic_pred, Tensor(acou_const)))
            return total

        def recon_loss(ts):
            recon = mm.decode(model, me.reconstruction_inputs(model, mel),
                              model.speaker_context(spk))
            return ad.masked_mae(recon, Tensor(mel.data))

        # the latent alignment loss stop-gradients its phoneme side, so its
        # differentiable surface is the mel-encoder path; freeze the target
        h_reg_const = mm.length_regulate(
            mm.encode_phonemes(model, [0, 3, 2]), dur)

        def align_loss(ts):
            h_mel = me.mel_encoder_forward(model, mel)
            return me.alignment_loss(h_mel, h_reg_const)

        picks = {
            "phoneme_embed": model.params["phoneme_embed"],
            "enc.0.attn.wq": model.params["enc.0.attn.wq"],
            "enc.0.ffn.k1": model.params["enc.0.ffn.k1"],
            "dur.out.w": model.params["dur.out.w"],
            "pitch.out.w": model.params["pitch.out.w"],
            "pitch.proj.w": model.params["pitch.proj.w"],
            "acou.ext1.kernel": model.params["acou.ext1.kernel"],
            "acou.dense.w": model.params["acou.dense.w"],
            "dec.0.cln1.w_scale": model.params["dec.0.cln1.w_scale"],
            "dec.0.cln2.b_bias": model.params["dec.0.cln2.b_bias"],
            "mel_out.w": model.params["mel_out.w"],
            "speaker_table": model.params["speaker_table"],
        }
        mel_picks = {
            "melenc.in.w": model.params["melenc.in.w"],
            "melenc.0.attn.wk": model.params["melenc.0.attn.wk"],
            "melenc.0.ffn.k2": model.params["melenc.0.ffn.k2"],
        }
        for f, ts in ((tts_loss, picks), (recon_loss, {**mel_picks, **picks}),
                      (align_loss, mel_picks)):
            report = grad_check(f, ts, tol=1e-4, sample=2,
                                rng=np.random.default_rng(seed))
            assert report.passed, f"seed {seed}: {report}"
            checked += report.n_checked
    elapsed = time.time() - t0
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
    _ok("criterion 1 gradient suite",
        f"{n_seeds} seeds, {checked} coordinates, rel err < 1e-4, {elapsed:.1f}s")


# -- criterion 2: freeze suite ----------------------------------------------

def test_criterion_2_freeze_suite(bench, source_ckpt, aligned_ckpt, adapted_main):
    diff_align = param_diff(source_ckpt, aligned_ckpt)
    assert diff_align, "aligning changed nothing"
    label = param_groups(aligned_ckpt.config)
    bad = [n for n in diff_align if label[n] != "MelEncoder"]
    assert not bad, f"aligning touched non-mel-encoder params: {bad}"

    for speaker, ckpt in adapted_main.items():
        diff = param_diff(aligned_ckpt, ckpt)
        assert diff, "adaptation changed nothing"
        groups = {label[n] for n in diff}
        assert groups <= {"ConditionalLN", "SpeakerTable"}, groups
        if "speaker_table" in diff:
            before = aligned_ckpt.params["speaker_table"]
            after = ckpt.params["speaker_table"]
            changed_rows = np.nonzero((before != after).any(axis=1))[0].tolist()
            assert changed_rows == [speaker], changed_rows

    assert FreezeViolation("x").exit_code == 3
    spent = TIMINGS["source"] + TIMINGS["align"] + TIMINGS["adapt_main"]
    assert spent < 300, f"freeze pipeline took {spent:.0f}s"
    _ok("criterion 2 freeze suite",
        f"align diff {len(diff_align)} mel-encoder params only; adaptation "
        f"confined to conditional LN + own speaker row; {spent:.0f}s")


# -- criterion 3: transcript firewall ---------------------------------------

def test_criterion_3_transcript_firewall(bench, adapted_main):
    assert set(sd.MelOnlyUtterance.__dataclass_fields__) == {
        "speaker_id", "utterance_id", "mel"}
    # the path adaptation runs: decoder input from mel alone, then decode
    assert set(inspect.signature(me.reconstruction_inputs).parameters) == {
        "model", "mel_in"}
    assert set(inspect.signature(mm.decode).parameters) == {"model", "x", "speaker"}

    for ckpt in adapted_main.values():
        audit = set(ckpt.provenance["field_audit"])
        assert audit <= {"mel", "speaker_id", "utterance_id"}, audit

    full_utt = bench.adapt_corpora[8].of_speaker(8)[0]
    with pytest.raises(ConfigError) as exc:
        pl.adapt_untranscribed(bench.run(ex.ALIGNED), [full_utt],
                               bench.cfg.adapt_plan())
    assert exc.value.exit_code == 2
    _ok("criterion 3 transcript firewall",
        "mel-only schema, reconstruction signature, runtime field audit, "
        "transcript-bearing input rejected")


# -- criterion 4: end-to-end adaptation gain --------------------------------

def test_criterion_4_adaptation_gain(record):
    assert sorted(record) == sorted(REF)
    top = {k: v for k, v in REF.items() if not k.startswith("criterion")}
    _check_pinned({k: record[k] for k in top}, top, "record")
    _check_pinned(record["criterion4_adaptation_gain"],
                  REF["criterion4_adaptation_gain"], "criterion4")
    details = []
    for metric, got in record["criterion4_adaptation_gain"].items():
        adapted, unadapted = got["adapted_mean"], got["unadapted_mean"]
        assert adapted < unadapted, (
            f"{metric}: adapted {adapted} not better than {unadapted}")
        details.append(f"{metric} {unadapted:.4f}->{adapted:.4f}")
    spent = sum(TIMINGS[k] for k in ("source", "align", "adapt_main", "eval"))
    assert spent < 600, f"adaptation pipeline took {spent:.0f}s"
    _ok("criterion 4 adaptation gain",
        f"50 utterances, 2 held-out speakers: {', '.join(details)}; {spent:.0f}s")


# -- criterion 5: ablation directions ---------------------------------------

def test_criterion_5_table2_directions(bench, record):
    n_utts = sum(len(bench.eval_utterances(s))
                 for s in bench.cfg.adapt_speaker_ids())
    assert n_utts >= 15
    details = []
    for arm, key in (("no_l2", "criterion5a_no_l2"),
                     ("finetune", "criterion5b_finetune")):
        _check_pinned(record[key], REF[key], key)
        wins = record[key]["mel_mae"]["fraction_main_wins"]
        assert wins > 0.5, f"main does not beat {arm}: fraction {wins}"
        details.append(f"main beats {arm} on {wins:.0%} of {n_utts} utterances")
    spent = sum(TIMINGS[k] for k in (
        "source", "align", "align_no_l2", "adapt_main", "adapt_no_l2",
        "adapt_finetune", "eval"))
    assert spent < 1200, f"ablation pipeline took {spent:.0f}s"
    _ok("criterion 5 ablation directions", f"{'; '.join(details)}; {spent:.0f}s")


# -- criterion 6: joint-training direction ----------------------------------

def test_criterion_6_table1_direction(record):
    _check_pinned(record["criterion6_joint"], REF["criterion6_joint"], "criterion6")
    details = []
    for metric, got in record["criterion6_joint"].items():
        main, joint = got["main_mean"], got["joint_mean"]
        assert main < joint, f"{metric}: main {main} not better than joint {joint}"
        details.append(f"{metric} {main:.4f} vs {joint:.4f}")
    spent = sum(TIMINGS[k] for k in (
        "source", "source_joint", "align", "adapt_main", "adapt_joint", "eval"))
    assert spent < 1200, f"joint pipeline took {spent:.0f}s"
    _ok("criterion 6 two-stage beats joint", f"{'; '.join(details)}; {spent:.0f}s")


# -- criterion 7: data-sweep saturation -------------------------------------

def test_criterion_7_sweep_saturation(record):
    _check_pinned(record["criterion7_sweep"], REF["criterion7_sweep"], "criterion7")
    means = {n: record["criterion7_sweep"]["mel_mae"][str(n)] for n in ex.SWEEP_SIZES}
    early = [means[n] for n in (1, 2, 5, 10, 20)]
    inversions = sum(1 for a, b in zip(early, early[1:]) if b > a)
    assert inversions <= 1, f"sweep not monotone to n=20: {early}"
    gain_2_20 = means[2] - means[20]
    gain_20_100 = means[20] - means[100]
    assert gain_20_100 < gain_2_20, (means[2], means[20], means[100])
    spent = (TIMINGS["source"] + TIMINGS["align"] + TIMINGS["adapt_main"]
             + TIMINGS["adapt_sweep"] + TIMINGS["eval"])
    assert spent < 1800, f"sweep pipeline took {spent:.0f}s"
    _ok("criterion 7 sweep saturation",
        f"mel MAE by n: " + ", ".join(f"{n}:{means[n]:.4f}" for n in ex.SWEEP_SIZES)
        + f"; {inversions} inversion(s) to n=20, late gain {gain_20_100:.5f} < "
          f"early gain {gain_2_20:.5f}; {spent:.0f}s")


# -- criterion 8: determinism and serialization -----------------------------

def test_criterion_8_determinism_serialization(tmp_path):
    t0 = time.time()
    cfg = ModelConfig(phoneme_vocab_size=8, hidden_dim=8, n_heads=2,
                      ffn_filter=12, conv_kernel=3, n_encoder_blocks=1,
                      n_decoder_blocks=1, n_mel_encoder_blocks=1, mel_dim=6,
                      n_speakers=4, speaker_embedding_dim=5, max_duration=8,
                      predictor_kernel=3)
    spec = sd.OracleSpec(seed=5, phoneme_vocab_size=8, mel_dim=6, noise_sigma=0.01)
    corpus = sd.gen_corpus(spec, 3, 4)
    plan = pl.source_plan(steps=5, warmup=2, seed=3)
    for run in ("a", "b"):
        ckpt, _ = pl.train_source(corpus, cfg, plan)
        save_checkpoint(ckpt, tmp_path / f"{run}.ckpt")
    assert filecmp.cmp(tmp_path / "a.ckpt", tmp_path / "b.ckpt", shallow=False)
    loaded = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(loaded, tmp_path / "c.ckpt")
    assert filecmp.cmp(tmp_path / "a.ckpt", tmp_path / "c.ckpt", shallow=False)

    rng = np.random.default_rng(0)
    model = TtsModel(cfg, init_params(cfg, 0))
    h = mm.encode_phonemes(model, [1, 2, 3])
    same = mm.length_regulate(h, np.array([1, 1, 1]))
    np.testing.assert_array_equal(same.data, h.data)
    with pytest.raises(ConfigError):
        mm.length_regulate(h, np.array([0, 0, 0]))

    x = Tensor(rng.normal(size=(3, 5)))
    s1 = ad.softmax(x, axis=1)
    np.testing.assert_allclose(s1.data.sum(axis=1), 1.0, atol=1e-12)
    shifted = ad.softmax(Tensor(x.data + 7.0), axis=1)
    np.testing.assert_allclose(s1.data, shifted.data, atol=1e-12)

    g = Tensor(np.ones(5)); b = Tensor(np.zeros(5))
    ln = ad.layer_norm(Tensor(rng.normal(size=(4, 5))), g, b)
    np.testing.assert_allclose(ln.data.mean(axis=1), 0.0, atol=1e-12)

    a = Tensor(rng.normal(size=(4, 6)))
    c = Tensor(rng.normal(size=(4, 6)))
    assert float(me.alignment_loss(a, Tensor(a.data)).data) == 0.0
    assert float(me.alignment_loss(a, c).data) == pytest.approx(
        float(me.alignment_loss(c, Tensor(a.data)).data), rel=1e-12)

    elapsed = time.time() - t0
    assert elapsed < 60, f"determinism suite took {elapsed:.0f}s"
    _ok("criterion 8 determinism and serialization",
        f"byte-identical retrain and round trip, operator properties; "
        f"{elapsed:.1f}s")
