from pathlib import Path

import pytest

from meladapt import cli
from meladapt import config as cf
from meladapt.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_desk_defaults_round_trip(tmp_path):
    cfg = cf.desk_config()
    path = tmp_path / "echo.cfg"
    path.write_text(cf.config_text(cfg))
    assert cf.load_config(path) == cfg


def test_partial_file_keeps_defaults(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text("[source]\nsteps = 7\n")
    cfg = cf.load_config(p)
    assert cfg.source.steps == 7
    assert cfg.source.batch_size == cf.SourceOpts().batch_size
    assert cfg.model == cf.desk_config().model


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        cf.load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[source]\nstep_count = 7\n")
    with pytest.raises(ConfigError):
        cf.load_config(p)


def test_bad_value_type_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[source]\nsteps = many\n")
    with pytest.raises(ConfigError):
        cf.load_config(p)
    p.write_text("[adapt]\nlearning_rate = fast\n")
    with pytest.raises(ConfigError, match="not a valid float"):
        cf.load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cf.load_config(tmp_path / "absent.cfg")


def test_cross_section_coherence_enforced(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[oracle]\nmel_dim = 12\n")  # model still says 16
    with pytest.raises(ConfigError):
        cf.load_config(p)
    p.write_text("[corpus]\nn_speakers = 20\n")  # table only holds 10
    with pytest.raises(ConfigError):
        cf.load_config(p)


def test_shipped_desk_config_matches_defaults():
    cfg = cf.load_config(CONFIG_DIR / "desk.cfg")
    assert cfg == cf.desk_config()


def test_shipped_full_scale_config():
    cfg = cf.load_config(CONFIG_DIR / "fullscale.cfg")
    assert cfg.model.hidden_dim == 256
    assert cfg.model.n_heads == 2
    assert cfg.model.ffn_filter == 1024
    assert cfg.model.conv_kernel == 9
    assert cfg.model.mel_dim == 80
    assert (cfg.source.steps, cfg.align.steps, cfg.adapt.steps) == (
        100000, 10000, 2000)


def test_adam_section_rejected_and_plan_overrides_apply(tmp_path):
    # Adam's betas and epsilon are constants in `optim`, not settings
    p = tmp_path / "c.cfg"
    p.write_text("[adam]\nbeta2 = 0.95\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[adam\]"):
        cf.load_config(p)
    cfg = cf.desk_config()
    assert cfg.adapt_plan(steps=5, seed=9).steps == 5
    assert cfg.adapt_plan(steps=5, seed=9).seed == 9


def test_variant_plans_validate():
    cfg = cf.desk_config()
    assert "MelEncoder" in cfg.source_plan("joint_training").trainable_groups
    assert cfg.align_plan("no_l2").variant == "no_l2"
    with pytest.raises(ConfigError):
        cfg.align_plan("finetune_mel_encoder_and_decoder")


@pytest.mark.parametrize("section, key, value", [
    ("source", "alignment_weight", "1.0"), ("align", "alignment_weight", "1.0"),
    ("adapt", "adapt_speaker_row", "true")])
def test_removed_key_exits_2(tmp_path, capsys, section, key, value):
    # the alignment loss always counts (align's no_l2 variant drops it) and
    # adaptation always trains the target's speaker row
    p = tmp_path / "old.cfg"
    p.write_text(f"[{section}]\n{key} = {value}\n")
    assert cli.main(["gen-corpus", "--config", str(p), "--out", str(tmp_path / "d")]) == 2
    assert f"unknown key '{key}' in [{section}]" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_variant_key_exits_2(tmp_path, capsys):
    # a stage's variant is the command line's --variant, not a config key
    p = tmp_path / "variant.cfg"
    p.write_text("[align]\nvariant = no_l2\n")
    assert cli.main(["gen-corpus", "--config", str(p), "--out", str(tmp_path / "d")]) == 2
    assert "unknown key 'variant' in [align]" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section, key, value", [
    ("oracle", "seed", "-1"), ("source", "seed", "-1"), ("align", "seed", "-1"),
    ("adapt", "seed", "-1"), ("oracle", "noise_sigma", "nan"),
    ("oracle", "noise_sigma", "inf"), ("oracle", "noise_sigma", "-0.5")])
def test_negative_seed_or_bad_noise_exits_2(tmp_path, capsys, section, key, value):
    # numpy's seeding refuses a negative seed only once a stage or the corpus
    # generator draws; a NaN noise_sigma would give a noiseless corpus
    p = tmp_path / "bad.cfg"
    p.write_text(f"[{section}]\n{key} = {value}\n")
    assert cli.main(["gen-corpus", "--config", str(p), "--out", str(tmp_path / "d")]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_adapt_speaker_ids_follow_source_block():
    cfg = cf.desk_config()
    assert cfg.adapt_speaker_ids() == [8, 9]


def test_effective_config_echo(tmp_path):
    cfg = cf.desk_config(seed=5)
    target = cf.write_effective_config(cfg, tmp_path / "run")
    assert target.name == "effective.cfg"
    assert cf.load_config(target) == cfg


# each stage's learning-rate key, the value its schedule scales
LR_KEYS = [("source", "peak_scale"), ("align", "learning_rate"), ("adapt", "learning_rate")]


@pytest.mark.parametrize("section, key", LR_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_learning_rate_rejected(tmp_path, section, key, value):
    p = tmp_path / "bad.cfg"
    p.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] learning rate"):
        cf.load_config(p)


@pytest.mark.parametrize("section, key", LR_KEYS)
def test_zero_learning_rate_allowed(tmp_path, section, key):
    p = tmp_path / "zero.cfg"
    p.write_text(f"[{section}]\n{key} = 0\n")
    assert getattr(getattr(cf.load_config(p), section), key) == 0.0
