"""Run configuration: flat key=value sections in INI syntax.

One file describes a whole run: model size, oracle corpus, and the three
training stages. Every loader applies defaults first, so a config file only
needs the keys it overrides, and the effective (fully expanded) config is
echoed into output directories to make runs self-describing.

Grammar: `[section]` headers, `key = value` lines, `#` comments. Sections and
keys are fixed; unknown names are rejected. Values are ints or floats
according to the key. The stage sections' settings and defaults are
`pipeline.SourceOpts`, `AlignOpts` and `AdaptOpts`, each of which is also
its stage's plan.
"""

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .binio import write_text
from .errors import ConfigError
from .model import ModelConfig
from .pipeline import AdaptOpts, AlignOpts, SourceOpts
from .synthdata import OracleSpec


@dataclass(frozen=True)
class CorpusOpts:
    n_speakers: int = 8           # source-training speakers
    utts_per_speaker: int = 60
    n_adapt_speakers: int = 2     # held out of source training


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    oracle: OracleSpec = field(default_factory=lambda: OracleSpec(seed=0))
    corpus: CorpusOpts = field(default_factory=CorpusOpts)
    source: SourceOpts = field(default_factory=SourceOpts)
    align: AlignOpts = field(default_factory=AlignOpts)
    adapt: AdaptOpts = field(default_factory=AdaptOpts)

    def __post_init__(self):
        if self.oracle.phoneme_vocab_size != self.model.phoneme_vocab_size:
            raise ConfigError(
                f"oracle vocab {self.oracle.phoneme_vocab_size} does not match "
                f"model vocab {self.model.phoneme_vocab_size}")
        if self.oracle.mel_dim != self.model.mel_dim:
            raise ConfigError(
                f"oracle mel_dim {self.oracle.mel_dim} does not match model "
                f"mel_dim {self.model.mel_dim}")
        total = self.corpus.n_speakers + self.corpus.n_adapt_speakers
        if total > self.model.n_speakers:
            raise ConfigError(
                f"corpus needs {total} speaker rows, model table has only "
                f"{self.model.n_speakers}")
        if self.corpus.n_speakers < 2:
            raise ConfigError("need at least 2 source speakers")
        if self.corpus.utts_per_speaker < 1 or self.corpus.n_adapt_speakers < 0:
            raise ConfigError("corpus sizes must be positive")

    def source_plan(self, variant="main"):
        return replace(self.source, variant=variant)

    def align_plan(self, variant="main"):
        return replace(self.align, variant=variant)

    def adapt_plan(self, variant="main", **overrides):
        """The adapt plan, with `overrides` (steps=, seed=) replacing settings."""
        return replace(self.adapt, variant=variant, **overrides)

    def adapt_speaker_ids(self):
        """Speaker ids held out of source training, after the source block."""
        first = self.corpus.n_speakers
        return list(range(first, first + self.corpus.n_adapt_speakers))


# section name -> its settings class, in file order
_SECTIONS = {f.name: f.type for f in fields(RunConfig)}


def _keys(cls):
    """{key: int or float} of a section; `--variant` alone sets a stage's variant."""
    return {f.name: f.type for f in fields(cls) if f.name != "variant"}


def desk_config(seed=0) -> RunConfig:
    return RunConfig(oracle=OracleSpec(seed=seed))


def _coerce(section, key, raw, target_type):
    raw = raw.strip()
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid "
            f"{target_type.__name__}") from None


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    built = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        cls = _SECTIONS[section]
        types = _keys(cls)
        kwargs = {}
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            kwargs[key] = _coerce(section, key, raw, types[key])
        try:
            built[section] = cls(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    return RunConfig(**built)


def config_text(cfg: RunConfig) -> str:
    """Canonical fully expanded rendering; `load_config` of it reproduces cfg."""
    lines = ["# effective configuration (all defaults applied)"]
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        lines.append(f"\n[{section}]")
        for key in _keys(cls):
            lines.append(f"{key} = {getattr(obj, key)!r}")
    return "\n".join(lines) + "\n"


def write_effective_config(cfg: RunConfig, out_dir) -> Path:
    target = Path(out_dir) / "effective.cfg"
    write_text(target, config_text(cfg))
    return target
