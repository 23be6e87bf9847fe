"""Run configuration: flat key=value sections in INI syntax.

One file describes a whole run: model size, oracle corpus, and the three
training stages. Every loader applies defaults first, so a config file only
needs the keys it overrides, and the effective (fully expanded) config is
echoed into output directories to make runs self-describing.

Grammar: `[section]` headers, `key = value` lines, `#` comments. Sections and
keys are fixed; unknown names are rejected. Values are ints, floats, or
booleans (`true`/`false`) according to the key.
"""

import configparser
import dataclasses
from dataclasses import dataclass, field, fields
from pathlib import Path

from .binio import write_text
from .errors import ConfigError
from .model import ModelConfig
from .synthdata import OracleSpec
from . import pipeline


@dataclass(frozen=True)
class CorpusOpts:
    n_speakers: int = 8           # source-training speakers
    utts_per_speaker: int = 60
    n_adapt_speakers: int = 2     # held out of source training


@dataclass(frozen=True)
class SourceOpts:
    steps: int = 2000
    batch_size: int = 4
    seed: int = 0
    peak_scale: float = 0.02
    warmup: int = 100
    alignment_weight: float = 1.0  # joint-training variant only


@dataclass(frozen=True)
class AlignOpts:
    steps: int = 500
    batch_size: int = 4
    seed: int = 1
    learning_rate: float = 1e-3
    alignment_weight: float = 1.0


@dataclass(frozen=True)
class AdaptOpts:
    steps: int = 200
    batch_size: int = 4
    seed: int = 2
    # constant-lr plateau for conditional-LN adaptation is wide (3e-3..1e-2
    # measured equivalent); full-model fine-tuning destabilizes above ~5e-3
    learning_rate: float = 7e-3
    adapt_speaker_row: bool = True


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
        # each stage plan's own checks (learning rate, schedule, steps) run at
        # load time, before any stage starts
        for section, plan in (("source", self.source_plan), ("align", self.align_plan),
                              ("adapt", self.adapt_plan)):
            try:
                plan()
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {exc}") from None

    def source_plan(self, variant="main"):
        o = self.source
        return pipeline.source_plan(
            steps=o.steps, batch_size=o.batch_size, seed=o.seed,
            peak_scale=o.peak_scale, warmup=o.warmup,
            alignment_weight=o.alignment_weight, variant=variant)

    def align_plan(self, variant="main"):
        o = self.align
        return pipeline.align_plan(
            steps=o.steps, batch_size=o.batch_size, seed=o.seed,
            learning_rate=o.learning_rate,
            alignment_weight=o.alignment_weight, variant=variant)

    def adapt_plan(self, variant="main", steps=None, seed=None):
        o = self.adapt
        return pipeline.adapt_plan(
            steps=o.steps if steps is None else steps,
            batch_size=o.batch_size,
            seed=o.seed if seed is None else seed,
            learning_rate=o.learning_rate,
            adapt_speaker_row=o.adapt_speaker_row, variant=variant)

    def adapt_speaker_ids(self):
        """Speaker ids held out of source training, after the source block."""
        first = self.corpus.n_speakers
        return list(range(first, first + self.corpus.n_adapt_speakers))


_SECTIONS = {
    "model": ModelConfig,
    "oracle": OracleSpec,
    "corpus": CorpusOpts,
    "source": SourceOpts,
    "align": AlignOpts,
    "adapt": AdaptOpts,
}


def desk_config(seed=0) -> RunConfig:
    return RunConfig(oracle=OracleSpec(seed=seed))


def _coerce(section, key, raw, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
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
        types = {f.name: f.type for f in fields(cls)}
        # dataclass field annotations are strings here; resolve the builtins
        named = {"int": int, "float": float, "bool": bool}
        kwargs = {}
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            t = types[key]
            t = named[t] if isinstance(t, str) else t
            kwargs[key] = _coerce(section, key, raw, t)
        built[section] = cls(**kwargs)
    return RunConfig(**built)


def config_text(cfg: RunConfig) -> str:
    """Canonical fully expanded rendering; `load_config` of it reproduces cfg."""
    lines = ["# effective configuration (all defaults applied)"]
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        lines.append(f"\n[{section}]")
        for f in fields(cls):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def write_effective_config(cfg: RunConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "effective.cfg"
    write_text(target, config_text(cfg))
    return target
