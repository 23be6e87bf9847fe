"""Checkpoint snapshot, byte-exact serialization, and freeze auditing."""

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import binio, errors
from .errors import ConfigError, FreezeViolation
from .model import ModelConfig, TtsModel, param_shapes

CKPT_MAGIC = b"MACKPT\x00\x01"
CKPT_VERSION = 1

@dataclass(frozen=True)
class Checkpoint:
    """An immutable snapshot. Construction checks `params` against the
    registry, makes every array read-only and stores them in a read-only
    mapping, so models built by `to_model` share them without a copy.
    Inference reads one such model per checkpoint, `inference_model`."""

    config: ModelConfig
    params: MappingProxyType     # name -> read-only float64 ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_registry(self.config, self.params)
        for arr in self.params.values():
            arr.setflags(write=False)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @classmethod
    def from_model(cls, model, provenance=None):
        return cls(
            config=model.config,
            params={n: t.data.copy() for n, t in model.params.items()},
            provenance=dict(provenance or {}),
        )

    def to_model(self) -> TtsModel:
        """A model whose parameters share this checkpoint's read-only arrays;
        a stage's trainable set moves into Adam's arenas when it starts."""
        return TtsModel(self.config, self.params)

    @cached_property
    def inference_model(self) -> TtsModel:
        """The model inference runs on, built by `to_model` on first use and
        kept in the instance: no parameter tracks a gradient, so running it
        under an active tape records nothing, and its arrays stay read-only.
        `to_model` still returns a fresh model for each stage to train."""
        model = self.to_model()
        model.set_trainable(())
        return model


def _check_registry(config, params):
    """Raise CheckpointFormatError unless `params` (name -> ndarray) holds
    exactly the registry's names of `config`, each a float64 array at its
    registry shape."""
    shapes = param_shapes(config)
    if shapes.keys() != params.keys():
        extra = set(params) - set(shapes)
        missing = set(shapes) - set(params)
        raise errors.unknown_names(
            f"parameter names do not match the registry "
            f"(extra: {sorted(extra)[:4]}, missing: {sorted(missing)[:4]})"
        )
    for name, arr in params.items():
        if shapes[name] != arr.shape:
            raise errors.CheckpointFormatError(
                f"parameter '{name}' has shape {arr.shape}, registry "
                f"expects {shapes[name]}"
            )
        if arr.dtype != np.float64:
            raise errors.CheckpointFormatError(
                f"parameter '{name}' is {arr.dtype}, not float64")


def save_checkpoint(ckpt: Checkpoint, path):
    meta = {"model_config": ckpt.config.to_dict(), "provenance": ckpt.provenance}
    arrays = {f"param.{n}": a for n, a in ckpt.params.items()}
    binio.write_container(path, CKPT_MAGIC, CKPT_VERSION, meta, arrays)


def load_checkpoint(path) -> Checkpoint:
    """Reads a checkpoint; other meta keys, such as the always-null
    `rng_state` and `adam_hyper` of older files, are ignored. Provenance's
    `trained_speakers`, where present, must list speaker ids of the table."""
    meta, arrays = binio.read_container(path, CKPT_MAGIC, CKPT_VERSION)
    try:
        config = ModelConfig.from_dict(meta["model_config"])
        provenance = meta["provenance"]
        if not isinstance(provenance, dict):
            raise TypeError("provenance is not an object")
        trained = provenance.get("trained_speakers", [])
        if not (isinstance(trained, list) and all(
                type(s) is int and 0 <= s < config.n_speakers for s in trained)):
            raise TypeError(f"trained_speakers {trained!r} is not a list of "
                            f"speaker ids in [0, {config.n_speakers})")
    except (KeyError, TypeError, ConfigError) as exc:
        raise errors.CheckpointFormatError(f"{path}: malformed meta: {exc}") from exc
    params = {}
    for name, arr in arrays.items():
        if not name.startswith("param."):
            raise errors.unknown_names(f"{path}: unexpected array '{name}'")
        params[name[len("param."):]] = arr
    try:
        return Checkpoint(config=config, params=params, provenance=provenance)
    except errors.CheckpointFormatError as exc:
        raise errors.CheckpointFormatError(f"{path}: {exc}", exc.code) from None


def _same_bits(x, y) -> bool:
    """Whether two float64 arrays have the same shape and bits: a NaN
    matches itself, and -0.0 differs from +0.0."""
    return np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                          np.ascontiguousarray(y).view(np.uint64))


def param_diff(a: Checkpoint, b: Checkpoint) -> list:
    """Names whose stored values differ in any bit, sorted."""
    if set(a.params) != set(b.params):
        raise errors.unknown_names("checkpoints hold different parameter sets")
    return sorted(n for n in a.params if not _same_bits(a.params[n], b.params[n]))


def assert_freeze(before: Checkpoint, after: Checkpoint, allowed_names,
                  allowed_rows=None, stage=""):
    """Bitwise audit: every change outside the declared trainable set aborts.

    `allowed_rows` maps a parameter name to row indices that may change while
    the rest of that tensor must stay frozen (used for single-speaker rows).
    """
    allowed_rows = allowed_rows or {}
    offenders = []
    for name in param_diff(before, after):
        if name in allowed_names:
            continue
        if name in allowed_rows:
            x, y = before.params[name].copy(), after.params[name].copy()
            rows = np.asarray(allowed_rows[name], dtype=np.int64)
            x[rows] = 0.0
            y[rows] = 0.0
            if _same_bits(x, y):
                continue
        offenders.append(name)
    if offenders:
        raise FreezeViolation(
            f"stage {stage or '?'} modified frozen parameters: {offenders[:8]}"
            + (f" and {len(offenders) - 8} more" if len(offenders) > 8 else "")
        )
