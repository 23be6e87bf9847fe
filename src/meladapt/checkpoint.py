"""Checkpoint snapshot, byte-exact serialization, and freeze auditing."""

from dataclasses import dataclass, field

import numpy as np

from . import binio, errors
from .errors import ConfigError, FreezeViolation
from .model import ModelConfig, TtsModel, param_shapes

CKPT_MAGIC = b"MACKPT\x00\x01"
CKPT_VERSION = 1

STAGES = ("initialized", "source_training", "mel_encoder_aligning",
          "untranscribed_adaptation")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict                 # name -> float64 ndarray (owned copies)
    provenance: dict = field(default_factory=dict)
    rng_state: dict = None       # numpy bit-generator state of the training rng
    adam: dict = None            # {"hyper": {...}, "m": {name: arr}, "v": {...}}

    @property
    def stage(self):
        return self.provenance.get("stage", "initialized")

    @classmethod
    def from_model(cls, model, provenance=None, rng=None, adam_state=None):
        adam = None
        if adam_state is not None:
            adam = {
                "hyper": {"learning_rate": adam_state.learning_rate,
                          "beta1": adam_state.beta1, "beta2": adam_state.beta2,
                          "epsilon": adam_state.epsilon, "t": adam_state.t},
                "m": {k: v.copy() for k, v in adam_state.m.items()},
                "v": {k: v.copy() for k, v in adam_state.v.items()},
            }
        return cls(
            config=model.config,
            params={n: t.data.copy() for n, t in model.params.items()},
            provenance=dict(provenance or {}),
            rng_state=None if rng is None else rng.bit_generator.state,
            adam=adam,
        )

    def to_model(self) -> TtsModel:
        shapes = param_shapes(self.config)
        if set(shapes) != set(self.params):
            extra = set(self.params) - set(shapes)
            missing = set(shapes) - set(self.params)
            raise errors.unknown_names(
                f"checkpoint parameter names do not match the registry "
                f"(extra: {sorted(extra)[:4]}, missing: {sorted(missing)[:4]})"
            )
        for name, arr in self.params.items():
            if shapes[name] != arr.shape:
                raise errors.CheckpointFormatError(
                    f"parameter '{name}' has shape {arr.shape}, registry expects "
                    f"{shapes[name]}"
                )
        return TtsModel.from_arrays(self.config, self.params)


def save_checkpoint(ckpt: Checkpoint, path):
    meta = {
        "model_config": ckpt.config.to_dict(),
        "provenance": ckpt.provenance,
        "rng_state": ckpt.rng_state,
        "adam_hyper": None if ckpt.adam is None else ckpt.adam["hyper"],
    }
    arrays = {f"param.{n}": a for n, a in ckpt.params.items()}
    if ckpt.adam is not None:
        arrays.update({f"adam_m.{n}": a for n, a in ckpt.adam["m"].items()})
        arrays.update({f"adam_v.{n}": a for n, a in ckpt.adam["v"].items()})
    binio.write_container(path, CKPT_MAGIC, CKPT_VERSION, meta, arrays)


def load_checkpoint(path) -> Checkpoint:
    meta, arrays = binio.read_container(path, CKPT_MAGIC, CKPT_VERSION)
    try:
        config = ModelConfig.from_dict(meta["model_config"])
        provenance = meta["provenance"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise errors.CheckpointFormatError(f"{path}: malformed meta: {exc}") from exc
    params, adam_m, adam_v = {}, {}, {}
    for name, arr in arrays.items():
        if name.startswith("param."):
            params[name[len("param."):]] = arr
        elif name.startswith("adam_m."):
            adam_m[name[len("adam_m."):]] = arr
        elif name.startswith("adam_v."):
            adam_v[name[len("adam_v."):]] = arr
        else:
            raise errors.unknown_names(f"{path}: unexpected array '{name}'")
    registry = set(param_shapes(config))
    extra, missing = set(params) - registry, registry - set(params)
    if extra or missing:
        raise errors.unknown_names(
            f"{path}: parameter names do not match the registry "
            f"(extra: {sorted(extra)[:4]}, missing: {sorted(missing)[:4]})"
        )
    adam = None
    if meta.get("adam_hyper") is not None:
        adam = {"hyper": meta["adam_hyper"], "m": adam_m, "v": adam_v}
    return Checkpoint(config=config, params=params, provenance=provenance,
                      rng_state=meta.get("rng_state"), adam=adam)


def param_diff(a: Checkpoint, b: Checkpoint) -> list:
    """Names whose stored values differ in any bit, sorted."""
    if set(a.params) != set(b.params):
        raise errors.unknown_names("checkpoints hold different parameter sets")
    return sorted(
        n for n in a.params
        if not np.array_equal(a.params[n], b.params[n])
    )


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
            if np.array_equal(x, y):
                continue
        offenders.append(name)
    if offenders:
        raise FreezeViolation(
            f"stage {stage or '?'} modified frozen parameters: {offenders[:8]}"
            + (f" and {len(offenders) - 8} more" if len(offenders) > 8 else "")
        )
