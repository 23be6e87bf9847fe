"""Feed-forward transformer TTS backbone with speaker-conditional layer norm.

One flat parameter registry covers the whole system, including the mel
encoder, so that freezing and checkpointing can work on names alone. Every
parameter belongs to exactly one group, declared with it in `param_specs`.
A model has one constructor, `TtsModel(config, arrays)`, which wraps the
arrays without a copy: `init_params` draws fresh ones, and a checkpoint's
`to_model` passes its own.
"""

from dataclasses import dataclass, fields
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError

GROUPS = (
    "PhonemeEncoder",
    "DurationPredictor",
    "PitchPredictor",
    "AcousticCondition",
    "DecoderCore",
    "ConditionalLN",
    "MelLinear",
    "SpeakerTable",
    "MelEncoder",
)


@dataclass(frozen=True)
class ModelConfig:
    phoneme_vocab_size: int = 24
    hidden_dim: int = 32
    n_heads: int = 2
    ffn_filter: int = 64
    conv_kernel: int = 9
    n_encoder_blocks: int = 4
    n_decoder_blocks: int = 4
    n_mel_encoder_blocks: int = 4
    mel_dim: int = 16
    n_speakers: int = 10
    speaker_embedding_dim: int = 16
    max_duration: int = 10
    predictor_kernel: int = 3

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not int or v <= 0:
                raise ConfigError(f"{f.name} must be a positive integer, got {v!r}")
        if self.hidden_dim % self.n_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}"
            )
        for k in ("conv_kernel", "predictor_kernel"):
            if getattr(self, k) % 2 == 0:
                raise ConfigError(f"{k} must be odd, got {getattr(self, k)}")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown model config keys: {sorted(extra)}")
        return cls(**d)


@lru_cache(maxsize=256)
def _posenc_cached(T, d):
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / d)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    pe.setflags(write=False)  # shared cache entry, callers must not mutate
    return pe


def positional_encoding(T, d):
    return _posenc_cached(int(T), int(d))


# initialisers: ("uniform", fan_in) draws U(+-1/sqrt(fan_in)), ("normal",
# scale) draws N(0, scale^2); ZEROS and ONES draw nothing from the rng
ZEROS, ONES = ("zeros",), ("ones",)


def _fft_block_specs(c, prefix, group, conditional=False):
    """One block's parameters in `group`; a conditional block's layer norms
    form the ConditionalLN group."""
    d, k = c.hidden_dim, c.conv_kernel
    for part in ("wq", "wk", "wv", "wo"):
        yield f"{prefix}.attn.{part}", (d, d), group, ("uniform", d)
    for part in ("bq", "bk", "bv", "bo"):
        yield f"{prefix}.attn.{part}", (d,), group, ZEROS
    yield f"{prefix}.ffn.k1", (k, d, c.ffn_filter), group, ("uniform", k * d)
    yield f"{prefix}.ffn.b1", (c.ffn_filter,), group, ZEROS
    yield f"{prefix}.ffn.k2", (k, c.ffn_filter, d), group, ("uniform", k * c.ffn_filter)
    yield f"{prefix}.ffn.b2", (d,), group, ZEROS
    for site in ("1", "2"):
        if conditional:
            # degenerate start: acts as plain layer norm for every speaker
            cln, e = f"{prefix}.cln{site}", c.speaker_embedding_dim
            yield f"{cln}.w_scale", (e, d), "ConditionalLN", ZEROS
            yield f"{cln}.b_scale", (d,), "ConditionalLN", ONES
            yield f"{cln}.w_bias", (e, d), "ConditionalLN", ZEROS
            yield f"{cln}.b_bias", (d,), "ConditionalLN", ZEROS
        else:
            yield f"{prefix}.ln{site}.gamma", (d,), group, ONES
            yield f"{prefix}.ln{site}.beta", (d,), group, ZEROS


def _predictor_specs(c, prefix, group):
    d, pk = c.hidden_dim, c.predictor_kernel
    for i in ("1", "2"):
        yield f"{prefix}.c{i}.kernel", (pk, d, d), group, ("uniform", pk * d)
        yield f"{prefix}.c{i}.bias", (d,), group, ZEROS
        yield f"{prefix}.ln{i}.gamma", (d,), group, ONES
        yield f"{prefix}.ln{i}.beta", (d,), group, ZEROS
    yield f"{prefix}.out.w", (d, 1), group, ("uniform", d)
    yield f"{prefix}.out.b", (1,), group, ZEROS


def param_specs(c: ModelConfig) -> tuple:
    """Every parameter as (name, shape, group, initialiser), in registry order.

    The order is the initialisation's rng draw order, Adam's iteration order
    and the parameter order of every model built from a checkpoint.
    """
    d, acou = c.hidden_dim, "AcousticCondition"
    specs = [("phoneme_embed", (c.phoneme_vocab_size, d), "PhonemeEncoder",
              ("normal", 1.0))]
    for i in range(c.n_encoder_blocks):
        specs += _fft_block_specs(c, f"enc.{i}", "PhonemeEncoder")
    specs += _predictor_specs(c, "dur", "DurationPredictor")
    specs += _predictor_specs(c, "pitch", "PitchPredictor")
    specs += [
        ("pitch.proj.w", (1, d), "PitchPredictor", ("uniform", 1)),
        ("pitch.proj.b", (d,), "PitchPredictor", ZEROS),
        ("acou.ext1.kernel", (3, c.mel_dim, d), acou, ("uniform", 3 * c.mel_dim)),
        ("acou.ext1.bias", (d,), acou, ZEROS),
        ("acou.ext2.kernel", (3, d, d), acou, ("uniform", 3 * d)),
        ("acou.ext2.bias", (d,), acou, ZEROS),
        ("acou.dense.w", (d, d), acou, ("uniform", d)),
        ("acou.dense.b", (d,), acou, ZEROS),
        ("acou.pred1.kernel", (3, d, d), acou, ("uniform", 3 * d)),
        ("acou.pred1.bias", (d,), acou, ZEROS),
        ("acou.pred2.kernel", (3, d, d), acou, ("uniform", 3 * d)),
        ("acou.pred2.bias", (d,), acou, ZEROS),
    ]
    for i in range(c.n_decoder_blocks):
        specs += _fft_block_specs(c, f"dec.{i}", "DecoderCore", conditional=True)
    specs += [
        ("mel_out.w", (d, c.mel_dim), "MelLinear", ("uniform", d)),
        ("mel_out.b", (c.mel_dim,), "MelLinear", ZEROS),
        ("speaker_table", (c.n_speakers, c.speaker_embedding_dim), "SpeakerTable",
         ("normal", 0.5)),
        ("melenc.in.w", (c.mel_dim, d), "MelEncoder", ("uniform", c.mel_dim)),
        ("melenc.in.b", (d,), "MelEncoder", ZEROS),
    ]
    for i in range(c.n_mel_encoder_blocks):
        specs += _fft_block_specs(c, f"melenc.{i}", "MelEncoder")
    return tuple(specs)


@lru_cache(maxsize=64)
def param_shapes(c: ModelConfig) -> MappingProxyType:
    """Read-only {name: shape} in registry order, built once per config.

    Checkpoint loading checks names and shapes against it without drawing
    an initialisation.
    """
    return MappingProxyType({name: shape for name, shape, _, _ in param_specs(c)})


@lru_cache(maxsize=64)
def param_groups(c: ModelConfig) -> MappingProxyType:
    """Read-only {name: group} in registry order, built once per config."""
    return MappingProxyType({name: group for name, _, group, _ in param_specs(c)})


def _draw(rng, shape, init):
    kind = init[0]
    if kind == "uniform":
        bound = 1.0 / np.sqrt(init[1])
        return rng.uniform(-bound, bound, size=shape)
    if kind == "normal":
        return rng.normal(scale=init[1], size=shape)
    return np.zeros(shape) if kind == "zeros" else np.ones(shape)


def init_params(config: ModelConfig, seed: int) -> dict:
    """A fresh initialisation {name: float64 array}, drawn in registry order
    from one rng seeded with `seed`."""
    rng = np.random.default_rng(seed)
    return {name: _draw(rng, shape, init) for name, shape, _, init in param_specs(config)}


class TtsModel:
    """Owns the parameter registry; all forward helpers below take the model.

    Each parameter wraps its array of `arrays` (name -> float64 ndarray)
    without a copy, in registry order, so a read-only array (a checkpoint's)
    raises `ValueError` on any write to it. Names, shapes and dtypes are the
    caller's to check; `Checkpoint` checks them at construction.
    """

    def __init__(self, config: ModelConfig, arrays: dict):
        self.config = config
        self.params: dict[str, Tensor] = {
            name: Tensor(arrays[name], requires_grad=True) for name in param_shapes(config)
        }

    # -- bookkeeping -------------------------------------------------------

    def set_trainable(self, groups):
        """Restrict requires_grad to the given group labels (exactly)."""
        unknown = set(groups) - set(GROUPS)
        if unknown:
            raise ConfigError(f"unknown parameter groups: {sorted(unknown)}")
        labels = param_groups(self.config)
        for name, t in self.params.items():
            t.requires_grad = labels[name] in groups
            t.grad = None

    def trainable_params(self) -> dict:
        return {n: t for n, t in self.params.items() if t.requires_grad}

    def speaker_context(self, speaker_id: int) -> Tensor:
        """The (1, e) speaker-table row conditional layer norm reads."""
        check_speaker_id(speaker_id, self.config.n_speakers)
        return ad.gather_rows(self.params["speaker_table"], np.array([speaker_id]))


def check_speaker_id(speaker_id, n_speakers):
    """Raise ConfigError unless `speaker_id` is an integer (not a bool) that
    names one of `n_speakers` table rows."""
    if not isinstance(speaker_id, (int, np.integer)) or isinstance(speaker_id, bool):
        raise ConfigError(f"speaker id must be an integer, got {speaker_id!r}")
    if not 0 <= speaker_id < n_speakers:
        raise ConfigError(f"speaker id {speaker_id} outside table of {n_speakers} rows")


# -- sub-ops ---------------------------------------------------------------


def conditional_layer_norm(x, speaker, model, prefix):
    """layer_norm(x) * scale(e) + bias(e), scale/bias from two linear maps of
    the (1, e) speaker embedding `speaker`."""
    p = model.params
    return ad.conditional_layer_norm(
        x, speaker,
        *(p[f"{prefix}.{part}"] for part in ("w_scale", "b_scale", "w_bias", "b_bias")))


def _norm(x, model, prefix, site, speaker):
    """Conditional layer norm given a speaker (the decoder), plain otherwise."""
    if speaker is not None:
        return conditional_layer_norm(x, speaker, model, f"{prefix}.cln{site}")
    p = model.params
    return ad.layer_norm(x, p[f"{prefix}.ln{site}.gamma"], p[f"{prefix}.ln{site}.beta"])


def _attention(x, model, prefix):
    p = model.params
    parts = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    return ad.attention(x, *(p[f"{prefix}.attn.{part}"] for part in parts),
                        model.config.n_heads)


def fft_block(x, model, prefix, speaker=None):
    """Pre-norm residual block: attention then conv feed-forward.

    Zeroed output projections make the whole block an exact identity.
    """
    p = model.params
    a = ad.add(x, _attention(_norm(x, model, prefix, "1", speaker), model, prefix))
    h = _norm(a, model, prefix, "2", speaker)
    f = ad.conv1d(ad.relu(ad.conv1d(h, p[f"{prefix}.ffn.k1"], p[f"{prefix}.ffn.b1"])),
                  p[f"{prefix}.ffn.k2"], p[f"{prefix}.ffn.b2"])
    return ad.add(a, f)


def encode_phonemes(model, phoneme_ids) -> Tensor:
    ids = np.asarray(phoneme_ids)
    if ids.size == 0:
        raise ConfigError("empty phoneme sequence")
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ConfigError(f"phoneme ids must be a 1-d integer sequence, got "
                          f"{ids.dtype} of shape {ids.shape}")
    h = ad.embedding(model.params["phoneme_embed"], ids)
    h = ad.add(h, Tensor(positional_encoding(ids.size, model.config.hidden_dim)))
    for i in range(model.config.n_encoder_blocks):
        h = fft_block(h, model, f"enc.{i}")
    return h


def length_regulate(h: Tensor, durations) -> Tensor:
    dur = np.asarray(durations)
    if dur.shape != (h.shape[0],):
        raise ShapeError(f"{dur.shape[0] if dur.ndim else 0} durations for {h.shape[0]} rows")
    if np.any(dur < 0):
        raise ConfigError("negative duration")
    total = int(dur.sum())
    if total == 0:
        raise ConfigError("all durations zero: empty expansion")
    return ad.gather_rows(h, np.repeat(np.arange(h.shape[0]), dur))


def _predictor(x, model, prefix):
    p = model.params
    for i in ("1", "2"):
        x = ad.conv1d(x, p[f"{prefix}.c{i}.kernel"], p[f"{prefix}.c{i}.bias"])
        x = ad.layer_norm(ad.relu(x), p[f"{prefix}.ln{i}.gamma"], p[f"{prefix}.ln{i}.beta"])
    return ad.add(ad.matmul(x, p[f"{prefix}.out.w"]), p[f"{prefix}.out.b"])


def duration_predictor(model, h) -> Tensor:
    """Per-phoneme predictions in the log(frames+1) domain, shape [L x 1]."""
    return _predictor(h, model, "dur")


def durations_from_log(model, log_pred) -> np.ndarray:
    data = log_pred.data
    if not np.isfinite(data).all():
        raise NumericError("non-finite duration prediction")
    frames = np.rint(np.exp(data.reshape(-1)) - 1.0)
    return np.clip(frames, 1, model.config.max_duration).astype(np.int64)


def pitch_predictor(model, h_expanded) -> Tensor:
    """Frame-level scalar pitch predictions, shape [T x 1]."""
    return _predictor(h_expanded, model, "pitch")


def pitch_pathway(model, h_expanded, pitch) -> Tensor:
    """Project the pitch scalar to hidden size and add it to every frame."""
    if pitch.shape != (h_expanded.shape[0], 1):
        raise ShapeError(f"pitch shape {pitch.shape} for {h_expanded.shape[0]} frames")
    p = model.params
    return ad.add(h_expanded,
                  ad.add(ad.matmul(pitch, p["pitch.proj.w"]), p["pitch.proj.b"]))


def acoustic_extract(model, mel) -> Tensor:
    p = model.params
    T = mel.shape[0]
    # replicate-pad by the two convs' receptive margin so edge frames never
    # see the zero pad: constant input then yields constant features
    margin = 2
    idx = np.concatenate([np.zeros(margin, dtype=np.int64), np.arange(T),
                          np.full(margin, T - 1, dtype=np.int64)])
    x = ad.gather_rows(mel, idx)
    f = ad.relu(ad.conv1d(x, p["acou.ext1.kernel"], p["acou.ext1.bias"]))
    f = ad.conv1d(f, p["acou.ext2.kernel"], p["acou.ext2.bias"])
    return ad.gather_rows(f, np.arange(margin, margin + T))


def _mean_rows_matrix(T):
    return Tensor(np.full((1, T), 1.0 / T))


def acoustic_condition(model, mel, durations):
    """Pool per-frame acoustic features globally and per phoneme span.

    Returns (utterance_vec [1 x d], phoneme_vecs [L x d]); a single span
    covering the whole utterance makes the two pools identical.
    """
    dur = np.asarray(durations)
    T = mel.shape[0]
    if int(dur.sum()) != T:
        raise ShapeError(f"durations sum {int(dur.sum())} != {T} mel frames")
    feats = acoustic_extract(model, mel)
    pool = np.zeros((dur.size, T))
    start = 0
    for i, n in enumerate(dur):
        if n > 0:
            pool[i, start:start + n] = 1.0 / n
        start += n
    utterance_vec = ad.matmul(_mean_rows_matrix(T), feats)
    phoneme_vecs = ad.matmul(Tensor(pool), feats)
    return utterance_vec, phoneme_vecs


def acoustic_predict(model, h_phoneme) -> Tensor:
    """Regress per-phoneme acoustic vectors from phoneme-encoder hiddens."""
    p = model.params
    f = ad.relu(ad.conv1d(h_phoneme, p["acou.pred1.kernel"], p["acou.pred1.bias"]))
    return ad.conv1d(f, p["acou.pred2.kernel"], p["acou.pred2.bias"])


def acoustic_additions(model, x, frame_vecs, utterance_vec):
    """Add the dense-mapped frame-level vectors and the utterance vector."""
    p = model.params
    dense = ad.add(ad.matmul(frame_vecs, p["acou.dense.w"]), p["acou.dense.b"])
    return ad.add(ad.add(x, dense), utterance_vec)


def decode(model, x, speaker) -> Tensor:
    x = ad.add(x, Tensor(positional_encoding(x.shape[0], model.config.hidden_dim)))
    for i in range(model.config.n_decoder_blocks):
        x = fft_block(x, model, f"dec.{i}", speaker)
    p = model.params
    return ad.add(ad.matmul(x, p["mel_out.w"]), p["mel_out.b"])


@dataclass
class ForwardResult:
    mel: Tensor                      # [T x mel_dim]
    log_duration: Tensor             # [L x 1]
    pitch_pred: Tensor               # [T x 1]
    durations: np.ndarray            # [L] frames actually used
    expanded_hidden: Tensor          # [T x d], pre pitch/acoustic additions
    acoustic_target: Tensor = None   # [L x d] extracted vecs (teacher forcing)
    acoustic_pred: Tensor = None     # [L x d] predictor output


def tts_forward(model, phoneme_ids, speaker, durations=None, pitch=None,
                mel_target=None) -> ForwardResult:
    """Transcript-side synthesis path.

    Oracle `durations`/`pitch` and a `mel_target` (for extracting acoustic
    conditions) switch the variance inputs to teacher forcing; with all three
    omitted every variance input is predicted, which is the inference mode.
    """
    h = encode_phonemes(model, phoneme_ids)
    log_dur = duration_predictor(model, h)
    if durations is None:
        dur_used = durations_from_log(model, log_dur)
    else:
        dur_used = np.asarray(durations, dtype=np.int64)
    h_reg = length_regulate(h, dur_used)
    T = h_reg.shape[0]
    pitch_pred = pitch_predictor(model, h_reg)
    if pitch is None:
        pitch_used = pitch_pred
    else:
        arr = np.asarray(pitch, dtype=np.float64).reshape(-1, 1)
        if arr.shape[0] != T:
            raise ShapeError(f"{arr.shape[0]} pitch frames for {T} mel frames")
        pitch_used = Tensor(arr)
    x = pitch_pathway(model, h_reg, pitch_used)

    acoustic_target = None
    acoustic_pred = acoustic_predict(model, h)
    if mel_target is not None:
        utt_vec, phon_vecs = acoustic_condition(model, mel_target, dur_used)
        frame_vecs = length_regulate(phon_vecs, dur_used)
        acoustic_target = phon_vecs
    else:
        frame_vecs = length_regulate(acoustic_pred, dur_used)
        utt_vec = ad.matmul(_mean_rows_matrix(T), frame_vecs)
    x = acoustic_additions(model, x, frame_vecs, utt_vec)

    mel = decode(model, x, speaker)
    return ForwardResult(mel=mel, log_duration=log_dur, pitch_pred=pitch_pred,
                         durations=dur_used, expanded_hidden=h_reg,
                         acoustic_target=acoustic_target, acoustic_pred=acoustic_pred)
