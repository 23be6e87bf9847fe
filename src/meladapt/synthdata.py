"""Deterministic synthetic speech stand-in with a known ground truth.

Every record is a pure function of (spec, speaker_id, utterance_id): phoneme
prototypes and per-speaker voice transforms are derived from the OracleSpec
seed through fixed SeedSequence spawn keys, never from shared mutable state. With
noise_sigma = 0 the mel depends only on (speaker, phonemes, durations).
"""

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import binio
from .errors import CheckpointFormatError, ConfigError

CORPUS_MAGIC = b"MACORP\x00\x01"
CORPUS_VERSION = 1

# generator shape constants: tuned once, part of the data format
_MIN_LEN, _MAX_LEN = 5, 20
_BASE_DUR_LO, _BASE_DUR_HI = 2, 6
_SPEAKER_MIX = 0.15        # off-identity strength of the per-speaker linear map
_PROFILE_STD = 0.5
_DUR_SCALE_LO, _DUR_SCALE_HI = 0.7, 1.4
_PITCH_OFFSET_STD = 0.3
_VIBRATO_AMP = 0.1
_VIBRATO_PERIOD = 9.0
_PITCH_MIX = 0.3           # weight of the pitch-correlated mel component


@dataclass(frozen=True)
class OracleSpec:
    seed: int = 0
    phoneme_vocab_size: int = 24
    mel_dim: int = 16
    noise_sigma: float = 0.01

    def __post_init__(self):
        for key in ("seed", "phoneme_vocab_size", "mel_dim"):
            if type(getattr(self, key)) is not int:
                raise ConfigError(f"{key} must be an int, got {getattr(self, key)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.phoneme_vocab_size < 1 or self.mel_dim < 1:
            raise ConfigError("vocab and mel sizes must be positive")
        sigma = self.noise_sigma
        if (isinstance(sigma, bool) or not isinstance(sigma, (int, float))
                or not (math.isfinite(sigma) and sigma >= 0)):
            raise ConfigError(f"noise_sigma must be a finite real >= 0, got {sigma!r}")


def _rng(spec, *key):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=key)
    )


@lru_cache(maxsize=32)
def _phoneme_tables(spec):
    protos = np.empty((spec.phoneme_vocab_size, spec.mel_dim))
    base_dur = np.empty(spec.phoneme_vocab_size, dtype=np.int64)
    pitch_level = np.empty(spec.phoneme_vocab_size)
    smooth = np.array([0.25, 0.5, 0.25])
    for pid in range(spec.phoneme_vocab_size):
        rng = _rng(spec, 0, pid)
        raw = rng.normal(size=spec.mel_dim)
        for _ in range(2):  # mild smoothing across mel bins
            raw = np.convolve(raw, smooth, mode="same")
        protos[pid] = raw * 1.5
        base_dur[pid] = rng.integers(_BASE_DUR_LO, _BASE_DUR_HI + 1)
        pitch_level[pid] = rng.normal()
    for table in (protos, base_dur, pitch_level):
        table.setflags(write=False)  # shared cache entry, callers must not mutate
    return protos, base_dur, pitch_level


@lru_cache(maxsize=256)
def _speaker_voice(spec, speaker_id):
    rng = _rng(spec, 1, speaker_id)
    g = rng.normal(size=(spec.mel_dim, spec.mel_dim))
    transform = np.eye(spec.mel_dim) + _SPEAKER_MIX * g / np.sqrt(spec.mel_dim)
    profile = rng.normal(scale=_PROFILE_STD, size=spec.mel_dim)
    dur_scale = rng.uniform(_DUR_SCALE_LO, _DUR_SCALE_HI)
    pitch_offset = rng.normal(scale=_PITCH_OFFSET_STD)
    vibrato_phase = rng.uniform(0.0, 2.0 * np.pi)
    transform.setflags(write=False)  # shared cache entry, callers must not mutate
    profile.setflags(write=False)
    return transform, profile, dur_scale, pitch_offset, vibrato_phase


@lru_cache(maxsize=8)
def _pitch_direction(spec):
    v = _rng(spec, 3).normal(size=spec.mel_dim)
    direction = v / np.linalg.norm(v)
    direction.setflags(write=False)  # shared cache entry, callers must not mutate
    return direction


@dataclass
class Utterance:
    speaker_id: int
    utterance_id: int
    phonemes: np.ndarray   # [L] int64
    durations: np.ndarray  # [L] int64 frames
    pitch: np.ndarray      # [T] float64
    mel: np.ndarray        # [T x mel_dim] float64
    transcript_present: bool = True

    def __post_init__(self):
        if int(self.durations.sum()) != self.mel.shape[0]:
            raise ConfigError(
                f"durations sum {int(self.durations.sum())} != {self.mel.shape[0]} frames"
            )


@dataclass
class MelOnlyUtterance:
    """Adaptation-side record: no phoneme, duration, or pitch field exists."""

    speaker_id: int
    utterance_id: int
    mel: np.ndarray


def speaker_durations(spec, speaker_id, phonemes) -> np.ndarray:
    _, base_dur, _ = _phoneme_tables(spec)
    _, _, dur_scale, _, _ = _speaker_voice(spec, speaker_id)
    return np.maximum(1, np.rint(dur_scale * base_dur[phonemes])).astype(np.int64)


def render(spec, speaker_id, phonemes, durations=None):
    """Noise-free ground truth for arbitrary text: returns (durations, pitch, mel).

    This is the oracle the evaluation side compares synthesized mels against.
    """
    phonemes = np.asarray(phonemes)
    if phonemes.size == 0 or phonemes.min() < 0 or phonemes.max() >= spec.phoneme_vocab_size:
        raise ConfigError("phoneme ids outside oracle vocabulary")
    protos, _, pitch_level = _phoneme_tables(spec)
    transform, profile, _, pitch_offset, phase = _speaker_voice(spec, speaker_id)
    if durations is None:
        durations = speaker_durations(spec, speaker_id, phonemes)
    else:
        durations = np.asarray(durations, dtype=np.int64)
    T = int(durations.sum())

    t = np.arange(T, dtype=np.float64)
    span_of_frame = np.repeat(np.arange(phonemes.size), durations)
    pitch = (pitch_level[phonemes][span_of_frame] + pitch_offset
             + _VIBRATO_AMP * np.sin(2.0 * np.pi * t / _VIBRATO_PERIOD + phase))

    starts = np.concatenate([[0], np.cumsum(durations)[:-1]])
    centers = starts + (durations - 1) / 2.0
    base = np.empty((T, spec.mel_dim))
    for j in range(spec.mel_dim):
        base[:, j] = np.interp(t, centers, protos[phonemes, j])

    mel = (base @ transform.T + profile
           + _PITCH_MIX * np.outer(pitch, _pitch_direction(spec)))
    return durations, pitch, mel


def gen_utterance(spec, speaker_id, utterance_id) -> Utterance:
    rng = _rng(spec, 2, speaker_id, utterance_id)
    L = int(rng.integers(_MIN_LEN, _MAX_LEN + 1))
    phonemes = rng.integers(0, spec.phoneme_vocab_size, size=L)
    durations, pitch, mel = render(spec, speaker_id, phonemes)
    if spec.noise_sigma > 0:
        mel = mel + spec.noise_sigma * rng.normal(size=mel.shape)
    return Utterance(speaker_id=speaker_id, utterance_id=utterance_id,
                     phonemes=phonemes, durations=durations, pitch=pitch, mel=mel)


@dataclass
class Corpus:
    spec: OracleSpec
    utterances: list = field(default_factory=list)

    def speakers(self):
        return sorted({u.speaker_id for u in self.utterances})

    def of_speaker(self, speaker_id):
        return [u for u in self.utterances if u.speaker_id == speaker_id]

    def train_split(self):
        """Per speaker, all but the last 20 percent of records (at least one
        held back when the speaker has two or more)."""
        out = []
        for s in self.speakers():
            utts = self.of_speaker(s)
            n_held = max(1, int(round(0.2 * len(utts)))) if len(utts) > 1 else 0
            out.extend(utts[:len(utts) - n_held])
        return Corpus(self.spec, out)


def gen_corpus(spec, n_speakers, utts_per_speaker, first_speaker=0) -> Corpus:
    if n_speakers < 1:
        raise ConfigError("need at least one speaker")
    utts = [
        gen_utterance(spec, s, u)
        for s in range(first_speaker, first_speaker + n_speakers)
        for u in range(utts_per_speaker)
    ]
    return Corpus(spec, utts)


def strip_transcripts(corpus, speaker_id) -> list:
    """Mel-only records for one speaker: the transcript fields do not exist
    on the output type, so downstream code cannot read them even by accident."""
    utts = corpus.of_speaker(speaker_id)
    if not utts:
        raise ConfigError(f"speaker {speaker_id} has no utterances in this corpus")
    return [MelOnlyUtterance(u.speaker_id, u.utterance_id, u.mel.copy()) for u in utts]


# -- container i/o ---------------------------------------------------------


def _record_meta(u):
    if isinstance(u, Utterance):
        return {"kind": "full", "speaker_id": int(u.speaker_id),
                "utterance_id": int(u.utterance_id),
                "transcript_present": bool(u.transcript_present)}
    return {"kind": "mel_only", "speaker_id": int(u.speaker_id),
            "utterance_id": int(u.utterance_id)}


def spec_meta(spec):
    return {"seed": spec.seed, "phoneme_vocab_size": spec.phoneme_vocab_size,
            "mel_dim": spec.mel_dim, "noise_sigma": spec.noise_sigma}


def save_corpus(spec, records, path):
    """Write `records` (full or mel-only) of the oracle `spec` to `path`."""
    meta = {"spec": spec_meta(spec), "records": [_record_meta(u) for u in records]}
    arrays = {}
    for i, u in enumerate(records):
        tag = f"u{i:06d}"
        arrays[f"{tag}.mel"] = u.mel
        if isinstance(u, Utterance):
            arrays[f"{tag}.phonemes"] = u.phonemes
            arrays[f"{tag}.durations"] = u.durations
            arrays[f"{tag}.pitch"] = u.pitch
    binio.write_container(path, CORPUS_MAGIC, CORPUS_VERSION, meta, arrays)


def _check_transcript_arrays(where, phonemes, durations, pitch, n_frames, vocab_size):
    """A full record's phoneme ids must be 1-D int64 inside the vocabulary,
    its durations int64, non-negative and one per phoneme, and its pitch 1-D
    float64 with one value per mel frame."""
    if phonemes.ndim != 1 or phonemes.dtype != np.int64:
        raise CheckpointFormatError(
            f"{where} phonemes are {phonemes.dtype} of shape {phonemes.shape}, "
            f"not 1-D int64")
    if phonemes.size and not 0 <= phonemes.min() <= phonemes.max() < vocab_size:
        raise CheckpointFormatError(
            f"{where} phoneme ids outside the vocabulary of {vocab_size}")
    if durations.dtype != np.int64 or durations.shape != phonemes.shape:
        raise CheckpointFormatError(
            f"{where} durations are {durations.dtype} of shape {durations.shape}, "
            f"not int64 of shape {phonemes.shape}")
    if durations.size and durations.min() < 0:
        raise CheckpointFormatError(f"{where} has negative durations")
    if pitch.dtype != np.float64 or pitch.shape != (n_frames,):
        raise CheckpointFormatError(
            f"{where} pitch is {pitch.dtype} of shape {pitch.shape}, "
            f"not float64 of shape {(n_frames,)}")


def _load_record(path, i, rm, arrays, spec):
    """Record `i` of a corpus container, from its meta entry and arrays."""
    tag = f"u{i:06d}"
    try:
        kind = rm["kind"]
        ids = rm["speaker_id"], rm["utterance_id"]
        if not all(type(v) is int for v in ids):
            raise CheckpointFormatError(f"{path}: record {i} ids {ids} are not integers")
        mel = arrays[f"{tag}.mel"]
        if mel.dtype != np.float64 or mel.ndim != 2 or mel.shape[1] != spec.mel_dim:
            raise CheckpointFormatError(
                f"{path}: record {i} mel is {mel.dtype} of shape {mel.shape}, not "
                f"float64 of width mel_dim {spec.mel_dim}")
        if kind == "full":
            phonemes = arrays[f"{tag}.phonemes"]
            durations = arrays[f"{tag}.durations"]
            pitch = arrays[f"{tag}.pitch"]
            _check_transcript_arrays(f"{path}: record {i}", phonemes, durations,
                                     pitch, mel.shape[0], spec.phoneme_vocab_size)
            return Utterance(*ids, phonemes=phonemes, durations=durations,
                             pitch=pitch, mel=mel,
                             transcript_present=rm.get("transcript_present", True))
        if kind == "mel_only":
            return MelOnlyUtterance(*ids, mel)
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: record {i} missing {exc}") from exc
    except (TypeError, ConfigError) as exc:
        raise CheckpointFormatError(f"{path}: malformed record {i}: {exc}") from exc
    raise CheckpointFormatError(f"{path}: unknown record kind {kind!r}")


def load_corpus(path, expect_mel_dim=None):
    """Returns a Corpus (full records) or a list of MelOnlyUtterance."""
    meta, arrays = binio.read_container(path, CORPUS_MAGIC, CORPUS_VERSION)
    try:
        spec = OracleSpec(**meta["spec"])
        record_meta = meta["records"]
        if not isinstance(record_meta, list):
            raise TypeError("records is not a list")
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointFormatError(f"{path}: malformed corpus meta: {exc}") from exc
    if expect_mel_dim is not None and spec.mel_dim != expect_mel_dim:
        raise CheckpointFormatError(
            f"{path}: corpus mel_dim {spec.mel_dim}, the model's is {expect_mel_dim}"
        )
    records = [_load_record(path, i, rm, arrays, spec)
               for i, rm in enumerate(record_meta)]
    mel_only = [isinstance(r, MelOnlyUtterance) for r in records]
    if records and all(mel_only):
        return records
    if any(mel_only):
        raise CheckpointFormatError(f"{path}: mixed full and mel-only records")
    return Corpus(spec, records)


def corpus_hash(corpus) -> str:
    """Stable content hash used to pin the reference corpus in the repo."""
    h = hashlib.sha256()
    h.update(binio._canonical_json(spec_meta(corpus.spec)))
    for u in corpus.utterances:
        h.update(binio._canonical_json(_record_meta(u)))
        for arr in (u.phonemes, u.durations, u.pitch, u.mel):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
