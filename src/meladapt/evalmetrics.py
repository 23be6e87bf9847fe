"""Objective evaluation against the synthetic oracle.

Replaces listening scores with three instruments: mel error under length
truncation, a speaker-proximity score against oracle voice statistics, and
paired per-utterance comparison reports with a sign-test summary.
"""

import csv
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import synthdata as sd
from .binio import atomic_write
from .errors import ConfigError, ShapeError

_N_PROBES = 4
_PROBE_LEN = 16
_PROBE_DOMAIN = 0x9E3779B9  # rng stream tag; keeps probes off corpus streams
_FLOOR = 0.7  # score resolution limit, in units of inter-speaker spread


@dataclass(frozen=True)
class MelDistance:
    value: float
    truncation_fraction: float  # share of the longer input dropped


def mel_distance(a, b) -> MelDistance:
    """Mean absolute error over the frames both mels share."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"incomparable mel shapes {a.shape} and {b.shape}")
    t = min(a.shape[0], b.shape[0])
    if t == 0:
        raise ConfigError("empty frame overlap between compared mels")
    longest = max(a.shape[0], b.shape[0])
    value = float(np.abs(a[:t] - b[:t]).mean())
    return MelDistance(value=value, truncation_fraction=1.0 - t / longest)


@lru_cache(maxsize=64)
def _probe_texts(spec):
    """Fixed phoneme sequences shared by every speaker's profile probes.
    Shared content makes profile differences carry voice identity only."""
    rng = np.random.default_rng([spec.seed, _PROBE_DOMAIN])
    return tuple(
        tuple(int(p) for p in rng.integers(0, spec.phoneme_vocab_size,
                                           size=_PROBE_LEN))
        for _ in range(_N_PROBES)
    )


@lru_cache(maxsize=1024)
def _oracle_profile(spec, speaker_id) -> np.ndarray:
    """Per-dim mean of noise-free oracle renders of the shared probe texts."""
    clean = replace(spec, noise_sigma=0.0)
    frames = [
        sd.render(clean, speaker_id, list(text))[2] for text in _probe_texts(spec)
    ]
    profile = np.vstack(frames).mean(axis=0)
    profile.setflags(write=False)  # shared cache entry, callers must not mutate
    return profile


@lru_cache(maxsize=256)
def _geometry(spec, ids):
    """What `speaker_proximity` measures against, for the sorted speaker ids
    `ids`: ({id: oracle profile}, the basis of the subspace the profiles
    span, their mean pairwise distance). One speaker spans no subspace, so
    its basis and spread are None."""
    profs = MappingProxyType({k: _oracle_profile(spec, k) for k in ids})
    if len(ids) < 2:
        return profs, None, None
    stack = np.vstack([profs[k] for k in ids])
    centered = stack - stack.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[svals > 1e-9 * max(float(svals[0]), 1.0)]
    basis.setflags(write=False)  # shared cache entry, callers must not mutate
    spreads = [
        np.linalg.norm(profs[a] - profs[b])
        for i, a in enumerate(ids) for b in ids[i + 1:]
    ]
    spread = float(np.mean(spreads))
    if spread <= 0.0:
        spread = 1.0
    return profs, basis, spread


def speaker_proximity(generated, target_speaker, spec, speakers) -> float:
    """Distance of the generated mel's per-dim mean to the target speaker's
    oracle profile, measured inside the subspace spanned by the speaker
    profiles and expressed in units of the mean inter-speaker profile
    distance. Lower is more similar.

    The projection discards statistic directions that only encode phonetic
    content, and the reported value is floored at the resolution limit
    sqrt(x^2 + _FLOOR^2): gaps below that scale are within the sampling noise
    of corpus-length utterances and are deliberately not resolved. The floor
    map is strictly increasing, so orderings between scores are exactly the
    raw-gap orderings. The profiles, subspace and spread depend only on
    `spec` and the speaker set, so they are computed once per set."""
    generated = np.asarray(generated)
    if generated.ndim != 2 or generated.shape[1] != spec.mel_dim:
        raise ShapeError(f"generated mel shape {generated.shape} does not fit "
                         f"mel_dim {spec.mel_dim}")
    profs, basis, spread = _geometry(spec, tuple(sorted(set(speakers) | {target_speaker})))
    gap = generated.mean(axis=0) - profs[target_speaker]
    if basis is None:
        return float(np.linalg.norm(gap))
    x = float(np.linalg.norm(basis @ gap)) / spread
    return float(np.sqrt(x * x + _FLOOR * _FLOOR))


@dataclass
class PairedReport:
    arm_a: str
    arm_b: str
    metric: str
    utterance_ids: list
    a_values: list
    b_values: list

    @property
    def mean_delta(self) -> float:
        """Mean of per-utterance (a - b); negative means arm_a is better."""
        return float(np.mean(np.asarray(self.a_values) - np.asarray(self.b_values)))

    @property
    def fraction_a_beats_b(self) -> float:
        """Share of utterances where arm_a has strictly lower error; ties
        contribute half to each arm."""
        a, b = np.asarray(self.a_values), np.asarray(self.b_values)
        return float((np.sum(a < b) + 0.5 * np.sum(a == b)) / a.size)

    def rows(self):
        for uid, av, bv in zip(self.utterance_ids, self.a_values, self.b_values):
            yield (uid, self.arm_a, self.metric, av)
            yield (uid, self.arm_b, self.metric, bv)

    def summary(self) -> str:
        return (
            f"{self.metric}: {self.arm_a} vs {self.arm_b} over "
            f"{len(self.utterance_ids)} utterances: mean delta "
            f"{self.mean_delta:+.6f} ({self.arm_a} {'better' if self.mean_delta < 0 else 'worse'}), "
            f"{self.arm_a} wins {self.fraction_a_beats_b:.1%}"
        )


def paired_report(arm_a, a_values, arm_b, b_values, metric="mel_mae") -> PairedReport:
    """`a_values`/`b_values` map utterance_id -> error for each arm."""
    if set(a_values) != set(b_values):
        only_a = sorted(set(a_values) - set(b_values))
        only_b = sorted(set(b_values) - set(a_values))
        raise ConfigError(
            f"arms cover different utterances (only {arm_a}: {only_a[:4]}, "
            f"only {arm_b}: {only_b[:4]})"
        )
    if not a_values:
        raise ConfigError("empty comparison")
    ids = sorted(a_values)
    return PairedReport(arm_a=arm_a, arm_b=arm_b, metric=metric, utterance_ids=ids,
                        a_values=[a_values[i] for i in ids],
                        b_values=[b_values[i] for i in ids])


def write_report_csv(rows, path):
    """Rows of (utterance_id, arm, metric, value) in the shared report schema."""
    with atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["utterance_id", "arm", "metric", "value"])
        for uid, arm, metric, value in rows:
            w.writerow([uid, arm, metric, repr(float(value))])
