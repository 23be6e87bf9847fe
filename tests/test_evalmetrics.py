import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meladapt import evalmetrics as ev
from meladapt import synthdata as sd
from meladapt.errors import ConfigError, ShapeError

SPEC = sd.OracleSpec(seed=2024, phoneme_vocab_size=8, mel_dim=6, noise_sigma=0.01)


def _mel(rng, t, d=6):
    return rng.normal(size=(t, d))


class TestMelDistance:
    def test_identical_is_zero(self):
        a = _mel(np.random.default_rng(0), 9)
        assert ev.mel_distance(a, a).value == 0.0

    def test_constant_offset_mae(self):
        a = _mel(np.random.default_rng(1), 7)
        d = ev.mel_distance(a, a + 0.25)
        assert d.value == pytest.approx(0.25, abs=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        a, b = _mel(rng, 11), _mel(rng, 11)
        total = 0.0
        for i in range(11):
            for j in range(6):
                total += abs(a[i, j] - b[i, j])
        assert ev.mel_distance(a, b).value == pytest.approx(
            total / (11 * 6), abs=1e-12)

    def test_truncates_to_shorter(self):
        rng = np.random.default_rng(3)
        a, b = _mel(rng, 10), _mel(rng, 7)
        d = ev.mel_distance(a, b)
        assert d.value == ev.mel_distance(a[:7], b).value
        assert ev.mel_distance(b, a).value == d.value

    def test_empty_overlap_rejected(self):
        with pytest.raises(ConfigError):
            ev.mel_distance(np.zeros((0, 6)), _mel(np.random.default_rng(0), 4))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ev.mel_distance(np.zeros((3, 6)), np.zeros((3, 5)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 12))
        a, b = _mel(rng, t, 4), _mel(rng, t, 4)
        assert ev.mel_distance(a, b).value == ev.mel_distance(b, a).value

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_identity_of_indiscernibles(self, seed):
        rng = np.random.default_rng(seed)
        a = _mel(rng, int(rng.integers(1, 12)), 4)
        assert ev.mel_distance(a, a).value == 0.0
        b = a.copy()
        b[0, 0] += 1e-6
        assert ev.mel_distance(a, b).value > 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_mae(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 12))
        a, b, c = (_mel(rng, t, 4) for _ in range(3))
        ab = ev.mel_distance(a, b).value
        ac = ev.mel_distance(a, c).value
        cb = ev.mel_distance(c, b).value
        assert ab <= ac + cb + 1e-12


class TestSpeakerProximity:
    def test_self_closer_than_other(self):
        clean = replace(SPEC, noise_sigma=0.0)
        phon = [1, 2, 3, 4, 2, 5]
        _, _, mel0 = sd.render(clean, 0, phon)
        _, _, mel1 = sd.render(clean, 1, phon)
        speakers = [0, 1, 2]
        self_score = ev.speaker_proximity(mel0, 0, SPEC, speakers)
        cross_score = ev.speaker_proximity(mel1, 0, SPEC, speakers)
        assert self_score < cross_score

    def test_oracle_self_score_sits_near_resolution_floor(self):
        clean = replace(SPEC, noise_sigma=0.0)
        u = sd.gen_utterance(clean, 2, 77)
        score = ev.speaker_proximity(u.mel, 2, SPEC, [0, 1, 2, 3])
        assert ev._FLOOR <= score < 0.9

    def test_length_invariance_for_long_utterances(self):
        # two independent long utterances of the same speaker score within
        # 10% of each other once frame statistics have converged
        clean = replace(SPEC, noise_sigma=0.0)
        speakers = [0, 1, 2]
        rng = np.random.default_rng(17)
        for trial in range(12):
            spk = int(rng.integers(0, 3))
            mel_a = sd.render(clean, spk, list(rng.integers(0, 8, size=48)))[2]
            mel_b = sd.render(clean, spk, list(rng.integers(0, 8, size=48)))[2]
            sa = ev.speaker_proximity(mel_a, spk, SPEC, speakers)
            sb = ev.speaker_proximity(mel_b, spk, SPEC, speakers)
            assert abs(sa - sb) <= 0.10 * max(sa, sb)

    def test_probe_texts_shared_across_speakers(self):
        texts = ev._probe_texts(SPEC)
        assert len(texts) == ev._N_PROBES
        for t in texts:
            assert all(0 <= p < SPEC.phoneme_vocab_size for p in t)
        # profiles for different speakers come from identical content
        assert ev._probe_texts(SPEC) is ev._probe_texts(SPEC)

    def test_floor_map_preserves_ordering(self):
        clean = replace(SPEC, noise_sigma=0.0)
        phon = [1, 2, 3, 4, 2, 5, 0, 6]
        scores = []
        for spk in (0, 1, 2):
            mel = sd.render(clean, spk, phon)[2]
            scores.append(ev.speaker_proximity(mel, 0, SPEC, [0, 1, 2]))
        assert scores[0] == min(scores)

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            ev.speaker_proximity(np.zeros((4, SPEC.mel_dim + 1)), 0, SPEC, [0, 1])

    def test_deterministic(self):
        mel = _mel(np.random.default_rng(8), 12)
        s1 = ev.speaker_proximity(mel, 1, SPEC, [0, 1, 2])
        s2 = ev.speaker_proximity(mel, 1, SPEC, [0, 1, 2])
        assert s1 == s2


def _inline_proximity(generated, target_speaker, spec, speakers):
    """speaker_proximity as written before its geometry was cached: the
    oracle the cached scores must match bit for bit."""
    generated = np.asarray(generated)
    ids = sorted(set(speakers) | {target_speaker})
    profs = {k: ev._oracle_profile(spec, k) for k in ids}
    gap = generated.mean(axis=0) - profs[target_speaker]
    if len(ids) < 2:
        return float(np.linalg.norm(gap))
    stack = np.vstack([profs[k] for k in ids])
    centered = stack - stack.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[svals > 1e-9 * max(float(svals[0]), 1.0)]
    spreads = [
        np.linalg.norm(profs[a] - profs[b])
        for i, a in enumerate(ids) for b in ids[i + 1:]
    ]
    spread = float(np.mean(spreads))
    if spread <= 0.0:
        spread = 1.0
    x = float(np.linalg.norm(basis @ gap)) / spread
    return float(np.sqrt(x * x + ev._FLOOR * ev._FLOOR))


def _bits(x):
    return np.float64(x).tobytes()


class TestGeometry:
    CASES = {
        "target-inside": (1, [0, 1, 2]),
        "target-outside": (5, [0, 1, 2]),
        "single-speaker": (2, [2]),
        "ten-speakers": (4, list(range(10))),
        "numpy-ids": (np.int64(1), list(np.arange(3))),
    }

    @pytest.mark.parametrize("target, speakers", CASES.values(), ids=CASES.keys())
    def test_matches_the_inline_formula(self, target, speakers):
        rng = np.random.default_rng(31)
        for t in (1, 9, 40):
            mel = _mel(rng, t)
            assert (_bits(ev.speaker_proximity(mel, target, SPEC, speakers))
                    == _bits(_inline_proximity(mel, target, SPEC, speakers)))

    def test_computed_once_per_speaker_set(self):
        mel = _mel(np.random.default_rng(6), 10)
        ev._geometry.cache_clear()
        scores = [ev.speaker_proximity(mel, 1, SPEC, order)
                  for order in ([0, 1, 2], [2, 1, 0], [0, 2], [0, 1, 2])]
        assert len({_bits(s) for s in scores}) == 1
        assert ev._geometry.cache_info().misses == 1
        assert ev._geometry.cache_info().hits == 3
        single = ev._geometry(SPEC, (2,))
        assert single[1] is None and single[2] is None

    def test_cached_arrays_are_read_only(self):
        profs, basis, _ = ev._geometry(SPEC, (0, 1, 2))
        for arr in (basis, profs[0], ev._oracle_profile(SPEC, 1)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(TypeError):
            profs[0] = np.zeros(SPEC.mel_dim)


class TestPairedReport:
    def test_identical_arms(self):
        vals = {i: float(i) * 0.1 + 0.3 for i in range(6)}
        rep = ev.paired_report("x", vals, "y", dict(vals))
        assert rep.mean_delta == 0.0
        assert rep.fraction_a_beats_b == 0.5

    def test_mean_delta_equals_difference_of_means(self):
        rng = np.random.default_rng(11)
        a = {i: float(v) for i, v in enumerate(rng.normal(size=9))}
        b = {i: float(v) for i, v in enumerate(rng.normal(size=9))}
        rep = ev.paired_report("a", a, "b", b)
        direct = np.mean(list(a.values())) - np.mean(list(b.values()))
        assert rep.mean_delta == pytest.approx(direct, abs=1e-12)

    def test_sign_fraction_counts_ties_half(self):
        a = {0: 1.0, 1: 2.0, 2: 3.0, 3: 5.0}
        b = {0: 2.0, 1: 2.0, 2: 2.0, 3: 6.0}
        # a wins on 0 and 3, loses on 2, ties on 1
        rep = ev.paired_report("a", a, "b", b)
        assert rep.fraction_a_beats_b == pytest.approx((2 + 0.5) / 4)

    def test_mismatched_utterance_sets_rejected(self):
        with pytest.raises(ConfigError):
            ev.paired_report("a", {0: 1.0, 1: 2.0}, "b", {0: 1.0, 2: 2.0})
        with pytest.raises(ConfigError):
            ev.paired_report("a", {}, "b", {})

    def test_csv_round_trip(self, tmp_path):
        a = {3: 0.25, 1: 0.5}
        b = {3: 0.125, 1: 1.0}
        rep = ev.paired_report("main", a, "joint", b)
        path = tmp_path / "report.csv"
        ev.write_report_csv(rep.rows(), path)
        with open(path, newline="") as fh:
            rows = [(int(r["utterance_id"]), r["arm"], r["metric"], float(r["value"]))
                    for r in csv.DictReader(fh)]
        assert (1, "main", "mel_mae", 0.5) in rows
        assert (3, "joint", "mel_mae", 0.125) in rows
        assert len(rows) == 4
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)

    def test_summary_mentions_arms(self):
        rep = ev.paired_report("adapted", {0: 0.1}, "source", {0: 0.4})
        s = rep.summary()
        assert "adapted" in s and "source" in s
        assert "better" in s
