import numpy as np
import pytest

from meladapt import binio
from meladapt import synthdata as sd
from meladapt.errors import CheckpointFormatError, ConfigError

SPEC = sd.OracleSpec(seed=11, phoneme_vocab_size=24, mel_dim=16, noise_sigma=0.01)


class TestDeterminism:
    def test_same_spec_same_corpus_bitwise(self):
        a = sd.gen_corpus(SPEC, 3, 4)
        b = sd.gen_corpus(SPEC, 3, 4)
        assert sd.corpus_hash(a) == sd.corpus_hash(b)
        for x, y in zip(a.utterances, b.utterances):
            assert np.array_equal(x.mel, y.mel)
            assert np.array_equal(x.phonemes, y.phonemes)

    def test_utterance_regenerable_in_isolation(self):
        # purity: single record equals the same record generated inside a corpus
        corpus = sd.gen_corpus(SPEC, 2, 3)
        solo = sd.gen_utterance(SPEC, 1, 2)
        ref = [u for u in corpus.utterances
               if u.speaker_id == 1 and u.utterance_id == 2][0]
        assert np.array_equal(solo.mel, ref.mel)
        assert np.array_equal(solo.pitch, ref.pitch)

    def test_different_seed_differs(self):
        other = sd.OracleSpec(seed=12, phoneme_vocab_size=24, mel_dim=16)
        assert not np.array_equal(
            sd.gen_utterance(SPEC, 0, 0).mel, sd.gen_utterance(other, 0, 0).mel
        )

    def test_noiseless_mel_is_function_of_text_and_speaker(self):
        # single-phoneme vocabulary: any two same-length utterances share
        # phonemes and durations, so their mels must match bitwise
        spec = sd.OracleSpec(seed=5, phoneme_vocab_size=1, mel_dim=8, noise_sigma=0.0)
        by_len = {}
        for uid in range(40):
            u = sd.gen_utterance(spec, 0, uid)
            by_len.setdefault(len(u.phonemes), []).append(u)
        pairs = [v for v in by_len.values() if len(v) >= 2]
        assert pairs, "no same-length pair in 40 draws"
        for group in pairs:
            assert np.array_equal(group[0].mel, group[1].mel)


@pytest.mark.parametrize("bad", [{"seed": -1}, {"noise_sigma": float("nan")},
                                 {"noise_sigma": float("inf")}, {"noise_sigma": -0.01}])
def test_spec_rejects_negative_seed_and_bad_noise(bad):
    with pytest.raises(ConfigError):
        sd.OracleSpec(**bad)


class TestGeneratorShape:
    def test_lengths_and_ranges(self):
        for uid in range(10):
            u = sd.gen_utterance(SPEC, 0, uid)
            assert 5 <= len(u.phonemes) <= 20
            assert u.phonemes.min() >= 0 and u.phonemes.max() < 24
            assert np.all(u.durations >= 1)
            assert u.mel.shape == (int(u.durations.sum()), 16)
            assert u.pitch.shape == (u.mel.shape[0],)
            assert np.isfinite(u.pitch).all()

    def test_duration_scale_varies_by_speaker(self):
        phonemes = np.arange(10) % 24
        durs = {s: sd.speaker_durations(SPEC, s, phonemes) for s in range(6)}
        assert len({tuple(d) for d in durs.values()}) > 1

    def test_render_matches_generated_record(self):
        spec = sd.OracleSpec(seed=3, noise_sigma=0.0)
        u = sd.gen_utterance(spec, 2, 7)
        dur, pitch, mel = sd.render(spec, 2, u.phonemes)
        assert np.array_equal(dur, u.durations)
        assert np.array_equal(pitch, u.pitch)
        assert np.array_equal(mel, u.mel)

    def test_render_rejects_out_of_vocab(self):
        with pytest.raises(ConfigError):
            sd.render(SPEC, 0, [0, 99])


class TestSpeakerSeparation:
    def test_same_text_speakers_differ_beyond_noise(self):
        phonemes = np.array([1, 4, 9, 2, 17, 6, 11, 3])
        durations = np.full(8, 3)
        gaps = []
        for a in range(4):
            for b in range(a + 1, 4):
                _, _, mel_a = sd.render(SPEC, a, phonemes, durations)
                _, _, mel_b = sd.render(SPEC, b, phonemes, durations)
                gaps.append(np.abs(mel_a - mel_b).mean())
        assert min(gaps) > 5 * SPEC.noise_sigma

    def test_intra_speaker_closer_than_inter(self):
        # same text through one speaker twice (different noise draw) vs
        # through two speakers: voice identity dominates the noise floor
        phonemes = np.array([0, 5, 12, 20, 8])
        durations = np.full(5, 4)
        _, _, base = sd.render(SPEC, 0, phonemes, durations)
        rng = np.random.default_rng(0)
        intra = np.abs((base + SPEC.noise_sigma * rng.normal(size=base.shape)) - base).mean()
        _, _, other = sd.render(SPEC, 1, phonemes, durations)
        inter = np.abs(other - base).mean()
        assert inter > intra


def _keys(utts):
    return [(u.speaker_id, u.utterance_id) for u in utts]


class TestSplits:
    def test_80_20_per_speaker(self):
        corpus = sd.gen_corpus(SPEC, 2, 60)
        train = corpus.train_split()
        for s in (0, 1):
            # the first 48 of each speaker's 60 records, in corpus order
            assert _keys(train.of_speaker(s)) == _keys(corpus.of_speaker(s)[:48])
        assert train.spec == corpus.spec

    def test_adaptation_sized_split(self):
        corpus = sd.gen_corpus(SPEC, 1, 125, first_speaker=8)
        assert len(corpus.train_split().utterances) == 100
        assert corpus.train_split().speakers() == [8]

    def test_small_speakers_keep_a_record(self):
        corpus = sd.gen_corpus(SPEC, 1, 2)
        assert _keys(corpus.train_split().utterances) == _keys(corpus.utterances[:1])
        single = sd.gen_corpus(SPEC, 1, 1)
        assert _keys(single.train_split().utterances) == _keys(single.utterances)


class TestStripTranscripts:
    def test_schema_has_no_transcript_fields(self):
        corpus = sd.gen_corpus(SPEC, 2, 3)
        stripped = sd.strip_transcripts(corpus, 1)
        rec = stripped[0]
        for banned in ("phonemes", "durations", "pitch", "transcript_present"):
            assert not hasattr(rec, banned)
        assert set(rec.__dataclass_fields__) == {"speaker_id", "utterance_id", "mel"}

    def test_count_preserved_and_join_recovers(self):
        corpus = sd.gen_corpus(SPEC, 2, 5)
        stripped = sd.strip_transcripts(corpus, 0)
        assert len(stripped) == 5
        by_id = {u.utterance_id: u for u in corpus.of_speaker(0)}
        for rec in stripped:
            assert np.array_equal(rec.mel, by_id[rec.utterance_id].mel)

    def test_unknown_speaker(self):
        with pytest.raises(ConfigError):
            sd.strip_transcripts(sd.gen_corpus(SPEC, 1, 2), 7)


class TestCorpusIo:
    def test_round_trip_byte_identical(self, tmp_path):
        corpus = sd.gen_corpus(SPEC, 2, 4)
        p1, p2 = tmp_path / "a.corpus", tmp_path / "b.corpus"
        sd.save_corpus(SPEC, corpus.utterances, p1)
        loaded = sd.load_corpus(p1)
        sd.save_corpus(loaded.spec, loaded.utterances, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert sd.corpus_hash(loaded) == sd.corpus_hash(corpus)

    def test_mel_only_round_trip(self, tmp_path):
        corpus = sd.gen_corpus(SPEC, 2, 3)
        stripped = sd.strip_transcripts(corpus, 1)
        path = tmp_path / "adapt.corpus"
        sd.save_corpus(SPEC, stripped, path)
        loaded = sd.load_corpus(path)
        assert isinstance(loaded, list)
        assert all(isinstance(r, sd.MelOnlyUtterance) for r in loaded)
        assert np.array_equal(loaded[0].mel, stripped[0].mel)

    def test_mel_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.corpus"
        sd.save_corpus(SPEC, sd.gen_corpus(SPEC, 1, 2).utterances, path)
        with pytest.raises(CheckpointFormatError):
            sd.load_corpus(path, expect_mel_dim=80)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 100)
        with pytest.raises(CheckpointFormatError, match="magic b'NOTMAGIC' does not match"):
            sd.load_corpus(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.corpus"
        sd.save_corpus(SPEC, sd.gen_corpus(SPEC, 1, 2).utterances, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="format version 99, this build reads"):
            sd.load_corpus(path)

    @pytest.mark.parametrize("key, value", [("seed", -1), ("noise_sigma", float("nan"))])
    def test_spec_checks_apply_to_a_loaded_file(self, tmp_path, key, value):
        path = tmp_path / "s.corpus"
        sd.save_corpus(SPEC, sd.gen_corpus(SPEC, 1, 2).utterances, path)
        meta, arrays = binio.read_container(path, sd.CORPUS_MAGIC, sd.CORPUS_VERSION)
        meta["spec"][key] = value
        binio.write_container(path, sd.CORPUS_MAGIC, sd.CORPUS_VERSION, meta, arrays)
        with pytest.raises(CheckpointFormatError, match=f"{key} must be") as e:
            sd.load_corpus(path)
        assert e.value.exit_code == 5

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.corpus"
        sd.save_corpus(SPEC, sd.gen_corpus(SPEC, 1, 2).utterances, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(CheckpointFormatError, match="cut short"):
            sd.load_corpus(path)


def test_cached_oracle_tables_are_read_only():
    # every render reads these shared cache entries; a write would change
    # every later corpus of the spec
    arrays = [*sd._phoneme_tables(SPEC), *sd._speaker_voice(SPEC, 0)[:2],
              sd._pitch_direction(SPEC)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
