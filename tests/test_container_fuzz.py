"""Property tests of the file contract: a damaged checkpoint or corpus
container is either still a valid file or a `CheckpointFormatError` (exit
code 5), never any other exception."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meladapt import checkpoint as cp
from meladapt import model as m
from meladapt import synthdata as sd
from meladapt.errors import CheckpointFormatError
from tests.test_model import TINY

LOADERS = {"checkpoint": cp.load_checkpoint, "corpus": sd.load_corpus,
           "mel_only_corpus": sd.load_corpus}
FUZZ = settings(max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """{kind: (bytes of a valid container, path to write damaged copies to)}."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = sd.OracleSpec(seed=3, phoneme_vocab_size=TINY.phoneme_vocab_size,
                         mel_dim=TINY.mel_dim)
    corpus = sd.gen_corpus(spec, 2, 2)
    paths = {kind: root / f"valid.{kind}" for kind in LOADERS}
    model = m.TtsModel(TINY, m.init_params(TINY, 1))
    cp.save_checkpoint(cp.Checkpoint.from_model(model, provenance={"stage": "source_training"}),
                       paths["checkpoint"])
    sd.save_corpus(spec, corpus.utterances, paths["corpus"])
    sd.save_corpus(spec, sd.strip_transcripts(corpus, 1), paths["mel_only_corpus"])
    out = {}
    for kind, path in paths.items():
        blob = path.read_bytes()
        LOADERS[kind](path)  # the unmutated file loads
        out[kind] = (blob, root / f"mutant.{kind}")
    return out


def _header_end(blob):
    (hlen,) = struct.unpack("<Q", blob[12:20])
    return 20 + hlen


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_truncation_at_any_offset_is_a_format_error(valid, kind, data):
    blob, path = valid[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointFormatError):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_changed_header_byte_loads_or_is_a_format_error(valid, kind, data):
    blob, path = valid[kind]
    at = data.draw(st.integers(0, _header_end(blob) - 1), label="at")
    flip = data.draw(st.sampled_from([1 << bit for bit in range(8)]), label="flip")
    mutant = bytearray(blob)
    mutant[at] ^= flip
    path.write_bytes(bytes(mutant))
    try:
        LOADERS[kind](path)
    except CheckpointFormatError:
        pass
