"""Mel-spectrogram encoder and its latent alignment to the phoneme pathway.

The encoder output substitutes for the expanded phoneme hidden sequence at
the decoder boundary, so a model adapted from mel input alone reuses the
whole decoder-side input construction of the transcript path. Align and joint
training compute one latent per record and build both of their losses from
it: the alignment loss holds it to the phoneme side, and `decoder_inputs`
turns it into the decoder input of the reconstruction loss.
"""

from . import autodiff as ad
from . import model as m
from .autodiff import Tensor
from .errors import ShapeError


def mel_encoder_forward(model, mel) -> Tensor:
    """Map mel frames to the hidden space: input linear, then FFT blocks."""
    if mel.shape[1] != model.config.mel_dim:
        raise ShapeError(f"mel dim {mel.shape[1]} != config {model.config.mel_dim}")
    p = model.params
    h = ad.add(ad.matmul(mel, p["melenc.in.w"]), p["melenc.in.b"])
    h = ad.add(h, Tensor(m.positional_encoding(mel.shape[0], model.config.hidden_dim)))
    for i in range(model.config.n_mel_encoder_blocks):
        h = m.fft_block(h, model, f"melenc.{i}")
    return h


def alignment_loss(mel_hidden, phoneme_hidden_expanded):
    """Mean squared gap between the two latent sequences.

    The phoneme side is always treated as a constant target: gradients reach
    the mel side only, matching the stage where the phoneme encoder is frozen.
    """
    if mel_hidden.shape != phoneme_hidden_expanded.shape:
        raise ShapeError(
            f"latent shapes differ: {mel_hidden.shape} vs {phoneme_hidden_expanded.shape}"
        )
    target = Tensor(phoneme_hidden_expanded.data)  # detached view
    return ad.masked_mse(mel_hidden, target)


def decoder_inputs(model, h_mel, mel_in) -> Tensor:
    """Decoder input from the mel-encoder latent `h_mel` of `mel_in`.

    Pitch comes from the frozen pitch predictor on the latent and the
    acoustic conditions from the acoustic extractor on `mel_in` itself.
    Align and joint training pass the latent their alignment loss holds, so
    one mel-encoder pass per record serves both losses.
    """
    x = m.pitch_pathway(model, h_mel, m.pitch_predictor(model, h_mel))
    acoustic = m.acoustic_extract(model, mel_in)
    utt_vec = ad.matmul(m._mean_rows_matrix(mel_in.shape[0]), acoustic)
    return m.acoustic_additions(model, x, acoustic, utt_vec)


def reconstruction_inputs(model, mel_in) -> Tensor:
    """Decoder input built from mel alone: no phoneme or duration input exists."""
    return decoder_inputs(model, mel_encoder_forward(model, mel_in), mel_in)
