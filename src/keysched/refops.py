"""Reference numeric kernels for the conditioning math.

Single-head scaled dot-product attention, the gated tri-modal feature
fusion that sums text, audio, and image attention, and the telescoping
multimodal classifier-free-guidance combination. All kernels take explicit
weight matrices; nothing here stores parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeMismatchError, as_feature_matrix, as_floats

DEFAULT_IMAGE_SCALE = 2.0
DEFAULT_TEXT_SCALE = 1.0
DEFAULT_AUDIO_SCALE = 7.5


@dataclass
class GuidanceScales:
    """Per-modality guidance strengths for the CFG combination."""

    image: float = DEFAULT_IMAGE_SCALE
    text: float = DEFAULT_TEXT_SCALE
    audio: float = DEFAULT_AUDIO_SCALE

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, float(as_floats(getattr(self, f.name), f.name)))


@dataclass
class FusionWeights:
    """Gates on the audio and image attention terms."""

    audio: float = 1.0
    image: float = 1.0

    __post_init__ = GuidanceScales.__post_init__


def attention_weights(q, k) -> np.ndarray:
    """Row-stochastic softmax of q k^T / sqrt(d), max-subtracted per row."""
    qm = as_feature_matrix(q, "q")
    km = as_feature_matrix(k, "k")
    if qm.shape[1] != km.shape[1]:
        raise ShapeMismatchError(f"q cols {qm.shape[1]} != k cols {km.shape[1]}")
    logits = qm @ km.T / np.sqrt(qm.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def attention(q, k, v) -> np.ndarray:
    """Scaled dot-product attention; output rows mix the rows of v."""
    weights = attention_weights(q, k)
    vm = as_feature_matrix(v, "v")
    if weights.shape[1] != vm.shape[0]:
        raise ShapeMismatchError(f"k rows {weights.shape[1]} != v rows {vm.shape[0]}")
    return weights @ vm


def fuse_features(f_in, w_q, text_kv, audio_kv, image_kv,
                  weights: FusionWeights | None = None) -> np.ndarray:
    """Text attention plus gated audio and image attention on a shared query.

    Queries are f_in @ w_q; each modality supplies a (key, value) pair. The
    audio and image terms are scaled by their fusion gates before summing.
    """
    weights = weights or FusionWeights()
    fin = as_feature_matrix(f_in, "f_in")
    wq = as_feature_matrix(w_q, "w_q")
    if fin.shape[1] != wq.shape[0]:
        raise ShapeMismatchError(f"f_in cols {fin.shape[1]} != w_q rows {wq.shape[0]}")
    q = fin @ wq
    text = attention(q, *text_kv)
    audio = attention(q, *audio_kv)
    image = attention(q, *image_kv)
    return text + weights.audio * audio + weights.image * image


def cfg_combine(e_none, e_img, e_img_txt, e_full,
                scales: GuidanceScales | None = None) -> np.ndarray:
    """Telescoping guidance over nested conditioning tiers.

    Starts from the unconditional estimate and adds each tier's delta scaled
    by its guidance strength, so unit scales reproduce the fully conditioned
    estimate and zero scales the unconditional one.
    """
    scales = scales or GuidanceScales()
    tiers = [as_feature_matrix(e, n) for e, n in
             ((e_none, "e_none"), (e_img, "e_img"),
              (e_img_txt, "e_img_txt"), (e_full, "e_full"))]
    shape = tiers[0].shape
    if any(t.shape != shape for t in tiers):
        raise ShapeMismatchError("all four estimates must share one shape")
    none_, img, img_txt, full = tiers
    return (
        none_
        + scales.image * (img - none_)
        + scales.text * (img_txt - img)
        + scales.audio * (full - img_txt)
    )
