"""Reverse-mode gradients of the prior-weighted logit, the BP baselines.

Unlike the probability propagation in :mod:`ebr.eb`, these maps are plain
derivatives: signed, not conserved, and computed from the same cached
forward pass and the same CNN descent with the competition rules switched
off. ``through_time=True`` differentiates through the unrolled temporal
head (BP-R); otherwise every frame is treated as its own one-step clip
(BP). Raw gradients are returned by default; ``absolute`` takes
elementwise magnitudes for callers that only rank locations.
"""

from __future__ import annotations

import numpy as np

from .eb import PriorSpec, _descend
from .forward import ActivationCache, Clip, forward_clip
from .model import ModelManifest


def _grad_head(cache: ActivationCache, prior) -> np.ndarray:
    """Gradient of ``prior.mass @ logits`` w.r.t. every frame's feature.

    The logit is the one at ``prior.step``; frames after it get exact zeros.
    """
    model = cache.model
    g_out = model.weight(model.classifier(), "weight").T @ prior.mass
    g_feat = np.zeros_like(cache.features)
    agg_idx = model.aggregator_index()
    kind = model.layers[agg_idx].kind if agg_idx is not None else None
    if kind == "recurrent-relu":
        agg = model.layers[agg_idx]
        wx = model.weight(agg, "input")
        wh = model.weight(agg, "hidden")
        g_h = g_out
        for t in range(prior.step, -1, -1):
            g_pre = g_h * (cache.states[t + 1] > 0.0)
            g_feat[t] = wx.T @ g_pre
            g_h = wh.T @ g_pre
    elif kind == "temporal-mean-pool":
        g_feat[:] = g_out[None, :] / cache.length
    else:
        # CNN-only chain: the classifier reads frame ``step`` directly
        g_feat[prior.step] = g_out
    return g_feat


def bp_saliency(
    model: ModelManifest,
    clip: Clip,
    prior,
    target_layer: str,
    through_time: bool,
    absolute: bool = False,
):
    """Gradient of ``prior.mass @ logits`` w.r.t. the target layer's output.

    Returns one array per frame. With ``through_time`` the logit is the one
    at ``prior.step`` and gradients flow back through the recurrence (or
    split uniformly through a temporal mean-pool); frames after the prior
    step get exact zeros. Without it, each frame's own one-step logit is
    differentiated, so ``prior.step`` does not select anything.
    """
    cache = forward_clip(model, clip, enforce_length=through_time)
    T = clip.length
    if not 0 <= prior.step < T:
        raise ValueError(f"prior step {prior.step} outside 0..{T - 1}")
    if through_time:
        if model.aggregator_index() is None:
            raise ValueError("BP-R needs a temporal aggregator layer")
        g_feat = _grad_head(cache, prior)
    else:
        one_step = PriorSpec(step=0, mass=prior.mass)
        g_feat = np.concatenate([_grad_head(cache.frame(t), one_step) for t in range(T)])
    maps, _, _ = _descend(cache, g_feat, target_layer, excitation=False)
    if absolute:
        maps = [np.abs(m) for m in maps]
    return maps
