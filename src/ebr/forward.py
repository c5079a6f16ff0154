"""Deterministic forward pass over a clip, caching what the backward needs.

All kernels run in float64 with a fixed reduction order, so repeated runs
on the same input produce bitwise-identical caches. Maxpool records the
winning input coordinate of every window (ties broken by the first index
in row-major order) because the backward passes route mass and gradients
to that exact cell.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .model import AGGREGATOR_KINDS, LayerSpec, ModelManifest, ManifestError
from .tensorfile import load_tensor, save_tensor


@dataclass
class Clip:
    """A [T, C, H, W] stack of frames with values in [0, 1]."""

    frames: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 4:
            raise ValueError(f"clip must be [T, C, H, W], got shape {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("clip contains non-finite values")
        if self.frames.min() < 0.0 or self.frames.max() > 1.0:
            raise ValueError("clip values must lie in [0, 1]")

    @property
    def length(self) -> int:
        return self.frames.shape[0]


def save_clip(clip: Clip, path) -> None:
    """Write frames as .ebt plus a .json sidecar holding the metadata."""
    save_tensor(clip.frames, path)
    sidecar = os.fspath(path) + ".json"
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump(clip.meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_clip(path) -> Clip:
    frames = load_tensor(path)
    sidecar = os.fspath(path) + ".json"
    meta = {}
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as f:
            meta = json.load(f)
    return Clip(frames=frames, meta=meta)


# ---------------------------------------------------------------------------
# kernels


def _phase_blocks(C, H, W, kernel, stride, padding):
    """Zero padded-input buffer for :func:`im2col` and :func:`col2im`, cut
    into stride-sized kernel blocks.

    Tap ``ky = by * sy + ry`` reads padded row ``(i + by) * sy + ry`` for
    output row i, so with the buffer viewed as ``[C, Hb, sy, Wb, sx]`` block
    ``(by, bx)`` is the one slice ``[:, by:by+oh, :, bx:bx+ow, :]``, shaped
    ``[C, oh, ry, ow, rx]``. ``(oh + qy) * sy`` rows always cover the padded
    input. Returns ``(buf, (oh, ow), blocks)`` with ``blocks`` a row-major
    list of ``(view, ky_slice, kx_slice)``.
    """
    kh, kw = kernel
    sy, sx = stride
    py, px = padding
    oh = (H + 2 * py - kh) // sy + 1
    ow = (W + 2 * px - kw) // sx + 1
    qy, qx = -(-kh // sy), -(-kw // sx)
    buf = np.zeros((C, (oh + qy) * sy, (ow + qx) * sx), dtype=np.float64)
    grid = buf.reshape(C, oh + qy, sy, ow + qx, sx)
    blocks = []
    for by in range(qy):
        ys = slice(by * sy, min(kh, by * sy + sy))
        for bx in range(qx):
            xs = slice(bx * sx, min(kw, bx * sx + sx))
            view = grid[:, by : by + oh, : ys.stop - ys.start, bx : bx + ow, : xs.stop - xs.start]
            blocks.append((view, ys, xs))
    return buf, (oh, ow), blocks


def im2col(x: np.ndarray, kernel, stride, padding) -> tuple[np.ndarray, tuple[int, int]]:
    """Unroll [C, H, W] into a [C*kh*kw, oh*ow] patch matrix (zero padding).

    One copy per stride-sized kernel block: ceil(kh/sy) * ceil(kw/sx) slice
    operations instead of kh * kw.
    """
    kh, kw = kernel
    py, px = padding
    C, H, W = x.shape
    buf, (oh, ow), blocks = _phase_blocks(C, H, W, kernel, stride, padding)
    buf[:, py : py + H, px : px + W] = x
    col = np.empty((C, kh, kw, oh, ow), dtype=np.float64)
    for view, ys, xs in blocks:
        col[:, ys, xs] = view.transpose(0, 2, 4, 1, 3)
    return col.reshape(C * kh * kw, oh * ow), (oh, ow)


def col2im(
    col: np.ndarray,
    x_shape: tuple[int, int, int],
    kernel,
    stride,
    padding,
    out_hw: tuple[int, int],
) -> np.ndarray:
    """Scatter-add a patch matrix back onto the (unpadded) input grid.

    One shifted add per stride-sized kernel block. Within a block every
    input cell receives at most one tap, and the blocks go in row-major
    order, so each cell sums its taps in (ky, kx) row-major order.
    """
    kh, kw = kernel
    py, px = padding
    C, H, W = x_shape
    acc, _, blocks = _phase_blocks(C, H, W, kernel, stride, padding)
    col = col.reshape(C, kh, kw, *out_hw)
    for view, ys, xs in blocks:
        view += col[:, ys, xs].transpose(0, 3, 1, 4, 2)
    return acc[:, py : py + H, px : px + W]


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride, padding) -> np.ndarray:
    """Direct convolution (cross-correlation) of [C, H, W] with [OC, C, kh, kw]."""
    oc = w.shape[0]
    col, (oh, ow) = im2col(x, w.shape[2:], stride, padding)
    out = w.reshape(oc, -1) @ col
    if b is not None:
        out += b[:, None]
    return out.reshape(oc, oh, ow)


def _conv2d_backward(g: np.ndarray, w: np.ndarray, x_shape, stride, padding) -> np.ndarray:
    """Vector-Jacobian product of :func:`conv2d_forward` w.r.t. its input:
    the [OC, OH, OW] signal ``g`` carried back onto the [C, H, W] grid.

    Private, so that a trace of the public functions books its ``col2im``
    under the rule that called it (``eb_conv_backward`` or BP's descent).
    """
    oc = w.shape[0]
    col = w.reshape(oc, -1).T @ g.reshape(oc, -1)
    return col2im(col, x_shape, w.shape[2:], stride, padding, g.shape[1:])


def maxpool_forward(x: np.ndarray, window, stride) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maxpool [C, H, W]; also returns the winner's input row/col per window."""
    wh, ww = window
    sy, sx = stride
    C, H, W = x.shape
    oh = (H - wh) // sy + 1
    ow = (W - ww) // sx + 1
    patches = np.empty((C, wh * ww, oh, ow), dtype=np.float64)
    for ky in range(wh):
        for kx in range(ww):
            patches[:, ky * ww + kx] = x[:, ky : ky + sy * oh : sy, kx : kx + sx * ow : sx]
    k = patches.argmax(axis=1)  # first max wins, i.e. row-major within the window
    out = np.take_along_axis(patches, k[:, None], axis=1)[:, 0]
    oy = np.arange(oh)[:, None] * sy
    ox = np.arange(ow)[None, :] * sx
    rows = oy[None] + k // ww
    cols = ox[None] + k % ww
    return out, rows, cols


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    out = w @ x
    if b is not None:
        out = out + b
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-d logit vector."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError(f"softmax_probs expects a 1-d vector, got shape {logits.shape}")
    z = np.exp(logits - logits.max())
    return z / z.sum()


# ---------------------------------------------------------------------------
# whole-model forward


@dataclass
class ActivationCache:
    """Everything the backward passes read: per-frame layer outputs,
    maxpool winner coordinates, recurrent states and per-step logits."""

    model: ModelManifest
    clip_frames: np.ndarray  # [T, C, H, W]
    per_frame: list[dict[str, np.ndarray]]  # t -> layer name -> output
    pool_winners: list[dict[str, tuple[np.ndarray, np.ndarray]]]  # t -> name -> (rows, cols)
    features: np.ndarray  # [T, D] CNN-stack outputs feeding the head
    states: np.ndarray | None = None  # [T+1, D] recurrent states, h_0 first
    pooled: np.ndarray | None = None  # [D] temporal mean-pool output
    logits: np.ndarray | None = None  # [T, K] per step, or [1, K] after mean-pool

    @property
    def length(self) -> int:
        return self.clip_frames.shape[0]

    def frame(self, t: int) -> "ActivationCache":
        """Frame t as a one-frame clip: the CNN activations are shared and
        only the temporal head runs again, from ``h_0 = 0``."""
        one = ActivationCache(
            model=self.model,
            clip_frames=self.clip_frames[t : t + 1],
            per_frame=self.per_frame[t : t + 1],
            pool_winners=self.pool_winners[t : t + 1],
            features=self.features[t : t + 1],
        )
        _forward_head(one)
        return one


def forward_frame(model: ModelManifest, frame: np.ndarray):
    """Run one frame through the frame-level CNN stack.

    Returns ``(feature, activations, pool_winners)`` where *feature* is the
    output of the last layer before the temporal aggregator / classifier.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != model.input_shape:
        raise ManifestError(
            f"frame shape {frame.shape} does not match model input {model.input_shape}"
        )
    acts: dict[str, np.ndarray] = {}
    winners: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    x = frame
    for spec in model.cnn_stack():
        if spec.kind == "conv2d":
            x = conv2d_forward(x, model.weight(spec, "weight"), model.bias(spec), spec.stride, spec.padding)
        elif spec.kind == "relu":
            x = relu(x)
        elif spec.kind == "maxpool2d":
            x, rows, cols = maxpool_forward(x, spec.window, spec.stride)
            winners[spec.name] = (rows, cols)
        elif spec.kind == "flatten":
            x = x.reshape(-1)
        elif spec.kind == "fully-connected":
            x = fc_forward(x, model.weight(spec, "weight"), model.bias(spec))
        else:
            raise ManifestError(f"layer {spec.name!r} ({spec.kind}) inside the CNN stack")
        acts[spec.name] = x
    return x, acts, winners


def forward_clip(model: ModelManifest, clip: Clip, enforce_length: bool = True) -> ActivationCache:
    """Forward a whole clip, returning the complete activation cache.

    Recurrent models scan ``h_t = relu(Wx x_t + Wh h_{t-1} + b)`` from
    ``h_0 = 0`` and evaluate the classifier at every step. Mean-pool models
    average the frame features and evaluate the classifier once. CNN-only
    chains apply the classifier per frame. ``enforce_length=False`` admits
    clips shorter or longer than the manifest's nominal length (used by the
    frame-independent saliency modes).
    """
    if enforce_length and clip.length != model.clip_length:
        raise ManifestError(
            f"clip has {clip.length} frames, model expects {model.clip_length}"
        )
    T = clip.length
    per_frame = []
    pool_winners = []
    feats = []
    for t in range(T):
        f, acts, winners = forward_frame(model, clip.frames[t])
        feats.append(f.reshape(-1))
        per_frame.append(acts)
        pool_winners.append(winners)
    features = np.stack(feats)
    cache = ActivationCache(
        model=model,
        clip_frames=clip.frames,
        per_frame=per_frame,
        pool_winners=pool_winners,
        features=features,
    )
    _forward_head(cache)
    return cache


def _forward_head(cache: ActivationCache) -> None:
    """Run the temporal head and classifier over ``cache.features``."""
    model = cache.model
    features = cache.features
    T = cache.length
    cls = model.classifier()
    w_cls = model.weight(cls, "weight")
    b_cls = model.bias(cls)
    agg_idx = model.aggregator_index()
    agg = model.layers[agg_idx] if agg_idx is not None else None
    if agg is not None and agg.kind == "recurrent-relu":
        wx = model.weight(agg, "input")
        wh = model.weight(agg, "hidden")
        b = model.bias(agg)
        D = agg.out_dim
        states = np.zeros((T + 1, D), dtype=np.float64)
        logits = np.zeros((T, cls.out_dim), dtype=np.float64)
        h = states[0]
        for t in range(T):
            pre = wx @ features[t] + wh @ h
            if b is not None:
                pre = pre + b
            h = relu(pre)
            states[t + 1] = h
            logits[t] = fc_forward(h, w_cls, b_cls)
        cache.states = states
        cache.logits = logits
    elif agg is not None and agg.kind == "temporal-mean-pool":
        pooled = features.mean(axis=0)
        cache.pooled = pooled
        cache.logits = fc_forward(pooled, w_cls, b_cls)[None, :]
    else:
        cache.logits = np.stack([fc_forward(features[t], w_cls, b_cls) for t in range(T)])
