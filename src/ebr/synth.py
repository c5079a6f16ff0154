"""Synthetic two-action clips with known boundaries, plus a hand-built model.

Each class is a bright rectangle (intensity 1 on background 0) parked in
its own cell of a grid, so class evidence has a known location and a known
time extent. The companion model is constructed, not trained: box-matched
conv templates, position-mask fc rows with a noise-rejecting threshold
bias, a decaying identity recurrence, and a classifier with positive
diagonal and negative off-diagonal weights. On noiseless single-class
clips it classifies perfectly by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forward import Clip, conv2d_forward, forward_clip, maxpool_forward, relu, softmax_probs
from .grounding import Segment
from .model import LayerSpec, ModelManifest

LAYOUTS = ("gt-first", "rand-first", "rand-gt-rand")

FC_THRESHOLD = 0.1  # bias subtracted before the feature relu; kills noise responses
CLS_ON = 2.0
CLS_OFF = -1.0


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int
    gt_class: int
    rand_class: int
    layout: str
    gt_length: int
    clip_length: int = 16
    frame_shape: tuple[int, int, int] = (1, 32, 32)
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if not 0 < self.gt_length <= self.clip_length:
            raise ValueError("gt_length must be in 1..clip_length")
        if self.layout == "rand-gt-rand" and self.gt_length > self.clip_length - 2:
            raise ValueError("rand-gt-rand needs at least one rand frame on each side")
        for cls in (self.gt_class, self.rand_class):
            if not 0 <= cls < self.num_classes:
                raise ValueError(f"class {cls} outside 0..{self.num_classes - 1}")
        if self.gt_class == self.rand_class:
            raise ValueError("gt and rand classes must differ")
        if self.noise < 0:
            raise ValueError("noise amplitude must be non-negative")


@dataclass
class SynthClip:
    clip: Clip
    gt: Segment
    gt_class: int
    rand_class: int
    spec: SynthSpec


def _grid(num_classes: int) -> int:
    return math.ceil(math.sqrt(num_classes))


def pattern_rect(frame_shape, num_classes: int, cls: int) -> tuple[int, int, int, int]:
    """Bounding box (x, y, w, h) of class *cls*'s rectangle, in pixels."""
    _, H, W = frame_shape
    g = _grid(num_classes)
    cell_h, cell_w = H // g, W // g
    ci, cj = divmod(cls, g)
    return (
        cj * cell_w + cell_w // 4,
        ci * cell_h + cell_h // 4,
        cell_w // 2,
        cell_h // 2,
    )


def _paint(frame: np.ndarray, frame_shape, num_classes: int, cls: int) -> None:
    x, y, w, h = pattern_rect(frame_shape, num_classes, cls)
    frame[:, y : y + h, x : x + w] = 1.0


def gen_synthetic_clip(spec: SynthSpec) -> SynthClip:
    """Deterministically render the clip described by *spec*.

    The random stream is consumed in a fixed order (segment placement,
    then noise), so identical specs give bitwise-identical clips.
    """
    rng = np.random.default_rng(spec.seed)
    T, L = spec.clip_length, spec.gt_length
    if spec.layout == "gt-first":
        start = 0
    elif spec.layout == "rand-first":
        start = T - L
    else:
        start = int(rng.integers(1, T - L))
    gt = Segment(start, start + L - 1, label=spec.gt_class)
    frames = np.zeros((T, *spec.frame_shape), dtype=np.float64)
    for t in range(T):
        cls = spec.gt_class if gt.start <= t <= gt.end else spec.rand_class
        _paint(frames[t], spec.frame_shape, spec.num_classes, cls)
    if spec.noise > 0:
        frames += rng.uniform(-spec.noise, spec.noise, size=frames.shape)
        np.clip(frames, 0.0, 1.0, out=frames)
    x, y, w, h = pattern_rect(spec.frame_shape, spec.num_classes, spec.gt_class)
    meta = {
        "gt_class": spec.gt_class,
        "rand_class": spec.rand_class,
        "layout": spec.layout,
        "gt_segment": [gt.start, gt.end],
        "bbox": [x, y, w, h],
        "noise": spec.noise,
        "seed": spec.seed,
        "num_classes": spec.num_classes,
    }
    return SynthClip(
        clip=Clip(frames=frames, meta=meta),
        gt=gt,
        gt_class=spec.gt_class,
        rand_class=spec.rand_class,
        spec=spec,
    )


def build_toy_model(
    num_classes: int,
    frame_shape: tuple[int, int, int] = (1, 32, 32),
    clip_length: int = 16,
    decay: float = 0.5,
) -> ModelManifest:
    """Construct the detector chain matched to :func:`gen_synthetic_clip`.

    conv templates slide a box matched to the class rectangles (positive
    over the rectangle extent, slightly negative on a trailing border);
    the fc layer reads each class's response at its grid position and
    clamps sub-threshold noise; the recurrent unit accumulates per-class
    evidence with the given decay; the classifier scores each class
    against the sum of the others. The patterns share one rectangle
    shape, so the per-class conv templates coincide; class identity is
    carried by the fc position masks.
    """
    C, H, W = frame_shape
    if C != 1:
        raise ValueError("toy model expects single-channel frames")
    K = num_classes
    g = _grid(K)
    if H % g or W % g:
        raise ValueError(f"frame {H}x{W} not divisible into a {g}x{g} grid")
    cell_h, cell_w = H // g, W // g
    if cell_h % 4 or cell_w % 4:
        raise ValueError(f"grid cells {cell_h}x{cell_w} must be divisible by 4")
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    rect_h, rect_w = cell_h // 2, cell_w // 2
    stride = (cell_h // 4, cell_w // 4)
    border_h, border_w = stride[0] // 2, stride[1] // 2
    kh, kw = rect_h + border_h, rect_w + border_w

    conv_w = np.zeros((K, 1, kh, kw), dtype=np.float64)
    pos = 1.0 / (rect_h * rect_w)
    neg_area = kh * kw - rect_h * rect_w
    neg = -0.25 / neg_area if neg_area else 0.0
    conv_w[:] = neg
    conv_w[:, :, :rect_h, :rect_w] = pos

    conv_out_h = (H - kh) // stride[0] + 1
    conv_out_w = (W - kw) // stride[1] + 1
    pool_h, pool_w = (conv_out_h - 2) // 2 + 1, (conv_out_w - 2) // 2 + 1

    # fc rows: probe each class's response at its own grid position, scaled
    # so the canonical noiseless pattern reads exactly 1.0
    fc_w = np.zeros((K, K * pool_h * pool_w), dtype=np.float64)
    for k in range(K):
        frame = np.zeros(frame_shape, dtype=np.float64)
        _paint(frame, frame_shape, K, k)
        resp = relu(conv2d_forward(frame, conv_w, None, stride, (0, 0)))
        pooled, _, _ = maxpool_forward(resp, (2, 2), (2, 2))
        ci, cj = divmod(k, g)
        py, px = 2 * ci, 2 * cj
        peak = pooled[k, py, px]
        if peak <= 0.5:
            raise AssertionError(
                f"template response for class {k} is {peak:.3f}; geometry is off"
            )
        fc_w[k, (k * pool_h + py) * pool_w + px] = 1.0 / peak
    fc_b = np.full(K, -FC_THRESHOLD, dtype=np.float64)

    eye = np.eye(K, dtype=np.float64)
    tensors = {
        "conv1_w": conv_w,
        "fc1_w": fc_w,
        "fc1_b": fc_b,
        "rnn1_wx": eye.copy(),
        "rnn1_wh": decay * eye,
        "cls_w": (CLS_ON - CLS_OFF) * eye + CLS_OFF,
    }
    layers = [
        LayerSpec(
            kind="conv2d", name="conv1", in_channels=1, out_channels=K,
            kernel=(kh, kw), stride=stride, padding=(0, 0),
            weights={"weight": "conv1_w"},
        ),
        LayerSpec(kind="relu", name="relu1"),
        LayerSpec(kind="maxpool2d", name="pool1", window=(2, 2), stride=(2, 2)),
        LayerSpec(kind="flatten", name="flat1"),
        LayerSpec(
            kind="fully-connected", name="fc1",
            in_dim=K * pool_h * pool_w, out_dim=K,
            weights={"weight": "fc1_w", "bias": "fc1_b"},
        ),
        LayerSpec(kind="relu", name="relu2"),
        LayerSpec(
            kind="recurrent-relu", name="rnn1", in_dim=K, out_dim=K,
            weights={"input": "rnn1_wx", "hidden": "rnn1_wh"},
        ),
        LayerSpec(
            kind="classifier", name="cls", in_dim=K, out_dim=K,
            weights={"weight": "cls_w"},
        ),
    ]
    return ModelManifest(
        layers=layers,
        input_shape=frame_shape,
        clip_length=clip_length,
        labels=[f"class_{k}" for k in range(K)],
        tensors=tensors,
    )


def probability_baseline(model: ModelManifest, clip: Clip, gt_class: int) -> np.ndarray:
    """Per-step scores: +1 where the gt class probability reaches 0.5, else -1."""
    return np.where(gt_class_probabilities(model, clip, gt_class) >= 0.5, 1.0, -1.0)


def gt_class_probabilities(model: ModelManifest, clip: Clip, gt_class: int) -> np.ndarray:
    """Per-step softmax probability of the gt class (peak-probability pointing)."""
    cache = forward_clip(model, clip)
    if cache.logits.shape[0] != clip.length:
        raise ValueError("peak-probability pointing needs per-step logits")
    return np.array(
        [softmax_probs(cache.logits[t])[gt_class] for t in range(clip.length)]
    )


def dataset_specs(
    num_clips: int,
    num_classes: int,
    layout: str,
    clip_length: int,
    gt_length: int,
    noise: float,
    seed: int,
    frame_shape: tuple[int, int, int] = (1, 32, 32),
) -> list[SynthSpec]:
    """Per-clip specs for a benchmark run.

    ``layout`` may also be ``"mixed"``, alternating gt-first and
    rand-first. Ground-truth classes cycle through the label set; the
    background class is drawn (distinct from gt) from a stream seeded by
    *seed*, and clip i reproduces alone from ``seed + i``.
    """
    if layout != "mixed" and layout not in LAYOUTS:
        raise ValueError(f"layout must be 'mixed' or one of {LAYOUTS}")
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(num_clips):
        gt_class = i % num_classes
        rand_class = int(rng.integers(0, num_classes - 1))
        if rand_class >= gt_class:
            rand_class += 1
        lay = layout if layout != "mixed" else ("gt-first" if i % 2 == 0 else "rand-first")
        specs.append(
            SynthSpec(
                num_classes=num_classes,
                gt_class=gt_class,
                rand_class=rand_class,
                layout=lay,
                gt_length=gt_length,
                clip_length=clip_length,
                frame_shape=frame_shape,
                noise=noise,
                seed=seed + i,
            )
        )
    return specs
