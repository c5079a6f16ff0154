"""Winner-take-all probability propagation through recurrent video models.

The backward pass treats every linear connection as a competition: a
parent unit hands its winning probability down to the children whose
weight is non-negative, in proportion to ``activation * weight``. Summing
over parents gives each child's winning probability, and a single sweep
from the classifier to any chosen layer yields a saliency map per frame.

Six modes are exposed through :func:`run_saliency`:

    EB      per-frame excitation backprop, frames treated independently
    cEB     EB minus the dual map obtained with a negated classifier
    EB-R    excitation backprop through the unrolled temporal head,
            normalized jointly over space and time
    cEB-R   contrastive variant of EB-R, subtracted at the feature level
    BP      plain per-frame gradient of the prior-weighted logit
    BP-R    the same gradient taken through the temporal unrolling

Every mode forwards the clip once, and all six share one CNN descent: EB
and BP differ only at conv2d and fully-connected layers, where EB takes
the competition rule ``x * W+^T (m / W+ x)`` and BP the plain gradient.

Parents whose excitatory children are all zero drop their mass; the drop
is reported per stage in ``SaliencySequence.leaked`` so conservation can
be audited (delivered mass plus leaked mass accounts for the full prior).
Bias terms never join a competition, so they never receive mass.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .forward import ActivationCache, Clip, _conv2d_backward, forward_clip, im2col
from .model import ModelManifest, NonNegativityError, validate_eb_assumptions
from .tensorfile import load_tensor, save_tensor

MODES = ("EB", "cEB", "EB-R", "cEB-R", "BP", "BP-R")


class AllZeroMassError(ValueError):
    """Raised when a mass field that should be normalized is identically zero."""


class SidecarMismatchError(Exception):
    """A saliency .ebt has no .json sidecar, or one written for other maps."""


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Top-down signal: a distribution over output units injected at one step.

    ``step`` is a 0-based time index. Mean-pool models have a single
    classifier evaluation; the step is validated but does not select
    anything there.
    """

    step: int
    mass: np.ndarray
    unit: int | None = None

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 1:
            raise ValueError("prior mass must be a 1-d distribution over output units")
        if not np.all(np.isfinite(mass)):
            raise ValueError("prior mass must be finite")
        if mass.min() < 0.0 or abs(mass.sum() - 1.0) > 1e-9:
            raise ValueError("prior mass must be non-negative and sum to 1")
        object.__setattr__(self, "mass", mass)

    @classmethod
    def one_hot(cls, num_units: int, unit: int, step: int) -> "PriorSpec":
        if not 0 <= unit < num_units:
            raise ValueError(f"unit {unit} outside 0..{num_units - 1}")
        mass = np.zeros(num_units, dtype=np.float64)
        mass[unit] = 1.0
        return cls(step=step, mass=mass, unit=unit)


# ---------------------------------------------------------------------------
# per-layer backward rules


def eb_linear_backward(
    child_acts: np.ndarray,
    weights: np.ndarray,
    parent_mass: np.ndarray,
    negate: bool = False,
):
    """Distribute parent mass over the children of a dense layer.

    ``weights[j, i]`` connects child i to parent j. Each parent j splits
    its mass over children with ``weights[j, i] >= 0`` in proportion to
    ``child_acts[i] * weights[j, i]``; a parent whose excitatory children
    sum to zero drops its mass. Returns ``(child_mass, leaked)``. Parent
    mass may be signed (a contrastive map propagates through the same
    conditional probabilities), child activations may not.
    """
    child_acts = np.asarray(child_acts, dtype=np.float64).reshape(-1)
    parent_mass = np.asarray(parent_mass, dtype=np.float64).reshape(-1)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (parent_mass.size, child_acts.size):
        raise ValueError(
            f"weights {w.shape} incompatible with {parent_mass.size} parents "
            f"and {child_acts.size} children"
        )
    if child_acts.min() < 0.0:
        raise ValueError("child activations must be non-negative")
    if negate:
        w = -w
    contrib = np.where(w >= 0.0, w, 0.0) * child_acts[None, :]
    z = contrib.sum(axis=1)
    live = z > 0.0
    ratio = np.zeros_like(parent_mass)
    ratio[live] = parent_mass[live] / z[live]
    child_mass = ratio @ contrib
    leaked = float(parent_mass[~live].sum())
    return child_mass, leaked


def eb_conv_backward(
    child_acts: np.ndarray,
    weight: np.ndarray,
    stride,
    padding,
    parent_mass: np.ndarray,
):
    """The dense rule applied per receptive field of a convolution.

    ``child_acts`` is the layer input [C, H, W], ``weight`` the kernel
    bank [OC, C, kh, kw], ``parent_mass`` the mass on the layer output
    [OC, OH, OW]. Children shared by several windows accumulate their
    shares; mass never lands on zero padding because padded activations
    contribute nothing to any competition.
    """
    if child_acts.min() < 0.0:
        raise ValueError("child activations must be non-negative")
    oc = weight.shape[0]
    col, out_hw = im2col(child_acts, weight.shape[2:], stride, padding)
    if parent_mass.shape != (oc, *out_hw):
        raise ValueError(f"parent mass {parent_mass.shape} != {(oc, *out_hw)}")
    w_pos = np.where(weight >= 0.0, weight, 0.0)
    z = (w_pos.reshape(oc, -1) @ col).reshape(parent_mass.shape)
    live = z > 0.0
    ratio = np.where(live, parent_mass, 0.0)
    np.divide(ratio, z, out=ratio, where=live)
    leaked = float(parent_mass[~live].sum())
    # x * W+^T (m / W+ x): the input VJP of the non-negative kernel, rescaled
    child_mass = child_acts * _conv2d_backward(ratio, w_pos, child_acts.shape, stride, padding)
    return child_mass, leaked


def eb_pool_backward(rows: np.ndarray, cols: np.ndarray, child_shape, parent_mass: np.ndarray):
    """Each pooled output routes its whole signal to the recorded winner cell.

    This is the maxpool VJP, so EB mass and BP gradients share it.
    """
    out = np.zeros(child_shape, dtype=np.float64)
    c_idx = np.broadcast_to(np.arange(child_shape[0])[:, None, None], rows.shape)
    np.add.at(out, (c_idx, rows, cols), parent_mass)
    return out


def eb_meanpool_temporal_backward(frame_feats: np.ndarray, parent_mass: np.ndarray):
    """Split pooled-feature mass over the frames that produced it.

    The pooling weights are uniform and cancel, so feature i's mass is
    divided over time in proportion to each frame's activation. Features
    that were zero at every frame leak their mass.
    """
    frame_feats = np.asarray(frame_feats, dtype=np.float64)
    parent_mass = np.asarray(parent_mass, dtype=np.float64).reshape(-1)
    if frame_feats.ndim != 2 or frame_feats.shape[1] != parent_mass.size:
        raise ValueError(
            f"frame features {frame_feats.shape} incompatible with mass of {parent_mass.size}"
        )
    if frame_feats.min() < 0.0:
        raise ValueError("frame features must be non-negative")
    totals = frame_feats.sum(axis=0)
    live = totals > 0.0
    ratio = np.zeros_like(parent_mass)
    ratio[live] = parent_mass[live] / totals[live]
    leaked = float(parent_mass[~live].sum())
    return frame_feats * ratio[None, :], leaked


def eb_recurrent_backward(
    cache: ActivationCache,
    prior: PriorSpec,
    negate_classifier: bool = False,
):
    """Propagate the prior through the classifier and back through time.

    The prior lands on the classifier outputs at ``prior.step`` and is
    distributed onto the recurrent state there (classifier weights are
    negated when computing the dual branch). At each step the state's
    mass splits over the concatenated children ``[x_t ; h_{t-1}]`` using
    ``[Wx ; Wh]``; the input share becomes frame t's feature-level mass
    and the state share recurses. Whatever would continue past the first
    step is counted as leaked. Returns ``(frame_masses[T, D], leaked)``.
    """
    model = cache.model
    agg = model.layers[model.aggregator_index()]
    if agg.kind != "recurrent-relu":
        raise ValueError("eb_recurrent_backward needs a recurrent-relu aggregator")
    T = cache.length
    n = prior.step
    if not 0 <= n < T:
        raise ValueError(f"prior step {n} outside 0..{T - 1}")
    cls = model.classifier()
    w_cls = model.weight(cls, "weight")
    wx = model.weight(agg, "input")
    wh = model.weight(agg, "hidden")
    d_in = agg.in_dim
    w_cat = np.hstack([wx, wh])
    state_mass, leaked = eb_linear_backward(
        cache.states[n + 1], w_cls, prior.mass, negate=negate_classifier
    )
    frame_masses = np.zeros((T, d_in), dtype=np.float64)
    for t in range(n, -1, -1):
        children = np.concatenate([cache.features[t], cache.states[t]])
        child_mass, lk = eb_linear_backward(children, w_cat, state_mass)
        leaked += lk
        frame_masses[t] = child_mass[:d_in]
        carry = child_mass[d_in:]
        if t == 0:
            leaked += float(carry.sum())
        else:
            state_mass = carry
    return frame_masses, leaked


# ---------------------------------------------------------------------------
# normalization and combination


def temporal_normalize(masses: np.ndarray) -> np.ndarray:
    """Rescale per-frame masses so they sum to 1 jointly over space and time."""
    masses = np.asarray(masses, dtype=np.float64)
    if masses.min() < 0.0:
        raise ValueError("temporal_normalize expects non-negative masses")
    total = masses.sum()
    if total <= 0.0:
        raise AllZeroMassError("cannot normalize an all-zero mass field")
    return masses / total


def contrastive_combine(pos: np.ndarray, dual: np.ndarray) -> np.ndarray:
    """Subtract the dual branch from the positive one (each normalized to 1)."""
    pos = np.asarray(pos, dtype=np.float64)
    dual = np.asarray(dual, dtype=np.float64)
    if pos.shape != dual.shape:
        raise ValueError(f"branch shapes differ: {pos.shape} vs {dual.shape}")
    for name, branch in (("positive", pos), ("dual", dual)):
        if abs(branch.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} branch is not normalized (sum={branch.sum()!r})")
    return pos - dual


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class SaliencySequence:
    """Per-frame saliency maps at one layer, plus propagation diagnostics.

    ``maps[t]`` has the target layer's output shape (3-d for conv-side
    layers, 1-d for vector layers). For every EB mode ``layer_records``
    lists, from the feature level downward, ``(layer, delivered_mass,
    leaked_above)`` summed over frames, so that conservation can be checked
    at every depth; the BP modes leave it ``None``.
    """

    mode: str
    layer: str
    maps: list[np.ndarray]
    prior_step: int
    prior_mass: np.ndarray
    leaked: dict[str, float] = field(default_factory=dict)
    zero_branches: list[str] = field(default_factory=list)
    layer_records: list[tuple[str, float, float]] | None = None

    @property
    def length(self) -> int:
        return len(self.maps)

    def spatial_maps(self) -> np.ndarray:
        """[T, H', W'] view: conv-side maps are summed over channels,
        vector maps become a 1-pixel-tall strip."""
        out = []
        for m in self.maps:
            if m.ndim == 3:
                out.append(m.sum(axis=0))
            elif m.ndim == 1:
                out.append(m[None, :])
            else:
                out.append(m)
        return np.stack(out)

    def map_sum(self, t: int) -> float:
        return float(self.maps[t].sum())


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def save_saliency(seq: SaliencySequence, path) -> None:
    """Write the channel-summed maps as .ebt plus a .json sidecar that
    records the .ebt's SHA-256, so a sidecar left over from other maps is
    detected on load."""
    save_tensor(seq.spatial_maps(), path)
    sidecar = os.fspath(path) + ".json"
    doc = {
        "format_version": 1,
        "mode": seq.mode,
        "layer": seq.layer,
        "prior": {"step": seq.prior_step, "mass": seq.prior_mass.tolist()},
        "leaked": {k: float(v) for k, v in sorted(seq.leaked.items())},
        "zero_branches": list(seq.zero_branches),
        "sha256": _sha256(path),
    }
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_saliency(path) -> tuple[np.ndarray, dict]:
    """Read back the [T, H', W'] maps and the sidecar metadata.

    Raises :class:`SidecarMismatchError` when the sidecar is missing or its
    recorded SHA-256 is not the .ebt's.
    """
    sidecar = os.fspath(path) + ".json"
    if not os.path.exists(sidecar):
        raise SidecarMismatchError(f"{path}: sidecar {sidecar} is missing")
    with open(sidecar, "r", encoding="utf-8") as f:
        meta = json.load(f)
    digest = _sha256(path)
    if meta.get("sha256") != digest:
        raise SidecarMismatchError(
            f"{sidecar} records sha256 {meta.get('sha256')!r}, but {path} has {digest!r}"
        )
    return load_tensor(path), meta


def _layer_backward(
    cache: ActivationCache, t: int, spec, x_in: np.ndarray, signal: np.ndarray, excitation: bool
):
    """Signal on the output of CNN-stack layer ``spec`` at frame t -> its
    input ``x_in``.

    relu, flatten and maxpool take their vector-Jacobian product in both
    engines; EB mass is proportional to activation, so the relu mask
    removes none of it. conv2d and fully-connected take the competition
    rule under ``excitation`` and the plain VJP otherwise. Returns
    ``(signal, leaked)``.
    """
    if spec.kind == "relu":
        return signal * (cache.per_frame[t][spec.name] > 0.0), 0.0
    if spec.kind == "flatten":
        return signal.reshape(x_in.shape), 0.0
    if spec.kind == "maxpool2d":
        rows, cols = cache.pool_winners[t][spec.name]
        return eb_pool_backward(rows, cols, x_in.shape, signal), 0.0
    if spec.kind == "conv2d":
        w = cache.model.weight(spec, "weight")
        if excitation:
            return eb_conv_backward(x_in, w, spec.stride, spec.padding, signal)
        return _conv2d_backward(signal, w, x_in.shape, spec.stride, spec.padding), 0.0
    if spec.kind == "fully-connected":
        w = cache.model.weight(spec, "weight")
        if excitation:
            return eb_linear_backward(x_in, w, signal)
        return w.T @ signal, 0.0
    raise ValueError(f"cannot backpropagate through {spec.kind}")


def _descend(cache: ActivationCache, signals: np.ndarray, target_layer: str, excitation: bool):
    """Carry per-frame feature-level signals down the CNN stack to the target.

    Returns ``(maps, leaked, records)``; records hold, per visited level,
    the total delivered signal and the cumulative leak above it, summed
    over frames.
    """
    stack = cache.model.cnn_stack()
    names = [s.name for s in stack]
    stop = -1 if target_layer == "input" else names.index(target_layer)
    levels = range(len(stack) - 1, stop, -1)
    top = stack[-1].name
    totals = np.zeros(len(levels) + 1)
    leaks = np.zeros(len(levels) + 1)
    maps = []
    for t in range(cache.length):
        acts = cache.per_frame[t]
        signal = signals[t].reshape(acts[top].shape)
        totals[0] += signal.sum()
        running = 0.0
        for k, i in enumerate(levels, 1):
            x_in = acts[names[i - 1]] if i > 0 else cache.clip_frames[t]
            signal, lk = _layer_backward(cache, t, stack[i], x_in, signal, excitation)
            running += lk
            totals[k] += signal.sum()
            leaks[k] += running
        maps.append(signal)
    level_names = [top] + [(names[i - 1] if i > 0 else "input") for i in levels]
    records = [(name, float(m), float(lk)) for name, m, lk in zip(level_names, totals, leaks)]
    return maps, float(leaks[-1]), records


def _head_backward(cache: ActivationCache, prior: PriorSpec, negate: bool):
    """Prior -> per-frame feature-level masses through the temporal head."""
    model = cache.model
    agg_idx = model.aggregator_index()
    w_cls = model.weight(model.classifier(), "weight")
    if agg_idx is None:
        # CNN-only chain: the classifier reads frame ``step`` directly
        frame_masses = np.zeros_like(cache.features)
        frame_masses[prior.step], leaked = eb_linear_backward(
            cache.features[prior.step], w_cls, prior.mass, negate=negate
        )
        return frame_masses, leaked
    if model.layers[agg_idx].kind == "recurrent-relu":
        return eb_recurrent_backward(cache, prior, negate_classifier=negate)
    pooled_mass, lk1 = eb_linear_backward(cache.pooled, w_cls, prior.mass, negate=negate)
    frame_masses, lk2 = eb_meanpool_temporal_backward(cache.features, pooled_mass)
    return frame_masses, lk1 + lk2


def _normalize_or_zero(masses: np.ndarray, branch: str, zero_branches: list[str]):
    try:
        return temporal_normalize(masses)
    except AllZeroMassError:
        # a branch with no excitatory path delivers an all-zero map
        zero_branches.append(branch)
        return np.zeros_like(masses)


def _eb_signal(
    cache: ActivationCache,
    prior: PriorSpec,
    contrastive: bool,
    leaked: dict[str, float],
    zero_branches: list[str],
    tag: str = "",
) -> np.ndarray:
    """Normalized feature-level mass of the positive branch, minus that of
    the dual branch when ``contrastive``; head leaks accumulate in ``leaked``."""
    raw, lk = _head_backward(cache, prior, negate=False)
    leaked["pos_head"] = leaked.get("pos_head", 0.0) + lk
    pos = _normalize_or_zero(raw, "pos" + tag, zero_branches)
    if not contrastive:
        return pos
    raw, lk = _head_backward(cache, prior, negate=True)
    leaked["dual_head"] = leaked.get("dual_head", 0.0) + lk
    dual = _normalize_or_zero(raw, "dual" + tag, zero_branches)
    if zero_branches:
        return pos - dual
    return contrastive_combine(pos, dual)


def _check_target(model: ModelManifest, target_layer: str) -> None:
    names = [s.name for s in model.cnn_stack()]
    if target_layer != "input" and target_layer not in names:
        raise ValueError(
            f"target layer {target_layer!r} is not a frame-level layer "
            f"(choose from {names + ['input']})"
        )


def run_saliency(
    model: ModelManifest,
    clip: Clip,
    prior: PriorSpec,
    mode: str,
    target_layer: str,
    absolute_grads: bool = False,
) -> SaliencySequence:
    """Compute one saliency map per frame at ``target_layer``.

    The recurrent modes propagate the prior through the unrolled head,
    normalize jointly over space and time, optionally subtract the dual
    branch at the feature level, and carry the (possibly signed) result
    down each frame's CNN. The frame-wise modes run the head on each frame
    as its own one-frame clip and normalize within the frame. BP modes
    differentiate the prior-weighted logit instead of propagating
    probabilities. Every mode forwards the clip once. The EB modes first
    raise :class:`NonNegativityError` if the model breaks a rule of
    :func:`validate_eb_assumptions`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    _check_target(model, target_layer)
    if mode in ("BP", "BP-R"):
        from .gradients import bp_saliency

        maps = bp_saliency(
            model, clip, prior, target_layer,
            through_time=(mode == "BP-R"), absolute=absolute_grads,
        )
        return SaliencySequence(
            mode=mode, layer=target_layer, maps=maps,
            prior_step=prior.step, prior_mass=prior.mass,
        )

    violations = validate_eb_assumptions(model)
    if violations:
        raise NonNegativityError(violations)
    through_time = mode.endswith("-R")
    if through_time and model.aggregator_index() is None:
        raise ValueError(f"mode {mode} needs a temporal aggregator layer")
    T = clip.length
    if not 0 <= prior.step < T:
        raise ValueError(f"prior step {prior.step} outside 0..{T - 1}")
    cache = forward_clip(model, clip, enforce_length=through_time)
    contrastive = mode.startswith("c")
    leaked: dict[str, float] = {}
    zero_branches: list[str] = []
    if through_time:
        signals = _eb_signal(cache, prior, contrastive, leaked, zero_branches)
    else:
        one_step = PriorSpec(step=0, mass=prior.mass)
        signals = np.concatenate([
            _eb_signal(cache.frame(t), one_step, contrastive, leaked, zero_branches, f"[{t}]")
            for t in range(T)
        ])
    maps, leaked["cnn"], records = _descend(cache, signals, target_layer, excitation=True)
    return SaliencySequence(
        mode=mode, layer=target_layer, maps=maps,
        prior_step=prior.step, prior_mass=prior.mass,
        leaked=leaked, zero_branches=zero_branches, layer_records=records,
    )
