"""Independent reference for every output the benchmark checks.

This module re-derives, from the manifest JSON and the ``.ebt`` weight
files on disk, what ``ebr`` computes for the synthetic two-action suite:
the forward pass, the six saliency modes, the ``ground --method
combined`` segments, the ``eval`` summary and the ``render`` overlays.
It imports nothing from ``ebr``, so a change to the package cannot move
the reference along with it. ``golden.json`` pins it to fingerprints the
package produced when the benchmark was defined (``selftest.py`` checks
that).

The kernels here are written for clarity and a bounded working set (one
frame at a time, vectorized within the frame); their summation order
differs from the package's, so results agree to rounding, not bit for
bit. Comparisons therefore use a tolerance (see ``close``).
"""

from __future__ import annotations

import json
import math
import os
import re
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TOL = 1e-9


def close(a: float, b: float, tol: float = TOL) -> bool:
    """True when a and b agree within tol, relative above magnitude 1."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def read_ebt(path) -> np.ndarray:
    """Minimal reader of the EBT1 container (magic, rank, uint32 extents, f8 payload)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"EBT1":
        raise ValueError(f"{path}: not an EBT1 file")
    rank = raw[4]
    shape = struct.unpack_from(f"<{rank}I", raw, 5)
    data = np.frombuffer(raw, dtype="<f8", offset=5 + 4 * rank)
    if data.size != math.prod(shape):
        raise ValueError(f"{path}: payload holds {data.size} values, shape {shape}")
    return data.reshape(shape).astype(np.float64)


def read_ppm(path) -> np.ndarray:
    """[H, W, 3] uint8 from a binary P6 file with maxval 255."""
    with open(path, "rb") as f:
        raw = f.read()
    header = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", raw)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit P6 file")
    w, h = int(header[1]), int(header[2])
    rest = raw[header.end():]
    if len(rest) != h * w * 3:
        raise ValueError(f"{path}: {len(rest)} payload bytes for {w}x{h}")
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def _pair(v):
    return (int(v), int(v)) if isinstance(v, (int, float)) else (int(v[0]), int(v[1]))


# ---------------------------------------------------------------------------
# model


class RefModel:
    """Frame CNN (conv2d/relu/maxpool2d/flatten/fully-connected), an Elman
    ReLU recurrence and a linear classifier, read from a manifest file."""

    def __init__(self, manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        base = os.path.dirname(os.path.abspath(manifest_path))

        def tensor(layer, role):
            ref = layer.get("weights", {}).get(role)
            return None if ref is None else read_ebt(os.path.join(base, ref + ".ebt"))

        self.stack = []
        self.rnn = None
        self.cls = None
        for layer in doc["layers"]:
            kind = layer["kind"]
            if kind == "recurrent-relu":
                self.rnn = (tensor(layer, "input"), tensor(layer, "hidden"), tensor(layer, "bias"))
            elif kind == "classifier":
                self.cls = (tensor(layer, "weight"), tensor(layer, "bias"))
            elif kind in ("conv2d", "relu", "maxpool2d", "flatten", "fully-connected"):
                if self.rnn is not None:
                    raise ValueError(f"frame layer {layer['name']} after the recurrence")
                spec = {"kind": kind, "name": layer["name"]}
                if kind == "conv2d":
                    spec.update(
                        w=tensor(layer, "weight"), b=tensor(layer, "bias"),
                        stride=_pair(layer.get("stride", 1)), padding=_pair(layer.get("padding", 0)),
                    )
                elif kind == "maxpool2d":
                    spec.update(window=_pair(layer["window"]), stride=_pair(layer.get("stride", layer["window"])))
                elif kind == "fully-connected":
                    spec.update(w=tensor(layer, "weight"), b=tensor(layer, "bias"))
                self.stack.append(spec)
            else:
                raise ValueError(f"the reference does not model layer kind {kind!r}")
        if self.rnn is None or self.cls is None:
            raise ValueError("the reference needs a recurrent-relu head and a classifier")
        self.num_classes = self.cls[0].shape[0]

    def target_index(self, target: str) -> int:
        """Index of the layer whose output is the target; -1 for 'input'."""
        if target == "input":
            return -1
        return [s["name"] for s in self.stack].index(target)


# ---------------------------------------------------------------------------
# per-frame kernels


def _windows(x, window, stride):
    """[C, oh, ow, kh, kw] strided view of the sliding windows of [C, H, W]."""
    return sliding_window_view(x, window, axis=(1, 2))[:, :: stride[0], :: stride[1]]


def _conv(x, w, b, stride, padding):
    py, px = padding
    xp = np.pad(x, ((0, 0), (py, py), (px, px)))
    out = np.tensordot(w, _windows(xp, w.shape[2:], stride), axes=([1, 2, 3], [0, 3, 4]))
    return out if b is None else out + b[:, None, None]


def _conv_transpose(w, g, x_shape, stride, padding):
    """Adjoint of _conv without bias: scatter W^T g onto the unpadded input grid.

    The kernel is cut into stride-sized phases, so the scatter takes
    ceil(kh/sy) * ceil(kw/sx) shifted adds.
    """
    oc, C, kh, kw = w.shape
    sy, sx = stride
    py, px = padding
    _, H, W = x_shape
    _, oh, ow = g.shape
    qy, qx = -(-kh // sy), -(-kw // sx)
    cols = np.tensordot(w, g, axes=([0], [0]))  # [C, kh, kw, oh, ow]
    cols = np.pad(cols, ((0, 0), (0, qy * sy - kh), (0, qx * sx - kw), (0, 0), (0, 0)))
    cols = cols.reshape(C, qy, sy, qx, sx, oh, ow)
    acc = np.zeros((C, (oh + qy) * sy, (ow + qx) * sx))
    for a in range(qy):
        for b in range(qx):
            block = cols[:, a, :, b].transpose(0, 3, 1, 4, 2).reshape(C, oh * sy, ow * sx)
            acc[:, a * sy : a * sy + oh * sy, b * sx : b * sx + ow * sx] += block
    return acc[:, py : py + H, px : px + W]


def _maxpool(x, window, stride):
    """Max over each window plus the winner's input row/col (first max in row-major order)."""
    wins = _windows(x, window, stride)
    C, oh, ow, wh, ww = wins.shape
    flat = wins.reshape(C, oh, ow, wh * ww)
    k = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, k[..., None], axis=-1)[..., 0]
    rows = np.arange(oh)[:, None] * stride[0] + k // ww
    cols = np.arange(ow)[None, :] * stride[1] + k % ww
    return out, rows, cols


def _eb_linear(children, w, mass, negate=False):
    """Dense EB rule: split each parent's mass over excitatory children."""
    w = -w if negate else w
    contrib = np.maximum(w, 0.0) * children[None, :]
    z = contrib.sum(axis=1)
    live = z > 0.0
    ratio = np.where(live, mass, 0.0) / np.where(live, z, 1.0)
    return ratio @ contrib, float(mass[~live].sum())


def _eb_conv(x, w, stride, padding, mass):
    w_pos = np.maximum(w, 0.0)
    z = _conv(x, w_pos, None, stride, padding)
    live = z > 0.0
    ratio = np.where(live, mass, 0.0) / np.where(live, z, 1.0)
    return x * _conv_transpose(w_pos, ratio, x.shape, stride, padding), float(mass[~live].sum())


def _route(rows, cols, shape, mass):
    out = np.zeros(shape)
    c = np.broadcast_to(np.arange(shape[0])[:, None, None], rows.shape)
    np.add.at(out, (c, rows, cols), mass)
    return out


# ---------------------------------------------------------------------------
# clip forward and descent


class RefCache:
    """Per-frame layer inputs/outputs, pool winners, features and head states."""

    def __init__(self, model: RefModel, frames: np.ndarray):
        self.model = model
        self.inputs = []  # t -> list of layer inputs, plus the final output
        self.winners = []  # t -> {layer index: (rows, cols)}
        for frame in frames:
            x = frame
            acts, wins = [x], {}
            for i, s in enumerate(model.stack):
                if s["kind"] == "conv2d":
                    x = _conv(x, s["w"], s["b"], s["stride"], s["padding"])
                elif s["kind"] == "relu":
                    x = np.maximum(x, 0.0)
                elif s["kind"] == "maxpool2d":
                    x, r, c = _maxpool(x, s["window"], s["stride"])
                    wins[i] = (r, c)
                elif s["kind"] == "flatten":
                    x = x.reshape(-1)
                else:
                    x = s["w"] @ x if s["b"] is None else s["w"] @ x + s["b"]
                acts.append(x)
            self.inputs.append(acts)
            self.winners.append(wins)
        self.features = np.stack([a[-1].reshape(-1) for a in self.inputs])
        wx, wh, b = model.rnn
        wc, bc = model.cls
        T = len(frames)
        self.states = np.zeros((T + 1, wh.shape[0]))
        for t in range(T):
            pre = wx @ self.features[t] + wh @ self.states[t]
            self.states[t + 1] = np.maximum(pre if b is None else pre + b, 0.0)
        self.logits = self.states[1:] @ wc.T
        if bc is not None:
            self.logits = self.logits + bc

    def descend(self, t: int, top, target: int, excitation: bool):
        """Carry frame t's feature-level mass (or gradient) down to the target.

        Returns ``(map, leaked)``; leak is always 0 for gradients.
        """
        acts = self.inputs[t]
        m = np.asarray(top).reshape(acts[-1].shape)
        leaked = 0.0
        for i in range(len(self.model.stack) - 1, target, -1):
            s = self.model.stack[i]
            x_in, x_out = acts[i], acts[i + 1]
            kind = s["kind"]
            if kind == "relu":
                m = m if excitation else m * (x_out > 0.0)
            elif kind == "flatten":
                m = m.reshape(x_in.shape)
            elif kind == "maxpool2d":
                m = _route(*self.winners[t][i], x_in.shape, m)
            elif kind == "conv2d" and excitation:
                m, lk = _eb_conv(x_in, s["w"], s["stride"], s["padding"], m)
                leaked += lk
            elif kind == "conv2d":
                m = _conv_transpose(s["w"], m, x_in.shape, s["stride"], s["padding"])
            elif excitation:
                m, lk = _eb_linear(x_in, s["w"], m)
                leaked += lk
            else:
                m = s["w"].T @ m
        return m, leaked


def _head_masses(model, features, states, step, mass, negate):
    """Prior -> per-frame feature masses through the unrolled recurrence."""
    wx, wh, _ = model.rnn
    d = wx.shape[1]
    w_cat = np.hstack([wx, wh])
    state_mass, _ = _eb_linear(states[step + 1], model.cls[0], mass, negate=negate)
    out = np.zeros((len(features), d))
    for t in range(step, -1, -1):
        child, _ = _eb_linear(np.concatenate([features[t], states[t]]), w_cat, state_mass)
        out[t] = child[:d]
        state_mass = child[d:]
    return out


def _normalized(m):
    total = m.sum()
    return m / total if total > 0.0 else np.zeros_like(m)


def saliency_maps(model: RefModel, frames: np.ndarray, unit: int, step: int, mode: str, target: str,
                  cache: RefCache | None = None):
    """One map per frame at the target layer for a one-hot prior on ``unit``."""
    cache = cache or RefCache(model, frames)
    target_i = model.target_index(target)
    mass = np.zeros(model.num_classes)
    mass[unit] = 1.0
    wx, wh, b = model.rnn
    if mode in ("EB-R", "cEB-R"):
        top = _normalized(_head_masses(model, cache.features, cache.states, step, mass, False))
        if mode == "cEB-R":
            top = top - _normalized(_head_masses(model, cache.features, cache.states, step, mass, True))
        return [cache.descend(t, top[t], target_i, True)[0] for t in range(len(frames))]
    if mode in ("EB", "cEB"):
        maps = []
        zero = np.zeros(wh.shape[0])
        for t, f in enumerate(cache.features):
            pre = wx @ f + wh @ zero
            states = np.stack([zero, np.maximum(pre if b is None else pre + b, 0.0)])
            top = _normalized(_head_masses(model, f[None], states, 0, mass, False)[0])
            if mode == "cEB":
                top = top - _normalized(_head_masses(model, f[None], states, 0, mass, True)[0])
            maps.append(cache.descend(t, top, target_i, True)[0])
        return maps
    g_out = model.cls[0].T @ mass
    g_feat = np.zeros_like(cache.features)
    if mode == "BP-R":
        g_h = g_out
        for t in range(step, -1, -1):
            g_pre = g_h * (cache.states[t + 1] > 0.0)
            g_feat[t] = wx.T @ g_pre
            g_h = wh.T @ g_pre
    elif mode == "BP":
        for t, f in enumerate(cache.features):
            pre = wx @ f if b is None else wx @ f + b
            g_feat[t] = wx.T @ (g_out * (pre > 0.0))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return [cache.descend(t, g_feat[t], target_i, False)[0] for t in range(len(frames))]


def fingerprint(maps) -> list[tuple[float, float]]:
    """Per-frame (sum, L1 norm) of a map sequence."""
    return [(float(np.sum(m)), float(np.abs(m).sum())) for m in maps]


def fingerprints_close(got, ref, tol: float = TOL) -> bool:
    return len(got) == len(ref) and all(
        close(gs, rs, tol) and close(gl, rl, tol) for (gs, gl), (rs, rl) in zip(got, ref)
    )


def spatial(maps) -> np.ndarray:
    """[T, H', W'] channel-summed maps, the layout saliency files hold."""
    return np.stack([m.sum(axis=0) if m.ndim == 3 else np.atleast_2d(m) for m in maps])


# ---------------------------------------------------------------------------
# grounding, scoring and overlays for the CLI suite


def _temporal_ground(sums):
    anchor = int(np.argmax(sums))
    if sums[anchor] < 0.0:
        return anchor, anchor, 1
    start = anchor
    while start > 0 and sums[start - 1] >= 0.0:
        start -= 1
    end = anchor
    while end < len(sums) - 1 and sums[end + 1] >= 0.0:
        end += 1
    return start, end, 0


def _upsample(m, hw):
    H, W = hw
    return m[np.ix_((np.arange(H) * m.shape[0]) // H, (np.arange(W) * m.shape[1]) // W)]


def _iou(a, b):
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    return inter / ((a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter)


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


# defaults of ``ebr eval``: IoU threshold, pointing radius, random-baseline seed
ALPHA, RADIUS, EVAL_SEED = 0.5, 7.5, 0


def suite_reference(data_dir: str) -> dict:
    """What ``saliency --mode cEB-R --target conv1``, ``ground --method
    combined``, ``eval --saliency`` and ``render`` must produce on the
    generated suite under ``data_dir`` with their default flags."""
    with open(os.path.join(data_dir, "index.json"), "r", encoding="utf-8") as f:
        index = json.load(f)
    model = RefModel(os.path.join(data_dir, "model", "manifest.json"))
    cfg = index["config"]
    frame_hw = (cfg["height"], cfg["width"])
    rng = np.random.default_rng(EVAL_SEED)
    clips, rows = {}, []
    ious, loc_hits, boundary = [], 0, 0
    sal_hits = prob_hits = comb_hits = rand_hits = 0
    sp_hits = sp_total = 0
    for entry in index["clips"]:
        frames = read_ebt(os.path.join(data_dir, entry["file"]))
        label = entry["gt_class"]
        T = frames.shape[0]
        cache = RefCache(model, frames)
        sal = spatial(saliency_maps(model, frames, label, T - 1, "cEB-R", "conv1", cache))
        sums = sal.sum(axis=(1, 2))
        probs = np.array([_softmax(z)[label] for z in cache.logits])
        start, end, degenerate = _temporal_ground(sums)
        peak_sal, peak_prob = int(np.argmax(sums)), int(np.argmax(probs))
        rows.append({
            "video_id": entry["id"], "label": str(label), "method": "combined",
            "start": str(start), "end": str(end), "degenerate": str(degenerate),
            "peak_sal": str(peak_sal), "peak_prob": str(peak_prob),
        })
        gs, ge = entry["gt_segment"]
        iou = _iou((start, end), (gs, ge))
        ious.append(iou)
        loc_hits += iou >= ALPHA
        boundary += abs(start - gs) <= 1 and abs(end - ge) <= 1
        rand_peak = int(rng.integers(0, cfg["t"]))
        rand_hits += gs <= rand_peak <= ge
        s_hit, p_hit = gs <= peak_sal <= ge, gs <= peak_prob <= ge
        sal_hits += s_hit
        prob_hits += p_hit
        comb_hits += s_hit or p_hit
        x, y, w, h = entry["bbox"]
        for t in range(gs, ge + 1):
            flat = int(np.argmax(_upsample(sal[t], frame_hw)))
            r, c = divmod(flat, frame_hw[1])
            dx = max(x - c, 0, c - (x + w - 1))
            dy = max(y - r, 0, r - (y + h - 1))
            sp_hits += float(np.hypot(dx, dy)) <= RADIUS
            sp_total += 1
        clips[entry["id"]] = {"file": entry["file"], "fingerprint": fingerprint(sal), "maps": sal}
    n = len(rows)
    summary = {
        "n": n,
        "localization_accuracy": loc_hits / n,
        "mean_iou": float(np.mean(ious)),
        "boundary_within_1": boundary / n,
        "temporal_pointing": {
            "saliency": sal_hits / n, "probability": prob_hits / n,
            "combined": comb_hits / n, "random": rand_hits / n,
        },
        "spatial_pointing": sp_hits / sp_total,
    }
    return {"clips": clips, "rows": rows, "summary": summary, "length": cfg["t"], "data_dir": data_dir}


def overlay(frames: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """[T, H, W, 3] float RGB before rounding: gray frames blended toward red
    (positive) or blue (negative) by |map| / max|map| over the sequence."""
    T, _, H, W = frames.shape
    gray = frames.mean(axis=1) * 255.0
    rgb = np.repeat(gray[..., None], 3, axis=-1)
    vmax = float(np.abs(maps).max())
    if vmax == 0.0:
        return rgb
    up = np.stack([_upsample(m, (H, W)) for m in maps])
    weight = (np.abs(up) / vmax)[..., None]
    color = np.zeros_like(rgb)
    color[..., 0] = np.where(up > 0, 255.0, 0.0)
    color[..., 2] = np.where(up < 0, 255.0, 0.0)
    return (1.0 - weight) * rgb + weight * color
