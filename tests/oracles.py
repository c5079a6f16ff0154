"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (explicit loops, path enumeration,
finite differences) and shares no code with the propagation kernels it
checks.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ebr.forward import Clip, forward_clip


def naive_conv(x, w, b, stride, padding):
    """Six-loop direct convolution over [C, H, W]."""
    oc, ic, kh, kw = w.shape
    sy, sx = stride
    py, px = padding
    xp = np.zeros((ic, x.shape[1] + 2 * py, x.shape[2] + 2 * px))
    xp[:, py : py + x.shape[1], px : px + x.shape[2]] = x
    oh = (xp.shape[1] - kh) // sy + 1
    ow = (xp.shape[2] - kw) // sx + 1
    out = np.zeros((oc, oh, ow))
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(ic):
                    for u in range(kh):
                        for v in range(kw):
                            acc += w[o, c, u, v] * xp[c, i * sy + u, j * sx + v]
                out[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def per_tap_im2col(x, kernel, stride, padding):
    """Reference unrolling: one strided slice copy per kernel tap."""
    kh, kw = kernel
    sy, sx = stride
    py, px = padding
    x = np.pad(x, ((0, 0), (py, py), (px, px)))
    C, H, W = x.shape
    oh = (H - kh) // sy + 1
    ow = (W - kw) // sx + 1
    col = np.empty((C, kh, kw, oh, ow))
    for ky in range(kh):
        for kx in range(kw):
            col[:, ky, kx] = x[:, ky : ky + sy * oh : sy, kx : kx + sx * ow : sx]
    return col.reshape(C * kh * kw, oh * ow), (oh, ow)


def per_tap_col2im(col, x_shape, kernel, stride, padding, out_hw):
    """Reference scatter-add: one strided slice add per kernel tap, in
    (ky, kx) row-major order."""
    kh, kw = kernel
    sy, sx = stride
    py, px = padding
    C, H, W = x_shape
    oh, ow = out_hw
    acc = np.zeros((C, H + 2 * py, W + 2 * px))
    col = col.reshape(C, kh, kw, oh, ow)
    for ky in range(kh):
        for kx in range(kw):
            acc[:, ky : ky + sy * oh : sy, kx : kx + sx * ow : sx] += col[:, ky, kx]
    return acc[:, py : py + H, px : px + W]


def conv_as_matrix(x_shape, w, stride, padding):
    """Materialize a convolution as one dense [parents, children] matrix.

    Children are the flat unpadded input cells; taps that fall on padding
    are dropped (their activation is zero anyway).
    """
    oc, ic, kh, kw = w.shape
    sy, sx = stride
    py, px = padding
    C, H, W = x_shape
    oh = (H + 2 * py - kh) // sy + 1
    ow = (W + 2 * px - kw) // sx + 1
    m = np.zeros((oc * oh * ow, C * H * W))
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                row = (o * oh + i) * ow + j
                for c in range(ic):
                    for u in range(kh):
                        for v in range(kw):
                            y = i * sy + u - py
                            x = j * sx + v - px
                            if 0 <= y < H and 0 <= x < W:
                                m[row, (c * H + y) * W + x] = w[o, c, u, v]
    return m, (oh, ow)


def enumerate_path_masses(model, cache, prior, level):
    """Winning-probability marginals by explicit root-to-node path products.

    Supports chain models whose frame-level stack is [flatten, fc, relu].
    ``level`` selects the accounting depth: "feature" stops at the relu
    outputs feeding the recurrence, "input" walks down to the pixels.
    Returns masses shaped like the engine's output for that level.
    """
    stack = model.cnn_stack()
    assert [s.kind for s in stack] == ["flatten", "fully-connected", "relu"], (
        "oracle only handles flatten/fc/relu chains"
    )
    agg = model.layers[model.aggregator_index()]
    assert agg.kind == "recurrent-relu"
    w_cls = model.weight(model.classifier(), "weight")
    wx = model.weight(agg, "input")
    wh = model.weight(agg, "hidden")
    w_fc = model.weight(stack[1], "weight")
    T = cache.length
    acc: dict = defaultdict(float)

    def conditional(acts, weights):
        # naive per-parent conditional probabilities over one child set
        probs = np.zeros_like(weights)
        for j in range(weights.shape[0]):
            z = 0.0
            for i in range(weights.shape[1]):
                if weights[j, i] >= 0.0:
                    z += acts[i] * weights[j, i]
            if z > 0.0:
                for i in range(weights.shape[1]):
                    if weights[j, i] >= 0.0:
                        probs[j, i] = acts[i] * weights[j, i] / z
        return probs

    def visit(node, weight):
        if weight == 0.0:
            return
        kind = node[0]
        if kind == level:
            acc[node] += weight
            return
        if kind == "out":
            _, k = node
            probs = conditional(cache.states[prior.step + 1], w_cls)
            for i in range(w_cls.shape[1]):
                visit(("feature_gate", prior.step, i), weight * probs[k, i])
        elif kind == "feature_gate":
            # a recurrent state unit: one competition over [x_t ; h_{t-1}]
            _, t, i = node
            acts = np.concatenate([cache.features[t], cache.states[t]])
            weights = np.hstack([wx, wh])
            probs = conditional(acts, weights)
            d = wx.shape[1]
            for j in range(d):
                visit(("feature", t, j), weight * probs[i, j])
            if t > 0:
                for j in range(wh.shape[1]):
                    visit(("feature_gate", t - 1, j), weight * probs[i, d + j])
        elif kind == "feature":
            # relu is one-to-one; fc competition leads to the pixels
            _, t, i = node
            acts = cache.clip_frames[t].reshape(-1)
            probs = conditional(acts, w_fc)
            for p in range(w_fc.shape[1]):
                visit(("input", t, p), weight * probs[i, p])
        else:
            raise AssertionError(node)

    for k in range(len(prior.mass)):
        visit(("out", k), float(prior.mass[k]))

    if level == "feature":
        out = np.zeros((T, agg.in_dim))
        for (_, t, i), v in acc.items():
            out[t, i] = v
        return out
    out = np.zeros((T, *model.input_shape))
    flat = out.reshape(T, -1)
    for (_, t, p), v in acc.items():
        flat[t, p] = v
    return out


def fd_input_grads(model, clip, prior, through_time, eps=1e-5):
    """Central finite differences of the prior-weighted logit w.r.t. pixels."""
    frames = clip.frames
    grads = np.zeros_like(frames)

    def scalar_through(fr):
        cache = forward_clip(model, Clip(frames=fr))
        idx = prior.step if cache.logits.shape[0] > 1 else 0
        return float(prior.mass @ cache.logits[idx])

    def scalar_single(frame):
        cache = forward_clip(model, Clip(frames=frame[None]), enforce_length=False)
        return float(prior.mass @ cache.logits[0])

    it = np.ndindex(frames.shape)
    for idx in it:
        hi = frames.copy()
        lo = frames.copy()
        hi[idx] += eps
        lo[idx] -= eps
        if through_time:
            grads[idx] = (scalar_through(hi) - scalar_through(lo)) / (2 * eps)
        else:
            t = idx[0]
            grads[idx] = (scalar_single(hi[t]) - scalar_single(lo[t])) / (2 * eps)
    return grads


def best_window(sums, length):
    """Exhaustive scan for the best fixed-length window (earliest tie wins)."""
    best_start, best_val = 0, -np.inf
    for s in range(len(sums) - length + 1):
        v = float(np.sum(sums[s : s + length]))
        if v > best_val:
            best_start, best_val = s, v
    return best_start, best_start + length - 1
