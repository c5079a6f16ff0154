import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv_chain_model, fc_chain_model, random_clip
from ebr.forward import (
    Clip,
    _conv2d_backward,
    col2im,
    conv2d_forward,
    forward_clip,
    forward_frame,
    im2col,
    load_clip,
    maxpool_forward,
    relu,
    save_clip,
    softmax_probs,
)
from ebr.model import LayerSpec, ManifestError, ModelManifest
from oracles import conv_as_matrix, naive_conv, per_tap_col2im, per_tap_im2col


def test_identity_conv_passthrough():
    w = np.ones((1, 1, 1, 1))
    x = np.full((1, 3, 3), 0.5)
    out = conv2d_forward(x, w, None, (1, 1), (0, 0))
    assert np.array_equal(out, x)


def test_conv_bias_then_relu_clamps():
    w = np.ones((1, 1, 1, 1))
    b = np.array([-2.0])
    out = relu(conv2d_forward(np.ones((1, 1, 1)), w, b, (1, 1), (0, 0)))
    assert out.item() == 0.0


def test_maxpool_records_argmax():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    out, rows, cols = maxpool_forward(x, (2, 2), (2, 2))
    assert out.item() == 4.0
    assert (rows.item(), cols.item()) == (1, 1)


def test_maxpool_tie_breaks_row_major():
    x = np.ones((1, 2, 2))
    _, rows, cols = maxpool_forward(x, (2, 2), (2, 2))
    assert (rows.item(), cols.item()) == (0, 0)


@pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((1, 2), (2, 0))])
def test_conv_matches_naive_reference(rng, stride, padding):
    x = rng.uniform(size=(3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(4,))
    got = conv2d_forward(x, w, b, stride, padding)
    want = naive_conv(x, w, b, stride, padding)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_recurrence_identity_input_weight(rng):
    """Wx = I, Wh = 0 collapses the recurrence to relu of the features."""
    model = fc_chain_model(rng, width=3, hidden=3, state=3)
    model.tensors["rnn_wx"] = np.eye(3)
    model.tensors["rnn_wh"] = np.zeros((3, 3))
    clip = random_clip(rng, model)
    cache = forward_clip(model, clip)
    np.testing.assert_array_equal(cache.states[1:], relu(cache.features))


def test_recurrence_zero_input_weight(rng):
    model = fc_chain_model(rng)
    model.tensors["rnn_wx"] = np.zeros((3, 3))
    model.tensors["rnn_wh"] = np.eye(3)
    cache = forward_clip(model, random_clip(rng, model))
    assert np.all(cache.states == 0.0)
    assert np.all(cache.logits == 0.0)


def test_temporal_mean_pool_average(rng):
    model = conv_chain_model(rng, aggregator="temporal-mean-pool", clip_length=2)
    clip = random_clip(rng, model)
    cache = forward_clip(model, clip)
    np.testing.assert_allclose(cache.pooled, cache.features.mean(axis=0), atol=0)
    assert cache.logits.shape == (1, 3)


def test_mean_pool_arithmetic():
    feats = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(feats.mean(axis=0), [1.0, 1.0])


def test_softmax_symmetry():
    np.testing.assert_array_equal(softmax_probs(np.zeros(2)), [0.5, 0.5])


def test_softmax_stabilized():
    out = softmax_probs(np.array([1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=0)


def test_softmax_closed_form():
    np.testing.assert_allclose(
        softmax_probs(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15
    )


@pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((1, 2), (2, 0))])
def test_conv_backward_is_transposed_matrix(rng, stride, padding):
    x_shape = (2, 5, 5)
    w = rng.normal(size=(3, 2, 3, 3))
    matrix, out_hw = conv_as_matrix(x_shape, w, stride, padding)
    g = rng.normal(size=(3, *out_hw))
    got = _conv2d_backward(g, w, x_shape, stride, padding)
    np.testing.assert_allclose(got.reshape(-1), matrix.T @ g.reshape(-1), atol=1e-12)


@st.composite
def conv_geometries(draw):
    """Random [C, H, W] input and a kernel that fits its padded extent:
    1x1 kernels, kernels as large as the padded input, kernels smaller
    than the stride and kernels that are not a multiple of it."""
    C = draw(st.integers(1, 3))
    H, W = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    py, px = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kh = draw(st.integers(1, H + 2 * py))
    kw = draw(st.integers(1, W + 2 * px))
    sy, sx = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return (C, H, W), (kh, kw), (sy, sx), (py, px)


@settings(max_examples=300, deadline=None)
@given(conv_geometries(), st.integers(0, 2**32 - 1))
def test_im2col_col2im_match_per_tap_reference(geometry, seed):
    x_shape, kernel, stride, padding = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    col, out_hw = im2col(x, kernel, stride, padding)
    want_col, want_hw = per_tap_im2col(x, kernel, stride, padding)
    assert out_hw == want_hw
    assert np.array_equal(col, want_col)
    c = rng.normal(size=col.shape)
    back = col2im(c, x_shape, kernel, stride, padding, out_hw)
    assert np.array_equal(back, per_tap_col2im(c, x_shape, kernel, stride, padding, out_hw))
    # col2im is the adjoint of im2col: <im2col(x), c> == <x, col2im(c)>
    assert abs(np.vdot(col, c) - np.vdot(x, back)) <= 1e-12 * max(1.0, np.abs(col * c).sum())


@pytest.mark.parametrize("aggregator", ["recurrent-relu", "temporal-mean-pool", "none"])
def test_frame_view_matches_one_frame_clip(rng, aggregator):
    model = conv_chain_model(rng, aggregator=aggregator)
    clip = random_clip(rng, model)
    cache = forward_clip(model, clip)
    for t in range(clip.length):
        got = cache.frame(t)
        want = forward_clip(model, Clip(frames=clip.frames[t : t + 1]), enforce_length=False)
        assert got.length == 1
        assert got.per_frame[0] is cache.per_frame[t]
        for field in ("features", "states", "pooled", "logits"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_forward_deterministic_bitwise(rng):
    model = conv_chain_model(rng)
    clip = random_clip(rng, model)
    a = forward_clip(model, clip)
    b = forward_clip(model, clip)
    assert pickle.dumps(a.logits) == pickle.dumps(b.logits)
    for t in range(model.clip_length):
        for name in a.per_frame[t]:
            assert a.per_frame[t][name].tobytes() == b.per_frame[t][name].tobytes()


def test_clip_rejects_out_of_range():
    with pytest.raises(ValueError):
        Clip(frames=np.full((1, 1, 2, 2), 1.5))
    with pytest.raises(ValueError):
        Clip(frames=np.full((1, 1, 2, 2), np.nan))


def test_clip_roundtrip(tmp_path, rng):
    clip = Clip(frames=rng.uniform(size=(2, 1, 3, 3)), meta={"gt_class": 1})
    save_clip(clip, tmp_path / "c.ebt")
    back = load_clip(tmp_path / "c.ebt")
    assert np.array_equal(back.frames, clip.frames)
    assert back.meta == {"gt_class": 1}


def test_forward_rejects_wrong_clip_length(rng):
    model = fc_chain_model(rng, clip_length=2)
    with pytest.raises(ManifestError):
        forward_clip(model, Clip(frames=rng.uniform(size=(3, 1, 1, 3))))


def test_forward_frame_rejects_wrong_shape(rng):
    model = fc_chain_model(rng)
    with pytest.raises(ManifestError):
        forward_frame(model, np.zeros((1, 2, 2)))
