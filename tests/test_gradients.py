import numpy as np
import pytest

from conftest import conv_chain_model, fc_chain_model, random_clip
from ebr.eb import PriorSpec, run_saliency
from ebr.forward import Clip
from ebr.gradients import bp_saliency
from ebr.model import LayerSpec, ManifestError, ModelManifest
from oracles import fd_input_grads


def _rel_err(got, want):
    got = np.concatenate([np.asarray(g).reshape(-1) for g in got])
    want = want.reshape(-1)
    denom = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / denom


def test_bp_single_linear_layer_is_weight_times_prior(rng):
    # classifier straight on the flattened pixels: gradient = prior @ W
    w = rng.normal(size=(2, 4))
    model = ModelManifest(
        layers=[
            LayerSpec(kind="flatten", name="flat"),
            LayerSpec(kind="classifier", name="cls", in_dim=4, out_dim=2,
                      weights={"weight": "cls_w"}),
        ],
        input_shape=(1, 2, 2),
        clip_length=1,
        labels=["a", "b"],
        tensors={"cls_w": w},
    )
    clip = Clip(frames=rng.uniform(0.2, 0.8, size=(1, 1, 2, 2)))
    prior = PriorSpec(step=0, mass=np.array([0.25, 0.75]))
    maps = bp_saliency(model, clip, prior, "input", through_time=False)
    np.testing.assert_allclose(
        maps[0].reshape(-1), prior.mass @ w, atol=1e-12
    )
    fd = fd_input_grads(model, clip, prior, through_time=False)
    assert _rel_err(maps, fd) <= 1e-6


def test_bp_r_matches_finite_differences(rng):
    for trial in range(3):
        model = conv_chain_model(rng, hw=4, clip_length=2)
        clip = random_clip(rng, model, low=0.2, high=0.8)
        prior = PriorSpec.one_hot(3, int(rng.integers(3)), step=1)
        maps = bp_saliency(model, clip, prior, "input", through_time=True)
        fd = fd_input_grads(model, clip, prior, through_time=True)
        assert _rel_err(maps, fd) <= 1e-4


def test_bp_per_frame_matches_finite_differences(rng):
    model = conv_chain_model(rng, hw=4, clip_length=2)
    clip = random_clip(rng, model, low=0.2, high=0.8)
    prior = PriorSpec.one_hot(3, 0, step=0)
    maps = bp_saliency(model, clip, prior, "input", through_time=False)
    fd = fd_input_grads(model, clip, prior, through_time=False)
    assert _rel_err(maps, fd) <= 1e-4


def test_bp_r_meanpool_matches_finite_differences(rng):
    model = conv_chain_model(rng, hw=4, clip_length=2, aggregator="temporal-mean-pool")
    clip = random_clip(rng, model, low=0.2, high=0.8)
    prior = PriorSpec.one_hot(3, 1, step=0)
    maps = bp_saliency(model, clip, prior, "input", through_time=True)
    fd = fd_input_grads(model, clip, prior, through_time=True)
    assert _rel_err(maps, fd) <= 1e-4


def test_bp_r_zero_after_prior_step(rng):
    model = fc_chain_model(rng, clip_length=3)
    clip = random_clip(rng, model)
    maps = bp_saliency(model, clip, PriorSpec.one_hot(3, 0, step=1), "input",
                       through_time=True)
    assert np.all(maps[2] == 0.0)


def test_absolute_flag(rng):
    model = conv_chain_model(rng, hw=4, clip_length=2)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=1)
    raw = run_saliency(model, clip, prior, "BP-R", "input")
    abs_ = run_saliency(model, clip, prior, "BP-R", "input", absolute_grads=True)
    for t in range(2):
        np.testing.assert_array_equal(abs_.maps[t], np.abs(raw.maps[t]))
    assert min(m.min() for m in raw.maps) < 0  # raw gradients carry sign


def test_bp_modes_via_run_saliency(rng):
    model = conv_chain_model(rng, hw=4, clip_length=2)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=1)
    seq = run_saliency(model, clip, prior, "BP", "conv1")
    assert seq.mode == "BP"
    assert len(seq.maps) == 2
    assert seq.maps[0].shape == (2, 4, 4)


def test_bp_r_rejects_cnn_only_model(rng):
    model = conv_chain_model(rng, hw=4, clip_length=2, aggregator="none")
    clip = random_clip(rng, model)
    with pytest.raises(ValueError):
        bp_saliency(model, clip, PriorSpec.one_hot(3, 0, step=0), "input",
                    through_time=True)


def test_frame_wise_modes_accept_any_clip_length(rng):
    # EB, cEB and BP treat every frame as its own one-frame clip, so the
    # manifest's clip length binds only the through-time modes
    model = conv_chain_model(rng, clip_length=3)
    longer = Clip(frames=rng.uniform(size=(5, *model.input_shape)))
    prefix = Clip(frames=longer.frames[:3])
    prior = PriorSpec.one_hot(3, 0, step=0)
    for mode in ("EB", "cEB", "BP"):
        got = run_saliency(model, longer, prior, mode, "input").maps
        want = run_saliency(model, prefix, prior, mode, "input").maps
        assert len(got) == 5
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), mode
    for mode in ("EB-R", "cEB-R", "BP-R"):
        with pytest.raises(ManifestError, match="5 frames"):
            run_saliency(model, longer, prior, mode, "input")
