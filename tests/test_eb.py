import numpy as np
import pytest

from conftest import conv_chain_model, fc_chain_model, random_clip
from ebr.eb import (
    MODES,
    AllZeroMassError,
    PriorSpec,
    SidecarMismatchError,
    contrastive_combine,
    eb_conv_backward,
    eb_linear_backward,
    eb_meanpool_temporal_backward,
    eb_pool_backward,
    eb_recurrent_backward,
    load_saliency,
    run_saliency,
    save_saliency,
    temporal_normalize,
)
from ebr.forward import ActivationCache, Clip, forward_clip, maxpool_forward
from ebr.model import LayerSpec, ModelManifest, NonNegativityError
from oracles import conv_as_matrix, enumerate_path_masses


# ---------------------------------------------------------------------------
# prior


@pytest.mark.parametrize("mass", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]])
def test_prior_rejects_non_finite_mass(mass):
    with pytest.raises(ValueError, match="finite"):
        PriorSpec(step=0, mass=np.array(mass))


# ---------------------------------------------------------------------------
# dense rule


def test_linear_backward_hand_case():
    # acts [2,1,1], weights [1,-2,3] to one parent, mass 1:
    # Z = 2*1 + 1*3 = 5 -> children get [2/5, 0, 3/5]
    mass, leaked = eb_linear_backward(
        np.array([2.0, 1.0, 1.0]), np.array([[1.0, -2.0, 3.0]]), np.array([1.0])
    )
    np.testing.assert_allclose(mass, [0.4, 0.0, 0.6], atol=1e-15)
    assert leaked == 0.0


def test_linear_backward_all_inhibitory_leaks():
    mass, leaked = eb_linear_backward(
        np.array([1.0, 1.0]), np.array([[-1.0, -2.0]]), np.array([1.0])
    )
    assert np.all(mass == 0.0)
    assert leaked == 1.0


def test_linear_backward_single_excitatory_child_takes_all():
    mass, leaked = eb_linear_backward(
        np.array([0.3, 0.5]), np.array([[-1.0, 2.0]]), np.array([1.0])
    )
    np.testing.assert_allclose(mass, [0.0, 1.0], atol=0)
    assert leaked == 0.0


def test_linear_backward_sums_over_parents(rng):
    acts = rng.uniform(0.1, 1.0, size=5)
    w = rng.normal(size=(3, 5))
    pm = rng.uniform(0.1, 1.0, size=3)
    mass, leaked = eb_linear_backward(acts, w, pm)
    np.testing.assert_allclose(mass.sum() + leaked, pm.sum(), atol=1e-12)


def test_linear_backward_negate_equals_pre_negated(rng):
    acts = rng.uniform(0.0, 1.0, size=4)
    w = rng.normal(size=(2, 4))
    pm = rng.uniform(size=2)
    a, la = eb_linear_backward(acts, w, pm, negate=True)
    b, lb = eb_linear_backward(acts, -w, pm)
    assert a.tobytes() == b.tobytes() and la == lb


def test_linear_backward_rejects_negative_acts():
    with pytest.raises(ValueError):
        eb_linear_backward(np.array([-0.1]), np.array([[1.0]]), np.array([1.0]))


def test_zero_weight_children_are_inert(rng):
    acts = rng.uniform(0.1, 1.0, size=3)
    w = np.array([[0.5, 0.0, 0.25]])
    with_zero, _ = eb_linear_backward(acts, w, np.array([1.0]))
    assert with_zero[1] == 0.0
    np.testing.assert_allclose(with_zero.sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# conv rule


def test_conv_backward_identity_1x1():
    acts = np.full((1, 2, 2), 0.7)
    w = np.full((1, 1, 1, 1), 2.0)
    pm = np.array([[[0.1, 0.2], [0.3, 0.4]]])
    mass, leaked = eb_conv_backward(acts, w, (1, 1), (0, 0), pm)
    np.testing.assert_allclose(mass, pm, atol=1e-15)
    assert leaked == 0.0


def test_conv_backward_symmetric_split():
    # all-equal weights and activations: one interior parent splits 1/9 each
    acts = np.ones((1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    pm = np.ones((1, 1, 1))
    mass, leaked = eb_conv_backward(acts, w, (1, 1), (0, 0), pm)
    np.testing.assert_allclose(mass, np.full((1, 3, 3), 1.0 / 9.0), atol=1e-15)
    assert leaked == 0.0


def test_conv_backward_matches_materialized_matrix(rng):
    for trial in range(5):
        acts = rng.uniform(0.0, 1.0, size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 2, 2))
        stride, padding = (1, 1), (1, 0)
        matrix, out_hw = conv_as_matrix(acts.shape, w, stride, padding)
        pm = rng.uniform(size=(3, *out_hw))
        got, leak_conv = eb_conv_backward(acts, w, stride, padding, pm)
        want, leak_mat = eb_linear_backward(acts.reshape(-1), matrix, pm.reshape(-1))
        np.testing.assert_allclose(got.reshape(-1), want, atol=1e-12)
        assert abs(leak_conv - leak_mat) < 1e-12


def test_conv_backward_signed_parent_mass_is_linear(rng):
    acts = rng.uniform(0.0, 1.0, size=(1, 4, 4))
    w = rng.normal(size=(2, 1, 3, 3))
    pm_a = rng.uniform(size=(2, 2, 2))
    pm_b = rng.uniform(size=(2, 2, 2))
    ga, _ = eb_conv_backward(acts, w, (1, 1), (0, 0), pm_a)
    gb, _ = eb_conv_backward(acts, w, (1, 1), (0, 0), pm_b)
    gd, _ = eb_conv_backward(acts, w, (1, 1), (0, 0), pm_a - pm_b)
    np.testing.assert_allclose(gd, ga - gb, atol=1e-12)


# ---------------------------------------------------------------------------
# pool and mean-pool rules


def test_pool_backward_routes_to_winner():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    _, rows, cols = maxpool_forward(x, (2, 2), (2, 2))
    mass = eb_pool_backward(rows, cols, x.shape, np.array([[[1.0]]]))
    np.testing.assert_array_equal(mass, [[[0.0, 0.0], [0.0, 1.0]]])


def test_meanpool_temporal_proportional_split():
    feats = np.array([[1.0], [3.0]])
    mass, leaked = eb_meanpool_temporal_backward(feats, np.array([1.0]))
    np.testing.assert_allclose(mass, [[0.25], [0.75]], atol=1e-15)
    assert leaked == 0.0


def test_meanpool_temporal_uniform():
    feats = np.ones((4, 2))
    mass, _ = eb_meanpool_temporal_backward(feats, np.array([1.0, 1.0]))
    np.testing.assert_allclose(mass, np.full((4, 2), 0.25), atol=0)


def test_meanpool_temporal_dead_feature_leaks():
    feats = np.zeros((2, 1))
    mass, leaked = eb_meanpool_temporal_backward(feats, np.array([1.0]))
    assert np.all(mass == 0.0)
    assert leaked == 1.0


# ---------------------------------------------------------------------------
# recurrent rule


def _one_unit_recurrent_model():
    tensors = {
        "fc_w": np.eye(1),
        "rnn_wx": np.eye(1),
        "rnn_wh": np.eye(1),
        "cls_w": np.eye(1),
    }
    layers = [
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fully-connected", name="fc", in_dim=1, out_dim=1,
                  weights={"weight": "fc_w"}),
        LayerSpec(kind="relu", name="relu_fc"),
        LayerSpec(kind="recurrent-relu", name="rnn", in_dim=1, out_dim=1,
                  weights={"input": "rnn_wx", "hidden": "rnn_wh"}),
        LayerSpec(kind="classifier", name="cls", in_dim=1, out_dim=1,
                  weights={"weight": "cls_w"}),
    ]
    return ModelManifest(layers=layers, input_shape=(1, 1, 1), clip_length=2,
                         labels=["a"], tensors=tensors)


def test_recurrent_equal_activation_trace():
    # identity Wx/Wh, every activation equal (including a synthetic h_0):
    # frame masses [0.25, 0.5], the rest continues past h_0 as leak
    model = _one_unit_recurrent_model()
    cache = ActivationCache(
        model=model,
        clip_frames=np.ones((2, 1, 1, 1)),
        per_frame=[{}, {}],
        pool_winners=[{}, {}],
        features=np.ones((2, 1)),
        states=np.ones((3, 1)),
        logits=np.ones((2, 1)),
    )
    prior = PriorSpec(step=1, mass=np.array([1.0]))
    fm, leaked = eb_recurrent_backward(cache, prior)
    np.testing.assert_allclose(fm, [[0.25], [0.5]], atol=1e-15)
    np.testing.assert_allclose(leaked, 0.25, atol=1e-15)


def test_recurrent_no_memory_puts_everything_on_prior_frame(rng):
    model = fc_chain_model(rng, clip_length=3)
    model.tensors["rnn_wh"] = np.zeros((3, 3))
    model.tensors["rnn_wx"] = np.abs(model.tensors["rnn_wx"])
    model.tensors["cls_w"] = np.abs(model.tensors["cls_w"])
    clip = random_clip(rng, model, low=0.1)
    cache = forward_clip(model, clip)
    fm, leaked = eb_recurrent_backward(cache, PriorSpec.one_hot(3, 1, step=2))
    assert np.all(fm[:2] == 0.0)
    np.testing.assert_allclose(fm[2].sum() + leaked, 1.0, atol=1e-12)
    assert fm[2].sum() > 0


def test_recurrent_conservation_random_models(rng):
    for trial in range(20):
        model = fc_chain_model(rng, clip_length=3)
        cache = forward_clip(model, random_clip(rng, model))
        prior = PriorSpec.one_hot(3, int(rng.integers(3)), step=int(rng.integers(3)))
        fm, leaked = eb_recurrent_backward(cache, prior)
        np.testing.assert_allclose(fm.sum() + leaked, 1.0, atol=1e-9)


def test_recurrent_rejects_bad_step(rng):
    model = fc_chain_model(rng)
    cache = forward_clip(model, random_clip(rng, model))
    with pytest.raises(ValueError):
        eb_recurrent_backward(cache, PriorSpec(step=5, mass=np.array([1, 0, 0.0])))


# ---------------------------------------------------------------------------
# normalization and combination


def test_temporal_normalize_uniform():
    out = temporal_normalize(np.ones((2, 2)))
    np.testing.assert_array_equal(out, np.full((2, 2), 0.25))


def test_temporal_normalize_single_support():
    out = temporal_normalize(np.array([[2.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 0.0]])


def test_temporal_normalize_sums_to_one(rng):
    for _ in range(50):
        masses = rng.uniform(size=(4, 5)) * rng.uniform()
        np.testing.assert_allclose(temporal_normalize(masses).sum(), 1.0, atol=1e-12)


def test_temporal_normalize_all_zero_raises():
    with pytest.raises(AllZeroMassError):
        temporal_normalize(np.zeros((2, 2)))


def test_temporal_normalize_rejects_negative():
    with pytest.raises(ValueError):
        temporal_normalize(np.array([[-0.1, 1.0]]))


def test_contrastive_self_cancellation(rng):
    p = temporal_normalize(rng.uniform(size=(3, 4)))
    assert np.all(contrastive_combine(p, p) == 0.0)


def test_contrastive_disjoint_support():
    out = contrastive_combine(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(out, [[1.0, -1.0]])


def test_contrastive_sum_is_zero(rng):
    for _ in range(10):
        a = temporal_normalize(rng.uniform(size=(2, 3)))
        b = temporal_normalize(rng.uniform(size=(2, 3)))
        assert abs(contrastive_combine(a, b).sum()) <= 1e-9


def test_contrastive_requires_normalized_inputs():
    with pytest.raises(ValueError):
        contrastive_combine(np.ones((2, 2)), np.full((2, 2), 0.25))


# ---------------------------------------------------------------------------
# run_saliency orchestration


def test_ceb_r_is_difference_of_branches(rng):
    model = conv_chain_model(rng)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=model.clip_length - 1)
    ceb = run_saliency(model, clip, prior, "cEB-R", "conv1")
    pos = run_saliency(model, clip, prior, "EB-R", "conv1")
    # dual branch == positive branch of the classifier-negated model
    dual_model = conv_chain_model(np.random.default_rng(20240817))
    dual_model.tensors["cls_w"] = -model.tensors["cls_w"]
    dual = run_saliency(dual_model, clip, prior, "EB-R", "conv1")
    for t in range(clip.length):
        np.testing.assert_allclose(
            ceb.maps[t], pos.maps[t] - dual.maps[t], atol=1e-9
        )


def test_eb_r_maps_nonnegative_and_ceb_r_sums_to_zero(rng):
    for trial in range(5):
        model = conv_chain_model(rng)
        clip = random_clip(rng, model)
        prior = PriorSpec.one_hot(3, int(rng.integers(3)), step=model.clip_length - 1)
        pos = run_saliency(model, clip, prior, "EB-R", "relu2")
        assert min(m.min() for m in pos.maps) >= 0.0
        ceb = run_saliency(model, clip, prior, "cEB-R", "relu2")
        if not ceb.zero_branches:
            assert abs(sum(m.sum() for m in ceb.maps)) <= 1e-9


def test_linearity_in_prior(rng):
    model = fc_chain_model(rng, clip_length=3)
    clip = random_clip(rng, model)
    cache = forward_clip(model, clip)
    p1 = PriorSpec.one_hot(3, 0, step=2)
    p2 = PriorSpec.one_hot(3, 2, step=2)
    mix = PriorSpec(step=2, mass=0.3 * p1.mass + 0.7 * p2.mass)
    f1, l1 = eb_recurrent_backward(cache, p1)
    f2, l2 = eb_recurrent_backward(cache, p2)
    fm, lm = eb_recurrent_backward(cache, mix)
    np.testing.assert_allclose(fm, 0.3 * f1 + 0.7 * f2, atol=1e-9)
    np.testing.assert_allclose(lm, 0.3 * l1 + 0.7 * l2, atol=1e-9)


def test_dual_branch_bit_identical_to_negated_model(rng):
    model = fc_chain_model(rng, clip_length=2)
    clip = random_clip(rng, model)
    cache = forward_clip(model, clip)
    prior = PriorSpec.one_hot(3, 1, step=1)
    dual, dual_leak = eb_recurrent_backward(cache, prior, negate_classifier=True)
    negated = fc_chain_model(rng)  # same layout, replace weights below
    negated.tensors = dict(model.tensors)
    negated.tensors["cls_w"] = -model.tensors["cls_w"]
    cache2 = forward_clip(negated, clip)
    ref, ref_leak = eb_recurrent_backward(cache2, prior)
    assert dual.tobytes() == ref.tobytes()
    assert dual_leak == ref_leak


def test_path_enumeration_oracle(rng):
    for trial in range(5):
        model = fc_chain_model(rng, width=3, hidden=3, state=3, clip_length=2)
        clip = random_clip(rng, model)
        cache = forward_clip(model, clip)
        prior = PriorSpec.one_hot(3, int(rng.integers(3)), step=1)
        fm, _ = eb_recurrent_backward(cache, prior)
        want = enumerate_path_masses(model, cache, prior, "feature")
        np.testing.assert_allclose(fm, want, atol=1e-9)
        # and on through the frame CNN to the pixels
        seq = run_saliency(model, clip, prior, "EB-R", "input")
        want_px = enumerate_path_masses(model, cache, prior, "input")
        total = fm.sum()
        if total > 0:
            for t in range(clip.length):
                np.testing.assert_allclose(seq.maps[t], want_px[t] / total, atol=1e-9)


def test_layer_records_conserve_mass(rng):
    model = conv_chain_model(rng)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=model.clip_length - 1)
    for mode in ("EB", "cEB", "EB-R", "cEB-R"):
        seq = run_saliency(model, clip, prior, mode, "input")
        # every live branch delivers mass 1 (per frame in the frame-wise
        # modes); the dual branch enters negated
        frames = [""] if mode.endswith("-R") else [f"[{t}]" for t in range(clip.length)]
        expected = sum(f"pos{f}" not in seq.zero_branches for f in frames)
        if mode.startswith("c"):
            expected -= sum(f"dual{f}" not in seq.zero_branches for f in frames)
        assert [name for name, _, _ in seq.layer_records] == [
            "relu2", "fc1", "flat1", "pool1", "relu1", "conv1", "input"
        ]
        for name, mass, leak_above in seq.layer_records:
            np.testing.assert_allclose(mass + leak_above, expected, atol=1e-9, err_msg=mode)


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_forwards_the_clip_once(rng, monkeypatch, mode):
    import ebr.eb
    import ebr.gradients

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].length)
        return forward_clip(*args, **kwargs)

    monkeypatch.setattr(ebr.eb, "forward_clip", counting)
    monkeypatch.setattr(ebr.gradients, "forward_clip", counting)
    model = conv_chain_model(rng)
    clip = random_clip(rng, model)
    run_saliency(model, clip, PriorSpec.one_hot(3, 0, step=1), mode, "input")
    assert calls == [clip.length]


def test_eb_mode_matches_eb_r_on_one_frame_clip(rng):
    model = conv_chain_model(rng, clip_length=1)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 1, step=0)
    eb = run_saliency(model, clip, prior, "EB", "conv1")
    ebr = run_saliency(model, clip, prior, "EB-R", "conv1")
    np.testing.assert_allclose(eb.maps[0], ebr.maps[0], atol=1e-12)


def test_ceb_frames_sum_to_zero(rng):
    model = conv_chain_model(rng, clip_length=2)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=0)
    seq = run_saliency(model, clip, prior, "cEB", "relu2")
    if not seq.zero_branches:
        for m in seq.maps:
            assert abs(m.sum()) <= 1e-9


def test_invalid_mode_and_layer(rng):
    model = fc_chain_model(rng)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=0)
    with pytest.raises(ValueError):
        run_saliency(model, clip, prior, "XYZ", "fc")
    with pytest.raises(ValueError):
        run_saliency(model, clip, prior, "EB-R", "cls")


def test_eb_on_cnn_only_model(rng):
    """Frame-independent modes work without any temporal aggregator."""
    model = conv_chain_model(rng, aggregator="none", clip_length=2)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=0)
    seq = run_saliency(model, clip, prior, "EB", "conv1")
    assert len(seq.maps) == 2
    assert min(m.min() for m in seq.maps) >= 0.0
    with pytest.raises(ValueError):
        run_saliency(model, clip, prior, "EB-R", "conv1")


def test_meanpool_model_eb_r(rng):
    model = conv_chain_model(rng, aggregator="temporal-mean-pool", clip_length=3)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=0)
    seq = run_saliency(model, clip, prior, "EB-R", "relu2")
    if not seq.zero_branches:
        total = sum(m.sum() for m in seq.maps)
        np.testing.assert_allclose(total + seq.leaked["cnn"], 1.0, atol=1e-9)


def test_zero_dual_branch_policy(rng):
    """A dual branch with no excitatory path yields zero maps, flagged."""
    model = fc_chain_model(rng, clip_length=2)
    model.tensors["cls_w"] = np.abs(model.tensors["cls_w"])  # dual all-negative
    clip = random_clip(rng, model, low=0.2)
    prior = PriorSpec.one_hot(3, 0, step=1)
    seq = run_saliency(model, clip, prior, "cEB-R", "relu_fc")
    assert "dual" in seq.zero_branches
    # maps equal the positive branch alone
    pos = run_saliency(model, clip, prior, "EB-R", "relu_fc")
    for t in range(2):
        np.testing.assert_allclose(seq.maps[t], pos.maps[t], atol=1e-12)


def test_saliency_save_load_roundtrip(tmp_path, rng):
    model = conv_chain_model(rng)
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=model.clip_length - 1)
    seq = run_saliency(model, clip, prior, "cEB-R", "conv1")
    save_saliency(seq, tmp_path / "s.ebt")
    maps, meta = load_saliency(tmp_path / "s.ebt")
    assert maps.shape == seq.spatial_maps().shape
    assert maps.tobytes() == seq.spatial_maps().tobytes()
    assert meta["mode"] == "cEB-R"
    assert meta["layer"] == "conv1"
    assert meta["prior"]["step"] == model.clip_length - 1


def test_load_saliency_rejects_stale_sidecar(tmp_path, rng):
    """The .ebt replaced without its sidecar, as a crash between the two
    moves of a saliency write would leave it."""
    model = conv_chain_model(rng)
    clip = random_clip(rng, model)
    final = tmp_path / "s.ebt"
    save_saliency(run_saliency(model, clip, PriorSpec.one_hot(3, 0, step=2), "EB-R", "conv1"), final)
    newer = tmp_path / "s.tmp"
    save_saliency(run_saliency(model, clip, PriorSpec.one_hot(3, 0, step=1), "EB-R", "conv1"), newer)
    newer.replace(final)
    with pytest.raises(SidecarMismatchError, match="sha256"):
        load_saliency(final)
    (tmp_path / "s.tmp.json").replace(tmp_path / "s.ebt.json")
    _, meta = load_saliency(final)
    assert meta["prior"]["step"] == 1


def test_load_saliency_rejects_missing_sidecar(tmp_path, rng):
    model = conv_chain_model(rng)
    seq = run_saliency(model, random_clip(rng, model), PriorSpec.one_hot(3, 0, step=2), "EB-R", "conv1")
    save_saliency(seq, tmp_path / "s.ebt")
    (tmp_path / "s.ebt.json").unlink()
    with pytest.raises(SidecarMismatchError, match="missing"):
        load_saliency(tmp_path / "s.ebt")


def test_eb_modes_refuse_model_breaking_non_negativity(rng, monkeypatch):
    """Without relu2 the fc output feeds the recurrence unrectified: the EB
    modes name the violation before any forward pass; BP has no such rule."""
    import ebr.eb

    model = conv_chain_model(rng)
    model.layers = [s for s in model.layers if s.name != "relu2"]
    clip = random_clip(rng, model)
    prior = PriorSpec.one_hot(3, 0, step=2)
    calls = []
    monkeypatch.setattr(ebr.eb, "forward_clip", lambda *a, **k: calls.append(a))
    for mode in ("EB", "cEB", "EB-R", "cEB-R"):
        with pytest.raises(NonNegativityError, match="rnn1") as err:
            run_saliency(model, clip, prior, mode, "conv1")
        assert len(err.value.violations) == 1
    assert calls == []
    for mode in ("BP", "BP-R"):
        assert run_saliency(model, clip, prior, mode, "conv1").length == clip.length
