import json

import numpy as np
import pytest

from conftest import conv_chain_model, fc_chain_model, random_clip
from ebr.forward import forward_clip
from ebr.model import (
    DuplicateLayerNameError,
    LayerSpec,
    ManifestError,
    MissingWeightError,
    ModelManifest,
    ShapeMismatchError,
    manifest_to_json,
    parse_manifest,
    serialize_manifest,
    validate_eb_assumptions,
)
from ebr.synth import build_toy_model
from ebr.tensorfile import save_tensor


def minimal_manifest() -> ModelManifest:
    """conv -> relu -> flatten -> fc -> relu -> recurrent -> classifier."""
    tensors = {
        "conv_w": np.ones((2, 1, 2, 2)),
        "fc_w": np.ones((3, 8)),
        "rnn_wx": np.eye(3),
        "rnn_wh": 0.5 * np.eye(3),
        "cls_w": np.ones((2, 3)),
    }
    layers = [
        LayerSpec(kind="conv2d", name="conv1", in_channels=1, out_channels=2,
                  kernel=(2, 2), stride=(2, 2), padding=(0, 0), weights={"weight": "conv_w"}),
        LayerSpec(kind="relu", name="relu1"),
        LayerSpec(kind="flatten", name="flat1"),
        LayerSpec(kind="fully-connected", name="fc1", in_dim=8, out_dim=3,
                  weights={"weight": "fc_w"}),
        LayerSpec(kind="relu", name="relu2"),
        LayerSpec(kind="recurrent-relu", name="rnn1", in_dim=3, out_dim=3,
                  weights={"input": "rnn_wx", "hidden": "rnn_wh"}),
        LayerSpec(kind="classifier", name="cls", in_dim=3, out_dim=2,
                  weights={"weight": "cls_w"}),
    ]
    return ModelManifest(layers=layers, input_shape=(1, 4, 4), clip_length=2,
                         labels=["a", "b"], tensors=tensors)


def test_parse_minimal_manifest(tmp_path):
    serialize_manifest(minimal_manifest(), tmp_path / "manifest.json")
    m = parse_manifest(tmp_path / "manifest.json")
    assert len(m.layers) == 7
    assert [s.kind for s in m.layers] == [
        "conv2d", "relu", "flatten", "fully-connected", "relu", "recurrent-relu", "classifier",
    ]
    assert m.labels == ["a", "b"]


def test_manifest_roundtrip(tmp_path):
    m = minimal_manifest()
    serialize_manifest(m, tmp_path / "manifest.json")
    back = parse_manifest(tmp_path / "manifest.json")
    assert back.layers == m.layers
    assert back.input_shape == m.input_shape
    assert back.clip_length == m.clip_length
    assert back.labels == m.labels
    assert set(back.tensors) == set(m.tensors)
    for name in m.tensors:
        assert np.array_equal(back.tensors[name], m.tensors[name])


def test_fc_weight_reversed_is_shape_mismatch(tmp_path):
    m = minimal_manifest()
    m.tensors["fc_w"] = np.ones((8, 3))  # [in, out] instead of [out, in]
    with pytest.raises(ShapeMismatchError):
        serialize_manifest(m, tmp_path / "manifest.json")


def test_classifier_not_last_rejected(tmp_path):
    m = minimal_manifest()
    m.layers.append(LayerSpec(kind="relu", name="relu3"))
    with pytest.raises(ManifestError):
        serialize_manifest(m, tmp_path / "manifest.json")


def test_duplicate_layer_names_rejected(tmp_path):
    m = minimal_manifest()
    m.layers[1].name = "conv1"
    with pytest.raises(DuplicateLayerNameError):
        serialize_manifest(m, tmp_path / "manifest.json")


def test_missing_weight_file(tmp_path):
    m = minimal_manifest()
    serialize_manifest(m, tmp_path / "manifest.json")
    (tmp_path / "fc_w.ebt").unlink()
    with pytest.raises(MissingWeightError):
        parse_manifest(tmp_path / "manifest.json")


def test_label_count_must_match_classifier(tmp_path):
    m = minimal_manifest()
    m.labels = ["a", "b", "c"]
    with pytest.raises(ManifestError):
        serialize_manifest(m, tmp_path / "manifest.json")


def test_bad_format_version(tmp_path):
    serialize_manifest(minimal_manifest(), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        parse_manifest(tmp_path / "manifest.json")


def test_parse_error_on_garbage(tmp_path):
    (tmp_path / "manifest.json").write_text("{nope")
    with pytest.raises(ManifestError):
        parse_manifest(tmp_path / "manifest.json")


def test_validate_canonical_model_clean():
    assert validate_eb_assumptions(minimal_manifest()) == []
    assert validate_eb_assumptions(build_toy_model(4, (1, 32, 32), 8)) == []


def test_validate_conv_feeding_recurrent_directly():
    m = minimal_manifest()
    # drop relu2 so the fc output feeds the recurrence unrectified
    m.layers = [s for s in m.layers if s.name != "relu2"]
    violations = validate_eb_assumptions(m)
    assert len(violations) == 1
    assert "rnn1" in violations[0]


def test_validate_two_recurrent_layers():
    m = minimal_manifest()
    m.tensors["rnn2_wx"] = np.eye(3)
    m.tensors["rnn2_wh"] = np.eye(3)
    m.layers.insert(
        6,
        LayerSpec(kind="recurrent-relu", name="rnn2", in_dim=3, out_dim=3,
                  weights={"input": "rnn2_wx", "hidden": "rnn2_wh"}),
    )
    violations = validate_eb_assumptions(m)
    assert any("more than one temporal aggregator" in v for v in violations)


def test_forward_nonnegative_at_competition_outputs(rng):
    """A model passing validation keeps relu/state activations >= 0."""
    for trial in range(10):
        model = conv_chain_model(rng)
        assert validate_eb_assumptions(model) == []
        cache = forward_clip(model, random_clip(rng, model))
        for t in range(model.clip_length):
            for spec in model.cnn_stack():
                if spec.kind == "relu":
                    assert cache.per_frame[t][spec.name].min() >= 0.0
        assert cache.states.min() >= 0.0


def test_weight_blob_shape_checked_against_geometry(tmp_path):
    m = minimal_manifest()
    serialize_manifest(m, tmp_path / "manifest.json")
    save_tensor(np.ones((2, 1, 3, 3)), tmp_path / "conv_w.ebt")  # wrong kernel size
    with pytest.raises(ShapeMismatchError):
        parse_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_blob_rejected(tmp_path, bad):
    serialize_manifest(minimal_manifest(), tmp_path / "manifest.json")
    w = np.ones((3, 8))
    w[1, 2] = bad
    save_tensor(w, tmp_path / "fc_w.ebt")
    with pytest.raises(ManifestError, match="'fc_w' holds non-finite"):
        parse_manifest(tmp_path / "manifest.json")


def test_manifest_json_is_versioned():
    doc = manifest_to_json(fc_chain_model(np.random.default_rng(0)))
    assert doc["format_version"] == 1
