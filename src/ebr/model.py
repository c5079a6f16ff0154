"""Declarative layer-chain models: a JSON manifest plus .ebt weight blobs.

A model is an ordered chain of layers ending in exactly one classifier.
The manifest is a UTF-8 JSON document with ``format_version: 1``:

    {
      "format_version": 1,
      "input": {"channels": 1, "height": 32, "width": 32, "clip_length": 16},
      "labels": ["class_0", "..."],
      "layers": [
        {"kind": "conv2d", "name": "conv1", "in_channels": 1,
         "out_channels": 4, "kernel": [12, 12], "stride": 4, "padding": 4,
         "weights": {"weight": "conv1_w", "bias": "conv1_b"}},
        {"kind": "relu", "name": "relu1"},
        {"kind": "maxpool2d", "name": "pool1", "window": 2, "stride": 2},
        {"kind": "flatten", "name": "flat1"},
        {"kind": "fully-connected", "name": "fc1", "in_dim": 64, "out_dim": 4,
         "weights": {"weight": "fc1_w", "bias": "fc1_b"}},
        {"kind": "relu", "name": "relu2"},
        {"kind": "recurrent-relu", "name": "rnn1", "in_dim": 4, "out_dim": 4,
         "weights": {"input": "rnn1_wx", "hidden": "rnn1_wh"}},
        {"kind": "classifier", "name": "cls", "in_dim": 4, "out_dim": 4,
         "weights": {"weight": "cls_w"}}
      ]
    }

Weight references name sibling ``<ref>.ebt`` files in the manifest's
directory. Linear weights are stored ``[out_dim, in_dim]``, conv weights
``[out_channels, in_channels, kh, kw]``, biases ``[out_dim]``. Kernel,
stride, padding and window accept an int or an ``[h, w]`` pair.

The recurrent unit is an Elman-style ReLU cell,
``h_t = relu(Wx x_t + Wh h_{t-1} + b)`` with ``h_0 = 0``; gated cells are
deliberately not part of the format. Biases participate in the forward
pass only; the backward probability propagation never assigns them mass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .tensorfile import load_tensor, save_tensor

FORMAT_VERSION = 1

LAYER_KINDS = (
    "conv2d",
    "relu",
    "maxpool2d",
    "flatten",
    "fully-connected",
    "temporal-mean-pool",
    "recurrent-relu",
    "classifier",
)
AGGREGATOR_KINDS = ("recurrent-relu", "temporal-mean-pool")


class ManifestError(Exception):
    """Structurally invalid manifest or weight set."""


class ShapeMismatchError(ManifestError):
    pass


class MissingWeightError(ManifestError):
    pass


class DuplicateLayerNameError(ManifestError):
    pass


class NonNegativityError(ManifestError):
    """The model breaks a structural rule of :func:`validate_eb_assumptions`,
    so an EB competition could be fed negative activations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "model violates the non-negativity assumptions:\n  " + "\n  ".join(self.violations)
        )


def _pair(v, what: str, minimum: int = 1) -> tuple[int, int]:
    if isinstance(v, int):
        v = [v, v]
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(isinstance(x, int) for x in v):
        if any(x < minimum for x in v):
            raise ManifestError(f"{what} must be >= {minimum}, got {v}")
        return (v[0], v[1])
    raise ManifestError(f"{what} must be an int or [h, w] pair, got {v!r}")


@dataclass
class LayerSpec:
    kind: str
    name: str
    # conv2d
    in_channels: int | None = None
    out_channels: int | None = None
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] | None = None
    # maxpool2d
    window: tuple[int, int] | None = None
    # fully-connected / recurrent-relu / temporal-mean-pool / classifier
    in_dim: int | None = None
    out_dim: int | None = None
    # role -> tensor name in the weight blob
    weights: dict[str, str] = field(default_factory=dict)


@dataclass
class ModelManifest:
    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]  # (channels, height, width)
    clip_length: int
    labels: list[str]
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def weight(self, spec: LayerSpec, role: str) -> np.ndarray:
        return self.tensors[spec.weights[role]]

    def bias(self, spec: LayerSpec, role: str = "bias") -> np.ndarray | None:
        ref = spec.weights.get(role)
        return None if ref is None else self.tensors[ref]

    def aggregator_index(self) -> int | None:
        """Index of the temporal aggregator layer, or None for CNN-only chains."""
        for i, spec in enumerate(self.layers):
            if spec.kind in AGGREGATOR_KINDS:
                return i
        return None

    def cnn_stack(self) -> list[LayerSpec]:
        """Frame-level layers, i.e. everything below the aggregator/classifier."""
        agg = self.aggregator_index()
        end = agg if agg is not None else len(self.layers) - 1
        return self.layers[:end]

    def classifier(self) -> LayerSpec:
        return self.layers[-1]


def _layer_from_json(obj: dict) -> LayerSpec:
    if not isinstance(obj, dict):
        raise ManifestError(f"layer entry must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    name = obj.get("name")
    if kind not in LAYER_KINDS:
        raise ManifestError(f"unknown layer kind {kind!r}")
    if not isinstance(name, str) or not name:
        raise ManifestError(f"layer of kind {kind!r} has no usable name")
    spec = LayerSpec(kind=kind, name=name)
    if kind == "conv2d":
        spec.in_channels = int(obj["in_channels"])
        spec.out_channels = int(obj["out_channels"])
        spec.kernel = _pair(obj["kernel"], f"{name}.kernel")
        spec.stride = _pair(obj.get("stride", 1), f"{name}.stride")
        spec.padding = _pair(obj.get("padding", 0), f"{name}.padding", minimum=0)
    elif kind == "maxpool2d":
        spec.window = _pair(obj["window"], f"{name}.window")
        spec.stride = _pair(obj.get("stride", obj["window"]), f"{name}.stride")
    elif kind in ("fully-connected", "recurrent-relu", "classifier"):
        spec.in_dim = int(obj["in_dim"])
        spec.out_dim = int(obj["out_dim"])
    elif kind == "temporal-mean-pool":
        spec.in_dim = int(obj["in_dim"])
        spec.out_dim = int(obj.get("out_dim", obj["in_dim"]))
        if spec.out_dim != spec.in_dim:
            raise ManifestError(f"{name}: temporal-mean-pool cannot change width")
    w = obj.get("weights", {})
    if not isinstance(w, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in w.items()
    ):
        raise ManifestError(f"{name}: weights must map role names to tensor names")
    spec.weights = dict(w)
    return spec


_WEIGHT_ROLES = {
    "conv2d": ({"weight"}, {"bias"}),
    "fully-connected": ({"weight"}, {"bias"}),
    "classifier": ({"weight"}, {"bias"}),
    "recurrent-relu": ({"input", "hidden"}, {"bias"}),
    "relu": (set(), set()),
    "maxpool2d": (set(), set()),
    "flatten": (set(), set()),
    "temporal-mean-pool": (set(), set()),
}


def _expected_weight_shapes(spec: LayerSpec) -> dict[str, tuple[int, ...]]:
    if spec.kind == "conv2d":
        kh, kw = spec.kernel
        return {
            "weight": (spec.out_channels, spec.in_channels, kh, kw),
            "bias": (spec.out_channels,),
        }
    if spec.kind in ("fully-connected", "classifier"):
        return {"weight": (spec.out_dim, spec.in_dim), "bias": (spec.out_dim,)}
    if spec.kind == "recurrent-relu":
        return {
            "input": (spec.out_dim, spec.in_dim),
            "hidden": (spec.out_dim, spec.out_dim),
            "bias": (spec.out_dim,),
        }
    return {}


def conv_output_hw(
    hw: tuple[int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[int, int]:
    oh = (hw[0] + 2 * padding[0] - kernel[0]) // stride[0] + 1
    ow = (hw[1] + 2 * padding[1] - kernel[1]) // stride[1] + 1
    return oh, ow


def _chain_shapes(m: ModelManifest) -> dict[str, tuple[int, ...]]:
    """Output shape of each layer, validating compatibility along the chain."""
    shape: tuple[int, ...] = m.input_shape
    out: dict[str, tuple[int, ...]] = {}
    for spec in m.layers:
        if spec.kind == "conv2d":
            if len(shape) != 3 or shape[0] != spec.in_channels:
                raise ShapeMismatchError(
                    f"{spec.name}: expects {spec.in_channels} channels, input is {shape}"
                )
            oh, ow = conv_output_hw(shape[1:], spec.kernel, spec.stride, spec.padding)
            if oh <= 0 or ow <= 0:
                raise ShapeMismatchError(f"{spec.name}: kernel larger than padded input")
            shape = (spec.out_channels, oh, ow)
        elif spec.kind == "maxpool2d":
            if len(shape) != 3:
                raise ShapeMismatchError(f"{spec.name}: maxpool2d needs a 3-d input, got {shape}")
            oh, ow = conv_output_hw(shape[1:], spec.window, spec.stride, (0, 0))
            if oh <= 0 or ow <= 0:
                raise ShapeMismatchError(f"{spec.name}: window larger than input")
            shape = (shape[0], oh, ow)
        elif spec.kind == "relu":
            pass
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif spec.kind in ("fully-connected", "classifier", "recurrent-relu", "temporal-mean-pool"):
            if len(shape) != 1 or shape[0] != spec.in_dim:
                raise ShapeMismatchError(
                    f"{spec.name}: expects a vector of {spec.in_dim}, input is {shape}"
                )
            shape = (spec.out_dim,)
        out[spec.name] = shape
    return out


def _validate(m: ModelManifest) -> None:
    if not m.layers:
        raise ManifestError("model has no layers")
    names = [s.name for s in m.layers]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise DuplicateLayerNameError(f"duplicate layer names: {dup}")
    n_classifiers = sum(1 for s in m.layers if s.kind == "classifier")
    if n_classifiers != 1 or m.layers[-1].kind != "classifier":
        raise ManifestError("model must end in exactly one classifier layer")
    if len(m.labels) != m.layers[-1].out_dim:
        raise ManifestError(
            f"{len(m.labels)} labels but classifier emits {m.layers[-1].out_dim} units"
        )
    for spec in m.layers:
        required, optional = _WEIGHT_ROLES[spec.kind]
        have = set(spec.weights)
        missing = required - have
        if missing:
            raise MissingWeightError(f"{spec.name}: missing weight role(s) {sorted(missing)}")
        unknown = have - required - optional
        if unknown:
            raise ManifestError(f"{spec.name}: unexpected weight role(s) {sorted(unknown)}")
        expected = _expected_weight_shapes(spec)
        for role in have:
            ref = spec.weights[role]
            if ref not in m.tensors:
                raise MissingWeightError(f"{spec.name}: weight tensor {ref!r} not loaded")
            got = m.tensors[ref].shape
            if got != expected[role]:
                raise ShapeMismatchError(
                    f"{spec.name}.{role}: weight {ref!r} has shape {got}, expected {expected[role]}"
                )
            if not np.all(np.isfinite(m.tensors[ref])):
                raise ManifestError(f"{spec.name}.{role}: weight {ref!r} holds non-finite values")
    _chain_shapes(m)


def parse_manifest(path) -> ModelManifest:
    """Load and fully validate a manifest plus its sibling weight tensors."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ManifestError(f"cannot parse {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ManifestError(
            f"{path}: format_version {doc.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    try:
        inp = doc["input"]
        input_shape = (int(inp["channels"]), int(inp["height"]), int(inp["width"]))
        clip_length = int(inp["clip_length"])
        labels = [str(x) for x in doc["labels"]]
        layer_objs = doc["layers"]
    except (KeyError, TypeError, ValueError) as e:
        raise ManifestError(f"{path}: {e}") from e
    if clip_length <= 0 or any(x <= 0 for x in input_shape):
        raise ManifestError(f"{path}: input extents and clip_length must be positive")
    layers = [_layer_from_json(obj) for obj in layer_objs]
    base = os.path.dirname(os.path.abspath(path))
    tensors: dict[str, np.ndarray] = {}
    for spec in layers:
        for ref in spec.weights.values():
            if ref in tensors:
                continue
            blob = os.path.join(base, ref + ".ebt")
            if not os.path.exists(blob):
                raise MissingWeightError(f"{spec.name}: weight file {blob} not found")
            tensors[ref] = load_tensor(blob)
    m = ModelManifest(
        layers=layers,
        input_shape=input_shape,
        clip_length=clip_length,
        labels=labels,
        tensors=tensors,
    )
    _validate(m)
    return m


def manifest_to_json(m: ModelManifest) -> dict:
    layers = []
    for spec in m.layers:
        obj: dict = {"kind": spec.kind, "name": spec.name}
        if spec.kind == "conv2d":
            obj.update(
                in_channels=spec.in_channels,
                out_channels=spec.out_channels,
                kernel=list(spec.kernel),
                stride=list(spec.stride),
                padding=list(spec.padding),
            )
        elif spec.kind == "maxpool2d":
            obj.update(window=list(spec.window), stride=list(spec.stride))
        elif spec.kind in ("fully-connected", "recurrent-relu", "classifier", "temporal-mean-pool"):
            obj.update(in_dim=spec.in_dim, out_dim=spec.out_dim)
        if spec.weights:
            obj["weights"] = dict(spec.weights)
        layers.append(obj)
    return {
        "format_version": FORMAT_VERSION,
        "input": {
            "channels": m.input_shape[0],
            "height": m.input_shape[1],
            "width": m.input_shape[2],
            "clip_length": m.clip_length,
        },
        "labels": list(m.labels),
        "layers": layers,
    }


def serialize_manifest(m: ModelManifest, path) -> None:
    """Write the manifest JSON and one .ebt file per referenced tensor."""
    _validate(m)
    base = os.path.dirname(os.path.abspath(path))
    os.makedirs(base, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest_to_json(m), f, indent=2, sort_keys=True)
        f.write("\n")
    for spec in m.layers:
        for ref in spec.weights.values():
            save_tensor(m.tensors[ref], os.path.join(base, ref + ".ebt"))


def _effective_source(m: ModelManifest, idx: int) -> str:
    """Kind of the layer feeding layer idx, looking through shape-only layers."""
    j = idx - 1
    while j >= 0 and m.layers[j].kind in ("flatten", "maxpool2d"):
        j -= 1
    return m.layers[j].kind if j >= 0 else "input"


def validate_eb_assumptions(m: ModelManifest) -> list[str]:
    """Check the structural rules that keep every competition input non-negative.

    Each layer that distributes probability mass over its inputs (conv,
    fully-connected, classifier and the temporal aggregator) must be fed,
    ignoring flatten/maxpool reshuffles, by a relu, a recurrent-relu state,
    or the raw [0,1] input. Returns a list of human-readable violations;
    an empty list means the model satisfies the non-negativity assumption.
    """
    violations: list[str] = []
    agg_indices = [i for i, s in enumerate(m.layers) if s.kind in AGGREGATOR_KINDS]
    if len(agg_indices) > 1:
        names = ", ".join(m.layers[i].name for i in agg_indices)
        violations.append(f"more than one temporal aggregator layer: {names}")
    if agg_indices:
        first = agg_indices[0]
        for later in m.layers[first + 1 : -1]:
            if later.kind not in AGGREGATOR_KINDS:
                violations.append(
                    f"layer {later.name!r} ({later.kind}) appears after the temporal "
                    f"aggregator; only the classifier may follow it"
                )
    competition = ("conv2d", "fully-connected", "classifier") + AGGREGATOR_KINDS
    ok_sources = ("relu", "recurrent-relu", "temporal-mean-pool", "input")
    for i, spec in enumerate(m.layers):
        if spec.kind not in competition:
            continue
        src = _effective_source(m, i)
        if src not in ok_sources:
            violations.append(
                f"layer {spec.name!r} ({spec.kind}) is fed by a {src} output, "
                f"which is not guaranteed non-negative; insert a relu"
            )
    return violations
