"""Top-down spatiotemporal saliency for recurrent video models.

A single backward pass propagates winning probabilities from a chosen
output unit through the unrolled recurrence and the per-frame CNN,
yielding one saliency map per frame. The package also ships the grounding
and scoring utilities built on those maps, a synthetic benchmark with a
hand-constructed model, and a small CLI (``ebr``).
"""

from .eb import (
    AllZeroMassError,
    MODES,
    PriorSpec,
    SaliencySequence,
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
from .forward import (
    ActivationCache,
    Clip,
    forward_clip,
    forward_frame,
    load_clip,
    save_clip,
    softmax_probs,
)
from .gradients import bp_saliency
from .grounding import (
    Segment,
    SpatialPoint,
    fixed_length_ground,
    localization_accuracy,
    map_sums,
    pointing_accuracy,
    segment_iou,
    spatial_point,
    temporal_ground,
    temporal_point_game,
)
from .model import (
    LayerSpec,
    ManifestError,
    ModelManifest,
    NonNegativityError,
    parse_manifest,
    serialize_manifest,
    validate_eb_assumptions,
)
from .render import overlay_sequence, write_ppm
from .synth import (
    SynthClip,
    SynthSpec,
    build_toy_model,
    dataset_specs,
    gen_synthetic_clip,
    pattern_rect,
    probability_baseline,
)
from .tensorfile import (
    BadMagicError,
    RankError,
    TensorFileError,
    TruncatedPayloadError,
    load_tensor,
    save_tensor,
)

__version__ = "0.1.0"
