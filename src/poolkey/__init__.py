"""Swimming-pool key-point toolkit.

A canonical 96-point pool model, probability-volume encode/decode with an
entropy gate, precision/recall/F1 evaluation, homography-based localization
from mixed point and point-on-line constraints, synthetic scene generation,
and CVAT annotation ingestion.
"""

from .errors import (
    ConfigError,
    DegeneracyError,
    FormatError,
    InsufficientConstraintsError,
    NoModelError,
    NumericError,
    OutOfBoundsError,
    PoolError,
    ProjectiveError,
    SamplingError,
    ShapeError,
    ValidationError,
)
from .heatmap import (
    CHANNEL_COUNT,
    AnnotationPoint,
    DecodeParams,
    Detection,
    DetectionSet,
    FrameAnnotation,
    HeatmapVolume,
    channel_entropy,
    cross_entropy_loss,
    decode,
    make_target_volume,
    read_volume,
    softmax_normalize,
    write_volume,
)
from .homography import (
    Correspondence,
    Homography,
    LocalizeResult,
    RansacParams,
    build_correspondences,
    estimate_dlt,
    estimate_ransac,
    localize_frame,
    localize_result_to_dict,
    project,
    residuals,
)
from .metrics import (
    EvalParams,
    EvalReport,
    FrameScore,
    MatchCounts,
    ScopeScore,
    beta_sweep,
    evaluate,
    f1,
    match_frame,
    precision,
    recall,
    report_to_dict,
    tolerance_sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .model import (
    CHANNEL_IDS,
    BasePoolModel,
    KeyPointClass,
    KeyPointId,
    PoolConfig,
    base_pixel_coordinates,
    build_base_model,
    canonical_channel_index,
    keypoint_for_channel,
    model_from_dict,
    model_to_dict,
    read_model,
    standard_configs,
    write_model,
)
from .synth import (
    CameraJitter,
    NoiseParams,
    SynthParams,
    SynthScene,
    generate_dataset,
    make_scene,
    perfect_detections,
    project_scene,
    sample_camera,
    scene_rng,
    synthesize_volume,
)
from .annotation_io import (
    annotation_from_dict,
    annotation_to_dict,
    detections_from_dict,
    detections_to_dict,
    parse_cvat,
    read_annotation,
    read_cvat,
    read_detections,
    rescale_annotation,
    serialize_cvat,
    write_annotation,
    write_detections,
)

__version__ = "0.1.0"
