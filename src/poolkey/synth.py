"""Synthetic scenes: seeded cameras, projected annotations, noisy volumes.

Scenes let the decode, evaluate, and localize stages be exercised end to end
without footage. A sampled camera maps base pixels to frame pixels; the
projected annotation keeps every fixed key-point that lands inside the frame
and materializes floating key-points where lane-ropes cross the frame's left
or right edge. Volumes place a probability peak at each annotated cell, with
optional location jitter, dropout, and spurious peaks on absent channels.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DegeneracyError,
    NumericError,
    SamplingError,
    ShapeError,
    ValidationError,
)
from .heatmap import (
    AnnotationPoint,
    Detection,
    DetectionSet,
    FrameAnnotation,
    HeatmapVolume,
    PeakPlan,
    in_frame,
    nearest_cell,
    write_volume,
)
from .homography import Homography, build_correspondences, estimate_dlt
from .model import (
    CHANNEL_IDS,
    BasePoolModel,
    KeyPointClass,
    _check_scale,
    _write_json,
    base_pixel_coordinates,
)

_RETRY_BUDGET = 200
# what Homography(...) and estimate_dlt raise for a camera unfit to use
_UNUSABLE_CAMERA = (DegeneracyError, NumericError, ValidationError)


@dataclass(frozen=True)
class CameraJitter:
    """Uniform perturbation ranges applied around the nominal framing."""

    rotation_deg: float = 10.0
    perspective: float = 3e-4
    scale: float = 0.15
    translation: float = 0.08  # fraction of the frame size

    @classmethod
    def none(cls) -> CameraJitter:
        return cls(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class NoiseParams:
    loc_sigma_px: float = 0.0
    dropout_rate: float = 0.0
    false_positive_rate: float = 0.0
    peak_mass: float = 1.0

    def __post_init__(self):
        if not 0 <= self.loc_sigma_px < math.inf:
            raise ValidationError("loc_sigma_px must be non-negative and finite")
        for name in ("dropout_rate", "false_positive_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 < self.peak_mass <= 1.0:
            raise ValidationError("peak_mass must lie in (0, 1]")


@dataclass(frozen=True)
class SynthParams:
    frame_rows: int = 288
    frame_cols: int = 512
    view: str = "full"
    jitter: CameraJitter = field(default_factory=CameraJitter)
    noise: NoiseParams = field(default_factory=NoiseParams)
    scale_px_per_m: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.frame_rows < 16 or self.frame_cols < 16:
            raise ValidationError("frames smaller than 16x16 are not supported")
        if self.view not in ("full", "partial"):
            raise ValidationError(f"view must be 'full' or 'partial', got {self.view!r}")
        _check_scale(self.scale_px_per_m)
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class SynthScene:
    homography_gt: Homography  # frame pixels -> base pixels
    annotation: FrameAnnotation
    plan: PeakPlan  # the volume's peaks, which write_volume streams

    @cached_property
    def volume(self) -> HeatmapVolume:
        """The planned volume, built when first read."""
        return self.plan.volume()


def thread_map(fn, items, workers: int) -> list:
    """fn over items in input order, on up to `workers` threads."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def scene_rng(seed: int, index: int) -> np.random.Generator:
    """Per-scene stream derived from (seed, index), so order and parallelism
    cannot change the draws."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _jitter_matrix(
    jitter: CameraJitter, rng: np.random.Generator, rows: int, cols: int
) -> np.ndarray:
    theta = math.radians(rng.uniform(-jitter.rotation_deg, jitter.rotation_deg))
    scale = 1.0 + rng.uniform(-jitter.scale, jitter.scale)
    tx = rng.uniform(-jitter.translation, jitter.translation) * cols
    ty = rng.uniform(-jitter.translation, jitter.translation) * rows
    p1 = rng.uniform(-jitter.perspective, jitter.perspective)
    p2 = rng.uniform(-jitter.perspective, jitter.perspective)
    cx, cy = cols / 2.0, rows / 2.0
    to_center = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    rot = np.array(
        [
            [scale * math.cos(theta), -scale * math.sin(theta), 0.0],
            [scale * math.sin(theta), scale * math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    perspective = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [p1, p2, 1.0]])
    back = np.array([[1, 0, cx + tx], [0, 1, cy + ty], [0, 0, 1]], dtype=np.float64)
    return back @ perspective @ rot @ to_center


def _project_safe(m: np.ndarray, x: float, y: float) -> tuple[float, float] | None:
    # points behind the camera or at the horizon are treated as not visible
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if w <= 1e-12:
        return None
    return (
        (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w,
        (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w,
    )


def _edge_crossing(
    e0: tuple[float, float], e1: tuple[float, float], edge_u: float, rows: int
) -> tuple[float, float] | None:
    a = e0[0] - edge_u
    b = e1[0] - edge_u
    if a * b >= 0:
        return None  # both rope ends on the same side of the edge
    t = a / (a - b)
    v = e0[1] + t * (e1[1] - e0[1])
    if 0.0 <= v <= rows - 1.0:
        return (edge_u, v)
    return None


def project_scene(
    model: BasePoolModel,
    camera: Homography,
    rows: int,
    cols: int,
    scale_px_per_m: float = 20.0,
    frame_id: str = "scene",
) -> FrameAnnotation:
    """Annotation an ideal labeler would produce for this camera.

    Fixed key-points keep their projected position when it falls inside the
    frame. A floating key-point appears where its lane-rope's projected
    segment crosses the frame's left edge (floating-left) or right edge
    (floating-right) within the frame's vertical extent.
    """
    m = camera.matrix
    basin_px = model.basin_length_m * scale_px_per_m
    points = []
    for kp, loc in base_pixel_coordinates(model, scale_px_per_m):
        if loc.x_px is not None:
            projected = _project_safe(m, loc.x_px, loc.y_px)
            if projected is None:
                continue
            if in_frame(*projected, rows, cols):
                points.append(AnnotationPoint(kp, *projected))
        else:
            e0 = _project_safe(m, 0.0, loc.y_px)
            e1 = _project_safe(m, basin_px, loc.y_px)
            if e0 is None or e1 is None:
                continue
            edge = 0.0 if kp.cls is KeyPointClass.FLOATING_LEFT else cols - 1.0
            crossing = _edge_crossing(e0, e1, edge, rows)
            if crossing is not None:
                points.append(AnnotationPoint(kp, crossing[0], crossing[1]))
    return FrameAnnotation(frame_id, rows, cols, tuple(points))


def perfect_detections(ann: FrameAnnotation) -> DetectionSet:
    """What an ideal detector would emit: every annotated point, exactly."""
    detections = tuple(Detection(p.kp, p.u, p.v, 0.0) for p in ann.points)
    return DetectionSet(ann.frame_id, ann.rows, ann.cols, detections)


def _wall_outside(
    m: np.ndarray, wall_x: float, height_px: float, rows: int, cols: int
) -> bool:
    for y in np.linspace(0.0, height_px, 25):
        projected = _project_safe(m, wall_x, y)
        if projected is None:
            return False
        if in_frame(*projected, rows, cols):
            return False
    return True


def _usable_scene(
    matrix: np.ndarray,
    model: BasePoolModel,
    params: SynthParams,
    clipped_side: str | None,
    extent_px: tuple[float, float],
) -> tuple[Homography, FrameAnnotation] | None:
    """The camera and its annotation, or None when the candidate is rejected."""
    rows, cols = params.frame_rows, params.frame_cols
    scale = params.scale_px_per_m
    width_px, height_px = extent_px
    corners = ((0.0, 0.0), (width_px, 0.0), (width_px, height_px), (0.0, height_px))
    projected = []
    for x, y in corners:
        p = _project_safe(matrix, x, y)
        if p is None:
            return None  # part of the pool sits behind the camera
        projected.append(p)
    try:
        camera = Homography(matrix)
    except _UNUSABLE_CAMERA:
        return None
    if clipped_side is None:
        if not all(0 <= u <= cols - 1 and 0 <= v <= rows - 1 for u, v in projected):
            return None
    else:
        wall_x = 0.0 if clipped_side == "left" else width_px
        if not _wall_outside(matrix, wall_x, height_px, rows, cols):
            return None
    ann = project_scene(model, camera, rows, cols, scale)
    floating = sum(1 for p in ann.points if p.kp.cls.value.startswith("floating"))
    fixed = len(ann.points) - floating
    if fixed < 4 or 2 * fixed + floating < 10:
        return None
    if clipped_side is not None and floating < 2:
        return None
    corrs, _ = build_correspondences(perfect_detections(ann), model, scale)
    try:
        estimate_dlt(corrs)
    except _UNUSABLE_CAMERA:
        return None
    return camera, ann


def _sample_camera(
    model: BasePoolModel, params: SynthParams, rng: np.random.Generator
) -> tuple[Homography, FrameAnnotation]:
    rows, cols = params.frame_rows, params.frame_cols
    scale = params.scale_px_per_m
    extent_px = (model.basin_length_m * scale, model.width_m * scale)
    width_px, height_px = extent_px
    fit = 0.88 * min(cols / width_px, rows / height_px)
    for _ in range(_RETRY_BUDGET):
        if params.view == "full":
            zoom = fit
            fx, fy = 0.5, 0.5
            clipped_side = None
        else:
            clipped_side = "left" if rng.random() < 0.5 else "right"
            zoom = fit * rng.uniform(1.7, 2.8)
            fx = rng.uniform(0.60, 0.80)
            if clipped_side == "right":
                fx = 1.0 - fx
            fy = rng.uniform(0.35, 0.65)
        focus_x = fx * width_px
        focus_y = fy * height_px
        # v grows downward in the frame, so the y axis flips
        base = np.array(
            [
                [zoom, 0.0, cols / 2.0 - zoom * focus_x],
                [0.0, -zoom, rows / 2.0 + zoom * focus_y],
                [0.0, 0.0, 1.0],
            ]
        )
        candidate = _jitter_matrix(params.jitter, rng, rows, cols) @ base
        scene = _usable_scene(candidate, model, params, clipped_side, extent_px)
        if scene is not None:
            return scene
    raise SamplingError(
        f"no usable {params.view}-view camera found in {_RETRY_BUDGET} attempts"
    )


def sample_camera(model: BasePoolModel, params: SynthParams) -> Homography:
    """Seeded base-to-frame camera draw honoring the view mode.

    Full view keeps the whole pool inside the frame; with zero jitter it is
    exactly the centered axis-aligned fit. Partial view zooms in so the
    chosen end wall lies outside the frame, which is what makes floating
    key-points appear.
    """
    return _sample_camera(model, params, scene_rng(params.seed, 0))[0]


def _synthesize_plan(
    ann: FrameAnnotation,
    rows: int,
    cols: int,
    noise: NoiseParams,
    rng: np.random.Generator,
) -> PeakPlan:
    if rows * cols < 2:
        raise ShapeError("volume needs at least two cells")
    # re-framed at rows x cols, so that an out-of-grid point is OutOfBoundsError
    annotated = FrameAnnotation(ann.frame_id, rows, cols, ann.points).by_id
    plan = {}
    for channel, kp in enumerate(CHANNEL_IDS):
        point = annotated.get(kp)
        if point is not None:
            if rng.random() < noise.dropout_rate:
                continue  # dropped key-point: channel stays flat
            du, dv = rng.normal(0.0, noise.loc_sigma_px, size=2)
            row = nearest_cell(point.v + dv, rows)
            col = nearest_cell(point.u + du, cols)
        elif rng.random() < noise.false_positive_rate:
            row, col = divmod(int(rng.integers(rows * cols)), cols)
        else:
            continue
        plan[channel] = (row, col, noise.peak_mass)
    return PeakPlan(rows, cols, plan)


def synthesize_volume(
    ann: FrameAnnotation, rows: int, cols: int, noise: NoiseParams, seed: int = 0
) -> HeatmapVolume:
    """Volume a detector with the given noise profile would output."""
    return _synthesize_plan(ann, rows, cols, noise, scene_rng(seed, 0)).volume()


def make_scene(
    model: BasePoolModel, params: SynthParams, index: int = 0
) -> SynthScene:
    """One deterministic scene: camera, annotation, and volume plan."""
    rng = scene_rng(params.seed, index)
    camera, annotation = _sample_camera(model, params, rng)
    annotation = replace(annotation, frame_id=f"scene_{index:04d}")
    plan = _synthesize_plan(
        annotation, params.frame_rows, params.frame_cols, params.noise, rng
    )
    return SynthScene(camera.inverse(), annotation, plan)


def generate_dataset(
    model: BasePoolModel,
    count: int,
    params: SynthParams,
    out_dir: str | Path,
    workers: int = 1,
) -> dict:
    """Write annotations, volumes, and ground-truth homographies plus a
    manifest; output bytes are identical across runs and worker counts."""
    from .annotation_io import write_annotation

    if count < 1:
        raise ValidationError("count must be at least 1")
    out = Path(out_dir)
    for sub in ("annotations", "volumes", "homographies"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    def build(index: int) -> dict:
        scene = make_scene(model, params, index)
        scene_id = scene.annotation.frame_id
        annotation_path = f"annotations/{scene_id}.json"
        volume_path = f"volumes/{scene_id}.pkhv"
        homography_path = f"homographies/{scene_id}.json"
        write_annotation(scene.annotation, out / annotation_path)
        write_volume(scene.plan, out / volume_path)
        homography = {"frame_id": scene_id, "h": scene.homography_gt.flat()}
        _write_json(homography, out / homography_path)
        return {
            "id": scene_id,
            "seed": [params.seed, index],
            "annotation_path": annotation_path,
            "volume_path": volume_path,
            "homography_path": homography_path,
        }

    scenes = thread_map(build, range(count), workers)
    manifest = {"params": asdict(params), "scenes": scenes}
    _write_json(manifest, out / "manifest.json")
    return manifest
