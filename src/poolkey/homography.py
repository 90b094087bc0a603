"""Frame-to-base homography estimation from mixed constraints.

Fixed key-points contribute full point correspondences (two equations).
Floating key-points only know which lane-rope they sit on, so they
contribute a single equation tying the projected y to the rope ordinate.
Estimation is direct linear transform on Hartley-normalized coordinates;
RANSAC wraps it for outlier rejection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    InsufficientConstraintsError,
    NoModelError,
    NumericError,
    ProjectiveError,
    ValidationError,
)
from .heatmap import DetectionSet
from .model import BasePoolModel, KeyPointId, LocationKind

# A constraint system must provide at least this many independent equations.
MIN_EQUATIONS = 8
_RANK_TOLERANCE = 1e-8
_W_EPSILON = 1e-12


class Homography:
    """3x3 projective map, canonical up to scale.

    The stored matrix has unit Frobenius norm and its last nonzero entry
    (row-major) positive, so two estimates of the same map compare equal
    entry-wise.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(3, 3)
        if not np.isfinite(m).all():
            raise NumericError("homography contains non-finite entries")
        norm = float(np.linalg.norm(m))
        if norm == 0.0:
            raise ValidationError("homography matrix is zero")
        m = m / norm
        flat = m.ravel()
        nonzero = np.nonzero(np.abs(flat) > _W_EPSILON)[0]
        if nonzero.size and flat[nonzero[-1]] < 0:
            m = -m
        if abs(np.linalg.det(m)) <= 1e-12:
            raise DegeneracyError("homography is not invertible")
        m.setflags(write=False)
        self.matrix = m

    def flat(self) -> list[float]:
        return [float(x) for x in self.matrix.ravel()]

    def inverse(self) -> Homography:
        return Homography(np.linalg.inv(self.matrix))

    def __repr__(self) -> str:
        return f"Homography({self.matrix.tolist()})"


def project(h: Homography, point: Sequence[float]) -> tuple[float, float]:
    """Apply the map to one point; raises if it lands at infinity."""
    u, v = point
    m = h.matrix
    w = m[2, 0] * u + m[2, 1] * v + m[2, 2]
    if abs(w) < _W_EPSILON:
        raise ProjectiveError(f"point ({u}, {v}) maps to infinity")
    x = (m[0, 0] * u + m[0, 1] * v + m[0, 2]) / w
    y = (m[1, 0] * u + m[1, 1] * v + m[1, 2]) / w
    return (x, y)


class ConstraintKind(enum.Enum):
    POINT_POINT = "point_point"
    POINT_ON_HORIZONTAL_LINE = "point_on_horizontal_line"


@dataclass(frozen=True)
class Correspondence:
    """One image observation tied to base geometry."""

    kind: ConstraintKind
    image: tuple[float, float]
    base_point: tuple[float, float] | None = None
    base_y: float | None = None
    kp: KeyPointId | None = None

    def __post_init__(self):
        if self.kind is ConstraintKind.POINT_POINT and self.base_point is None:
            raise ValidationError("point correspondence requires base_point")
        if (
            self.kind is ConstraintKind.POINT_ON_HORIZONTAL_LINE
            and self.base_y is None
        ):
            raise ValidationError("line correspondence requires base_y")

    @property
    def equations(self) -> int:
        return 2 if self.kind is ConstraintKind.POINT_POINT else 1

    @classmethod
    def point(
        cls,
        image: tuple[float, float],
        base: tuple[float, float],
        kp: KeyPointId | None = None,
    ) -> Correspondence:
        return cls(ConstraintKind.POINT_POINT, tuple(image), tuple(base), None, kp)

    @classmethod
    def on_line(
        cls,
        image: tuple[float, float],
        base_y: float,
        kp: KeyPointId | None = None,
    ) -> Correspondence:
        return cls(
            ConstraintKind.POINT_ON_HORIZONTAL_LINE,
            tuple(image),
            None,
            float(base_y),
            kp,
        )


def _similarity(points: np.ndarray) -> np.ndarray:
    """Hartley normalizer: centroid to origin, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    spread = float(np.sqrt(((points - centroid) ** 2).sum(axis=1)).mean())
    scale = math.sqrt(2.0) / spread if spread > 1e-12 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _count(corrs: Sequence[Correspondence]) -> tuple[int, int]:
    points = sum(1 for c in corrs if c.kind is ConstraintKind.POINT_POINT)
    return points, len(corrs) - points


def estimate_dlt(corrs: Sequence[Correspondence]) -> Homography:
    """Least-squares homography from point and point-on-line constraints.

    Image points and base fixed points are Hartley-normalized; line
    ordinates follow the base normalizer, which is a pure scale plus
    translation and therefore keeps horizontal lines horizontal.
    """
    corrs = tuple(corrs)
    n_points, n_lines = _count(corrs)
    n_equations = 2 * n_points + n_lines
    if n_equations < MIN_EQUATIONS:
        raise InsufficientConstraintsError(
            f"need at least {MIN_EQUATIONS} equations, have {n_equations} "
            f"({n_points} point pairs, {n_lines} line constraints)"
        )
    image = np.array([c.image for c in corrs])
    t_image = _similarity(image)
    fixed = np.array(
        [c.base_point for c in corrs if c.kind is ConstraintKind.POINT_POINT]
    )
    t_base = _similarity(fixed) if len(fixed) else np.eye(3)
    base_scale = t_base[0, 0]
    base_ty = t_base[1, 2]

    rows = []
    normalized = image @ t_image[:2, :2].T + t_image[:2, 2]
    for c, (u, v) in zip(corrs, normalized):
        if c.kind is ConstraintKind.POINT_POINT:
            x = base_scale * c.base_point[0] + t_base[0, 2]
            y = base_scale * c.base_point[1] + base_ty
            rows.append([u, v, 1.0, 0.0, 0.0, 0.0, -x * u, -x * v, -x])
        else:
            y = base_scale * c.base_y + base_ty
        rows.append([0.0, 0.0, 0.0, u, v, 1.0, -y * u, -y * v, -y])
    a = np.array(rows)
    _, singular, vt = np.linalg.svd(a)
    if singular[0] <= 0 or singular[7] / singular[0] < _RANK_TOLERANCE:
        raise DegeneracyError(
            "constraint system is rank-deficient; the key-point configuration "
            "does not determine a homography"
        )
    h_normalized = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_base) @ h_normalized @ t_image
    return Homography(h)


def residuals(h: Homography, corrs: Sequence[Correspondence]) -> np.ndarray:
    """Per-correspondence residual in base units; infinite past the horizon."""
    m = h.matrix
    out = np.empty(len(corrs))
    for i, c in enumerate(corrs):
        u, v = c.image
        w = m[2, 0] * u + m[2, 1] * v + m[2, 2]
        if abs(w) < _W_EPSILON:
            out[i] = np.inf
            continue
        y = (m[1, 0] * u + m[1, 1] * v + m[1, 2]) / w
        if c.kind is ConstraintKind.POINT_POINT:
            x = (m[0, 0] * u + m[0, 1] * v + m[0, 2]) / w
            out[i] = math.hypot(x - c.base_point[0], y - c.base_point[1])
        else:
            out[i] = abs(y - c.base_y)
    return out


@dataclass(frozen=True)
class RansacParams:
    iterations: int = 1000
    inlier_threshold_px: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("iterations must be at least 1")
        if self.inlier_threshold_px <= 0:
            raise ValidationError("inlier_threshold_px must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def estimate_ransac(
    corrs: Sequence[Correspondence], params: RansacParams
) -> tuple[Homography, np.ndarray]:
    """Robust estimate plus a boolean inlier mask.

    Each iteration draws a uniformly random minimal sample (the shortest
    permutation prefix reaching eight equations), fits it exactly, and
    scores consensus size with total inlier residual as the tie-break.
    The winning consensus is re-fit with the full least-squares DLT.
    """
    corrs = tuple(corrs)
    equations = np.array([c.equations for c in corrs])
    if equations.sum() < MIN_EQUATIONS:
        n_points, n_lines = _count(corrs)
        raise InsufficientConstraintsError(
            f"need at least {MIN_EQUATIONS} equations, have {equations.sum()} "
            f"({n_points} point pairs, {n_lines} line constraints)"
        )
    rng = np.random.default_rng(params.seed)
    best_key: tuple[int, float] | None = None
    best_mask: np.ndarray | None = None
    for _ in range(params.iterations):
        order = rng.permutation(len(corrs))
        cumulative = np.cumsum(equations[order])
        sample = order[: int(np.searchsorted(cumulative, MIN_EQUATIONS) + 1)]
        try:
            candidate = estimate_dlt([corrs[i] for i in sample])
        except (DegeneracyError, InsufficientConstraintsError):
            continue
        r = residuals(candidate, corrs)
        mask = r <= params.inlier_threshold_px
        if equations[mask].sum() < MIN_EQUATIONS:
            continue
        key = (int(mask.sum()), -float(r[mask].sum()))
        if best_key is None or key > best_key:
            best_key = key
            best_mask = mask
    if best_mask is None:
        raise NoModelError(
            f"no sample produced a usable consensus in {params.iterations} iterations"
        )
    try:
        final = estimate_dlt([c for c, keep in zip(corrs, best_mask) if keep])
    except (DegeneracyError, InsufficientConstraintsError) as exc:
        raise NoModelError(f"consensus set could not be re-estimated: {exc}") from exc
    final_residuals = residuals(final, corrs)
    return final, final_residuals <= params.inlier_threshold_px


def build_correspondences(
    det: DetectionSet, model: BasePoolModel, scale_px_per_m: float
) -> tuple[list[Correspondence], list[KeyPointId]]:
    """Turn detections into constraints against the base image.

    Fixed key-points become point correspondences in base pixels; floating
    key-points constrain only the base ordinate of their lane-rope.
    Detections whose key-point does not exist in this pool configuration
    have no base geometry and are reported back as skipped.
    """
    if scale_px_per_m <= 0:
        raise ValidationError("scale_px_per_m must be positive")
    correspondences: list[Correspondence] = []
    skipped: list[KeyPointId] = []
    for d in det.detections:
        entry = model.entries[d.kp]
        if not entry.exists:
            skipped.append(d.kp)
            continue
        location = entry.location
        if location.kind is LocationKind.FIXED_POINT:
            correspondences.append(
                Correspondence.point(
                    (d.u, d.v),
                    (location.x_m * scale_px_per_m, location.y_m * scale_px_per_m),
                    d.kp,
                )
            )
        else:
            correspondences.append(
                Correspondence.on_line((d.u, d.v), location.y_m * scale_px_per_m, d.kp)
            )
    return correspondences, skipped


@dataclass(frozen=True)
class LocalizeResult:
    homography: Homography
    inlier_mask: np.ndarray
    correspondences: tuple[Correspondence, ...]
    point_count: int
    line_count: int
    skipped: tuple[KeyPointId, ...]
    mean_residual_px: float

    @property
    def inlier_count(self) -> int:
        return int(self.inlier_mask.sum())


def localize_frame(
    det: DetectionSet,
    model: BasePoolModel,
    scale_px_per_m: float = 20.0,
    params: RansacParams = RansacParams(),
) -> LocalizeResult:
    """Estimate the frame-to-base-pixels map from one frame's detections."""
    correspondences, skipped = build_correspondences(det, model, scale_px_per_m)
    n_points, n_lines = _count(correspondences)
    n_equations = 2 * n_points + n_lines
    if n_equations < MIN_EQUATIONS:
        raise InsufficientConstraintsError(
            f"not enough detections to localize: {n_points} fixed points and "
            f"{n_lines} floating constraints give {n_equations} equations "
            f"({MIN_EQUATIONS} required); {len(skipped)} detections had no "
            "base geometry"
        )
    if n_points == 0:
        raise DegeneracyError(
            "only floating key-points were detected; horizontal lines alone "
            "cannot fix the horizontal scale or translation"
        )
    h, mask = estimate_ransac(correspondences, params)
    r = residuals(h, correspondences)
    mean_residual = float(r[mask].mean()) if mask.any() else float("inf")
    return LocalizeResult(
        homography=h,
        inlier_mask=mask,
        correspondences=tuple(correspondences),
        point_count=n_points,
        line_count=n_lines,
        skipped=tuple(skipped),
        mean_residual_px=mean_residual,
    )


def localize_result_to_dict(result: LocalizeResult, frame_id: str) -> dict:
    return {
        "frame_id": frame_id,
        "h": result.homography.flat(),
        "inliers": result.inlier_count,
        "mean_residual_px": result.mean_residual_px,
        "constraints": {"point": result.point_count, "line": result.line_count},
    }
