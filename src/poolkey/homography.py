"""Frame-to-base homography estimation from mixed constraints.

A correspondence ties an image point to a base point or to a base
ordinate, and which one it holds is its kind. Fixed key-points give base
points (two equations). Floating key-points only know which lane-rope they
sit on, so they give the rope's ordinate: one equation tying the projected
y to it.
Estimation is direct linear transform on Hartley-normalized coordinates;
RANSAC wraps it for outlier rejection.

RANSAC draws up to ``iterations`` times. Each draw is one
``rng.permutation(n)``, taken in seed order, and its minimal sample is the
shortest prefix reaching eight equations. Draws are handled in blocks of
``RANSAC_BLOCK``: the samples are normalized and packed as ``estimate_dlt``
packs them, into one zero-padded (block, 9, 9) stack solved by one batched
SVD, and every hypothesis is scored in one (block, n) residual array.
``estimate_dlt``'s rank test and ``Homography``'s finiteness and
determinant tests apply per hypothesis. The most inliers win, then the
smaller inlier residual sum, then the earlier draw, within a block and
across blocks. A consensus of exactly eight equations sums to 0.0: it is
its own minimal sample, fit exactly, and the batched and the scalar fits
round its true sum of 0 apart. Only the winning consensus mask leaves the
kernel: it is re-fit with the scalar ``estimate_dlt``, whose arithmetic
fixes the output bytes, and the batched fits therefore never need to match
the scalar ones bit for bit. The run stops after the block of the first draw
whose consensus is every correspondence, which a later draw can only tie
with the same mask; a non-finite hypothesis in a later block then raises no
``NumericError``. The kernel works row by row, so no output depends on
``RANSAC_BLOCK``.
"""

from __future__ import annotations

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
from .model import BasePoolModel, KeyPointId, base_pixel_coordinates

# A constraint system must provide at least this many independent equations.
MIN_EQUATIONS = 8
_RANK_TOLERANCE = 1e-8
_W_EPSILON = 1e-12
# RANSAC fits and scores this many draws per batched call. No output depends
# on it; a larger block saves per-call overhead and costs memory.
RANSAC_BLOCK = 256


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


@dataclass(frozen=True)
class Correspondence:
    """One image observation tied to base geometry: a base point (two
    equations) or, for a point on a horizontal line, a base ordinate (one)."""

    image: tuple[float, float]
    base_point: tuple[float, float] | None = None
    base_y: float | None = None

    def __post_init__(self):
        if (self.base_point is None) == (self.base_y is None):
            raise ValidationError(
                "correspondence requires exactly one of base_point and base_y"
            )
        numbers = (*self.image, *(self.base_point or ()), self.base_y or 0.0)
        if not all(math.isfinite(x) for x in numbers):
            raise NumericError(
                f"non-finite coordinate in correspondence: image {self.image}, "
                f"base {self.base_point or self.base_y}"
            )

    @property
    def equations(self) -> int:
        return 2 if self.base_point is not None else 1

    @classmethod
    def point(
        cls, image: tuple[float, float], base: tuple[float, float]
    ) -> Correspondence:
        return cls(tuple(image), base_point=tuple(base))

    @classmethod
    def on_line(cls, image: tuple[float, float], base_y: float) -> Correspondence:
        return cls(tuple(image), base_y=float(base_y))


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


def _require_equations(
    corrs: Sequence[Correspondence],
    message: str = "need at least {required} equations, have {equations} "
    "({points} point pairs, {lines} line constraints)",
) -> tuple[int, int]:
    """The point and line counts of corrs; fewer than ``MIN_EQUATIONS`` equations
    raise message, formatted with points, lines, equations and required."""
    points = sum(1 for c in corrs if c.base_point is not None)
    lines = len(corrs) - points
    counts = {"points": points, "lines": lines, "equations": 2 * points + lines}
    if counts["equations"] < MIN_EQUATIONS:
        message = message.format(**counts, required=MIN_EQUATIONS)
        raise InsufficientConstraintsError(message)
    return points, lines


def estimate_dlt(corrs: Sequence[Correspondence]) -> Homography:
    """Least-squares homography from point and point-on-line constraints.

    Image points and base fixed points are Hartley-normalized; line
    ordinates follow the base normalizer, which is a pure scale plus
    translation and therefore keeps horizontal lines horizontal.
    """
    corrs = tuple(corrs)
    _require_equations(corrs)
    image = np.array([c.image for c in corrs])
    t_image = _similarity(image)
    fixed = np.array([c.base_point for c in corrs if c.base_point is not None])
    t_base = _similarity(fixed) if len(fixed) else np.eye(3)
    base_scale = t_base[0, 0]
    base_ty = t_base[1, 2]

    rows = []
    normalized = image @ t_image[:2, :2].T + t_image[:2, 2]
    for c, (u, v) in zip(corrs, normalized):
        if c.base_point is not None:
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
        if c.base_point is not None:
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
        if not self.inlier_threshold_px > 0:
            raise ValidationError("inlier_threshold_px must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class RansacFit:
    """A RANSAC estimate with the statistics of the run that produced it.

    ``residuals`` are those of the re-fit map over every correspondence, so
    callers need not compute them again. ``draws`` counts the draws up to the
    stop (see the module docstring) and ``degenerate_draws`` those of them
    dropped by the rank or the determinant test; ``consensus_size`` is the
    inlier count of the winning hypothesis before the re-fit.
    """

    homography: Homography
    inlier_mask: np.ndarray
    residuals: np.ndarray
    draws: int
    degenerate_draws: int
    consensus_size: int


def _batch_similarity(
    points: np.ndarray, member: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_similarity`` of each row's member points, as (scale, shift).

    ``points`` is (k, m, 2) and ``member`` (k, m); a row without members
    gets the identity, as a sample without fixed points does in
    ``estimate_dlt``.
    """
    count = np.maximum(member.sum(axis=1), 1)
    centroid = np.where(member[..., None], points, 0.0).sum(axis=1) / count[:, None]
    distance = np.sqrt(((points - centroid[:, None]) ** 2).sum(axis=2))
    spread = np.where(member, distance, 0.0).sum(axis=1) / count
    scale = np.where(spread > 1e-12, math.sqrt(2.0) / np.maximum(spread, 1e-12), 1.0)
    return scale, -scale[:, None] * centroid


def _similarity_stack(scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    t = np.zeros((len(scale), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, :2, 2] = shift
    t[:, 2, 2] = 1.0
    return t


def _constraint_arrays(
    corrs: Sequence[Correspondence],
) -> tuple[np.ndarray, np.ndarray]:
    """Image points (n, 2) and base points (n, 2) of the correspondences.

    Column 1 of the base array is the base ordinate of either kind; lines
    leave column 0 at zero.
    """
    image = np.array([c.image for c in corrs], dtype=np.float64)
    base = np.array(
        [c.base_point if c.base_point is not None else (0.0, c.base_y) for c in corrs],
        dtype=np.float64,
    )
    return image, base


def _fit_block(
    sample: np.ndarray,
    size: np.ndarray,
    image: np.ndarray,
    base: np.ndarray,
    equations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact DLT fits of a block of minimal samples in one batched SVD.

    ``sample`` (k, m) holds permutation prefixes and ``size`` (k,) how many
    of each prefix form the sample. Each sample is normalized and packed
    as ``estimate_dlt`` does into a zero-padded (k, 9, 9) design stack.
    Returns the unit-norm maps (k, 3, 3) and a mask of the hypotheses that
    fail the rank or the determinant test.
    """
    member = np.arange(sample.shape[1]) < size[:, None]
    fixed = member & (equations[sample] == 2)
    image_scale, image_shift = _batch_similarity(image[sample], member)
    base_scale, base_shift = _batch_similarity(base[sample], fixed)
    u = image_scale[:, None] * image[sample, 0] + image_shift[:, :1]
    v = image_scale[:, None] * image[sample, 1] + image_shift[:, 1:]
    x = base_scale[:, None] * base[sample, 0] + base_shift[:, :1]
    y = base_scale[:, None] * base[sample, 1] + base_shift[:, 1:]
    # a point fills two consecutive rows (x, then y), a line one (y)
    rows = np.where(member, equations[sample], 0)
    first_row = np.cumsum(rows, axis=1) - rows
    design = np.zeros((len(sample), MIN_EQUATIONS + 1, 9))
    b, s = np.nonzero(member)
    uv1 = np.stack([u[b, s], v[b, s], np.ones(len(b))], axis=1)
    point = fixed[b, s]
    x_row = first_row[b, s][point]
    design[b[point], x_row, 0:3] = uv1[point]
    design[b[point], x_row, 6:9] = -x[b, s][point, None] * uv1[point]
    y_row = first_row[b, s] + rows[b, s] - 1
    design[b, y_row, 3:6] = uv1
    design[b, y_row, 6:9] = -y[b, s][:, None] * uv1

    _, singular, vt = np.linalg.svd(design)
    with np.errstate(divide="ignore", invalid="ignore"):
        rank_deficient = (singular[:, 0] <= 0) | (
            singular[:, 7] / singular[:, 0] < _RANK_TOLERANCE
        )
    h = (
        np.linalg.inv(_similarity_stack(base_scale, base_shift))
        @ vt[:, -1].reshape(-1, 3, 3)
        @ _similarity_stack(image_scale, image_shift)
    )
    if not np.isfinite(h[~rank_deficient]).all():
        raise NumericError("homography contains non-finite entries")
    h /= np.sqrt((h**2).sum(axis=(1, 2)))[:, None, None]
    singular_map = np.abs(np.linalg.det(h)) <= 1e-12
    return h, rank_deficient | singular_map


def _score_block(
    h: np.ndarray, image: np.ndarray, base: np.ndarray, is_point: np.ndarray
) -> np.ndarray:
    """``residuals`` of every hypothesis in ``h`` (k, 3, 3), as (k, n)."""
    u, v = image[:, 0], image[:, 1]
    w = h[:, 2, 0, None] * u + h[:, 2, 1, None] * v + h[:, 2, 2, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = (h[:, 1, 0, None] * u + h[:, 1, 1, None] * v + h[:, 1, 2, None]) / w
        x = (h[:, 0, 0, None] * u + h[:, 0, 1, None] * v + h[:, 0, 2, None]) / w
    r = np.where(
        is_point, np.hypot(x - base[:, 0], y - base[:, 1]), np.abs(y - base[:, 1])
    )
    r[np.abs(w) < _W_EPSILON] = np.inf
    return r


def fit_ransac(corrs: Sequence[Correspondence], params: RansacParams) -> RansacFit:
    """Robust estimate, its inlier mask, final residuals and run statistics,
    drawn, scored and stopped as the module docstring says."""
    corrs = tuple(corrs)
    _require_equations(corrs)
    equations = np.array([c.equations for c in corrs])
    image, base = _constraint_arrays(corrs)
    is_point = equations == 2
    rng = np.random.default_rng(params.seed)
    # a minimal sample never needs more than MIN_EQUATIONS correspondences
    width = min(len(corrs), MIN_EQUATIONS)
    best_key: tuple[int, float] | None = None
    best_mask: np.ndarray | None = None
    degenerate = 0
    for start in range(0, params.iterations, RANSAC_BLOCK):
        draws = min(RANSAC_BLOCK, params.iterations - start)
        # the rows and the generator state of one rng.permutation(n) per draw
        order = np.tile(np.arange(len(corrs)), (draws, 1))
        sample = rng.permuted(order, axis=1)[:, :width]
        size = (np.cumsum(equations[sample], axis=1) < MIN_EQUATIONS).sum(axis=1) + 1
        h, degenerate_fit = _fit_block(sample, size, image, base, equations)
        r = _score_block(h, image, base, is_point)
        mask = r <= params.inlier_threshold_px
        inliers = mask.sum(axis=1)
        consensus = mask @ equations
        usable = ~degenerate_fit & (consensus >= MIN_EQUATIONS)
        full = np.flatnonzero(usable & (inliers == len(corrs)))
        made = int(full[0]) + 1 if full.size else draws
        degenerate += int(degenerate_fit[:made].sum())
        if not usable.any():
            continue
        top = usable & (inliers == inliers[usable].max())
        # an exact fit of its own eight equations sums to 0.0, whatever r holds
        counted = mask & (consensus > MIN_EQUATIONS)[:, None]
        spent = np.where(top, np.where(counted, r, 0.0).sum(axis=1), np.inf)
        # argmin returns the first of equal sums, so the earlier draw wins
        winner = int(np.argmin(spent))
        key = (int(inliers[winner]), -float(spent[winner]))
        if best_key is None or key > best_key:
            best_key = key
            best_mask = mask[winner].copy()
        if full.size:
            break
    if best_mask is None:
        raise NoModelError(
            f"no sample produced a usable consensus in {params.iterations} iterations"
        )
    try:
        final = estimate_dlt([c for c, keep in zip(corrs, best_mask) if keep])
    except (DegeneracyError, InsufficientConstraintsError) as exc:
        raise NoModelError(f"consensus set could not be re-estimated: {exc}") from exc
    final_residuals = residuals(final, corrs)
    return RansacFit(
        homography=final,
        inlier_mask=final_residuals <= params.inlier_threshold_px,
        residuals=final_residuals,
        draws=start + made,
        degenerate_draws=degenerate,
        consensus_size=best_key[0],
    )


def estimate_ransac(
    corrs: Sequence[Correspondence], params: RansacParams
) -> tuple[Homography, np.ndarray]:
    """Robust estimate plus a boolean inlier mask; see ``fit_ransac``."""
    fit = fit_ransac(corrs, params)
    return fit.homography, fit.inlier_mask


def build_correspondences(
    det: DetectionSet, model: BasePoolModel, scale_px_per_m: float
) -> tuple[list[Correspondence], list[KeyPointId]]:
    """Turn detections into constraints against the base image.

    Fixed key-points become point correspondences in base pixels; floating
    key-points constrain only the base ordinate of their lane-rope.
    Detections whose key-point does not exist in this pool configuration
    have no base geometry and are reported back as skipped.
    """
    pixels = dict(base_pixel_coordinates(model, scale_px_per_m))
    correspondences: list[Correspondence] = []
    skipped: list[KeyPointId] = []
    for d in det.detections:
        location = pixels.get(d.kp)
        if location is None:
            skipped.append(d.kp)
        elif location.x_px is not None:
            correspondences.append(
                Correspondence.point((d.u, d.v), (location.x_px, location.y_px))
            )
        else:
            correspondences.append(Correspondence.on_line((d.u, d.v), location.y_px))
    return correspondences, skipped


@dataclass(frozen=True)
class LocalizeResult(RansacFit):
    """A frame's RANSAC fit and the constraints it was fit to."""

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
    n_points, n_lines = _require_equations(
        correspondences,
        "not enough detections to localize: {points} fixed points and {lines} "
        "floating constraints give {equations} equations ({required} required); "
        f"{len(skipped)} detections had no base geometry",
    )
    if n_points == 0:
        raise DegeneracyError(
            "only floating key-points were detected; horizontal lines alone "
            "cannot fix the horizontal scale or translation"
        )
    fit = fit_ransac(correspondences, params)
    mask = fit.inlier_mask
    mean_residual = float(fit.residuals[mask].mean()) if mask.any() else float("inf")
    return LocalizeResult(
        **vars(fit),
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
