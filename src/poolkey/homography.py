"""Frame-to-base homography estimation from mixed constraints.

A correspondence ties an image point to a base point or to a base
ordinate, and which one it holds is its kind. Fixed key-points give base
points (two equations). Floating key-points only know which lane-rope they
sit on, so they give the rope's ordinate: one equation tying the projected
y to it.
Every fit is one DLT, ``_dlt``: Hartley-normalized sets packed into a
zero-padded design stack, whose null vectors are the maps. ``estimate_dlt``
fits a set of one by the SVD, whose bits are the output; RANSAC wraps it
for outlier rejection.

RANSAC draws up to ``iterations`` times. Each draw is one
``rng.permutation(n)``, taken in seed order, and its minimal sample is the
shortest prefix reaching eight equations. ``_fit_block`` fits
``RANSAC_BLOCK`` draws in one (block, 9, 9) stack, and every hypothesis is
scored in one (block, n) residual array. The rank test and
``Homography``'s determinant test apply per hypothesis.
Most samples hold exactly eight equations, which ``_minimal_null_vectors``
solves by one QR wherever that QR proves the SVD's rank decision; every
rank decision, and with it ``draws`` and ``degenerate_draws``, is the SVD's.
The most inliers win, then the smaller inlier residual sum, then the
earlier draw, within a block and across blocks. A consensus of exactly
eight equations sums to 0.0: it is its own minimal sample, fit exactly,
and two fits of it round its true sum of 0 apart. A hypothesis need not
equal ``estimate_dlt`` of its sample bit for bit: an eight-equation sample
is solved by QR or gets a ninth zero row, and the normalizers sum over the
padded sample with line rows (base side) and rows past the sample as
zeros, which groups numpy's pairwise sum another way. Only the winning
consensus mask leaves the kernel, and ``estimate_dlt``'s re-fit of it
fixes the output bytes.
The run stops after the block of the first draw whose consensus is every
correspondence, which a later draw can only tie with the same mask.
The kernel works row by row, so no output depends on ``RANSAC_BLOCK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
from .model import MAX_PX, BasePoolModel, KeyPointId, base_pixel_coordinates

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
    equations) or, for a point on a horizontal line, a base ordinate (one).

    A coordinate beyond ``MAX_PX`` is a ValidationError, so no fit overflows.
    """

    image: tuple[float, float]
    base_point: tuple[float, float] | None = None
    base_y: float | None = None

    def __post_init__(self):
        if (self.base_point is None) == (self.base_y is None):
            raise ValidationError(
                "correspondence requires exactly one of base_point and base_y"
            )
        numbers = (*self.image, *(self.base_point or ()), self.base_y or 0.0)
        if not all(abs(x) <= MAX_PX for x in numbers):
            where = f"image {self.image}, base {self.base_point or self.base_y}"
            if not all(math.isfinite(x) for x in numbers):
                raise NumericError(f"non-finite coordinate in correspondence: {where}")
            raise ValidationError(f"coordinate beyond {MAX_PX:g} px: {where}")

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
    image, base = _constraint_arrays(corrs)
    equations = np.array([c.equations for c in corrs])
    member = np.ones((1, len(corrs)), dtype=bool)
    fixed = base[None, equations == 2]
    base_norm = _batch_similarity(fixed, np.ones(fixed.shape[:2], dtype=bool))
    h, rank_deficient = _dlt(
        image[None], base[None], equations[None], member, base_norm, equations.sum()
    )
    if rank_deficient[0]:
        raise DegeneracyError(
            "constraint system is rank-deficient; the key-point configuration "
            "does not determine a homography"
        )
    return Homography(h[0])


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
    """Hartley normalizer (centroid to origin, mean distance sqrt(2)) of each
    row's member points, as (scale, shift): ``points`` is (k, m, 2), ``member``
    (k, m), and a row without members gets the identity."""
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
    """Image points (n, 2) and base points (n, 2) of the correspondences; a
    line's base point is (0, its base ordinate)."""
    image = np.array([c.image for c in corrs], dtype=np.float64)
    base = np.array(
        [c.base_point if c.base_point is not None else (0.0, c.base_y) for c in corrs],
        dtype=np.float64,
    )
    return image, base


def _svd_null_vectors(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right singular vector of each design's least singular value, (k, 9),
    and the rank test: ``s[7] / s[0]`` below ``_RANK_TOLERANCE``."""
    _, singular, vt = np.linalg.svd(design)
    return vt[:, -1], singular[:, 7] / singular[:, 0] < _RANK_TOLERANCE


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """The inverse of each upper-triangular r (k, n, n), by back substitution;
    a zero pivot gives inf or nan, not an error."""
    x = np.zeros(r.shape)
    for i in range(r.shape[1] - 1, -1, -1):
        done = (r[:, i, None, i + 1 :] @ x[:, i + 1 :])[:, 0]
        x[:, i] = (np.eye(r.shape[1])[i] - done) / r[:, i, i, None]
    return x


def _minimal_null_vectors(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_svd_null_vectors`` of minimal samples, with one QR in place of the
    SVD for an eight-equation design (a zero ninth row) whenever QR certifies
    the SVD's rank decision (Golub & Van Loan, Matrix Computations, 5.2).

    The complete QR of the eight rows A, transposed, is Q [R8; 0]. R8 has A's
    singular values, so with rho = 1 / (|A|_F |R8^-1|_F) the SVD's
    ``s[7] / s[0]`` lies in [rho, 8 rho]. Rho 1 % above the tolerance proves
    full rank and 8 rho 1 % below it proves deficiency; the margin covers the
    rounding of both. Q's last column is orthogonal to A's rows, so it is a
    unit null vector of every eight-equation design, the unique one up to sign
    of a full-rank design. A design between the two bounds, and every
    nine-equation design, goes to the SVD, so every rank decision is the SVD's.
    """
    null = np.empty((len(design), 9))
    rank_deficient = np.empty(len(design), dtype=bool)
    eight = np.flatnonzero(~design[:, 8].any(axis=1))
    a = design[eight, :8]
    with np.errstate(all="ignore"):
        q, r = np.linalg.qr(np.swapaxes(a, 1, 2), mode="complete")
        r8_inverse = _upper_inverse(r[:, :8])
        frobenius = np.linalg.norm(a, axis=(1, 2))
        rho = 1.0 / (frobenius * np.linalg.norm(r8_inverse, axis=(1, 2)))
    deficient = (8.0 * rho < 0.99 * _RANK_TOLERANCE) & (rho > 0)
    certified = (rho >= 1.01 * _RANK_TOLERANCE) | deficient
    solved = eight[certified]
    null[solved] = q[certified, :, 8]
    rank_deficient[solved] = deficient[certified]
    rest = np.ones(len(design), dtype=bool)
    rest[solved] = False
    null[rest], rank_deficient[rest] = _svd_null_vectors(design[rest])
    return null, rank_deficient


def _dlt(
    image: np.ndarray,
    base: np.ndarray,
    equations: np.ndarray,
    member: np.ndarray,
    base_norm: tuple[np.ndarray, np.ndarray],
    height: int,
    null_vectors: Callable = _svd_null_vectors,
) -> tuple[np.ndarray, np.ndarray]:
    """DLT fits of k correspondence sets, their member rows, in one batch.

    ``image`` and ``base`` are (k, m, 2), ``equations`` and ``member`` (k, m).
    Image points are normalized by ``_batch_similarity``, base ones by the
    (scale, shift) pair ``base_norm``. A point packs an x then a y row, a
    line a y row, into a zero-padded (k, height, 9) stack, whose null vectors
    and rank test ``null_vectors`` gives: the SVD unless the caller passes
    ``_minimal_null_vectors``. Returns the de-normalized maps (k, 3, 3) and
    the rank-deficient mask.
    """
    image_scale, image_shift = _batch_similarity(image, member)
    base_scale, base_shift = base_norm
    uv = image_scale[:, None, None] * image + image_shift[:, None]
    xy = base_scale[:, None, None] * base + base_shift[:, None]
    rows = np.where(member, equations, 0)
    first_row = np.cumsum(rows, axis=1) - rows
    design = np.zeros((len(image), height, 9))
    b, s = np.nonzero(member)
    uv1 = np.concatenate([uv[b, s], np.ones((len(b), 1))], axis=1)
    point = equations[b, s] == 2
    x_row = first_row[b, s][point]
    design[b[point], x_row, 0:3] = uv1[point]
    design[b[point], x_row, 6:9] = -xy[b, s, :1][point] * uv1[point]
    y_row = first_row[b, s] + rows[b, s] - 1
    design[b, y_row, 3:6] = uv1
    design[b, y_row, 6:9] = -xy[b, s, 1:] * uv1

    null, rank_deficient = null_vectors(design)
    h = (
        np.linalg.inv(_similarity_stack(base_scale, base_shift))
        @ null.reshape(-1, 3, 3)
        @ _similarity_stack(image_scale, image_shift)
    )
    return h, rank_deficient


def _fit_block(
    sample: np.ndarray,
    size: np.ndarray,
    image: np.ndarray,
    base: np.ndarray,
    equations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact DLT fits of a block of minimal samples, their null vectors from
    ``_minimal_null_vectors``.

    ``sample`` (k, m) holds permutation prefixes and ``size`` (k,) how many
    of each prefix form the sample, one (9, 9) system each. Returns the
    unit-norm maps (k, 3, 3) and a mask of the hypotheses that fail the rank
    or the determinant test.
    """
    member = np.arange(sample.shape[1]) < size[:, None]
    base_norm = _batch_similarity(base[sample], member & (equations[sample] == 2))
    h, rank_deficient = _dlt(
        image[sample],
        base[sample],
        equations[sample],
        member,
        base_norm,
        9,
        _minimal_null_vectors,
    )
    h /= np.sqrt((h**2).sum(axis=(1, 2)))[:, None, None]
    # LU of a map with subnormal entries may divide by zero; such a map's
    # determinant still reads below the test's bound
    with np.errstate(divide="ignore"):
        singular_map = np.abs(np.linalg.det(h)) <= 1e-12
    return h, rank_deficient | singular_map


def _score_block(
    h: np.ndarray, image: np.ndarray, base: np.ndarray, is_point: np.ndarray
) -> np.ndarray:
    """``residuals`` of every hypothesis in ``h`` (k, 3, 3), as (k, n)."""
    u, v = image[:, 0], image[:, 1]
    w = h[:, 2, 0, None] * u + h[:, 2, 1, None] * v + h[:, 2, 2, None]
    # a point at the horizon scores inf below, whatever its division and its
    # distance give
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = (h[:, 1, 0, None] * u + h[:, 1, 1, None] * v + h[:, 1, 2, None]) / w
        x = (h[:, 0, 0, None] * u + h[:, 0, 1, None] * v + h[:, 0, 2, None]) / w
        distance = np.hypot(x - base[:, 0], y - base[:, 1])
    r = np.where(is_point, distance, np.abs(y - base[:, 1]))
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
    have no base geometry and are reported back as skipped. A detection
    beyond ``MAX_PX`` with base geometry is a ValidationError (see
    ``Correspondence``).
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
