"""Projective estimation: DLT with mixed constraints, RANSAC, localization."""

import math
import tracemalloc

import numpy as np
import pytest

from poolkey import (
    Correspondence,
    DegeneracyError,
    Detection,
    DetectionSet,
    Homography,
    InsufficientConstraintsError,
    NoModelError,
    NumericError,
    PoolConfig,
    ProjectiveError,
    RansacParams,
    ValidationError,
    build_base_model,
    build_correspondences,
    estimate_dlt,
    estimate_ransac,
    localize_frame,
    localize_result_to_dict,
    perfect_detections,
    project,
    residuals,
)
from poolkey.homography import (
    MIN_EQUATIONS,
    RANSAC_BLOCK,
    _constraint_arrays,
    _fit_block,
    _score_block,
    fit_ransac,
)
from poolkey.model import KeyPointClass, KeyPointId
from poolkey.synth import SynthParams, make_scene


def _random_h(rng) -> np.ndarray:
    """Well-conditioned map keeping [0,200]^2 far from the horizon."""
    theta = rng.uniform(-0.4, 0.4)
    s = rng.uniform(0.7, 1.5)
    tx, ty = rng.uniform(-40, 40, size=2)
    p1, p2 = rng.uniform(-1e-3, 1e-3, size=2)
    return np.array(
        [
            [s * math.cos(theta), -s * math.sin(theta), tx],
            [s * math.sin(theta), s * math.cos(theta), ty],
            [p1, p2, 1.0],
        ]
    )


def _apply(m: np.ndarray, p) -> tuple[float, float]:
    q = m @ [p[0], p[1], 1.0]
    return (q[0] / q[2], q[1] / q[2])


def _corner_error(estimate: Homography, truth: np.ndarray, extent=200.0) -> float:
    corners = [(0.0, 0.0), (extent, 0.0), (extent, extent), (0.0, extent)]
    return max(
        math.dist(project(estimate, c), _apply(truth, c)) for c in corners
    )


def test_project_identity_and_translation():
    identity = Homography(np.eye(3))
    assert project(identity, (3.0, 4.0)) == (3.0, 4.0)
    translation = Homography([[1, 0, 2], [0, 1, -1], [0, 0, 1]])
    assert project(translation, (0.0, 0.0)) == (2.0, -1.0)


def test_project_inverse_round_trip():
    rng = np.random.default_rng(6)
    h = Homography(_random_h(rng))
    inv = h.inverse()
    for _ in range(100):
        p = tuple(rng.uniform(0, 200, size=2))
        back = project(inv, project(h, p))
        assert math.dist(p, back) < 1e-9


def test_project_raises_at_horizon():
    h = Homography([[1, 0, 0], [0, 1, 0], [1, 0, -1]])
    with pytest.raises(ProjectiveError):
        project(h, (1.0, 7.0))


def test_canonical_form():
    m = _random_h(np.random.default_rng(2))
    a = Homography(m)
    b = Homography(3.0 * m)
    c = Homography(-0.5 * m)
    assert abs(np.linalg.norm(a.matrix) - 1.0) < 1e-12
    assert np.allclose(a.matrix, b.matrix, atol=1e-15)
    assert np.allclose(a.matrix, c.matrix, atol=1e-15)
    assert a.matrix.flatten()[-1] > 0  # canonical sign


def test_homography_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        Homography(np.zeros((3, 3)))
    with pytest.raises(DegeneracyError):
        Homography([[1, 0, 0], [2, 0, 0], [0, 0, 1]])  # rank 2
    with pytest.raises(NumericError):
        Homography(np.full((3, 3), np.nan))
    with pytest.raises(Exception):
        Homography(np.eye(2))


def test_dlt_four_point_recovery():
    rng = np.random.default_rng(11)
    for _ in range(100):
        truth = _random_h(rng)
        pts = rng.uniform(0, 200, size=(4, 2))
        corrs = [Correspondence.point(tuple(p), _apply(truth, p)) for p in pts]
        try:
            estimate = estimate_dlt(corrs)
        except DegeneracyError:
            continue  # rare near-collinear draw
        assert _corner_error(estimate, truth) < 1e-6


def test_dlt_three_points_two_lines_recovery():
    rng = np.random.default_rng(13)
    recovered = 0
    for _ in range(100):
        truth = _random_h(rng)
        pts = rng.uniform(0, 200, size=(3, 2))
        corrs = [Correspondence.point(tuple(p), _apply(truth, p)) for p in pts]
        for _ in range(2):
            image_pt = tuple(rng.uniform(0, 200, size=2))
            base_y = _apply(truth, image_pt)[1]
            corrs.append(Correspondence.on_line(image_pt, base_y))
        try:
            estimate = estimate_dlt(corrs)
        except DegeneracyError:
            continue
        assert _corner_error(estimate, truth) < 1e-6
        recovered += 1
    assert recovered >= 95


def test_dlt_line_constraints_have_zero_residual_under_generator():
    rng = np.random.default_rng(19)
    truth = Homography(_random_h(rng))
    corrs = []
    for _ in range(10):
        image_pt = tuple(rng.uniform(0, 200, size=2))
        corrs.append(Correspondence.on_line(image_pt, project(truth, image_pt)[1]))
    assert residuals(truth, corrs).max() < 1e-9


def test_dlt_insufficient_equations():
    rng = np.random.default_rng(3)
    truth = _random_h(rng)
    pts = rng.uniform(0, 200, size=(3, 2))
    corrs = [Correspondence.point(tuple(p), _apply(truth, p)) for p in pts]
    with pytest.raises(InsufficientConstraintsError, match="6"):
        estimate_dlt(corrs)


def test_dlt_collinear_points_are_degenerate():
    # three collinear points: under-constrained, reported as degeneracy
    line_pts = [(float(t), 2.0 * t + 1.0) for t in (0.0, 50.0, 100.0)]
    corrs = [Correspondence.point(p, p) for p in line_pts]
    with pytest.raises(DegeneracyError):
        estimate_dlt(corrs)
    # four collinear points reach 8 equations but stay rank-deficient
    line_pts.append((150.0, 301.0))
    corrs = [Correspondence.point(p, p) for p in line_pts]
    with pytest.raises(DegeneracyError):
        estimate_dlt(corrs)


def test_dlt_coincident_points_are_degenerate():
    corrs = [Correspondence.point((5.0, 5.0), (7.0, 7.0)) for _ in range(6)]
    with pytest.raises(DegeneracyError):
        estimate_dlt(corrs)


def test_dlt_similarity_invariance_with_noisy_data():
    """Hartley normalization makes the estimate independent of the image
    frame's similarity placement, even when the fit is not exact."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        truth = _random_h(rng)
        pts = rng.uniform(0, 200, size=(8, 2))
        noisy_base = [
            tuple(np.asarray(_apply(truth, p)) + rng.normal(0, 0.5, size=2))
            for p in pts
        ]
        corrs = [Correspondence.point(tuple(p), b) for p, b in zip(pts, noisy_base)]
        plain = estimate_dlt(corrs)

        theta = rng.uniform(-math.pi, math.pi)
        s = rng.uniform(0.2, 5.0)
        similarity = np.array(
            [
                [s * math.cos(theta), -s * math.sin(theta), rng.uniform(-500, 500)],
                [s * math.sin(theta), s * math.cos(theta), rng.uniform(-500, 500)],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = [
            Correspondence.point(_apply(similarity, p), b)
            for p, b in zip(pts, noisy_base)
        ]
        composed = Homography(estimate_dlt(moved).matrix @ similarity)
        assert np.abs(composed.matrix - plain.matrix).max() < 1e-9


def test_ransac_all_inliers():
    rng = np.random.default_rng(31)
    truth = _random_h(rng)
    pts = rng.uniform(0, 200, size=(20, 2))
    corrs = [Correspondence.point(tuple(p), _apply(truth, p)) for p in pts]
    h, mask = estimate_ransac(corrs, RansacParams(seed=31))
    assert mask.all()
    assert _corner_error(h, truth) < 1e-6


def test_ransac_rejects_gross_outliers():
    rng = np.random.default_rng(37)
    successes = 0
    for trial in range(20):
        truth = _random_h(rng)
        pts = rng.uniform(0, 200, size=(14, 2))
        corrs = [Correspondence.point(tuple(p), _apply(truth, p)) for p in pts]
        planted = 0
        while planted < 6:
            image_pt = rng.uniform(0, 200, size=2)
            fake_base = rng.uniform(-100, 300, size=2)
            if math.dist(fake_base, _apply(truth, image_pt)) > 10.0:
                corrs.append(Correspondence.point(tuple(image_pt), tuple(fake_base)))
                planted += 1
        h, mask = estimate_ransac(
            corrs, RansacParams(iterations=500, inlier_threshold_px=3.0, seed=trial)
        )
        if mask[:14].all() and not mask[14:].any():
            successes += 1
    assert successes == 20


def test_ransac_deterministic_per_seed():
    rng = np.random.default_rng(41)
    truth = _random_h(rng)
    pts = rng.uniform(0, 200, size=(12, 2))
    corrs = [Correspondence.point(tuple(p), _apply(truth, p)) for p in pts]
    corrs.append(Correspondence.point((50.0, 50.0), (900.0, 900.0)))
    params = RansacParams(iterations=50, seed=7)
    h1, m1 = estimate_ransac(corrs, params)
    h2, m2 = estimate_ransac(corrs, params)
    assert h1.flat() == h2.flat()
    assert (m1 == m2).all()


def test_ransac_no_model_on_degenerate_data():
    # nine collinear points: every minimal sample is rank-deficient
    corrs = [
        Correspondence.point((float(t), 3.0 * t), (float(t), 3.0 * t))
        for t in range(9)
    ]
    with pytest.raises(NoModelError):
        estimate_ransac(corrs, RansacParams(iterations=1, seed=0))
    with pytest.raises(InsufficientConstraintsError):
        estimate_ransac(corrs[:3], RansacParams())


def test_ransac_line_only_constraints_cannot_form_a_model():
    corrs = [Correspondence.on_line((float(i), float(i % 5)), float(i)) for i in range(10)]
    with pytest.raises(NoModelError):
        estimate_ransac(corrs, RansacParams(iterations=20, seed=1))


def _reference_ransac(corrs, params):
    """The per-draw RANSAC loop that the block kernel replaced: one
    ``estimate_dlt`` and one ``residuals`` call per draw. Returns the
    estimate, its inlier mask, the degenerate draws and the consensus size."""
    corrs = tuple(corrs)
    equations = np.array([c.equations for c in corrs])
    rng = np.random.default_rng(params.seed)
    best_key = None
    best_mask = None
    degenerate = 0
    for _ in range(params.iterations):
        order = rng.permutation(len(corrs))
        cumulative = np.cumsum(equations[order])
        sample = order[: int(np.searchsorted(cumulative, MIN_EQUATIONS) + 1)]
        try:
            candidate = estimate_dlt([corrs[i] for i in sample])
        except (DegeneracyError, InsufficientConstraintsError):
            degenerate += 1
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
        raise NoModelError("no usable consensus")
    final = estimate_dlt([c for c, keep in zip(corrs, best_mask) if keep])
    mask = residuals(final, corrs) <= params.inlier_threshold_px
    return final, mask, degenerate, best_key[0]


def _mixed_set(seed: int, outlier_share: float, line_share: float, n=None):
    """Noisy correspondences of a random map, a share of them moved far off."""
    rng = np.random.default_rng(seed)
    truth = _random_h(rng)
    n = n or int(rng.integers(8, 30))
    corrs = []
    for i in range(n):
        image = tuple(rng.uniform(0, 200, size=2))
        x, y = _apply(truth, image) + rng.normal(0.0, 0.5, size=2)
        if i >= 4 and rng.random() < line_share:
            corrs.append(Correspondence.on_line(image, y))
        else:
            corrs.append(Correspondence.point(image, (x, y)))
    for i in rng.choice(n, int(n * outlier_share), replace=False):
        image = corrs[i].image
        if corrs[i].base_point is None:
            corrs[i] = Correspondence.on_line(image, rng.uniform(-100, 300))
        else:
            corrs[i] = Correspondence.point(image, tuple(rng.uniform(-100, 300, 2)))
    return corrs


_ITERATIONS = (1, RANSAC_BLOCK - 1, RANSAC_BLOCK, RANSAC_BLOCK + 1, 1000)


@pytest.mark.parametrize("line_share", [0.0, 0.4], ids=["points", "points-lines"])
@pytest.mark.parametrize("outlier_share", [0.0, 0.15, 0.3])
@pytest.mark.parametrize("iterations", _ITERATIONS)
def test_block_ransac_matches_the_per_draw_loop(iterations, outlier_share, line_share):
    for seed in range(3):
        corrs = _mixed_set(seed, outlier_share, line_share)
        params = RansacParams(iterations=iterations, seed=seed)
        try:
            expected = _reference_ransac(corrs, params)
        except NoModelError:
            with pytest.raises(NoModelError):
                fit_ransac(corrs, params)
            continue
        fit = fit_ransac(corrs, params)
        assert np.array_equal(fit.homography.matrix, expected[0].matrix)
        assert np.array_equal(fit.inlier_mask, expected[1])
        assert (fit.degenerate_draws, fit.consensus_size) == expected[2:]
        assert fit.draws == iterations
        h, mask = estimate_ransac(corrs, params)
        assert np.array_equal(h.matrix, expected[0].matrix)
        assert np.array_equal(mask, expected[1])


@pytest.mark.parametrize("line_share", [0.0, 0.4], ids=["points", "points-lines"])
def test_block_hypotheses_match_per_sample_fits(line_share):
    # the batched SVD and the masked normalizers sum in another order than
    # estimate_dlt, so the unit-norm maps and the residuals may differ in the
    # last digits only
    for seed in range(4):
        corrs = _mixed_set(seed, 0.3, line_share)
        equations = np.array([c.equations for c in corrs])
        image, base = _constraint_arrays(corrs)
        rng = np.random.default_rng(seed)
        width = min(len(corrs), MIN_EQUATIONS)
        sample = np.array(
            [rng.permutation(len(corrs))[:width] for _ in range(RANSAC_BLOCK)]
        )
        size = (np.cumsum(equations[sample], axis=1) < MIN_EQUATIONS).sum(axis=1) + 1
        h, degenerate = _fit_block(sample, size, image, base, equations)
        r = _score_block(h, image, base, equations == 2)
        for j, row in enumerate(sample):
            try:
                expected = estimate_dlt([corrs[i] for i in row[: size[j]]])
            except DegeneracyError:
                assert degenerate[j]
                continue
            assert not degenerate[j]
            m = h[j] * np.sign((h[j] * expected.matrix).sum())
            assert np.abs(m - expected.matrix).max() < 1e-10
            assert np.allclose(r[j], residuals(expected, corrs), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("iterations", _ITERATIONS)
def test_block_ransac_matches_the_per_draw_loop_on_degenerate_sets(iterations):
    collinear = [
        Correspondence.point((float(t), 3.0 * t), (float(t), 3.0 * t))
        for t in range(9)
    ]
    lines = [
        Correspondence.on_line((float(i), float(i % 5)), float(i)) for i in range(10)
    ]
    for corrs in (collinear, lines):
        params = RansacParams(iterations=iterations, seed=iterations)
        with pytest.raises(NoModelError):
            _reference_ransac(corrs, params)
        with pytest.raises(NoModelError):
            fit_ransac(corrs, params)


def test_ransac_memory_does_not_grow_with_the_iteration_count():
    corrs = _mixed_set(3, 0.2, 0.3, n=40)

    def peak(iterations: int) -> int:
        tracemalloc.start()
        try:
            estimate_ransac(corrs, RansacParams(iterations=iterations, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(5000) <= 1.5 * peak(500)


def test_ransac_params_validation():
    with pytest.raises(ValidationError):
        RansacParams(iterations=0)
    with pytest.raises(ValidationError):
        RansacParams(inlier_threshold_px=0.0)
    with pytest.raises(ValidationError):
        RansacParams(seed=-1)


def test_build_correspondences_skips_ids_absent_from_the_pool():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    ghost = KeyPointId(KeyPointClass.BULKHEAD_LEFT, 3)
    det = DetectionSet(
        "f",
        100,
        100,
        (
            Detection(KeyPointId(KeyPointClass.WALL_LEFT, 0), 1.0, 1.0, 0.0),
            Detection(KeyPointId(KeyPointClass.FLOATING_LEFT, 2), 0.0, 9.0, 0.0),
            Detection(ghost, 5.0, 5.0, 0.0),
        ),
    )
    corrs, skipped = build_correspondences(det, model, 20.0)
    assert skipped == [ghost]
    assert len(corrs) == 2
    assert corrs[0].base_point == (0.0, 0.0)
    assert corrs[1].base_y == pytest.approx((0.25 + 1 * 2.5) * 20.0)


def test_localize_insufficient_detections_message():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    det = DetectionSet(
        "f",
        100,
        100,
        (
            Detection(KeyPointId(KeyPointClass.WALL_LEFT, 0), 1.0, 1.0, 0.0),
            Detection(KeyPointId(KeyPointClass.WALL_LEFT, 2), 1.0, 9.0, 0.0),
            Detection(KeyPointId(KeyPointClass.FLOATING_LEFT, 3), 0.0, 30.0, 0.0),
        ),
    )
    with pytest.raises(InsufficientConstraintsError, match="2 fixed"):
        localize_frame(det, model)


def test_localize_floating_only_is_degenerate():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    detections = tuple(
        Detection(KeyPointId(KeyPointClass.FLOATING_LEFT, i), 0.0, 10.0 * i, 0.0)
        for i in range(9)
        if model.entry(KeyPointId(KeyPointClass.FLOATING_LEFT, i)).exists
    )
    det = DetectionSet("f", 200, 200, detections)
    with pytest.raises(DegeneracyError, match="floating"):
        localize_frame(det, model)


def test_localize_recovers_synthetic_cameras():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    for view, index in (("full", 0), ("partial", 3)):
        scene = make_scene(model, SynthParams(view=view, seed=99), index)
        result = localize_frame(perfect_detections(scene.annotation), model)
        assert result.inlier_mask.all()
        assert result.mean_residual_px < 1e-9
        corners = [(0.0, 0.0), (511.0, 0.0), (511.0, 287.0), (0.0, 287.0)]
        for c in corners:
            est = project(result.homography, c)
            tru = project(scene.homography_gt, c)
            assert math.dist(est, tru) < 1e-6


def test_localize_reports_ransac_statistics_on_a_degenerate_set():
    # three wall_left marks lie on the line x = 0; a draw samples four of the
    # five points, and is rank-deficient when it leaves out one of the others
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    kps = [KeyPointId(KeyPointClass.WALL_LEFT, i) for i in range(3)] + [
        KeyPointId(KeyPointClass.WALL_RIGHT, 5),
        KeyPointId(KeyPointClass.WALL_TOP, 3),
    ]
    detections = []
    for kp in kps:
        location = model.entry(kp).location
        u, v = 0.5 * 20.0 * location.x_m + 10.0, 0.5 * 20.0 * location.y_m + 10.0
        detections.append(Detection(kp, u, v, 0.0))
    det = DetectionSet("f", 600, 600, tuple(detections))
    params = RansacParams(iterations=300, seed=4)
    result = localize_frame(det, model, params=params)

    rng = np.random.default_rng(params.seed)
    expected = sum(rng.permutation(5)[-1] >= 3 for _ in range(params.iterations))
    assert 0 < expected < params.iterations
    assert result.draws == params.iterations
    assert result.degenerate_draws == expected
    assert result.consensus_size == 5
    assert result.inlier_mask.all()
    assert result.mean_residual_px < 1e-9


def test_localize_reports_ransac_statistics_on_a_clean_set():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    scene = make_scene(model, SynthParams(view="partial", seed=99), 3)
    det = perfect_detections(scene.annotation)
    result = localize_frame(det, model)
    corrs, _ = build_correspondences(det, model, 20.0)
    _, _, degenerate, consensus = _reference_ransac(corrs, RansacParams())
    assert result.draws == RansacParams().iterations
    assert result.degenerate_draws == degenerate
    assert result.consensus_size == consensus == len(corrs)
    doc = localize_result_to_dict(result, "f")
    assert set(doc) == {"frame_id", "h", "inliers", "mean_residual_px", "constraints"}


def test_localize_frame_corners_land_in_a_quad_containing_the_detections():
    """The projected frame quadrilateral must cover every base point that
    was visible in the frame."""
    model = build_base_model(PoolConfig(lanes=10, length_m=50))
    scene = make_scene(model, SynthParams(view="partial", seed=5), 1)
    result = localize_frame(perfect_detections(scene.annotation), model)
    rows, cols = scene.annotation.rows, scene.annotation.cols
    quad = [
        project(result.homography, c)
        for c in ((0, 0), (cols - 1.0, 0), (cols - 1.0, rows - 1.0), (0, rows - 1.0))
    ]

    def inside(point):
        signs = []
        for i in range(4):
            ax, ay = quad[i]
            bx, by = quad[(i + 1) % 4]
            cross = (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax)
            signs.append(cross)
        return all(s >= -1e-6 for s in signs) or all(s <= 1e-6 for s in signs)

    for corr in result.correspondences:
        if corr.base_point is not None:
            assert inside(corr.base_point)


def test_localize_result_serialization():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    scene = make_scene(model, SynthParams(seed=1), 0)
    result = localize_frame(perfect_detections(scene.annotation), model)
    doc = localize_result_to_dict(result, "frame_0")
    assert doc["frame_id"] == "frame_0"
    assert len(doc["h"]) == 9
    assert doc["inliers"] == result.inlier_count
    assert set(doc["constraints"]) == {"point", "line"}
    assert doc["constraints"]["point"] == result.point_count
