"""Release gate: one test per shipping criterion, each printing a verdict line.

Every test times its own body and fails when it runs past the budget, so a
regression in speed shows up the same way as a regression in behavior. Run
with -s to watch the verdict lines stream.
"""

import math
import time

import numpy as np

from poolkey import (
    DecodeParams,
    EvalParams,
    FrameAnnotation,
    HeatmapVolume,
    MatchCounts,
    NoiseParams,
    PoolConfig,
    RansacParams,
    SynthParams,
    build_base_model,
    build_correspondences,
    channel_entropy,
    cross_entropy_loss,
    decode,
    estimate_dlt,
    estimate_ransac,
    evaluate,
    f1,
    localize_frame,
    make_scene,
    make_target_volume,
    perfect_detections,
    project,
    project_scene,
    rescale_annotation,
    sample_camera,
    standard_configs,
)
from poolkey.heatmap import AnnotationPoint
from poolkey.homography import Correspondence
from poolkey.model import CHANNEL_IDS, KeyPointClass, KeyPointId


def _run(number: int, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        detail = body()
        failure = None
    except Exception as exc:  # noqa: BLE001 - the verdict line must print
        detail = None
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if failure is None and elapsed >= budget_s:
        failure = f"runtime {elapsed:.2f}s exceeded the {budget_s:g}s budget"
    status = "PASS" if failure is None else "FAIL"
    print(f"[criterion {number}] {status}: {failure or detail} ({elapsed:.2f}s)")
    assert failure is None, f"criterion {number}: {failure}"


def test_criterion_1_channel_count():
    def body():
        for config in standard_configs():
            model = build_base_model(config)
            assert len(model.entries) == 96
            ann = FrameAnnotation("f", 4, 4, ())
            assert make_target_volume(ann, 4, 4).data.shape == (96, 4, 4)
        return "96 channels in every model and volume across all 9 pool types"

    _run(1, 1.0, body)


def test_criterion_2_reported_f1_triples():
    def body():
        triples = [
            (0.7756, 0.8941, 0.8307),
            (0.7105, 0.7892, 0.7478),
            (0.8235, 0.8435, 0.8333),
        ]
        for p, r, printed in triples:
            # integer counts that hit the quoted precision and recall exactly
            tp = int(round(p * 10000)) * int(round(r * 10000))
            fp = (10000 - int(round(p * 10000))) * int(round(r * 10000))
            fn = (10000 - int(round(r * 10000))) * int(round(p * 10000))
            value = f1(MatchCounts(tp, fp, fn))
            assert abs(value - printed) < 5e-4, (p, r, printed, value)
        return "all 3 precision/recall/F1 triples agree within 5e-4"

    _run(2, 1.0, body)


def test_criterion_3_entropy_gate():
    def body():
        flat = np.full((7, 11), 1.0 / 77)
        assert abs(channel_entropy(flat) - math.log(77)) < 1e-9
        delta = np.zeros((7, 11))
        delta[3, 4] = 1.0
        assert channel_entropy(delta) == 0.0

        # at 2x2, a flat channel's entropy ln(4)=1.3863 fails the 0.9 gate
        # (threshold 1.2477) while a delta channel passes it
        data = np.full((96, 2, 2), 0.25)
        data[0] = 0.0
        data[0, 1, 1] = 1.0
        dets = decode(HeatmapVolume(data), DecodeParams(beta=0.9), "f")
        assert len(dets.detections) == 1
        assert dets.detections[0].kp == CHANNEL_IDS[0]
        assert math.log(4) >= 0.9 * math.log(4)

        rng = np.random.default_rng(2024)
        betas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        for _ in range(200):
            raw = rng.random((96, 4, 5)) ** rng.uniform(1, 30)
            raw /= raw.sum(axis=(1, 2), keepdims=True)
            volume = HeatmapVolume(raw)
            previous = set()
            for beta in betas:
                kept = {d.kp for d in decode(volume, DecodeParams(beta), "f").detections}
                assert previous <= kept, f"gate not nested at beta={beta}"
                previous = kept
        return "entropy references exact, 2x2 gate splits flat from delta, nested over 200 volumes"

    _run(3, 10.0, body)


def test_criterion_4_loss_oracle():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(100):
            pred = rng.random((3, 4, 4)) + 1e-6
            pred /= pred.sum(axis=(1, 2), keepdims=True)
            target = rng.random((3, 4, 4))
            target /= target.sum(axis=(1, 2), keepdims=True)
            expected = 0.0
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        expected -= target[c, i, j] * math.log(
                            max(pred[c, i, j], 1e-12)
                        )
            value = cross_entropy_loss(HeatmapVolume(target), HeatmapVolume(pred))
            assert abs(value - expected) < 1e-9
            self_loss = cross_entropy_loss(HeatmapVolume(target), HeatmapVolume(target))
            assert value >= self_loss - 1e-12  # Gibbs inequality

        # a target that is a delta on every channel costs nothing against itself
        rng2 = np.random.default_rng(405)
        points = tuple(
            AnnotationPoint(kp, float(rng2.integers(4)), float(rng2.integers(4)))
            for kp in CHANNEL_IDS
        )
        target = make_target_volume(FrameAnnotation("f", 4, 4, points), 4, 4)
        assert cross_entropy_loss(target, target) <= 1e-9
        return "loss matches brute force within 1e-9, Gibbs holds, delta self-loss is zero"

    _run(4, 5.0, body)


def test_criterion_5_resolution_contract():
    def body():
        ann = FrameAnnotation("f", 1080, 1920, ())
        scaled = rescale_annotation(ann, 3.75)
        assert (scaled.rows, scaled.cols) == (288, 512)
        return "1080x1920 / 3.75 = 288x512 exactly"

    _run(5, 1.0, body)


def test_criterion_6_homography_recovery():
    def body():
        model = build_base_model(PoolConfig(lanes=8, length_m=50))
        worst = 0.0
        line_scenes = 0
        for seed in range(1000):
            params = SynthParams(
                frame_rows=72, frame_cols=128, view="partial", seed=seed
            )
            camera = sample_camera(model, params)
            ann = project_scene(model, camera, 72, 128, 20.0)
            classes = [p.kp.cls for p in ann.points]
            assert (
                KeyPointClass.WALL_LEFT not in classes
                or KeyPointClass.WALL_RIGHT not in classes
            )
            corrs, _ = build_correspondences(perfect_detections(ann), model, 20.0)
            if any(c.base_y is not None for c in corrs):
                line_scenes += 1
            estimate = estimate_dlt(corrs)
            truth = camera.inverse()
            for corner in ((0.0, 0.0), (127.0, 0.0), (127.0, 71.0), (0.0, 71.0)):
                err = math.dist(project(estimate, corner), project(truth, corner))
                worst = max(worst, err)
            assert worst < 1e-6, f"seed {seed}: corner error {worst:.2e}"
        assert line_scenes == 1000  # every partial scene used line constraints

        def random_h(rng):
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

        def apply(m, p):
            q = m @ [p[0], p[1], 1.0]
            return (q[0] / q[2], q[1] / q[2])

        rng = np.random.default_rng(606)
        recovered = 0
        for trial in range(100):
            truth = random_h(rng)
            pts = rng.uniform(0, 200, size=(14, 2))
            corrs = [Correspondence.point(tuple(p), apply(truth, p)) for p in pts]
            planted = 0
            while planted < 6:  # 6 of 20 = 30% gross outliers
                image_pt = rng.uniform(0, 200, size=2)
                fake = rng.uniform(-100, 300, size=2)
                if math.dist(fake, apply(truth, image_pt)) > 10.0:
                    corrs.append(Correspondence.point(tuple(image_pt), tuple(fake)))
                    planted += 1
            _, mask = estimate_ransac(
                corrs,
                RansacParams(iterations=500, inlier_threshold_px=3.0, seed=trial),
            )
            if mask[:14].all() and not mask[14:].any():
                recovered += 1
        assert recovered >= 99, f"only {recovered}/100 outlier trials recovered"
        return (
            f"1000 scenes, worst corner error {worst:.2e} px; "
            f"outlier recovery {recovered}/100"
        )

    _run(6, 60.0, body)


def test_criterion_7_end_to_end_identity():
    def body():
        model = build_base_model(PoolConfig(lanes=8, length_m=50))
        pairs = []
        worst = 0.0
        for index in range(100):
            view = "full" if index % 2 == 0 else "partial"
            params = SynthParams(frame_rows=72, frame_cols=128, view=view, seed=7)
            scene = make_scene(model, params, index)
            det = decode(
                scene.volume, DecodeParams(beta=0.9), scene.annotation.frame_id
            )
            pairs.append((det, scene.annotation))
            result = localize_frame(
                perfect_detections(scene.annotation),
                model,
                params=RansacParams(iterations=300),
            )
            for corner in ((0.0, 0.0), (127.0, 0.0), (127.0, 71.0), (0.0, 71.0)):
                err = math.dist(
                    project(result.homography, corner),
                    project(scene.homography_gt, corner),
                )
                worst = max(worst, err)
            assert worst < 1e-6, f"scene {index}: corner error {worst:.2e}"
        report = evaluate(pairs, EvalParams(tolerance_px=5.0))
        assert report.mean_f1 == 1.0, f"mean F1 {report.mean_f1!r}"
        return f"mean F1 1.0 over 100 scenes; worst localize corner error {worst:.2e} px"

    _run(7, 60.0, body)


def test_criterion_8_graceful_degradation():
    def body():
        model = build_base_model(PoolConfig(lanes=8, length_m=50))

        def mean_f1(tolerance):
            pairs = []
            params = SynthParams(
                frame_rows=72,
                frame_cols=128,
                noise=NoiseParams(loc_sigma_px=2.0),
                seed=88,
            )
            for index in range(100):
                scene = make_scene(model, params, index)
                det = decode(
                    scene.volume, DecodeParams(beta=0.9), scene.annotation.frame_id
                )
                pairs.append((det, scene.annotation))
            return evaluate(pairs, EvalParams(tolerance_px=tolerance)).mean_f1

        loose_a = mean_f1(5.0)
        tight_a = mean_f1(2.0)
        loose_b = mean_f1(5.0)
        tight_b = mean_f1(2.0)
        assert loose_a == loose_b and tight_a == tight_b  # deterministic per seed
        assert loose_a > tight_a, f"F1 {loose_a!r} at 5 px vs {tight_a!r} at 2 px"
        return f"F1 {loose_a:.4f} at 5 px > {tight_a:.4f} at 2 px, reruns identical"

    _run(8, 60.0, body)


def test_criterion_9_pool_model_rules():
    def body():
        for config in standard_configs():
            with_b = build_base_model(config)
            without_b = build_base_model(
                PoolConfig(
                    lanes=config.lanes,
                    length_m=config.length_m,
                    bumpers=False,
                    bulkhead=config.bulkhead,
                )
            )
            flipped = {
                kp
                for kp, entry in with_b.entries.items()
                if entry.exists != without_b.entry(kp).exists
            }
            lane_classes = [
                KeyPointClass.WALL_LEFT,
                KeyPointClass.WALL_RIGHT,
                KeyPointClass.FLOATING_LEFT,
                KeyPointClass.FLOATING_RIGHT,
            ]
            if config.bulkhead:
                lane_classes += [
                    KeyPointClass.BULKHEAD_LEFT,
                    KeyPointClass.BULKHEAD_RIGHT,
                ]
            edge = config.effective_lanes + 1
            expected = {
                KeyPointId(cls, index)
                for cls in lane_classes
                for index in (1, edge)
            }
            assert flipped == expected, f"{config}: bumper flip set wrong"

            t4 = with_b.entry(KeyPointId(KeyPointClass.WALL_TOP, 4)).exists
            b4 = with_b.entry(KeyPointId(KeyPointClass.WALL_BOTTOM, 4)).exists
            marks_at_25 = config.length_m == 50 or config.bulkhead
            assert t4 == b4 == (marks_at_25 and not config.bulkhead)
        return "bumper toggles flip exactly {1, lanes+1}; bulkheads remove T4/B4"

    _run(9, 1.0, body)
