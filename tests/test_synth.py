"""Synthetic scene generation: cameras, projected annotations, volumes."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from poolkey import (
    DecodeParams,
    EvalParams,
    Homography,
    NoiseParams,
    PoolConfig,
    SamplingError,
    SynthParams,
    ValidationError,
    build_base_model,
    channel_entropy,
    decode,
    evaluate,
    generate_dataset,
    make_scene,
    match_frame,
    perfect_detections,
    project,
    project_scene,
    read_annotation,
    read_volume,
    sample_camera,
    synthesize_volume,
    write_volume,
)
from poolkey import synth
from poolkey.heatmap import PeakPlan
from poolkey.model import (
    KeyPointClass,
    base_pixel_coordinates,
    canonical_channel_index,
)
from poolkey.synth import CameraJitter

MODEL = build_base_model(PoolConfig(lanes=8, length_m=50))
NOISY = NoiseParams(loc_sigma_px=1.5, dropout_rate=0.1, false_positive_rate=0.05)


def _small(view="full", **kw) -> SynthParams:
    return SynthParams(frame_rows=72, frame_cols=128, view=view, **kw)


def test_make_scene_is_deterministic():
    params = SynthParams(seed=12)
    a = make_scene(MODEL, params, 4)
    b = make_scene(MODEL, params, 4)
    assert a.homography_gt.flat() == b.homography_gt.flat()
    assert a.annotation == b.annotation
    assert (a.volume.data == b.volume.data).all()
    c = make_scene(MODEL, params, 5)
    assert c.homography_gt.flat() != a.homography_gt.flat()


def test_full_view_without_jitter_is_the_centered_fit():
    params = SynthParams(jitter=CameraJitter.none(), seed=0)
    camera = sample_camera(MODEL, params)
    basin_px = MODEL.basin_length_m * 20.0
    height_px = MODEL.width_m * 20.0
    left = project(camera, (0.0, 0.0))
    right = project(camera, (basin_px, height_px))
    # the fit centers the pool, so opposite corners mirror about the center
    assert left[0] + right[0] == pytest.approx(512.0, abs=1e-9)
    assert left[1] + right[1] == pytest.approx(288.0, abs=1e-9)
    assert 0 < min(left[0], right[0]) and max(left[0], right[0]) < 511
    assert 0 < min(left[1], right[1]) and max(left[1], right[1]) < 287
    # 88 percent fit on the binding axis (width here)
    assert abs(right[0] - left[0]) == pytest.approx(0.88 * 512.0, abs=1e-9)


def test_full_view_contains_every_fixed_point_and_no_floating():
    for seed in range(20):
        scene = make_scene(MODEL, SynthParams(seed=seed), 0)
        classes = {p.kp.cls for p in scene.annotation.points}
        assert KeyPointClass.FLOATING_LEFT not in classes
        assert KeyPointClass.FLOATING_RIGHT not in classes
        fixed_ids = {
            kp
            for kp, loc in base_pixel_coordinates(MODEL, 20.0)
            if loc.x_px is not None
        }
        assert {p.kp for p in scene.annotation.points} == fixed_ids


def test_partial_view_drops_one_wall_and_keeps_floating_points():
    for seed in range(20):
        scene = make_scene(MODEL, SynthParams(view="partial", seed=seed), 0)
        classes = [p.kp.cls for p in scene.annotation.points]
        left = classes.count(KeyPointClass.WALL_LEFT)
        right = classes.count(KeyPointClass.WALL_RIGHT)
        assert left == 0 or right == 0
        floating = sum(
            1
            for c in classes
            if c in (KeyPointClass.FLOATING_LEFT, KeyPointClass.FLOATING_RIGHT)
        )
        assert floating >= 2


def test_scene_points_are_consistent_with_the_ground_truth_homography():
    base = dict(base_pixel_coordinates(MODEL, 20.0))
    for view in ("full", "partial"):
        scene = make_scene(MODEL, SynthParams(view=view, seed=3), 2)
        for point in scene.annotation.points:
            x, y = project(scene.homography_gt, (point.u, point.v))
            loc = base[point.kp]
            if loc.x_px is not None:
                assert math.dist((x, y), (loc.x_px, loc.y_px)) < 1e-6
            else:
                assert abs(y - loc.y_px) < 1e-6
                assert point.u in (0.0, 511.0)


def test_hand_built_clipped_camera_produces_exact_floating_points():
    # pure translation: u = x - 600, v = 350 - y, so the left wall (x=0)
    # sits 600 px off-frame and rows 63..350 px of the basin are visible
    camera = Homography([[1.0, 0.0, -600.0], [0.0, -1.0, 350.0], [0.0, 0.0, 1.0]])
    ann = project_scene(MODEL, camera, 288, 512, 20.0)
    by_cls = {}
    for point in ann.points:
        by_cls.setdefault(point.kp.cls, {})[point.kp.index] = point
    assert set(by_cls) == {KeyPointClass.WALL_RIGHT, KeyPointClass.FLOATING_LEFT}
    assert sorted(by_cls[KeyPointClass.WALL_RIGHT]) == [3, 4, 5, 6, 7]
    assert sorted(by_cls[KeyPointClass.FLOATING_LEFT]) == [3, 4, 5, 6, 7]
    for index, point in by_cls[KeyPointClass.WALL_RIGHT].items():
        assert point.u == pytest.approx(400.0)
        assert point.v == pytest.approx(350.0 - (0.25 + (index - 1) * 2.5) * 20.0)
    for index, point in by_cls[KeyPointClass.FLOATING_LEFT].items():
        assert point.u == 0.0
        assert point.v == pytest.approx(350.0 - (0.25 + (index - 1) * 2.5) * 20.0)


# hand-built base-to-frame candidates for the default 288x512 frame, against
# the pool's (1000, 410) base pixels at 20 px/m
EXTENT = (MODEL.basin_length_m * 20.0, MODEL.width_m * 20.0)
FRAMED = np.array([[0.45, 0.0, 31.0], [0.0, -0.45, 250.0], [0.0, 0.0, 1.0]])


def test_usable_scene_accepts_a_framed_candidate():
    camera, ann = synth._usable_scene(FRAMED, MODEL, SynthParams(), None, EXTENT)
    assert camera.flat() == Homography(FRAMED).flat()
    assert ann == project_scene(MODEL, camera, 288, 512, 20.0)


def test_usable_scene_rejects_a_pool_corner_behind_the_camera():
    # w = 1 - x / 500 falls to -1 at the far end wall
    matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.002, 0.0, 1.0]])
    assert synth._project_safe(matrix, EXTENT[0], 0.0) is None
    assert synth._project_safe(matrix, 500.0, 0.0) is None  # the horizon
    assert synth._project_safe(matrix, 0.0, 0.0) == (0.0, 0.0)
    assert synth._usable_scene(matrix, MODEL, SynthParams(), None, EXTENT) is None


def test_usable_scene_rejects_a_partial_view_whose_end_wall_is_visible():
    assert not synth._wall_outside(FRAMED, 0.0, EXTENT[1], 288, 512)
    assert synth._usable_scene(FRAMED, MODEL, SynthParams(), "left", EXTENT) is None


def test_usable_scene_rejects_a_partial_view_with_fewer_than_two_floating_points():
    # turned a quarter: u = y / 2 + 100, v = x / 4 - 10, so the left end wall
    # lies above the frame and the lane-ropes run down it, crossing no side
    matrix = np.array([[0.0, 0.5, 100.0], [0.25, 0.0, -10.0], [0.0, 0.0, 1.0]])
    assert synth._wall_outside(matrix, 0.0, EXTENT[1], 288, 512)
    ann = project_scene(MODEL, Homography(matrix), 288, 512, 20.0)
    classes = {p.kp.cls for p in ann.points}
    assert len(ann.points) >= 5
    assert not classes & {KeyPointClass.FLOATING_LEFT, KeyPointClass.FLOATING_RIGHT}
    assert synth._usable_scene(matrix, MODEL, SynthParams(), "left", EXTENT) is None


def test_perfect_detections_mirror_the_annotation():
    scene = make_scene(MODEL, SynthParams(seed=7), 0)
    det = perfect_detections(scene.annotation)
    assert det.frame_id == scene.annotation.frame_id
    assert len(det.detections) == len(scene.annotation.points)
    assert all(d.entropy == 0.0 for d in det.detections)
    counts = match_frame(det, scene.annotation, EvalParams()).counts
    assert counts.fp == 0 and counts.fn == 0


def test_noise_free_volume_decodes_back_to_the_annotation():
    scene = make_scene(MODEL, SynthParams(seed=2), 0)
    det = decode(scene.volume, DecodeParams(beta=0.9), scene.annotation.frame_id)
    report = evaluate([(det, scene.annotation)], EvalParams(tolerance_px=5.0))
    assert report.mean_f1 == 1.0


def test_dropout_one_flattens_every_channel():
    scene = make_scene(MODEL, SynthParams(seed=9), 0)
    volume = synthesize_volume(
        scene.annotation, 288, 512, NoiseParams(dropout_rate=1.0), seed=1
    )
    assert np.allclose(volume.data, 1.0 / (288 * 512))
    det = decode(volume, DecodeParams(beta=0.9), "f")
    assert det.detections == ()


def test_minimal_peak_mass_is_exactly_flat():
    scene = make_scene(MODEL, SynthParams(seed=9), 0)
    volume = synthesize_volume(
        scene.annotation, 288, 512, NoiseParams(peak_mass=1.0 / (288 * 512)), seed=1
    )
    assert (volume.data == 1.0 / (288 * 512)).all()


def test_full_peak_mass_is_an_exact_delta():
    scene = make_scene(MODEL, SynthParams(seed=9), 0)
    volume = synthesize_volume(scene.annotation, 288, 512, NoiseParams(), seed=1)
    annotated = scene.annotation.by_id
    from poolkey.model import CHANNEL_IDS

    for channel, kp in enumerate(CHANNEL_IDS):
        plane = volume.data[channel]
        if kp in annotated:
            assert plane.max() == 1.0
            assert np.count_nonzero(plane) == 1
            assert channel_entropy(plane) == 0.0
        else:
            assert np.allclose(plane, 1.0 / (288 * 512))


def test_peak_mass_orders_channel_entropy():
    scene = make_scene(MODEL, SynthParams(seed=9), 0)
    entropies = []
    for mass in (0.3, 0.6, 0.9):
        volume = synthesize_volume(
            scene.annotation, 288, 512, NoiseParams(peak_mass=mass), seed=1
        )
        channel = canonical_channel_index(scene.annotation.points[0].kp)
        entropies.append(channel_entropy(volume.data[channel]))
    assert entropies[0] > entropies[1] > entropies[2]


def test_false_positives_fill_absent_channels():
    ann = read_back = None
    from poolkey import FrameAnnotation

    empty = FrameAnnotation("f", 72, 128, ())
    volume = synthesize_volume(empty, 72, 128, NoiseParams(false_positive_rate=1.0), seed=3)
    det = decode(volume, DecodeParams(beta=0.9), "f")
    assert len(det.detections) == 96
    counts = match_frame(det, empty, EvalParams()).counts
    assert counts.tp == 0 and counts.fp == 96


def test_location_noise_moves_peaks_but_stays_bounded():
    scene = make_scene(MODEL, SynthParams(seed=4), 0)
    volume = synthesize_volume(
        scene.annotation, 288, 512, NoiseParams(loc_sigma_px=2.0), seed=17
    )
    det = decode(volume, DecodeParams(beta=0.9), scene.annotation.frame_id)
    perfect = {p.kp: (p.u, p.v) for p in scene.annotation.points}
    distances = [
        math.dist((d.u, d.v), perfect[d.kp]) for d in det.detections
    ]
    assert len(distances) == len(perfect)
    assert sum(1 for d in distances if d > 0.5) >= len(distances) // 2
    assert max(distances) < 12.0  # a few sigma plus cell rounding
    pairs = [(det, scene.annotation)]
    loose = evaluate(pairs, EvalParams(tolerance_px=5.0))
    tight = evaluate(pairs, EvalParams(tolerance_px=2.0))
    assert loose.mean_f1 > tight.mean_f1


def test_annotation_outside_volume_is_rejected():
    from poolkey import FrameAnnotation
    from poolkey.heatmap import AnnotationPoint
    from poolkey.model import CHANNEL_IDS

    ann = FrameAnnotation("f", 288, 512, (AnnotationPoint(CHANNEL_IDS[0], 5.0, 5.0),))
    with pytest.raises(ValidationError, match="outside"):
        synthesize_volume(ann, 4, 4, NoiseParams(), seed=0)


def test_out_of_grid_point_is_out_of_bounds_for_both_builders():
    from poolkey import FrameAnnotation, OutOfBoundsError, make_target_volume
    from poolkey.heatmap import AnnotationPoint
    from poolkey.model import CHANNEL_IDS

    ann = FrameAnnotation("f", 8, 8, (AnnotationPoint(CHANNEL_IDS[5], 6.0, 2.0),))
    with pytest.raises(OutOfBoundsError, match="outside 4x4"):
        synthesize_volume(ann, 4, 4, NoiseParams(), seed=0)
    with pytest.raises(OutOfBoundsError, match="outside 4x4"):
        make_target_volume(ann, 4, 4)


@pytest.mark.parametrize("view", ["full", "partial"])
def test_noise_free_volume_is_the_target_volume_byte_for_byte(view):
    from poolkey import make_target_volume

    ann = make_scene(MODEL, _small(view, seed=9), 1).annotation
    synthesized = synthesize_volume(ann, ann.rows, ann.cols, NoiseParams(), seed=3)
    target = make_target_volume(ann, ann.rows, ann.cols)
    assert synthesized.data.tobytes() == target.data.tobytes()


def test_make_scene_projects_the_accepted_camera_once(monkeypatch):
    import poolkey.synth as synth

    params = _small(jitter=CameraJitter.none())  # the first candidate is accepted
    camera = sample_camera(MODEL, params)
    expected = project_scene(MODEL, camera, 72, 128, frame_id="scene_0002")
    calls = []

    def counted(model, camera, *args, **kwargs):
        calls.append(camera.flat())
        return project_scene(model, camera, *args, **kwargs)

    monkeypatch.setattr(synth, "project_scene", counted)
    scene = make_scene(MODEL, params, 2)
    assert calls == [camera.flat()]
    assert scene.annotation == expected


def _whole_volume_file(volume) -> bytes:
    """The file as a whole-volume float32 cast writes it, the reference."""
    header = (1, volume.rows, volume.cols, volume.channels)
    words = b"".join(n.to_bytes(4, "little") for n in header)
    return b"PKHV" + words + volume.data.astype("<f4").tobytes()


@pytest.mark.parametrize("mass", [1.0, 0.7, 0.3])
@pytest.mark.parametrize("view", ["full", "partial", "2x1"])
def test_streamed_file_is_the_built_volume_byte_for_byte(tmp_path, view, mass):
    if view == "2x1":
        plan = PeakPlan(2, 1, {0: (1, 0, mass), 17: (0, 0, mass), 95: (1, 0, 1.0)})
    else:
        noise = replace(NOISY, peak_mass=mass)
        plan = make_scene(MODEL, _small(view, noise=noise, seed=3), 1).plan
    volume = plan.volume()
    write_volume(plan, tmp_path / "streamed.pkhv")
    write_volume(volume, tmp_path / "built.pkhv")
    streamed = (tmp_path / "streamed.pkhv").read_bytes()
    assert streamed == (tmp_path / "built.pkhv").read_bytes()
    assert streamed == _whole_volume_file(volume)


def test_make_scene_builds_no_volume_until_it_is_read(monkeypatch, tmp_path):
    builds = []
    build = PeakPlan.volume

    def counted(plan):
        builds.append(plan)
        return build(plan)

    monkeypatch.setattr(PeakPlan, "volume", counted)
    params = _small("partial", seed=5)
    generate_dataset(MODEL, 2, params, tmp_path / "run")
    scene = make_scene(MODEL, params, 1)
    assert builds == []
    volume = scene.volume
    assert builds == [scene.plan] and scene.volume is volume
    assert volume.data.shape == (96, 72, 128)


def test_generate_dataset_writes_the_built_volumes_with_any_worker_count(tmp_path):
    params = _small("partial", noise=NOISY, seed=8)
    trees = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        generate_dataset(MODEL, 3, params, out, workers=workers)
        files = (p for p in out.rglob("*") if p.is_file())
        trees.append({p.relative_to(out): p.read_bytes() for p in files})
    assert trees[0] == trees[1]
    for index in range(3):
        volume = make_scene(MODEL, params, index).volume
        written = trees[0][Path("volumes") / f"scene_{index:04d}.pkhv"]
        assert written == _whole_volume_file(volume)


def test_generate_dataset_memory_stays_bounded(tmp_path):
    # one 96 x 288 x 512 float64 volume is 113 MB; a streamed write holds
    # one float64 and one float32 plane (1.2 MB and 0.6 MB) at a time
    params = SynthParams(view="partial", noise=NOISY, seed=0)
    tracemalloc.start()
    try:
        generate_dataset(MODEL, 1, params, tmp_path / "run")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_sampling_error_when_jitter_never_frames_the_pool():
    params = SynthParams(jitter=CameraJitter(translation=100.0), seed=0)
    with pytest.raises(SamplingError, match="200"):
        make_scene(MODEL, params, 0)


def test_params_validation():
    with pytest.raises(ValidationError):
        SynthParams(frame_rows=8)
    with pytest.raises(ValidationError):
        SynthParams(view="wide")
    with pytest.raises(ValidationError):
        SynthParams(seed=-2)
    with pytest.raises(ValidationError):
        NoiseParams(peak_mass=0.0)
    with pytest.raises(ValidationError):
        NoiseParams(dropout_rate=1.5)


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_params_check_the_scale_through_the_base_pixel_rule(scale):
    with pytest.raises(ValidationError, match="positive and finite"):
        SynthParams(scale_px_per_m=scale)
    with pytest.raises(ValidationError, match="positive and finite"):
        base_pixel_coordinates(MODEL, scale)


def test_generate_dataset_round_trip(tmp_path):
    params = _small(seed=6)
    manifest = generate_dataset(MODEL, 3, params, tmp_path / "run")
    assert [s["id"] for s in manifest["scenes"]] == [
        "scene_0000",
        "scene_0001",
        "scene_0002",
    ]
    assert manifest["params"]["frame_rows"] == 72
    on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert on_disk == manifest
    for entry in manifest["scenes"]:
        ann = read_annotation(tmp_path / "run" / entry["annotation_path"])
        volume = read_volume(tmp_path / "run" / entry["volume_path"])
        doc = json.loads((tmp_path / "run" / entry["homography_path"]).read_text())
        scene = make_scene(MODEL, params, int(entry["id"].split("_")[1]))
        assert ann == scene.annotation
        # the file stores 32-bit floats, so compare at that precision
        assert (volume.data == scene.volume.data.astype(np.float32)).all()
        assert doc["h"] == scene.homography_gt.flat()
        assert entry["seed"] == [6, int(entry["id"].split("_")[1])]


def test_generate_dataset_bytes_are_reproducible(tmp_path):
    params = _small(seed=6)
    generate_dataset(MODEL, 3, params, tmp_path / "a", workers=1)
    generate_dataset(MODEL, 3, params, tmp_path / "b", workers=3)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_generate_dataset_rejects_empty_runs(tmp_path):
    with pytest.raises(ValidationError):
        generate_dataset(MODEL, 0, _small(), tmp_path / "x")
