"""Volume codec: targets, softmax, loss, entropy, decode, binary file IO."""

import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from poolkey import (
    CHANNEL_IDS,
    AnnotationPoint,
    DecodeParams,
    Detection,
    DetectionSet,
    FormatError,
    FrameAnnotation,
    HeatmapVolume,
    NumericError,
    OutOfBoundsError,
    ShapeError,
    ValidationError,
    channel_entropy,
    cross_entropy_loss,
    decode,
    make_target_volume,
    read_volume,
    softmax_normalize,
    write_volume,
)
from poolkey import heatmap
from poolkey.heatmap import LOG_CLAMP, PeakPlan, nearest_cell
from poolkey.model import KeyPointClass, KeyPointId, canonical_channel_index

WL0 = KeyPointId(KeyPointClass.WALL_LEFT, 0)


def _random_volume(rng, channels=96, rows=4, cols=4):
    return softmax_normalize(rng.normal(0, 3, size=(channels, rows, cols)))


def _full_annotation(rng, rows, cols, frame_id="f"):
    """Annotation that places every one of the 96 ids somewhere in-grid."""
    points = tuple(
        AnnotationPoint(kp, float(rng.uniform(0, cols - 1)), float(rng.uniform(0, rows - 1)))
        for kp in CHANNEL_IDS
    )
    return FrameAnnotation(frame_id, rows, cols, points)


def test_nearest_cell_half_up_and_clamped():
    assert nearest_cell(0.49, 10) == 0
    assert nearest_cell(0.5, 10) == 1
    assert nearest_cell(-0.3, 10) == 0
    assert nearest_cell(9.7, 10) == 9
    assert nearest_cell(42.0, 10) == 9
    assert nearest_cell(math.inf, 10) == 9
    assert nearest_cell(-math.inf, 10) == 0
    assert nearest_cell(math.inf, 1) == nearest_cell(-math.inf, 1) == 0


@pytest.mark.parametrize("limit", [1, 2, 10, 512])
def test_nearest_cell_of_a_finite_coord_is_the_clamped_floor(limit):
    below = np.nextafter(0.5, 0.0)
    coords = [
        *np.linspace(-3.0, limit + 3.0, 8 * (limit + 6) + 1),
        *(edge + offset for edge in (-1.0, 0.0, limit - 1.0, float(limit))
          for offset in (-0.5, -below, 0.5, below, np.nextafter(-0.5, -1.0))),
        -0.0, 2.0**53, -(2.0**53), 1e20, -1e20, 1e308, -1e308,
    ]
    for coord in coords:
        floor = min(max(int(math.floor(coord + 0.5)), 0), limit - 1)
        cell = nearest_cell(coord, limit)
        assert type(cell) is int and cell == floor, coord


def test_target_volume_delta_and_flat():
    ann = FrameAnnotation("f", 2, 2, (AnnotationPoint(WL0, 0.0, 0.0),))
    vol = make_target_volume(ann, 2, 2)
    assert vol.channel(0).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    for c in range(1, 96):
        assert vol.channel(c).tolist() == [[0.25, 0.25], [0.25, 0.25]]


def test_target_volume_empty_annotation_is_all_flat():
    vol = make_target_volume(FrameAnnotation("f", 2, 2, ()), 2, 2)
    assert np.all(vol.data == 0.25)


def test_target_volume_rounds_half_up():
    ann = FrameAnnotation("f", 4, 4, (AnnotationPoint(WL0, 1.5, 2.49),))
    vol = make_target_volume(ann, 4, 4)
    assert vol.channel(0)[2, 2] == 1.0


def test_target_volume_rejects_out_of_grid_points():
    ann = FrameAnnotation("f", 8, 8, (AnnotationPoint(WL0, 7.5, 7.5),))
    with pytest.raises(OutOfBoundsError):
        make_target_volume(ann, 4, 4)


def test_target_volume_on_a_one_cell_grid():
    ann = FrameAnnotation("f", 1, 1, (AnnotationPoint(WL0, 0.2, 0.7),))
    vol = make_target_volume(ann, 1, 1)
    assert vol.data.shape == (96, 1, 1)
    assert np.all(vol.data == 1.0)


def test_softmax_uniform_logits():
    vol = softmax_normalize(np.zeros((96, 2, 2)))
    assert np.allclose(vol.data, 0.25)


def test_softmax_hand_computed_ratios():
    logits = np.zeros((1, 2, 2))
    logits[0, 0, 0] = math.log(2.0)
    vol = softmax_normalize(logits)
    assert vol.channel(0).flatten() == pytest.approx([0.4, 0.2, 0.2, 0.2], abs=1e-12)


def test_softmax_channels_sum_to_one():
    rng = np.random.default_rng(7)
    vol = _random_volume(rng, rows=5, cols=3)
    assert np.allclose(vol.data.sum(axis=(1, 2)), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(8)
    logits = rng.normal(0, 5, size=(4, 3, 3))
    shifted = logits + rng.normal(0, 50, size=(4, 1, 1))
    a = softmax_normalize(logits)
    b = softmax_normalize(shifted)
    assert np.abs(a.data - b.data).max() < 1e-9


def test_softmax_rejects_non_finite():
    bad = np.zeros((1, 2, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        softmax_normalize(bad)


@pytest.mark.parametrize(
    "build, shape",
    [
        (HeatmapVolume, (0, 2, 2)),
        (HeatmapVolume, (1, 0, 2)),
        (HeatmapVolume, (1, 2, 0)),
        (softmax_normalize, (1, 0, 3)),
        (softmax_normalize, (0, 2, 2)),
    ],
)
def test_an_empty_axis_is_a_shape_error(build, shape):
    with pytest.raises(ShapeError):
        build(np.zeros(shape))


def test_loss_brute_force_oracle():
    """Vectorized loss against an explicit per-cell double sum."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        target = softmax_normalize(rng.normal(0, 2, size=(3, 4, 4)))
        pred = softmax_normalize(rng.normal(0, 2, size=(3, 4, 4)))
        reference = 0.0
        for j in range(3):
            for r in range(4):
                for c in range(4):
                    y = target.data[j, r, c]
                    h = max(pred.data[j, r, c], 1e-12)
                    reference -= y * math.log(h)
        assert abs(cross_entropy_loss(target, pred) - reference) < 1e-9


def test_loss_zero_for_matching_delta_targets():
    rng = np.random.default_rng(5)
    target = make_target_volume(_full_annotation(rng, 6, 6), 6, 6)
    assert cross_entropy_loss(target, target) <= 1e-9


def test_loss_delta_versus_flat_is_log_cell_count():
    ann = FrameAnnotation("f", 2, 2, (AnnotationPoint(WL0, 0.0, 0.0),))
    target = make_target_volume(ann, 2, 2)
    flat = HeatmapVolume(np.full((96, 2, 2), 0.25))
    # annotated channel contributes ln4; the 95 flat-on-flat channels each
    # contribute their own entropy ln4 as well
    expected = 96 * math.log(4.0)
    assert cross_entropy_loss(target, flat) == pytest.approx(expected, abs=1e-9)


def test_loss_gibbs_inequality():
    rng = np.random.default_rng(12)
    for _ in range(50):
        target = softmax_normalize(rng.normal(0, 2, size=(2, 3, 5)))
        pred = softmax_normalize(rng.normal(0, 2, size=(2, 3, 5)))
        self_entropy = sum(channel_entropy(target.channel(i)) for i in range(2))
        assert cross_entropy_loss(target, pred) >= self_entropy - 1e-9


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 7, 11), (5, 37, 53), (96, 36, 64)])
def test_loss_is_bit_equal_to_the_whole_volume_formula(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1.0, 40.0):  # the wider logits put predictions below the clamp
        target = softmax_normalize(rng.normal(0, scale, size=shape))
        pred = softmax_normalize(rng.normal(0, scale, size=shape))
        clamped = np.maximum(pred.data, LOG_CLAMP)
        expected = float(-np.sum(target.data * np.log(clamped)))
        assert cross_entropy_loss(target, pred).hex() == expected.hex()
    if shape[1] * shape[2] > 1:
        assert (pred.data < LOG_CLAMP).any()


def test_loss_shape_mismatch():
    a = HeatmapVolume(np.full((1, 2, 2), 0.25))
    b = HeatmapVolume(np.full((1, 4, 4), 1 / 16))
    with pytest.raises(ShapeError):
        cross_entropy_loss(a, b)


def test_entropy_reference_values():
    assert channel_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0
    flat = np.full((7, 11), 1.0 / 77)
    assert abs(channel_entropy(flat) - math.log(77)) < 1e-9
    assert channel_entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    with pytest.raises(ValidationError):
        channel_entropy(np.array([0.9, 0.2, -0.1]))


def test_entropy_bounded_by_log_cells():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vol = _random_volume(rng, channels=1, rows=5, cols=7)
        h = channel_entropy(vol.channel(0))
        assert -1e-12 <= h <= math.log(35) + 1e-9


def test_decode_flat_channel_rejected_at_gate():
    # ln4 = 1.3863 is not below 0.9 * ln4 = 1.2477
    vol = HeatmapVolume(np.full((96, 2, 2), 0.25))
    assert decode(vol, DecodeParams(0.9)).detections == ()


def test_decode_delta_channel_detected():
    data = np.full((96, 2, 2), 0.25)
    data[0] = [[0.0, 0.0], [1.0, 0.0]]
    detections = decode(HeatmapVolume(data), DecodeParams(0.5)).detections
    assert len(detections) == 1
    det = detections[0]
    assert det.kp == WL0
    assert (det.u, det.v) == (0.0, 1.0)
    assert det.entropy == 0.0


def test_decode_beta_zero_rejects_everything():
    rng = np.random.default_rng(9)
    ann = _full_annotation(rng, 4, 4)
    vol = make_target_volume(ann, 4, 4)
    assert decode(vol, DecodeParams(0.0)).detections == ()


def test_decode_argmax_tie_breaks_to_smallest_row_major_cell():
    data = np.full((96, 2, 2), 0.25)
    data[3] = [[0.0, 0.5], [0.5, 0.0]]
    det = decode(HeatmapVolume(data), DecodeParams(0.9)).detections
    by_id = {d.kp: d for d in det}
    winner = by_id[CHANNEL_IDS[3]]
    assert (winner.u, winner.v) == (1.0, 0.0)  # cell (0,1) beats (1,0)


def test_decode_detection_sets_nest_as_beta_grows():
    rng = np.random.default_rng(21)
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(30):
        vol = _random_volume(rng)
        previous = set()
        for beta in betas:
            ids = {d.kp for d in decode(vol, DecodeParams(beta)).detections}
            assert previous <= ids
            previous = ids


def test_decode_requires_96_channels():
    vol = HeatmapVolume(np.full((3, 2, 2), 0.25))
    with pytest.raises(ValidationError):
        decode(vol, DecodeParams(0.9))


def test_decode_params_range():
    with pytest.raises(ValidationError):
        DecodeParams(-0.1)
    with pytest.raises(ValidationError):
        DecodeParams(1.2)


def test_volume_validation():
    with pytest.raises(ValidationError):
        HeatmapVolume(np.full((1, 2, 2), -0.25))
    bad_sum = np.full((1, 2, 2), 0.3)
    with pytest.raises(ValidationError):
        HeatmapVolume(bad_sum)
    almost = np.full((1, 2, 2), 0.25)
    almost[0, 0, 0] += 5e-7  # inside the 1e-6 budget
    HeatmapVolume(almost)
    with pytest.raises(ShapeError):
        HeatmapVolume(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        HeatmapVolume(np.full((1, 2, 2), np.nan))


def test_volume_copies_its_input():
    data = np.full((2, 2, 2), 0.25)
    vol = HeatmapVolume(data)
    data[0, 0, 0] = 0.5
    assert np.all(vol.data == 0.25)


def test_volume_checks_do_not_depend_on_the_input_layout():
    # a strided plane may sum in another order than its C-order copy
    data = np.random.default_rng(2).random((1, 37, 53))
    messages = set()
    for layout in (data, np.asfortranarray(data), np.repeat(data, 2, axis=2)[..., ::2]):
        with pytest.raises(ValidationError) as err:
            HeatmapVolume(layout)
        messages.add(str(err.value))
    assert len(messages) == 1, messages


def test_volume_data_is_read_only():
    vol = HeatmapVolume(np.full((1, 2, 2), 0.25))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


def test_file_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(33)
    vol = _random_volume(rng, rows=6, cols=5)
    path = tmp_path / "vol.pkhv"
    write_volume(vol, path)
    loaded = read_volume(path)
    expected = vol.data.astype("<f4").astype(np.float64)
    assert np.array_equal(loaded.data, expected)
    # a second write of the loaded volume reproduces the file bitwise
    second = tmp_path / "again.pkhv"
    write_volume(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_file_header_fields(tmp_path):
    vol = HeatmapVolume(np.full((96, 3, 2), 1.0 / 6))
    path = tmp_path / "v.pkhv"
    write_volume(vol, path)
    blob = path.read_bytes()
    assert blob[:4] == b"PKHV"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 3
    assert int.from_bytes(blob[12:16], "little") == 2
    assert int.from_bytes(blob[16:20], "little") == 96
    assert len(blob) == 20 + 96 * 3 * 2 * 4


@pytest.mark.parametrize(
    "plan, error",
    [
        (PeakPlan(2, 2, {40: (1, 0, math.nan)}), NumericError),
        (PeakPlan(1, 1, {7: (0, 0, 0.5)}), ValidationError),
        (PeakPlan(2, 3, {0: (1, 2, -0.5)}), ValidationError),
        (PeakPlan(2, 3, {20: (0, 0, 1.5), 61: (1, 1, math.nan)}), NumericError),
        (PeakPlan(1, 1, {3: (0, 0, 0.5), 50: (0, 0, 1.5), 51: (0, 0, 1.0)}),
         ValidationError),
        (PeakPlan(1, 1, {95: (0, 0, 0.25)}), ValidationError),
    ],
    ids=["nan-plane", "wrong-sum", "negative-before-flat", "nan-after-negative",
         "tied-sums-between-flat", "wrong-sum-after-flat"],
)
def test_failed_streamed_write_leaves_no_file(tmp_path, plan, error):
    with pytest.raises(error) as built:
        plan.volume()
    path = tmp_path / "v.pkhv"
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$"):
        write_volume(plan, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "build",
    [
        lambda path: write_volume(PeakPlan(1, 1, {4: (0, 0, 1e300)}), path),
        lambda path: HeatmapVolume(np.full((1, 1, 2), 1e308)),
    ],
    ids=["plan-beyond-float32", "sum-beyond-float64"],
)
def test_values_beyond_the_float_range_are_validation_errors(tmp_path, build):
    path = tmp_path / "v.pkhv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            build(path)
    assert not path.exists()


@pytest.mark.parametrize(
    "planned",
    [[0], [95], [3, 40, 41, 95], list(range(1, 95))],
    ids=["first", "last", "four", "all-but-two"],
)
def test_plan_write_builds_checks_and_casts_each_distinct_plane_once(
    tmp_path, monkeypatch, planned
):
    rng = np.random.default_rng(len(planned))
    peaks = {c: (int(rng.integers(4)), int(rng.integers(7)), 0.7) for c in planned}
    plan = PeakPlan(4, 7, peaks)
    write_volume(plan.volume(), tmp_path / "built.pkhv")
    steps = {}

    def counted(step, planes):
        def counting(*args):
            for plane in planes(*args):
                steps[step] = steps.get(step, 0) + 1
                yield plane

        return counting

    monkeypatch.setattr(PeakPlan, "planes", counted("fill", PeakPlan.planes))
    for step, name in (("check", "_checked_planes"), ("cast", "_cast_planes")):
        monkeypatch.setattr(heatmap, name, counted(step, getattr(heatmap, name)))
    write_volume(plan, tmp_path / "plan.pkhv")
    # k planned channels and one flat plane, not 96 planes
    k = len(planned)
    assert steps == {"fill": k + 1, "check": k + 1, "cast": k + 1}
    built = (tmp_path / "built.pkhv").read_bytes()
    assert (tmp_path / "plan.pkhv").read_bytes() == built


def test_read_volume_error_offsets(tmp_path):
    path = tmp_path / "bad.pkhv"

    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError, match="offset 0"):
        read_volume(path)

    path.write_bytes(b"PKHV\x02\x00\x00\x00" + bytes(12))
    with pytest.raises(FormatError, match="version"):
        read_volume(path)

    path.write_bytes(b"PKHV" + (1).to_bytes(4, "little") * 4 + bytes(1))
    with pytest.raises(FormatError, match="truncat"):
        read_volume(path)

    good = b"PKHV" + b"".join(
        v.to_bytes(4, "little") for v in (1, 1, 1, 1)
    ) + np.float32(1.0).tobytes()
    path.write_bytes(good + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        read_volume(path)


def test_read_volume_accepts_but_flags_other_channel_counts(tmp_path, caplog):
    vol = HeatmapVolume(np.full((3, 2, 2), 0.25))
    path = tmp_path / "c3.pkhv"
    write_volume(vol, path)
    with caplog.at_level(logging.WARNING):
        loaded = read_volume(path)
    assert loaded.channels == 3
    assert any("96" in message for message in caplog.messages)
    with pytest.raises(ValidationError):
        decode(loaded, DecodeParams(0.9))


def test_annotation_invariants():
    with pytest.raises(ValidationError):
        FrameAnnotation("f", 2, 2, (AnnotationPoint(WL0, 0.0, 0.0),) * 2)
    with pytest.raises(ValidationError):
        FrameAnnotation("f", 2, 2, (AnnotationPoint(WL0, 2.0, 0.0),))
    with pytest.raises(ValidationError):
        FrameAnnotation("f", 0, 2, ())


def test_detection_set_invariants():
    d = Detection(WL0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        DetectionSet("f", 2, 2, (d, d))
    with pytest.raises(ValidationError):
        DetectionSet("f", 2, 2, (Detection(WL0, 0.0, 0.0, -1.0),))
    with pytest.raises(ValidationError):
        DetectionSet("f", 2, 2, (Detection(WL0, 0.0, 5.0, 0.0),))


def test_channel_order_matches_canonical_index():
    rng = np.random.default_rng(2)
    ann = _full_annotation(rng, 8, 8)
    vol = make_target_volume(ann, 8, 8)
    for pt in ann.points:
        channel = vol.channel(canonical_channel_index(pt.kp))
        assert channel[nearest_cell(pt.v, 8), nearest_cell(pt.u, 8)] == 1.0


def test_target_volume_on_an_empty_grid_is_a_shape_error():
    with pytest.raises(ShapeError):
        make_target_volume(FrameAnnotation("f", 4, 4), 0, 5)


@pytest.mark.parametrize(
    "plan, error",
    [
        (PeakPlan(0, 3, {}), ShapeError),
        (PeakPlan(3, 0, {}), ShapeError),
        (PeakPlan(-1, 3, {}), ShapeError),
        (PeakPlan(4, 5, {200: (0, 0, 1.0)}), ValidationError),
        (PeakPlan(4, 5, {96: (0, 0, 1.0)}), ValidationError),
        (PeakPlan(4, 5, {-1: (0, 0, 1.0)}), ValidationError),
        (PeakPlan(4, 5, {3: (-1, 0, 1.0)}), OutOfBoundsError),
        (PeakPlan(4, 5, {3: (0, -1, 1.0)}), OutOfBoundsError),
        (PeakPlan(4, 5, {3: (4, 0, 1.0)}), OutOfBoundsError),
        (PeakPlan(4, 5, {3: (0, 5, 1.0)}), OutOfBoundsError),
    ],
    ids=["no-rows", "no-cols", "negative-rows", "channel-200", "channel-96",
         "channel-negative", "row-negative", "col-negative", "row-past-end",
         "col-past-end"],
)
def test_a_plan_outside_its_grid_or_channels_is_refused_before_any_fill(
    tmp_path, plan, error
):
    with pytest.raises(error) as called:
        plan.planes()  # raised at the call, before the first plane is built
    assert called.type is error
    with pytest.raises(error) as built:
        plan.volume()
    assert built.type is error
    path = tmp_path / "v.pkhv"
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$") as written:
        write_volume(plan, path)
    assert written.type is error
    assert not path.exists()


def _three_temporary_softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax formula with a shifted copy, an exp copy and a quotient."""
    shifted = logits - logits.max(axis=(1, 2), keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=(1, 2), keepdims=True)


@pytest.mark.parametrize(
    "shape",
    [(1, 1, 1), (3, 7, 11), (5, 37, 53), (96, 36, 64), (96, 72, 128), (2, 1, 9)],
)
def test_softmax_is_bit_equal_to_the_three_temporary_formula(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1.0, 40.0, 700.0):  # the wider logits underflow most cells
        logits = rng.normal(0, scale, size=shape)
        got = softmax_normalize(logits).data
        # the same bits: float.hex equality, cell by cell
        assert np.array_equal(
            got.view(np.uint64), _three_temporary_softmax(logits).view(np.uint64)
        )


def test_softmax_holds_one_work_array_besides_its_volume():
    logits = np.random.default_rng(5).normal(0, 3, size=(96, 72, 128))
    tracemalloc.start()
    try:
        softmax_normalize(logits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the shifted work array and the volume: the three-temporary formula held four
    assert peak < 2.2 * logits.nbytes, peak / logits.nbytes
