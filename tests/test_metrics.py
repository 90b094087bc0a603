"""Matching and scoring: counting rules, aggregation, sweeps, report files."""

import csv
import json
import math

import numpy as np
import pytest

from poolkey import (
    AnnotationPoint,
    DecodeParams,
    Detection,
    DetectionSet,
    EvalParams,
    FrameAnnotation,
    HeatmapVolume,
    MatchCounts,
    ShapeError,
    ValidationError,
    beta_sweep,
    decode,
    evaluate,
    f1,
    make_target_volume,
    match_frame,
    precision,
    recall,
    report_to_dict,
    softmax_normalize,
    tolerance_sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from poolkey.heatmap import gate, summarize
from poolkey.model import (
    CHANNEL_IDS,
    KeyPointClass,
    KeyPointId,
    canonical_channel_index,
)

WL0 = KeyPointId(KeyPointClass.WALL_LEFT, 0)
WL1 = KeyPointId(KeyPointClass.WALL_LEFT, 1)
WR2 = KeyPointId(KeyPointClass.WALL_RIGHT, 2)


def _frame(frame_id, rows, cols, dets, gts):
    det = DetectionSet(
        frame_id, rows, cols, tuple(Detection(kp, u, v, 0.0) for kp, u, v in dets)
    )
    gt = FrameAnnotation(
        frame_id, rows, cols, tuple(AnnotationPoint(kp, u, v) for kp, u, v in gts)
    )
    return det, gt


def test_match_tp_on_tolerance_boundary():
    det, gt = _frame("a", 100, 100, [(WL0, 10.0, 10.0)], [(WL0, 13.0, 14.0)])
    match = match_frame(det, gt, EvalParams(tolerance_px=5.0))
    assert match.counts == MatchCounts(tp=1)  # distance exactly 5


def test_match_far_detection_is_fp_and_fn():
    det, gt = _frame("a", 100, 100, [(WL0, 10.0, 10.0)], [(WL0, 20.0, 20.0)])
    match = match_frame(det, gt, EvalParams(tolerance_px=5.0))
    assert match.counts == MatchCounts(fp=1, fn=1)


def test_match_detection_without_gt_is_fp():
    det, gt = _frame("a", 100, 100, [(WL0, 1.0, 1.0)], [])
    assert match_frame(det, gt, EvalParams()).counts == MatchCounts(fp=1)


def test_match_gt_without_detection_is_fn():
    det, gt = _frame("a", 100, 100, [], [(WL0, 1.0, 1.0)])
    assert match_frame(det, gt, EvalParams()).counts == MatchCounts(fn=1)


def test_match_resolution_mismatch():
    det, _ = _frame("a", 50, 100, [], [])
    _, gt = _frame("a", 100, 100, [], [])
    with pytest.raises(ShapeError):
        match_frame(det, gt, EvalParams())


def test_match_conserves_ground_truth():
    rng = np.random.default_rng(17)
    ids = list(CHANNEL_IDS)
    for _ in range(30):
        rng.shuffle(ids)
        gt_ids = ids[: rng.integers(0, 30)]
        det_ids = ids[10:30]
        det, gt = _frame(
            "a",
            64,
            64,
            [(kp, float(rng.uniform(0, 63)), float(rng.uniform(0, 63))) for kp in det_ids],
            [(kp, float(rng.uniform(0, 63)), float(rng.uniform(0, 63))) for kp in gt_ids],
        )
        counts = match_frame(det, gt, EvalParams(tolerance_px=3.0)).counts
        assert counts.tp + counts.fn == len(gt_ids)


def test_ratio_definitions_and_conventions():
    counts = MatchCounts(tp=2, fp=1, fn=1)
    assert precision(counts) == pytest.approx(2 / 3)
    assert recall(counts) == pytest.approx(2 / 3)
    assert f1(counts) == pytest.approx(2 / 3)
    empty = MatchCounts()
    assert (precision(empty), recall(empty), f1(empty)) == (0.0, 0.0, 0.0)


def test_f1_between_precision_and_recall():
    rng = np.random.default_rng(4)
    for _ in range(200):
        counts = MatchCounts(*(int(v) for v in rng.integers(0, 20, size=3)))
        p, r = precision(counts), recall(counts)
        if p + r == 0:
            continue
        assert min(p, r) - 1e-12 <= f1(counts) <= max(p, r) + 1e-12


def test_reported_f1_triples_are_consistent():
    # each reported (precision, recall) pair must reproduce its stated F1
    triples = [
        (0.7756, 0.8941, 0.8307),
        (0.7105, 0.7892, 0.7478),
        (0.8235, 0.8435, 0.8333),
    ]
    for p, r, expected in triples:
        assert abs(2 * p * r / (p + r) - expected) < 5e-4


def test_evaluate_mean_f1_averages_frames():
    perfect = _frame("a", 10, 10, [(WL0, 1.0, 1.0)], [(WL0, 1.0, 1.0)])
    missed = _frame("b", 10, 10, [], [(WL0, 1.0, 1.0)])
    report = evaluate([perfect, missed], EvalParams())
    assert report.mean_f1 == pytest.approx(0.5)
    assert [s.f1 for s in report.per_frame] == [1.0, 0.0]


def test_evaluate_planted_class_counts():
    """Per-class micro-aggregation against hand-computed ratios."""
    frames = [
        # wall_left_0: tp in both frames; wall_left_1: fp+fn then fn
        _frame(
            "a",
            100,
            100,
            [(WL0, 5.0, 5.0), (WL1, 50.0, 50.0)],
            [(WL0, 6.0, 5.0), (WL1, 10.0, 10.0)],
        ),
        _frame("b", 100, 100, [(WL0, 9.0, 9.0)], [(WL0, 9.0, 8.0), (WL1, 1.0, 1.0)]),
        # wall_right_2: lone false positive
        _frame("c", 100, 100, [(WR2, 3.0, 3.0)], []),
    ]
    report = evaluate(frames, EvalParams(tolerance_px=5.0))
    wall_left = report.per_class[KeyPointClass.WALL_LEFT]
    # counts: tp=2 (WL0 twice), fp=1, fn=2
    assert wall_left.precision == pytest.approx(2 / 3)
    assert wall_left.recall == pytest.approx(2 / 4)
    expected_f1 = 2 * (2 / 3) * (1 / 2) / ((2 / 3) + (1 / 2))
    assert wall_left.f1 == pytest.approx(expected_f1, abs=1e-12)
    assert wall_left.total == 4
    wall_right = report.per_class[KeyPointClass.WALL_RIGHT]
    assert wall_right.total == 0
    assert wall_right.precision == 0.0  # fp present, so not an absent scope
    floating = report.per_class[KeyPointClass.FLOATING_LEFT]
    assert floating.precision is None and floating.total == 0


def test_evaluate_per_keypoint_scores():
    frames = [
        _frame("a", 10, 10, [(WL0, 1.0, 1.0)], [(WL0, 1.0, 2.0)]),
        _frame("b", 10, 10, [], [(WL0, 4.0, 4.0)]),
    ]
    report = evaluate(frames, EvalParams(tolerance_px=5.0))
    score = report.per_keypoint[WL0]
    assert score.total == 2
    assert score.precision == 1.0
    assert score.recall == pytest.approx(0.5)
    assert report.per_keypoint[WR2].f1 is None


def test_evaluate_is_permutation_invariant():
    rng = np.random.default_rng(40)
    frames = []
    for i in range(8):
        points = [
            (kp, float(rng.uniform(0, 60)), float(rng.uniform(0, 60)))
            for kp in rng.choice(len(CHANNEL_IDS), size=12, replace=False)
        ]
        gts = [(CHANNEL_IDS[int(k)], u, v) for k, u, v in points]
        dets = [
            (kp, u + float(rng.normal(0, 3)), v + float(rng.normal(0, 3)))
            for kp, u, v in gts[:9]
        ]
        dets = [
            (kp, min(max(u, 0.0), 63.0), min(max(v, 0.0), 63.0)) for kp, u, v in dets
        ]
        frames.append(_frame(f"f{i}", 64, 64, dets, gts))
    forward = evaluate(frames, EvalParams(tolerance_px=4.0))
    backward = evaluate(frames[::-1], EvalParams(tolerance_px=4.0))
    assert forward.mean_f1 == pytest.approx(backward.mean_f1, abs=1e-15)
    assert forward.per_class == backward.per_class
    assert forward.per_keypoint == backward.per_keypoint


def test_evaluate_rejects_duplicate_and_mismatched_ids():
    a = _frame("a", 10, 10, [], [])
    with pytest.raises(ValidationError):
        evaluate([a, a], EvalParams())
    det, _ = _frame("x", 10, 10, [], [])
    _, gt = _frame("y", 10, 10, [], [])
    with pytest.raises(ValidationError):
        evaluate([(det, gt)], EvalParams())


def test_empty_frame_scores_zero_without_false_positives():
    report = evaluate([_frame("a", 10, 10, [], [])], EvalParams())
    frame = report.per_frame[0]
    assert (frame.precision, frame.recall, frame.f1) == (0.0, 0.0, 0.0)
    assert all(s.precision is None for s in report.per_class.values())


def test_frame_f1_non_decreasing_in_tolerance():
    rng = np.random.default_rng(77)
    for _ in range(20):
        ids = rng.choice(len(CHANNEL_IDS), size=10, replace=False)
        gts = [
            (CHANNEL_IDS[int(k)], float(rng.uniform(5, 59)), float(rng.uniform(5, 59)))
            for k in ids
        ]
        dets = [
            (kp, u + float(rng.normal(0, 4)), v + float(rng.normal(0, 4)))
            for kp, u, v in gts
        ]
        dets = [
            (kp, min(max(u, 0.0), 63.0), min(max(v, 0.0), 63.0)) for kp, u, v in dets
        ]
        det, gt = _frame("a", 64, 64, dets, gts)
        scores = [
            f1(match_frame(det, gt, EvalParams(tolerance_px=t)).counts)
            for t in (1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def _perfect_pairs(rng, frames=3, rows=8, cols=8):
    """Volumes built from their own ground truth: exact delta channels."""
    pairs = []
    for i in range(frames):
        ids = [CHANNEL_IDS[int(k)] for k in rng.choice(96, size=20, replace=False)]
        points = tuple(
            AnnotationPoint(kp, float(rng.integers(0, cols)), float(rng.integers(0, rows)))
            for kp in ids
        )
        ann = FrameAnnotation(f"frame{i}", rows, cols, points)
        pairs.append((make_target_volume(ann, rows, cols), ann))
    return pairs


def test_beta_sweep_perfect_volumes():
    rng = np.random.default_rng(55)
    pairs = _perfect_pairs(rng)
    curve = beta_sweep(pairs, [0.0, 0.1, 0.5, 0.9, 1.0], tolerance_px=5.0)
    assert curve[0] == (0.0, 0.0)  # nothing passes an empty gate
    for beta, score in curve[1:]:
        assert score == 1.0, beta


def test_beta_sweep_detection_counts_monotone():
    rng = np.random.default_rng(60)
    vol = softmax_normalize(rng.normal(0, 4, size=(96, 6, 6)))
    counts = [
        len(decode(vol, DecodeParams(b)).detections) for b in np.linspace(0, 1, 11)
    ]
    assert counts == sorted(counts)


def test_beta_sweep_validates_grid():
    rng = np.random.default_rng(1)
    pairs = _perfect_pairs(rng, frames=1)
    with pytest.raises(ValidationError):
        beta_sweep(pairs, [0.5, 1.5], tolerance_px=5.0)


def test_recall_non_decreasing_in_beta():
    rng = np.random.default_rng(91)
    for _ in range(10):
        vol = softmax_normalize(rng.normal(0, 3, size=(96, 6, 6)))
        ids = [CHANNEL_IDS[int(k)] for k in rng.choice(96, size=30, replace=False)]
        ann = FrameAnnotation(
            "a",
            6,
            6,
            tuple(
                AnnotationPoint(kp, float(rng.integers(0, 6)), float(rng.integers(0, 6)))
                for kp in ids
            ),
        )
        last = -1.0
        for beta in (0.2, 0.4, 0.6, 0.8, 1.0):
            det = decode(vol, DecodeParams(beta), "a")
            counts = match_frame(det, ann, EvalParams(tolerance_px=3.0)).counts
            r = recall(counts)
            assert r >= last - 1e-12
            last = r


def _noisy_pairs(seed, frames=5, rows=12, cols=16):
    """Softmax volumes with a peak of random height near each annotated cell,
    over Gaussian logits, so that each beta and tolerance scores differently."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(frames):
        ids = [CHANNEL_IDS[int(k)] for k in rng.choice(96, size=30, replace=False)]
        points = tuple(
            AnnotationPoint(kp, float(rng.integers(0, cols)), float(rng.integers(0, rows)))
            for kp in ids
        )
        logits = rng.normal(0, 1, size=(96, rows, cols))
        for p in points:
            row = int(np.clip(p.v + rng.integers(-3, 4), 0, rows - 1))
            col = int(np.clip(p.u + rng.integers(-3, 4), 0, cols - 1))
            logits[canonical_channel_index(p.kp), row, col] += rng.uniform(0, 10)
        ann = FrameAnnotation(f"frame{i}", rows, cols, points)
        pairs.append((softmax_normalize(logits), ann))
    return pairs


def _reference_mean_f1(pairs, beta, tolerance):
    """evaluate's mean F1 of the frames decoded, or gated, at beta."""
    params = DecodeParams(beta)
    gated = []
    for frame, ann in pairs:
        if isinstance(frame, HeatmapVolume):
            gated.append((decode(frame, params, ann.frame_id), ann))
        else:
            gated.append((gate(frame, params, ann.frame_id), ann))
    return evaluate(gated, EvalParams(tolerance_px=tolerance)).mean_f1


@pytest.mark.parametrize("form", ["volumes", "summaries", "shuffled", "empty"])
def test_sweeps_score_as_evaluate_of_the_same_gated_pairs(form):
    pairs = _noisy_pairs(23)
    if form == "summaries":
        pairs = [(summarize(volume), ann) for volume, ann in pairs]
    elif form == "shuffled":
        pairs = [pairs[i] for i in np.random.default_rng(5).permutation(len(pairs))]
    elif form == "empty":
        pairs = []
    betas = [round(0.05 * i, 12) for i in range(21)]
    tolerances = [1.0 + 0.5 * i for i in range(19)]
    by_beta = beta_sweep(pairs, betas, tolerance_px=2.5)
    by_tolerance = tolerance_sweep(pairs, 0.9, tolerances)
    assert by_beta == [(b, _reference_mean_f1(pairs, b, 2.5)) for b in betas]
    assert by_tolerance == [(t, _reference_mean_f1(pairs, 0.9, t)) for t in tolerances]
    if pairs:  # the frames must tell the grid points apart
        assert len({f for _, f in by_beta}) > 5
        assert len({f for _, f in by_tolerance}) > 5


def test_sweeps_raise_what_evaluate_raises():
    (volume, ann), *_ = _noisy_pairs(29, frames=1)
    # the gate takes the annotation's frame id, so through a sweep a pair can
    # only mismatch in its size
    smaller = FrameAnnotation(ann.frame_id, ann.rows - 1, ann.cols, ())
    for bad, error in [
        ([(volume, ann), (volume, ann)], ValidationError),
        ([(volume, smaller)], ShapeError),
    ]:
        gated = [(decode(v, DecodeParams(0.9), a.frame_id), a) for v, a in bad]
        with pytest.raises(error) as expected:
            evaluate(gated, EvalParams(tolerance_px=5.0))
        with pytest.raises(error) as by_beta:
            beta_sweep(bad, [0.9], tolerance_px=5.0)
        with pytest.raises(error) as by_tolerance:
            tolerance_sweep(bad, 0.9, [5.0])
        assert str(by_beta.value) == str(by_tolerance.value) == str(expected.value)


def test_tolerance_sweep_flip_around_planted_error():
    gt = FrameAnnotation("a", 64, 64, (AnnotationPoint(WL0, 10.0, 10.0),))
    vol_ann = FrameAnnotation("a", 64, 64, (AnnotationPoint(WL0, 15.0, 10.0),))
    vol = make_target_volume(vol_ann, 64, 64)  # detection lands 5 px away
    curve = tolerance_sweep([(vol, gt)], 0.9, [4.99, 5.0, 6.0])
    assert curve[0][1] == 0.0
    assert curve[1][1] == 1.0
    assert curve[2][1] == 1.0


def test_tolerance_sweep_non_decreasing():
    rng = np.random.default_rng(14)
    pairs = []
    for i in range(4):
        ids = [CHANNEL_IDS[int(k)] for k in rng.choice(96, size=25, replace=False)]
        ann = FrameAnnotation(
            f"f{i}",
            32,
            32,
            tuple(
                AnnotationPoint(kp, float(rng.uniform(0, 31)), float(rng.uniform(0, 31)))
                for kp in ids
            ),
        )
        jittered = FrameAnnotation(
            f"f{i}",
            32,
            32,
            tuple(
                AnnotationPoint(
                    p.kp,
                    min(max(p.u + float(rng.normal(0, 2)), 0.0), 31.0),
                    min(max(p.v + float(rng.normal(0, 2)), 0.0), 31.0),
                )
                for p in ann.points
            ),
        )
        pairs.append((make_target_volume(jittered, 32, 32), ann))
    curve = tolerance_sweep(pairs, 0.9, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    values = [score for _, score in curve]
    assert values == sorted(values)
    with pytest.raises(ValidationError):
        tolerance_sweep(pairs, 0.9, [0.0])


def test_report_json_and_csv(tmp_path):
    frames = [
        _frame("a", 10, 10, [(WL0, 1.0, 1.0)], [(WL0, 1.0, 1.0)]),
        _frame("b", 10, 10, [(WR2, 2.0, 2.0)], []),
    ]
    report = evaluate(frames, EvalParams())
    doc = report_to_dict(report)
    assert doc["mean_f1"] == report.mean_f1
    assert doc["per_class"]["wall_left"]["precision"] == 1.0
    assert doc["per_class"]["floating_left"]["precision"] is None
    assert doc["per_keypoint"]["wall_left_0"]["total"] == 1

    json_path = tmp_path / "report.json"
    write_report_json(report, json_path)
    parsed = json.loads(json_path.read_text())
    assert parsed["per_class"]["floating_left"]["f1"] is None

    csv_path = tmp_path / "report.csv"
    write_report_csv(report, csv_path)
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["class", "index", "precision", "recall", "f1", "total"]
    class_rows = {r[0] for r in rows[1:] if r[1] == ""}
    assert class_rows == {c.value for c in KeyPointClass}
    # absent scopes print the dash marker
    floating_row = next(r for r in rows[1:] if r[0] == "floating_left" and r[1] == "")
    assert floating_row[2:5] == ["-", "-", "-"]
    keypoint_rows = [r for r in rows[1:] if r[1] != ""]
    assert len(keypoint_rows) == 96


def test_sweep_csv_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv([(0.0, 0.0), (0.5, 1.0)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,mean_f1"
    assert lines[1] == "0.0,0.0"
    assert len(lines) == 3


def test_eval_params_validated():
    with pytest.raises(ValidationError):
        EvalParams(tolerance_px=0.0)
    with pytest.raises(ValidationError):
        EvalParams(tolerance_px=math.nan)


class _Unread:
    """Frames that fail the test if a sweep takes one."""

    def __iter__(self):
        raise AssertionError("a frame was taken before the arguments were checked")


def test_sweeps_check_their_arguments_before_taking_a_frame():
    with pytest.raises(ValidationError, match="tolerance_px"):
        beta_sweep(_Unread(), [0.5], tolerance_px=0.0)
    with pytest.raises(ValidationError, match="tolerance_px"):
        beta_sweep(_Unread(), [0.5], tolerance_px=math.nan)
    with pytest.raises(ValidationError, match="tolerance grid"):
        tolerance_sweep(_Unread(), 0.5, [1.0, math.nan])
    with pytest.raises(ValidationError, match="beta"):
        tolerance_sweep(_Unread(), 1.5, [1.0])
