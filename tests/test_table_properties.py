"""Property test: the per-frame score table against gating and matching.

The reference below is the path every score took before the table: gate
each frame's channel summary into a DetectionSet at each grid point, match
each pair with the tolerance, and average or aggregate the matches. The
only difference is where an empty grid stops: the reference gates at the
first grid point, as the table does, so an empty tolerance grid raises
nothing there either. Over drawn summaries and annotations, with entropies
on the threshold, NaN, infinite and below the floor, truths at a 3-4-5
distance from the fired cell, repeated frame ids, a size mismatch and empty
grids, both give the same floats (compared with ==) or the same error type
and message.
"""

import math
from statistics import fmean

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poolkey import (  # noqa: E402
    CHANNEL_IDS,
    AnnotationPoint,
    DecodeParams,
    Detection,
    DetectionSet,
    EvalParams,
    FrameAnnotation,
    MatchCounts,
    PoolError,
    ShapeError,
    ValidationError,
    beta_sweep,
    evaluate,
    f1,
    match_frame,
    precision,
    recall,
    report_to_dict,
    tolerance_sweep,
)
from poolkey.heatmap import ENTROPY_FLOOR, ChannelSummary  # noqa: E402
from poolkey.model import CLASS_ORDER  # noqa: E402

EXAMPLES = settings(max_examples=150, deadline=None, database=None)


def _ref_gate(summary, beta, frame_id):
    threshold = beta * math.log(summary.rows * summary.cols)
    detections = []
    for kp, entropy, cell in zip(CHANNEL_IDS, summary.entropies, summary.cells):
        if entropy < threshold:
            row, col = divmod(cell, summary.cols)
            detections.append(Detection(kp, float(col), float(row), entropy))
    return DetectionSet(frame_id, summary.rows, summary.cols, tuple(detections))


def _ref_match(det, gt, tolerance):
    """(frame id, counts, per-channel counts) of one pair."""
    if (det.rows, det.cols) != (gt.rows, gt.cols):
        raise ShapeError(
            f"detections are {det.rows}x{det.cols} but ground truth is "
            f"{gt.rows}x{gt.cols}"
        )
    truths = gt.by_id
    per_channel = {}
    for d in det.detections:
        g = truths.pop(d.kp, None)
        if g is None:
            per_channel[d.kp] = MatchCounts(fp=1)
        elif math.hypot(d.u - g.u, d.v - g.v) <= tolerance:
            per_channel[d.kp] = MatchCounts(tp=1)
        else:
            per_channel[d.kp] = MatchCounts(fp=1, fn=1)
    per_channel.update(dict.fromkeys(truths, MatchCounts(fn=1)))
    return gt.frame_id, sum(per_channel.values(), MatchCounts()), per_channel


def _ref_matches(gated, tolerance):
    seen, matches = set(), []
    for det, gt in gated:
        if det.frame_id != gt.frame_id:
            raise ValidationError(
                f"paired frame ids differ: {det.frame_id!r} vs {gt.frame_id!r}"
            )
        if gt.frame_id in seen:
            raise ValidationError(f"duplicate frame id {gt.frame_id!r}")
        seen.add(gt.frame_id)
        matches.append(_ref_match(det, gt, tolerance))
    matches.sort(key=lambda match: match[0])
    return matches


def _ref_mean_f1(matches):
    return fmean(f1(counts) for _, counts, _ in matches) if matches else 0.0


def _ref_scope(counts):
    total = counts.tp + counts.fn
    if total == 0 and counts.fp == 0:
        return {"precision": None, "recall": None, "f1": None, "total": 0}
    return {
        "precision": precision(counts),
        "recall": recall(counts),
        "f1": f1(counts),
        "total": total,
    }


def _ref_report(gated, tolerance):
    """report_to_dict of evaluate over DetectionSets, as it was built."""
    matches = _ref_matches(gated, tolerance)
    per_id = {kp: MatchCounts() for kp in CHANNEL_IDS}
    for _, _, per_channel in matches:
        for kp, counts in per_channel.items():
            per_id[kp] = per_id[kp] + counts
    per_class = {cls: MatchCounts() for cls in CLASS_ORDER}
    for kp, counts in per_id.items():
        per_class[kp.cls] = per_class[kp.cls] + counts
    return {
        "mean_f1": _ref_mean_f1(matches),
        "per_frame": [
            {"frame_id": i, "precision": precision(c), "recall": recall(c), "f1": f1(c)}
            for i, c, _ in matches
        ],
        "per_class": {cls.value: _ref_scope(per_class[cls]) for cls in CLASS_ORDER},
        "per_keypoint": {kp.label: _ref_scope(per_id[kp]) for kp in CHANNEL_IDS},
    }


def _ref_gated(pairs, beta):
    return [(_ref_gate(summary, beta, gt.frame_id), gt) for summary, gt in pairs]


def _ref_beta_sweep(pairs, betas, tolerance):
    for beta in betas:
        if not 0.0 <= beta <= 1.0:
            raise ValidationError(f"beta grid value {beta} outside [0, 1]")
    EvalParams(tolerance_px=tolerance)
    return [
        (float(b), _ref_mean_f1(_ref_matches(_ref_gated(pairs, b), tolerance)))
        for b in betas
    ]


def _ref_tolerance_sweep(pairs, beta, tolerances):
    for tolerance in tolerances:
        if not tolerance > 0:
            raise ValidationError(f"tolerance grid value {tolerance} must be positive")
    DecodeParams(beta)
    if not tolerances:
        return []
    gated = _ref_gated(pairs, beta)
    return [(float(t), _ref_mean_f1(_ref_matches(gated, t))) for t in tolerances]


def _result(fn, *args):
    """fn's value, or its error as (type, message)."""
    try:
        return fn(*args)
    except PoolError as exc:
        return type(exc), str(exc)


BETAS = [0.0, 0.25, 0.5, 0.9, 1.0]
TOLERANCES = [1.0, math.sqrt(2.0), 5.0, 10.0]
# the key-point's truth from its fired cell: on it, unit steps, a diagonal,
# 3-4-5 and 6-8-10 triangles, and off the grid of cells
OFFSETS = [(0, 0), (1, 0), (0, -1), (1, 1), (3, 4), (-4, 3), (6, -8), (0.5, -0.25)]
REFUSED = [-1e-3, -math.inf, math.nextafter(ENTROPY_FLOOR, -math.inf)]


@st.composite
def frames(draw, frame_id):
    """A (summary, annotation) pair on a small grid."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    log_cells = math.log(rows * cols)
    # flat channels: entropy ln(rows * cols), never below a threshold
    entropies, cells = [log_cells] * 96, [0] * 96
    entropy = (
        st.sampled_from([b * log_cells for b in BETAS])  # on a threshold
        | st.floats(0.0, log_cells)
        | st.sampled_from([math.nan, math.inf, 0.0, -0.0, -1e-7, ENTROPY_FLOOR])
    )
    channel = st.integers(0, 95)
    truth = st.none() | st.sampled_from(OFFSETS)  # None: no truth
    drawn = draw(
        st.dictionaries(
            channel, st.tuples(entropy, st.integers(0, rows * cols - 1), truth),
            max_size=24,
        )
    )
    offsets = {}
    for k, (value, at, offset) in drawn.items():
        entropies[k], cells[k] = value, at
        if offset is not None:
            offsets[k] = offset
    # a few truths on flat channels, and rarely one channel the gate refuses
    flat_truths = st.dictionaries(channel, st.sampled_from(OFFSETS), max_size=3)
    for k, offset in draw(flat_truths).items():
        offsets.setdefault(k, offset)
    refused = draw(st.sampled_from([None] * 24 + REFUSED))
    if refused is not None:
        entropies[draw(channel)] = refused
    points = []
    for k, (du, dv) in offsets.items():
        row, col = divmod(cells[k], cols)
        u, v = col + du, row + dv
        if 0 <= u < cols and 0 <= v < rows:
            points.append(AnnotationPoint(CHANNEL_IDS[k], float(u), float(v)))
    summary = ChannelSummary(rows, cols, tuple(entropies), tuple(cells))
    # rarely an annotation of another size
    grown = draw(st.sampled_from([0] * 9 + [1]))
    return summary, FrameAnnotation(frame_id, rows + grown, cols, tuple(points))


@st.composite
def frame_lists(draw):
    """One to four frames; their ids repeat now and then."""
    ids = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=4))
    return [draw(frames(frame_id)) for frame_id in ids]


# grids hold a point out of range now and then; empty ones have their own test
BETA_GRIDS = st.lists(st.sampled_from(BETAS * 4 + [1.5]), min_size=1, max_size=4)
TOLERANCE = st.sampled_from(TOLERANCES) | st.floats(0.01, 20.0)
TOLERANCE_GRIDS = st.lists(
    st.sampled_from(TOLERANCES * 4 + [0.0]) | st.floats(0.01, 20.0),
    min_size=1,
    max_size=4,
)


@EXAMPLES
@given(pairs=frame_lists(), betas=BETA_GRIDS, tolerance=TOLERANCE)
def test_beta_sweep_agrees_with_gating_and_matching(pairs, betas, tolerance):
    assert _result(beta_sweep, pairs, betas, tolerance) == _result(
        _ref_beta_sweep, pairs, betas, tolerance
    )


@EXAMPLES
@given(pairs=frame_lists(), beta=st.sampled_from(BETAS), tolerances=TOLERANCE_GRIDS)
def test_tolerance_sweep_agrees_with_gating_and_matching(pairs, beta, tolerances):
    assert _result(tolerance_sweep, pairs, beta, tolerances) == _result(
        _ref_tolerance_sweep, pairs, beta, tolerances
    )


@EXAMPLES
@given(pairs=frame_lists(), beta=st.sampled_from(BETAS), tolerance=TOLERANCE)
def test_an_empty_grid_raises_nothing(pairs, beta, tolerance):
    assert beta_sweep(pairs, [], tolerance) == []
    assert tolerance_sweep(pairs, beta, []) == []


@EXAMPLES
@given(pairs=frame_lists(), beta=st.sampled_from(BETAS), tolerance=TOLERANCE)
def test_evaluate_of_summaries_agrees_with_gating_and_matching(
    pairs, beta, tolerance
):
    def scored():
        return report_to_dict(
            evaluate(pairs, EvalParams(tolerance_px=tolerance), DecodeParams(beta))
        )

    def reference():
        return _ref_report(_ref_gated(pairs, beta), tolerance)

    assert _result(scored) == _result(reference)


@EXAMPLES
@given(
    pairs=frame_lists(),
    beta=st.sampled_from(BETAS),
    tolerance=TOLERANCE,
    renamed=st.sampled_from([None] * 4 + ["z"]),
)
def test_evaluate_and_match_frame_of_detection_sets_agree_with_matching(
    pairs, beta, tolerance, renamed
):
    try:
        gated = _ref_gated(pairs, beta)
    except ValidationError:
        return  # the gate refused a channel: no DetectionSet to score
    if renamed is not None:  # a pair whose frame ids differ
        det, gt = gated[0]
        gated[0] = (DetectionSet(renamed, det.rows, det.cols, det.points), gt)
    params = EvalParams(tolerance_px=tolerance)
    assert _result(lambda: report_to_dict(evaluate(gated, params))) == _result(
        _ref_report, gated, tolerance
    )
    for det, gt in gated:  # per channel in the same order too
        assert _result(_matched, det, gt, tolerance) == _result(
            _ref_matched, det, gt, tolerance
        )


def _matched(det, gt, tolerance):
    match = match_frame(det, gt, EvalParams(tolerance_px=tolerance))
    return match.frame_id, match.counts, list(match.per_channel.items())


def _ref_matched(det, gt, tolerance):
    frame_id, counts, per_channel = _ref_match(det, gt, tolerance)
    return frame_id, counts, list(per_channel.items())


def test_a_summary_without_decode_params_is_refused():
    summary = ChannelSummary(2, 2, (0.0,) * 96, (0,) * 96)
    with pytest.raises(ValidationError, match="DecodeParams"):
        evaluate([(summary, FrameAnnotation("a", 2, 2))], EvalParams())


@pytest.mark.parametrize(
    "rows, cols, cells, message",
    [
        (0, 2, (0,) * 96, "positive rows and cols"),
        (2, -1, (0,) * 96, "positive rows and cols"),
        (2, 2, (4,) * 96, "argmax cell"),
        (2, 2, (-1,) * 96, "argmax cell"),
        (2, 2, (0,) * 95, "argmax cell"),
    ],
)
def test_a_summary_holds_one_cell_on_its_grid_per_channel(rows, cols, cells, message):
    with pytest.raises(ValidationError, match=message):
        ChannelSummary(rows, cols, (0.0,) * 96, cells)


def _summary(rows, cols, refused=None):
    entropies = [0.0] * 96
    if refused is not None:
        entropies[refused] = -1e-3
    return ChannelSummary(rows, cols, tuple(entropies), (0,) * 96)


@pytest.mark.parametrize(
    "pairs, error",
    [
        # a repeated id before the size of the repeat
        ([(_summary(3, 3), "a", 3), (_summary(3, 3), "a", 4)], "duplicate frame id"),
        # the gate over every frame before any size
        ([(_summary(3, 3), "a", 4), (_summary(3, 3, 7), "b", 3)], "wall_left_7 has"),
        # the first frame whose gate refuses, and its first channel
        ([(_summary(3, 3, 9), "a", 3), (_summary(3, 3, 2), "b", 3)], "wall_left_9 has"),
    ],
)
def test_errors_come_from_the_gate_then_from_each_match(pairs, error):
    pairs = [(s, FrameAnnotation(frame_id, rows, 3)) for s, frame_id, rows in pairs]
    for scored, reference in [
        (lambda: beta_sweep(pairs, [0.5], 5.0),
         lambda: _ref_beta_sweep(pairs, [0.5], 5.0)),
        (lambda: tolerance_sweep(pairs, 0.5, [5.0]),
         lambda: _ref_tolerance_sweep(pairs, 0.5, [5.0])),
        (lambda: evaluate(pairs, EvalParams(), DecodeParams(0.5)),
         lambda: _ref_report(_ref_gated(pairs, 0.5), 5.0)),
    ]:
        assert _result(scored) == _result(reference)
        assert error in _result(scored)[1]
