"""Property test: match_frame against the 96-channel loop it replaced.

match_frame walks the points a frame holds; the reference looks every
canonical key-point up in both frames. Over drawn detection and truth
subsets on a small grid, with tolerances that land exactly on a distance,
both give the same counts, per frame and per key-point.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poolkey import (  # noqa: E402
    CHANNEL_IDS,
    AnnotationPoint,
    Detection,
    DetectionSet,
    EvalParams,
    FrameAnnotation,
    MatchCounts,
    match_frame,
)

EXAMPLES = settings(max_examples=200, deadline=None, database=None)


def _reference_match(det, gt, params):
    """The channel loop match_frame replaced: (total, per_channel)."""
    detections = det.by_id
    truths = gt.by_id
    per_channel = {}
    total = MatchCounts()
    for kp in CHANNEL_IDS:
        d = detections.get(kp)
        g = truths.get(kp)
        if d is None and g is None:
            continue
        if d is not None and g is not None:
            distance = math.hypot(d.u - g.u, d.v - g.v)
            if distance <= params.tolerance_px:
                counts = MatchCounts(tp=1)
            else:
                counts = MatchCounts(fp=1, fn=1)
        elif d is not None:
            counts = MatchCounts(fp=1)
        else:
            counts = MatchCounts(fn=1)
        per_channel[kp] = counts
        total = total + counts
    return total, per_channel


SIZE = 32
IDS = st.sampled_from(CHANNEL_IDS)
# truths sit in the middle of the frame, so that every offset stays on it
CELL = st.tuples(st.integers(8, 23), st.integers(8, 23))
# unit steps, a diagonal and 3-4-5 and 6-8-10 triangles
OFFSET = st.sampled_from([(0, 0), (1, 0), (0, -1), (1, 1), (3, 4), (-4, 3), (6, -8)])
TOLERANCE = st.sampled_from([1.0, math.sqrt(2.0), 5.0, 10.0]) | st.floats(0.01, 20.0)


@EXAMPLES
@given(
    truths=st.dictionaries(IDS, CELL, max_size=30),
    strays=st.dictionaries(IDS, CELL, max_size=30),
    offsets=st.lists(OFFSET, max_size=30),
    tolerance=TOLERANCE,
)
def test_match_frame_agrees_with_the_channel_loop(truths, strays, offsets, tolerance):
    # detections near the first truths by the drawn offsets, then strays at
    # key-points no truth holds or, where one does, left out
    fired = {
        kp: (u + du, v + dv) for (kp, (u, v)), (du, dv) in zip(truths.items(), offsets)
    }
    for kp, cell in strays.items():
        fired.setdefault(kp, cell)
    det = DetectionSet(
        "f", SIZE, SIZE,
        tuple(Detection(kp, float(u), float(v), 0.0) for kp, (u, v) in fired.items()),
    )
    gt = FrameAnnotation(
        "f", SIZE, SIZE,
        tuple(AnnotationPoint(kp, float(u), float(v)) for kp, (u, v) in truths.items()),
    )
    params = EvalParams(tolerance_px=tolerance)
    match = match_frame(det, gt, params)
    total, per_channel = _reference_match(det, gt, params)
    assert match.frame_id == "f"
    assert match.counts == total
    assert match.per_channel == per_channel
