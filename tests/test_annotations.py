"""Annotation files: JSON documents, CVAT XML imports, rescaling."""

import json
import math

import numpy as np
import pytest

from poolkey import (
    Detection,
    DetectionSet,
    FormatError,
    FrameAnnotation,
    ValidationError,
    annotation_from_dict,
    annotation_to_dict,
    detections_from_dict,
    detections_to_dict,
    parse_cvat,
    read_annotation,
    read_cvat,
    read_detections,
    rescale_annotation,
    serialize_cvat,
    write_annotation,
    write_detections,
)
from poolkey.heatmap import AnnotationPoint
from poolkey.model import CHANNEL_IDS, KeyPointClass, KeyPointId

WL0 = KeyPointId(KeyPointClass.WALL_LEFT, 0)
WT3 = KeyPointId(KeyPointClass.WALL_TOP, 3)


def _sample_annotation() -> FrameAnnotation:
    return FrameAnnotation(
        "frame_7",
        288,
        512,
        (AnnotationPoint(WL0, 12.5, 100.0), AnnotationPoint(WT3, 300.25, 7.75)),
    )


def test_annotation_dict_round_trip():
    ann = _sample_annotation()
    doc = annotation_to_dict(ann)
    assert doc["frame_id"] == "frame_7"
    assert doc["points"][0] == {"class": "wall_left", "index": 0, "u": 12.5, "v": 100.0}
    assert annotation_from_dict(doc) == ann


def test_annotation_file_round_trip(tmp_path):
    ann = _sample_annotation()
    path = tmp_path / "a.json"
    write_annotation(ann, path)
    assert read_annotation(path) == ann
    text = path.read_text()
    assert text.endswith("\n")
    json.loads(text)  # the file itself is plain JSON


def test_detections_round_trip(tmp_path):
    det = DetectionSet(
        "frame_7",
        288,
        512,
        (Detection(WL0, 12.5, 100.0, 0.25), Detection(WT3, 1.0, 2.0, 3.5)),
    )
    doc = detections_to_dict(det)
    assert doc["points"][0]["entropy"] == 0.25
    assert detections_from_dict(doc) == det
    path = tmp_path / "d.json"
    write_detections(det, path)
    assert read_detections(path) == det


def test_point_keys_keep_the_file_order():
    det = DetectionSet("f", 4, 4, (Detection(WL0, 1.0, 2.0, 0.5),))
    doc = detections_to_dict(det)
    assert list(doc["points"][0]) == ["class", "index", "u", "v", "entropy"]
    doc = annotation_to_dict(_sample_annotation())
    assert list(doc["points"][0]) == ["class", "index", "u", "v"]


def test_missing_fields_are_named():
    with pytest.raises(ValidationError, match='"points"'):
        annotation_from_dict({"frame_id": "f", "rows": 4, "cols": 4})
    with pytest.raises(ValidationError, match='"frame_id"'):
        annotation_from_dict({"rows": 4, "cols": 4, "points": []})
    with pytest.raises(ValidationError, match='"entropy"'):
        detections_from_dict(
            {
                "frame_id": "f",
                "rows": 4,
                "cols": 4,
                "points": [{"class": "wall_left", "index": 0, "u": 1, "v": 1}],
            }
        )


def test_bool_does_not_pass_as_an_integer():
    with pytest.raises(ValidationError, match='"rows"'):
        annotation_from_dict({"frame_id": "f", "rows": True, "cols": 4, "points": []})


def test_bad_point_entries_are_rejected():
    base = {"frame_id": "f", "rows": 400, "cols": 400}
    with pytest.raises(ValidationError, match="non-object"):
        annotation_from_dict({**base, "points": [7]})
    with pytest.raises(ValidationError, match="wall_left_13"):
        annotation_from_dict(
            {**base, "points": [{"class": "wall_left", "index": 13, "u": 1, "v": 1}]}
        )
    with pytest.raises(ValidationError, match="unknown key-point label"):
        annotation_from_dict(
            {**base, "points": [{"class": "wall_middle", "index": 1, "u": 1, "v": 1}]}
        )


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="bad.json"):
        read_annotation(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="top level"):
        read_annotation(path)


def test_nan_and_infinity_are_format_errors(tmp_path):
    doc = {"frame_id": "f", "rows": 10, "cols": 10, "points": []}
    path = tmp_path / "bad.json"
    for value in (float("nan"), float("inf")):
        point = {"class": "wall_left", "index": 0, "u": value, "v": 1.0, "entropy": 0.0}
        path.write_text(json.dumps({**doc, "points": [point]}))
        with pytest.raises(FormatError, match="bad.json"):
            read_annotation(path)
        with pytest.raises(FormatError, match="bad.json"):
            read_detections(path)


CVAT_DOC = """\
<annotations>
  <version>1.1</version>
  <image id="0" name="cam1_000137" width="1920" height="1080">
    <points label="wall_left_0" points="12.5,800.0" occluded="0"/>
    <points label="floating_right_4" points="1919.0,420.75" occluded="0"/>
    <box label="swimmer" xtl="10" ytl="10" xbr="50" ybr="50" occluded="0"/>
  </image>
  <image id="1" name="cam1_000138" width="1920" height="1080"/>
</annotations>
"""


def test_parse_cvat_reads_point_shapes_only():
    frames = parse_cvat(CVAT_DOC)
    assert len(frames) == 2
    first = frames[0]
    assert first.frame_id == "cam1_000137"
    assert (first.rows, first.cols) == (1080, 1920)
    assert first.points == (
        AnnotationPoint(WL0, 12.5, 800.0),
        AnnotationPoint(KeyPointId(KeyPointClass.FLOATING_RIGHT, 4), 1919.0, 420.75),
    )
    assert frames[1].points == ()


def test_parse_cvat_empty_document():
    assert parse_cvat("<annotations><version>1.1</version></annotations>") == []


def test_parse_cvat_malformed_xml_reports_position():
    with pytest.raises(FormatError, match="malformed XML at line"):
        parse_cvat("<annotations><image></annotations>")


def test_parse_cvat_validation_errors():
    with pytest.raises(ValidationError, match="name, width, and height"):
        parse_cvat('<annotations><image id="0" name="x" width="10"/></annotations>')
    for width in ("x", "10.5", "0"):
        with pytest.raises(ValidationError, match="image 'x': width"):
            parse_cvat(
                f'<annotations><image id="0" name="x" width="{width}" height="10"/>'
                "</annotations>"
            )
    head = '<annotations><image id="0" name="x" width="10" height="10">'
    tail = "</image></annotations>"
    with pytest.raises(ValidationError, match="label and points"):
        parse_cvat(f'{head}<points points="1,2"/>{tail}')
    with pytest.raises(ValidationError, match="wall_left_13"):
        parse_cvat(f'{head}<points label="wall_left_13" points="1,2"/>{tail}')
    with pytest.raises(ValidationError, match="duplicate label"):
        parse_cvat(
            f'{head}<points label="wall_left_1" points="1,2"/>'
            f'<points label="wall_left_1" points="3,4"/>{tail}'
        )
    with pytest.raises(ValidationError, match="expected a single"):
        parse_cvat(f'{head}<points label="wall_left_1" points="1,2;3,4"/>{tail}')
    with pytest.raises(ValidationError, match="malformed"):
        parse_cvat(f'{head}<points label="wall_left_1" points="1,abc"/>{tail}')


@pytest.mark.parametrize(
    "label", ["wall_left_\u00b2", "wall_left_\u0663", "wall_left_\uff13"],
    ids=["superscript-two", "arabic-indic-three", "fullwidth-three"],
)
def test_parse_cvat_reads_ascii_digit_indices_only(label):
    # str.isdigit() holds for each of these tails; the index must be ASCII
    doc = (
        '<annotations><image id="0" name="x" width="10" height="10">'
        f'<points label="{label}" points="1,2"/></image></annotations>'
    )
    with pytest.raises(ValidationError, match="unknown key-point label"):
        parse_cvat(doc)


def test_cvat_serialize_parse_identity():
    rng = np.random.default_rng(55)
    frames = []
    for f in range(5):
        count = int(rng.integers(0, 20))
        ids = rng.choice(len(CHANNEL_IDS), size=count, replace=False)
        points = tuple(
            AnnotationPoint(
                CHANNEL_IDS[int(i)],
                float(rng.uniform(0, 1919.999)),
                float(rng.uniform(0, 1079.999)),
            )
            for i in ids
        )
        frames.append(FrameAnnotation(f"frame_{f}", 1080, 1920, points))
    text = serialize_cvat(frames)
    assert parse_cvat(text) == frames  # exact, including float round trips


def test_read_cvat(tmp_path):
    path = tmp_path / "task.xml"
    path.write_text(CVAT_DOC)
    frames = read_cvat(path)
    assert [f.frame_id for f in frames] == ["cam1_000137", "cam1_000138"]


def test_rescale_annotation_matches_detector_geometry():
    ann = FrameAnnotation(
        "f",
        1080,
        1920,
        (
            AnnotationPoint(WL0, 1919.0, 1079.0),
            AnnotationPoint(WT3, 375.0, 750.0),
        ),
    )
    scaled = rescale_annotation(ann, 3.75)
    assert (scaled.rows, scaled.cols) == (288, 512)
    first, second = scaled.points
    assert first.u == pytest.approx(1919.0 / 3.75)
    assert first.v == pytest.approx(1079.0 / 3.75)
    assert first.u < 512 and first.v < 288
    assert (second.u, second.v) == (100.0, 200.0)


def test_rescale_identity_and_composition():
    ann = _sample_annotation()
    assert rescale_annotation(ann, 1.0) == ann
    two_step = rescale_annotation(rescale_annotation(ann, 2.0), 1.5)
    direct = rescale_annotation(ann, 3.0)
    assert (two_step.rows, two_step.cols) == (direct.rows, direct.cols)
    for a, b in zip(two_step.points, direct.points):
        assert a.kp == b.kp
        assert abs(a.u - b.u) < 1e-9
        assert abs(a.v - b.v) < 1e-9


def test_rescale_clamps_to_the_shrunken_grid():
    ann = FrameAnnotation("f", 10, 10, (AnnotationPoint(WL0, 9.9, 9.9),))
    scaled = rescale_annotation(ann, 3.0)
    assert (scaled.rows, scaled.cols) == (3, 3)
    point = scaled.points[0]
    assert point.u < 3.0 and point.v < 3.0
    assert point.u == pytest.approx(3.0)


def test_rescale_rejects_non_positive_factors():
    ann = _sample_annotation()
    for factor in (0.0, -2.0):
        with pytest.raises(ValidationError, match="positive"):
            rescale_annotation(ann, factor)


def test_rescale_rejects_non_finite_and_overflowing_factors():
    ann = _sample_annotation()
    for factor in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            rescale_annotation(ann, factor)
    with pytest.raises(ValidationError, match="float range"):
        rescale_annotation(ann, 1e-320)


def test_a_document_that_is_not_an_object_is_rejected():
    for reader, doc in ((annotation_from_dict, None), (detections_from_dict, 5)):
        with pytest.raises(ValidationError, match="must be an object"):
            reader(doc)


def test_a_point_value_beyond_the_float_range_is_rejected():
    point = {"class": "wall_left", "index": 0, "u": 2**1024, "v": 1}
    with pytest.raises(ValidationError, match="float range"):
        annotation_from_dict({"frame_id": "f", "rows": 4, "cols": 4, "points": [point]})
