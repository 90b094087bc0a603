"""Property tests: the document readers over drawn documents.

Annotation, detection and model documents, as in-process JSON-like values,
and CVAT XML with drawn attribute strings. Each reader must return a value
or raise a PoolError, never another exception. So must the reader of the
POOL_THREADS environment variable, whose value is a count of at least one
and at most the usable CPUs.
"""

import os
import xml.etree.ElementTree as ET

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poolkey import (  # noqa: E402
    PoolConfig,
    PoolError,
    ValidationError,
    annotation_from_dict,
    build_base_model,
    detections_from_dict,
    model_from_dict,
    model_to_dict,
    parse_cvat,
)
from poolkey import cli  # noqa: E402

EXAMPLES = settings(max_examples=150, deadline=None, database=None)

# json reads integers of any size; a file reader refuses those beyond the
# float range, an in-process document may still hold them
NUMBERS = (
    st.integers(-2, 600)
    | st.sampled_from([2**1024, -(2**1024)])
    | st.integers()
    | st.floats()
)
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
VALUES = NUMBERS | JSON


def _read(reader, doc) -> None:
    try:
        reader(doc)
    except PoolError:
        pass


FRAME_FIELDS = st.sampled_from(["frame_id", "rows", "cols", "points"])
POINT = {"class": "wall_left", "index": 0, "u": 12.5, "v": 100.0, "entropy": 0.5}
POINT_FIELDS = st.sampled_from(["u", "v", "entropy", "index", "class"])


# a valid document with drawn values in a few fields, so that the readers get
# past their first checks, and a drawn value as the whole document
@EXAMPLES
@given(
    frame_edits=st.dictionaries(FRAME_FIELDS, VALUES, max_size=1),
    point_edits=st.lists(
        st.tuples(st.integers(0, 1), POINT_FIELDS, VALUES), max_size=3
    ),
    whole=JSON,
)
def test_frame_documents_give_a_frame_or_a_pool_error(
    frame_edits, point_edits, whole
):
    points = [dict(POINT), {**POINT, "class": "wall_top", "index": 8}]
    for i, name, value in point_edits:
        points[i][name] = value
    doc = {"frame_id": "f", "rows": 288, "cols": 512, "points": points}
    for reader in (annotation_from_dict, detections_from_dict):
        _read(reader, {**doc, **frame_edits})
        _read(reader, whole)


MODEL_DOC = model_to_dict(
    build_base_model(PoolConfig(lanes=12, length_m=25, bulkhead=True))
)
ENTRY_FIELDS = st.sampled_from(["class", "index", "exists", "kind", "x_m", "y_m"])
CONFIG_FIELDS = st.sampled_from(
    ["lanes", "length_m", "bumpers", "bulkhead", "lane_width_m", "bumper_width_m",
     "bulkhead_x_m"]
)


@EXAMPLES
@given(
    entry=st.integers(0, len(MODEL_DOC["entries"]) - 1),
    entry_field=ENTRY_FIELDS,
    entry_value=st.sampled_from(["fixed_point", "horizontal_line"]) | VALUES,
    config_field=CONFIG_FIELDS,
    config_value=VALUES,
    whole=JSON,
)
def test_model_documents_give_a_model_or_a_pool_error(
    entry, entry_field, entry_value, config_field, config_value, whole
):
    # as above: one entry field and one config field replaced by drawn values
    doc = {
        "config": {**MODEL_DOC["config"], config_field: config_value},
        "entries": [dict(e) for e in MODEL_DOC["entries"]],
    }
    doc["entries"][entry][entry_field] = entry_value
    _read(model_from_dict, doc)
    _read(model_from_dict, whole)


# XML 1.0 carries no surrogates and few control characters; both are left out
ATTRIBUTE_TEXT = st.sampled_from(
    ["1080", "0", "-3", "1e400", "١٢", "wall_left_0", "wall_top_9", "wall_left_13",
     "12.5,30", "1e400,2", "nan,1", "3,4;5,6", "1,2,3", ""]
) | st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=10)
ATTRIBUTES = st.dictionaries(
    st.sampled_from(["name", "width", "height"]), ATTRIBUTE_TEXT
)
SHAPE = st.dictionaries(st.sampled_from(["label", "points"]), ATTRIBUTE_TEXT)


@EXAMPLES
@given(
    images=st.lists(st.tuples(ATTRIBUTES, st.lists(SHAPE, max_size=3)), max_size=3)
)
def test_cvat_documents_give_annotations_or_a_pool_error(images):
    root = ET.Element("annotations")
    for attributes, shapes in images:
        image = ET.SubElement(root, "image", attributes)
        for shape in shapes:
            ET.SubElement(image, "points", shape)
    _read(parse_cvat, ET.tostring(root, encoding="unicode"))


# non-ASCII digits, separators, signs, whitespace and strings longer than
# int() converts (4,300 digits)
DIGIT_RUNS = st.integers(1, 5_000).map(lambda n: "9" * n) | st.integers(
    1, 5_000
).map(lambda n: "0" * n + "2")
POOL_THREADS = st.lists(
    st.sampled_from(
        ["1_0", "-", "+", "\u0663", "\u00b2", "\uff13"]
        + [" ", "\u00a0", "\u3000", "\t", "0", "7"]
    )
    | DIGIT_RUNS
    | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")),
    max_size=4,
).map("".join)


@EXAMPLES
@given(raw=POOL_THREADS, cpus=st.integers(1, 64))
def test_pool_threads_is_a_usable_count_or_a_validation_error(raw, cpus):
    # _workers only reads the count: no thread starts at any value
    with pytest.MonkeyPatch.context() as patch:
        usable = set(range(cpus))
        patch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        patch.setenv("POOL_THREADS", raw)
        try:
            workers = cli._workers()
        except ValidationError:
            return
    assert type(workers) is int and 1 <= workers <= cpus
