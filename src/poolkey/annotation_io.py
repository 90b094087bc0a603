"""Annotation and detection files: JSON round trips, CVAT XML, rescaling."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

from .errors import FormatError, ValidationError
from .heatmap import AnnotationPoint, Detection, DetectionSet, FrameAnnotation
from .model import KeyPointId, _point_id, _read_json, _require, _write_json


def _value_fields(point_type) -> list[str]:
    """A point type's fields after its identity, in declaration order."""
    return [f.name for f in fields(point_type) if f.name != "kp"]


def annotation_to_dict(ann: FrameAnnotation) -> dict:
    """Each point as its class and index, then its other fields (u, v[, entropy])."""
    return {
        "frame_id": ann.frame_id,
        "rows": ann.rows,
        "cols": ann.cols,
        "points": [
            {
                "class": p.kp.cls.value,
                "index": p.kp.index,
                **{name: getattr(p, name) for name in _value_fields(p)},
            }
            for p in ann.points
        ],
    }


detections_to_dict = annotation_to_dict


def _frame_from_dict(data: dict, context: str, frame_type, point_type):
    if not isinstance(data, dict):
        raise ValidationError(f"{context} document must be an object")
    frame_id = _require(data, "frame_id", str, context)
    rows = _require(data, "rows", int, context)
    cols = _require(data, "cols", int, context)
    raw_points = _require(data, "points", list, context)
    names = _value_fields(point_type)
    points = []
    for entry in raw_points:
        if not isinstance(entry, dict):
            raise ValidationError(f'{context}: field "points" holds a non-object')
        kp = _point_id(entry, context)
        where = f"{context} point {kp.label}"
        try:
            values = {n: float(_require(entry, n, (int, float), where)) for n in names}
        except OverflowError:
            raise ValidationError(f"{where}: value beyond the float range") from None
        points.append(point_type(kp, **values))
    return frame_type(frame_id, rows, cols, tuple(points))


def annotation_from_dict(data: dict) -> FrameAnnotation:
    return _frame_from_dict(data, "annotation", FrameAnnotation, AnnotationPoint)


def detections_from_dict(data: dict) -> DetectionSet:
    return _frame_from_dict(data, "detections", DetectionSet, Detection)


def read_annotation(path: str | Path) -> FrameAnnotation:
    return annotation_from_dict(_read_json(path))


def write_annotation(ann: FrameAnnotation, path: str | Path) -> None:
    _write_json(annotation_to_dict(ann), path)


def read_detections(path: str | Path) -> DetectionSet:
    return detections_from_dict(_read_json(path))


def write_detections(dets: DetectionSet, path: str | Path) -> None:
    _write_json(detections_to_dict(dets), path)


def parse_cvat(xml_text: str) -> list[FrameAnnotation]:
    """Annotations from a "CVAT for images" export.

    Only point shapes are read; boxes, polygons, and tags are skipped. Each
    point shape must carry exactly one coordinate pair and a label of the
    form "<class>_<index>".
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise FormatError(f"malformed XML at line {line}, column {column}") from None
    annotations = []
    for image in root.iter("image"):
        name = image.get("name")
        width = image.get("width")
        height = image.get("height")
        if name is None or width is None or height is None:
            raise ValidationError(
                "image element needs name, width, and height attributes"
            )
        try:
            rows, cols = int(height), int(width)
        except ValueError:
            rows = cols = 0
        if rows < 1 or cols < 1:
            raise ValidationError(
                f"image {name!r}: width {width!r} and height {height!r} must be "
                "positive integers"
            )
        points = []
        seen = set()
        for shape in image.findall("points"):
            label = shape.get("label")
            raw = shape.get("points")
            if label is None or raw is None:
                raise ValidationError(
                    f"image {name!r}: points element needs label and points"
                )
            kp = KeyPointId.from_label(label)
            if kp in seen:
                raise ValidationError(f"image {name!r}: duplicate label {label!r}")
            seen.add(kp)
            pairs = raw.split(";")
            if len(pairs) != 1:
                raise ValidationError(
                    f"image {name!r}: shape {label!r} has {len(pairs)} points, "
                    "expected a single coordinate pair"
                )
            try:
                u_text, v_text = pairs[0].split(",")
                u, v = float(u_text), float(v_text)
            except ValueError:
                raise ValidationError(
                    f"image {name!r}: shape {label!r} has malformed "
                    f"coordinates {raw!r}"
                ) from None
            points.append(AnnotationPoint(kp, u, v))
        annotations.append(FrameAnnotation(name, rows, cols, tuple(points)))
    return annotations


def serialize_cvat(annotations: list[FrameAnnotation]) -> str:
    """XML in the layout parse_cvat reads; coordinates survive exactly."""
    root = ET.Element("annotations")
    ET.SubElement(root, "version").text = "1.1"
    for i, ann in enumerate(annotations):
        image = ET.SubElement(
            root,
            "image",
            id=str(i),
            name=ann.frame_id,
            width=str(ann.cols),
            height=str(ann.rows),
        )
        for p in ann.points:
            ET.SubElement(
                image,
                "points",
                label=p.kp.label,
                points=f"{p.u!r},{p.v!r}",
                occluded="0",
            )
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def read_cvat(path: str | Path) -> list[FrameAnnotation]:
    return parse_cvat(Path(path).read_text())


def rescale_annotation(ann: FrameAnnotation, factor: float) -> FrameAnnotation:
    """Divide coordinates and dimensions by factor, keeping sub-pixel values.

    Dimensions round half-up to the nearest integer. When that rounding
    shrinks the grid past a coordinate, the coordinate clamps to just inside
    the new edge.
    """
    if not (0 < factor < math.inf and math.isfinite(max(ann.rows, ann.cols) / factor)):
        raise ValidationError(
            f"scale factor {factor} must be positive and finite and keep the "
            f"{ann.rows}x{ann.cols} frame within the float range"
        )
    rows = max(1, int(ann.rows / factor + 0.5))
    cols = max(1, int(ann.cols / factor + 0.5))
    points = []
    for p in ann.points:
        u = min(p.u / factor, math.nextafter(float(cols), 0.0))
        v = min(p.v / factor, math.nextafter(float(rows), 0.0))
        points.append(AnnotationPoint(p.kp, u, v))
    return FrameAnnotation(ann.frame_id, rows, cols, tuple(points))
