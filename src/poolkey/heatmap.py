"""Detector output contract: stacked per-key-point probability maps.

Covers the delta/flat training targets, softmax normalization of raw logits,
the summed cross-entropy loss in nats, per-channel Shannon entropy, the
entropy-gated argmax decoder (a per-frame channel summary and the gate over
it), and the little-endian binary volume file.
"""

from __future__ import annotations

import logging
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    FormatError,
    NumericError,
    OutOfBoundsError,
    ShapeError,
    ValidationError,
)
from .model import (
    CHANNEL_COUNT,
    KeyPointId,
    canonical_channel_index,
    keypoint_for_channel,
)

logger = logging.getLogger(__name__)

CHANNEL_SUM_TOLERANCE = 1e-6
LOG_CLAMP = 1e-12

VOLUME_MAGIC = b"PKHV"
VOLUME_VERSION = 1
_HEADER = struct.Struct("<IIII")  # version, rows, cols, channels
_PAYLOAD_OFFSET = len(VOLUME_MAGIC) + _HEADER.size


@dataclass(frozen=True)
class AnnotationPoint:
    kp: KeyPointId
    u: float
    v: float


@dataclass
class FrameAnnotation:
    """Ground-truth key-point locations for one frame, in pixel units."""

    frame_id: str
    rows: int
    cols: int
    points: tuple[AnnotationPoint, ...] = ()

    def __post_init__(self):
        self.points = tuple(self.points)
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("annotation needs positive rows and cols")
        seen = set()
        for pt in self.points:
            if pt.kp in seen:
                raise ValidationError(f"duplicate annotation for {pt.kp.label}")
            seen.add(pt.kp)
            if not (0 <= pt.u < self.cols and 0 <= pt.v < self.rows):
                raise ValidationError(
                    f"{pt.kp.label} at (u={pt.u}, v={pt.v}) is outside "
                    f"{self.rows}x{self.cols}"
                )

    @property
    def by_id(self) -> dict[KeyPointId, AnnotationPoint]:
        return {pt.kp: pt for pt in self.points}


@dataclass(frozen=True)
class Detection:
    kp: KeyPointId
    u: float
    v: float
    entropy: float


@dataclass
class DetectionSet:
    """Decoder output for one frame: at most one detection per channel."""

    frame_id: str
    rows: int
    cols: int
    detections: tuple[Detection, ...] = ()

    def __post_init__(self):
        self.detections = tuple(self.detections)
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("detection set needs positive rows and cols")
        seen = set()
        for det in self.detections:
            if det.kp in seen:
                raise ValidationError(f"duplicate detection for {det.kp.label}")
            seen.add(det.kp)
            if not (0 <= det.u < self.cols and 0 <= det.v < self.rows):
                raise ValidationError(
                    f"{det.kp.label} at (u={det.u}, v={det.v}) is outside "
                    f"{self.rows}x{self.cols}"
                )
            if not math.isfinite(det.entropy) or det.entropy < -1e-9:
                raise ValidationError(f"{det.kp.label} has invalid entropy")

    @property
    def by_id(self) -> dict[KeyPointId, Detection]:
        return {det.kp: det for det in self.detections}


class HeatmapVolume:
    """C stacked M x N probability maps; every channel sums to one.

    Data is stored float64 and marked read-only after validation.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"expected channels x rows x cols, got shape {arr.shape}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ShapeError("volume planes must be non-empty")
        for _ in _checked_planes(arr):
            pass
        arr.setflags(write=False)
        self.data = arr

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]

    def channel(self, index: int) -> np.ndarray:
        return self.data[index]


def _checked_planes(planes: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Validate a volume one float64 channel at a time, yielding the clean ones.

    The errors keep the precedence of a check over the whole volume: a
    non-finite value in any channel raises NumericError before a negative
    value in any channel raises ValidationError, which comes before the
    channel whose sum is furthest from one. Channels after the first negative
    value are still checked for non-finite values, but no longer yielded.
    """
    sums = []
    negative = False
    for plane in planes:
        if not np.isfinite(plane).all():
            raise NumericError("volume contains non-finite values")
        negative = negative or bool((plane < 0).any())
        if not negative:
            sums.append(plane.sum())
            yield plane
    if negative:
        raise ValidationError("volume contains negative values")
    sums = np.array(sums)
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(sums[worst] - 1.0) > CHANNEL_SUM_TOLERANCE:
        raise ValidationError(
            f"channel {worst} sums to {sums[worst]!r}, expected 1 within "
            f"{CHANNEL_SUM_TOLERANCE}"
        )


def nearest_cell(coord: float, limit: int) -> int:
    """Half-up rounding to a cell index, clamped into [0, limit)."""
    return min(max(int(math.floor(coord + 0.5)), 0), limit - 1)


def make_target_volume(ann: FrameAnnotation, rows: int, cols: int) -> HeatmapVolume:
    """Delta channels for annotated key-points, flat channels for the rest.

    Annotation coordinates must already be expressed at (rows, cols)
    resolution; each annotated point becomes probability 1.0 at its nearest
    cell.
    """
    if rows < 1 or cols < 1:
        raise ShapeError("target volume needs positive rows and cols")
    data = np.full((CHANNEL_COUNT, rows, cols), 1.0 / (rows * cols))
    for pt in ann.points:
        if not (0 <= pt.u < cols and 0 <= pt.v < rows):
            raise OutOfBoundsError(
                f"{pt.kp.label} at (u={pt.u}, v={pt.v}) is outside the "
                f"{rows}x{cols} target grid"
            )
        plane = data[canonical_channel_index(pt.kp)]
        plane.fill(0.0)
        plane[nearest_cell(pt.v, rows), nearest_cell(pt.u, cols)] = 1.0
    return HeatmapVolume(data)


def softmax_normalize(raw) -> HeatmapVolume:
    """Per-channel softmax with max subtraction for numerical stability."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected channels x rows x cols logits, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("logits contain non-finite values")
    shifted = arr - arr.max(axis=(1, 2), keepdims=True)
    exp = np.exp(shifted)
    return HeatmapVolume(exp / exp.sum(axis=(1, 2), keepdims=True))


def cross_entropy_loss(target: HeatmapVolume, pred: HeatmapVolume) -> float:
    """Summed cross-entropy in nats; predictions clamped at 1e-12 before log."""
    if target.data.shape != pred.data.shape:
        raise ShapeError(
            f"target shape {target.data.shape} != prediction shape {pred.data.shape}"
        )
    return float(-np.sum(target.data * np.log(np.maximum(pred.data, LOG_CLAMP))))


def channel_entropy(channel) -> float:
    """Shannon entropy of one channel in nats, with 0 ln 0 taken as 0."""
    arr = np.asarray(channel, dtype=np.float64)
    if (arr < 0).any():
        raise ValidationError("channel contains negative entries")
    # every cell of a typical detector channel is positive: skip the copy then
    positive = arr.ravel() if arr.all() else arr[arr > 0]
    terms = np.log(positive)
    terms *= positive
    return float(-terms.sum())


@dataclass(frozen=True)
class DecodeParams:
    """Entropy gate strength; beta=0 rejects everything, beta=1 keeps all."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class ChannelSummary:
    """What the entropy gate needs from one volume, none of which depends on beta.

    Per channel: its entropy in nats and its argmax cell as a row-major
    index, ties resolved to the smallest index.
    """

    rows: int
    cols: int
    entropies: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.entropies) != CHANNEL_COUNT:
            raise ValidationError(
                f"decoding requires {CHANNEL_COUNT} channels, volume has "
                f"{len(self.entropies)}"
            )


def _summarize_planes(rows: int, cols: int, planes) -> ChannelSummary:
    entropies, cells = [], []
    for plane in planes:
        entropies.append(channel_entropy(plane))
        cells.append(int(plane.argmax()))
    return ChannelSummary(rows, cols, tuple(entropies), tuple(cells))


def summarize(volume: HeatmapVolume) -> ChannelSummary:
    """Each channel's entropy and argmax cell."""
    return _summarize_planes(volume.rows, volume.cols, volume.data)


def gate(
    summary: ChannelSummary, params: DecodeParams, frame_id: str = ""
) -> DetectionSet:
    """Keep each channel whose entropy is strictly below beta * ln(rows * cols).

    A kept channel is detected at its argmax cell, as (u=column, v=row) at
    volume resolution.
    """
    threshold = params.beta * math.log(summary.rows * summary.cols)
    detections = []
    for index, (entropy, cell) in enumerate(zip(summary.entropies, summary.cells)):
        if entropy < threshold:
            row, col = divmod(cell, summary.cols)
            detections.append(
                Detection(keypoint_for_channel(index), float(col), float(row), entropy)
            )
    return DetectionSet(frame_id, summary.rows, summary.cols, tuple(detections))


def decode(
    volume: HeatmapVolume, params: DecodeParams, frame_id: str = ""
) -> DetectionSet:
    """Entropy-gate each channel, then take its argmax cell.

    A channel yields a detection only when its entropy is strictly below
    beta * ln(rows * cols). Ties at the maximum resolve to the smallest
    row-major cell index; coordinates are (u=column, v=row) at volume
    resolution.
    """
    return gate(summarize(volume), params, frame_id)


def write_volume(volume: HeatmapVolume, path: str | Path) -> None:
    """Binary layout: magic, u32 version/rows/cols/channels, float32 planes."""
    with open(path, "wb") as handle:
        handle.write(VOLUME_MAGIC)
        handle.write(
            _HEADER.pack(VOLUME_VERSION, volume.rows, volume.cols, volume.channels)
        )
        handle.write(volume.data.astype("<f4").tobytes())


def _read_payload(path: str | Path) -> np.ndarray:
    """Check a volume file's header and size; return its float32 payload."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != VOLUME_MAGIC:
        raise FormatError(
            f"bad magic {blob[:4]!r}, expected {VOLUME_MAGIC!r}", offset=0
        )
    if len(blob) < _PAYLOAD_OFFSET:
        raise FormatError("truncated header", offset=len(blob))
    version, rows, cols, channels = _HEADER.unpack_from(blob, 4)
    if version != VOLUME_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if rows == 0:
        raise FormatError("rows must be positive", offset=8)
    if cols == 0:
        raise FormatError("cols must be positive", offset=12)
    if channels == 0:
        raise FormatError("channels must be positive", offset=16)
    expected = _PAYLOAD_OFFSET + 4 * rows * cols * channels
    if len(blob) < expected:
        raise FormatError(
            f"payload truncated: expected {expected} bytes, file has {len(blob)}",
            offset=len(blob),
        )
    if len(blob) > expected:
        raise FormatError("trailing bytes after payload", offset=expected)
    if channels != CHANNEL_COUNT:
        logger.warning(
            "volume %s carries %d channels; decoding requires %d",
            path,
            channels,
            CHANNEL_COUNT,
        )
    return np.frombuffer(blob, dtype="<f4", offset=_PAYLOAD_OFFSET).reshape(
        channels, rows, cols
    )


@contextmanager
def _non_finite_is_bad_bytes(payload: np.ndarray):
    """Report a NaN or infinity read from a file as a format error at its offset."""
    try:
        yield
    except NumericError:
        first = int(np.isfinite(payload).argmin())
        raise FormatError(
            "non-finite value in payload", offset=_PAYLOAD_OFFSET + 4 * first
        ) from None


def read_volume(path: str | Path) -> HeatmapVolume:
    payload = _read_payload(path)
    with _non_finite_is_bad_bytes(payload):
        return HeatmapVolume(payload)


def read_summary(path: str | Path) -> ChannelSummary:
    """The summary of a volume file, validated as read_volume validates it.

    Walks the float32 payload one channel at a time, so that at most one
    channel is held as float64.
    """
    payload = _read_payload(path)
    _, rows, cols = payload.shape
    with _non_finite_is_bad_bytes(payload):
        planes = _checked_planes(_float64_planes(payload))
        return _summarize_planes(rows, cols, planes)


def _float64_planes(payload: np.ndarray) -> Iterator[np.ndarray]:
    """Each channel upcast into one reused buffer, valid until the next step."""
    plane = np.empty(payload.shape[1:])
    for channel in payload:
        np.copyto(plane, channel)
        yield plane
