"""Detector output contract: stacked per-key-point probability maps.

Covers the delta/flat training targets, softmax normalization of raw logits,
the summed cross-entropy loss in nats, per-channel Shannon entropy, the
entropy-gated argmax decoder (a per-frame channel summary and the gate over
it), and the little-endian binary volume file.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    FormatError,
    NumericError,
    OutOfBoundsError,
    PoolError,
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


@dataclass(frozen=True)
class Detection(AnnotationPoint):
    """A decoded key-point: an annotation point plus its channel's entropy."""

    entropy: float

    def __post_init__(self):
        if not math.isfinite(self.entropy) or self.entropy < -1e-9:
            raise ValidationError(f"{self.kp.label} has invalid entropy")


@dataclass
class FrameAnnotation:
    """Key-points for one frame, at most one per identity, in pixel units."""

    frame_id: str
    rows: int
    cols: int
    points: tuple[AnnotationPoint, ...] = ()

    def __post_init__(self):
        self.points = tuple(self.points)
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("frame needs positive rows and cols")
        seen = set()
        for pt in self.points:
            if pt.kp in seen:
                raise ValidationError(f"duplicate point for {pt.kp.label}")
            seen.add(pt.kp)
            if not in_frame(pt.u, pt.v, self.rows, self.cols):
                raise OutOfBoundsError(
                    f"{pt.kp.label} at (u={pt.u}, v={pt.v}) is outside "
                    f"{self.rows}x{self.cols}"
                )

    @property
    def by_id(self) -> dict[KeyPointId, AnnotationPoint]:
        return {pt.kp: pt for pt in self.points}


class DetectionSet(FrameAnnotation):
    """Decoder output for one frame: a frame whose points are Detections."""

    @property
    def detections(self) -> tuple[Detection, ...]:
        return self.points


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
        for _ in _checked_planes(([c], plane) for c, plane in enumerate(arr)):
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


def _checked_planes(
    planes: Iterable[tuple[list[int], np.ndarray]],
) -> Iterator[np.ndarray]:
    """Validate a volume one float64 plane at a time, yielding the clean ones.

    Each plane comes with the channels that hold it: it is checked once and
    its sum recorded at each of them. The errors keep the precedence of a
    check over the whole volume: a non-finite value in any channel raises
    NumericError before a negative value in any channel raises
    ValidationError, which comes before the channel whose sum is furthest from
    one. Planes after the first negative value are still checked for
    non-finite values, but no longer yielded.
    """
    sums = {}
    negative = False
    for channels, plane in planes:
        with np.errstate(invalid="ignore"):  # inf + -inf is reported below
            total = plane.sum()
        # a finite sum has finite terms; finite terms may still overflow it
        if not math.isfinite(total) and not np.isfinite(plane).all():
            raise NumericError("volume contains non-finite values")
        negative = negative or bool(plane.min() < 0)
        if not negative:
            for channel in channels:
                sums[channel] = total
            yield plane
    if negative:
        raise ValidationError("volume contains negative values")
    sums = np.array([sums[channel] for channel in range(len(sums))])
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(sums[worst] - 1.0) > CHANNEL_SUM_TOLERANCE:
        raise ValidationError(
            f"channel {worst} sums to {float(sums[worst])}, expected 1 within "
            f"{CHANNEL_SUM_TOLERANCE}"
        )


def in_frame(u: float, v: float, rows: int, cols: int) -> bool:
    """The half-open test every key-point of a rows x cols frame passes."""
    return 0 <= u < cols and 0 <= v < rows


def nearest_cell(coord: float, limit: int) -> int:
    """Half-up rounding to a cell index, clamped into [0, limit)."""
    # clamped before floor, so that an infinite coord lands on an edge cell
    return math.floor(min(max(coord + 0.5, 0), limit - 1))


def make_target_volume(ann: FrameAnnotation, rows: int, cols: int) -> HeatmapVolume:
    """Delta channels for annotated key-points, flat channels for the rest.

    Annotation coordinates must already be expressed at (rows, cols)
    resolution; each annotated point becomes probability 1.0 at its nearest
    cell, and a point off the grid raises OutOfBoundsError.
    """
    if rows < 1 or cols < 1:
        raise ShapeError("target volume needs positive rows and cols")
    plan = {}
    for pt in FrameAnnotation(ann.frame_id, rows, cols, ann.points).points:
        cell = (nearest_cell(pt.v, rows), nearest_cell(pt.u, cols), 1.0)
        plan[canonical_channel_index(pt.kp)] = cell
    return PeakPlan(rows, cols, plan).volume()


class PeakPlan(NamedTuple):
    """Flat channels, except each planned channel: {channel: (row, col, mass)}.

    A planned channel holds mass at its cell and spreads 1 - mass evenly over
    the other cells (none on a one-cell grid, where only mass 1 is valid), so
    mass 1 is a delta and mass 1/cells a flat channel.
    """

    rows: int
    cols: int
    peaks: dict[int, tuple[int, int, float]]
    channels = CHANNEL_COUNT

    def planes(self) -> Iterator[tuple[list[int], np.ndarray]]:
        """Each distinct plane and the channels holding it, in one reused buffer.

        The flat plane comes first, then each planned channel in channel
        order; the buffer is valid until the next step.
        """
        plane = np.empty((self.rows, self.cols))
        plane.fill(1.0 / plane.size)
        yield [c for c in range(self.channels) if c not in self.peaks], plane
        for channel in range(self.channels):
            if channel in self.peaks:
                row, col, mass = self.peaks[channel]
                plane.fill((1.0 - mass) / max(plane.size - 1, 1))
                plane[row, col] = mass
                yield [channel], plane

    def volume(self) -> HeatmapVolume:
        data = np.empty((self.channels, self.rows, self.cols))
        for channels, plane in self.planes():
            data[channels] = plane
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
    return _entropy(arr, np.empty(arr.size))


def _entropy(plane: np.ndarray, work: np.ndarray) -> float:
    """channel_entropy of a plane known to hold no negative entry.

    The log terms go into work, a float64 buffer of at least plane.size cells.
    """
    # every cell of a typical detector channel is positive: skip the copy then
    positive = plane.ravel() if plane.all() else plane[plane > 0]
    terms = np.log(positive, out=work[: positive.size])
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
    """Summarize validated float64 planes, which may share one reused buffer.

    Every plane has one size, so a flat plane's entropy depends only on its
    value: it is computed for the first flat plane of each value, then reused.
    """
    work = np.empty(rows * cols)
    flat = {}  # value -> entropy of the flat planes holding it
    entropies, cells = [], []
    for plane in planes:
        cell = int(plane.argmax())
        value = plane.flat[0]
        # a flat plane's argmax is its first cell, so only then test the rest
        if cell == 0 and plane.min() == value:
            if value not in flat:
                flat[value] = _entropy(plane, work)
            entropies.append(flat[value])
        else:
            entropies.append(_entropy(plane, work))
        cells.append(cell)
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


def write_volume(volume: HeatmapVolume | PeakPlan, path: str | Path) -> None:
    """Binary layout: magic, u32 version/rows/cols/channels, float32 planes.

    Writes one channel at a time. A plan's flat plane is built, checked and
    cast once, and its float32 bytes written at every flat channel; each
    planned channel is built, checked and cast on its own. A plan is checked
    as a HeatmapVolume is, and a failed check removes the partial file.
    """
    shape = (volume.rows, volume.cols)
    if isinstance(volume, PeakPlan):
        planes = _plan_planes(volume)
    else:
        planes = _cast_planes(volume.data, shape, "<f4")
    try:
        with open(path, "wb") as handle:
            handle.write(VOLUME_MAGIC)
            handle.write(_HEADER.pack(VOLUME_VERSION, *shape, volume.channels))
            for plane in planes:
                handle.write(plane)
    except PoolError:
        Path(path).unlink(missing_ok=True)
        raise


def _plan_planes(plan: PeakPlan) -> Iterator[np.ndarray]:
    """A plan's checked float32 planes in channel order.

    PeakPlan.planes yields the flat plane first, so its cast is kept for every
    flat channel; the planned planes follow in channel order, one per step.
    """
    checked = _checked_planes(plan.planes())
    cast = _cast_planes(checked, (plan.rows, plan.cols), "<f4")
    flat = next(cast).copy()
    for channel in range(plan.channels):
        yield next(cast) if channel in plan.peaks else flat
    next(cast, None)  # the whole-volume verdict runs once every plane is in


def _read_header(handle: BinaryIO, path: str | Path) -> tuple[int, int, int]:
    """Check a volume file's header against its size; return channels, rows, cols.

    Leaves handle at the start of the float32 payload.
    """
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(_PAYLOAD_OFFSET)
    if head[:4] != VOLUME_MAGIC:
        raise FormatError(
            f"bad magic {head[:4]!r}, expected {VOLUME_MAGIC!r}", offset=0
        )
    if len(head) < _PAYLOAD_OFFSET:
        raise FormatError("truncated header", offset=len(head))
    version, rows, cols, channels = _HEADER.unpack_from(head, 4)
    if version != VOLUME_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if rows == 0:
        raise FormatError("rows must be positive", offset=8)
    if cols == 0:
        raise FormatError("cols must be positive", offset=12)
    if channels == 0:
        raise FormatError("channels must be positive", offset=16)
    expected = _PAYLOAD_OFFSET + 4 * rows * cols * channels
    if size < expected:
        raise FormatError(
            f"payload truncated: expected {expected} bytes, file has {size}",
            offset=size,
        )
    if size > expected:
        raise FormatError("trailing bytes after payload", offset=expected)
    if channels != CHANNEL_COUNT:
        logger.warning(
            "volume %s carries %d channels; decoding requires %d",
            path,
            channels,
            CHANNEL_COUNT,
        )
    return channels, rows, cols


def _read_into(handle: BinaryIO, buffer: np.ndarray) -> np.ndarray:
    """Fill buffer with the next payload bytes; a file that shrank is a format error."""
    if handle.readinto(buffer) != buffer.nbytes:
        raise FormatError("payload ended while being read", offset=handle.tell())
    return buffer


@contextmanager
def _non_finite_is_bad_bytes(handle: BinaryIO, buffer: np.ndarray):
    """Report a NaN or infinity as a format error at its offset in the file.

    buffer holds the payload bytes read last from handle, where the first
    non-finite value is.
    """
    try:
        yield
    except NumericError:
        first = int(np.isfinite(buffer).argmin())
        start = handle.tell() - buffer.nbytes
        raise FormatError(
            "non-finite value in payload", offset=start + 4 * first
        ) from None


def read_volume(path: str | Path) -> HeatmapVolume:
    with open(path, "rb") as handle:
        shape = _read_header(handle, path)
        payload = _read_into(handle, np.empty(shape, "<f4"))
        with _non_finite_is_bad_bytes(handle, payload):
            return HeatmapVolume(payload)


def read_summary(path: str | Path) -> ChannelSummary:
    """The summary of a volume file, validated as read_volume validates it.

    Reads the float32 payload one channel at a time into one reused buffer
    and casts it into one reused float64 plane; with the entropy's float64
    work plane, memory holds three planes, never the whole file. Every error,
    and every byte offset it names, is the one read_volume gives.
    """
    with open(path, "rb") as handle:
        channels, rows, cols = _read_header(handle, path)
        raw = np.empty((rows, cols), "<f4")
        planes = (_read_into(handle, raw) for _ in range(channels))
        with _non_finite_is_bad_bytes(handle, raw):
            planes = enumerate(_cast_planes(planes, raw.shape, np.float64))
            planes = _checked_planes(([c], plane) for c, plane in planes)
            return _summarize_planes(rows, cols, planes)


def _cast_planes(planes, shape, dtype) -> Iterator[np.ndarray]:
    """Each plane cast into one reused buffer, valid until the next step."""
    out = np.empty(shape, dtype)
    for plane in planes:
        np.copyto(out, plane)
        yield out
