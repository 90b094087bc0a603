"""Detector output contract: stacked per-key-point probability maps.

Covers the delta/flat training targets, softmax normalization of raw logits,
the summed cross-entropy loss in nats, per-channel Shannon entropy, the
entropy-gated argmax decoder (a per-frame channel summary and the gate over
it), and the little-endian binary volume file, read one float32 plane at a
time with no float64 plane built.
"""

from __future__ import annotations

import logging
import math
import os
import struct
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
    CHANNEL_IDS,
    KeyPointId,
    _clipped,
    canonical_channel_index,
)

logger = logging.getLogger(__name__)

CHANNEL_SUM_TOLERANCE = 1e-6
# below any entropy a channel within the sum tolerance t can have: one cell
# of 1 + t among zeros, -(1 + t) ln(1 + t), is about -t
ENTROPY_FLOOR = -2 * CHANNEL_SUM_TOLERANCE
LOG_CLAMP = 1e-12

VOLUME_MAGIC = b"PKHV"
VOLUME_VERSION = 1
_HEADER = struct.Struct("<IIII")  # version, rows, cols, channels
_PAYLOAD_OFFSET = len(VOLUME_MAGIC) + _HEADER.size
# cells per float64 leaf of a plane's sums: a quarter of a 288x512 plane
_LEAF = 36_864
# cells of a plane searched at a time for the positive ones
_CHUNK = 8_192


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
        if not math.isfinite(self.entropy) or self.entropy < ENTROPY_FLOOR:
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
                    f"{_clipped(str(self.rows))}x{_clipped(str(self.cols))}"
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

    Data is copied into a float64 array, never aliased, and marked read-only
    after validation.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        # C order keeps each plane's sum in the order of a contiguous copy
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim != 3 or 0 in arr.shape:
            raise ShapeError(f"need non-empty channels x rows x cols, got {arr.shape}")
        self.data = _filled(arr.shape, _checked_planes(len(arr), enumerate(arr))).data

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

    def planes(self) -> Iterator[tuple[int, np.ndarray]]:
        """Each channel and its plane, in channel order, as PeakPlan.planes yields."""
        return enumerate(self.data)


def _filled(shape: tuple[int, int, int], checked: Iterable) -> HeatmapVolume:
    data = np.empty(shape)
    for channels, plane, *_ in checked:
        data[channels] = plane
    data.setflags(write=False)
    volume = object.__new__(HeatmapVolume)
    volume.data = data
    return volume


_FLAT, _SINGLE, _OTHER = "flat", "single", "other"


def _kind(plane: np.ndarray) -> tuple[np.generic, int, str]:
    """A plane's minimum, its argmax cell (the first maximum) and its kind.

    _FLAT: every cell holds one value. _SINGLE: one positive cell, zeros in
    the others. _OTHER: anything else, any plane holding a NaN among them,
    since a NaN equals nothing.
    """
    cells = plane.ravel()
    minimum = cells.min()
    cell = int(cells.argmax())
    if minimum == cells[cell]:
        return minimum, cell, _FLAT
    # the maximum cell is above zero, so the plane is single when no other is
    if (
        minimum == 0
        and cells[:cell].max(initial=0) == 0
        and cells[cell + 1 :].max(initial=0) == 0
    ):
        return minimum, cell, _SINGLE
    return minimum, cell, _OTHER


def _checked_planes(
    count: int, planes: Iterable[tuple[int | list[int], np.ndarray]]
) -> Iterator[tuple[int | list[int], np.ndarray, np.generic, int, str]]:
    """Validate a volume of count channels one float32 or float64 plane at a time.

    Each plane comes with the channel or channels that hold it: it is checked
    once, the sum of its exact float64 cast is recorded at each of them, and
    each clean pair is yielded with the plane's _kind triple. The sum of a
    flat plane is taken once per nonzero value, and that of a single plane is
    its one positive cell, so neither is cast to float64 again. The errors
    keep the precedence of a check over the whole volume: a non-finite value
    in any channel raises NumericError before a negative value in any channel
    raises ValidationError, which comes before the channel whose sum is
    furthest from one. Planes after the first negative value are still
    checked for non-finite values, but no longer yielded.
    """
    sums = np.empty(count)
    flat_sums = {}  # nonzero value -> sum of a flat plane holding it
    negative = False
    for channels, plane in planes:
        minimum, cell, kind = _kind(plane)
        # inf + -inf and a sum beyond the float range are reported below
        with np.errstate(invalid="ignore", over="ignore"):
            if kind is _SINGLE:
                total = np.float64(plane.flat[cell])  # zeros add nothing to it
            elif kind is _FLAT and minimum != 0:  # signed zeros' sum has no one sign
                if minimum not in flat_sums:
                    flat_sums[minimum] = _plane_sum(plane)
                total = flat_sums[minimum]
            else:
                total = _plane_sum(plane)
            sums[channels] = total
        # a finite sum has finite terms; finite terms may still overflow it
        if not math.isfinite(total) and not np.isfinite(plane).all():
            raise NumericError("volume contains non-finite values")
        negative = negative or bool(minimum < 0)
        if not negative:
            yield channels, plane, minimum, cell, kind
    if negative:
        raise ValidationError("volume contains negative values")
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(sums[worst] - 1.0) > CHANNEL_SUM_TOLERANCE:
        raise ValidationError(
            f"channel {worst} sums to {float(sums[worst])}, expected 1 within "
            f"{CHANNEL_SUM_TOLERANCE}"
        )


def _pairwise(size: int, leaf, start: int = 0) -> float:
    """np.sum of size float64 cells, from leaf(start, stop), np.sum of each leaf.

    numpy sums a contiguous float64 array as one pairwise tree (Higham, 1993):
    a node of more than 128 cells splits at n2 = n//2 - (n//2) % 8, and np.sum
    of a node's slice is that node's sum. So the leaves of at most _LEAF cells,
    added in the tree's order, give every bit of one np.sum over all the cells.
    """
    if size <= _LEAF:
        return leaf(start, start + size)
    half = size // 2 - size // 2 % 8
    return _pairwise(half, leaf, start) + _pairwise(size - half, leaf, start + half)


def _leaf_sum(
    size: int, pieces: Iterator[np.ndarray], work: np.ndarray, entropy: bool = False
) -> float:
    """np.sum of the float64 casts of size cells read in order from pieces.

    Each leaf is filled into work, a float64 buffer of at least
    min(size, _LEAF) cells; with entropy, each cell p is summed as p ln p.
    """
    piece = work[:0]

    def leaf(start, stop):
        nonlocal piece
        terms = work[: stop - start]
        filled = 0
        while filled < terms.size:
            if not piece.size:
                piece = next(pieces)
            part, piece = piece[: terms.size - filled], piece[terms.size - filled :]
            out = terms[filled : filled + part.size]
            np.copyto(out, part)
            if entropy:
                np.log(out, out=out)
                out *= part
            filled += part.size
        return terms.sum()

    return _pairwise(size, leaf)


def _plane_sum(plane: np.ndarray) -> float:
    """The bits of plane.sum() of a C-contiguous plane's float64 cast."""
    cells = plane.ravel()
    return _leaf_sum(cells.size, iter((cells,)), np.empty(min(cells.size, _LEAF)))


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
        order; the buffer is valid until the next step. The plan is checked
        at the call, before any plane is built: an empty grid is a ShapeError,
        a channel outside [0, channels) a ValidationError and a cell off the
        grid an OutOfBoundsError. The planes pass a HeatmapVolume's checks as
        they are yielded.
        """
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"plan grid {self.rows}x{self.cols} is empty")
        for channel, (row, col, _) in self.peaks.items():
            if not 0 <= channel < self.channels:
                raise ValidationError(f"channel {channel} not in [0, {self.channels})")
            if not (0 <= row < self.rows and 0 <= col < self.cols):
                raise OutOfBoundsError(f"channel {channel} cell {row, col} is off-grid")
        checked = _checked_planes(self.channels, self._filled_planes())
        return ((channels, plane) for channels, plane, *_ in checked)

    def _filled_planes(self) -> Iterator[tuple[list[int], np.ndarray]]:
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
        return _filled((self.channels, self.rows, self.cols), self.planes())


def softmax_normalize(raw) -> HeatmapVolume:
    """Per-channel softmax with max subtraction for numerical stability."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 3 or 0 in arr.shape:
        raise ShapeError(f"need non-empty channels x rows x cols, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("logits contain non-finite values")
    exp = arr - arr.max(axis=(1, 2), keepdims=True)
    np.exp(exp, out=exp)
    return HeatmapVolume(np.divide(exp, exp.sum(axis=(1, 2), keepdims=True), out=exp))


def cross_entropy_loss(target: HeatmapVolume, pred: HeatmapVolume) -> float:
    """Summed cross-entropy in nats; predictions clamped at 1e-12 before log."""
    if target.data.shape != pred.data.shape:
        raise ShapeError(
            f"target shape {target.data.shape} != prediction shape {pred.data.shape}"
        )
    terms = np.maximum(pred.data, LOG_CLAMP)
    np.log(terms, out=terms)
    terms *= target.data
    return float(-np.sum(terms))


def channel_entropy(channel) -> float:
    """Shannon entropy of one channel in nats, with 0 ln 0 taken as 0.

    A non-finite entry is a NumericError, then a negative one a ValidationError.
    """
    arr = np.asarray(channel, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError("channel contains non-finite entries")
    if (arr < 0).any():
        raise ValidationError("channel contains negative entries")
    return _positive_entropy(arr, arr.all())


def _positive_entropy(plane: np.ndarray, all_positive: bool) -> float:
    """channel_entropy of a plane with no negative entry, over its positive cells.

    Unless every cell is positive, the positive cells are counted, then
    gathered into each leaf, a _CHUNK of the plane at a time: no mask or copy
    of the whole plane is made.
    """
    cells = plane.ravel()
    # a fresh leaf buffer: none is held while the checks sum the next plane
    if all_positive:
        return _entropy(cells, np.empty(min(cells.size, _LEAF)))
    chunks = [cells[i : i + _CHUNK] for i in range(0, cells.size, _CHUNK)]
    size = sum(int(np.count_nonzero(chunk > 0)) for chunk in chunks)
    pieces = (chunk[chunk > 0] for chunk in chunks)
    return float(-_leaf_sum(size, pieces, np.empty(min(size, _LEAF)), entropy=True))


def _entropy(plane: np.ndarray, work: np.ndarray) -> float:
    """Entropy in nats of plane, a channel's positive cells in any shape."""
    return float(-_leaf_sum(plane.size, iter((plane.ravel(),)), work, entropy=True))


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
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("frame needs positive rows and cols")
        size = self.rows * self.cols
        if len(self.cells) != CHANNEL_COUNT or not all(
            0 <= cell < size for cell in self.cells
        ):
            raise ValidationError("each channel needs one argmax cell on the grid")


def _summarize_planes(rows: int, cols: int, checked) -> ChannelSummary:
    """Summarize the planes that _checked_planes yields, each with its _kind.

    The planes have one size and may share one buffer.
    """
    flat = {}  # value -> entropy of the flat planes holding it
    entropies, cells = [], []
    for _, plane, minimum, cell, kind in checked:
        # a minimum above 0 means every cell is positive
        if kind is _FLAT:
            if minimum not in flat:
                flat[minimum] = _positive_entropy(plane, minimum > 0)
            entropies.append(flat[minimum])
        elif kind is _SINGLE:
            entropies.append(_positive_entropy(plane.ravel()[cell : cell + 1], True))
        else:
            entropies.append(_positive_entropy(plane, minimum > 0))
        cells.append(cell)
    return ChannelSummary(rows, cols, tuple(entropies), tuple(cells))


def summarize(volume: HeatmapVolume) -> ChannelSummary:
    """Each channel's entropy and argmax cell."""
    planes = ((k, plane, *_kind(plane)) for k, plane in enumerate(volume.data))
    return _summarize_planes(volume.rows, volume.cols, planes)


def gate(
    summary: ChannelSummary, params: DecodeParams, frame_id: str = ""
) -> DetectionSet:
    """Keep each channel whose entropy is strictly below beta * ln(rows * cols).

    A kept channel is detected at its argmax cell, as (u=column, v=row) at
    volume resolution.
    """
    threshold = params.beta * math.log(summary.rows * summary.cols)
    detections = []
    for kp, entropy, cell in zip(CHANNEL_IDS, summary.entropies, summary.cells):
        if entropy < threshold:
            row, col = divmod(cell, summary.cols)
            detections.append(Detection(kp, float(col), float(row), entropy))
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

    A plan is checked as a HeatmapVolume is, and a failed check leaves no file.
    """
    shape = (volume.rows, volume.cols)
    pairs = volume.planes()
    try:
        with open(path, "wb") as handle:
            handle.write(VOLUME_MAGIC)
            handle.write(_HEADER.pack(VOLUME_VERSION, *shape, volume.channels))
            # a plane beyond the float32 range always fails the sum check
            with np.errstate(over="ignore"):
                for channels, plane in _cast_planes(pairs, shape, "<f4"):
                    for channel in np.atleast_1d(channels):
                        handle.seek(_PAYLOAD_OFFSET + channel * plane.nbytes)
                        handle.write(plane)
    except PoolError:
        Path(path).unlink(missing_ok=True)
        raise


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
    if handle.readinto(buffer) != buffer.nbytes:
        raise FormatError("payload ended while being read", offset=handle.tell())
    return buffer


def _file_planes(handle: BinaryIO, shape: tuple) -> Iterator[tuple]:
    """The payload's checked (channel, float32 plane, minimum) triples.

    Each plane is read into one reused buffer. A NaN or infinity is a format
    error at its offset in the file.
    """
    raw = np.empty(shape[1:], "<f4")
    planes = (_read_into(handle, raw) for _ in range(shape[0]))
    try:
        yield from _checked_planes(shape[0], enumerate(planes))
    except NumericError:
        # raw holds the plane read last, where the first non-finite value is
        first = int(np.isfinite(raw).argmin())
        start = handle.tell() - raw.nbytes
        raise FormatError(
            "non-finite value in payload", offset=start + 4 * first
        ) from None


def read_volume(path: str | Path) -> HeatmapVolume:
    with open(path, "rb") as handle:
        shape = _read_header(handle, path)
        return _filled(shape, _file_planes(handle, shape))


def read_summary(path: str | Path) -> ChannelSummary:
    """The summary of a volume file, read and validated as read_volume does.

    Memory holds one float32 plane and float64 leaves of at most _LEAF cells,
    never the whole file nor a float64 plane. A flat plane whose value an
    earlier one held and a single plane are not cast to float64 at all, and
    a plane of zero and positive cells is searched _CHUNK cells at a time.
    """
    with open(path, "rb") as handle:
        shape = _read_header(handle, path)
        return _summarize_planes(*shape[1:], _file_planes(handle, shape))


def _cast_planes(pairs, shape, dtype) -> Iterator[tuple]:
    out = np.empty(shape, dtype)
    for channels, plane in pairs:
        np.copyto(out, plane)
        yield channels, out
