"""Detection quality: tolerance matching, precision/recall/F1, and sweeps.

Matching is channel-wise: a frame carries at most one detection and one
ground-truth point per key-point identity. A detection further than the
tolerance from its ground truth is both a false positive and a false
negative: the detector fired somewhere wrong and still missed the point.

Every score comes from one table per frame, built once from its channel
summary (or its DetectionSet) and its annotation: per channel, the entropy
the gate tests and the distance from the cell it fires at to its truth.
At a threshold beta * ln(rows * cols) and a tolerance, tp counts the fired
channels with a truth within the tolerance, fp = fired - tp and
fn = truths - tp. ``evaluate`` also sums each channel's outcome; the sweeps
count at each grid point and build no DetectionSet there. The errors come
in this order: the grid, the reads, then (unless the grid is empty) the
first channel below ``ENTROPY_FLOOR`` in any frame, which the gate refuses,
then per frame differing paired ids, a repeated id, and a size mismatch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import fmean
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ShapeError, ValidationError
from .heatmap import (
    ENTROPY_FLOOR,
    ChannelSummary,
    DecodeParams,
    DetectionSet,
    FrameAnnotation,
    HeatmapVolume,
    summarize,
)
from .model import CHANNEL_IDS, CLASS_ORDER, KeyPointClass, KeyPointId, _write_json


@dataclass(frozen=True)
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: MatchCounts) -> MatchCounts:
        return MatchCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class EvalParams:
    tolerance_px: float = 5.0

    def __post_init__(self):
        if not self.tolerance_px > 0:
            raise ValidationError("tolerance_px must be positive")


@dataclass(frozen=True)
class FrameMatch:
    frame_id: str
    counts: MatchCounts
    per_channel: dict[KeyPointId, MatchCounts]


# the outcomes of one key-point in one frame, shared by every frame
_HIT = MatchCounts(tp=1)
_FALSE_ALARM = MatchCounts(fp=1)
_MISS = MatchCounts(fn=1)
_MISPLACED = MatchCounts(fp=1, fn=1)  # fired in the wrong place: both at once


class _FrameTable(NamedTuple):
    """One frame's channels as (key-point, entropy, distance to its truth or None).

    A DetectionSet is gated already: its detections test -inf, which fires
    at any threshold, and its truths that no detection met NaN, which never
    does.
    """

    frame_id: str
    log_cells: float  # the gate's threshold is beta * log_cells
    truths: int
    channels: tuple[tuple[KeyPointId, float, float | None], ...]


def _table(frame: DetectionSet | ChannelSummary, gt: FrameAnnotation) -> _FrameTable:
    """The table of a frame under its annotation, which must have its size."""
    if (frame.rows, frame.cols) != (gt.rows, gt.cols):
        raise ShapeError(
            f"detections are {frame.rows}x{frame.cols} but ground truth is "
            f"{gt.rows}x{gt.cols}"
        )
    if isinstance(frame, DetectionSet):
        fired = [(d.kp, -math.inf, d.u, d.v) for d in frame.detections]
    else:  # each channel fires at its argmax cell, as (u=column, v=row)
        cols = frame.cols
        fired = [
            (kp, entropy, float(cell % cols), float(cell // cols))
            for kp, entropy, cell in zip(CHANNEL_IDS, frame.entropies, frame.cells)
        ]
    truths = gt.by_id
    channels = []
    for kp, entropy, u, v in fired:
        g = truths.pop(kp, None)
        distance = None if g is None else math.hypot(u - g.u, v - g.v)
        channels.append((kp, entropy, distance))
    channels += [(kp, math.nan, math.inf) for kp in truths]
    return _FrameTable(
        gt.frame_id, math.log(frame.rows * frame.cols), len(gt.points), tuple(channels)
    )


def _tables(
    frames: Sequence[tuple[DetectionSet | ChannelSummary, FrameAnnotation]],
) -> list[_FrameTable]:
    """Each pair's table, sorted by frame id, after the checks of the gate
    over every frame, then those of matching each pair in turn."""
    for frame, _ in frames:
        if isinstance(frame, ChannelSummary):
            for kp, entropy in zip(CHANNEL_IDS, frame.entropies):
                # such a channel fires at every beta, and no Detection holds it
                if entropy < ENTROPY_FLOOR:
                    raise ValidationError(f"{kp.label} has invalid entropy")
    seen_ids = set()
    tables = []
    for frame, gt in frames:
        if isinstance(frame, DetectionSet) and frame.frame_id != gt.frame_id:
            raise ValidationError(
                f"paired frame ids differ: {frame.frame_id!r} vs {gt.frame_id!r}"
            )
        if gt.frame_id in seen_ids:
            raise ValidationError(f"duplicate frame id {gt.frame_id!r}")
        seen_ids.add(gt.frame_id)
        tables.append(_table(frame, gt))
    tables.sort(key=lambda table: table.frame_id)
    return tables


def _counts(table: _FrameTable, threshold: float, tolerance: float) -> MatchCounts:
    """A frame's counts with the channels whose entropy is below threshold fired."""
    fired = tp = 0
    for _, entropy, distance in table.channels:
        if entropy < threshold:
            fired += 1
            if distance is not None and distance <= tolerance:
                tp += 1
    return MatchCounts(tp, fired - tp, table.truths - tp)


def _outcomes(
    table: _FrameTable, threshold: float, tolerance: float
) -> Iterator[tuple[KeyPointId, MatchCounts]]:
    """What _counts adds up, per channel that fired or holds a truth."""
    for kp, entropy, distance in table.channels:
        if entropy < threshold:
            if distance is None:
                yield kp, _FALSE_ALARM
            else:
                yield kp, _HIT if distance <= tolerance else _MISPLACED
        elif distance is not None:
            yield kp, _MISS


def match_frame(
    det: DetectionSet, gt: FrameAnnotation, params: EvalParams
) -> FrameMatch:
    """Each detection against its key-point's truth; each truth left is a miss."""
    table = _table(det, gt)
    tolerance = params.tolerance_px
    return FrameMatch(
        gt.frame_id,
        _counts(table, math.inf, tolerance),
        dict(_outcomes(table, math.inf, tolerance)),
    )


def _ratio(num: int, den: int) -> float:
    return 0.0 if den == 0 else num / den  # 0/0 reported as 0 by convention


def precision(counts: MatchCounts) -> float:
    return _ratio(counts.tp, counts.tp + counts.fp)


def recall(counts: MatchCounts) -> float:
    return _ratio(counts.tp, counts.tp + counts.fn)


def f1(counts: MatchCounts) -> float:
    p = precision(counts)
    r = recall(counts)
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class FrameScore:
    frame_id: str
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ScopeScore:
    """Aggregated scores; all None when the scope never occurs ('-')."""

    precision: float | None
    recall: float | None
    f1: float | None
    total: int


@dataclass(frozen=True)
class EvalReport:
    per_frame: tuple[FrameScore, ...]
    per_class: dict[KeyPointClass, ScopeScore]
    per_keypoint: dict[KeyPointId, ScopeScore]
    mean_f1: float


def _scope(counts: MatchCounts) -> ScopeScore:
    total = counts.tp + counts.fn
    if total == 0 and counts.fp == 0:
        return ScopeScore(None, None, None, 0)
    return ScopeScore(precision(counts), recall(counts), f1(counts), total)


def _summarized(
    frame: DetectionSet | HeatmapVolume | ChannelSummary,
) -> DetectionSet | ChannelSummary:
    return summarize(frame) if isinstance(frame, HeatmapVolume) else frame


def _mean_f1(tables: Sequence[_FrameTable], beta: float, tolerance: float) -> float:
    if not tables:
        return 0.0
    return fmean(f1(_counts(t, beta * t.log_cells, tolerance)) for t in tables)


def evaluate(
    frames: Iterable[
        tuple[DetectionSet | HeatmapVolume | ChannelSummary, FrameAnnotation]
    ],
    params: EvalParams,
    decode: DecodeParams | None = None,
) -> EvalReport:
    """Score a collection of frames.

    Each annotation is paired with its DetectionSet, scored as it is, or,
    given ``decode``, with a HeatmapVolume or ChannelSummary, gated at
    ``decode.beta``. mean_f1 averages the per-frame F1 values; per-class and
    per-key-point scores micro-aggregate raw counts across frames before
    computing the ratios.
    """
    pairs = [(_summarized(frame), gt) for frame, gt in frames]
    if decode is None and any(isinstance(f, ChannelSummary) for f, _ in pairs):
        raise ValidationError("a volume or a summary needs DecodeParams to be gated")
    beta = 1.0 if decode is None else decode.beta  # any beta fires a DetectionSet
    tolerance = params.tolerance_px
    per_frame = []
    per_id = dict.fromkeys(CHANNEL_IDS, MatchCounts())
    for table in _tables(pairs):
        threshold = beta * table.log_cells
        counts = _counts(table, threshold, tolerance)
        per_frame.append(
            FrameScore(table.frame_id, precision(counts), recall(counts), f1(counts))
        )
        for kp, outcome in _outcomes(table, threshold, tolerance):
            per_id[kp] += outcome
    per_class = dict.fromkeys(CLASS_ORDER, MatchCounts())
    for kp, counts in per_id.items():
        per_class[kp.cls] += counts
    return EvalReport(
        per_frame=tuple(per_frame),
        per_class={cls: _scope(c) for cls, c in per_class.items()},
        per_keypoint={kp: _scope(c) for kp, c in per_id.items()},
        mean_f1=fmean(s.f1 for s in per_frame) if per_frame else 0.0,
    )


def beta_sweep(
    volumes_gt: Sequence[tuple[HeatmapVolume | ChannelSummary, FrameAnnotation]],
    betas: Sequence[float],
    tolerance_px: float = 5.0,
) -> list[tuple[float, float]]:
    """mean F1 as a function of the entropy gate strength.

    Each frame is summarized and tabled once, then counted at every beta.
    The arguments are checked before the first frame is taken from
    ``volumes_gt``.
    """
    for beta in betas:
        if not 0.0 <= beta <= 1.0:
            raise ValidationError(f"beta grid value {beta} outside [0, 1]")
    tolerance = EvalParams(tolerance_px=tolerance_px).tolerance_px
    pairs = [(_summarized(frame), ann) for frame, ann in volumes_gt]
    if not betas:
        return []
    tables = _tables(pairs)
    return [(float(beta), _mean_f1(tables, beta, tolerance)) for beta in betas]


def tolerance_sweep(
    volumes_gt: Sequence[tuple[HeatmapVolume | ChannelSummary, FrameAnnotation]],
    beta: float,
    tolerances_px: Sequence[float],
) -> list[tuple[float, float]]:
    """mean F1 as a function of the match tolerance, at one gate strength.

    The gate strength is typically the best beta for the pool type being
    evaluated. The arguments are checked before the first frame is taken
    from ``volumes_gt``.
    """
    for tolerance in tolerances_px:
        if not tolerance > 0:
            raise ValidationError(f"tolerance grid value {tolerance} must be positive")
    beta = DecodeParams(beta).beta
    pairs = [(_summarized(frame), ann) for frame, ann in volumes_gt]
    if not tolerances_px:
        return []
    tables = _tables(pairs)
    return [(float(t), _mean_f1(tables, beta, t)) for t in tolerances_px]


def report_to_dict(report: EvalReport) -> dict:
    """Each score's fields in declaration order, which is the JSON key order."""
    return {
        "mean_f1": report.mean_f1,
        "per_frame": [asdict(s) for s in report.per_frame],
        "per_class": {cls.value: asdict(report.per_class[cls]) for cls in CLASS_ORDER},
        "per_keypoint": {
            kp.label: asdict(report.per_keypoint[kp]) for kp in CHANNEL_IDS
        },
    }


def write_report_json(report: EvalReport, path: str | Path) -> None:
    _write_json(report_to_dict(report), path)


def _cell(value: float | None) -> str:
    return "-" if value is None else repr(value)


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """One row per class and per key-point: class,index,precision,recall,f1,total."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class", "index", "precision", "recall", "f1", "total"])
        rows = [(cls.value, "", report.per_class[cls]) for cls in CLASS_ORDER]
        rows += [
            (kp.cls.value, kp.index, report.per_keypoint[kp]) for kp in CHANNEL_IDS
        ]
        for name, index, score in rows:
            scores = (_cell(score.precision), _cell(score.recall), _cell(score.f1))
            writer.writerow([name, index, *scores, score.total])


def write_sweep_csv(curve: Sequence[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "mean_f1"])
        for x, value in curve:
            writer.writerow([repr(float(x)), repr(float(value))])
