"""Detection quality: tolerance matching, precision/recall/F1, and sweeps.

Matching is channel-wise because each frame carries at most one detection
and one ground-truth point per key-point identity. It walks the points the
frame holds, and a truth that no detection met is a miss. A detection
further than the tolerance from its ground truth is counted as both a false
positive and a false negative: the detector fired somewhere wrong and still
missed the real point.

Every frame is gated under its annotation's frame id and matched in one
pass, which checks the pairing and sorts by frame id. ``evaluate`` builds
its report from those matches; the sweeps run the same pass at each grid
point and keep only its mean F1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import fmean
from typing import Iterable, Sequence

from .errors import ShapeError, ValidationError
from .heatmap import (
    ChannelSummary,
    DecodeParams,
    DetectionSet,
    FrameAnnotation,
    HeatmapVolume,
    gate,
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


def match_frame(
    det: DetectionSet, gt: FrameAnnotation, params: EvalParams
) -> FrameMatch:
    """Each detection against its key-point's truth; each truth left is a miss."""
    if (det.rows, det.cols) != (gt.rows, gt.cols):
        raise ShapeError(
            f"detections are {det.rows}x{det.cols} but ground truth is "
            f"{gt.rows}x{gt.cols}"
        )
    truths = gt.by_id
    per_channel: dict[KeyPointId, MatchCounts] = {}
    for d in det.detections:
        g = truths.pop(d.kp, None)
        if g is None:
            per_channel[d.kp] = _FALSE_ALARM
        elif math.hypot(d.u - g.u, d.v - g.v) <= params.tolerance_px:
            per_channel[d.kp] = _HIT
        else:
            per_channel[d.kp] = _MISPLACED
    per_channel.update(dict.fromkeys(truths, _MISS))
    total = sum(per_channel.values(), MatchCounts())
    return FrameMatch(gt.frame_id, total, per_channel)


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


def _matches(
    frames: Iterable[tuple[DetectionSet, FrameAnnotation]], params: EvalParams
) -> list[FrameMatch]:
    """Each pair's match, sorted by frame id; the one pass that every score
    comes from. Pairs must share their frame id, and no id may repeat."""
    seen_ids = set()
    matches = []
    for det, gt in frames:
        if det.frame_id != gt.frame_id:
            raise ValidationError(
                f"paired frame ids differ: {det.frame_id!r} vs {gt.frame_id!r}"
            )
        if gt.frame_id in seen_ids:
            raise ValidationError(f"duplicate frame id {gt.frame_id!r}")
        seen_ids.add(gt.frame_id)
        matches.append(match_frame(det, gt, params))
    matches.sort(key=lambda match: match.frame_id)
    return matches


def _mean_f1(matches: Sequence[FrameMatch]) -> float:
    return fmean(f1(m.counts) for m in matches) if matches else 0.0


def evaluate(
    frames: Iterable[tuple[DetectionSet, FrameAnnotation]], params: EvalParams
) -> EvalReport:
    """Score a collection of frames.

    mean_f1 averages the per-frame F1 values; per-class and per-key-point
    scores micro-aggregate raw counts across frames before computing the
    ratios.
    """
    matches = _matches(frames, params)
    per_id = {kp: MatchCounts() for kp in CHANNEL_IDS}
    for match in matches:
        for kp, counts in match.per_channel.items():
            per_id[kp] = per_id[kp] + counts
    per_class_counts = {cls: MatchCounts() for cls in CLASS_ORDER}
    for kp, counts in per_id.items():
        per_class_counts[kp.cls] = per_class_counts[kp.cls] + counts
    return EvalReport(
        per_frame=tuple(
            FrameScore(m.frame_id, precision(m.counts), recall(m.counts), f1(m.counts))
            for m in matches
        ),
        per_class={cls: _scope(c) for cls, c in per_class_counts.items()},
        per_keypoint={kp: _scope(c) for kp, c in per_id.items()},
        mean_f1=_mean_f1(matches),
    )


def _summarized(frame: HeatmapVolume | ChannelSummary) -> ChannelSummary:
    return frame if isinstance(frame, ChannelSummary) else summarize(frame)


def _gate_pairs(
    frames: Iterable[tuple[HeatmapVolume | ChannelSummary, FrameAnnotation]],
    params: DecodeParams,
) -> list[tuple[DetectionSet, FrameAnnotation]]:
    """Each frame gated under its annotation's frame id, paired with it."""
    return [
        (gate(_summarized(frame), params, ann.frame_id), ann) for frame, ann in frames
    ]


def beta_sweep(
    volumes_gt: Sequence[tuple[HeatmapVolume | ChannelSummary, FrameAnnotation]],
    betas: Sequence[float],
    tolerance_px: float = 5.0,
) -> list[tuple[float, float]]:
    """mean F1 as a function of the entropy gate strength.

    Each frame is summarized once and gated at every beta. The arguments
    are checked before the first frame is taken from ``volumes_gt``.
    """
    for beta in betas:
        if not 0.0 <= beta <= 1.0:
            raise ValidationError(f"beta grid value {beta} outside [0, 1]")
    eval_params = EvalParams(tolerance_px=tolerance_px)
    summaries = [(_summarized(frame), ann) for frame, ann in volumes_gt]
    curve = []
    for beta in betas:
        pairs = _gate_pairs(summaries, DecodeParams(beta))
        curve.append((float(beta), _mean_f1(_matches(pairs, eval_params))))
    return curve


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
    pairs = _gate_pairs(volumes_gt, DecodeParams(beta))
    return [
        (float(t), _mean_f1(_matches(pairs, EvalParams(tolerance_px=t))))
        for t in tolerances_px
    ]


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
