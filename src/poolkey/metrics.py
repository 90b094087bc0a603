"""Detection quality: tolerance matching, precision/recall/F1, and sweeps.

Matching is channel-wise because each frame carries at most one detection
and one ground-truth point per key-point identity. A detection further than
the tolerance from its ground truth is counted as both a false positive and
a false negative: the detector fired somewhere wrong and still missed the
real point.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
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
from .model import CHANNEL_IDS, CLASS_ORDER, KeyPointClass, KeyPointId


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
    beta: float = 0.9

    def __post_init__(self):
        if self.tolerance_px <= 0:
            raise ValidationError("tolerance_px must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class FrameMatch:
    frame_id: str
    counts: MatchCounts
    per_channel: dict[KeyPointId, MatchCounts]


def match_frame(
    det: DetectionSet, gt: FrameAnnotation, params: EvalParams
) -> FrameMatch:
    """Match one frame's detections against its ground truth, channel-wise."""
    if (det.rows, det.cols) != (gt.rows, gt.cols):
        raise ShapeError(
            f"detections are {det.rows}x{det.cols} but ground truth is "
            f"{gt.rows}x{gt.cols}"
        )
    detections = det.by_id
    truths = gt.by_id
    per_channel: dict[KeyPointId, MatchCounts] = {}
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
                # fired in the wrong place: false alarm plus a missed point
                counts = MatchCounts(fp=1, fn=1)
        elif d is not None:
            counts = MatchCounts(fp=1)
        else:
            counts = MatchCounts(fn=1)
        per_channel[kp] = counts
        total = total + counts
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


def evaluate(
    frames: Iterable[tuple[DetectionSet, FrameAnnotation]], params: EvalParams
) -> EvalReport:
    """Score a collection of frames.

    mean_f1 averages the per-frame F1 values; per-class and per-key-point
    scores micro-aggregate raw counts across frames before computing the
    ratios.
    """
    seen_ids = set()
    frame_scores = []
    per_id = {kp: MatchCounts() for kp in CHANNEL_IDS}
    for det, gt in frames:
        if det.frame_id != gt.frame_id:
            raise ValidationError(
                f"paired frame ids differ: {det.frame_id!r} vs {gt.frame_id!r}"
            )
        if gt.frame_id in seen_ids:
            raise ValidationError(f"duplicate frame id {gt.frame_id!r}")
        seen_ids.add(gt.frame_id)
        match = match_frame(det, gt, params)
        frame_scores.append(
            FrameScore(
                gt.frame_id,
                precision(match.counts),
                recall(match.counts),
                f1(match.counts),
            )
        )
        for kp, counts in match.per_channel.items():
            per_id[kp] = per_id[kp] + counts
    frame_scores.sort(key=lambda score: score.frame_id)
    per_class_counts = {cls: MatchCounts() for cls in CLASS_ORDER}
    for kp, counts in per_id.items():
        per_class_counts[kp.cls] = per_class_counts[kp.cls] + counts
    return EvalReport(
        per_frame=tuple(frame_scores),
        per_class={cls: _scope(c) for cls, c in per_class_counts.items()},
        per_keypoint={kp: _scope(c) for kp, c in per_id.items()},
        mean_f1=fmean(s.f1 for s in frame_scores) if frame_scores else 0.0,
    )


def check_beta_grid(betas: Sequence[float]) -> None:
    """Reject a beta grid value outside [0, 1]."""
    for beta in betas:
        if not 0.0 <= beta <= 1.0:
            raise ValidationError(f"beta grid value {beta} outside [0, 1]")


def check_tolerance_grid(tolerances_px: Sequence[float]) -> None:
    """Reject a tolerance grid value that is not positive."""
    for tolerance in tolerances_px:
        if tolerance <= 0:
            raise ValidationError(f"tolerance grid value {tolerance} must be positive")


def _summarized(frame: HeatmapVolume | ChannelSummary) -> ChannelSummary:
    return frame if isinstance(frame, ChannelSummary) else summarize(frame)


def beta_sweep(
    volumes_gt: Sequence[tuple[HeatmapVolume | ChannelSummary, FrameAnnotation]],
    betas: Sequence[float],
    tolerance_px: float = 5.0,
) -> list[tuple[float, float]]:
    """mean F1 as a function of the entropy gate strength.

    Each frame is summarized once and gated at every beta.
    """
    check_beta_grid(betas)
    summaries = [(_summarized(frame), ann) for frame, ann in volumes_gt]
    curve = []
    for beta in betas:
        params = DecodeParams(beta)
        pairs = [(gate(s, params, ann.frame_id), ann) for s, ann in summaries]
        report = evaluate(pairs, EvalParams(tolerance_px=tolerance_px, beta=beta))
        curve.append((float(beta), report.mean_f1))
    return curve


def tolerance_sweep(
    volumes_gt: Sequence[tuple[HeatmapVolume | ChannelSummary, FrameAnnotation]],
    beta: float,
    tolerances_px: Sequence[float],
) -> list[tuple[float, float]]:
    """mean F1 as a function of the match tolerance, at one gate strength.

    The gate strength is typically the best beta for the pool type being
    evaluated.
    """
    check_tolerance_grid(tolerances_px)
    params = DecodeParams(beta)
    pairs = [
        (gate(_summarized(frame), params, ann.frame_id), ann)
        for frame, ann in volumes_gt
    ]
    curve = []
    for tolerance in tolerances_px:
        report = evaluate(pairs, EvalParams(tolerance_px=tolerance, beta=beta))
        curve.append((float(tolerance), report.mean_f1))
    return curve


def _score_doc(score: ScopeScore) -> dict:
    return {
        "precision": score.precision,
        "recall": score.recall,
        "f1": score.f1,
        "total": score.total,
    }


def report_to_dict(report: EvalReport) -> dict:
    return {
        "mean_f1": report.mean_f1,
        "per_frame": [
            {
                "frame_id": s.frame_id,
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
            }
            for s in report.per_frame
        ],
        "per_class": {
            cls.value: _score_doc(report.per_class[cls]) for cls in CLASS_ORDER
        },
        "per_keypoint": {
            kp.label: _score_doc(report.per_keypoint[kp]) for kp in CHANNEL_IDS
        },
    }


def write_report_json(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def _cell(value: float | None) -> str:
    return "-" if value is None else repr(value)


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """One row per class and per key-point: class,index,precision,recall,f1,total."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class", "index", "precision", "recall", "f1", "total"])
        for cls in CLASS_ORDER:
            score = report.per_class[cls]
            writer.writerow(
                [
                    cls.value,
                    "",
                    _cell(score.precision),
                    _cell(score.recall),
                    _cell(score.f1),
                    score.total,
                ]
            )
        for kp in CHANNEL_IDS:
            score = report.per_keypoint[kp]
            writer.writerow(
                [
                    kp.cls.value,
                    kp.index,
                    _cell(score.precision),
                    _cell(score.recall),
                    _cell(score.f1),
                    score.total,
                ]
            )


def write_sweep_csv(curve: Sequence[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "mean_f1"])
        for x, value in curve:
            writer.writerow([repr(float(x)), repr(float(value))])
