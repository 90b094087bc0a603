"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 usage, 3 missing or unreadable file, 4 validation,
5 file format, 6 estimation failure, 7 scene sampling failure. Errors print a
single line "error: <category>: <message>" on stderr, and warnings a line
"warning: <message>".

POOL_THREADS, in ASCII digits, sets the worker threads of synth, eval and
sweep: unset means 1, and 0 or a value above the usable CPU count means that
count.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import re
import sys
from pathlib import Path

from .annotation_io import (
    read_annotation,
    read_cvat,
    read_detections,
    rescale_annotation,
    write_annotation,
    write_detections,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    FormatError,
    NoModelError,
    NumericError,
    ProjectiveError,
    SamplingError,
    ShapeError,
    ValidationError,
)
from .heatmap import (
    DecodeParams,
    cross_entropy_loss,
    gate,
    read_summary,
    read_volume,
)
from .homography import RansacParams, localize_frame, localize_result_to_dict
from .metrics import (
    EvalParams,
    beta_sweep,
    evaluate,
    report_to_dict,
    tolerance_sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .model import (
    _BULKHEAD_LANE_COUNTS,
    PoolConfig,
    _write_json,
    build_base_model,
    read_model,
    write_model,
)
from .synth import (
    CameraJitter,
    NoiseParams,
    SynthParams,
    generate_dataset,
    thread_map,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _workers() -> int:
    raw = os.environ.get("POOL_THREADS", "").strip()
    if not raw:
        return 1
    if not re.fullmatch(r"-?[0-9]+", raw):
        raise ValidationError(f"POOL_THREADS must be an integer, got {raw!r}")
    digits = raw.lstrip("-").lstrip("0")
    if raw.startswith("-") and digits:
        raise ValidationError("POOL_THREADS must be non-negative")
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    # more digits than the count is above it; int() refuses over 4,300 digits
    if not digits or len(digits) > len(str(usable)):
        return usable
    return min(int(digits), usable)


GRID_MAX_POINTS = 10_000  # the longest --grid a sweep accepts


def parse_grid(text: str) -> list[float]:
    """a:b:step, inclusive of b when step divides the range.

    A grid of more than GRID_MAX_POINTS points is a ValidationError.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must look like a:b:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"grid must hold numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"grid must hold finite numbers, got {text!r}")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    if stop < start:
        raise ValidationError("grid end must not precede its start")
    # counted in float arithmetic first: the span may overflow to infinity
    steps = (stop - start) / step + 1e-9
    if not steps < GRID_MAX_POINTS:
        raise ValidationError(f"grid must hold at most {GRID_MAX_POINTS} points")
    count = int(steps) + 1
    values = [round(start + i * step, 12) for i in range(count)]
    if values and abs(values[-1] - stop) < 1e-9:
        values[-1] = round(stop, 12)  # snap accumulated float error at the end
    return values


def _pair_files(pred_dir: str, gt_dir: str) -> list[tuple[Path, Path]]:
    pred_root, gt_root = Path(pred_dir), Path(gt_dir)
    for root in (pred_root, gt_root):
        if not root.is_dir():
            raise FileNotFoundError(f"no such directory: {root}")
    volumes = {p.stem: p for p in sorted(pred_root.glob("*.pkhv"))}
    annotations = {p.stem: p for p in sorted(gt_root.glob("*.json"))}
    if not volumes:
        raise ValidationError(f"no .pkhv volumes in {pred_root}")
    missing = sorted(set(volumes) - set(annotations))
    if missing:
        raise ValidationError(f"no annotation for volume stem(s): {', '.join(missing)}")
    extra = sorted(set(annotations) - set(volumes))
    if extra:
        raise ValidationError(f"no volume for annotation stem(s): {', '.join(extra)}")
    return [(volumes[stem], annotations[stem]) for stem in sorted(volumes)]


def _load_pairs(pred_dir: str, gt_dir: str):
    """(summary, annotation) per frame; a worker holds one volume at a time.

    Nothing is listed or read until the first pair is asked for, so a
    consumer can check its own arguments first.
    """

    def load(pair):
        volume_path, annotation_path = pair
        return read_summary(volume_path), read_annotation(annotation_path)

    workers = _workers()
    yield from thread_map(load, _pair_files(pred_dir, gt_dir), workers)


def _cmd_model(args) -> int:
    bulkhead = args.bulkhead
    if bulkhead is None:
        bulkhead = args.lanes in _BULKHEAD_LANE_COUNTS
    config = PoolConfig(
        lanes=args.lanes, length_m=args.length, bumpers=args.bumpers, bulkhead=bulkhead
    )
    write_model(build_base_model(config), args.out)
    return 0


def _cmd_synth(args) -> int:
    model = read_model(args.model)
    jitter = CameraJitter() if args.jitter else CameraJitter.none()
    params = SynthParams(
        frame_rows=args.rows,
        frame_cols=args.cols,
        view=args.view,
        jitter=jitter,
        noise=NoiseParams(
            loc_sigma_px=args.loc_sigma,
            dropout_rate=args.dropout,
            false_positive_rate=args.fp_rate,
        ),
        seed=args.seed,
    )
    manifest = generate_dataset(model, args.count, params, args.out, _workers())
    print(f"wrote {len(manifest['scenes'])} scenes to {args.out}")
    return 0


def _cmd_decode(args) -> int:
    params = DecodeParams(args.beta)
    detections = gate(read_summary(args.volume), params, Path(args.volume).stem)
    write_detections(detections, args.out)
    return 0


def _cmd_loss(args) -> int:
    pred = read_volume(args.pred)
    target = read_volume(args.target)
    print(repr(cross_entropy_loss(target, pred)))
    return 0


def _cmd_eval(args) -> int:
    decode_params = DecodeParams(args.beta)
    eval_params = EvalParams(tolerance_px=args.tolerance)
    frames = _load_pairs(args.pred_dir, args.gt_dir)
    report = evaluate(frames, eval_params, decode_params)
    if args.out is None:
        _write_json(report_to_dict(report))
    else:
        write_report_json(report, args.out)
        print(f"mean_f1 {report.mean_f1!r}")
    # --per-class and --per-keypoint name the same combined CSV
    for path in filter(None, (args.per_class, args.per_keypoint)):
        write_report_csv(report, path)
    return 0


def _cmd_sweep(args) -> int:
    # the sweeps check their arguments before they take the first frame
    grid = parse_grid(args.grid)
    frames = _load_pairs(args.pred_dir, args.gt_dir)
    if args.mode == "beta":
        curve = beta_sweep(frames, betas=grid, tolerance_px=args.tolerance)
    else:
        curve = tolerance_sweep(frames, beta=args.beta, tolerances_px=grid)
    write_sweep_csv(curve, args.out)
    print(f"wrote {len(curve)} sweep rows to {args.out}")
    return 0


def _cmd_localize(args) -> int:
    detections = read_detections(args.detections)
    model = read_model(args.model)
    result = localize_frame(
        detections,
        model,
        scale_px_per_m=args.scale,
        params=RansacParams(
            iterations=args.iters, inlier_threshold_px=args.threshold, seed=args.seed
        ),
    )
    _write_json(localize_result_to_dict(result, detections.frame_id), args.out)
    return 0


def _cmd_import_cvat(args) -> int:
    # every image is rescaled and named before anything is written
    by_stem = {}
    for ann in read_cvat(args.xml):
        if args.scale_factor != 1.0:
            ann = rescale_annotation(ann, args.scale_factor)
        stem = Path(ann.frame_id).stem
        if stem in by_stem:
            raise ValidationError(f"two images map to the same file stem {stem!r}")
        by_stem[stem] = ann
    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    for stem, ann in by_stem.items():
        write_annotation(ann, out_root / f"{stem}.json")
    print(f"wrote {len(by_stem)} annotations to {out_root}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="poolkey", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("model", help="write a base pool model as JSON")
    p.add_argument("--lanes", type=int, required=True, help="lane count label")
    p.add_argument("--length", type=int, required=True, help="course length, meters")
    p.add_argument(
        "--bumpers", action=argparse.BooleanOptionalAction, default=True,
        help="outer bumper lane-ropes present",
    )
    p.add_argument(
        "--bulkhead", action=argparse.BooleanOptionalAction, default=None,
        help="bulkhead present (default: implied by the lane count)",
    )
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("synth", help="generate a synthetic scene dataset")
    p.add_argument("--model", required=True, help="base model JSON")
    p.add_argument("--count", type=int, default=1, help="number of scenes")
    p.add_argument("--rows", type=int, default=288, help="volume rows")
    p.add_argument("--cols", type=int, default=512, help="volume columns")
    p.add_argument("--view", choices=("full", "partial"), default="full")
    p.add_argument("--loc-sigma", type=float, default=0.0, help="peak jitter, px")
    p.add_argument("--dropout", type=float, default=0.0, help="dropout probability")
    p.add_argument(
        "--fp-rate", type=float, default=0.0, help="spurious peak probability"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--jitter", action=argparse.BooleanOptionalAction, default=True,
        help="random camera perturbation",
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decode", help="volume to gated argmax detections")
    p.add_argument("--volume", required=True, help="input .pkhv volume")
    p.add_argument("--beta", type=float, default=0.9, help="entropy gate strength")
    p.add_argument("--out", help="detections JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("loss", help="cross-entropy between two volumes, nats")
    p.add_argument("--pred", required=True, help="predicted volume")
    p.add_argument("--target", required=True, help="target volume")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("eval", help="precision/recall/F1 over paired directories")
    p.add_argument("--pred-dir", required=True, help="directory of .pkhv volumes")
    p.add_argument("--gt-dir", required=True, help="directory of annotation JSON")
    p.add_argument("--tolerance", type=float, default=5.0, help="match radius, px")
    p.add_argument("--beta", type=float, default=0.9, help="entropy gate strength")
    p.add_argument("--per-class", help="CSV: every class, then every key-point row")
    p.add_argument("--per-keypoint", help="the same combined CSV as --per-class")
    p.add_argument("--out", help="report JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="mean-F1 curve over a parameter grid")
    p.add_argument("--mode", choices=("beta", "tolerance"), required=True)
    p.add_argument("--grid", required=True, help="a:b:step, both ends inclusive")
    p.add_argument("--pred-dir", required=True, help="directory of .pkhv volumes")
    p.add_argument("--gt-dir", required=True, help="directory of annotation JSON")
    p.add_argument(
        "--tolerance", type=float, default=5.0, help="match radius for beta mode"
    )
    p.add_argument(
        "--beta", type=float, default=0.9, help="gate strength for tolerance mode"
    )
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("localize", help="fit the frame-to-base homography")
    p.add_argument("--detections", required=True, help="detections JSON")
    p.add_argument("--model", required=True, help="base model JSON")
    p.add_argument("--scale", type=float, default=20.0, help="base px per meter")
    p.add_argument("--iters", type=int, default=1000, help="consensus iterations")
    p.add_argument("--threshold", type=float, default=3.0, help="inlier radius, px")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="result JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("import-cvat", help="convert CVAT XML to annotation JSON")
    p.add_argument("--xml", required=True, help="CVAT 'for images' export")
    p.add_argument(
        "--scale-factor", type=float, default=1.0, help="divide coordinates by this"
    )
    p.add_argument("--out-dir", required=True, help="annotation output directory")
    p.set_defaults(func=_cmd_import_cvat)
    return parser


_FAILURES: tuple[tuple[type | tuple[type, ...], int, str], ...] = (
    ((FileNotFoundError, NotADirectoryError, IsADirectoryError), 3, "missing-file"),
    (OSError, 3, "io"),
    (FormatError, 5, "format"),
    ((ConfigError, ValidationError, ShapeError), 4, "validation"),
    (SamplingError, 7, "sampling"),
    ((DegeneracyError, NoModelError, ProjectiveError, NumericError), 6, "estimation"),
)


class _StderrLines(logging.Handler):
    def emit(self, record):
        message = record.getMessage().replace("\n", " ")
        print(f"{record.levelname.lower()}: {message}", file=sys.stderr)


def _configure_logging() -> None:
    logger = logging.getLogger("poolkey")
    if not any(isinstance(h, _StderrLines) for h in logger.handlers):
        logger.addHandler(_StderrLines(logging.WARNING))


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first call of the process, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        for kind, code, category in _FAILURES:
            if isinstance(exc, kind):
                message = str(exc).replace("\n", " ")
                print(f"error: {category}: {message}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
