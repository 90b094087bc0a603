"""The benchmark's workloads: how each makes its inputs, drives the CLI and
checks what the CLI wrote.

Every workload runs the user-facing ``poolkey`` subcommands in-process
through ``poolkey.cli.main``. A step is one unit of timed work (one or two
CLI calls); ``run_cli`` times the calls and returns their stdout, and the
checks after it are not timed. Steps cycle over ``period`` input items, so
each item's output can be compared with its first output.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from poolkey import cli
from poolkey.annotation_io import read_annotation, write_detections
from poolkey.errors import DegeneracyError, InsufficientConstraintsError
from poolkey.heatmap import Detection, DetectionSet, read_volume
from poolkey.homography import build_correspondences, estimate_dlt
from poolkey.model import CHANNEL_COUNT, LocationKind, read_model
from poolkey.synth import SynthParams, perfect_detections, project_scene, sample_camera


@dataclass(frozen=True)
class Size:
    rows: int
    cols: int
    eval_frames: int  # volumes per eval call
    sweep_frames: int  # volumes per sweep directory
    localize_frames: int  # distinct detection files, one localize call each
    synth_scenes: int  # scenes per synth call


SIZES = {
    "full": Size(rows=288, cols=512, eval_frames=4, sweep_frames=2,
                 localize_frames=100, synth_scenes=3),
    "smoke": Size(rows=72, cols=128, eval_frames=2, sweep_frames=1,
                  localize_frames=4, synth_scenes=1),
}

NOISE = ["--loc-sigma", "1.5", "--dropout", "0.1", "--fp-rate", "0.05"]
BETA_GRID = "0:1:0.05"
TOLERANCE_GRID = "1:10:0.5"
SCALE_PX_PER_M = 20.0
INLIER_THRESHOLD_PX = 3.0  # the localize default
CORNER_ERROR_BOUND_PX = 1e-6  # the bound of acceptance criteria 6 and 7
MAX_OUTLIER_SHARE = 0.3


class CheckFailed(Exception):
    """An output of the CLI is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Run:
    work: Path  # the run's input and output directory
    seed: int
    size: Size


def _sha256(*blobs: bytes) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def _tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    parts = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        parts += [path.relative_to(root).as_posix().encode(), path.read_bytes()]
    return _sha256(*parts)


def _cli(argv: list[str]) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"poolkey {argv[0]} exited {code} during set-up")


def _model(work: Path) -> Path:
    path = work / "model.json"
    _cli(["model", "--lanes", "8", "--length", "50", "--out", path])
    return path


def _noisy_dataset(run: Run, count: int) -> None:
    _cli(["synth", "--model", _model(run.work), "--count", count, "--view", "full",
          "--rows", run.size.rows, "--cols", run.size.cols, *NOISE, "--seed",
          run.seed, "--out", run.work / "data"])


class Workload:
    """One workload; its name and the reason it was chosen are in BENCHMARK.json."""

    name = ""

    def describe(self, size: Size) -> str:
        raise NotImplementedError

    def frames(self, size: Size) -> int:
        """Frames one step completes."""
        raise NotImplementedError

    def period(self, size: Size) -> int:
        """Distinct input items; a timed phase runs each at least once."""
        return 1

    def setup(self, run: Run) -> None:
        raise NotImplementedError

    def step(self, run: Run, item: int, run_cli) -> str:
        """Run the CLI on input item ``item`` and check what it wrote; return
        the sha256 of the outputs."""
        raise NotImplementedError


class EvalNoisy(Workload):
    name = "eval-noisy"

    def describe(self, size):
        return (f"{size.eval_frames} noisy full-view 8-lane 50 m volumes of "
                f"{CHANNEL_COUNT}x{size.rows}x{size.cols} per eval call, "
                "beta 0.9, tolerance 5 px")

    def frames(self, size):
        return size.eval_frames

    def setup(self, run):
        _noisy_dataset(run, run.size.eval_frames)

    def step(self, run, item, run_cli):
        work, size = run.work, run.size
        data, out = work / "data", work / "report.json"
        stdout = run_cli(["eval", "--pred-dir", data / "volumes", "--gt-dir",
                          data / "annotations", "--beta", "0.9", "--tolerance",
                          "5", "--out", out], None)
        blob = out.read_bytes()
        report = json.loads(blob)
        ids = [f"scene_{i:04d}" for i in range(size.eval_frames)]
        _check([f["frame_id"] for f in report["per_frame"]] == ids,
               "eval report does not list every frame once")
        _check(all(0.0 <= f["f1"] <= 1.0 for f in report["per_frame"]),
               "eval report has an F1 outside [0, 1]")
        _check(stdout == f"mean_f1 {report['mean_f1']!r}\n",
               f"eval printed {stdout!r}, not the report's mean F1")
        return _sha256(blob)


def _read_curve(path: Path) -> list[tuple[float, float]]:
    lines = path.read_text().splitlines()
    _check(lines[0] == "x,mean_f1", f"{path.name} has header {lines[0]!r}")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


class SweepBeta(Workload):
    name = "sweep-beta"

    def describe(self, size):
        return (f"{size.sweep_frames} noisy full-view 8-lane 50 m volumes of "
                f"{CHANNEL_COUNT}x{size.rows}x{size.cols}; sweep beta "
                f"{BETA_GRID} at 5 px, then tolerance {TOLERANCE_GRID} at beta 0.9")

    def frames(self, size):
        return size.sweep_frames

    def setup(self, run):
        _noisy_dataset(run, run.size.sweep_frames)

    def step(self, run, item, run_cli):
        work, size = run.work, run.size
        data = work / "data"
        pair = ["--pred-dir", data / "volumes", "--gt-dir", data / "annotations"]
        beta_csv, tolerance_csv = work / "beta.csv", work / "tolerance.csv"
        out_beta = run_cli(["sweep", "--mode", "beta", "--grid", BETA_GRID, *pair,
                            "--out", beta_csv], None)
        out_tolerance = run_cli(["sweep", "--mode", "tolerance", "--grid",
                                 TOLERANCE_GRID, *pair, "--out", tolerance_csv], None)
        _check(out_beta == f"wrote 21 sweep rows to {beta_csv}\n",
               f"beta sweep printed {out_beta!r}")
        _check(out_tolerance == f"wrote 19 sweep rows to {tolerance_csv}\n",
               f"tolerance sweep printed {out_tolerance!r}")
        betas, tolerances = _read_curve(beta_csv), _read_curve(tolerance_csv)
        _check([x for x, _ in betas] == [round(0.05 * i, 12) for i in range(21)],
               "beta sweep rows do not follow the grid")
        _check([x for x, _ in tolerances] == [1.0 + 0.5 * i for i in range(19)],
               "tolerance sweep rows do not follow the grid")
        _check(all(0.0 <= f <= 1.0 for _, f in betas + tolerances),
               "a sweep mean F1 lies outside [0, 1]")
        _check(betas[0][1] == 0.0, "beta 0 must reject every channel")
        f1s = [f for _, f in tolerances]
        _check(f1s == sorted(f1s), "mean F1 falls as the tolerance grows")
        # both sweeps hold the point beta 0.9, 5 px
        _check(betas[18][1] == tolerances[8][1],
               "the two sweeps disagree at beta 0.9, 5 px")
        return _sha256(beta_csv.read_bytes(), tolerance_csv.read_bytes())


def _camera_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _base_target(model, kp) -> tuple[LocationKind, float | None, float]:
    loc = model.entries[kp].location
    x = None if loc.x_m is None else loc.x_m * SCALE_PX_PER_M
    return loc.kind, x, loc.y_m * SCALE_PX_PER_M


def _residual(to_base: np.ndarray, model, kp, u: float, v: float) -> float:
    x, y, w = to_base @ (u, v, 1.0)
    if w == 0.0:
        return math.inf
    kind, bx, by = _base_target(model, kp)
    if kind is LocationKind.FIXED_POINT:
        return math.hypot(x / w - bx, y / w - by)
    return abs(y / w - by)


def _determines(model, camera, ann, detections, moved) -> bool:
    kept = [d for i, d in enumerate(detections) if i not in moved]
    corrs, _ = build_correspondences(
        DetectionSet(ann.frame_id, ann.rows, ann.cols, tuple(kept)), model, SCALE_PX_PER_M)
    try:
        estimate = estimate_dlt(corrs)
    except (DegeneracyError, InsufficientConstraintsError):
        return False
    return _corner_error(estimate.matrix, camera.inverse().matrix, ann.rows, ann.cols) \
        < CORNER_ERROR_BOUND_PX


def _corner_error(estimate: np.ndarray, truth: np.ndarray, rows: int, cols: int) -> float:
    """Largest distance between where two frame-to-base maps send the frame corners."""
    worst = 0.0
    for corner in ((0, 0), (cols - 1, 0), (cols - 1, rows - 1), (0, rows - 1)):
        p, q = estimate @ (*corner, 1.0), truth @ (*corner, 1.0)
        worst = max(worst, math.dist(p[:2] / p[2], q[:2] / q[2]))
    return worst


def _mixed_frame(model, seed: int, index: int, size: Size):
    """Exact detections from a seeded camera, with a seeded share moved to
    random cells far from where the camera puts them."""
    view = "full" if index % 2 == 0 else "partial"
    params = SynthParams(frame_rows=size.rows, frame_cols=size.cols, view=view,
                         seed=_camera_seed(seed, index))
    camera = sample_camera(model, params)
    frame_id = f"frame_{index:04d}"
    ann = project_scene(model, camera, size.rows, size.cols, SCALE_PX_PER_M, frame_id)
    detections = list(perfect_detections(ann).detections)
    to_base = camera.inverse().matrix
    rng = np.random.default_rng(np.random.SeedSequence([seed, index, 1]))
    share = rng.uniform(0.0, MAX_OUTLIER_SHARE)
    moved = [int(i) for i in rng.permutation(len(detections))[: int(share * len(detections))]]
    # the detections left in place must determine the camera on their own, as
    # synth requires of its scenes; otherwise no answer is right
    while moved and not _determines(model, camera, ann, detections, moved):
        moved.pop()
    for i in moved:
        d = detections[i]
        while True:
            u, v = float(rng.integers(size.cols)), float(rng.integers(size.rows))
            if _residual(to_base, model, d.kp, u, v) > 10 * INLIER_THRESHOLD_PX:
                break
        detections[i] = Detection(d.kp, u, v, 0.0)
    dets = DetectionSet(frame_id, size.rows, size.cols, tuple(detections))
    truth = {"h": camera.inverse().flat(), "inliers": len(detections) - len(moved),
             "view": view}
    return dets, truth


class LocalizeMixed(Workload):
    name = "localize-mixed"

    def describe(self, size):
        return (f"{size.localize_frames} detection files for {size.rows}x{size.cols} "
                "frames of an 8-lane 50 m pool, half full views (points), half "
                f"partial views (points and lane-rope lines), 0-"
                f"{MAX_OUTLIER_SHARE:.0%} outliers; one localize call each, "
                "1000 iterations, 3 px, seed 0")

    def frames(self, size):
        return 1

    def period(self, size):
        # 100 frames at full size, so that ten samples lie beyond p90
        return size.localize_frames

    def setup(self, run):
        work = run.work
        model = read_model(_model(work))
        for sub in ("detections", "truth"):
            (work / sub).mkdir()
        for index in range(run.size.localize_frames):
            dets, truth = _mixed_frame(model, run.seed, index, run.size)
            write_detections(dets, work / "detections" / f"{dets.frame_id}.json")
            (work / "truth" / f"{dets.frame_id}.json").write_text(json.dumps(truth))

    def step(self, run, item, run_cli):
        work, size = run.work, run.size
        frame_id = f"frame_{item:04d}"
        out = work / "localized.json"
        run_cli(["localize", "--detections", work / "detections" / f"{frame_id}.json",
                 "--model", work / "model.json", "--out", out], frame_id)
        blob = out.read_bytes()
        result = json.loads(blob)
        truth = json.loads((work / "truth" / f"{frame_id}.json").read_text())
        _check(result["frame_id"] == frame_id, f"{frame_id}: wrong frame id")
        _check(result["inliers"] == truth["inliers"],
               f"{frame_id}: {result['inliers']} inliers, expected {truth['inliers']}")
        _check((result["constraints"]["line"] > 0) == (truth["view"] == "partial"),
               f"{frame_id}: line constraints do not match the {truth['view']} view")
        worst = _corner_error(np.array(result["h"]).reshape(3, 3),
                              np.array(truth["h"]).reshape(3, 3), size.rows, size.cols)
        _check(worst < CORNER_ERROR_BOUND_PX,
               f"{frame_id}: corner error {worst:.3g} px")
        return _sha256(blob)


class SynthWrite(Workload):
    name = "synth-write"

    def __init__(self):
        self._read_back: set[str] = set()

    def describe(self, size):
        return (f"{size.synth_scenes} noisy partial-view scenes of an 8-lane 50 m "
                f"pool per synth call, {CHANNEL_COUNT}x{size.rows}x{size.cols} volumes")

    def frames(self, size):
        return size.synth_scenes

    def setup(self, run):
        _model(run.work)

    def step(self, run, item, run_cli):
        work, size = run.work, run.size
        out = work / "dataset"
        shutil.rmtree(out, ignore_errors=True)
        stdout = run_cli(["synth", "--model", work / "model.json", "--count",
                          size.synth_scenes, "--view", "partial", "--rows", size.rows,
                          "--cols", size.cols, *NOISE, "--seed", run.seed,
                          "--out", out], None)
        _check(stdout == f"wrote {size.synth_scenes} scenes to {out}\n",
               f"synth printed {stdout!r}")
        digest = _tree_digest(out)
        if digest not in self._read_back:  # identical bytes read back identically
            for index in range(size.synth_scenes):
                scene_id = f"scene_{index:04d}"
                volume = read_volume(out / "volumes" / f"{scene_id}.pkhv")
                _check(volume.data.shape == (CHANNEL_COUNT, size.rows, size.cols),
                       f"{scene_id}: volume reads back as {volume.data.shape}")
                ann = read_annotation(out / "annotations" / f"{scene_id}.json")
                _check((ann.frame_id, ann.rows, ann.cols) == (scene_id, size.rows, size.cols),
                       f"{scene_id}: annotation reads back with the wrong frame")
            self._read_back.add(digest)
        return digest


WORKLOADS = {w.name: w for w in (EvalNoisy(), SweepBeta(), LocalizeMixed(), SynthWrite())}
