"""Command-line behavior: exit codes, file plumbing, output shapes."""

import json
import shutil
import tracemalloc

import numpy as np
import pytest

from poolkey import (
    FrameAnnotation,
    PoolConfig,
    SynthParams,
    build_base_model,
    make_scene,
    read_annotation,
    read_detections,
    read_model,
    write_annotation,
    write_model,
    write_volume,
)
from poolkey.cli import main, parse_grid
from poolkey.heatmap import make_target_volume
from poolkey.synth import CameraJitter


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A model file and a small noise-free synthetic dataset."""
    root = tmp_path_factory.mktemp("cli")
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    model_path = root / "model.json"
    write_model(model, model_path)
    assert (
        main(
            [
                "synth",
                "--model",
                str(model_path),
                "--count",
                "2",
                "--rows",
                "72",
                "--cols",
                "128",
                "--seed",
                "3",
                "--out",
                str(root / "data"),
            ]
        )
        == 0
    )
    return root


def test_model_stdout(capsys):
    assert main(["model", "--lanes", "10", "--length", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 96
    assert doc["config"]["lanes"] == 10


def test_model_to_file(tmp_path):
    path = tmp_path / "m.json"
    assert main(["model", "--lanes", "12", "--length", "25", "--out", str(path)]) == 0
    model = read_model(path)
    assert model.config.bulkhead  # implied by the lane count
    assert model.config.effective_lanes == 6


def test_model_rejects_bad_lane_counts(capsys):
    assert main(["model", "--lanes", "7", "--length", "50"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert main(["model", "--lanes", "10"]) == 2  # missing --length
    assert main(["--bogus"]) == 2
    assert main([]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith("error: usage:")


def test_decode_missing_volume(capsys):
    assert main(["decode", "--volume", "/nonexistent/v.pkhv"]) == 3
    assert capsys.readouterr().err.startswith("error: missing-file:")


def test_decode_stdout_uses_the_file_stem(workspace, capsys):
    volume = workspace / "data" / "volumes" / "scene_0001.pkhv"
    assert main(["decode", "--volume", str(volume), "--beta", "0.9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frame_id"] == "scene_0001"
    assert doc["points"]
    annotated = read_annotation(
        workspace / "data" / "annotations" / "scene_0001.json"
    )
    assert len(doc["points"]) == len(annotated.points)


def test_loss_of_a_volume_against_itself(workspace, tmp_path, capsys):
    import math

    ann = read_annotation(workspace / "data" / "annotations" / "scene_0000.json")
    target = make_target_volume(ann, ann.rows, ann.cols)
    path = tmp_path / "t.pkhv"
    write_volume(target, path)
    assert main(["loss", "--pred", str(path), "--target", str(path)]) == 0
    printed = float(capsys.readouterr().out.strip())
    # delta channels cost nothing against themselves; each flat channel
    # contributes its own entropy, ln(rows*cols); the file's 32-bit floats
    # shift the total by a few millionths
    flat_channels = 96 - len(ann.points)
    assert printed == pytest.approx(flat_channels * math.log(72 * 128), abs=1e-4)


def test_synth_runs_are_byte_identical(workspace, tmp_path, capsys):
    args = [
        "synth",
        "--model",
        str(workspace / "model.json"),
        "--count",
        "2",
        "--rows",
        "72",
        "--cols",
        "128",
        "--seed",
        "3",
        "--out",
        str(tmp_path / "again"),
    ]
    assert main(args) == 0
    assert "wrote 2 scenes" in capsys.readouterr().out
    for rel in (tmp_path / "again").rglob("*"):
        if rel.is_file():
            twin = workspace / "data" / rel.relative_to(tmp_path / "again")
            assert rel.read_bytes() == twin.read_bytes()


def test_eval_stdout_reports_perfect_f1(workspace, capsys):
    assert (
        main(
            [
                "eval",
                "--pred-dir",
                str(workspace / "data" / "volumes"),
                "--gt-dir",
                str(workspace / "data" / "annotations"),
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["mean_f1"] == 1.0
    assert len(report["per_frame"]) == 2
    assert {s["f1"] for s in report["per_frame"]} == {1.0}


def test_eval_writes_report_files(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "per_class.csv"
    assert (
        main(
            [
                "eval",
                "--pred-dir",
                str(workspace / "data" / "volumes"),
                "--gt-dir",
                str(workspace / "data" / "annotations"),
                "--out",
                str(out),
                "--per-class",
                str(csv_path),
            ]
        )
        == 0
    )
    assert "mean_f1 1.0" in capsys.readouterr().out
    assert json.loads(out.read_text())["mean_f1"] == 1.0
    header = csv_path.read_text().splitlines()[0]
    assert header == "class,index,precision,recall,f1,total"


def test_eval_rejects_unpaired_directories(workspace, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        [
            "eval",
            "--pred-dir",
            str(empty),
            "--gt-dir",
            str(workspace / "data" / "annotations"),
        ]
    )
    assert code == 4
    assert "no .pkhv volumes" in capsys.readouterr().err
    code = main(
        [
            "eval",
            "--pred-dir",
            str(workspace / "data" / "volumes"),
            "--gt-dir",
            str(empty),
        ]
    )
    assert code == 4
    assert main(["eval", "--pred-dir", "/nope", "--gt-dir", str(empty)]) == 3


def test_sweep_beta_grid(workspace, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert (
        main(
            [
                "sweep",
                "--mode",
                "beta",
                "--grid",
                "0:1:0.05",
                "--pred-dir",
                str(workspace / "data" / "volumes"),
                "--gt-dir",
                str(workspace / "data" / "annotations"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert "wrote 21 sweep rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "x,mean_f1"
    assert len(lines) == 22
    assert lines[1] == "0.0,0.0"  # beta 0 rejects everything
    assert lines[-1].split(",") == ["1.0", "1.0"]


def test_sweep_rejects_bad_grids(workspace, tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--mode",
            "beta",
            "--grid",
            "0:1",
            "--pred-dir",
            str(workspace / "data" / "volumes"),
            "--gt-dir",
            str(workspace / "data" / "annotations"),
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 4
    assert "a:b:step" in capsys.readouterr().err


def test_localize_round_trip(workspace, tmp_path, capsys):
    det_path = tmp_path / "det.json"
    volume = workspace / "data" / "volumes" / "scene_0000.pkhv"
    assert main(["decode", "--volume", str(volume), "--out", str(det_path)]) == 0
    assert (
        main(
            [
                "localize",
                "--detections",
                str(det_path),
                "--model",
                str(workspace / "model.json"),
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["frame_id"] == "scene_0000"
    assert len(doc["h"]) == 9
    assert doc["constraints"]["point"] >= 4
    # cell rounding at 72x128 shifts peaks by up to ~0.7 px per axis
    assert doc["mean_residual_px"] < 3.0


def test_localize_underconstrained_detections(workspace, tmp_path, capsys):
    doc = {
        "frame_id": "f",
        "rows": 72,
        "cols": 128,
        "points": [
            {"class": "wall_left", "index": 0, "u": 1.0, "v": 1.0, "entropy": 0.0},
            {"class": "wall_left", "index": 2, "u": 1.0, "v": 9.0, "entropy": 0.0},
        ],
    }
    det_path = tmp_path / "thin.json"
    det_path.write_text(json.dumps(doc))
    code = main(
        [
            "localize",
            "--detections",
            str(det_path),
            "--model",
            str(workspace / "model.json"),
        ]
    )
    assert code == 6
    assert capsys.readouterr().err.startswith("error: estimation:")


CVAT_DOC = """\
<annotations>
  <version>1.1</version>
  <image id="0" name="a.png" width="1920" height="1080">
    <points label="wall_left_0" points="12.5,800.0" occluded="0"/>
  </image>
  <image id="1" name="b.png" width="1920" height="1080"/>
</annotations>
"""


def test_import_cvat_writes_one_json_per_image(tmp_path, capsys):
    xml = tmp_path / "task.xml"
    xml.write_text(CVAT_DOC)
    out_dir = tmp_path / "out"
    assert main(["import-cvat", "--xml", str(xml), "--out-dir", str(out_dir)]) == 0
    assert "wrote 2 annotations" in capsys.readouterr().out
    ann = read_annotation(out_dir / "a.json")
    assert (ann.rows, ann.cols) == (1080, 1920)
    assert ann.points[0].u == 12.5
    assert read_annotation(out_dir / "b.json").points == ()


def test_import_cvat_applies_the_scale_factor(tmp_path):
    xml = tmp_path / "task.xml"
    xml.write_text(CVAT_DOC)
    out_dir = tmp_path / "scaled"
    assert (
        main(
            [
                "import-cvat",
                "--xml",
                str(xml),
                "--scale-factor",
                "3.75",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    ann = read_annotation(out_dir / "a.json")
    assert (ann.rows, ann.cols) == (288, 512)
    assert ann.points[0].u == pytest.approx(12.5 / 3.75)


def test_import_cvat_bad_xml(tmp_path, capsys):
    xml = tmp_path / "task.xml"
    xml.write_text("<annotations><image>")
    code = main(["import-cvat", "--xml", str(xml), "--out-dir", str(tmp_path / "o")])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: format:")


def test_import_cvat_duplicate_stems(tmp_path, capsys):
    doc = CVAT_DOC.replace('name="b.png"', 'name="a.jpg"')
    xml = tmp_path / "task.xml"
    xml.write_text(doc)
    code = main(["import-cvat", "--xml", str(xml), "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "same file stem" in capsys.readouterr().err


def test_pool_threads_env(workspace, capsys, monkeypatch):
    args = [
        "eval",
        "--pred-dir",
        str(workspace / "data" / "volumes"),
        "--gt-dir",
        str(workspace / "data" / "annotations"),
    ]
    monkeypatch.setenv("POOL_THREADS", "abc")
    assert main(args) == 4
    assert "POOL_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("POOL_THREADS", "0")  # auto-detect
    assert main(args) == 0
    monkeypatch.setenv("POOL_THREADS", "3")
    assert main(args) == 0
    capsys.readouterr()


def test_parse_grid():
    grid = parse_grid("0:1:0.05")
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert parse_grid("1:10:3") == [1.0, 4.0, 7.0, 10.0]
    # the end is NOT reached when the step overshoots it
    assert parse_grid("0.1:0.25:0.1") == [0.1, 0.2]
    assert parse_grid("5:5:1") == [5.0]


def test_parse_grid_errors():
    from poolkey import ValidationError

    for bad in ("0:1", "0:1:0", "1:0:0.5", "a:b:c"):
        with pytest.raises(ValidationError):
            parse_grid(bad)


def _nan_volume(path, channel=3, cell=5) -> int:
    """A 96x4x4 volume file with one NaN; returns the NaN's byte offset."""
    data = np.full((96, 4, 4), 1.0 / 16, dtype="<f4")
    data[channel].flat[cell] = np.nan
    header = b"".join(v.to_bytes(4, "little") for v in (1, 4, 4, 96))
    path.write_bytes(b"PKHV" + header + data.tobytes())
    return 20 + 4 * (channel * 16 + cell)


def test_non_finite_volume_is_a_format_error(tmp_path, capsys):
    volumes, annotations = tmp_path / "v", tmp_path / "a"
    volumes.mkdir()
    annotations.mkdir()
    offset = _nan_volume(volumes / "f.pkhv")
    write_annotation(FrameAnnotation("f", 4, 4), annotations / "f.json")
    for argv in (
        ["decode", "--volume", str(volumes / "f.pkhv")],
        ["eval", "--pred-dir", str(volumes), "--gt-dir", str(annotations)],
    ):
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err == (
            f"error: format: non-finite value in payload (byte offset {offset})\n"
        )


def test_arguments_are_checked_before_volumes_are_read(workspace, tmp_path, capsys):
    volumes, annotations = tmp_path / "v", tmp_path / "a"
    shutil.copytree(workspace / "data" / "volumes", volumes)
    shutil.copytree(workspace / "data" / "annotations", annotations)
    (volumes / "corrupt.pkhv").write_bytes(b"NOPE" + bytes(16))
    shutil.copy(annotations / "scene_0000.json", annotations / "corrupt.json")
    dirs = ["--pred-dir", str(volumes), "--gt-dir", str(annotations)]
    sweep = ["sweep", *dirs, "--out", str(tmp_path / "curve.csv"), "--mode"]
    rejected = [
        ("a:b:step", [*sweep, "beta", "--grid", "0:1"]),
        ("beta grid value 2.0", [*sweep, "beta", "--grid", "0:2:1"]),
        ("tolerance grid value 0.0", [*sweep, "tolerance", "--grid", "0:2:1"]),
        ("tolerance_px", [*sweep, "beta", "--grid", "0:1:0.5", "--tolerance", "0"]),
        ("beta must lie", [*sweep, "tolerance", "--grid", "1:2:1", "--beta", "2"]),
        ("beta must lie", ["eval", "--beta", "2", *dirs]),
        ("tolerance_px", ["eval", "--tolerance", "-1", *dirs]),
    ]
    for message, argv in rejected:
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and message in err, err
    # with valid arguments the corrupt volume is read, and fails as a format error
    for argv in (["eval", *dirs], [*sweep, "beta", "--grid", "0:1:0.5"]):
        assert main(argv) == 5
        assert "bad magic" in capsys.readouterr().err


def test_eval_memory_does_not_grow_with_the_frame_count(
    workspace, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("POOL_THREADS", "1")
    model = str(workspace / "model.json")
    many = tmp_path / "many"
    synth = ["synth", "--model", model, "--count", "6", "--rows", "72"]
    assert main([*synth, "--cols", "128", "--seed", "5", "--out", str(many)]) == 0
    one = tmp_path / "one"
    for sub, suffix in (("volumes", ".pkhv"), ("annotations", ".json")):
        (one / sub).mkdir(parents=True)
        shutil.copy(many / sub / f"scene_0000{suffix}", one / sub)

    def peak(root):
        argv = ["eval", "--pred-dir", str(root / "volumes"), "--gt-dir",
                str(root / "annotations"), "--out", str(tmp_path / "r.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(one)  # first call: lazy imports and caches stay out of the comparison
    single, six = peak(one), peak(many)
    capsys.readouterr()
    assert six <= 1.5 * single, (single, six)
    assert single < 96 * 72 * 128 * 8  # never a whole volume as float64
