"""Command-line behavior: exit codes, file plumbing, output shapes."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from poolkey import (
    AnnotationPoint,
    FrameAnnotation,
    HeatmapVolume,
    PoolConfig,
    SynthParams,
    build_base_model,
    keypoint_for_channel,
    make_scene,
    read_annotation,
    read_detections,
    read_model,
    write_annotation,
    write_model,
    write_volume,
)
from poolkey import cli, synth
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


def _config_with(doc: dict, **fields) -> str:
    return json.dumps({**doc, "config": {**doc["config"], **fields}})


def _entry_with(doc: dict, **fields) -> str:
    """The document with fields replaced in its first existing entry."""
    entries = list(doc["entries"])
    first = next(i for i, entry in enumerate(entries) if entry["exists"])
    entries[first] = {**entries[first], **fields}
    return json.dumps({**doc, "entries": entries})


def _as_1e400(text: str) -> str:
    """json.dumps cannot write 1e400, so the float 1.5e300 stands in for it."""
    return text.replace("1.5e+300", "1e400")


@pytest.mark.parametrize(
    "edit, code, expected",
    [
        (lambda doc: "{not json", 5, "error: format: "),
        (lambda doc: "[1, 2]", 4, "top level must be an object"),
        (lambda doc: json.dumps({**doc, "entries": 5}), 4, '"entries"'),
        (lambda doc: _config_with(doc, lanes="8"), 4, '"lanes" has the wrong type'),
        (lambda doc: _config_with(doc, length_m=50.0), 4, '"length_m"'),
        (lambda doc: _config_with(doc, lane_width_m="2.5"), 4, '"lane_width_m"'),
        (lambda doc: _entry_with(doc, y_m="1.0"), 4, 'field "y_m" has the wrong type'),
        (lambda doc: _entry_with(doc, exists="false"), 4, '"exists" has the wrong'),
        (lambda doc: _config_with(doc, bumpers="no"), 4, '"bumpers" has the wrong'),
        (lambda doc: _config_with(doc, bulkhead=0), 4, '"bulkhead" has the wrong type'),
        (lambda doc: _config_with(doc, lane_width_m=math.nan), 5, "NaN"),
        (lambda doc: _entry_with(doc, y_m=-math.inf), 5, "-Infinity"),
        (lambda doc: _entry_with(doc, index="3"), 4, '"index" has the wrong type'),
        (lambda doc: _entry_with(doc, x_m=10**400), 5, "not a finite float"),
        (lambda doc: _as_1e400(_entry_with(doc, x_m=1.5e300)), 5, "1e400 is not"),
        (lambda doc: _as_1e400(_config_with(doc, lane_width_m=1.5e300)), 5, "1e400"),
    ],
    ids=[
        "not-json",
        "not-an-object",
        "entries-int",
        "lanes-str",
        "length-float",
        "width-str",
        "coordinate-str",
        "exists-str",
        "bumpers-str",
        "bulkhead-int",
        "width-nan",
        "coordinate-infinity",
        "index-str",
        "coordinate-int-beyond-float",
        "coordinate-1e400",
        "width-1e400",
    ],
)
def test_malformed_model_file_is_one_error_line(
    workspace, tmp_path, capsys, edit, code, expected
):
    bad = tmp_path / "bad_model.json"
    bad.write_text(edit(json.loads((workspace / "model.json").read_text())))
    assert main(["synth", "--model", str(bad), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert expected in err
    if code == 5:
        assert "bad_model.json" in err


@pytest.mark.parametrize(
    "field, literal",
    [("u", "1" * 400), ("v", "1e400"), ("v", "-" + "7" * 400)],
    ids=["u-int", "v-1e400", "v-negative-int"],
)
def test_detection_number_beyond_float_range_is_a_format_error(
    workspace, tmp_path, capsys, field, literal
):
    point = {"class": "wall_left", "index": 0, "u": 1.0, "v": 1.0, "entropy": 0.0}
    doc = {"frame_id": "f", "rows": 72, "cols": 128, "points": [point]}
    det_path = tmp_path / "big.json"
    text = json.dumps(doc).replace(f'"{field}": 1.0', f'"{field}": {literal}')
    det_path.write_text(text)
    model = str(workspace / "model.json")
    assert main(["localize", "--detections", str(det_path), "--model", model]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: format: ") and "big.json" in err, err
    assert "is not a finite float" in err, err
    # the number is quoted in part, so the line stays readable
    assert len(err) < len(str(det_path)) + 100, err


def test_help_states_exit_3_as_missing_or_unreadable_file(capsys):
    assert main(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "3 missing or unreadable file, 4 validation" in help_text


def test_usage_errors_exit_2(capsys):
    assert main(["model", "--lanes", "10"]) == 2  # missing --length
    assert main(["--bogus"]) == 2
    assert main([]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith("error: usage:")


def test_decode_missing_volume(capsys):
    assert main(["decode", "--volume", "/nonexistent/v.pkhv"]) == 3
    assert capsys.readouterr().err.startswith("error: missing-file:")


def test_decode_warns_on_one_line_then_fails(tmp_path, capsys):
    path = tmp_path / "c3.pkhv"
    write_volume(HeatmapVolume(np.full((3, 2, 2), 0.25)), path)
    for _ in range(2):  # a second in-process run adds no second handler
        assert main(["decode", "--volume", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"warning: volume {path} carries 3 channels; decoding requires 96\n"
            "error: validation: decoding requires 96 channels, volume has 3\n"
        )


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


@pytest.mark.parametrize("factor", ["1e-320", "inf", "nan"])
def test_import_cvat_bad_scale_factor(tmp_path, capsys, factor):
    xml = tmp_path / "task.xml"
    xml.write_text(CVAT_DOC)
    out_dir = tmp_path / "o"
    argv = ["import-cvat", "--xml", str(xml), "--scale-factor", factor]
    assert main([*argv, "--out-dir", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and "scale factor" in err
    assert not out_dir.exists()


def test_import_cvat_duplicate_stems(tmp_path, capsys):
    doc = CVAT_DOC.replace('name="b.png"', 'name="a.jpg"')
    xml = tmp_path / "task.xml"
    xml.write_text(doc)
    code = main(["import-cvat", "--xml", str(xml), "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "same file stem" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.replace('name="b.png"', 'name="a.jpg"'),
        lambda doc: doc.replace('height="1080"/>', 'height="7_2"/>'),
    ],
    ids=["duplicate-stem", "bad-second-size"],
)
@pytest.mark.parametrize("factor", ["1", "3.75"])
def test_import_cvat_writes_nothing_when_an_image_fails(tmp_path, capsys, edit, factor):
    xml = tmp_path / "task.xml"
    xml.write_text(edit(CVAT_DOC))
    out_dir = tmp_path / "o"
    argv = ["import-cvat", "--xml", str(xml), "--scale-factor", factor]
    assert main([*argv, "--out-dir", str(out_dir)]) == 4
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not out_dir.exists()  # not even the first image's annotation


@pytest.mark.parametrize(
    "label", ["wall_left_\u00b2", "wall_left_\u0663"],
    ids=["superscript-two", "arabic-indic-three"],
)
def test_import_cvat_rejects_non_ascii_digit_labels(tmp_path, capsys, label):
    xml = tmp_path / "task.xml"
    xml.write_text(CVAT_DOC.replace("wall_left_0", label), encoding="utf-8")
    out_dir = tmp_path / "o"
    code = main(["import-cvat", "--xml", str(xml), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error: validation: unknown key-point label")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "no-limit"])
@pytest.mark.parametrize(
    "edit, quoted",
    [
        (lambda doc: doc.replace("wall_left_0", "wall_left_" + "1" * 5000),
         "in label 'wall_left_1111111111... (5000 digits)'"),
        (lambda doc: doc.replace('width="1920"', f'width="{"1" * 5000}"', 1),
         "width '11111111111111111111... (5000 digits)'"),
    ],
    ids=["label", "width"],
)
def test_a_cvat_number_of_5000_digits_is_one_short_line(
    tmp_path, capsys, edit, quoted, limit
):
    # a number is first read as a float, so no int-string limit is reached
    if limit is not None and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string limit")
    xml = tmp_path / "task.xml"
    xml.write_text(edit(CVAT_DOC))
    out_dir = tmp_path / "o"
    argv = ["import-cvat", "--xml", str(xml), "--out-dir", str(out_dir)]
    before = sys.get_int_max_str_digits() if limit is not None else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        code = main(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(before)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: validation: ") and quoted in err, err
    assert err.count("\n") == 1 and len(err) < 200, err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("text", ["nan:1:0.1", "0:inf:1", "0:1:inf", "-inf:0:1"])
def test_parse_grid_rejects_non_finite_parts(text):
    from poolkey import ValidationError

    with pytest.raises(ValidationError, match="finite"):
        parse_grid(text)


def test_parse_grid_errors():
    from poolkey import ValidationError

    for bad in ("0:1", "0:1:0", "1:0:0.5", "a:b:c"):
        with pytest.raises(ValidationError):
            parse_grid(bad)


@pytest.mark.parametrize(
    "text", ["0:1e308:1e-300", "0:1:1e-300", "-1e308:1e308:1", "0:10000:1"]
)
def test_parse_grid_rejects_grids_longer_than_the_limit(text):
    from poolkey import ValidationError
    from poolkey.cli import GRID_MAX_POINTS

    with pytest.raises(ValidationError, match=f"at most {GRID_MAX_POINTS} points"):
        parse_grid(text)


def test_parse_grid_builds_a_grid_at_the_limit():
    from poolkey.cli import GRID_MAX_POINTS

    grid = parse_grid(f"0:{GRID_MAX_POINTS - 1}:1")
    assert grid == [float(i) for i in range(GRID_MAX_POINTS)]


@pytest.mark.parametrize("grid", ["0:1e308:1e-300", "0:1:1e-300"])
def test_sweep_with_an_overlong_grid_is_one_error_line(
    workspace, tmp_path, capsys, grid
):
    data = workspace / "data"
    argv = ["sweep", "--mode", "beta", "--grid", grid, "--out", str(tmp_path / "x.csv"),
            "--pred-dir", str(data / "volumes"), "--gt-dir", str(data / "annotations")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == "error: validation: grid must hold at most 10000 points\n"
    assert not (tmp_path / "x.csv").exists()


def _nan_volume(path, channel=3, cell=5) -> int:
    """A 96x4x4 volume file with one NaN; returns the NaN's byte offset."""
    data = np.full((96, 4, 4), 1.0 / 16, dtype="<f4")
    data[channel].flat[cell] = np.nan
    header = b"".join(v.to_bytes(4, "little") for v in (1, 4, 4, 96))
    path.write_bytes(b"PKHV" + header + data.tobytes())
    return 20 + 4 * (channel * 16 + cell)


def test_bad_channel_sum_prints_a_plain_float(tmp_path, capsys):
    data = np.full((96, 3, 4), 1.0 / 12, dtype="<f4")
    data[7] *= 2
    header = b"".join(v.to_bytes(4, "little") for v in (1, 3, 4, 96))
    path = tmp_path / "doubled.pkhv"
    path.write_bytes(b"PKHV" + header + data.tobytes())
    assert main(["decode", "--volume", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: validation: channel 7 sums to 2.0000000596046448, "
        "expected 1 within 1e-06\n"
    )


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


def test_nan_arguments_are_rejected_before_volumes_are_read(
    workspace, tmp_path, capsys
):
    volumes = tmp_path / "v"
    shutil.copytree(workspace / "data" / "volumes", volumes)
    (volumes / "scene_0000.pkhv").write_bytes(b"NOPE" + bytes(16))
    annotations = workspace / "data" / "annotations"
    dirs = ["--pred-dir", str(volumes), "--gt-dir", str(annotations)]
    sweep = ["sweep", *dirs, "--out", str(tmp_path / "curve.csv"), "--mode"]
    for argv in (
        ["eval", "--tolerance", "nan", *dirs],
        [*sweep, "beta", "--grid", "0:1:0.5", "--tolerance", "nan"],
    ):
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and "tolerance_px" in err, err


@pytest.mark.parametrize(
    "command, option, message",
    [
        ("localize", ["--scale", "nan"], "scale_px_per_m"),
        ("localize", ["--scale", "inf"], "scale_px_per_m"),
        ("localize", ["--threshold", "nan"], "inlier_threshold_px"),
        ("synth", ["--loc-sigma", "nan"], "loc_sigma_px"),
        ("synth", ["--loc-sigma", "inf"], "loc_sigma_px"),
    ],
)
def test_non_finite_arguments_are_one_error_line(
    workspace, tmp_path, capsys, command, option, message
):
    model = str(workspace / "model.json")
    if command == "localize":
        det_path = tmp_path / "det.json"
        volume = workspace / "data" / "volumes" / "scene_0000.pkhv"
        assert main(["decode", "--volume", str(volume), "--out", str(det_path)]) == 0
        argv = ["localize", "--detections", str(det_path), "--model", model]
    else:
        argv = ["synth", "--model", model, "--out", str(tmp_path / "out")]
    assert main([*argv, *option]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: validation:") and message in err, err


def test_synth_with_a_huge_loc_sigma_puts_peaks_on_edge_cells(
    workspace, tmp_path, capsys
):
    # the jitter overflows to infinity, which nearest_cell clamps to the edge
    argv = ["synth", "--model", str(workspace / "model.json"), "--rows", "72",
            "--cols", "128", "--loc-sigma", "1e308", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    volume = tmp_path / "out" / "volumes" / "scene_0000.pkhv"
    det_path = tmp_path / "d.json"
    assert main(["decode", "--volume", str(volume), "--out", str(det_path)]) == 0
    detections = json.loads(det_path.read_text())["points"]
    assert detections
    for point in detections:
        assert point["u"] in (0.0, 127.0) and point["v"] in (0.0, 71.0), point


def test_unreadable_file_is_one_error_line(workspace, capsys, monkeypatch):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # the tests run as root, which file modes do not stop, so the read is patched
    monkeypatch.setattr(pathlib.Path, "read_text", refuse)
    model = str(workspace / "model.json")
    assert main(["localize", "--detections", model, "--model", model]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: io: ") and "Permission denied" in err, err


@pytest.mark.parametrize(
    "command, bad",
    [("synth", "model"), ("localize", "model"), ("localize", "detections"),
     ("eval", "annotation"), ("import-cvat", "cvat")],
)
def test_a_file_that_is_not_utf8_is_one_format_error_line(
    workspace, tmp_path, capsys, command, bad
):
    data = workspace / "data"
    paths = {
        "model": str(workspace / "model.json"),
        "detections": str(tmp_path / "det.json"),
        "annotation": str(data / "annotations"),
        "cvat": str(tmp_path / "task.xml"),
    }
    volume = str(data / "volumes" / "scene_0000.pkhv")
    assert main(["decode", "--volume", volume, "--out", paths["detections"]]) == 0
    if bad == "annotation":
        paths["annotation"] = str(tmp_path / "annotations")
        shutil.copytree(data / "annotations", paths["annotation"])
        path = tmp_path / "annotations" / "scene_0000.json"
    else:
        path = tmp_path / f"bad_{bad}"
        paths[bad] = str(path)
    # a byte that starts no UTF-8 sequence
    path.write_bytes(b"<annotations>\xff</annotations>" if bad == "cvat" else
                     b'{"frame_id": "\xff"}')
    out = tmp_path / "out"
    argv = {
        "synth": ["--model", paths["model"], "--out", str(out)],
        "localize": ["--detections", paths["detections"], "--model", paths["model"],
                     "--out", str(out)],
        "eval": ["--pred-dir", str(data / "volumes"), "--gt-dir", paths["annotation"],
                 "--out", str(out)],
        "import-cvat": ["--xml", paths["cvat"], "--out-dir", str(out)],
    }[command]
    assert main([command, *argv]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: format: ") and path.name in captured.err
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == "" and not out.exists()


def test_two_main_calls_build_one_parser_and_print_what_fresh_calls_print(
    monkeypatch, capsys
):
    argvs = (["--help"], ["model", "--lanes", "10"], ["model", "--lanes", "8",
             "--length", "25"], ["model", "--lanes", "7", "--length", "25"])

    def fresh(argv):
        cli._parser.cache_clear()
        return main(argv), capsys.readouterr()

    expected = [fresh(argv) for argv in argvs]
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert [(main(argv), capsys.readouterr()) for argv in argvs] == expected
    assert len(built) == 1


def _without_kind(doc: dict) -> str:
    entries = list(doc["entries"])
    first = next(i for i, entry in enumerate(entries) if entry["exists"])
    entries[first] = {k: v for k, v in entries[first].items() if k != "kind"}
    return json.dumps({**doc, "entries": entries})


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda doc: json.dumps({**doc, "entries": [5, *doc["entries"]]}),
         "each entry must be an object"),
        (lambda doc: json.dumps({**doc, "entries": doc["entries"] * 2}),
         "duplicate entry for"),
        (_without_kind, "bad location for"),
        (lambda doc: _entry_with(doc, kind="moon"), "'moon' is not a valid"),
        (lambda doc: _config_with(doc, lane_width_m=0), "lane_width_m must be positive"),
        (lambda doc: _config_with(doc, bulkhead_x_m=25.0), "without a bulkhead"),
    ],
    ids=["entry-int", "duplicate", "kind-missing", "kind-unknown", "width-zero",
         "bulkhead-x-without-bulkhead"],
)
def test_invalid_model_entries_and_sizes_exit_4(
    workspace, tmp_path, capsys, edit, expected
):
    bad = tmp_path / "bad_model.json"
    bad.write_text(edit(json.loads((workspace / "model.json").read_text())))
    assert main(["synth", "--model", str(bad), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and err.count("\n") == 1, err
    assert expected in err, err


def test_negative_pool_threads_exits_4(workspace, capsys, monkeypatch):
    monkeypatch.setenv("POOL_THREADS", "-1")
    data = workspace / "data"
    pairs = ["--pred-dir", str(data / "volumes"), "--gt-dir", str(data / "annotations")]
    assert main(["eval", *pairs]) == 4
    assert capsys.readouterr().err == (
        "error: validation: POOL_THREADS must be non-negative\n"
    )


def test_eval_rejects_an_annotation_without_a_volume(workspace, tmp_path, capsys):
    annotations = tmp_path / "annotations"
    shutil.copytree(workspace / "data" / "annotations", annotations)
    write_annotation(FrameAnnotation("extra", 72, 128), annotations / "extra.json")
    volumes = str(workspace / "data" / "volumes")
    assert main(["eval", "--pred-dir", volumes, "--gt-dir", str(annotations)]) == 4
    assert capsys.readouterr().err == (
        "error: validation: no volume for annotation stem(s): extra\n"
    )


def test_a_volume_header_with_zero_channels_exits_5(tmp_path, capsys):
    path = tmp_path / "empty.pkhv"
    path.write_bytes(b"PKHV" + b"".join(v.to_bytes(4, "little") for v in (1, 2, 2, 0)))
    assert main(["decode", "--volume", str(path)]) == 5
    assert capsys.readouterr().err == (
        "error: format: channels must be positive (byte offset 16)\n"
    )


@pytest.mark.parametrize(
    "raw, expected",
    [(None, 1), ("", 1), ("  ", 1), (" 2 ", 2), ("3", 3), ("4", 3), ("0", 3),
     ("99999999999999999999999", 3)],
)
def test_pool_threads_is_capped_at_the_usable_cpus(monkeypatch, raw, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # affinity wins where it exists
    if raw is None:
        monkeypatch.delenv("POOL_THREADS", raising=False)
    else:
        monkeypatch.setenv("POOL_THREADS", raw)
    assert cli._workers() == expected


@pytest.mark.parametrize("cpus, expected", [(None, 1), (1, 1), (4, 4), (8, 5)])
def test_pool_threads_without_affinity_caps_at_the_cpu_count(
    monkeypatch, cpus, expected
):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("POOL_THREADS", "5")
    assert cli._workers() == expected
    monkeypatch.setenv("POOL_THREADS", "0")
    assert cli._workers() == (cpus or 1)


@pytest.mark.parametrize(
    "raw", ["1_0", "\u0663", "\u00b2", "+3", "3.0", "0x3", "-", "1 2"]
)
def test_pool_threads_takes_ascii_digits_only(workspace, capsys, monkeypatch, raw):
    monkeypatch.setenv("POOL_THREADS", raw)
    data = workspace / "data"
    pairs = ["--pred-dir", str(data / "volumes"), "--gt-dir", str(data / "annotations")]
    assert main(["eval", *pairs]) == 4
    assert capsys.readouterr().err == (
        f"error: validation: POOL_THREADS must be an integer, got {raw.strip()!r}\n"
    )


def test_a_huge_pool_threads_reaches_the_workers_capped(
    workspace, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("POOL_THREADS", str(10**23))
    requested = []

    def recording_map(fn, items, workers):
        # runs in the calling thread: no executor starts at any value
        requested.append(workers)
        return [fn(item) for item in items]

    monkeypatch.setattr(cli, "thread_map", recording_map)
    monkeypatch.setattr(synth, "thread_map", recording_map)
    data = workspace / "data"
    pairs = ["--pred-dir", str(data / "volumes"), "--gt-dir", str(data / "annotations")]
    assert main(["eval", *pairs, "--out", str(tmp_path / "r.json")]) == 0
    argv = ["synth", "--model", str(workspace / "model.json"), "--count", "2",
            "--rows", "36", "--cols", "64", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    capsys.readouterr()
    assert requested == [2, 2]


def _just_above_one(path) -> None:
    """A 96x4x4 volume whose channel 5 is one float32 cell of 1.0000005 among
    zeros: within the sum tolerance, with an entropy of about -4.77e-7."""
    data = np.full((96, 4, 4), 1.0 / 16, dtype="<f4")
    data[5] = 0.0
    data[5].flat[6] = 1.0000005
    header = b"".join(v.to_bytes(4, "little") for v in (1, 4, 4, 96))
    path.write_bytes(b"PKHV" + header + data.tobytes())


def test_a_channel_the_reader_accepts_decodes_evaluates_and_sweeps(tmp_path, capsys):
    volumes, annotations = tmp_path / "v", tmp_path / "a"
    volumes.mkdir()
    annotations.mkdir()
    _just_above_one(volumes / "f.pkhv")
    kp = keypoint_for_channel(5)
    truth = (AnnotationPoint(kp, 2.0, 1.0),)
    write_annotation(FrameAnnotation("f", 4, 4, truth), annotations / "f.json")
    out = tmp_path / "det.json"
    argv = ["decode", "--volume", str(volumes / "f.pkhv"), "--beta", "0.5"]
    assert main([*argv, "--out", str(out)]) == 0
    (detection,) = read_detections(out).detections
    assert (detection.kp, detection.u, detection.v) == (kp, 2.0, 1.0)
    assert -1e-6 < detection.entropy < 0
    dirs = ["--pred-dir", str(volumes), "--gt-dir", str(annotations)]
    assert main(["eval", *dirs, "--beta", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["mean_f1"] == 1.0
    for mode in ("beta", "tolerance"):
        curve = tmp_path / f"{mode}.csv"
        argv = ["sweep", "--mode", mode, "--grid", "0.5:1:0.5", *dirs]
        assert main([*argv, "--out", str(curve)]) == 0
        assert curve.read_text().splitlines()[1:] == ["0.5,1.0", "1.0,1.0"]
    assert capsys.readouterr().err == ""


def test_a_detection_entropy_below_the_floor_exits_4(workspace, tmp_path, capsys):
    det = tmp_path / "det.json"
    volume = workspace / "data" / "volumes" / "scene_0000.pkhv"
    assert main(["decode", "--volume", str(volume), "--out", str(det)]) == 0
    doc = json.loads(det.read_text())
    doc["points"][0]["entropy"] = -1e-3
    det.write_text(json.dumps(doc))
    model = str(workspace / "model.json")
    assert main(["localize", "--detections", str(det), "--model", model]) == 4
    label = f"{doc['points'][0]['class']}_{doc['points'][0]['index']}"
    err = capsys.readouterr().err
    assert err == f"error: validation: {label} has invalid entropy\n"


def test_the_cli_imports_no_package_but_numpy():
    # what import poolkey.cli adds to a bare interpreter, by top-level name
    probe = (
        "import sys; bare = set(sys.modules); import poolkey.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - bare} "
        "- set(sys.stdlib_module_names))))"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["numpy", "poolkey"]


def _scaled_points(doc: dict, factor: float) -> str:
    """doc with every point's u and v times factor in a 10**301-pixel frame."""
    points = [dict(p, u=p["u"] * factor, v=p["v"] * factor) for p in doc["points"]]
    return json.dumps(dict(doc, rows=10**301, cols=10**301, points=points))


def test_a_detection_beyond_1e150_px_is_one_validation_line(
    workspace, tmp_path, capsys
):
    # a correspondence holds coordinates up to MAX_PX, which keeps every
    # square the DLT takes finite
    det = tmp_path / "det.json"
    volume = workspace / "data" / "volumes" / "scene_0000.pkhv"
    assert main(["decode", "--volume", str(volume), "--out", str(det)]) == 0
    doc = json.loads(det.read_text())
    det.write_text(_scaled_points(doc, 1e160))
    model = str(workspace / "model.json")
    capsys.readouterr()
    assert main(["localize", "--detections", str(det), "--model", model]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and "beyond 1e+70 px" in err, err
    assert err.count("\n") == 1, err


def test_a_scale_and_points_that_overflowed_the_dlt_are_one_validation_line(
    tmp_path, capsys
):
    # five fixed points at 1e150 px and five near the origin, at a scale that
    # puts the pool's base pixels near 1e150 too: the squares of the DLT's
    # de-normalized map would overflow, so the bound refuses both before a fit
    model = tmp_path / "model.json"
    assert main(["model", "--lanes", "8", "--length", "50", "--out", str(model)]) == 0
    far = [("wall_left", 0), ("wall_left", 12), ("wall_right", 0), ("wall_right", 12)]
    near = [("wall_top", 4), ("wall_bottom", 2), ("wall_bottom", 6), ("wall_left", 3)]
    points = [
        {"class": cls, "index": index, "u": 1e150, "v": 1e150, "entropy": 0.0}
        for cls, index in [*far, ("wall_top", 0)]
    ]
    points += [
        {"class": cls, "index": index, "u": k, "v": 2 * k + 1, "entropy": 0.0}
        for k, (cls, index) in zip(range(5, 10), [*near, ("wall_right", 5)])
    ]
    det = tmp_path / "det.json"
    det.write_text(
        json.dumps({"frame_id": "f", "rows": 10**151, "cols": 10**151, "points": points})
    )
    capsys.readouterr()
    argv = ["localize", "--detections", str(det), "--model", str(model)]
    assert main([*argv, "--scale", "1e148"]) == 4
    err = capsys.readouterr().err
    assert err == "error: validation: scale_px_per_m spans the pool beyond 1e+70 px\n"
    # at the default scale the detections alone are beyond the bound
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: validation: coordinate beyond 1e+70 px: image")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["localize", "eval"])
def test_a_point_outside_a_frame_of_301_digits_is_one_short_line(
    workspace, tmp_path, capsys, command
):
    data = workspace / "data"
    if command == "localize":
        path = tmp_path / "det.json"
        volume = data / "volumes" / "scene_0000.pkhv"
        assert main(["decode", "--volume", str(volume), "--out", str(path)]) == 0
        argv = ["--detections", str(path), "--model", str(workspace / "model.json")]
    else:
        shutil.copytree(data / "annotations", tmp_path / "gt")
        path = tmp_path / "gt" / "scene_0000.json"
        argv = ["--pred-dir", str(data / "volumes"), "--gt-dir", str(tmp_path / "gt")]
    path.write_text(_scaled_points(json.loads(path.read_text()), 1e300))
    capsys.readouterr()
    assert main([command, *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and "(302 digits)" in err, err
    assert err.count("\n") == 1 and len(err) < 200, err
