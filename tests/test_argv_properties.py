"""Property test: drawn argv for every subcommand, run through cli.main.

Flags come from the parser itself; values are numbers (NaN, infinities,
negative and huge), non-ASCII digits, empty strings, missing and directory
paths, files of another kind and files that are not UTF-8. Each call must
exit 0, 2, 3, 4, 5, 6 or 7 with at most one stderr line, never raise. Frame
sizes stay within 16-64 cells, --count within 2 and --iters within 50, so
no example builds more than a 96x64x64 volume.
"""

import argparse
import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poolkey import cli  # noqa: E402
from poolkey.annotation_io import read_annotation, serialize_cvat  # noqa: E402

EXAMPLES = settings(max_examples=40, deadline=None, database=None)
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = (
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


SUBPARSERS = _subparsers()


def _indic(n: int) -> str:
    """n in Arabic-Indic digits, which int() and float() read."""
    return "".join(chr(0x0660 + int(d)) for d in str(n))


HUGE = "1" * 400
SPECIALS = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "-1", "-0", "0", "0.5", "3", "1e308", "1e400",
     HUGE, "-" + HUGE, "9" * 5000, "٣", "２", "1_0", " 2 ", "", "x"]
)


def _mostly(usual, other):
    """usual in about two draws of three, other in the rest."""
    return st.one_of(usual, usual, other)


# the usual values take in lane counts, course lengths, seeds and [0, 1]
LANES_AND_LENGTHS = st.sampled_from([6, 8, 10, 12, 16, 20, 25, 50])
INTEGERS = _mostly(
    (LANES_AND_LENGTHS | st.integers(-3, 60)).map(str),
    SPECIALS | st.integers().map(str),
)
FLOATS = _mostly(st.floats(0, 1).map(repr), SPECIALS | st.floats().map(repr))
# options whose value sets how much is built or run, always given: in range,
# or refused
BOUNDS = {"rows": (16, 64), "cols": (16, 64), "count": (0, 2), "iters": (1, 50)}
GRIDS = st.sampled_from(
    ["0:1:0.5", "0.5:1:0.25", "0:1:1", "nan:1:0.1", "0:inf:1", "0:1:0", "1:0:0.1",
     "0:1e308:1e-300", "٠:١:٠.٥", "0:1", "a:b:c", ""]
)
OUTPUTS = {"out", "out_dir", "per_class", "per_keypoint"}
INPUTS = {
    "model": "model.json",
    "volume": "volume",
    "pred": "volume",
    "target": "volume",
    "pred_dir": "volumes",
    "gt_dir": "annotations",
    "detections": "detections.json",
    "xml": "task.xml",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One input of each kind, and the wrong kinds next to them."""
    root = tmp_path_factory.mktemp("argv")
    model = str(root / "model.json")
    assert cli.main(["model", "--lanes", "8", "--length", "25", "--out", model]) == 0
    data = root / "data"
    argv = ["synth", "--model", model, "--count", "2", "--rows", "32", "--cols",
            "64", "--seed", "1", "--out", str(data)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    volume = data / "volumes" / "scene_0000.pkhv"
    detections = str(root / "detections.json")
    assert cli.main(["decode", "--volume", str(volume), "--out", detections]) == 0
    annotations = sorted((data / "annotations").glob("*.json"))
    (root / "task.xml").write_text(
        serialize_cvat([read_annotation(path) for path in annotations])
    )
    (root / "bad.json").write_bytes(b'{"frame_id": "\xff"}')
    (root / "bad.xml").write_bytes(b"<annotations>\xff</annotations>")
    paths = {
        "model.json": model,
        "volume": str(volume),
        "volumes": str(data / "volumes"),
        "annotations": str(data / "annotations"),
        "detections.json": detections,
        "task.xml": str(root / "task.xml"),
    }
    wrong = [str(root / "bad.json"), str(root / "bad.xml"), str(root / "missing"),
             str(data), model + "/under-a-file", ""]
    # outputs land in the example's own directory, or nowhere
    outputs = ["missing/written", ".", "", model + "/under-a-file"]
    return paths, [*paths.values(), *wrong], outputs


def _value(draw, action, files):
    paths, pool, outputs = files
    if action.choices:
        return draw(st.sampled_from([*action.choices, "other"]))
    if action.dest in BOUNDS:
        low, high = BOUNDS[action.dest]
        within = st.integers(low, high)
        refused = st.sampled_from(["-1", "-" + HUGE, "nan", "", "٠"])
        return draw(_mostly(within.map(str) | within.map(_indic), refused))
    if action.type is int:
        return draw(INTEGERS)
    if action.type is float:
        return draw(FLOATS)
    if action.dest == "grid":
        return draw(GRIDS)
    if action.dest in OUTPUTS:
        return draw(_mostly(st.just("written"), st.sampled_from(outputs)))
    return draw(_mostly(st.just(paths[INPUTS[action.dest]]), st.sampled_from(pool)))


@st.composite
def _argv(draw, command, files):
    argv = [command]
    for action in SUBPARSERS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        given_always = action.required or action.dest in BOUNDS
        if not given_always and draw(st.integers(0, 2)):
            continue
        flag = draw(st.sampled_from(action.option_strings))
        argv.append(flag)
        if not isinstance(action, argparse.BooleanOptionalAction):
            argv.append(_value(draw, action, files))
    return argv


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_every_subcommand_exits_with_a_documented_code_on_one_line(files, command):
    @EXAMPLES
    @given(argv=_argv(command, files))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ):
            os.environ.pop("POOL_THREADS", None)
            cwd = os.getcwd()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                os.chdir(cwd)
        lines = err.getvalue().splitlines()
        assert code in EXIT_CODES, (argv, code, lines)
        assert len(lines) <= 1, (argv, lines)
        assert (code == 0) == (not lines), (argv, code, lines)

    run()
