"""Property tests: the streamed summary reader against read_volume, then summarize.

Both readers must agree on every file, bit for bit on a value and exactly on
an error's type, message and byte offset, and neither may raise anything but
a PoolError.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poolkey import (  # noqa: E402
    NumericError,
    PoolError,
    ValidationError,
    channel_entropy,
    heatmap,
    read_volume,
)
from poolkey.heatmap import read_summary, summarize  # noqa: E402

EXAMPLES = settings(max_examples=40, deadline=None, database=None)

GRID = st.tuples(st.integers(1, 4), st.integers(1, 5))
# planes of up to 576 cells: with leaves of 128 cells, their sums span leaves
LEAF_GRID = st.tuples(st.integers(1, 24), st.integers(1, 24))
KIND = st.sampled_from(
    ["flat", "nudged_flat", "delta", "two_valued", "half_first", "softmax"]
)


def _plane(kind: str, rows: int, cols: int, rng) -> np.ndarray:
    """One float32 channel of the given kind that sums to one within 1e-6."""
    cells = rows * cols
    plane = np.full(cells, 1.0 / cells)
    if kind == "nudged_flat":
        plane = np.nextafter(plane.astype(np.float32), np.float32(1))
    elif kind == "delta":
        plane[:] = 0.0
        plane[rng.integers(cells)] = 1.0
    elif kind == "two_valued" and cells > 1:
        mass = rng.uniform(0.0, 1.0)
        plane[:] = (1.0 - mass) / (cells - 1)
        plane[rng.integers(cells)] = mass
    elif kind == "half_first" and cells > 1:
        # argmax in the first cell like a flat plane, and first value 0.5 however
        # the other half is spread
        plane[:] = 0.0
        plane[0] = 0.5
        spread = rng.integers(1, cells)
        plane[1 : 1 + spread] = 0.5 / spread
    elif kind == "softmax":
        logits = rng.normal(0.0, 3.0, cells)
        plane = np.exp(logits - logits.max())
        plane /= plane.sum()
    return plane.astype(np.float32).reshape(rows, cols)


def _volume_file(data: np.ndarray) -> bytes:
    channels, rows, cols = data.shape
    header = b"".join(v.to_bytes(4, "little") for v in (1, rows, cols, channels))
    return b"PKHV" + header + np.asarray(data, "<f4").tobytes()


def _outcome(fn, *args):
    """A summary as bits, or an error as its type, message and offset."""
    try:
        summary = fn(*args)
    except PoolError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    bits = np.array(summary.entropies, np.float64).view(np.uint64)
    return summary.rows, summary.cols, tuple(bits.tolist()), summary.cells


def _whole_volume_summary(path):
    return summarize(read_volume(path))


@EXAMPLES
@given(
    grid=GRID,
    kinds=st.lists(KIND, min_size=96, max_size=96),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_readers_agree_on_mixed_channels(tmp_path_factory, grid, kinds, seed):
    _assert_readers_agree_on_mixed_channels(tmp_path_factory, grid, kinds, seed)


@EXAMPLES
@given(
    grid=LEAF_GRID,
    kinds=st.lists(KIND, min_size=96, max_size=96),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_readers_agree_across_leaves(tmp_path_factory, grid, kinds, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heatmap, "_LEAF", 128)
        _assert_readers_agree_on_mixed_channels(tmp_path_factory, grid, kinds, seed)


def _assert_readers_agree_on_mixed_channels(tmp_path_factory, grid, kinds, seed):
    rows, cols = grid
    rng = np.random.default_rng(seed)
    data = np.stack([_plane(kind, rows, cols, rng) for kind in kinds])
    path = tmp_path_factory.mktemp("mixed") / "v.pkhv"
    path.write_bytes(_volume_file(data))
    streamed = _outcome(read_summary, path)
    assert streamed == _outcome(_whole_volume_summary, path)
    assert len(streamed) == 4, streamed  # every drawn channel is valid
    reference = [channel_entropy(plane) for plane in data.astype(np.float64)]
    assert streamed[2] == tuple(np.array(reference).view(np.uint64).tolist())
    # and the entropy as one whole-plane numpy expression, cell order kept
    positives = (plane[plane > 0] for plane in data.astype(np.float64))
    whole = [-(p * np.log(p)).sum() for p in positives]
    assert streamed[2] == tuple(np.array(whole).view(np.uint64).tolist())


SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, -1e-3, 1e38, float("nan"), float("inf"), float("-inf")]
)


@st.composite
def _volume_bytes(draw) -> bytes:
    """A volume file with drawn header fields and a drawn or damaged payload."""
    # mostly valid header fields, so that most files reach the payload checks
    magic = draw(st.sampled_from([b"PKHV"] * 8 + [b"PKHX", b"PK"]))
    version = draw(st.sampled_from([1] * 8 + [0, 2]))
    side = st.sampled_from([1, 2, 3, 4, 5] * 2 + [0, 2**32 - 1])
    rows, cols = draw(side), draw(side)
    channels = draw(st.sampled_from([96] * 6 + [0, 1, 3]))
    header = b"".join(v.to_bytes(4, "little") for v in (version, rows, cols, channels))
    cells = rows * cols * channels
    if cells > 96 * 25 or draw(st.integers(0, 7)) == 0:
        payload = draw(st.binary(max_size=64))
    else:
        values = np.full(cells, 1.0 / max(rows * cols, 1), "<f4")
        edits = draw(st.lists(st.tuples(st.integers(0, 10**6), SPECIAL), max_size=3))
        for index, value in edits:
            if cells:
                values[index % cells] = value
        payload = values.tobytes()
        cut = draw(st.sampled_from([0, 0, 0, -1, -4, 1]))
        payload = payload[:cut] if cut < 0 else payload + b"\0" * cut
    return magic + header + payload


@EXAMPLES
@given(blob=_volume_bytes())
def test_both_readers_agree_on_any_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("bytes") / "v.pkhv"
    path.write_bytes(blob)
    # an exception other than PoolError escapes _outcome and fails the test
    assert _outcome(read_summary, path) == _outcome(_whole_volume_summary, path)


# one float32 cell value for the planes below that hold a single nonzero cell
CELL_VALUES = [1.0, 0.5, 3.0, 1e-45, 1e-40, float(np.finfo(np.float32).max), np.inf]
# planes whose sum and entropy the checks may take without a float64 pass, and
# the planes next to them that they must still tell apart
SHORTCUT_KINDS = [
    "flat",
    "flat_value",
    "positive_zeros",
    "negative_zeros",
    "signed_zeros",
    "single",
    "single_among_negative_zeros",
    "single_first",
    "single_last",
    "single_and_negative",
    "single_and_minus_inf",
    "cell_before_peak",
    "cell_after_peak",
    "nan",
    "nan_plane",
    "underflowing_softmax",
]
SHORTCUT_GRIDS = [(1, 1), (1, 2), (3, 4), (24, 24), (7, 31)]


def _shortcut_plane(kind: str, value: float, rows: int, cols: int, rng) -> np.ndarray:
    """One float32 channel of the given kind, valid or not."""
    cells = rows * cols
    plane = np.zeros(cells, np.float32)
    spot = int(rng.integers(cells))
    if kind == "flat":
        plane[:] = 1.0 / cells
    elif kind == "flat_value":
        plane[:] = value
    elif kind == "negative_zeros":
        plane[:] = -0.0
    elif kind == "signed_zeros":
        plane[rng.random(cells) < 0.5] = -0.0
    elif kind.startswith("single"):
        if kind == "single_among_negative_zeros":
            plane[:] = -0.0
        spot = {"single_first": 0, "single_last": cells - 1}.get(kind, spot)
        plane[spot] = value
        if kind == "single_and_negative" and cells > 1:
            plane[(spot + 1) % cells] = -1e-3
        if kind == "single_and_minus_inf" and cells > 1:
            plane[(spot + 1) % cells] = -np.inf
    elif kind.startswith("cell_") and cells > 1:
        # a second, smallest positive cell on one side of the peak
        peak = spot + 1 if kind == "cell_before_peak" else spot
        plane[peak % cells] = value
        plane[(peak + (-1 if kind == "cell_before_peak" else 1)) % cells] = 1e-45
    elif kind == "nan":
        plane[:] = 1.0 / cells
        plane[spot] = np.nan
    elif kind == "nan_plane":
        plane[:] = np.nan
    elif kind == "underflowing_softmax":
        logits = rng.normal(0.0, 12.0, cells)
        softmax = np.exp(logits - logits.max())
        plane[:] = softmax / softmax.sum()
    return plane.reshape(rows, cols)


def _reference_error(planes: np.ndarray):
    """The checks as whole-plane numpy over float64 planes: np.sum of each."""
    if not np.isfinite(planes).all():
        return NumericError, "volume contains non-finite values"
    if (planes < 0).any():
        return ValidationError, "volume contains negative values"
    with np.errstate(over="ignore"):
        sums = np.array([np.sum(plane) for plane in planes])
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(sums[worst] - 1.0) > 1e-6:
        return ValidationError, (
            f"channel {worst} sums to {float(sums[worst])}, expected 1 within 1e-06"
        )
    return None


def _reference_outcome(data: np.ndarray):
    """The checks, then channel_entropy and argmax of each float64 cast plane."""
    planes = data.astype(np.float64)
    error = _reference_error(planes)
    if error is not None:
        return error
    entropies = [channel_entropy(plane) for plane in planes]
    positives = (plane[plane > 0] for plane in planes)
    whole = [-(p * np.log(p)).sum() for p in positives]
    assert _bits(entropies) == _bits(whole)
    return _bits(entropies), tuple(int(plane.argmax()) for plane in planes)


def _bits(values) -> tuple[int, ...]:
    return tuple(np.array(values, np.float64).view(np.uint64).tolist())


def _checked_outcome(data: np.ndarray):
    """The summary of the planes _checked_planes yields, or its error.

    A volume of other than 96 channels has no summary, only its error or None.
    """
    channels, rows, cols = data.shape
    checked = heatmap._checked_planes(channels, enumerate(data))
    try:
        if channels != 96:
            for _ in checked:
                pass
            return None
        summary = heatmap._summarize_planes(rows, cols, checked)
    except PoolError as exc:
        return type(exc), str(exc)
    return _bits(summary.entropies), summary.cells


def _base_volume(rows: int, cols: int, rng) -> np.ndarray:
    """96 valid float32 channels, flat and delta in turn."""
    kinds = ("flat", "single") * 48
    return np.stack([_shortcut_plane(kind, 1.0, rows, cols, rng) for kind in kinds])


def _assert_checks_match_whole_plane_numpy(data: np.ndarray, edited) -> None:
    with np.errstate(over="ignore"):
        reference = _reference_outcome(data)
        assert _checked_outcome(data) == reference
        assert _checked_outcome(data.astype(np.float64)) == reference
        # each edited plane alone: a sum that fails the check is printed in full
        for channel in edited:
            alone = data[channel : channel + 1].astype(np.float64)
            assert _checked_outcome(alone) == _reference_error(alone)


# leaves and chunks of the plane searched for positive cells: small ones, so
# that a plane spans many of each, and the defaults
SIZES = [(128, 100), (heatmap._LEAF, heatmap._CHUNK)]


@pytest.mark.parametrize("leaf, chunk", SIZES)
@pytest.mark.parametrize("kind", SHORTCUT_KINDS)
def test_each_shortcut_kind_matches_whole_plane_numpy(kind, leaf, chunk, monkeypatch):
    monkeypatch.setattr(heatmap, "_LEAF", leaf)
    monkeypatch.setattr(heatmap, "_CHUNK", chunk)
    rng = np.random.default_rng(SHORTCUT_KINDS.index(kind))
    valued = kind == "flat_value" or kind.startswith(("single", "cell_"))
    for rows, cols in SHORTCUT_GRIDS:
        base = _base_volume(rows, cols, rng)
        for value in CELL_VALUES if valued else [1.0]:
            data = base.copy()
            channel = int(rng.integers(96))
            data[channel] = _shortcut_plane(kind, value, rows, cols, rng)
            _assert_checks_match_whole_plane_numpy(data, [channel])


@st.composite
def _shortcut_volume(draw) -> tuple[np.ndarray, list[int]]:
    """The base volume with up to three channels replaced, and those channels."""
    rows, cols = draw(st.sampled_from(SHORTCUT_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = _base_volume(rows, cols, rng)
    kinds = st.sampled_from(SHORTCUT_KINDS)
    edits = st.tuples(st.integers(0, 95), kinds, st.sampled_from(CELL_VALUES))
    edited = []
    for channel, kind, value in draw(st.lists(edits, max_size=3)):
        data[channel] = _shortcut_plane(kind, value, rows, cols, rng)
        edited.append(channel)
    return data, edited


@EXAMPLES
@given(volume=_shortcut_volume())
def test_checks_match_whole_plane_numpy(volume):
    _assert_checks_match_whole_plane_numpy(*volume)


@EXAMPLES
@given(volume=_shortcut_volume())
def test_checks_match_whole_plane_numpy_across_leaves(volume):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heatmap, "_LEAF", SIZES[0][0])
        patch.setattr(heatmap, "_CHUNK", SIZES[0][1])
        _assert_checks_match_whole_plane_numpy(*volume)
