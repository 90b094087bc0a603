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

from poolkey import PoolError, channel_entropy, read_volume  # noqa: E402
from poolkey.heatmap import read_summary, summarize  # noqa: E402

EXAMPLES = settings(max_examples=40, deadline=None, database=None)

GRID = st.tuples(st.integers(1, 4), st.integers(1, 5))
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
