"""Channel summaries: the streamed file reader against the whole-volume path."""

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from poolkey import (
    AnnotationPoint,
    DecodeParams,
    FormatError,
    FrameAnnotation,
    HeatmapVolume,
    NoiseParams,
    NumericError,
    PoolConfig,
    SynthParams,
    ValidationError,
    beta_sweep,
    build_base_model,
    channel_entropy,
    decode,
    keypoint_for_channel,
    make_scene,
    make_target_volume,
    read_volume,
    softmax_normalize,
    tolerance_sweep,
    write_volume,
)
from poolkey import heatmap
from poolkey.heatmap import read_summary, summarize

MODEL = build_base_model(PoolConfig(lanes=8, length_m=50))
NOISY = NoiseParams(loc_sigma_px=1.5, dropout_rate=0.1, false_positive_rate=0.05)


def _write_raw(path, data) -> None:
    """A volume file holding exactly these float32 values, valid or not."""
    channels, rows, cols = data.shape
    header = b"".join(v.to_bytes(4, "little") for v in (1, rows, cols, channels))
    path.write_bytes(b"PKHV" + header + np.asarray(data, dtype="<f4").tobytes())


def _seed_entropy(plane) -> float:
    """Entropy as the first release computed it: the bit-exact reference."""
    positive = plane[plane > 0]
    return float(-(positive * np.log(positive)).sum())


def _bits(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


def _reference_summary(path):
    """read_volume, then the entropy and argmax of each channel on its own."""
    volume = read_volume(path)
    planes = [volume.channel(k) for k in range(volume.channels)]
    return (
        volume.rows,
        volume.cols,
        [channel_entropy(plane) for plane in planes],
        [int(plane.argmax()) for plane in planes],
    )


def _assert_matches_reference(path) -> None:
    """Both readers against the per-channel references."""
    rows, cols, entropies, cells = _reference_summary(path)
    volume = read_volume(path)
    seed = [_seed_entropy(volume.channel(k)) for k in range(volume.channels)]
    for summary in (read_summary(path), summarize(volume)):
        assert (summary.rows, summary.cols) == (rows, cols)
        # bit for bit, not merely equal: -0.0 and 0.0 differ here
        assert np.array_equal(_bits(summary.entropies), _bits(entropies))
        assert np.array_equal(_bits(summary.entropies), _bits(seed))
        assert summary.cells == tuple(cells)


def _hand_made_volume(rows=6, cols=7) -> np.ndarray:
    """Delta, flat, tied-maximum and mostly-zero channels in turn."""
    data = np.zeros((96, rows, cols))
    for k in range(96):
        plane = data[k]
        kind = k % 4
        if kind == 0:
            plane[k % rows, k % cols] = 1.0
        elif kind == 1:
            plane.fill(1.0 / (rows * cols))
        elif kind == 2:
            plane[rows - 1, 0] = plane[0, cols - 1] = plane[1, 1] = 0.25
            plane[2, 3] = 0.125
            plane[3, 2] = 0.125
        else:
            plane[0, :4] = (0.5, 0.25, 0.125, 0.125)
    return data


def test_read_summary_matches_reference_on_synth_volumes(tmp_path):
    for seed in range(3):
        params = SynthParams(frame_rows=72, frame_cols=128, noise=NOISY, seed=seed)
        for index in range(2):
            path = tmp_path / f"s{seed}_{index}.pkhv"
            write_volume(make_scene(MODEL, params, index).volume, path)
            _assert_matches_reference(path)


def test_read_summary_matches_reference_on_hand_made_channels(tmp_path):
    path = tmp_path / "hand.pkhv"
    write_volume(HeatmapVolume(_hand_made_volume()), path)
    _assert_matches_reference(path)
    summary = read_summary(path)
    assert summary.entropies[0] == 0.0  # delta
    assert summary.cells[2] == 6  # tie at the maximum: smallest row-major index


def test_read_summary_matches_reference_on_softmax_volumes(tmp_path):
    rng = np.random.default_rng(41)
    for trial in range(5):
        path = tmp_path / f"soft{trial}.pkhv"
        write_volume(softmax_normalize(rng.normal(0, 3, size=(96, 9, 11))), path)
        _assert_matches_reference(path)


def test_reference_cases_hold_when_each_plane_spans_many_leaves(tmp_path, monkeypatch):
    monkeypatch.setattr(heatmap, "_LEAF", 128)
    rng = np.random.default_rng(43)
    params = SynthParams(frame_rows=72, frame_cols=128, noise=NOISY, seed=4)
    sources = {
        "synth": make_scene(MODEL, params, 0).plan,
        "hand_made": HeatmapVolume(_hand_made_volume(24, 24)),
        "softmax": softmax_normalize(rng.normal(0, 3, size=(96, 24, 23))),
        "wide_softmax": softmax_normalize(rng.normal(0, 30, size=(96, 17, 29))),
    }
    for name, source in sources.items():
        path = tmp_path / f"{name}.pkhv"
        write_volume(source, path)
        _assert_matches_reference(path)
    for name, data in _flat_volumes().items():
        path = tmp_path / f"{name}.pkhv"
        _write_raw(path, np.tile(data, (1, 4, 8)) / np.float32(32))
        _assert_matches_reference(path)


def _flat_volumes() -> dict[str, np.ndarray]:
    """float32 volumes whose flat channels the summary may share work between."""
    rows, cols = 6, 7
    even = np.float32(1.0 / (rows * cols))
    # two flat values one float32 step apart, both summing to one within 1e-6
    values = (even, np.nextafter(even, np.float32(1)))
    two_values = np.stack(
        [np.full((rows, cols), values[int(k % 3 == 0)]) for k in range(96)]
    )
    mixed = _hand_made_volume(rows, cols).astype(np.float32)
    mixed[1::8] = values[1]  # flat channels of both values among the others
    mixed[4] = 0.0
    mixed[4, 0, 0] = 1.0  # a delta in the first cell, whose argmax a flat plane shares
    mixed[8] = 0.0
    mixed[8, 0, :2] = 0.5  # first cell and argmax as in channel 3, other entropy
    return {
        "two_flat_values": two_values,
        "all_flat": np.full((96, 3, 4), np.float32(1.0 / 12)),
        "one_cell": np.ones((96, 1, 1), np.float32),  # every entropy is -0.0
        "flat_among_delta_and_mostly_zero": mixed,
    }


@pytest.mark.parametrize("name", sorted(_flat_volumes()))
def test_flat_channels_share_an_exact_entropy(tmp_path, name):
    path = tmp_path / f"{name}.pkhv"
    _write_raw(path, _flat_volumes()[name])
    _assert_matches_reference(path)


def test_two_flat_values_keep_their_own_entropies(tmp_path):
    path = tmp_path / "two.pkhv"
    _write_raw(path, _flat_volumes()["two_flat_values"])
    entropies = read_summary(path).entropies
    assert entropies[0] != entropies[1]  # the values one step apart are told apart
    assert set(entropies) == {entropies[0], entropies[1]}


def test_entropy_runs_once_per_flat_value_and_per_other_channel(tmp_path, monkeypatch):
    rows, cols = 9, 11
    channels = (0, 5, 17, 40, 95)
    points = tuple(
        AnnotationPoint(keypoint_for_channel(k), float(k % cols), float(k % rows))
        for k in channels
    )  # channel 0's point sits in the first cell, where a flat argmax is too
    volume = make_target_volume(FrameAnnotation("f", rows, cols, points), rows, cols)
    path = tmp_path / "target.pkhv"
    write_volume(volume, path)
    calls = []
    entropy = heatmap._entropy

    def counted(plane, work):
        calls.append(1)
        return entropy(plane, work)

    monkeypatch.setattr(heatmap, "_entropy", counted)
    for run in (lambda: summarize(volume), lambda: read_summary(path)):
        calls.clear()
        run()
        # one per delta channel, one for the single flat value, not 96
        assert len(calls) == len(channels) + 1


def test_sweeps_take_summaries_or_volumes(tmp_path):
    params = SynthParams(frame_rows=72, frame_cols=128, noise=NOISY, seed=9)
    volumes, summaries = [], []
    for index in range(3):
        scene = make_scene(MODEL, params, index)
        path = tmp_path / f"v{index}.pkhv"
        write_volume(scene.volume, path)
        volumes.append((read_volume(path), scene.annotation))
        summaries.append((read_summary(path), scene.annotation))
    betas = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
    assert beta_sweep(volumes, betas, 5.0) == beta_sweep(summaries, betas, 5.0)
    tolerances = [1.0, 2.5, 5.0]
    assert tolerance_sweep(volumes, 0.9, tolerances) == tolerance_sweep(
        summaries, 0.9, tolerances
    )


def _whole_volume_error(data):
    """The value checks as one pass over the whole volume: the reference order."""
    if not np.isfinite(data).all():
        return NumericError, "volume contains non-finite values"
    if (data < 0).any():
        return ValidationError, "volume contains negative values"
    sums = data.sum(axis=(1, 2))
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(sums[worst] - 1.0) > 1e-6:
        return ValidationError, (
            f"channel {worst} sums to {float(sums[worst])}, expected 1 within 1e-06"
        )
    return None


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result here
        return type(exc), str(exc)
    return None


def test_volume_checks_keep_whole_volume_precedence():
    rng = np.random.default_rng(77)
    faults = (np.nan, np.inf, -np.inf, -0.01, "scale")
    for _ in range(300):
        channels = int(rng.integers(1, 6))
        data = np.full((channels, 3, 4), 1.0 / 12)
        for _ in range(int(rng.integers(0, 4))):
            fault = faults[rng.integers(len(faults))]
            k, r, c = rng.integers(channels), rng.integers(3), rng.integers(4)
            if fault == "scale":
                data[k] *= rng.uniform(0.5, 1.5)
            else:
                data[k, r, c] = fault
        assert _outcome(HeatmapVolume, data) == _whole_volume_error(data)
    # finite entries whose sum overflows: a bad sum, not a non-finite value
    data = np.full((3, 3, 4), 1.0 / 12)
    data[1] = 1e308
    with np.errstate(over="ignore"):
        reference = _whole_volume_error(data)
        assert _outcome(HeatmapVolume, data) == reference
    assert reference[0] is ValidationError
    assert reference[1].startswith("channel 1 sums to ")
    data[2, 1, 1] = np.nan
    with np.errstate(over="ignore"):
        assert _outcome(HeatmapVolume, data) == _whole_volume_error(data)


def _decode_file(path):
    return decode(read_volume(path), DecodeParams(0.9))


def _corrupt_volumes():
    flat = np.full((96, 3, 4), 1.0 / 12)

    def edit(fn, base=flat):
        data = base.copy()
        fn(data)
        return data

    def nan_then_negative(d):
        d[2, 1, 3] = np.nan
        d[5, 0, 0] = -0.5

    def negative_then_nan(d):
        d[2, 0, 1] = -0.5
        d[5, 2, 2] = np.nan

    def inf_and_bad_sum(d):
        d[7] *= 2.0
        d[40, 2, 0] = np.inf

    def negative(d):
        d[7, 1, 1] = -1e-3

    def bad_sums(d):
        d[1] *= 1.2
        d[2] *= 1.5

    def nan_last(d):
        d[95, 2, 3] = np.nan

    def inf_first(d):
        d[0, 0, 0] = np.inf

    return {
        "nan_last": (edit(nan_last), 20 + 4 * (95 * 12 + 11)),
        "inf_first": (edit(inf_first), 20),
        "nan_then_negative": (edit(nan_then_negative), 20 + 4 * (2 * 12 + 7)),
        "negative_then_nan": (edit(negative_then_nan), 20 + 4 * (5 * 12 + 10)),
        "inf_and_bad_sum": (edit(inf_and_bad_sum), 20 + 4 * (40 * 12 + 8)),
        "negative": (edit(negative), None),
        "bad_sums": (edit(bad_sums), None),
        "three_channels": (np.full((3, 3, 4), 1.0 / 12), None),
        "three_channels_bad_sum": (edit(bad_sums, flat[:3]), None),
    }


@pytest.mark.parametrize("name", sorted(_corrupt_volumes()))
def test_read_summary_fails_like_read_volume_then_decode(tmp_path, name):
    data, nan_offset = _corrupt_volumes()[name]
    path = tmp_path / f"{name}.pkhv"
    _write_raw(path, data)
    reference = _outcome(_decode_file, path)
    assert reference is not None
    assert _outcome(read_summary, path) == reference
    if nan_offset is not None:
        assert reference == (
            FormatError,
            f"non-finite value in payload (byte offset {nan_offset})",
        )
    else:
        assert reference[0] is ValidationError


def _header(version=1, rows=3, cols=4, channels=96) -> bytes:
    return b"PKHV" + b"".join(
        v.to_bytes(4, "little") for v in (version, rows, cols, channels)
    )


_FLAT_PAYLOAD = np.full((96, 3, 4), 1.0 / 12, dtype="<f4").tobytes()
_FULL_SIZE = 20 + len(_FLAT_PAYLOAD)


@pytest.mark.parametrize(
    "name, blob, message",
    [
        (
            "short_payload",
            _header() + _FLAT_PAYLOAD[:-1],
            f"payload truncated: expected {_FULL_SIZE} bytes, file has "
            f"{_FULL_SIZE - 1} (byte offset {_FULL_SIZE - 1})",
        ),
        (
            "trailing_byte",
            _header() + _FLAT_PAYLOAD + b"\0",
            f"trailing bytes after payload (byte offset {_FULL_SIZE})",
        ),
        ("magic_only", b"PKHV", "truncated header (byte offset 4)"),
        ("empty", b"", "bad magic b'', expected b'PKHV' (byte offset 0)"),
        (
            "zero_rows",
            _header(rows=0) + _FLAT_PAYLOAD,
            "rows must be positive (byte offset 8)",
        ),
    ],
)
def test_read_summary_rejects_bad_bytes_like_read_volume(tmp_path, name, blob, message):
    path = tmp_path / f"{name}.pkhv"
    path.write_bytes(blob)
    assert _outcome(read_volume, path) == (FormatError, message)
    assert _outcome(read_summary, path) == (FormatError, message)


def test_a_file_that_shrinks_while_read_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "shrunk.pkhv"
    path.write_bytes(_header() + _FLAT_PAYLOAD[:-1])
    real_fstat = os.fstat

    def fstat_before_the_shrink(fd):
        stat = real_fstat(fd)
        return SimpleNamespace(st_size=stat.st_size + 1)

    monkeypatch.setattr(os, "fstat", fstat_before_the_shrink)
    message = f"payload ended while being read (byte offset {_FULL_SIZE - 1})"
    assert _outcome(read_volume, path) == (FormatError, message)
    assert _outcome(read_summary, path) == (FormatError, message)


def _whole_payload(path) -> np.ndarray:
    """A volume file's float32 payload, read in one piece."""
    blob = path.read_bytes()
    _, rows, cols, channels = np.frombuffer(blob, "<u4", count=4, offset=4)
    return np.frombuffer(blob, "<f4", offset=20).reshape(channels, rows, cols)


@pytest.mark.parametrize("name", ["synth", "softmax", "three-channel"])
def test_read_volume_equals_the_whole_payload_cast(tmp_path, name):
    rng = np.random.default_rng(17)
    params = SynthParams(frame_rows=72, frame_cols=128, noise=NOISY, seed=1)
    source = {
        "synth": lambda: make_scene(MODEL, params, 0).plan,
        "softmax": lambda: softmax_normalize(rng.normal(0, 3, size=(96, 9, 11))),
        "three-channel": lambda: softmax_normalize(rng.normal(0, 3, size=(3, 5, 4))),
    }[name]
    path = tmp_path / "v.pkhv"
    write_volume(source(), path)
    loaded = read_volume(path).data
    payload = _whole_payload(path)
    for expected in (HeatmapVolume(payload).data, payload.astype(np.float64)):
        assert loaded.shape == expected.shape
        assert np.array_equal(_bits(loaded), _bits(expected))


@pytest.mark.parametrize("build", ["read_volume", "plan.volume"])
def test_a_volume_is_held_once_while_built(tmp_path, build):
    rows, cols = 72, 128
    path = tmp_path / "v.pkhv"
    params = SynthParams(frame_rows=rows, frame_cols=cols, noise=NOISY, seed=3)
    plan = make_scene(MODEL, params, 0).plan
    write_volume(plan, path)
    builder = {"read_volume": lambda: read_volume(path), "plan.volume": plan.volume}
    builder[build]()  # lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        volume = builder[build]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * volume.data.nbytes, peak


def test_read_summary_never_holds_the_payload(tmp_path):
    rows, cols = 72, 128
    path = tmp_path / "v.pkhv"
    params = SynthParams(frame_rows=rows, frame_cols=cols, noise=NOISY, seed=3)
    write_volume(make_scene(MODEL, params, 0).plan, path)
    read_summary(path)  # lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        read_summary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows * cols * 8, peak  # the payload is 96 f32 planes


FULL_SHAPE = (96, 288, 512)


@pytest.fixture(scope="module")
def full_size_file(tmp_path_factory):
    """A volume file of the paper's size: flat, delta, two-valued and softmax planes.

    Written one plane at a time; every cell of a softmax plane is positive.
    """
    channels, rows, cols = FULL_SHAPE
    cells = rows * cols
    rng = np.random.default_rng(288)
    path = tmp_path_factory.mktemp("full") / "mixed.pkhv"
    with open(path, "wb") as handle:
        handle.write(b"PKHV")
        handle.write(np.array([1, rows, cols, channels], "<u4").tobytes())
        for k in range(channels):
            kind = k % 4
            plane = np.full(cells, 1.0 / cells)
            if kind == 1:
                plane[:] = 0.0
                plane[rng.integers(cells)] = 1.0
            elif kind == 2:
                mass = rng.uniform(0.0, 1.0)
                plane[:] = (1.0 - mass) / (cells - 1)
                plane[rng.integers(cells)] = mass
            elif kind == 3:
                logits = rng.normal(0.0, 3.0, cells)
                plane = np.exp(logits - logits.max())
                plane /= plane.sum()
            handle.write(plane.astype("<f4").tobytes())
    return path


def _payload_plane(path, channel) -> np.ndarray:
    """One float32 plane of a FULL_SHAPE file, read on its own."""
    _, rows, cols = FULL_SHAPE
    offset = 20 + 4 * rows * cols * channel
    plane = np.fromfile(path, "<f4", count=rows * cols, offset=offset)
    return plane.reshape(rows, cols)


def test_full_size_reads_match_whole_plane_numpy(full_size_file):
    volume = read_volume(full_size_file)
    entropies, cells = [], []
    for k in range(FULL_SHAPE[0]):
        plane = _payload_plane(full_size_file, k).astype(np.float64)
        assert np.array_equal(_bits(volume.channel(k)), _bits(plane)), k
        # the whole plane at once: one np.log, one product, one np.sum
        positive = plane[plane > 0]
        entropies.append(-(positive * np.log(positive)).sum())
        cells.append(int(plane.argmax()))
    for summary in (read_summary(full_size_file), summarize(volume)):
        assert (summary.rows, summary.cols) == FULL_SHAPE[1:]
        assert np.array_equal(_bits(summary.entropies), _bits(entropies))
        assert summary.cells == tuple(cells)


def test_full_size_reads_hold_no_float64_plane(full_size_file):
    plane = FULL_SHAPE[1] * FULL_SHAPE[2] * 4  # bytes of one float32 plane
    read_summary(full_size_file)  # lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        read_summary(full_size_file)
        summary_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        volume = read_volume(full_size_file)
        volume_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float32 plane and a float64 leaf, below one float64 plane
    assert summary_peak < 2 * plane, summary_peak
    assert volume_peak < volume.data.nbytes + plane + 10**6, volume_peak
