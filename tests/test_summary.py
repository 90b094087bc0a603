"""Channel summaries: the streamed file reader against the whole-volume path."""

import numpy as np
import pytest

from poolkey import (
    DecodeParams,
    FormatError,
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
    make_scene,
    read_volume,
    softmax_normalize,
    tolerance_sweep,
    write_volume,
)
from poolkey.heatmap import read_summary

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
    summary = read_summary(path)
    rows, cols, entropies, cells = _reference_summary(path)
    assert (summary.rows, summary.cols) == (rows, cols)
    # bit for bit, not merely equal: -0.0 and 0.0 differ here
    assert np.array_equal(_bits(summary.entropies), _bits(entropies))
    volume = read_volume(path)
    seed = [_seed_entropy(volume.channel(k)) for k in range(volume.channels)]
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
            f"channel {worst} sums to {sums[worst]!r}, expected 1 within 1e-06"
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

    return {
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
