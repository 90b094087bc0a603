"""Property tests: a PeakPlan written straight to disk against its built volume.

write_volume(plan) builds, checks and casts the flat plane once for every
flat channel. Every drawn plan must give the bytes of the volume it describes,
and an invalid plan the same PoolError, with no file left behind.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poolkey import HeatmapVolume, PoolError, write_volume  # noqa: E402
from poolkey.heatmap import CHANNEL_SUM_TOLERANCE, PeakPlan  # noqa: E402

EXAMPLES = settings(max_examples=40, deadline=None, database=None)

INVALID_MASS = st.one_of(
    st.floats(min_value=1.0, exclude_min=True),
    st.floats(max_value=-math.ulp(0.0)),
    st.just(math.nan),
)


@st.composite
def _plans(draw) -> PeakPlan:
    """Grids up to 5x6, with every channel, no channel or some channels flat."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cells = rows * cols
    planned = draw(
        st.one_of(
            st.just([]),
            st.just(list(range(PeakPlan.channels))),
            st.lists(st.integers(0, PeakPlan.channels - 1), min_size=1, unique=True),
        )
    )
    mass = st.one_of(st.just(1.0 / cells), st.just(1.0), st.floats(1.0 / cells, 1.0))
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return PeakPlan(rows, cols, {c: (*draw(cell), draw(mass)) for c in planned})


def _reference_data(plan: PeakPlan) -> np.ndarray:
    """Each channel built on its own, as the PeakPlan docstring defines it."""
    cells = plan.rows * plan.cols
    data = np.full((plan.channels, plan.rows, plan.cols), 1.0 / cells)
    for channel, (row, col, mass) in plan.peaks.items():
        data[channel] = (1.0 - mass) / max(cells - 1, 1)
        data[channel, row, col] = mass
    return data


def _written(build, path):
    """The file written from build(), or the error's type and message."""
    try:
        write_volume(build(), path)
    except PoolError as exc:
        assert not path.exists()
        return type(exc), str(exc)
    return path.read_bytes()


def _outcomes(plan: PeakPlan, root) -> list:
    """The plan written straight, through its volume, and as its reference volume."""
    return [
        _written(lambda: plan, root / "plan.pkhv"),
        _written(plan.volume, root / "volume.pkhv"),
        _written(lambda: HeatmapVolume(_reference_data(plan)), root / "reference.pkhv"),
    ]


@EXAMPLES
@given(plan=_plans())
def test_a_plan_writes_the_bytes_of_its_volume(tmp_path_factory, plan):
    streamed, built, reference = _outcomes(plan, tmp_path_factory.mktemp("plan"))
    assert streamed == built == reference
    header = (1, plan.rows, plan.cols, plan.channels)
    words = b"".join(n.to_bytes(4, "little") for n in header)
    assert streamed == b"PKHV" + words + _reference_data(plan).astype("<f4").tobytes()


@EXAMPLES
@given(
    plan=_plans(),
    channel=st.integers(0, PeakPlan.channels - 1),
    mass=INVALID_MASS,
    data=st.data(),
)
def test_an_invalid_mass_is_the_same_error_from_every_path(
    tmp_path_factory, plan, channel, mass, data
):
    cell = st.tuples(st.integers(0, plan.rows - 1), st.integers(0, plan.cols - 1))
    peaks = {**plan.peaks, channel: (*data.draw(cell), mass)}
    plan = PeakPlan(plan.rows, plan.cols, peaks)
    # an exception other than PoolError escapes _written and fails the test
    streamed, built, reference = _outcomes(plan, tmp_path_factory.mktemp("bad"))
    assert streamed == built == reference
    # a one-cell grid holds its mass alone, so a mass within the tolerance is valid
    within = plan.rows * plan.cols == 1 and 0 < mass - 1.0 <= CHANNEL_SUM_TOLERANCE
    assert isinstance(streamed, tuple) != within, streamed
