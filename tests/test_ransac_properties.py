"""Property tests: the block RANSAC kernel against the per-draw loop, and
``estimate_dlt`` against the scalar DLT.

Over drawn sets, budgets and seeds, ``fit_ransac`` must give the per-draw
reference's statistics exactly, the stop at the first full consensus
included, and its map and mask bit for bit. Both score a consensus of
exactly eight equations 0.0, so no rounding of its residuals breaks a tie.
``estimate_dlt`` must give the scalar reference's map bit for bit, or its
error type and message. Within ``MAX_PX``, every fit returns or raises a
``PoolError`` without a numpy warning, and a minimal sample of fewer than
three fixed points never gives a usable hypothesis.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_homography import (  # noqa: E402
    _mixed_set,
    _reference_dlt,
    _reference_ransac,
)

from poolkey import (  # noqa: E402
    Correspondence,
    NoModelError,
    PoolConfig,
    PoolError,
    RansacParams,
    build_base_model,
    build_correspondences,
    estimate_dlt,
    perfect_detections,
)
from poolkey.homography import _fit_block, fit_ransac  # noqa: E402
from poolkey.model import MAX_PX  # noqa: E402
from poolkey.synth import SynthParams, make_scene  # noqa: E402

EXAMPLES = settings(max_examples=50, deadline=None, database=None)


@EXAMPLES
@given(
    n=st.integers(5, 40),
    outlier_share=st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5]),
    line_share=st.sampled_from([0.0, 0.2, 0.4, 0.7]),
    iterations=st.integers(1, 600),
    seed=st.integers(0, 2**16),
)
def test_block_ransac_matches_the_per_draw_loop(
    n, outlier_share, line_share, iterations, seed
):
    corrs = _mixed_set(seed, outlier_share, line_share, n=n)
    params = RansacParams(iterations=iterations, seed=seed)
    try:
        expected = _reference_ransac(corrs, params)
    except NoModelError:
        with pytest.raises(NoModelError):
            fit_ransac(corrs, params)
        return
    fit = fit_ransac(corrs, params)
    assert (fit.draws, fit.degenerate_draws, fit.consensus_size) == expected[2:]
    assert np.array_equal(fit.inlier_mask, expected[1])
    assert np.array_equal(fit.homography.matrix, expected[0].matrix)


def test_tied_consensus_sets_of_eight_equations_keep_the_earlier_draw():
    # each of the four draws fits four points exactly and counts four
    # inliers; their residual sums, rounding noise of about 1e-12, once broke
    # the tie one way in the batched kernel and another in the per-draw loop
    corrs = _mixed_set(4, 0.5, 0.0, n=5)
    params = RansacParams(iterations=4, seed=4)
    expected = _reference_ransac(corrs, params)
    fit = fit_ransac(corrs, params)
    assert fit.consensus_size == 4
    # the first draw's consensus: correspondences 0, 1, 2 and 4
    assert fit.inlier_mask.tolist() == [True, True, True, False, True]
    assert np.array_equal(fit.inlier_mask, expected[1])
    assert np.array_equal(fit.homography.matrix, expected[0].matrix)


@EXAMPLES
@given(view=st.sampled_from(["full", "partial"]), seed=st.integers(0, 2**16))
def test_a_clean_frame_stops_before_the_budget(view, seed):
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    scene = make_scene(model, SynthParams(view=view, seed=seed), 0)
    corrs, _ = build_correspondences(perfect_detections(scene.annotation), model, 20.0)
    params = RansacParams()
    fit = fit_ransac(corrs, params)
    assert fit.inlier_mask.all()
    assert fit.consensus_size == len(corrs)
    assert fit.draws < params.iterations


def _dlt_outcome(fit, corrs):
    """The map's bytes, or the type and message of the error raised."""
    try:
        return fit(corrs).matrix.tobytes()
    except PoolError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(4, 60),
    line_share=st.sampled_from([0.0, 0.2, 0.5, 0.7, 0.9]),
    extent=st.sampled_from([2.0, 30.0, 500.0, 1e4]),
    rounded_share=st.sampled_from([0.0, 0.5, 1.0]),
    degenerate=st.sampled_from([None, None, None, "collinear", "coincident", "lines"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_dlt_is_the_scalar_dlt_bit_for_bit(
    n, line_share, extent, rounded_share, degenerate, seed
):
    # the base normalizer sums over the fixed points alone: summed over
    # every row with the line rows as zeros, numpy groups its pairwise sum
    # another way and the map moves in the last bits
    rng = np.random.default_rng(seed)
    coords = rng.uniform(1.0, extent, size=(n, 4))
    rounded = rng.random(n) < rounded_share
    coords[rounded] = np.round(coords[rounded])
    # four fixed points, unless the set is to be rank-deficient
    is_line = (rng.random(n) < line_share) & (np.arange(n) >= 4)
    if degenerate == "collinear":
        coords[:, 1] = 0.5 * coords[:, 0] + 1.0
    elif degenerate == "coincident":
        coords[1:] = coords[0]
    elif degenerate == "lines":
        is_line[2:] = True
    corrs = []
    for (u, v, x, y), line, whole in zip(coords.tolist(), is_line, rounded):
        if whole:  # Python ints, as a JSON file may hold
            u, v, x, y = int(u), int(v), int(x), int(y)
        if line:
            corrs.append(Correspondence.on_line((u, v), y))
        else:
            corrs.append(Correspondence.point((u, v), (x, y)))
    assert _dlt_outcome(estimate_dlt, corrs) == _dlt_outcome(_reference_dlt, corrs)


BOUNDED = st.one_of(
    st.sampled_from([MAX_PX, -MAX_PX, 0.0]),
    st.floats(-MAX_PX, MAX_PX),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    coords=st.lists(st.tuples(*[BOUNDED] * 4), min_size=4, max_size=16),
    line_share=st.sampled_from([0.0, 0.2, 0.4, 0.6]),
    gap=st.sampled_from([None, 0.0, 2e-12, 1e-6]),
    seed=st.integers(0, 2**16),
)
def test_fits_within_the_bound_raise_no_warning(coords, line_share, gap, seed):
    # image points gap px apart on one line, coincident at a gap of 0: a few
    # 1e-12 px apart at +-MAX_PX they give the image normalizer its largest
    # scale and shift, and the de-normalized map its largest entries
    lines = round(line_share * len(coords))
    corrs = []
    for i, (u, v, x, y) in enumerate(coords):
        image = (u, v) if gap is None else (coords[0][0], coords[0][1] + i * gap)
        if i < lines:
            corrs.append(Correspondence.on_line(image, y))
        else:
            corrs.append(Correspondence.point(image, (x, y)))
    params = RansacParams(iterations=64, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (estimate_dlt, lambda c: fit_ransac(c, params)):
            try:
                fit(corrs)
            except PoolError:
                pass


DECADES = st.floats(-4, 6).map(lambda e: 10.0**e)
OFFSETS = st.tuples(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))


@settings(max_examples=300, deadline=None, database=None)
@given(
    counts=st.sampled_from([(0, 8), (1, 6), (1, 7), (2, 4), (2, 5)]),
    image_scale=DECADES,
    base_scale=DECADES,
    image_offset=OFFSETS,
    base_offset=OFFSETS,
    seed=st.integers(0, 2**32 - 1),
)
def test_minimal_samples_of_fewer_than_three_points_are_degenerate(
    counts, image_scale, base_scale, image_offset, base_offset, seed
):
    # the y-equations of the points and lines bind h4..h9 alone: they force
    # those to 0, and the map is singular, or they leave a null direction
    points, lines = counts
    n = points + lines
    rng = np.random.default_rng(seed)
    image = np.add(image_offset, image_scale * rng.uniform(-1, 1, size=(n, 2)))
    base = np.add(base_offset, base_scale * rng.uniform(-1, 1, size=(n, 2)))
    base[points:, 0] = 0.0  # a line's base point is (0, its ordinate)
    equations = np.array([2] * points + [1] * lines)
    sample = rng.permutation(n)[None]
    _, degenerate = _fit_block(sample, np.array([n]), image, base, equations)
    assert degenerate[0]
