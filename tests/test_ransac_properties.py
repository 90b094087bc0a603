"""Property tests: the block RANSAC kernel against the per-draw loop.

Over drawn sets, budgets and seeds, ``fit_ransac`` must give the per-draw
reference's statistics exactly, the stop at the first full consensus
included, and its map and mask bit for bit unless two consensus sets of
eight equations tie.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_homography import _mixed_set, _reference_ransac  # noqa: E402

from poolkey import (  # noqa: E402
    NoModelError,
    PoolConfig,
    RansacParams,
    build_base_model,
    build_correspondences,
    perfect_detections,
)
from poolkey.homography import MIN_EQUATIONS, fit_ransac  # noqa: E402
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
    if not np.array_equal(fit.inlier_mask, expected[1]):
        # two consensus sets of eight equations tie on size; each is its own
        # minimal sample, fit exactly, so the residual sums breaking the tie
        # are rounding noise, which the batched and the scalar fit round apart
        equations = np.array([c.equations for c in corrs])
        assert equations[fit.inlier_mask].sum() == MIN_EQUATIONS
        assert equations[expected[1]].sum() == MIN_EQUATIONS
        return
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
