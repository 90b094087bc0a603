"""Property tests: the minimal-sample solver makes the SVD's rank decisions.

``_fit_block`` solves an eight-equation design (a zero ninth row) by QR
wherever QR certifies the rank test ``s[7] / s[0] < 1e-8``, and leaves every
other design to the SVD. Over drawn designs (random point and line samples,
line-only samples, samples with three collinear wall key-points, and designs
whose ``s[7] / s[0]`` lies within a few percent of 1e-8) it must give the
SVD's deficient flag and, for a full-rank design, the SVD's null vector up
to sign. The named cases pin each branch: certified full rank, certified
deficient, a null vector with h9 = 0 (all three solved by QR), the band
between the bounds and nine equations (both left to the SVD). Over whole
RANSAC runs, no eight-equation design reaches the SVD outside the band.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_homography import _mixed_set  # noqa: E402

from poolkey import RansacParams, homography  # noqa: E402
from poolkey.homography import (  # noqa: E402
    _minimal_null_vectors,
    _svd_null_vectors,
    fit_ransac,
)


def _design(points, lines) -> np.ndarray:
    """The (9, 9) design of (u, v, x, y) point pairs and (u, v, y) lines, in
    that order, with its rows past the equations left zero."""
    rows = []
    for u, v, x, y in points:
        rows.append([u, v, 1.0, 0.0, 0.0, 0.0, -x * u, -x * v, -x])
        rows.append([0.0, 0.0, 0.0, u, v, 1.0, -y * u, -y * v, -y])
    for u, v, y in lines:
        rows.append([0.0, 0.0, 0.0, u, v, 1.0, -y * u, -y * v, -y])
    design = np.zeros((9, 9))
    design[: len(rows)] = rows
    return design


def _with_spectrum(singular, seed: int) -> np.ndarray:
    """An eight-row design with the given singular values and random
    singular vectors, padded with a zero ninth row."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    v, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    design = np.zeros((9, 9))
    design[:8] = (u * np.asarray(singular)) @ v[:, :8].T
    return design


def _rho(design: np.ndarray) -> float:
    """The certificate: 1 / (|A|_F |A^+|_F), from the singular values."""
    s = np.linalg.svd(design, compute_uv=False)[:8]
    return 1.0 / np.sqrt((s**2).sum() * (1.0 / s**2).sum())


def _assert_svd_decision(design: np.ndarray) -> None:
    """The solver's flag is the SVD's ``s[7] / s[0] < 1e-8``, and a full-rank
    design gets the SVD's null vector up to sign."""
    null, deficient = _minimal_null_vectors(design[None])
    _, s, vt = np.linalg.svd(design)
    ratio = s[7] / s[0]
    assert deficient[0] == (ratio < 1e-8)
    assert np.isfinite(null).all()
    if not deficient[0]:
        expected = vt[-1]
        got = null[0] * np.sign(null[0] @ expected)
        # both solvers are backward stable: the null vectors of two designs
        # an ulp apart differ by about eps * s[0] / s[7]
        bound = 1e-10 + np.finfo(float).eps / ratio
        assert np.abs(got - expected).max() < bound


def _svd_calls(monkeypatch) -> list[int]:
    """The number of designs each call hands on to ``_svd_null_vectors``."""
    calls = []

    def spy(design):
        calls.append(len(design))
        return _svd_null_vectors(design)

    monkeypatch.setattr(homography, "_svd_null_vectors", spy)
    return calls


def _map(rng):
    theta, scale = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
    c, s = scale * np.cos(theta), scale * np.sin(theta)
    p1, p2 = rng.uniform(-0.2, 0.2, size=2)
    tx, ty = rng.uniform(-1, 1, size=2)
    return np.array([[c, -s, tx], [s, c, ty], [p1, p2, 1.0]])


def _apply(m, u, v):
    x, y, w = m @ [u, v, 1.0]
    return x / w, y / w


@settings(max_examples=400, deadline=None, database=None)
@given(
    kind=st.sampled_from(["random", "line-only", "collinear", "threshold"]),
    points=st.integers(0, 4),
    offset=st.floats(-0.05, 0.05),
    middle=st.sampled_from([None, 1e-4, 1e-2, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_minimal_solver_makes_the_svds_rank_decision(
    kind, points, offset, middle, seed
):
    rng = np.random.default_rng(seed)
    truth = _map(rng)
    points = {"line-only": 0, "collinear": max(points, 3), "threshold": 4}.get(
        kind, points
    )
    image = rng.uniform(-1.5, 1.5, size=(8, 2))
    if kind == "collinear":
        # three key-points on one wall: collinear in the image and the base
        t = rng.uniform(-1.5, 1.5, size=3)
        image[:3] = np.stack([t, 0.4 * t + rng.uniform(-1, 1)], axis=1)
    pairs = [(u, v, *_apply(truth, u, v)) for u, v in image[:points]]
    lines = [(u, v, _apply(truth, u, v)[1]) for u, v in image[points : 8 - points]]
    design = _design(pairs, lines)
    if kind == "threshold":
        # s[7] / s[0] within 5 % of the tolerance; ``middle`` squeezes s[1:7]
        # to s[0] * middle, where the certificate can decide
        s = np.linalg.svd(design, compute_uv=False)[:8]
        if middle is not None:
            s[1:7] = s[0] * middle
        s[7] = s[0] * 1e-8 * (1.0 + offset)
        design = _with_spectrum(s, seed)
    _assert_svd_decision(design)


def _four_points(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    truth = _map(rng)
    return _design(
        [(u, v, *_apply(truth, u, v)) for u, v in rng.uniform(-1.5, 1.5, (4, 2))], []
    )


def test_a_well_conditioned_design_is_certified_full_rank(monkeypatch):
    calls = _svd_calls(monkeypatch)
    design = _four_points(1)
    assert _rho(design) >= 1.01e-8
    _assert_svd_decision(design)
    assert calls == [0]


@pytest.mark.parametrize("case", ["collinear", "line-only"])
def test_a_degenerate_design_is_certified_deficient(monkeypatch, case):
    calls = _svd_calls(monkeypatch)
    if case == "collinear":
        design = _design([(t, 2 * t + 1, 3 * t, t - 1) for t in (-1, 0, 0.5, 1)], [])
    else:
        design = _design([], [(u, u * u, u - 1) for u in np.linspace(-1, 1, 8)])
    assert 8 * _rho(design) < 0.99e-8
    null, deficient = _minimal_null_vectors(design[None])
    assert deficient.tolist() == [True]
    assert np.isfinite(null).all()
    assert calls == [0]


@pytest.mark.parametrize(
    "singular, deficient",
    [
        # inside the band: rho below 1.01e-8 and 8 rho at least 0.99e-8
        ([1, 1, 1, 1, 9e-9, 9e-9, 9e-9, 9e-9], True),
        ([1, 1, 1, 1, 1.1e-8, 1.1e-8, 1.1e-8, 1.1e-8], False),
        # inside the 1 % margins, where the certificate alone would decide
        ([1] + [1e-4] * 6 + [1.005e-8], False),
        ([1] + [1e-4] * 6 + [1.24e-9], True),
    ],
    ids=["band-deficient", "band-full", "margin-full", "margin-deficient"],
)
def test_the_band_between_the_bounds_falls_back_to_the_svd(
    monkeypatch, singular, deficient
):
    design = _with_spectrum(singular, 7)
    rho = _rho(design)
    assert rho < 1.01e-8 and 8 * rho >= 0.99e-8
    calls = _svd_calls(monkeypatch)
    null, flags = _minimal_null_vectors(design[None])
    assert calls == [1]
    assert flags.tolist() == [deficient]
    assert np.array_equal(null, _svd_null_vectors(design[None])[0])


def test_a_null_vector_with_h9_zero_is_solved_by_qr(monkeypatch):
    # a zero eighth column: full rank, and its null vector has h9 = 0, which
    # no solve that fixes h9 = 1 can reach
    design = _with_spectrum(np.linspace(1.0, 0.2, 8), 3)
    design[:8, 7] = 0.0
    assert _rho(design) >= 1.01e-8
    calls = _svd_calls(monkeypatch)
    _assert_svd_decision(design)
    assert calls == [0]


def test_nine_equations_stay_on_the_svd(monkeypatch):
    rng = np.random.default_rng(5)
    truth = _map(rng)
    pairs = [(u, v, *_apply(truth, u, v)) for u, v in rng.uniform(-1.5, 1.5, (4, 2))]
    u, v = rng.uniform(-1.5, 1.5, 2)
    design = _design(pairs, [(u, v, _apply(truth, u, v)[1] + 0.01)])
    stack = np.stack([design, _four_points(2)])
    calls = _svd_calls(monkeypatch)
    null, deficient = _minimal_null_vectors(stack)
    assert calls == [1]
    svd_null, svd_deficient = _svd_null_vectors(design[None])
    assert np.array_equal(null[:1], svd_null)
    assert np.array_equal(deficient[:1], svd_deficient)


@pytest.mark.parametrize("line_share", [0.0, 0.4], ids=["points", "points-lines"])
def test_ransac_hands_the_svd_no_eight_equation_design(monkeypatch, line_share):
    designs = []

    def spy(design):
        designs.append(design.copy())
        return _svd_null_vectors(design)

    monkeypatch.setattr(homography, "_svd_null_vectors", spy)
    for seed in range(4):
        fit_ransac(_mixed_set(seed, 0.3, line_share), RansacParams(seed=seed))
    assert designs
    # no eight-equation sample of these runs lies in the band, so each one
    # gets its null vector from QR, whether it is full rank or deficient
    for design in designs:
        assert design[:, 8].any(axis=1).all()
