"""Property tests over random inputs: the m x m Schmidt path over slit
states, and the CSV and JSON writers' value kernels over float64 bit
patterns."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from oracles import gram_weights_oracle, grid_schmidt, grid_state_momentum  # noqa: E402
from qmodes.interference import DetectorParams, SlitParams, slit_state  # noqa: E402
from qmodes.numerics import make_grid  # noqa: E402
from qmodes.schmidt import schmidt, schmidt_number  # noqa: E402
from qmodes.g12 import g12_rows  # noqa: E402
from qmodes.shortest import repr_rows  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 8),
    a=st.floats(3.0, 6.0),
    b=st.floats(0.0, 2.0),
    sigma_xi=st.floats(0.3, 1.0),
)
def test_weights_are_the_oracle_distribution(m, a, b, sigma_xi):
    slits = SlitParams(a=a, sigma_x=0.5, m=m)
    det = DetectorParams(b=b, sigma_xi=sigma_xi)
    weights = schmidt(slit_state(slits, det.overlap)).weights
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - 1e-12 <= schmidt_number(weights) <= m + 1e-12
    oracle = gram_weights_oracle(m, a, 0.5, b, sigma_xi)
    assert np.max(np.abs(weights - oracle[: weights.size])) < 1e-10
    assert np.all(oracle[weights.size :] < 1e-12)
    pg = make_grid(0.0, 9.0, 512)
    dg = make_grid(0.0, 9.0 / (2.0 * sigma_xi), 512)
    grid, _, _ = grid_schmidt(grid_state_momentum(slits, det, pg, dg))
    assert grid.size == weights.size
    assert np.max(np.abs(weights - grid)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 8),
    a=st.floats(1e-4, 1.0),
    b=st.floats(0.0, 2.0),
    sigma_xi=st.floats(0.3, 1.0),
)
def test_overlapping_slits_match_the_grid_reference(m, a, b, sigma_xi):
    # a < 2 sigma_x: the slit overlap matrix is ill-conditioned and its small
    # eigenvalues are dropped
    slits = SlitParams(a=a, sigma_x=0.5, m=m)
    det = DetectorParams(b=b, sigma_xi=sigma_xi)
    weights = schmidt(slit_state(slits, det.overlap)).weights
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert 1.0 - 1e-12 <= schmidt_number(weights) <= m + 1e-12
    oracle = gram_weights_oracle(m, a, 0.5, b, sigma_xi)
    assert np.max(np.abs(weights - oracle[: weights.size])) < 1e-10
    pg = make_grid(0.0, 9.0, 2048)
    dg = make_grid(0.0, 9.0 / (2.0 * sigma_xi), 2048)
    grid, _, _ = grid_schmidt(grid_state_momentum(slits, det, pg, dg))
    common = min(grid.size, weights.size)
    assert np.max(np.abs(weights[:common] - grid[:common])) < 1e-10
    assert np.all(grid[common:] < 1e-10) and np.all(weights[common:] < 1e-10)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(2, 8),
    a=st.floats(3.0, 6.0),
    sigma_xi=st.floats(0.3, 1.0),
    bs=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=5),
)
def test_schmidt_number_grows_with_coupling(m, a, sigma_xi, bs):
    slits = SlitParams(a=a, sigma_x=0.5, m=m)
    ks = [schmidt_number(schmidt(slit_state(slits, DetectorParams(b, sigma_xi).overlap)).weights) for b in sorted(bs)]
    assert all(k2 >= k1 - 1e-9 for k1, k2 in zip(ks, ks[1:]))
    assert all(1.0 - 1e-12 <= k <= m + 1e-12 for k in ks)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 8),
    separation=st.floats(6.0, 12.0),
    sigma_xi=st.floats(0.3, 1.0),
    bs=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6),
)
def test_separated_slits_reach_m_modes(m, separation, sigma_xi, bs):
    # a >= 6 sigma_x: the slit overlaps are <= exp(-4.5), so the weights
    # approach 1/m once the detector states are orthogonal
    slits = SlitParams(a=separation * 0.5, sigma_x=0.5, m=m)
    ks = [schmidt_number(schmidt(slit_state(slits, DetectorParams(b, sigma_xi).overlap)).weights) for b in sorted(bs)]
    assert all(k2 >= k1 - 1e-9 for k1, k2 in zip(ks, ks[1:]))
    k_far = schmidt_number(schmidt(slit_state(slits, DetectorParams(20.0 * sigma_xi, sigma_xi).overlap)).weights)
    assert m * (1.0 - 1e-3) <= k_far <= m + 1e-12


# every float64: random bit patterns reach every exponent, subnormals and
# NaN payloads; floats() adds the edges (+/-0, +/-inf, nan, extremes)
FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.floats(width=64),
)


@seed(812_4808)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(block=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)), elements=FLOAT64))
def test_g12_rows_is_pythons_formatting_of_any_float64(block):
    expected = "".join(",".join("%.12g" % v for v in row) + "\n" for row in block.tolist())
    assert g12_rows(block) == expected


@seed(812_4808)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(block=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)), elements=FLOAT64))
def test_repr_rows_is_pythons_repr_of_any_float64(block):
    seps = [b","] * (block.shape[1] - 1) + [b";\n"]
    expected = "".join(",".join(repr(v) for v in row) + ";\n" for row in block.tolist())
    assert repr_rows(block, seps) == expected.encode("ascii")
