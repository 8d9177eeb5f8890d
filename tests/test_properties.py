"""Property tests of the factored Schmidt decomposition over random slit states."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qmodes.interference import DetectorParams, SlitParams, joint_state_momentum  # noqa: E402
from qmodes.numerics import make_grid  # noqa: E402
from qmodes.schmidt import numerical_schmidt, schmidt_number  # noqa: E402
from test_schmidt import gram_weights_oracle  # noqa: E402


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
    pg = make_grid(0.0, 9.0, 512)
    dg = make_grid(0.0, 9.0 / (2.0 * sigma_xi), 512)
    weights = numerical_schmidt(joint_state_momentum(slits, det, pg, dg)).weights
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - 1e-12 <= schmidt_number(weights) <= m + 1e-12
    oracle = gram_weights_oracle(m, a, 0.5, b, sigma_xi)
    assert np.max(np.abs(weights - oracle[: weights.size])) < 1e-10
    assert np.all(oracle[weights.size :] < 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(2, 8),
    a=st.floats(3.0, 6.0),
    sigma_xi=st.floats(0.3, 1.0),
    bs=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=5),
)
def test_schmidt_number_grows_with_coupling(m, a, sigma_xi, bs):
    slits = SlitParams(a=a, sigma_x=0.5, m=m)
    pg = make_grid(0.0, 9.0, 2048)
    dg = make_grid(0.0, 9.0 / (2.0 * sigma_xi), 2048)
    ks = [
        schmidt_number(numerical_schmidt(joint_state_momentum(slits, DetectorParams(b, sigma_xi), pg, dg)).weights)
        for b in sorted(bs)
    ]
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
    a = separation * 0.5
    ks = [schmidt_number(gram_weights_oracle(m, a, 0.5, b, sigma_xi)) for b in sorted(bs)]
    assert all(k2 >= k1 - 1e-9 for k1, k2 in zip(ks, ks[1:]))
    k_far = schmidt_number(gram_weights_oracle(m, a, 0.5, 20.0 * sigma_xi, sigma_xi))
    assert m * (1.0 - 1e-3) <= k_far <= m + 1e-12
