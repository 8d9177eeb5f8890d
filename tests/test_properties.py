"""Property tests over random inputs: the m x m Schmidt path over slit
states, its stacked form against one state at a time, the closed-form
two-qubit Schmidt number against the eigensolved Hamiltonian, and the CSV
and JSON text of the value kernel over float64 bit patterns."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from oracles import (  # noqa: E402
    Detector,
    build_two_qubit,
    gram_weights_oracle,
    grid_schmidt,
    grid_state_momentum,
    ground_state_entanglement,
    python_text,
    symmetric,
    two_level_energies,
)
from qmodes.interference import SlitParams, detector_overlap, slit_state  # noqa: E402
from qmodes.numerics import MAX_SLITS, NonHermitianError  # noqa: E402
from qmodes.schmidt import (  # noqa: E402
    DEFAULT_TRUNCATION,
    InvalidWeightsError,
    schmidt,
    schmidt_number,
    schmidt_stack,
)
from qmodes.text import format_rows  # noqa: E402
from qmodes.tunneling import (  # noqa: E402
    AMMONIA_EQUILIBRIUM,
    AMMONIA_SPLITTING,
    fit_potential,
    two_level_splitting,
    two_qubit_schmidt_number,
)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 8),
    a=st.floats(3.0, 6.0),
    b=st.floats(0.0, 2.0),
    sigma_xi=st.floats(0.3, 1.0),
)
def test_weights_are_the_oracle_distribution(m, a, b, sigma_xi):
    slits = SlitParams(a=a, sigma_x=0.5, m=m)
    det = Detector(b=b, sigma_xi=sigma_xi)
    weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*det)))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - 1e-12 <= schmidt_number(weights) <= m + 1e-12
    oracle = gram_weights_oracle(m, a, 0.5, b, sigma_xi)
    assert np.max(np.abs(weights - oracle[: weights.size])) < 1e-10
    assert np.all(oracle[weights.size :] < 1e-12)
    pg = symmetric(9.0, 512)
    dg = symmetric(9.0 / (2.0 * sigma_xi), 512)
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
    det = Detector(b=b, sigma_xi=sigma_xi)
    weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*det)))
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert 1.0 - 1e-12 <= schmidt_number(weights) <= m + 1e-12
    oracle = gram_weights_oracle(m, a, 0.5, b, sigma_xi)
    assert np.max(np.abs(weights - oracle[: weights.size])) < 1e-10
    pg = symmetric(9.0, 2048)
    dg = symmetric(9.0 / (2.0 * sigma_xi), 2048)
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
    ks = [schmidt_number(schmidt(slits, slit_state(slits, detector_overlap(b, sigma_xi)))[0]) for b in sorted(bs)]
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
    ks = [schmidt_number(schmidt(slits, slit_state(slits, detector_overlap(b, sigma_xi)))[0]) for b in sorted(bs)]
    assert all(k2 >= k1 - 1e-9 for k1, k2 in zip(ks, ks[1:]))
    k_far = schmidt_number(schmidt(slits, slit_state(slits, detector_overlap(20.0 * sigma_xi, sigma_xi)))[0])
    assert m * (1.0 - 1e-3) <= k_far <= m + 1e-12


def one_state_weights(slits, density):
    """Schmidt weights of one state from 2-D products and eigensolves only."""
    mu, e = np.linalg.eigh(slits.overlaps)
    kept = mu > DEFAULT_TRUNCATION * mu[-1]
    half = e[:, kept] * np.sqrt(mu[kept])
    lam = np.linalg.eigh(half.T @ density @ half)[0][::-1]
    return lam[: max(int(np.sum(lam >= DEFAULT_TRUNCATION)), 1)]


def decomposes(slits, density):
    try:
        schmidt(slits, density)
    except NonHermitianError:
        return False
    return True


def number_or_invalid(weights):
    try:
        return schmidt_number(weights)
    except InvalidWeightsError:
        return "invalid"


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(st.integers(2, 8), st.just(MAX_SLITS)),
    # a / sigma_x: below about 2 the slits overlap and S_x loses eigenvalues
    ratio=st.floats(1e-4, 12.0),
    gammas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
)
def test_stacked_decompositions_are_each_states_bit_for_bit(m, ratio, gammas):
    slits = SlitParams(a=0.5 * ratio, sigma_x=0.5, m=m)
    states = np.stack([slit_state(slits, g) for g in gammas])
    # twice a density matrix has weights that sum to 2: invalid in the stack too
    densities = np.concatenate([states, 2.0 * states[:1]])
    if not all(decomposes(slits, density) for density in states):
        # near gamma = -1 overlapping slits leave a state of tiny norm, whose
        # reduced matrix rounds too far from symmetric; the stack says so too
        with pytest.raises(NonHermitianError):
            schmidt_stack(slits, densities)
        return
    stacked = schmidt_stack(slits, densities)
    for density, (weights, coefficients) in zip(states, stacked):
        single_weights, single_coefficients = schmidt(slits, density)
        assert weights.tobytes() == single_weights.tobytes() == one_state_weights(slits, density).tobytes()
        assert coefficients.tobytes() == single_coefficients.tobytes()
        assert number_or_invalid(weights) == number_or_invalid(single_weights)
    with pytest.raises(InvalidWeightsError):
        schmidt_number(stacked[-1][0])


# every float64: random bit patterns reach every exponent, subnormals and
# NaN payloads; floats() adds the edges (+/-0, +/-inf, nan, extremes)
FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.floats(width=64),
)


BLOCKS = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)), elements=FLOAT64)


def check_text(block, fmt, last):
    seps = [b","] * (block.shape[1] - 1) + [last]
    assert format_rows(block, seps, fmt) == python_text(block, seps, fmt)


@seed(812_4808)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(block=BLOCKS)
def test_g12_rows_is_pythons_formatting_of_any_float64(block):
    check_text(block, "csv", b"\n")


@seed(812_4808)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(block=BLOCKS)
def test_repr_rows_is_pythons_repr_of_any_float64(block):
    check_text(block, "json", b";\n")


@settings(max_examples=60, deadline=None)
@given(
    fit_mass=st.floats(1.0, 20.0),
    reduced=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8),
)
def test_two_qubit_closed_form_is_the_eigensolved_hamiltonian(fit_mass, reduced):
    # couplings in reduced units g0 / (4 sqrt(pi) sigma_x (E1 - E0)); the
    # blocks' crossing lies below -341 for every fit mass up to 20
    well = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, fit_mass)
    splitting = two_level_splitting(well)
    g0 = np.array(reduced) * splitting * 4.0 * np.sqrt(np.pi) * well.sigma_x
    k = two_qubit_schmidt_number(well, splitting, g0)
    oracle = ground_state_entanglement(build_two_qubit(*two_level_energies(well), well, g0))
    np.testing.assert_allclose(k, oracle, rtol=1e-12, atol=0.0)
    assert np.all((1.0 <= k) & (k <= 2.0))
