"""Visibility extraction, the coherence qubit and the uniform-source model."""

import numpy as np
import pytest

from oracles import (
    GridState,
    SampledWave,
    grid_schmidt,
    source_visibility,
    span,
    symmetric,
    two_slit_intensity,
    visibility_from_intensity,
)
from qmodes.coherence import k_from_v, source_coherence, visibility
from qmodes.interference import (
    MOMENTUM,
    SlitParams,
    basis_density,
    detector_overlap,
    slit_basis,
    slit_state,
)
from qmodes.numerics import quadrature
from qmodes.schmidt import analytic_two_slit_weights, entropy, schmidt, schmidt_number

A, SIGMA = 5.0, 0.5
SLITS = SlitParams(a=A, sigma_x=SIGMA, m=2)
# the source sizes of the fig6-data scenario
CATALOG_Y = (0.0, 0.0625, 0.125, 0.1875, 0.25)


def fine_momentum_grid(n=4001, half=10.0):
    return symmetric(half, n)


def momentum_marginal(density, grid):
    """The momentum marginal of the two-slit state of density matrix D = ``density``."""
    basis = slit_basis(SLITS, grid.points, MOMENTUM)
    return SampledWave(grid, basis_density(basis, density))


def qubit_state(phi):
    """The coherence qubit's density matrix: the two-slit state whose qubit
    states overlap by cos 2 phi."""
    return slit_state(SLITS, np.cos(2.0 * phi))


def qubit_grid_state(phi, grid):
    """The qubit branches env(p) cos(p a +/- phi) sampled on the grid, normalized
    by quadrature; the qubit axis is a two-point grid whose weights are both 1."""
    p = grid.points
    env = np.exp(-(SIGMA**2) * p**2)
    amp = np.stack([env * np.cos(p * A + phi), env * np.cos(p * A - phi)], axis=1)
    qubit = span(0.0, 2.0, 2)
    state = GridState(grid, qubit, amp, np.eye(2))
    return GridState(grid, qubit, amp / state.norm(), np.eye(2))


class TestVisibilityExtraction:
    def test_ideal_two_slit_pattern(self):
        g = fine_momentum_grid()
        wave = SampledWave(g, two_slit_intensity(A, SIGMA, g.points))
        assert visibility_from_intensity(wave, A, SIGMA) == pytest.approx(1.0, abs=1e-3)

    def test_damped_marginal(self):
        marg = momentum_marginal(slit_state(SLITS, detector_overlap(0.5, 0.5)), fine_momentum_grid())
        v = visibility_from_intensity(marg, A, SIGMA)
        assert v == pytest.approx(np.exp(-0.5), abs=1e-3)

    def test_balanced_phase_mixture_washes_out(self):
        g = fine_momentum_grid()
        p = g.points
        env = np.exp(-2 * SIGMA**2 * p**2)
        pattern = 0.5 * env * (np.cos(p * A + np.pi / 4) ** 2 + np.cos(p * A - np.pi / 4) ** 2)
        v = visibility_from_intensity(SampledWave(g, pattern), A, SIGMA)
        assert v == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("n", [1024, 2048])
    @pytest.mark.parametrize("b", [0.3, 0.7])
    def test_least_squares_fit_recovers_exact_modulation(self, n, b):
        # the fig2 grids: the marginal is env * (1 + exp(-b^2/2 sigma_xi^2) cos 2ap)
        # exactly, so the fit leaves only round-off
        grid = symmetric(9.0, n)
        v = visibility_from_intensity(momentum_marginal(slit_state(SLITS, detector_overlap(b, 0.5)), grid), A, SIGMA)
        assert v == pytest.approx(np.exp(-(b**2) / (2.0 * 0.5**2)), rel=0.0, abs=1e-12)

    def test_fit_is_phase_blind(self):
        # a shifted fringe keeps its visibility: the sine term carries the shift
        g = fine_momentum_grid()
        p = g.points
        pattern = np.exp(-2 * SIGMA**2 * p**2) * (1.0 + 0.6 * np.cos(2.0 * A * p + 0.4))
        v = visibility_from_intensity(SampledWave(g, pattern), A, SIGMA)
        assert v == pytest.approx(0.6, abs=1e-12)

    def test_coarse_grid_rejected(self):
        g = symmetric(10.0, 64)
        wave = SampledWave(g, two_slit_intensity(A, SIGMA, g.points))
        with pytest.raises(ValueError, match="samples per period"):
            visibility_from_intensity(wave, A, SIGMA)


class TestQubitCoherenceState:
    def test_zero_phase_is_product(self):
        density = qubit_state(0.0)
        # the qubit states coincide: S_xi is all ones, and D = S_xi / sum(S_x o S_xi)
        assert np.array_equal(density / density[0, 0], np.ones((2, 2)))
        weights, _ = schmidt(SLITS, density)
        assert schmidt_number(weights) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_phase_is_maximally_mixed(self):
        weights, _ = schmidt(SLITS, qubit_state(np.pi / 4.0))
        assert schmidt_number(weights) == pytest.approx(2.0, abs=1e-12)

    def test_normalization(self):
        # N (u_0 v_0 + u_1 v_1) sampled from the slit basis is the pair of
        # branches env cos(p a +/- phi), normalized
        phi, grid = 0.3, fine_momentum_grid()
        state = qubit_state(phi)
        v0 = np.array([np.exp(1j * phi), np.exp(-1j * phi)]) / np.sqrt(2.0)
        qubit = np.stack([v0, v0.conj()])
        norm_sq = 1.0 / (2.0 + 2.0 * SLITS.overlap * np.cos(2.0 * phi))
        amp = np.sqrt(norm_sq) * slit_basis(SLITS, grid.points, MOMENTUM) @ qubit
        assert quadrature(np.sum(np.abs(amp) ** 2, axis=1), grid.spacing) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(amp - qubit_grid_state(phi, grid).amplitudes)) < 1e-12

    def test_universal_coupling_sweep(self):
        grid = fine_momentum_grid(8193)
        worst = 0.0
        for phi in np.linspace(0.0, np.pi / 2.0, 9):
            state = qubit_state(float(phi))
            v = visibility_from_intensity(momentum_marginal(state, grid), A, SIGMA)
            k = schmidt_number(schmidt(SLITS, state)[0])
            weights, _, _ = grid_schmidt(qubit_grid_state(float(phi), grid))
            assert schmidt_number(weights) == pytest.approx(k, abs=1e-12)
            worst = max(worst, abs(k - k_from_v(v)))
        assert worst < 1e-6

    def test_ensemble_visibility_is_cos_two_phi(self):
        grid = fine_momentum_grid(8193)
        for phi in np.linspace(0.0, np.pi / 2.0, 13):
            state = qubit_state(float(phi))
            v = visibility_from_intensity(momentum_marginal(state, grid), A, SIGMA)
            assert v == pytest.approx(abs(np.cos(2.0 * phi)), abs=1e-4)

    def test_marginal_normalized_over_qubit_axis(self):
        state = qubit_state(0.7)
        marg = momentum_marginal(state, fine_momentum_grid())
        assert quadrature(marg.amplitudes, marg.grid.spacing) == pytest.approx(1.0, abs=1e-12)


class TestCouplingFormulas:
    def test_endpoints(self):
        assert k_from_v(1.0) == pytest.approx(1.0, rel=1e-15)
        assert k_from_v(0.0) == pytest.approx(2.0, rel=1e-15)

    def test_reference_value(self):
        assert k_from_v(np.exp(-0.5)) == pytest.approx(1.4621, abs=5e-5)

    def test_round_trip(self):
        # V = sqrt((2 - K) / K) inverts K = 2 / (1 + V^2)
        for v in np.linspace(0.0, 1.0, 101):
            k = k_from_v(float(v))
            assert np.sqrt((2.0 - k) / k) == pytest.approx(v, abs=1e-12)

    def test_array_form_is_the_scalar_form_bitwise(self):
        fig7 = source_visibility(np.linspace(0.0, 0.5, 257))
        # the coherence scenario's 17 visibilities, read from its states
        phis = np.linspace(0.0, np.pi / 2.0, 17)
        sweep = visibility(np.stack([qubit_state(phi) for phi in phis]))
        for v in (fig7, sweep):
            k = k_from_v(v)
            assert k.shape == v.shape
            assert k.tobytes() == np.array([k_from_v(float(t)) for t in v]).tobytes()
        assert isinstance(k_from_v(0.3), float) and isinstance(k_from_v(np.float64(0.3)), float)

    def test_every_visibility_k_from_v_receives_lies_in_0_1(self):
        # k_from_v checks no range: it receives |sinc 4y| or a two-slit
        # state's visibility fl(|gamma/t|)/fl(1/t), and monotone rounding keeps
        # both in [0, 1] exactly, also for slits closing just past the fringe
        # bound and at every phase of the qubit
        phis = np.linspace(0.0, np.pi / 2.0, 1025)
        received = [np.abs(source_coherence(np.linspace(0.0, 0.5, 257)))]
        for a in (A, 1e-4, 3e-5, 1e-5):
            slits = SlitParams(a=a, sigma_x=SIGMA, m=2)
            received.append(visibility(np.stack([slit_state(slits, g) for g in np.cos(2.0 * phis)])))
            received.append(visibility(np.stack([slit_state(slits, source_coherence(y)) for y in CATALOG_Y])))
        for v in received:
            assert np.all((0.0 <= v) & (v <= 1.0))
            k = k_from_v(v)
            assert np.all((1.0 <= k) & (k <= 2.0))

    def test_entropy_endpoints(self):
        # the two-mode weights ((1 + V)/2, (1 - V)/2) of orthogonal slit states
        assert entropy((1.0, 0.0)) == 0.0
        assert entropy((0.5, 0.5)) == pytest.approx(1.0, rel=1e-15)

    def test_entropy_reference(self):
        v = np.exp(-0.5)
        assert entropy(((1.0 + v) / 2.0, (1.0 - v) / 2.0)) == pytest.approx(0.7153, abs=5e-5)

    def test_weight_matches_slit_model(self):
        # lambda_0 = (1 + V)/2 with V = exp(-b^2/2 sigma_xi^2) for separated slits
        for b in (0.0, 0.5, 1.0, 2.0):
            v = np.exp(-b**2 / (2.0 * 0.5**2))
            lam0, _ = analytic_two_slit_weights(SLITS, b, 0.5)
            assert lam0 == pytest.approx((1.0 + v) / 2.0, abs=1e-4)


class TestSourceModel:
    def test_point_source(self):
        assert source_visibility(0.0) == 1.0
        assert k_from_v(source_visibility(0.0)) == 1.0

    def test_first_zero(self):
        assert source_visibility(0.25) == pytest.approx(0.0, abs=1e-15)
        assert k_from_v(source_visibility(0.25)) == pytest.approx(2.0, abs=1e-15)

    def test_half_lobe_value(self):
        # sinc(0.5) = 2/pi with the normalized convention
        assert source_visibility(0.125) == pytest.approx(2.0 / np.pi, rel=1e-12)
        k = k_from_v(source_visibility(0.125))
        assert k == pytest.approx(2.0 / (1.0 + 4.0 / np.pi**2), rel=1e-12)
        assert k == pytest.approx(1.423199, abs=1e-6)

    def test_schmidt_number_bounds(self):
        y = np.linspace(0.0, 3.0, 601)
        k = np.array([k_from_v(source_visibility(float(t))) for t in y])
        assert np.all(k >= 1.0 - 1e-12)
        assert np.all(k <= 2.0 + 1e-12)
        for zero in (0.25, 0.5, 0.75):
            assert k_from_v(source_visibility(zero)) == pytest.approx(2.0, abs=1e-12)

    def test_array_form_is_the_scalar_form_bitwise(self):
        y = np.linspace(0.0, 0.5, 257)  # the fig7 grid
        v = source_visibility(y)
        k = k_from_v(v)
        assert v.shape == k.shape == y.shape
        assert v.tobytes() == np.array([source_visibility(float(t)) for t in y]).tobytes()
        assert k.tobytes() == np.array([k_from_v(source_visibility(float(t))) for t in y]).tobytes()
        assert isinstance(source_visibility(0.1), float) and isinstance(k_from_v(source_visibility(0.1)), float)

    def test_consistency_with_coupling(self):
        # separated slits: the closed form is the state's decomposition,
        # through the contrast reversals of y in (1/4, 1/2) and (3/4, 1)
        for y in np.linspace(0.0, 1.0, 41):
            k = schmidt_number(schmidt(SLITS, slit_state(SLITS, source_coherence(float(y))))[0])
            assert k_from_v(source_visibility(float(y))) == pytest.approx(k, rel=1e-12)


class TestSourceState:
    """The uniform source as the two-slit state of overlap source_coherence(y)."""

    def test_coherence_is_signed_and_visibility_its_magnitude(self):
        y = np.linspace(0.0, 0.5, 257)  # the fig7 grid
        assert np.array_equal(source_visibility(y), np.abs(source_coherence(y)))
        assert source_coherence(0.375) < 0.0
        assert source_coherence(0.375) == pytest.approx(-2.0 / (3.0 * np.pi), rel=1e-12)

    @pytest.mark.parametrize("y", CATALOG_Y)
    def test_schmidt_number_is_the_closed_form(self, y):
        k = schmidt_number(schmidt(SLITS, slit_state(SLITS, source_coherence(y)))[0])
        assert k == pytest.approx(k_from_v(source_visibility(y)), rel=0.0, abs=1e-12)

    def test_contrast_reversal_puts_a_minimum_at_the_centre(self):
        # gamma < 0 for y in (1/4, 1/2): the central fringe turns dark
        grid = fine_momentum_grid(8193)
        density = momentum_marginal(slit_state(SLITS, source_coherence(0.375)), grid).amplitudes
        centre = grid.points.size // 2
        assert grid.points[centre] == 0.0
        assert density[centre] < min(density[centre - 1], density[centre + 1])
        bright = np.abs(np.abs(grid.points) - np.pi / (2.0 * A)).argsort()[:2]
        assert np.all(density[bright] > density[centre])
        assert visibility_from_intensity(
            SampledWave(grid, density), A, SIGMA
        ) == pytest.approx(source_visibility(0.375), abs=1e-4)
