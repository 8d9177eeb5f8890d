"""Schmidt decompositions of slit states: the m x m overlap path against the
two-slit closed forms, the overlap oracle and the grid reference."""

import numpy as np
import pytest

from oracles import (
    Detector,
    GridState,
    SampledWave,
    gram_weights_oracle,
    grid_schmidt,
    grid_state_coordinate,
    grid_state_momentum,
    reconstruct_marginal,
    span,
    symmetric,
    trapezoid_weights,
    two_slit_gamma_weights,
    two_slit_schmidt,
)
from qmodes.interference import SlitParams, basis_density, detector_overlap, momentum_basis, slit_state
from qmodes.numerics import quadrature
from qmodes.schmidt import (
    analytic_two_slit_weights,
    entropy,
    information,
    schmidt,
    schmidt_number,
)

A, SIGMA = 5.0, 0.5
FIG3_SLITS = SlitParams(a=A, sigma_x=SIGMA, m=2)
FIG3_DET = Detector(b=0.5, sigma_xi=0.5)


def momentum_grids(n=512, half=10.0):
    return symmetric(half, n), symmetric(half, n)


def modes_on(grid, slits, coefficients):
    return momentum_basis(slits, grid.points) @ coefficients


def momentum_marginal(slits, density, grid):
    basis = momentum_basis(slits, grid.points)
    return SampledWave(grid, basis_density(basis, density))


class TestAnalyticTwoSlit:
    def test_reference_weights(self):
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, *FIG3_DET)
        assert lam0 == pytest.approx(0.8033, abs=5e-5)
        assert lam1 == pytest.approx(0.1967, abs=5e-5)
        assert lam0 + lam1 == pytest.approx(1.0, rel=1e-14)

    def test_uncoupled_detector_gives_pure_state(self):
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, 0.0, 0.5)
        assert lam0 == pytest.approx(1.0, abs=1e-15)
        assert lam1 == pytest.approx(0.0, abs=1e-15)

    def test_strong_coupling_limit_is_uniform(self):
        lam0, lam1 = analytic_two_slit_weights(
            SlitParams(a=50.0, sigma_x=0.5, m=2), 50.0, 0.5
        )
        assert lam0 == pytest.approx(0.5, abs=1e-12)
        assert lam1 == pytest.approx(0.5, abs=1e-12)
        # and so are the numerical weights, equal to 1e-10
        slits = SlitParams(a=8.0, sigma_x=0.5, m=2)
        weights, _ = schmidt(slits, slit_state(slits, detector_overlap(8.0, 0.5)))
        assert np.allclose(weights, 0.5, atol=1e-10)

    def test_small_weight_keeps_its_relative_accuracy(self):
        # 1 - e_a - e_b + e_a e_b loses lambda_1 ~ 1e-14 to rounding in e_b
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, 1e-7, 0.5)
        e_a = mpmath.exp(-mpmath.mpf(A) ** 2 / (2 * mpmath.mpf(SIGMA) ** 2))
        e_b = mpmath.exp(-mpmath.mpf(1e-7) ** 2 / (2 * mpmath.mpf(0.5) ** 2))
        denom = 2 * (1 + e_a * e_b)
        assert lam1 == pytest.approx(float((1 - e_a) * (1 - e_b) / denom), rel=1e-14, abs=0.0)
        assert lam0 == pytest.approx(float((1 + e_a) * (1 + e_b) / denom), rel=1e-15, abs=0.0)

    def test_modes_orthonormal(self):
        pg, dg = momentum_grids()
        _, modes_x, modes_xi = two_slit_schmidt(FIG3_SLITS, FIG3_DET, pg, dg)
        for modes in (modes_x, modes_xi):
            for i in range(2):
                for j in range(2):
                    inner = quadrature(
                        modes[i].amplitudes.conj() * modes[j].amplitudes, modes[i].grid.spacing
                    )
                    assert abs(inner - (1.0 if i == j else 0.0)) < 1e-6


class TestNumericalSchmidt:
    """The m x m path, checked against the closed forms, the overlap oracle
    and the grid reference's QR + SVD of a sampled joint state."""

    def test_two_slit_reference_case(self):
        weights, _ = schmidt(FIG3_SLITS, slit_state(FIG3_SLITS, detector_overlap(*FIG3_DET)))
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, *FIG3_DET)
        assert len(weights) == 2
        assert abs(weights[0] - lam0) < 1e-14
        assert abs(weights[1] - lam1) < 1e-14
        assert schmidt_number(weights) == pytest.approx(1.4621, abs=5e-5)
        assert entropy(weights) == pytest.approx(0.7153, abs=5e-5)

    def test_five_slit_reference_case(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=5)
        weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*FIG3_DET)))
        oracle = gram_weights_oracle(5, A, SIGMA, 0.5, 0.5)
        assert len(weights) == 5
        assert np.max(np.abs(weights - oracle)) < 1e-14
        grid, _, _ = grid_schmidt(grid_state_momentum(slits, FIG3_DET, *momentum_grids(512)))
        assert np.max(np.abs(weights - grid)) < 1e-8
        reported = np.array([0.4434, 0.3063, 0.1640, 0.0666, 0.0197])
        assert np.max(np.abs(weights - reported)) < 1e-4
        assert schmidt_number(weights) == pytest.approx(3.1043, abs=2e-4)
        assert entropy(weights) == pytest.approx(1.8429, abs=2e-4)

    @pytest.mark.parametrize(
        "gamma, rel",
        [(-1.0, 0.0), (-(1.0 - 1e-6), 1e-9), (-0.9, 1e-14), (-0.5, 1e-14), (0.0, 1e-14), (0.5, 1e-14), (1.0, 0.0)],
    )
    def test_two_slit_schmidt_number_at_any_overlap_down_to_closing_slits(self, gamma, rel):
        # the weights are the eigenvalues over their sum, so no rounding of
        # N^2 = 1/(2 + 2 q gamma) reaches them, which cancels as q -> 1 at
        # gamma = -1.  From a just above 1e-6, where ``check_fringes``, the
        # truncation's bound for two slits, refuses them
        for a in np.geomspace(1.1e-6, 5.0, 40):
            slits = SlitParams(a=float(a), sigma_x=0.5, m=2)
            k = schmidt_number(schmidt(slits, slit_state(slits, gamma))[0])
            lam_plus, lam_minus = two_slit_gamma_weights(a, 0.5, gamma)
            expected = 1.0 / (lam_plus**2 + lam_minus**2)
            assert abs(k - expected) <= rel * expected, a

    def test_gram_oracle_matches_svd_for_various_m(self):
        for m, b in ((2, 0.3), (3, 0.5), (4, 0.8), (6, 0.25)):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            det = Detector(b=b, sigma_xi=0.5)
            weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*det)))
            grid, _, _ = grid_schmidt(grid_state_momentum(slits, det, *momentum_grids(384)))
            oracle = gram_weights_oracle(m, A, SIGMA, b, 0.5)
            assert np.max(np.abs(weights - oracle[: len(weights)])) < 1e-14
            assert np.max(np.abs(weights - grid)) < 1e-8

    def test_uncoupled_state_single_weight(self):
        for m in (2, 3, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            weights, _ = schmidt(slits, slit_state(slits, detector_overlap(0.0, 0.5)))
            assert len(weights) == 1
            assert weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_weight_count_is_m_for_coupled_states(self):
        for m in (2, 3, 4, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*FIG3_DET)))
            assert len(weights) == m

    def test_weights_sum_to_one_and_modes_orthonormal(self):
        for m in (2, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            weights, c = schmidt(slits, slit_state(slits, detector_overlap(*FIG3_DET)))
            assert weights.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(c.T @ slits.overlaps @ c - np.eye(m))) < 1e-13
            pg, _ = momentum_grids()
            modes = modes_on(pg, slits, c)
            overlaps = modes.conj().T @ (trapezoid_weights(pg)[:, None] * modes)
            assert np.max(np.abs(overlaps - np.eye(m))) < 1e-12

    def test_modes_match_analytic(self):
        pg, dg = momentum_grids()
        _, coefficients = schmidt(FIG3_SLITS, slit_state(FIG3_SLITS, detector_overlap(*FIG3_DET)))
        _, modes_x, _ = two_slit_schmidt(FIG3_SLITS, FIG3_DET, pg, dg)
        modes = modes_on(pg, FIG3_SLITS, coefficients)
        for k in range(2):
            overlap = quadrature(np.conj(modes[:, k]) * modes_x[k].amplitudes, pg.spacing)
            assert abs(overlap) > 1.0 - 1e-12

    def test_analytic_agreement_sweep(self):
        worst = worst_grid = 0.0
        pg, dg = momentum_grids(256, half=11.0)
        for a in range(1, 9):
            for b in np.arange(0.0, 2.01, 0.25):
                slits = SlitParams(a=float(a), sigma_x=0.5, m=2)
                det = Detector(b=float(b), sigma_xi=0.5)
                weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*det)))
                lam = np.array(analytic_two_slit_weights(slits, *det))[: len(weights)]
                grid, _, _ = grid_schmidt(grid_state_momentum(slits, det, pg, dg))
                worst = max(worst, np.max(np.abs(weights - lam)))
                worst_grid = max(worst_grid, np.max(np.abs(grid[:2] - lam[: len(grid)][:2])))
        assert worst < 1e-14
        assert worst_grid < 1e-6

    def test_measures_bounded_and_monotone_in_b(self):
        for m in (2, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            previous_k, previous_s = None, None
            for b in np.arange(0.0, 3.01, 0.5):
                weights, _ = schmidt(slits, slit_state(slits, detector_overlap(float(b), 0.5)))
                k = schmidt_number(weights)
                s = entropy(weights)
                assert k <= m + 1e-9
                assert s <= np.log2(m) + 1e-9
                if previous_k is not None:
                    assert k >= previous_k - 1e-9
                    assert s >= previous_s - 1e-9
                previous_k, previous_s = k, s

    def test_representation_invariance(self):
        # the grid reference gives the same weights from either representation
        lam, _ = schmidt(FIG3_SLITS, slit_state(FIG3_SLITS, detector_overlap(*FIG3_DET)))
        mom, _, _ = grid_schmidt(grid_state_momentum(FIG3_SLITS, FIG3_DET, *momentum_grids(512)))
        xg, dg = symmetric(10, 512), symmetric(5.5, 512)
        coord, _, _ = grid_schmidt(grid_state_coordinate(FIG3_SLITS, FIG3_DET, xg, dg))
        for weights in (mom, coord):
            assert abs(schmidt_number(weights) - schmidt_number(lam)) < 1e-6
            assert abs(entropy(weights) - entropy(lam)) < 1e-6

    @pytest.mark.parametrize("n", (1024, 8192))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_gram_oracle_sweep(self, m, n):
        pg, dg = momentum_grids(n)
        slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
        for b in (0.0, 0.3, 0.7, 1.5):
            det = Detector(b, 0.5)
            weights, _ = schmidt(slits, slit_state(slits, detector_overlap(*det)))
            grid, _, _ = grid_schmidt(grid_state_momentum(slits, det, pg, dg))
            rank = m if b > 0 else 1
            assert len(weights) == len(grid) == rank
            oracle = gram_weights_oracle(m, A, SIGMA, b, 0.5)
            assert np.max(np.abs(weights - oracle[:rank])) < 1e-12
            assert np.max(np.abs(weights - grid)) < 1e-12

    @pytest.mark.parametrize("shape", [(40, 2, None), (40, 40, None), (40, 30, 3)])
    def test_generic_complex_state_matches_dense_svd(self, shape):
        """The grid reference on dense states (identity right factor) and a complex factor pair."""
        n_x, n_xi, rank = shape
        rng = np.random.default_rng(n_xi)
        pg, dg = symmetric(3.0, n_x), span(-1.0, 3.0, n_xi)
        cols = n_xi if rank is None else rank
        left = rng.normal(size=(n_x, cols)) + 1j * rng.normal(size=(n_x, cols))
        if rank is None:
            right = np.eye(n_xi)
        else:
            right = rng.normal(size=(n_xi, rank)) + 1j * rng.normal(size=(n_xi, rank))
        state = GridState(pg, dg, left, right)
        state = GridState(pg, dg, state.left / state.norm(), state.right)
        weights, phi, chi = grid_schmidt(state, threshold=0.0)

        kept = min(n_x, n_xi) if rank is None else rank
        assert len(weights) == kept
        psi = state.amplitudes
        wx, wxi = trapezoid_weights(pg), trapezoid_weights(dg)
        s = np.linalg.svd(np.sqrt(wx)[:, None] * psi * np.sqrt(wxi), compute_uv=False)
        assert np.max(np.abs(weights - s[:kept] ** 2)) < 1e-13
        assert weights.sum() == pytest.approx(1.0, rel=1e-13)
        for modes, w in ((phi, wx), (chi, wxi)):
            overlaps = modes.T @ (w[:, None] * modes.conj())
            assert np.max(np.abs(overlaps - np.eye(modes.shape[1]))) < 1e-12
        rebuilt = (phi * np.sqrt(weights)) @ chi.T
        assert np.max(np.abs(rebuilt - psi)) < 1e-12 * np.max(np.abs(psi))


class TestMeasures:
    def test_uniform_pair(self):
        w = (0.5, 0.5)
        assert entropy(w) == pytest.approx(1.0, rel=1e-12)
        assert schmidt_number(w) == pytest.approx(2.0, rel=1e-12)
        assert information(w) == pytest.approx(1.0, rel=1e-12)

    def test_pure(self):
        assert entropy([1.0]) == 0.0
        assert schmidt_number([1.0]) == pytest.approx(1.0, rel=1e-12)
        assert information([1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_reference_pair(self):
        w = (0.8033, 0.1967)
        assert entropy(w) == pytest.approx(0.7153, abs=1e-4)
        assert schmidt_number(w) == pytest.approx(1.4621, abs=1e-4)


class TestMixtureAndDensity:
    def test_mixture_identity(self):
        pg, _ = momentum_grids()
        for m in (2, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            density = slit_state(slits, detector_overlap(*FIG3_DET))
            mixture = reconstruct_marginal(*schmidt(slits, density), momentum_basis(slits, pg.points))
            direct = momentum_marginal(slits, density, pg)
            assert np.max(np.abs(mixture - direct.amplitudes)) < 1e-14

    def test_single_mode_mixture(self):
        pg, _ = momentum_grids()
        weights, coefficients = schmidt(FIG3_SLITS, slit_state(FIG3_SLITS, detector_overlap(0.0, 0.5)))
        mixture = reconstruct_marginal(weights, coefficients, momentum_basis(FIG3_SLITS, pg.points))
        mode_sq = np.abs(modes_on(pg, FIG3_SLITS, coefficients)[:, 0]) ** 2
        assert np.max(np.abs(mixture - mode_sq * weights[0])) < 1e-12

    def test_mixture_combines_cos_and_sin_densities(self):
        pg, dg = momentum_grids()
        weights, modes_x, _ = two_slit_schmidt(FIG3_SLITS, FIG3_DET, pg, dg)
        mixture = sum(lam * np.abs(mode.amplitudes) ** 2 for lam, mode in zip(weights, modes_x))
        direct = momentum_marginal(FIG3_SLITS, slit_state(FIG3_SLITS, detector_overlap(*FIG3_DET)), pg)
        assert np.max(np.abs(mixture - direct.amplitudes)) < 1e-8
