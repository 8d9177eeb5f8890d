"""Analytic and numerical Schmidt decompositions, measures, marginals."""

import numpy as np
import pytest

from oracles import two_slit_schmidt
from qmodes.interference import (
    DetectorParams,
    JointState,
    SlitParams,
    joint_state_coordinate,
    joint_state_momentum,
    marginal_momentum_density,
    slit_centers,
    spot_centers,
)
from qmodes.numerics import make_grid, quadrature, trapezoid_weights
from qmodes.schmidt import (
    InvalidWeightsError,
    analytic_two_slit_weights,
    entropy,
    information,
    numerical_schmidt,
    reconstruct_marginal,
    schmidt_number,
)

A, SIGMA = 5.0, 0.5
FIG3_SLITS = SlitParams(a=A, sigma_x=SIGMA, m=2)
FIG3_DET = DetectorParams(b=0.5, sigma_xi=0.5)


def momentum_grids(n=512, half=10.0):
    return make_grid(0, half, n), make_grid(0, half, n)


def fig3_state(n=512):
    pg, dg = momentum_grids(n)
    return joint_state_momentum(FIG3_SLITS, FIG3_DET, pg, dg)


def gram_weights_oracle(m, a, sigma_x, b, sigma_xi):
    """Schmidt weights from the m x m slit-overlap problem.

    The state is (1/sqrt m) sum_j u_j (x) v_j with Gaussian slit/spot modes
    whose overlaps are closed-form.  Orthogonalizing with the symmetric
    square root W of the slit Gram matrix reduces the particle density
    operator to the m x m matrix N^2 W S_xi W whose eigenvalues are the
    weights.  Entirely independent of grids and SVD.
    """
    cx = slit_centers(m, a)
    cxi = spot_centers(m, b)
    s_x = np.exp(-np.subtract.outer(cx, cx) ** 2 / (8.0 * sigma_x**2))
    s_xi = np.exp(-np.subtract.outer(cxi, cxi) ** 2 / (8.0 * sigma_xi**2))
    vals, vecs = np.linalg.eigh(s_x)
    w_half = (vecs * np.sqrt(vals)) @ vecs.T
    norm_sq = 1.0 / np.sum(s_x * s_xi)
    lam = np.linalg.eigvalsh(norm_sq * w_half @ s_xi @ w_half)
    return np.sort(lam)[::-1]


class TestAnalyticTwoSlit:
    def test_reference_weights(self):
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, FIG3_DET)
        assert lam0 == pytest.approx(0.8033, abs=5e-5)
        assert lam1 == pytest.approx(0.1967, abs=5e-5)
        assert lam0 + lam1 == pytest.approx(1.0, rel=1e-14)

    def test_uncoupled_detector_gives_pure_state(self):
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, DetectorParams(0.0, 0.5))
        assert lam0 == pytest.approx(1.0, abs=1e-15)
        assert lam1 == pytest.approx(0.0, abs=1e-15)

    def test_strong_coupling_limit_is_uniform(self):
        lam0, lam1 = analytic_two_slit_weights(
            SlitParams(a=50.0, sigma_x=0.5, m=2), DetectorParams(50.0, 0.5)
        )
        assert lam0 == pytest.approx(0.5, abs=1e-12)
        assert lam1 == pytest.approx(0.5, abs=1e-12)

    def test_modes_orthonormal(self):
        pg, dg = momentum_grids()
        dec = two_slit_schmidt(FIG3_SLITS, FIG3_DET, pg, dg)
        for modes in (dec.particle_modes, dec.detector_modes):
            for i in range(2):
                for j in range(2):
                    inner = quadrature(
                        modes[i].amplitudes.conj() * modes[j].amplitudes, modes[i].grid
                    )
                    assert abs(inner - (1.0 if i == j else 0.0)) < 1e-6


class TestNumericalSchmidt:
    def test_two_slit_reference_case(self):
        dec = numerical_schmidt(fig3_state())
        lam0, lam1 = analytic_two_slit_weights(FIG3_SLITS, FIG3_DET)
        assert len(dec.weights) == 2
        assert abs(dec.weights[0] - lam0) < 1e-6
        assert abs(dec.weights[1] - lam1) < 1e-6
        assert schmidt_number(dec.weights) == pytest.approx(1.4621, abs=5e-5)
        assert entropy(dec.weights) == pytest.approx(0.7153, abs=5e-5)

    def test_five_slit_reference_case(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=5)
        pg, dg = momentum_grids(512)
        dec = numerical_schmidt(joint_state_momentum(slits, FIG3_DET, pg, dg))
        oracle = gram_weights_oracle(5, A, SIGMA, 0.5, 0.5)
        assert len(dec.weights) == 5
        assert np.max(np.abs(dec.weights - oracle)) < 1e-8
        reported = np.array([0.4434, 0.3063, 0.1640, 0.0666, 0.0197])
        assert np.max(np.abs(dec.weights - reported)) < 1e-4
        assert schmidt_number(dec.weights) == pytest.approx(3.1043, abs=2e-4)
        assert entropy(dec.weights) == pytest.approx(1.8429, abs=2e-4)

    def test_gram_oracle_matches_svd_for_various_m(self):
        for m, b in ((2, 0.3), (3, 0.5), (4, 0.8), (6, 0.25)):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            det = DetectorParams(b=b, sigma_xi=0.5)
            pg, dg = momentum_grids(384)
            dec = numerical_schmidt(joint_state_momentum(slits, det, pg, dg))
            oracle = gram_weights_oracle(m, A, SIGMA, b, 0.5)
            assert np.max(np.abs(dec.weights - oracle[: len(dec.weights)])) < 1e-8

    def test_uncoupled_state_single_weight(self):
        for m in (2, 3, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            state = joint_state_momentum(slits, DetectorParams(0.0, 0.5), *momentum_grids(384))
            dec = numerical_schmidt(state)
            assert len(dec.weights) == 1
            assert dec.weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_weight_count_is_m_for_coupled_states(self):
        for m in (2, 3, 4, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            state = joint_state_momentum(slits, FIG3_DET, *momentum_grids(384))
            dec = numerical_schmidt(state, threshold=1e-10)
            assert len(dec.weights) == m

    def test_weights_sum_to_one_and_modes_orthonormal(self):
        dec = numerical_schmidt(fig3_state())
        assert dec.weights.sum() == pytest.approx(1.0, abs=1e-8)
        for modes in (dec.particle_modes, dec.detector_modes):
            n = len(modes)
            for i in range(n):
                for j in range(n):
                    inner = quadrature(
                        np.conj(modes[i].amplitudes) * modes[j].amplitudes, modes[i].grid
                    )
                    assert abs(inner - (1.0 if i == j else 0.0)) < 1e-6

    def test_modes_match_analytic(self):
        pg, dg = momentum_grids()
        dec = numerical_schmidt(fig3_state())
        ana = two_slit_schmidt(FIG3_SLITS, FIG3_DET, pg, dg)
        for k in range(2):
            overlap = quadrature(
                np.conj(dec.particle_modes[k].amplitudes) * ana.particle_modes[k].amplitudes, pg
            )
            assert abs(overlap) > 1.0 - 1e-6
            overlap_xi = quadrature(
                np.conj(dec.detector_modes[k].amplitudes) * ana.detector_modes[k].amplitudes, dg
            )
            assert abs(overlap_xi) > 1.0 - 1e-6

    def test_analytic_agreement_sweep(self):
        worst = 0.0
        for a in range(1, 9):
            for b in np.arange(0.0, 2.01, 0.25):
                slits = SlitParams(a=float(a), sigma_x=0.5, m=2)
                det = DetectorParams(b=float(b), sigma_xi=0.5)
                pg, dg = momentum_grids(256, half=11.0)
                dec = numerical_schmidt(joint_state_momentum(slits, det, pg, dg))
                lam = np.array(analytic_two_slit_weights(slits, det))
                gap = np.max(np.abs(dec.weights[:2] - lam[: len(dec.weights)][:2]))
                worst = max(worst, gap)
        assert worst < 1e-6

    def test_measures_bounded_and_monotone_in_b(self):
        for m in (2, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            previous_k, previous_s = None, None
            for b in np.arange(0.0, 3.01, 0.5):
                det = DetectorParams(b=float(b), sigma_xi=0.5)
                dec = numerical_schmidt(joint_state_momentum(slits, det, *momentum_grids(256)))
                k = schmidt_number(dec.weights)
                s = entropy(dec.weights)
                assert k <= m + 1e-9
                assert s <= np.log2(m) + 1e-9
                if previous_k is not None:
                    assert k >= previous_k - 1e-9
                    assert s >= previous_s - 1e-9
                previous_k, previous_s = k, s

    def test_representation_invariance(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = DetectorParams(b=0.5, sigma_xi=0.5)
        mom = numerical_schmidt(joint_state_momentum(slits, det, *momentum_grids(512)))
        coord_state = joint_state_coordinate(
            slits, det, make_grid(0, 10, 512), make_grid(0, 5.5, 512)
        )
        coord = numerical_schmidt(coord_state)
        assert abs(schmidt_number(mom.weights) - schmidt_number(coord.weights)) < 1e-6
        assert abs(entropy(mom.weights) - entropy(coord.weights)) < 1e-6

    def test_degenerate_weights_flagged(self):
        slits = SlitParams(a=8.0, sigma_x=0.5, m=2)
        det = DetectorParams(b=8.0, sigma_xi=0.5)
        dec = numerical_schmidt(joint_state_momentum(slits, det, *momentum_grids(512, half=12.0)))
        assert dec.degenerate
        assert np.allclose(dec.weights, 0.5, atol=1e-10)

    @pytest.mark.parametrize("n", (1024, 8192))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_gram_oracle_sweep(self, m, n):
        pg, dg = momentum_grids(n)
        slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
        for b in (0.0, 0.3, 0.7, 1.5):
            dec = numerical_schmidt(joint_state_momentum(slits, DetectorParams(b, 0.5), pg, dg))
            rank = m if b > 0 else 1
            assert len(dec.weights) == rank
            oracle = gram_weights_oracle(m, A, SIGMA, b, 0.5)
            assert np.max(np.abs(dec.weights - oracle[:rank])) < 1e-12

    @pytest.mark.parametrize("shape", [(40, 2, None), (40, 40, None), (40, 30, 3)])
    def test_generic_complex_state_matches_dense_svd(self, shape):
        """Dense states (identity right factor) and a complex factor pair."""
        n_x, n_xi, rank = shape
        rng = np.random.default_rng(n_xi)
        pg, dg = make_grid(0.0, 3.0, n_x), make_grid(1.0, 2.0, n_xi)
        cols = n_xi if rank is None else rank
        left = rng.normal(size=(n_x, cols)) + 1j * rng.normal(size=(n_x, cols))
        right = None if rank is None else rng.normal(size=(n_xi, rank)) + 1j * rng.normal(size=(n_xi, rank))
        state = JointState(pg, dg, left, "momentum", right)
        state = JointState(pg, dg, state.left / state.norm(), "momentum", state.right)
        dec = numerical_schmidt(state, threshold=0.0)

        kept = min(n_x, n_xi) if rank is None else rank
        assert len(dec.weights) == kept
        psi = state.amplitudes
        wx, wxi = trapezoid_weights(pg), trapezoid_weights(dg)
        s = np.linalg.svd(np.sqrt(wx)[:, None] * psi * np.sqrt(wxi), compute_uv=False)
        assert np.max(np.abs(dec.weights - s[:kept] ** 2)) < 1e-13
        assert dec.weights.sum() == pytest.approx(1.0, rel=1e-13)
        phi = np.stack([mode.amplitudes for mode in dec.particle_modes], axis=1)
        chi = np.stack([mode.amplitudes for mode in dec.detector_modes], axis=1)
        for modes, w in ((phi, wx), (chi, wxi)):
            overlaps = modes.T @ (w[:, None] * modes.conj())
            assert np.max(np.abs(overlaps - np.eye(modes.shape[1]))) < 1e-12
        rebuilt = (phi * np.sqrt(dec.weights)) @ chi.T
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

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeightsError):
            entropy([0.5, 0.4])
        with pytest.raises(InvalidWeightsError):
            schmidt_number([1.2, -0.2])
        with pytest.raises(InvalidWeightsError):
            entropy(np.empty(0))


class TestMixtureAndDensity:
    def test_mixture_identity(self):
        state = fig3_state()
        dec = numerical_schmidt(state)
        mixture = reconstruct_marginal(dec)
        direct = marginal_momentum_density(state)
        assert np.max(np.abs(mixture.amplitudes - direct.amplitudes)) < 1e-8

    def test_single_mode_mixture(self):
        state = joint_state_momentum(FIG3_SLITS, DetectorParams(0.0, 0.5), *momentum_grids())
        dec = numerical_schmidt(state)
        mixture = reconstruct_marginal(dec)
        mode_sq = np.abs(dec.particle_modes[0].amplitudes) ** 2
        assert np.max(np.abs(mixture.amplitudes - mode_sq * dec.weights[0])) < 1e-12

    def test_mixture_combines_cos_and_sin_densities(self):
        pg, dg = momentum_grids()
        ana = two_slit_schmidt(FIG3_SLITS, FIG3_DET, pg, dg)
        mixture = reconstruct_marginal(ana)
        direct = marginal_momentum_density(fig3_state())
        assert np.max(np.abs(mixture.amplitudes - direct.amplitudes)) < 1e-8
