"""Slit wavefunctions, form factors, joint states and their marginals."""

import numpy as np
import pytest

from oracles import conjugate_grid, fourier_to_momentum, single_slit_momentum_density, two_slit_intensity
from qmodes.interference import (
    DetectorParams,
    JointState,
    SlitParams,
    WrongRepresentationError,
    form_factor,
    joint_state_coordinate,
    joint_state_momentum,
    marginal_coordinate_density,
    marginal_momentum_density,
    slit_centers,
    spot_centers,
    two_slit_norm,
)
from qmodes.numerics import SampledWave, make_grid, quadrature

A, SIGMA = 5.0, 0.5


def momentum_grid(n=512, half=10.0):
    return make_grid(0.0, half, n)


def two_slit_state_pair(b, n=512):
    slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
    det = DetectorParams(b=b, sigma_xi=0.5)
    state = joint_state_momentum(slits, det, momentum_grid(n), momentum_grid(n))
    return slits, det, state


class TestSingleSlit:
    def test_peak_value(self):
        assert single_slit_momentum_density(0.5, 0.0) == pytest.approx(
            np.sqrt(2.0 / np.pi) * 0.5, rel=1e-12
        )

    def test_normalization(self):
        g = make_grid(0, 20, 1024)
        assert quadrature(single_slit_momentum_density(0.5, g.points), g) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_variance(self):
        for sigma in (0.3, 0.5, 1.1):
            g = make_grid(0, 30, 4096)
            p = g.points
            var = quadrature(p**2 * single_slit_momentum_density(sigma, p), g)
            assert var == pytest.approx(1.0 / (4.0 * sigma**2), rel=1e-8)


class TestTwoSlitClosedForms:
    def test_well_separated_norm(self):
        assert two_slit_norm(5.0, 0.5) == pytest.approx(1.0 / (1.0 + np.exp(-50.0)), rel=1e-15)

    def test_coincident_slits(self):
        assert two_slit_norm(0.0, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_norm_at_a_equal_sigma(self):
        # frozen from renormalizing the superposed Gaussians numerically
        assert two_slit_norm(1.0, 1.0) == pytest.approx(0.6224593312018546, rel=1e-12)
        g = make_grid(0, 12, 4096)
        x = g.points
        pair = np.exp(-((x - 1.0) ** 2) / 4.0) + np.exp(-((x + 1.0) ** 2) / 4.0)
        raw = quadrature(pair**2 / (np.sqrt(2 * np.pi) * 2.0), g)
        assert two_slit_norm(1.0, 1.0) == pytest.approx(1.0 / raw, rel=1e-10)

    def test_intensity_zeros(self):
        for k in range(3):
            p = np.pi / (2.0 * A) * (2 * k + 1)
            assert two_slit_intensity(A, SIGMA, p) < 1e-15

    def test_coincident_limit_reduces_to_single_slit(self):
        p = np.linspace(-10, 10, 501)
        merged = two_slit_intensity(0.0, SIGMA, p)
        single = single_slit_momentum_density(SIGMA, p)
        assert np.max(np.abs(merged - single)) < 1e-14

    def test_matches_numerical_transform(self):
        grid = make_grid(0, 11, 2048)
        x = grid.points
        c = np.sqrt(two_slit_norm(A, SIGMA))
        amp = (
            c
            * (1.0 / (np.sqrt(2.0 * np.pi) * 2.0 * SIGMA)) ** 0.5
            * (np.exp(-((x - A) ** 2) / (4 * SIGMA**2)) + np.exp(-((x + A) ** 2) / (4 * SIGMA**2)))
        )
        tilde = fourier_to_momentum(SampledWave(grid, amp.astype(complex)))
        expected = two_slit_intensity(A, SIGMA, tilde.grid.points)
        assert np.max(np.abs(np.abs(tilde.amplitudes) ** 2 - expected)) < 1e-6


class TestCenters:
    def test_two_slits(self):
        assert np.allclose(slit_centers(2, 5.0), [-5.0, 5.0])

    def test_five_slits(self):
        assert np.allclose(slit_centers(5, 5.0), [-20, -10, 0, 10, 20])

    def test_four_slits(self):
        assert np.allclose(slit_centers(4, 1.0), [-3, -1, 1, 3])

    def test_spacing_and_symmetry(self):
        for m in range(1, 9):
            c = slit_centers(m, 2.5)
            assert len(c) == m
            assert np.allclose(c + c[::-1], 0.0)
            if m > 1:
                assert np.allclose(np.diff(c), 5.0)

    def test_spots_match_slit_layout(self):
        assert np.allclose(spot_centers(3, 0.5), [-1.0, 0.0, 1.0])


class TestFormFactor:
    def test_limit_at_zero(self):
        for m in (1, 2, 5, 8):
            assert form_factor(0.0, m) == pytest.approx(m, rel=1e-12)
            assert form_factor(1e-9, m) == pytest.approx(m, rel=1e-9)

    def test_two_slit_identity(self):
        eta = np.linspace(-7, 7, 1001)
        assert np.max(np.abs(form_factor(eta, 2) - 2.0 * np.cos(eta))) < 1e-10

    def test_five_slit_value(self):
        assert form_factor(np.pi / 2.0, 5) == pytest.approx(1.0, rel=1e-12)

    def test_continuity_at_removable_singularities(self):
        for m in (2, 3, 5):
            for k in (-2, -1, 1, 2, 3):
                eta0 = k * np.pi
                left = form_factor(eta0 - 1e-8, m)
                center = form_factor(eta0, m)
                right = form_factor(eta0 + 1e-8, m)
                expected = m if (k * (m - 1)) % 2 == 0 else -m
                assert center == pytest.approx(expected, rel=1e-12)
                assert left == pytest.approx(center, rel=1e-7)
                assert right == pytest.approx(center, rel=1e-7)

    def test_bounded_by_m(self):
        eta = np.linspace(-12.0, 12.0, 20001)
        for m in range(1, 9):
            assert np.max(np.abs(form_factor(eta, m))) <= m + 1e-9

    @pytest.mark.parametrize("m", (3, 5, 8))
    @pytest.mark.parametrize("delta", (1.5e-6, 1e-5, 1e-3))
    def test_full_precision_near_removable_singularities(self, m, delta):
        # sin(m eta) / sin(eta) cancels here: m * eta rounds to ~|m eta| eps
        # while sin(m eta) is only ~m delta
        mpmath = pytest.importorskip("mpmath")
        for k in (-3, 1, 2, 7):
            eta = k * np.pi + delta
            with mpmath.workdps(40):
                exact = float(mpmath.sin(m * mpmath.mpf(eta)) / mpmath.sin(mpmath.mpf(eta)))
            assert form_factor(eta, m) == pytest.approx(exact, rel=1e-14, abs=0)


class TestJointStateMomentum:
    def test_no_coupling_factorizes(self):
        _, _, state = two_slit_state_pair(b=0.0)
        s = np.linalg.svd(state.amplitudes, compute_uv=False)
        assert s[1] / s[0] < 1e-10

    def test_matches_two_slit_closed_form(self):
        slits, det, state = two_slit_state_pair(b=0.5)
        p = state.particle_grid.points[:, None]
        q = state.detector_grid.points[None, :]
        c2 = 1.0 / (1.0 + np.exp(-0.5 * (A**2 / SIGMA**2 + det.b**2 / det.sigma_xi**2)))
        closed = (
            2.0
            * np.sqrt(c2)
            / np.sqrt(2.0)
            * np.sqrt(1.0 / (2.0 * np.pi))
            * np.sqrt(2.0 * SIGMA)
            * np.sqrt(2.0 * det.sigma_xi)
            * np.exp(-(SIGMA**2) * p**2)
            * np.exp(-(det.sigma_xi**2) * q**2)
            * np.cos(p * A + q * det.b)
        )
        assert np.max(np.abs(state.amplitudes - closed)) < 1e-10

    def test_normalized(self):
        for m in (1, 2, 3, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            det = DetectorParams(b=0.5, sigma_xi=0.5)
            state = joint_state_momentum(slits, det, momentum_grid(), momentum_grid())
            assert state.norm() == pytest.approx(1.0, abs=1e-8)


class TestJointStateCoordinate:
    def grids(self, m=2, n=512):
        return (
            make_grid(0, (m - 1) * A + 10 * SIGMA, n),
            make_grid(0, (m - 1) * 0.5 + 10 * 0.5, n),
        )

    def test_matches_closed_form(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = DetectorParams(b=0.5, sigma_xi=0.5)
        xg, dg = self.grids()
        state = joint_state_coordinate(slits, det, xg, dg)
        x = xg.points[:, None]
        xi = dg.points[None, :]
        c2 = 1.0 / (1.0 + np.exp(-0.5 * (A**2 / SIGMA**2 + det.b**2 / det.sigma_xi**2)))
        closed = (
            np.sqrt(c2 / 2.0)
            / np.sqrt(2.0 * np.pi * SIGMA * det.sigma_xi)
            * (
                np.exp(-((x - A) ** 2) / (4 * SIGMA**2) - (xi - det.b) ** 2 / (4 * det.sigma_xi**2))
                + np.exp(-((x + A) ** 2) / (4 * SIGMA**2) - (xi + det.b) ** 2 / (4 * det.sigma_xi**2))
            )
        )
        assert np.max(np.abs(state.amplitudes - closed)) < 1e-10

    def test_transform_matches_momentum_state(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = DetectorParams(b=0.5, sigma_xi=0.5)
        xg, dg = self.grids(n=512)
        coord = joint_state_coordinate(slits, det, xg, dg)
        # transform the detector axis, then the particle axis
        half = np.empty(coord.amplitudes.shape, dtype=complex)
        for i in range(xg.n_points):
            half[i] = fourier_to_momentum(SampledWave(dg, coord.amplitudes[i].astype(complex))).amplitudes
        full = np.empty_like(half)
        for j in range(dg.n_points):
            full[:, j] = fourier_to_momentum(SampledWave(xg, half[:, j])).amplitudes
        mom = joint_state_momentum(slits, det, conjugate_grid(xg), conjugate_grid(dg))
        assert np.max(np.abs(full - mom.amplitudes)) < 1e-6

    def test_zero_separation_is_product(self):
        slits = SlitParams(a=1e-12, sigma_x=SIGMA, m=2)
        det = DetectorParams(b=0.0, sigma_xi=0.5)
        xg, dg = self.grids()
        state = joint_state_coordinate(slits, det, xg, dg)
        s = np.linalg.svd(state.amplitudes, compute_uv=False)
        assert s[1] / s[0] < 1e-10


class TestMarginals:
    def closed_momentum_marginal(self, det, p):
        c2 = 1.0 / (1.0 + np.exp(-0.5 * (A**2 / SIGMA**2 + det.b**2 / det.sigma_xi**2)))
        modulation = np.exp(-det.b**2 / (2.0 * det.sigma_xi**2))
        return (
            c2
            * np.sqrt(2.0 / np.pi)
            * SIGMA
            * np.exp(-2.0 * SIGMA**2 * p**2)
            * (1.0 + modulation * np.cos(2.0 * p * A))
        )

    def test_uncoupled_marginal_is_ideal_pattern(self):
        _, _, state = two_slit_state_pair(b=0.0)
        marg = marginal_momentum_density(state)
        expected = two_slit_intensity(A, SIGMA, state.particle_grid.points)
        assert np.max(np.abs(marg.amplitudes - expected)) < 1e-10

    def test_closed_form_vs_numerical_integration(self):
        for b in (0.3, 0.7, 1.2):
            det = DetectorParams(b=b, sigma_xi=0.5)
            slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
            state = joint_state_momentum(slits, det, momentum_grid(), momentum_grid())
            marg = marginal_momentum_density(state)
            expected = self.closed_momentum_marginal(det, state.particle_grid.points)
            assert np.max(np.abs(marg.amplitudes - expected)) < 1e-8

    def test_fig2_modulation_factor(self):
        det = DetectorParams(b=0.7, sigma_xi=0.5)
        assert np.exp(-det.b**2 / (2 * det.sigma_xi**2)) == pytest.approx(
            np.exp(-0.98), rel=1e-12
        )
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        state = joint_state_momentum(slits, det, momentum_grid(1024), momentum_grid(1024))
        marg = marginal_momentum_density(state)
        flat = marg.amplitudes / np.exp(-2 * SIGMA**2 * state.particle_grid.points**2)
        window = np.abs(state.particle_grid.points) < 2.0
        contrast = (flat[window].max() - flat[window].min()) / (
            flat[window].max() + flat[window].min()
        )
        assert contrast == pytest.approx(np.exp(-0.98), abs=1e-3)

    def test_marginals_normalized(self):
        for b in (0.0, 0.5, 1.5):
            _, _, state = two_slit_state_pair(b=b)
            marg = marginal_momentum_density(state)
            assert quadrature(marg.amplitudes, marg.grid) == pytest.approx(1.0, abs=1e-8)
            assert np.all(marg.amplitudes >= -1e-15)

    def test_representation_enforced(self):
        _, _, state = two_slit_state_pair(b=0.5)
        with pytest.raises(WrongRepresentationError):
            marginal_coordinate_density(state)
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = DetectorParams(b=0.5, sigma_xi=0.5)
        coord = joint_state_coordinate(slits, det, make_grid(0, 9, 256), make_grid(0, 5, 256))
        with pytest.raises(WrongRepresentationError):
            marginal_momentum_density(coord)

    def test_coordinate_marginal_is_two_gaussians(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = DetectorParams(b=0.5, sigma_xi=0.5)
        xg = make_grid(0, 9, 1024)
        dg = make_grid(0, 5, 512)
        marg = marginal_coordinate_density(joint_state_coordinate(slits, det, xg, dg))
        x = xg.points
        halves = 0.5 * (
            np.exp(-((x - A) ** 2) / (2 * SIGMA**2)) + np.exp(-((x + A) ** 2) / (2 * SIGMA**2))
        ) / (np.sqrt(2 * np.pi) * SIGMA)
        assert np.max(np.abs(marg.amplitudes - halves)) < 1e-6
        assert quadrature(marg.amplitudes, xg) == pytest.approx(1.0, abs=1e-8)

    def test_coordinate_marginal_insensitive_to_b(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        xg = make_grid(0, 9, 512)
        dg = make_grid(0, 22, 512)
        small = marginal_coordinate_density(
            joint_state_coordinate(slits, DetectorParams(0.0, 0.5), xg, dg)
        )
        large = marginal_coordinate_density(
            joint_state_coordinate(slits, DetectorParams(2.5, 0.5), xg, dg)
        )
        assert np.max(np.abs(small.amplitudes - large.amplitudes)) < 1e-10


class TestInvariants:
    def test_visibility_equals_modulation_factor(self):
        from qmodes.coherence import visibility_from_intensity

        for b in (0.0, 0.5, 1.0):
            det = DetectorParams(b=b, sigma_xi=0.5)
            slits = SlitParams(a=A, sigma_x=SIGMA, m=2)  # a / sigma_x = 10 >= 8
            state = joint_state_momentum(slits, det, momentum_grid(2048), momentum_grid(512))
            v = visibility_from_intensity(marginal_momentum_density(state), A, SIGMA)
            assert v == pytest.approx(np.exp(-b**2 / (2 * det.sigma_xi**2)), abs=1e-4)

    def test_principal_maxima_scale_m_squared(self):
        # at b = 0 the peak at p = 0 carries F^2 = m^2 over the per-slit envelope
        for m in (2, 3, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            det = DetectorParams(b=0.0, sigma_xi=0.5)
            state = joint_state_momentum(slits, det, momentum_grid(4097), momentum_grid(257))
            marg = marginal_momentum_density(state)
            peak = marg.amplitudes[np.argmin(np.abs(state.particle_grid.points))]
            per_slit = single_slit_momentum_density(SIGMA, 0.0) / m
            assert peak / per_slit == pytest.approx(m**2, rel=1e-6)

    def test_joint_state_shape_validation(self):
        with pytest.raises(ValueError):
            JointState(make_grid(0, 1, 4), make_grid(0, 1, 4), np.zeros((4, 3)), "momentum")
        with pytest.raises(ValueError):
            JointState(make_grid(0, 1, 4), make_grid(0, 1, 4), np.zeros((4, 4)), "fourier")

    def test_slit_param_validation(self):
        with pytest.raises(ValueError):
            SlitParams(a=0.0, sigma_x=0.5, m=2)
        with pytest.raises(ValueError):
            SlitParams(a=1.0, sigma_x=-0.5, m=2)
        with pytest.raises(ValueError):
            SlitParams(a=1.0, sigma_x=0.5, m=0)
        with pytest.raises(ValueError):
            DetectorParams(b=-0.1, sigma_xi=0.5)
        assert SlitParams(a=5.0, sigma_x=0.5, m=2).well_separated
        assert not SlitParams(a=0.5, sigma_x=0.5, m=2).well_separated
