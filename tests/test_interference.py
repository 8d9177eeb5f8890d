"""Slit functions, form factors, the slit-basis joint state and its marginals."""

import numpy as np
import pytest

from oracles import (
    Detector,
    SampledWave,
    conjugate_grid,
    form_factor,
    fourier_to_momentum,
    grid_marginal,
    grid_state_coordinate,
    grid_state_momentum,
    single_slit_momentum_density,
    symmetric,
    two_slit_intensity,
    two_slit_norm,
    visibility_from_intensity,
)
from qmodes import coherence
from qmodes.interference import (
    COORDINATE,
    MOMENTUM,
    SlitParams,
    basis_density,
    detector_overlap,
    slit_basis,
    slit_centers,
    slit_state,
)
from qmodes.numerics import MAX_SLITS, grid, quadrature
from qmodes.schmidt import schmidt

A, SIGMA = 5.0, 0.5


def momentum_grid(n=512, half=10.0):
    return symmetric(half, n)


def two_slit_state_pair(b):
    slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
    det = Detector(b=b, sigma_xi=0.5)
    return slits, det, slit_state(slits, detector_overlap(*det))


def momentum_marginal(slits, density, grid):
    basis = slit_basis(slits, grid.points, MOMENTUM)
    return SampledWave(grid, basis_density(basis, density))


def coordinate_marginal(slits, density, grid):
    basis = slit_basis(slits, grid.points, COORDINATE)
    return SampledWave(grid, basis_density(basis, density))


def sampled_state(slits, det, particle_grid, detector_grid, representation):
    """N sum_j u_j(x) v_j(xi) sampled on both axes from the slit basis.

    The spots are slit functions too: centers slit_centers(m, b), width sigma_xi.
    """
    spots = SlitParams(a=det.b, sigma_x=det.sigma_xi, m=slits.m)
    u = slit_basis(slits, particle_grid.points, representation)
    v = slit_basis(spots, detector_grid.points, representation)
    # N^2 = 1 / sum_jk <u_j|u_k> <v_j|v_k>, the overlaps of the Gaussians
    d = np.subtract.outer(slit_centers(slits.m, 1.0), slit_centers(slits.m, 1.0)) ** 2
    overlaps = np.exp(-d * (slits.a**2 / slits.sigma_x**2 + det.b**2 / det.sigma_xi**2) / 8.0)
    return (u @ v.T) / np.sqrt(np.sum(overlaps))


class TestSingleSlit:
    def test_peak_value(self):
        assert single_slit_momentum_density(0.5, 0.0) == pytest.approx(
            np.sqrt(2.0 / np.pi) * 0.5, rel=1e-12
        )

    def test_normalization(self):
        p, dp = grid(20, 1024)
        assert quadrature(single_slit_momentum_density(0.5, p), dp) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_variance(self):
        for sigma in (0.3, 0.5, 1.1):
            p, dp = grid(30, 4096)
            var = quadrature(p**2 * single_slit_momentum_density(sigma, p), dp)
            assert var == pytest.approx(1.0 / (4.0 * sigma**2), rel=1e-8)


class TestTwoSlitClosedForms:
    def test_well_separated_norm(self):
        assert two_slit_norm(5.0, 0.5) == pytest.approx(1.0 / (1.0 + np.exp(-50.0)), rel=1e-15)

    def test_coincident_slits(self):
        assert two_slit_norm(0.0, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_norm_at_a_equal_sigma(self):
        # frozen from renormalizing the superposed Gaussians numerically
        assert two_slit_norm(1.0, 1.0) == pytest.approx(0.6224593312018546, rel=1e-12)
        x, dx = grid(12, 4096)
        pair = np.exp(-((x - 1.0) ** 2) / 4.0) + np.exp(-((x + 1.0) ** 2) / 4.0)
        raw = quadrature(pair**2 / (np.sqrt(2 * np.pi) * 2.0), dx)
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
        grid = symmetric(11, 2048)
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
        # the detector overlaps are those of Gaussians of width sigma_xi at slit_centers(m, b)
        det = Detector(b=0.5, sigma_xi=0.4)
        d = slit_centers(3, det.b)
        gaussian = np.exp(-np.subtract.outer(d, d) ** 2 / (8.0 * det.sigma_xi**2))
        slits = SlitParams(a=A, sigma_x=SIGMA, m=3)
        # D = S_xi / sum(S_x o S_xi)
        s_xi = slit_state(slits, detector_overlap(*det)) * np.sum(slits.overlaps * gaussian)
        assert np.allclose(s_xi, gaussian, rtol=1e-14, atol=0.0)


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
        # b = 0: one Schmidt mode, the normalized sum of the slit functions
        slits, _, density = two_slit_state_pair(b=0.0)
        weights, coefficients = schmidt(slits, density)
        assert weights == pytest.approx([1.0], abs=1e-14)
        grid = momentum_grid()
        mode = slit_basis(slits, grid.points, MOMENTUM) @ coefficients[:, 0]
        marg = momentum_marginal(slits, density, grid)
        assert np.max(np.abs(np.abs(mode) ** 2 - marg.amplitudes)) < 1e-14

    def test_matches_two_slit_closed_form(self):
        slits, det, _ = two_slit_state_pair(b=0.5)
        pg, qg = momentum_grid(), momentum_grid()
        p = pg.points[:, None]
        q = qg.points[None, :]
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
        assert np.max(np.abs(sampled_state(slits, det, pg, qg, MOMENTUM) - closed)) < 1e-12

    def test_normalized(self):
        grid = momentum_grid()
        for m in (1, 2, 3, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            det = Detector(b=0.5, sigma_xi=0.5)
            psi = sampled_state(slits, det, grid, grid, MOMENTUM)
            total = quadrature(quadrature(np.abs(psi) ** 2, grid.spacing), grid.spacing)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestJointStateCoordinate:
    def grids(self, m=2, n=512):
        return (
            symmetric((m - 1) * A + 10 * SIGMA, n),
            symmetric((m - 1) * 0.5 + 10 * 0.5, n),
        )

    def test_matches_closed_form(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = Detector(b=0.5, sigma_xi=0.5)
        xg, dg = self.grids()
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
        assert np.max(np.abs(sampled_state(slits, det, xg, dg, COORDINATE) - closed)) < 1e-12

    def test_transform_matches_momentum_state(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        det = Detector(b=0.5, sigma_xi=0.5)
        xg, dg = self.grids(n=512)
        coord = sampled_state(slits, det, xg, dg, COORDINATE)
        # transform the detector axis, then the particle axis
        half = np.empty(coord.shape, dtype=complex)
        for i in range(xg.points.size):
            half[i] = fourier_to_momentum(SampledWave(dg, coord[i].astype(complex))).amplitudes
        full = np.empty_like(half)
        for j in range(dg.points.size):
            full[:, j] = fourier_to_momentum(SampledWave(xg, half[:, j])).amplitudes
        mom = sampled_state(slits, det, conjugate_grid(xg), conjugate_grid(dg), MOMENTUM)
        assert np.max(np.abs(full - mom)) < 1e-6

    def test_zero_separation_is_product(self):
        # coincident slits: S_x is all ones, and its zero eigenvalue is dropped
        slits = SlitParams(a=1e-12, sigma_x=SIGMA, m=2)
        weights, coefficients = schmidt(slits, slit_state(slits, detector_overlap(0.5, 0.5)))
        assert weights == pytest.approx([1.0], abs=1e-14)
        assert coefficients.shape == (2, 1)


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
        slits, _, density = two_slit_state_pair(b=0.0)
        marg = momentum_marginal(slits, density, momentum_grid())
        expected = two_slit_intensity(A, SIGMA, marg.grid.points)
        assert np.max(np.abs(marg.amplitudes - expected)) < 1e-14

    def test_closed_form_vs_numerical_integration(self):
        for b in (0.3, 0.7, 1.2):
            slits, det, density = two_slit_state_pair(b)
            marg = momentum_marginal(slits, density, momentum_grid())
            expected = self.closed_momentum_marginal(det, marg.grid.points)
            assert np.max(np.abs(marg.amplitudes - expected)) < 1e-14

    @pytest.mark.parametrize("m", (1, 2, 3, 5))
    def test_matches_the_grid_reference(self, m):
        # the detector axis integrated by quadrature on a sampled joint state
        slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
        det = Detector(b=0.7, sigma_xi=0.5)
        density = slit_state(slits, detector_overlap(*det))
        pg, qg = symmetric(9.0, 1024), symmetric(9.0, 1024)
        mom = momentum_marginal(slits, density, pg).amplitudes
        ref = grid_marginal(grid_state_momentum(slits, det, pg, qg))
        assert np.max(np.abs(mom - ref)) < 1e-12 * np.max(ref)
        xg = symmetric((m - 1) * A + 8.0 * SIGMA, 1024)
        dg = symmetric((m - 1) * det.b + 8.0 * det.sigma_xi, 1024)
        coord = coordinate_marginal(slits, density, xg).amplitudes
        ref = grid_marginal(grid_state_coordinate(slits, det, xg, dg))
        assert np.max(np.abs(coord - ref)) < 1e-12 * np.max(ref)

    def test_fig2_modulation_factor(self):
        det = Detector(b=0.7, sigma_xi=0.5)
        assert detector_overlap(*det) == pytest.approx(np.exp(-0.98), rel=1e-15)
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        grid = momentum_grid(1024)
        marg = momentum_marginal(slits, slit_state(slits, detector_overlap(*det)), grid)
        flat = marg.amplitudes / np.exp(-2 * SIGMA**2 * grid.points**2)
        window = np.abs(grid.points) < 2.0
        contrast = (flat[window].max() - flat[window].min()) / (
            flat[window].max() + flat[window].min()
        )
        assert contrast == pytest.approx(np.exp(-0.98), abs=1e-3)

    def test_marginals_normalized(self):
        for b in (0.0, 0.5, 1.5):
            slits, _, density = two_slit_state_pair(b=b)
            marg = momentum_marginal(slits, density, momentum_grid())
            assert quadrature(marg.amplitudes, marg.grid.spacing) == pytest.approx(1.0, abs=1e-12)
            assert np.all(marg.amplitudes >= -1e-15)

    def test_representation_enforced(self):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        with pytest.raises(ValueError, match="fourier"):
            slit_basis(slits, np.zeros(3), "fourier")

    def test_coordinate_marginal_is_two_gaussians(self):
        slits, _, density = two_slit_state_pair(b=0.5)
        xg = symmetric(9, 1024)
        marg = coordinate_marginal(slits, density, xg)
        x = xg.points
        halves = 0.5 * (
            np.exp(-((x - A) ** 2) / (2 * SIGMA**2)) + np.exp(-((x + A) ** 2) / (2 * SIGMA**2))
        ) / (np.sqrt(2 * np.pi) * SIGMA)
        assert np.max(np.abs(marg.amplitudes - halves)) < 1e-6
        assert quadrature(marg.amplitudes, xg.spacing) == pytest.approx(1.0, abs=1e-8)

    def test_coordinate_marginal_insensitive_to_b(self):
        xg = symmetric(9, 512)
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        small = coordinate_marginal(slits, two_slit_state_pair(0.0)[2], xg)
        large = coordinate_marginal(slits, two_slit_state_pair(2.5)[2], xg)
        assert np.max(np.abs(small.amplitudes - large.amplitudes)) < 1e-10


class TestInvariants:
    def test_visibility_equals_modulation_factor(self):
        for b in (0.0, 0.5, 1.0):
            slits, det, density = two_slit_state_pair(b)  # a / sigma_x = 10 >= 8
            v = visibility_from_intensity(momentum_marginal(slits, density, momentum_grid(2048)), A, SIGMA)
            assert v == pytest.approx(detector_overlap(*det), abs=1e-4)

    def test_principal_maxima_scale_m_squared(self):
        # at b = 0 the peak at p = 0 carries F^2 = m^2 over the per-slit envelope
        grid = momentum_grid(4097)
        for m in (2, 3, 5):
            slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
            marg = momentum_marginal(slits, slit_state(slits, detector_overlap(0.0, 0.5)), grid)
            peak = marg.amplitudes[np.argmin(np.abs(grid.points))]
            per_slit = single_slit_momentum_density(SIGMA, 0.0) / m
            assert peak / per_slit == pytest.approx(m**2, rel=1e-6)

    def test_slit_param_validation(self):
        with pytest.raises(ValueError):
            SlitParams(a=0.0, sigma_x=0.5, m=2)
        with pytest.raises(ValueError):
            SlitParams(a=1.0, sigma_x=-0.5, m=2)
        with pytest.raises(ValueError):
            SlitParams(a=1.0, sigma_x=0.5, m=0)
        with pytest.raises(ValueError):
            detector_overlap(-0.1, 0.5)

    @pytest.mark.parametrize("source", ["detector", "qubit-phase", "source-size"])
    def test_every_overlap_slit_state_receives_lies_in_unit_interval(self, source):
        # slit_state checks no range: its gamma is detector_overlap of checked
        # flags, cos 2 phi of a finite 2 phi or sinc 4y of a source size, and
        # each lies in [-1, 1], at the ends of their ranges too
        if source == "detector":
            # Python floats, as the CLI parses them
            spots = [0.0, *np.geomspace(1e-150, 1e150, 61).tolist()]
            gammas = np.array([detector_overlap(b, s) for b in spots for s in spots[1:]])
        elif source == "qubit-phase":
            gammas = np.cos(2.0 * np.concatenate((np.linspace(0.0, np.pi / 2.0, 1025), np.geomspace(1e-300, 1e300, 121))))
        else:
            gammas = coherence.source_coherence(np.linspace(0.0, 0.5, 4097))
        assert np.all((-1.0 <= gammas) & (gammas <= 1.0))
        slits = SlitParams(a=A, sigma_x=SIGMA, m=2)
        for gamma in (gammas.min(), gammas.max()):
            assert np.all(np.isfinite(slit_state(slits, gamma)))

    def test_detector_overlap_sets_the_overlap_matrix(self):
        # S_xi[j, k] = gamma^((j - k)^2), a signed gamma included, read from
        # D = S_xi / sum(S_x o S_xi)
        slits = SlitParams(a=A, sigma_x=SIGMA, m=3)
        for gamma in (-1.0, -0.3, 0.0, 0.7, 1.0):
            expected = np.array([[1.0, gamma, gamma**4], [gamma, 1.0, gamma], [gamma**4, gamma, 1.0]])
            s_xi = slit_state(slits, gamma) * np.sum(slits.overlaps * expected)
            np.testing.assert_allclose(s_xi, expected, rtol=1e-15, atol=0.0)

    def test_state_of_zero_norm_rejected(self):
        # coincident slits (q rounds to 1) and opposite detector states cancel
        with pytest.raises(ValueError, match="identically zero"):
            slit_state(SlitParams(a=1e-12, sigma_x=SIGMA, m=2), -1.0)

    @pytest.mark.parametrize(
        "m, gammas",
        [
            (2, [1.0]),  # fig1
            (2, [detector_overlap(b, 0.5) for b in (0.5, 0.7)]),  # fig2, fig3
            (4, [detector_overlap(b, 0.5) for b in (0.0, 0.3, 0.7, 1.5)]),  # fig4
            (5, [detector_overlap(0.5, 0.5)]),  # fig5
            (2, [float(np.sinc(4.0 * y)) for y in (0.0, 0.0625, 0.125, 0.1875, 0.25)]),  # fig6-data
            (2, list(np.cos(2.0 * np.linspace(0.0, np.pi / 2.0, 17)))),  # coherence
        ],
    )
    def test_density_matrix_is_the_normalized_detector_overlaps_bit_for_bit(self, m, gammas):
        slits = SlitParams(a=A, sigma_x=SIGMA, m=m)
        j = np.arange(m)
        for gamma in gammas:
            s_xi = gamma ** (np.subtract.outer(j, j) ** 2)
            expected = s_xi / np.sum(slits.overlaps * s_xi)
            assert slit_state(slits, gamma).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [2.5, 2.0, np.nan, "2"])
    def test_a_slit_count_that_is_not_an_integer_is_named(self, m):
        # m = 2.5 once built three slits at (-7.5, 2.5, 12.5), not symmetric about 0
        with pytest.raises(ValueError, match=f"^slit count m must be an integer, got {m!r}$"):
            SlitParams(a=5.0, sigma_x=0.5, m=m)
        assert SlitParams(a=5.0, sigma_x=0.5, m=np.int64(3)).overlaps.shape == (3, 3)

    def test_slit_count_is_capped(self):
        assert SlitParams(a=1.0, sigma_x=0.5, m=MAX_SLITS).m == 64
        with pytest.raises(ValueError, match=r"slit count m must be at most 64, got 65\b"):
            SlitParams(a=1.0, sigma_x=0.5, m=MAX_SLITS + 1)
