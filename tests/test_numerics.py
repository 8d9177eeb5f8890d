"""Grid, quadrature and linear-algebra contracts, and the FFT reference
that the interference tests cross-check joint states with."""

import numpy as np
import pytest

from oracles import SampledWave, conjugate_grid, fourier_to_momentum, two_slit_intensity, two_slit_norm
from qmodes.numerics import (
    Grid1D,
    NonHermitianError,
    eigh,
    make_grid,
    quadrature,
    trapezoid_weights,
)


def gaussian_wave(grid, sigma, center=0.0):
    x = grid.points
    amp = (1.0 / (np.sqrt(2.0 * np.pi) * sigma)) ** 0.5 * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2)
    )
    return SampledWave(grid, amp.astype(complex))


class TestGrid:
    def test_symmetric_three_points(self):
        assert np.allclose(make_grid(1, 3).points, [-1.0, 0.0, 1.0])

    def test_spacing_definition(self):
        assert make_grid(20, 1024).spacing == pytest.approx(40.0 / 1023.0, rel=1e-15)

    def test_offset_grid(self):
        assert np.allclose(Grid1D(5, 3.0, 7.0).points, [3, 4, 5, 6, 7])

    def test_spacing_matches_endpoints(self):
        g = Grid1D(777, 1.7 - 3.3, 1.7 + 3.3)
        reconstructed = g.x_min + g.spacing * (g.n_points - 1)
        assert reconstructed == pytest.approx(g.x_max, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_grid(1, 1)
        for edge in (-1, 0, np.nan):
            with pytest.raises(ValueError):
                make_grid(edge, 16)
        with pytest.raises(ValueError):
            Grid1D(8, 2.0, 1.0)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, np.nan])
    def test_a_point_count_that_is_not_an_integer_is_named(self, n_points):
        # Grid1D(2.5, 0, 1) once reported a spacing of 0.667, and only its points raised
        with pytest.raises(ValueError, match=f"^n_points must be an integer, got {n_points!r}$"):
            Grid1D(n_points, 0.0, 1.0)
        assert Grid1D(np.int32(3), 0.0, 1.0).points.tolist() == [0.0, 0.5, 1.0]


class TestQuadrature:
    def test_constant_exact(self):
        for n in (2, 17, 128):
            g = Grid1D(n, 0.0, 1.0)
            assert quadrature(np.ones(n), g) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_normalization(self):
        g = make_grid(10, 1024)
        x = g.points
        density = np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi)
        assert quadrature(density, g) == pytest.approx(1.0, abs=1e-10)

    def test_odd_function_cancels(self):
        g = make_grid(1, 201)
        assert abs(quadrature(g.points, g)) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            quadrature(np.ones(5), make_grid(1, 6))

    def test_weights_sum_to_length(self):
        g = make_grid(2, 57)
        assert trapezoid_weights(g).sum() == pytest.approx(4.0, rel=1e-14)


class TestFourier:
    # the FFT reference of the tests against closed forms
    def test_gaussian_matches_momentum_envelope(self):
        # centered slit: |psi~|^2 is Gaussian with variance 1/(4 sigma_x^2)
        sigma = 0.5
        wave = gaussian_wave(make_grid(10, 1024), sigma)
        tilde = fourier_to_momentum(wave)
        p = tilde.grid.points
        expected = (1.0 / (2.0 * np.pi)) ** 0.25 * np.sqrt(2.0 * sigma) * np.exp(-(sigma**2) * p**2)
        assert np.max(np.abs(np.abs(tilde.amplitudes) - expected)) < 1e-8
        density = np.abs(tilde.amplitudes) ** 2
        variance = quadrature(p**2 * density, tilde.grid).real
        assert variance == pytest.approx(1.0 / (4.0 * sigma**2), rel=1e-8)

    def test_shift_theorem(self):
        sigma, a = 0.5, 5.0
        grid = make_grid(11, 2048)
        tilde0 = fourier_to_momentum(gaussian_wave(grid, sigma, 0.0))
        tilde_a = fourier_to_momentum(gaussian_wave(grid, sigma, a))
        assert np.max(np.abs(np.abs(tilde_a.amplitudes) - np.abs(tilde0.amplitudes))) < 1e-10
        p = tilde0.grid.points
        big = np.abs(tilde0.amplitudes) > 1e-6
        phase = tilde_a.amplitudes[big] / tilde0.amplitudes[big]
        assert np.max(np.abs(phase - np.exp(-1j * p[big] * a))) < 1e-8

    def test_two_slit_transform_matches_closed_form(self):
        # independent route to the cos^2 interference pattern
        sigma, a = 0.5, 5.0
        grid = make_grid(11, 2048)
        x = grid.points
        c = np.sqrt(two_slit_norm(a, sigma))
        amp = (
            c
            * (1.0 / (np.sqrt(2.0 * np.pi) * 2.0 * sigma)) ** 0.5
            * (np.exp(-((x - a) ** 2) / (4 * sigma**2)) + np.exp(-((x + a) ** 2) / (4 * sigma**2)))
        )
        tilde = fourier_to_momentum(SampledWave(grid, amp.astype(complex)))
        numeric = np.abs(tilde.amplitudes) ** 2
        expected = two_slit_intensity(a, sigma, tilde.grid.points)
        assert np.max(np.abs(numeric - expected)) < 1e-6

    def test_conjugate_grid_contains_zero(self):
        g = conjugate_grid(make_grid(10, 1024))
        assert np.min(np.abs(g.points)) == 0.0
        assert g.spacing == pytest.approx(2 * np.pi / (1024 * (20 / 1023)), rel=1e-12)


class TestEigh:
    def test_diagonal(self):
        values, _ = eigh(np.diag([1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0])

    def test_pauli_x(self):
        values, vectors = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [-1.0, 1.0])
        assert np.allclose(np.abs(vectors), np.full((2, 2), 1 / np.sqrt(2)))

    def test_uncoupled_two_qubit_spectrum(self):
        from oracles import build_two_qubit, two_level_energies
        from qmodes.tunneling import AMMONIA_ISOTOPES, DoubleWell

        well = DoubleWell(69.29, 141.73, AMMONIA_ISOTOPES["NH3"][0])
        e0, e1 = two_level_energies(well)
        values, _ = eigh(build_two_qubit(e0, e1, well, g0=0.0))
        assert np.allclose(np.sort(values), np.sort([2 * e0, e0 + e1, e0 + e1, 2 * e1]), atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_hermitian_matrix_in_a_stack_rejected(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), np.eye(3)])
        values, vectors = eigh(stack)
        assert values.shape == (3, 3) and vectors.shape == (3, 3, 3)
        stack[1, 0, 2] = 1e-6
        with pytest.raises(NonHermitianError, match="matrix 1 "):
            eigh(stack)

    def test_residuals_property(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (a + a.conj().T)
            values, vectors = eigh(h)
            residual = np.max(np.abs(h @ vectors - vectors * values))
            assert residual < 1e-10 * max(1.0, np.max(np.abs(values)))
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10
