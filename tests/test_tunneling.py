"""Double-well two-level model, the coupled-qubit system and the ammonia fit."""

import tracemalloc

import numpy as np
import pytest

from qmodes import tunneling
from qmodes.numerics import make_grid
from qmodes.tunneling import (
    AMMONIA_EQUILIBRIUM,
    AMMONIA_ISOTOPES,
    AMMONIA_SPLITTING,
    GHZ_PER_MODEL_UNIT,
    DegenerateWellError,
    DoubleWell,
    FitError,
    InsufficientGridError,
    TwoQubitSystem,
    UnresolvedSplittingError,
    WellDerived,
    build_two_qubit,
    derive_well,
    fit_potential,
    grid_eigensolve,
    ground_state_entanglement,
    lowest_levels,
    reduced_mass,
    splitting_to_frequency,
    two_level_energies,
)

PAPER_WELL = DoubleWell(69.29, 141.73, 2.47)


def paper_energies(mass):
    well = DoubleWell(69.29, 141.73, mass)
    derived = derive_well(well)
    return well, derived, two_level_energies(derived, well)


def high_precision_splitting(derived, well, digits=60):
    """E1 - E0 from the U + T expressions of two_level_energies, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        a, sx, eps = (mpmath.mpf(v) for v in (derived.a, derived.sigma_x, derived.overlap))
        alpha, beta, m = (mpmath.mpf(v) for v in (well.alpha, well.beta, well.mass))
        c0_sq, c1_sq = 1 / (1 + eps), 1 / (1 - eps)
        q = a**2 / sx**2
        kin = 1 / (8 * m * sx**2)
        t0 = c0_sq * kin * (1 - (q - 1) * eps)
        t1 = c1_sq * kin * (1 + (q - 1) * eps)
        base = -alpha / 2 * (a**2 + sx**2) + beta / 4 * (a**4 + 6 * sx**2 * a**2 + 3 * sx**4)
        cross = -alpha * sx**2 / 2 + 3 * beta * sx**4 / 4
        e0 = c0_sq * (base + eps * cross) + t0
        e1 = c1_sq * (base - eps * cross) + t1
        return float(e1 - e0)


class TestDeriveWell:
    def test_ammonia_geometry(self):
        derived = derive_well(PAPER_WELL)
        assert derived.a == pytest.approx(0.699, abs=5e-4)
        assert derived.sigma_x == pytest.approx(0.164, abs=5e-4)
        assert derived.overlap == pytest.approx(1.18e-4, rel=0.02)
        assert derived.u_min == pytest.approx(-(69.29**2) / (4 * 141.73), rel=1e-12)

    def test_simple_values(self):
        # a shallow well: its overlap 0.135 is past the two-level regime
        with pytest.warns(UserWarning, match="overlap 0.135"):
            derived = derive_well(DoubleWell(2.0, 2.0, 1.0))
        assert derived.a == pytest.approx(1.0, rel=1e-12)
        assert derived.omega0 == pytest.approx(2.0, rel=1e-12)
        assert derived.sigma_x**2 == pytest.approx(0.25, rel=1e-12)

    def test_heavy_isotope_overlap(self):
        derived = derive_well(DoubleWell(69.29, 141.73, 4.2))
        assert derived.overlap == pytest.approx(7.5e-6, rel=0.02)

    def test_validity_warning(self):
        with pytest.warns(UserWarning):
            derive_well(DoubleWell(1.0, 10.0, 1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DoubleWell(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DoubleWell(1.0, 1.0, -2.0)


class TestTwoLevelEnergies:
    def test_coincident_well_kinetic_limit(self):
        # a -> 0: T0 tends to the single-Gaussian kinetic energy 1/(8 m sigma^2)
        derived = WellDerived(a=1e-7, u_min=0.0, omega0=1.0, sigma_x=1.0, overlap=1.0 - 1e-14)
        well = DoubleWell(1e-30, 1e-16, 1.0)
        energies = two_level_energies(derived, well)
        assert energies.t0 == pytest.approx(1.0 / 8.0, rel=1e-6)

    def test_degenerate_well_rejected(self):
        derived = WellDerived(a=0.0, u_min=0.0, omega0=1.0, sigma_x=1.0, overlap=1.0)
        with pytest.raises(DegenerateWellError):
            two_level_energies(derived, DoubleWell(1.0, 1.0, 1.0))

    def test_nh3_splitting(self):
        _, _, energies = paper_energies(2.47)
        assert energies.splitting == pytest.approx(0.00665, rel=0.02)
        assert energies.e0 == energies.u0 + energies.t0
        assert energies.e1 == energies.u1 + energies.t1
        assert energies.e1 > energies.e0
        # nothing cancels here, so the closed form must equal the difference
        assert energies.splitting == pytest.approx(energies.e1 - energies.e0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "well",
        [
            DoubleWell(1.3, 0.052, 1.0),  # E1 - E0 ~ 1.6e-16: float e1 - e0 loses every digit
            PAPER_WELL,
        ],
    )
    def test_splitting_matches_high_precision_difference(self, well):
        derived = derive_well(well)
        energies = two_level_energies(derived, well)
        exact = high_precision_splitting(derived, well)
        assert exact > 0.0
        assert energies.splitting == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_nd3_splitting(self):
        _, _, energies = paper_energies(4.2)
        assert energies.splitting == pytest.approx(0.000416, rel=0.02)

    def test_splitting_shrinks_with_separation(self):
        # fixed omega0 (alpha, m): raising beta pulls the wells together
        previous = None
        for beta in (80.0, 120.0, 160.0, 240.0):
            well = DoubleWell(69.29, beta, 2.47)
            energies = two_level_energies(derive_well(well), well)
            if previous is not None:
                assert energies.splitting > previous  # larger beta => smaller a => more tunneling
            previous = energies.splitting


class TestFit:
    def test_recovers_reference_parameters(self):
        well = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, 2.47)
        assert well.alpha == pytest.approx(69.29, rel=5e-3)
        assert well.beta == pytest.approx(141.73, rel=5e-3)

    def test_round_trip(self):
        well = fit_potential(0.8, 0.003, 3.0)
        derived = derive_well(well)
        assert derived.a == pytest.approx(0.8, rel=1e-12)
        energies = two_level_energies(derived, well)
        assert energies.splitting == pytest.approx(0.003, rel=1e-8)

    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-14])
    def test_round_trip_small_splittings(self, target):
        well = fit_potential(5.0, target, 1.0)
        energies = two_level_energies(derive_well(well), well)
        assert energies.splitting == pytest.approx(target, rel=1e-10, abs=0.0)

    def test_forward_map_monotone(self):
        # larger alpha at fixed a gives a smaller splitting
        def splitting(alpha):
            well = DoubleWell(alpha, alpha / 0.699**2, 2.47)
            return two_level_energies(derive_well(well), well).splitting

        values = [splitting(alpha) for alpha in (40.0, 60.0, 80.0, 120.0, 200.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_validity_violation_rejected(self):
        with pytest.raises(FitError):
            fit_potential(0.699, 1.0, 2.47)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_potential(-1.0, 0.01, 1.0)


class TestUnits:
    def test_reduced_masses(self):
        assert reduced_mass(3, 14) == pytest.approx(2.47, abs=5e-3)
        assert reduced_mass(6, 14) == pytest.approx(4.2, rel=1e-12)
        assert reduced_mass(9, 14) == pytest.approx(5.48, abs=5e-3)
        with pytest.raises(ValueError):
            reduced_mass(-1.0, 2.0)

    def test_isotope_presets(self):
        assert set(AMMONIA_ISOTOPES) == {"NH3", "ND3", "NT3"}
        assert AMMONIA_ISOTOPES["NH3"].mass == pytest.approx(42.0 / 17.0, rel=1e-14)
        assert AMMONIA_ISOTOPES["ND3"].experimental_ghz == pytest.approx(1.6)
        assert AMMONIA_ISOTOPES["NT3"].experimental_ghz == pytest.approx(0.306)

    def test_frequency_conversion(self):
        assert GHZ_PER_MODEL_UNIT == pytest.approx(3607.0, rel=2e-4)
        assert splitting_to_frequency(0.00665) == pytest.approx(24.0, rel=0.01)
        assert splitting_to_frequency(0.000416) == pytest.approx(1.5, rel=0.01)
        assert splitting_to_frequency(0.0) == 0.0


class TestGridEigensolve:
    def test_harmonic_oscillator_levels(self):
        grid = make_grid(0.0, 12.0, 128)
        omega = np.sqrt(2.0)
        potential = 0.5 * 2.0 * grid.points**2  # alpha x^2 / 2 with alpha = 2, m = 1
        levels = lowest_levels(potential, 1.0, grid, n_levels=4)
        for n, level in enumerate(levels):
            assert level == pytest.approx(omega * (n + 0.5), abs=1e-4)

    def test_nh3_well_against_spectral_oracle(self):
        # independent oracle: diagonalize in a harmonic-oscillator basis
        well, derived, energies = paper_energies(2.47)
        e0, e1 = grid_eigensolve(well)
        n_basis = 200
        n = np.arange(n_basis)
        w = derived.omega0
        xmat = np.diag(np.sqrt((n[:-1] + 1) / (2.0 * well.mass * w)), 1)
        xmat = xmat + xmat.T
        x2 = xmat @ xmat
        kinetic = np.diag((n + 0.5) * w) - 0.5 * well.mass * w**2 * x2
        h = kinetic - 0.5 * well.alpha * x2 + 0.25 * well.beta * (x2 @ x2)
        exact = np.linalg.eigvalsh(h)[:2]
        assert e0 == pytest.approx(exact[0], abs=1e-5)
        assert e1 == pytest.approx(exact[1], abs=1e-5)

    def test_two_level_estimate_is_variational_upper_bound(self):
        # the Gaussian pair is a variational ansatz: its energies bound the
        # exact levels from above, and its splitting underestimates the
        # exact one (the ansatz decays too fast inside the barrier)
        for mass in (2.47, 4.2, 5.48):
            well, derived, energies = paper_energies(mass)
            e0, e1 = grid_eigensolve(well)
            assert e0 < energies.e0
            assert e1 < energies.e1
            assert energies.e0 == pytest.approx(e0, rel=0.10)
            assert energies.e1 == pytest.approx(e1, rel=0.10)
            assert (e1 - e0) > energies.splitting

    def test_grid_preconditions(self):
        # the dense Hamiltonian is n x n: a larger grid is refused before it is built
        grid = make_grid(0.0, 2.5, tunneling.MAX_DVR_POINTS + 1)
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientGridError, match="at most"):
                lowest_levels(PAPER_WELL.potential(grid.points), PAPER_WELL.mass, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestTwoQubit:
    def test_no_interaction_is_diagonal(self):
        _, derived, energies = paper_energies(2.47)
        system = build_two_qubit(energies, derived, g0=0.0)
        e0, e1 = energies.e0, energies.e1
        expected = np.diag([2 * e0, e0 + e1, e0 + e1, 2 * e1])
        assert np.max(np.abs(system.h_matrix - expected)) == 0.0

    def test_separated_limit_of_matrix_elements(self):
        well = fit_potential(5.0, 1e-10, 1.0)  # very separated wells
        derived = derive_well(well)
        energies = two_level_energies(derived, well)
        system = build_two_qubit(energies, derived, g0=0.3)
        limit = -0.3 / (4.0 * np.sqrt(np.pi) * derived.sigma_x)
        for h in (system.h1, system.h2, system.h3):
            assert h == pytest.approx(limit, rel=1e-6)

    def test_attraction_lowers_ground_state(self):
        _, derived, energies = paper_energies(2.47)
        system = build_two_qubit(energies, derived, g0=0.05)
        values = np.linalg.eigvalsh(system.h_matrix)
        assert values[0] < 2.0 * energies.e0
        assert np.max(np.abs(system.h_matrix - system.h_matrix.T)) == 0.0

    def test_product_ground_state(self):
        _, derived, energies = paper_energies(2.47)
        result = ground_state_entanglement(build_two_qubit(energies, derived, 0.0))
        assert result.k == pytest.approx(1.0, abs=1e-10)
        assert not result.degenerate

    def test_bell_like_state(self):
        _, derived, energies = paper_energies(2.47)
        h = np.zeros((4, 4))
        h[0, 3] = h[3, 0] = -1.0
        system = TwoQubitSystem(energies, 1.0, 0.0, 0.0, 0.0, h)
        result = ground_state_entanglement(system)
        assert result.k == pytest.approx(2.0, rel=1e-12)

    def test_entanglement_monotone_and_saturating(self):
        _, derived, energies = paper_energies(2.47)
        contact = 4.0 * np.sqrt(np.pi) * derived.sigma_x
        g_values = np.linspace(0.0, 120.0 * energies.splitting * contact, 50)
        k_values = [
            ground_state_entanglement(build_two_qubit(energies, derived, float(g))).k
            for g in g_values
        ]
        assert all(b >= a - 1e-9 for a, b in zip(k_values, k_values[1:]))
        assert all(1.0 - 1e-12 <= k <= 2.0 + 1e-12 for k in k_values)
        strong = ground_state_entanglement(
            build_two_qubit(energies, derived, 100.0 * energies.splitting * contact)
        )
        assert strong.k > 1.9

    def test_repulsion_also_entangles(self):
        _, derived, energies = paper_energies(2.47)
        contact = 4.0 * np.sqrt(np.pi) * derived.sigma_x
        result = ground_state_entanglement(
            build_two_qubit(energies, derived, -100.0 * energies.splitting * contact)
        )
        assert result.k > 1.9

    def test_degenerate_ground_state_flagged(self):
        _, derived, energies = paper_energies(2.47)
        system = TwoQubitSystem(energies, 0.0, 0.0, 0.0, 0.0, np.diag([1.0, 1.0, 2.0, 3.0]))
        result = ground_state_entanglement(system)
        assert result.degenerate
        assert result.k_pair is not None

    def test_stacked_sweep_is_the_scalar_loop_bitwise(self):
        well = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, AMMONIA_ISOTOPES["NH3"].mass)
        derived = derive_well(well)
        energies = two_level_energies(derived, well)
        g_max = 300.0 * energies.splitting * 4.0 * np.sqrt(np.pi) * derived.sigma_x
        g_values = np.linspace(-g_max, g_max, 101)  # the fig10 sweep
        stack = build_two_qubit(energies, derived, g_values)
        systems = [build_two_qubit(energies, derived, float(g)) for g in g_values]
        assert stack.h_matrix.shape == (101, 4, 4)
        assert stack.h_matrix.tobytes() == np.stack([s.h_matrix for s in systems]).tobytes()
        result = ground_state_entanglement(stack)
        loop = [ground_state_entanglement(s) for s in systems]
        assert result.k.tobytes() == np.array([r.k for r in loop]).tobytes()
        assert not result.degenerate.any() and result.k_pair is None
        assert isinstance(loop[0].k, float) and loop[0].degenerate is False

    def test_degeneracy_flag_per_matrix(self):
        _, derived, energies = paper_energies(2.47)
        h = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 1.0, 2.0, 3.0])])
        result = ground_state_entanglement(TwoQubitSystem(energies, 0.0, 0.0, 0.0, 0.0, h))
        assert result.degenerate.tolist() == [False, True]
        single = ground_state_entanglement(TwoQubitSystem(energies, 0.0, 0.0, 0.0, 0.0, h[1]))
        assert single.degenerate and single.k_pair is not None
        assert result.k_pair[0][1] == single.k_pair[0] and result.k_pair[1][1] == single.k_pair[1]
        assert result.k_pair[0][0] == result.k_pair[1][0] == result.k[0]

    def test_isotope_chain_ordering(self):
        splittings = []
        for name in ("NH3", "ND3", "NT3"):
            _, _, energies = paper_energies(AMMONIA_ISOTOPES[name].mass)
            splittings.append(energies.splitting)
        assert splittings[0] > splittings[1] > splittings[2]


# converged sinc-DVR inversion frequencies of the ammonia wells, in GHz
DVR_FREQUENCIES_GHZ = {"NH3": 356.384073, "ND3": 53.1651335, "NT3": 16.6446212}


def ammonia_well(isotope):
    fitted = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, AMMONIA_ISOTOPES["NH3"].mass)
    return DoubleWell(fitted.alpha, fitted.beta, AMMONIA_ISOTOPES[isotope].mass)


def lapack_levels(u, mass, grid, n_levels):
    """Reference: the sinc-DVR matrix written out entry by entry, solved by LAPACK's dsyevr."""
    from scipy.linalg import eigh

    j = np.arange(grid.n_points)
    k = j[:, None] - j[None, :]
    off_diagonal = 2.0 * (-1.0) ** k / np.where(k == 0, 1, k) ** 2
    kinetic = np.where(k == 0, np.pi**2 / 3.0, off_diagonal) / (2.0 * mass * grid.spacing**2)
    return eigh(kinetic + np.diag(u), eigvals_only=True, subset_by_index=[0, n_levels - 1], driver="evr")


class TestLowestLevels:
    @pytest.mark.parametrize("n", [2048])
    @pytest.mark.parametrize("isotope", ["NH3", "ND3", "NT3"])
    def test_ammonia_wells_match_lapack(self, isotope, n):
        well = ammonia_well(isotope)
        grid = make_grid(0.0, 3.0 * derive_well(well).a, n)
        u = well.potential(grid.points)
        levels = lowest_levels(u, well.mass, grid)
        np.testing.assert_allclose(levels, lapack_levels(u, well.mass, grid, 2), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("half_width, n", [(12.0, 512)])
    def test_harmonic_levels_match_lapack(self, half_width, n):
        grid = make_grid(0.0, half_width, n)
        u = 0.5 * 2.0 * grid.points**2
        levels = lowest_levels(u, 1.0, grid, n_levels=4)
        np.testing.assert_allclose(levels, lapack_levels(u, 1.0, grid, 4), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_harmonic_levels_exact(self, n):
        grid = make_grid(0.0, 12.0, n)
        levels = lowest_levels(0.5 * 2.0 * grid.points**2, 1.0, grid, n_levels=4)
        exact = np.sqrt(2.0) * (np.arange(4) + 0.5)
        np.testing.assert_allclose(levels, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("isotope", ["NH3", "ND3", "NT3"])
    def test_ammonia_frequencies_converged(self, isotope):
        e0, e1 = grid_eigensolve(ammonia_well(isotope))
        frequency = splitting_to_frequency(e1 - e0)
        assert frequency == pytest.approx(DVR_FREQUENCIES_GHZ[isotope], rel=1e-9, abs=0)

    @pytest.mark.parametrize("isotope", ["NH3", "ND3", "NT3"])
    def test_splittings_at_n_and_n_plus_32_agree(self, isotope):
        well = ammonia_well(isotope)
        box = 3.0 * derive_well(well).a

        def splitting(n):
            grid = make_grid(0.0, box, n)
            e0, e1 = lowest_levels(well.potential(grid.points), well.mass, grid)
            return e1 - e0

        for n in (64, 128, 256):
            assert splitting(n + 32) == pytest.approx(splitting(n), rel=1e-9, abs=0)

    def test_numerically_degenerate_pair(self):
        # splitting far below the float spacing of the levels: both copies
        # are found, and the converged solve refuses to report it
        well = DoubleWell(30.0, 10.0 / 3.0, 1.0)
        grid = make_grid(0.0, 8.0, 256)
        levels = lowest_levels(well.potential(grid.points), 1.0, grid)
        assert levels[1] - levels[0] < 1e-12
        with pytest.raises(UnresolvedSplittingError, match="cannot resolve"):
            grid_eigensolve(well)

    def test_reruns_are_identical(self):
        grid = make_grid(0.0, 2.5, 256)
        u = PAPER_WELL.potential(grid.points)
        first = lowest_levels(u, PAPER_WELL.mass, grid)
        assert np.array_equal(first, lowest_levels(u, PAPER_WELL.mass, grid))

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(tunneling, "_DVR_CONVERGENCE", 0.0)
        monkeypatch.setattr(tunneling, "MAX_DVR_POINTS", 160)
        with pytest.raises(InsufficientGridError, match="did not converge"):
            grid_eigensolve(PAPER_WELL)

    def test_bad_level_count_rejected(self):
        grid = make_grid(0.0, 12.0, 64)
        with pytest.raises(ValueError):
            lowest_levels(grid.points**2, 1.0, grid, n_levels=0)


class TestUnderflowingOverlap:
    def test_subnormal_splitting_target_fits(self):
        well = fit_potential(5.0, 1e-320, 1.0)
        derived = derive_well(well)
        assert derived.overlap < 1e-300
        assert np.isfinite(derived.log_overlap)

    def test_log_overlap_stays_finite_where_overlap_underflows(self):
        # true splitting 10^-372.5: 0.0 is the correct float
        well = DoubleWell(50.0, 1.0, 3.0)
        derived = derive_well(well)
        assert derived.overlap == 0.0
        assert derived.log_overlap == pytest.approx(-(derived.a**2) / (2.0 * derived.sigma_x**2))
        assert np.isfinite(derived.log_overlap)
        assert two_level_energies(derived, well).splitting == 0.0

    def test_log_overlap_matches_overlap(self):
        derived = derive_well(PAPER_WELL)
        assert np.exp(derived.log_overlap) == pytest.approx(derived.overlap, rel=1e-15)
