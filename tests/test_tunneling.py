"""Double-well two-level model, the coupled-qubit system and the ammonia fit."""

import time
import tracemalloc

import numpy as np
import pytest

from oracles import build_two_qubit, coupling_terms, energy_terms, ground_state_entanglement, two_level_energies
from qmodes import tunneling
from qmodes.numerics import grid
from qmodes.tunneling import (
    AMMONIA_EQUILIBRIUM,
    AMMONIA_ISOTOPES,
    AMMONIA_SPLITTING,
    GHZ_PER_MODEL_UNIT,
    DegenerateWellError,
    DoubleWell,
    FitError,
    InsufficientGridError,
    UnresolvedSplittingError,
    fit_potential,
    grid_eigensolve,
    lowest_levels,
    splitting_to_frequency,
    two_level_splitting,
    two_qubit_schmidt_number,
)

PAPER_WELL = DoubleWell(69.29, 141.73, 2.47)


def paper_energies(mass):
    """The paper's well at ``mass``, with the oracle's (E0, E1) and the closed-form splitting."""
    well = DoubleWell(69.29, 141.73, mass)
    return well, (*two_level_energies(well), two_level_splitting(well))


def well_terms(well):
    return energy_terms(well.a, well.sigma_x, well.overlap, well.alpha, well.beta, well.mass)


def high_precision_splitting(well, digits=60):
    """E1 - E0 from the oracle's U + T expressions, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        values = (well.a, well.sigma_x, well.overlap, well.alpha, well.beta, well.mass)
        t0, t1, u0, u1 = energy_terms(*(mpmath.mpf(v) for v in values))
        return float((u1 + t1) - (u0 + t0))


def step_by_step_geometry(well):
    """a, sigma_x (through omega0), overlap and log_overlap, one numpy float64 step at a time."""
    a = np.sqrt(well.alpha / well.beta)
    omega0 = np.sqrt(2.0 * well.alpha / well.mass)
    sigma_x = np.sqrt(1.0 / (2.0 * well.mass * omega0))
    overlap = np.exp(-(a**2) / (2.0 * sigma_x**2))
    return float(a), float(sigma_x), float(overlap), -(float(a) ** 2) / (2.0 * float(sigma_x) ** 2)


class TestDeriveWell:
    """The geometry a ``DoubleWell`` derives from (alpha, beta, m)."""

    def test_ammonia_geometry(self):
        assert PAPER_WELL.a == pytest.approx(0.699, abs=5e-4)
        assert PAPER_WELL.sigma_x == pytest.approx(0.164, abs=5e-4)
        assert PAPER_WELL.overlap == pytest.approx(1.18e-4, rel=0.02)
        # the well depth U(+/-a) = -alpha^2/(4 beta)
        depth = PAPER_WELL.potential(np.array([-PAPER_WELL.a, PAPER_WELL.a]))
        np.testing.assert_allclose(depth, -(69.29**2) / (4 * 141.73), rtol=1e-12, atol=0)

    def test_simple_values(self):
        # a shallow well: its overlap 0.135 is past the two-level regime
        well = DoubleWell(2.0, 2.0, 1.0)
        with pytest.warns(UserWarning, match="overlap 0.135"):
            two_level_splitting(well)
        assert well.a == pytest.approx(1.0, rel=1e-12)
        # sigma_x^2 = 1/(2 m omega0) with omega0 = sqrt(2 alpha/m) = 2
        assert well.sigma_x**2 == pytest.approx(0.25, rel=1e-12)

    def test_heavy_isotope_overlap(self):
        assert DoubleWell(69.29, 141.73, 4.2).overlap == pytest.approx(7.5e-6, rel=0.02)

    def test_validity_warning(self):
        with pytest.warns(UserWarning):
            two_level_splitting(DoubleWell(1.0, 10.0, 1.0))

    @pytest.mark.parametrize("isotope", [None, "NH3", "ND3", "NT3"])
    def test_geometry_is_the_step_by_step_formula_bitwise(self, isotope):
        well = PAPER_WELL if isotope is None else ammonia_well(isotope)
        got = (well.a, well.sigma_x, well.overlap, well.log_overlap)
        assert [v.hex() for v in got] == [v.hex() for v in step_by_step_geometry(well)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DoubleWell(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DoubleWell(1.0, 1.0, -2.0)

    @pytest.mark.parametrize("name", ["alpha", "beta", "mass"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_a_parameter_that_is_not_finite_is_named(self, name, value):
        # an infinite alpha once passed, and its overlap divided by zero
        values = {"alpha": 1.0, "beta": 1.0, "mass": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
            DoubleWell(**values)


class TestTwoLevelEnergies:
    """The closed-form splitting, against the oracle's two-level energies."""

    def test_coincident_well_kinetic_limit(self):
        # a -> 0: T0 tends to the single-Gaussian kinetic energy 1/(8 m sigma^2).
        # sigma_x = 1 at alpha = 1/8, m = 1, and beta puts a at 1e-7
        well = DoubleWell(0.125, 0.125e14, 1.0)
        assert well.sigma_x == 1.0 and well.a == pytest.approx(1e-7, rel=1e-12)
        assert 1.0 - 1e-14 < well.overlap < 1.0
        with pytest.warns(UserWarning, match="overlap 1 > 0.01"):
            two_level_splitting(well)
        t0, _, _, _ = well_terms(well)
        assert t0 == pytest.approx(1.0 / 8.0, rel=1e-6)

    def test_degenerate_well_rejected(self):
        # alpha/beta underflows to a = 0; a/sigma_x = 5e-15 rounds the overlap to 1
        for well in (DoubleWell(1e-200, 1e200, 1.0), DoubleWell(1e-30, 1e-16, 1.0)):
            assert well.overlap == 1.0
            with pytest.raises(DegenerateWellError):
                two_level_splitting(well)

    def test_nh3_splitting(self):
        _, (e0, e1, splitting) = paper_energies(2.47)
        assert splitting == pytest.approx(0.00665, rel=0.02)
        assert e1 > e0
        # nothing cancels here, so the closed form must equal the difference
        assert splitting == pytest.approx(e1 - e0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "well",
        [
            DoubleWell(1.3, 0.052, 1.0),  # E1 - E0 ~ 1.6e-16: float e1 - e0 loses every digit
            PAPER_WELL,
        ],
    )
    def test_splitting_matches_high_precision_difference(self, well):
        splitting = two_level_splitting(well)
        exact = high_precision_splitting(well)
        assert exact > 0.0
        assert splitting == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_nd3_splitting(self):
        _, (_, _, splitting) = paper_energies(4.2)
        assert splitting == pytest.approx(0.000416, rel=0.02)

    def test_splitting_shrinks_with_separation(self):
        # fixed omega0 (alpha, m): raising beta pulls the wells together
        previous = None
        for beta in (80.0, 120.0, 160.0, 240.0):
            well = DoubleWell(69.29, beta, 2.47)
            splitting = two_level_splitting(well)
            if previous is not None:
                assert splitting > previous  # larger beta => smaller a => more tunneling
            previous = splitting


class TestFit:
    def test_recovers_reference_parameters(self):
        well = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, 2.47)
        assert well.alpha == pytest.approx(69.29, rel=5e-3)
        assert well.beta == pytest.approx(141.73, rel=5e-3)

    def test_round_trip(self):
        well = fit_potential(0.8, 0.003, 3.0)
        assert well.a == pytest.approx(0.8, rel=1e-12)
        assert two_level_splitting(well) == pytest.approx(0.003, rel=1e-8)

    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-14])
    def test_round_trip_small_splittings(self, target):
        well = fit_potential(5.0, target, 1.0)
        assert two_level_splitting(well) == pytest.approx(target, rel=1e-10, abs=0.0)

    def test_forward_map_monotone(self):
        # larger alpha at fixed a gives a smaller splitting
        def splitting(alpha):
            well = DoubleWell(alpha, alpha / 0.699**2, 2.47)
            return two_level_splitting(well)

        values = [splitting(alpha) for alpha in (40.0, 60.0, 80.0, 120.0, 200.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_validity_violation_rejected(self):
        with pytest.raises(FitError):
            fit_potential(0.699, 1.0, 2.47)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_potential(-1.0, 0.01, 1.0)

    @pytest.mark.parametrize("name", ["a_target", "delta_e_target", "mass"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    def test_a_parameter_that_is_not_finite_and_positive_is_named(self, name, value):
        # an infinite mass once searched for a bracket and named the target
        values = {"a_target": AMMONIA_EQUILIBRIUM, "delta_e_target": AMMONIA_SPLITTING, "mass": 2.47}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
            fit_potential(**{**values, name: value})

    @pytest.mark.parametrize("mass", [1e-23, 1e-30, 1e-300, 5e-324])
    def test_too_light_a_mass_is_named(self, mass):
        # the overlap rounds to 1 at alpha = 1e-4 from m = 1e-29 down, and the
        # fit's 2 alpha/m overflows for the lightest masses
        with pytest.raises(FitError, match=f"mass {mass} too small"):
            fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, mass)

    @pytest.mark.parametrize("mass", [1e305, 1e308])
    def test_too_heavy_a_mass_leaves_the_target_unreachable(self, mass):
        # at m = 1e308 the Gaussian width 1/(2 m omega0) rounds to 0
        with pytest.raises(FitError, match=f"target {AMMONIA_SPLITTING} unreachable"):
            fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, mass)


class TestUnits:
    def test_isotope_presets(self):
        assert set(AMMONIA_ISOTOPES) == {"NH3", "ND3", "NT3"}
        assert AMMONIA_ISOTOPES["NH3"][0] == pytest.approx(42.0 / 17.0, rel=1e-14)
        assert AMMONIA_ISOTOPES["ND3"][1] == pytest.approx(1.6)
        assert AMMONIA_ISOTOPES["NT3"][1] == pytest.approx(0.306)

    def test_frequency_conversion(self):
        assert GHZ_PER_MODEL_UNIT == pytest.approx(3607.0, rel=2e-4)
        assert splitting_to_frequency(0.00665) == pytest.approx(24.0, rel=0.01)
        assert splitting_to_frequency(0.000416) == pytest.approx(1.5, rel=0.01)
        assert splitting_to_frequency(0.0) == 0.0


class TestGridEigensolve:
    def test_harmonic_oscillator_levels(self):
        x, dx = grid(12.0, 128)
        omega = np.sqrt(2.0)
        potential = 0.5 * 2.0 * x**2  # alpha x^2 / 2 with alpha = 2, m = 1
        levels = lowest_levels(potential, 1.0, dx)[:4]
        for n, level in enumerate(levels):
            assert level == pytest.approx(omega * (n + 0.5), abs=1e-4)

    def test_nh3_well_against_spectral_oracle(self):
        # independent oracle: diagonalize in a harmonic-oscillator basis
        well, _ = paper_energies(2.47)
        e0, e1 = grid_eigensolve(well)
        n_basis = 200
        n = np.arange(n_basis)
        w = np.sqrt(2.0 * well.alpha / well.mass)
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
            well, (model_e0, model_e1, splitting) = paper_energies(mass)
            e0, e1 = grid_eigensolve(well)
            assert e0 < model_e0
            assert e1 < model_e1
            assert model_e0 == pytest.approx(e0, rel=0.10)
            assert model_e1 == pytest.approx(e1, rel=0.10)
            assert (e1 - e0) > splitting

    def test_grid_preconditions(self):
        # the dense Hamiltonian is n x n: a larger grid is refused before it is built
        x, dx = grid(2.5, tunneling.MAX_DVR_POINTS + 1)
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientGridError, match="at most"):
                lowest_levels(PAPER_WELL.potential(x), PAPER_WELL.mass, dx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestTwoQubit:
    def test_no_interaction_is_diagonal(self):
        well, (e0, e1, _) = paper_energies(2.47)
        h = build_two_qubit(e0, e1, well, g0=0.0)
        expected = np.diag([2 * e0, e0 + e1, e0 + e1, 2 * e1])
        assert np.max(np.abs(h - expected)) == 0.0

    def test_separated_limit_of_matrix_elements(self):
        well = fit_potential(5.0, 1e-10, 1.0)  # very separated wells
        e0, e1 = two_level_energies(well)
        h = build_two_qubit(e0, e1, well, g0=0.3)
        limit = -0.3 / (4.0 * np.sqrt(np.pi) * well.sigma_x)
        h1 = h[0, 0] - 2.0 * e0
        h3 = h[3, 3] - 2.0 * e1
        assert h[1, 1] - (e0 + e1) == pytest.approx(h[1, 2], rel=1e-12)
        for element in (h1, h[1, 2], h3):
            assert element == pytest.approx(limit, rel=1e-6)

    def test_attraction_lowers_ground_state(self):
        well, (e0, e1, _) = paper_energies(2.47)
        h = build_two_qubit(e0, e1, well, g0=0.05)
        values = np.linalg.eigvalsh(h)
        assert values[0] < 2.0 * e0
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_product_ground_state(self):
        well, (e0, e1, splitting) = paper_energies(2.47)
        assert two_qubit_schmidt_number(well, splitting, 0.0) == 1.0
        assert ground_state_entanglement(build_two_qubit(e0, e1, well, 0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_bell_like_state(self):
        h = np.zeros((4, 4))
        h[0, 3] = h[3, 0] = -1.0
        k = ground_state_entanglement(h)
        assert k == pytest.approx(2.0, rel=1e-12)

    def test_entanglement_monotone_and_saturating(self):
        well, (_, _, splitting) = paper_energies(2.47)
        contact = 4.0 * np.sqrt(np.pi) * well.sigma_x
        k_values = two_qubit_schmidt_number(well, splitting, np.linspace(0.0, 120.0 * splitting * contact, 50))
        assert np.all(np.diff(k_values) >= 0.0)
        assert np.all((1.0 <= k_values) & (k_values <= 2.0))
        assert two_qubit_schmidt_number(well, splitting, 100.0 * splitting * contact) > 1.9

    def test_repulsion_also_entangles(self):
        well, (_, _, splitting) = paper_energies(2.47)
        contact = 4.0 * np.sqrt(np.pi) * well.sigma_x
        assert two_qubit_schmidt_number(well, splitting, -100.0 * splitting * contact) > 1.9

    def test_stacked_sweep_is_the_scalar_loop_bitwise(self):
        well, splitting, g_values = fig10_sweep()
        k = two_qubit_schmidt_number(well, splitting, g_values)
        loop = [two_qubit_schmidt_number(well, splitting, g) for g in g_values]
        assert k.shape == (101,) and loop[0].shape == ()
        assert k.tobytes() == np.array(loop).tobytes()

    def test_stack_with_a_degenerate_ground_level_is_each_matrix(self):
        h = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 1.0, 2.0, 3.0])])
        k = ground_state_entanglement(h)
        assert k[1] == ground_state_entanglement(h[1])
        assert k[0] == ground_state_entanglement(h[0])

    def test_isotope_chain_ordering(self):
        splittings = []
        for name in ("NH3", "ND3", "NT3"):
            _, (_, _, splitting) = paper_energies(AMMONIA_ISOTOPES[name][0])
            splittings.append(splitting)
        assert splittings[0] > splittings[1] > splittings[2]


def fig10_sweep(g0_max=None):
    """The NH3-fitted well, its splitting and the qubits sweep of 101 couplings
    up to ``g0_max`` (default: fig10's 300 reduced units)."""
    well = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, AMMONIA_ISOTOPES["NH3"][0])
    splitting = two_level_splitting(well)
    g_max = g0_max or 300.0 * splitting * 4.0 * np.sqrt(np.pi) * well.sigma_x
    return well, splitting, np.linspace(-g_max, g_max, 101)


def high_precision_schmidt_number(well, g0, digits=60):
    """K of the ground state of the oracle's 4 x 4 two-qubit Hamiltonian,
    with a, sigma_x, the overlap, E0, E1 and the couplings derived from the
    well's (alpha, beta, mass) and g0 in mpmath, and the matrix solved there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        alpha, beta, m, g = (mpmath.mpf(v) for v in (well.alpha, well.beta, well.mass, g0))
        a = mpmath.sqrt(alpha / beta)
        sx = mpmath.sqrt(1 / (2 * m * mpmath.sqrt(2 * alpha / m)))
        eps = mpmath.exp(-(a**2) / (2 * sx**2))
        t0, t1, u0, u1 = energy_terms(a, sx, eps, alpha, beta, m)
        e0, e1 = u0 + t0, u1 + t1
        h1, h2, h3 = coupling_terms(eps, g / (4 * mpmath.sqrt(mpmath.pi) * sx))
        h = mpmath.matrix(
            [
                [2 * e0 + h1, 0, 0, h2],
                [0, e0 + e1 + h2, h2, 0],
                [0, h2, e0 + e1 + h2, 0],
                [h2, 0, 0, 2 * e1 + h3],
            ]
        )
        values, vectors = mpmath.eigsy(h)
        low = min(range(4), key=lambda k: values[k])
        c00, c01, c10, c11 = (vectors[i, low] for i in range(4))
        return float(1 / (1 - 2 * (c00 * c11 - c01 * c10) ** 2))


def relative_errors(well, splitting, g_values):
    k = two_qubit_schmidt_number(well, splitting, g_values)
    exact = np.array([high_precision_schmidt_number(well, g) for g in g_values])
    return np.abs(k / exact - 1.0)


class TestTwoQubitClosedForm:
    """``two_qubit_schmidt_number`` against a 60-digit solve of the same
    model and against the oracle's float ``eigh``."""

    def test_catalog_sweep_matches_high_precision(self):
        # the oracle's eigh is off by up to 6e-15 here, from cancellation in 2 E0 - 2 E1
        assert np.max(relative_errors(*fig10_sweep())) <= 4e-15

    @pytest.mark.parametrize("g0_max", [1e300, 1e306])
    def test_largest_couplings_match_high_precision(self, g0_max):
        well, splitting, g_values = fig10_sweep(g0_max)
        assert np.max(relative_errors(well, splitting, g_values)) <= 4e-15
        k = two_qubit_schmidt_number(well, splitting, g_values)
        assert k[50] == 1.0 and np.all((1.0 <= k) & (k <= 2.0))

    @pytest.mark.parametrize(
        "fit_mass, crossing",
        [(2.47, -5730.539036751731), (1.0, -17801.15843395478), (20.0, -341.7684419521033)],
    )
    def test_both_sides_of_the_block_crossing_match_high_precision(self, fit_mass, crossing):
        # beyond the crossing (in reduced coupling) strong repulsion puts the
        # ground state in the {01, 10} block, whose Bell states have K = 2;
        # one part in 1e12 from it the levels of the blocks still part
        well = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, fit_mass)
        splitting = two_level_splitting(well)
        reduced = np.array([1.001, 1.0 + 1e-12, 1.0 - 1e-12, 0.999]) * crossing
        g_values = reduced * splitting * 4.0 * np.sqrt(np.pi) * well.sigma_x
        k = two_qubit_schmidt_number(well, splitting, g_values)
        assert k[0] == k[1] == 2.0 and k[2] < 2.0 and k[3] < 2.0
        assert np.max(relative_errors(well, splitting, g_values)) <= 4e-15


# converged sinc-DVR inversion frequencies of the ammonia wells, in GHz
DVR_FREQUENCIES_GHZ = {"NH3": 356.384073, "ND3": 53.1651335, "NT3": 16.6446212}


def ammonia_well(isotope):
    fitted = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, AMMONIA_ISOTOPES["NH3"][0])
    return DoubleWell(fitted.alpha, fitted.beta, AMMONIA_ISOTOPES[isotope][0])


def dvr_matrix(u, mass, spacing):
    """The sinc-DVR Hamiltonian of the samples ``u``, written out entry by entry."""
    j = np.arange(len(u))
    k = j[:, None] - j[None, :]
    off_diagonal = 2.0 * (-1.0) ** k / np.where(k == 0, 1, k) ** 2
    kinetic = np.where(k == 0, np.pi**2 / 3.0, off_diagonal) / (2.0 * mass * spacing**2)
    return kinetic + np.diag(u)


def lapack_levels(u, mass, spacing, n_levels):
    """Reference: ``dvr_matrix`` solved by LAPACK's dsyevr."""
    from scipy.linalg import eigh

    h = dvr_matrix(u, mass, spacing)
    return eigh(h, eigvals_only=True, subset_by_index=[0, n_levels - 1], driver="evr")


class TestLowestLevels:
    @pytest.mark.parametrize("n", [2048])
    @pytest.mark.parametrize("isotope", ["NH3", "ND3", "NT3"])
    def test_ammonia_wells_match_lapack(self, isotope, n):
        well = ammonia_well(isotope)
        x, dx = grid(3.0 * well.a, n)
        u = well.potential(x)
        levels = lowest_levels(u, well.mass, dx)[:2]
        np.testing.assert_allclose(levels, lapack_levels(u, well.mass, dx, 2), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("half_width, n", [(12.0, 512)])
    def test_harmonic_levels_match_lapack(self, half_width, n):
        x, dx = grid(half_width, n)
        u = 0.5 * 2.0 * x**2
        levels = lowest_levels(u, 1.0, dx)[:4]
        np.testing.assert_allclose(levels, lapack_levels(u, 1.0, dx, 4), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_harmonic_levels_exact(self, n):
        x, dx = grid(12.0, n)
        levels = lowest_levels(0.5 * 2.0 * x**2, 1.0, dx)
        # every level of the n-point DVR, ascending
        assert levels.shape == (n,) and np.all(np.diff(levels) >= 0.0)
        exact = np.sqrt(2.0) * (np.arange(4) + 0.5)
        np.testing.assert_allclose(levels[:4], exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("isotope", ["NH3", "ND3", "NT3"])
    def test_ammonia_frequencies_converged(self, isotope):
        e0, e1 = grid_eigensolve(ammonia_well(isotope))
        frequency = splitting_to_frequency(e1 - e0)
        assert frequency == pytest.approx(DVR_FREQUENCIES_GHZ[isotope], rel=1e-9, abs=0)

    @pytest.mark.parametrize("isotope", ["NH3", "ND3", "NT3"])
    def test_splittings_at_n_and_n_plus_32_agree(self, isotope):
        well = ammonia_well(isotope)
        box = 3.0 * well.a

        def splitting(n):
            x, dx = grid(box, n)
            e0, e1 = lowest_levels(well.potential(x), well.mass, dx)[:2]
            return e1 - e0

        for n in (64, 128, 256):
            assert splitting(n + 32) == pytest.approx(splitting(n), rel=1e-9, abs=0)

    def test_numerically_degenerate_pair(self):
        # splitting far below the float spacing of the levels: both copies
        # are found, and the converged solve refuses to report it
        well = DoubleWell(30.0, 10.0 / 3.0, 1.0)
        x, dx = grid(8.0, 256)
        levels = lowest_levels(well.potential(x), 1.0, dx)
        assert levels[1] - levels[0] < 1e-12
        with pytest.raises(UnresolvedSplittingError, match="cannot resolve"):
            grid_eigensolve(well)

    @pytest.mark.parametrize("n", [64, 96, 256])
    @pytest.mark.parametrize(
        "well, edge",
        [
            (ammonia_well("NH3"), None),
            (DoubleWell(30.0, 10.0 / 3.0, 1.0), 8.0),
            (PAPER_WELL, 2.5),
        ],
    )
    def test_levels_are_those_of_the_matrix_written_out(self, well, edge, n):
        # bit for bit, on the DVR box and on the grids of the tests below
        edge = edge or max(3.0 * well.a, well.a + 8.0 * well.sigma_x)
        x, dx = grid(edge, n)
        u = well.potential(x)
        expected = np.linalg.eigvalsh(dvr_matrix(u, well.mass, dx))
        assert np.array_equal(lowest_levels(u, well.mass, dx), expected)

    def test_reruns_are_identical(self):
        x, dx = grid(2.5, 256)
        u = PAPER_WELL.potential(x)
        first = lowest_levels(u, PAPER_WELL.mass, dx)
        assert np.array_equal(first, lowest_levels(u, PAPER_WELL.mass, dx))

    def test_non_convergence_raises(self, monkeypatch):
        # a splitting that grows by 3.2e-5 a step, far above its rounding floor, never settles
        solve = tunneling.lowest_levels

        def drifting(u, mass, spacing):
            return solve(u, mass, spacing)[:2] + [0.0, 1e-6 * len(u)]

        monkeypatch.setattr(tunneling, "lowest_levels", drifting)
        monkeypatch.setattr(tunneling, "MAX_DVR_POINTS", 160)
        with pytest.raises(InsufficientGridError, match="did not converge within 160 points"):
            grid_eigensolve(PAPER_WELL)

    def test_splitting_just_above_the_rounding_floor_converges(self):
        # NT3 in the well fitted at mass 1.5: its 64- and 96-point splittings
        # agree, and the 96-point floor is 0.94 of the tolerance
        fitted = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, 1.5)
        well = DoubleWell(fitted.alpha, fitted.beta, AMMONIA_ISOTOPES["NT3"][0])
        e0, e1 = grid_eigensolve(well)
        x, dx = grid(max(3.0 * well.a, well.a + 8.0 * well.sigma_x), 96)
        u = well.potential(x)
        assert (e0, e1) == tuple(lowest_levels(u, well.mass, dx)[:2])
        floor = np.finfo(float).eps * (np.pi**2 / (6.0 * well.mass * dx**2) + np.max(np.abs(u)))
        assert 0.9 < floor / (1e-9 * (e1 - e0)) < 1.0

    @pytest.mark.parametrize("fit_mass, isotope", [(1.0, "NT3"), (0.8, "ND3"), (0.5, "NT3")])
    def test_splitting_below_the_rounding_floor_raises_at_once(self, fit_mass, isotope):
        # floors of 33 to 1.8e5 times the tolerance: without the floor, each
        # well ran every solve up to 2048 points, over 10 s, before giving up
        fitted = fit_potential(AMMONIA_EQUILIBRIUM, AMMONIA_SPLITTING, fit_mass)
        well = DoubleWell(fitted.alpha, fitted.beta, AMMONIA_ISOTOPES[isotope][0])
        start = time.perf_counter()
        with pytest.raises(UnresolvedSplittingError, match="rounding floor .* of a 64-point solve"):
            grid_eigensolve(well)
        assert time.perf_counter() - start < 1.0


class TestUnderflowingOverlap:
    def test_subnormal_splitting_target_fits(self):
        well = fit_potential(5.0, 1e-320, 1.0)
        assert well.overlap < 1e-300
        assert np.isfinite(well.log_overlap)

    def test_log_overlap_stays_finite_where_overlap_underflows(self):
        # true splitting 10^-372.5: 0.0 is the correct float
        well = DoubleWell(50.0, 1.0, 3.0)
        assert well.overlap == 0.0
        assert well.log_overlap == pytest.approx(-(well.a**2) / (2.0 * well.sigma_x**2))
        assert np.isfinite(well.log_overlap)
        assert two_level_splitting(well) == 0.0

    def test_log_overlap_matches_overlap(self):
        assert np.exp(PAPER_WELL.log_overlap) == pytest.approx(PAPER_WELL.overlap, rel=1e-15)
