"""Closed-form qubit completion range, checked against a factor-space grid scan."""

import numpy as np
import pytest

from oracles import SampledWave, conjugate_grid, fourier_to_momentum, span, symmetric
from qmodes import tomography
from qmodes.interference import COORDINATE, MOMENTUM, SlitParams, slit_basis
from qmodes.tomography import (
    analyze,
    completion_purity_range,
    reconstruct,
    vectorize,
)


def grid_scan(analysis, p, points=21):
    """Physical completions on a product grid over the undefined factors.

    Every undefined factor runs over a square grid on [-1, 1]^2 inside the
    unit ball; the kept completions are Hermitian, unit-trace and positive
    within the module's tolerances.  Returns (count, purity_min, purity_max).
    """
    report = reconstruct(analysis, p)
    u_count = report["undefined_count"]
    if u_count == 0:
        purity = float(np.sum(np.abs(report["rho_regularized"]) ** 2))
        return (1, purity, purity) if report["physical"] else (0, np.nan, np.nan)
    axis = np.linspace(-1.0, 1.0, points)
    reals = np.stack(np.meshgrid(*[axis] * (2 * u_count), indexing="ij"), -1).reshape(-1, 2 * u_count)
    block = reals[:, :u_count] + 1j * reals[:, u_count:]
    block = block[np.linalg.norm(block, axis=1) <= 1.0 + 1e-12]
    _, v, _, rank = analysis
    vecs = vectorize(report["rho_regularized"])[None, :] + block @ v[:, rank:].T
    rhos = np.transpose(vecs.reshape(-1, 2, 2), (0, 2, 1))
    adjoint = np.conj(np.transpose(rhos, (0, 2, 1)))
    herm = np.max(np.abs(rhos - adjoint), axis=(1, 2))
    traces = np.trace(rhos, axis1=1, axis2=2)
    ok = (herm <= tomography.HERMITICITY_TOL) & (np.abs(traces - 1.0) <= tomography.TRACE_TOL)
    sub = rhos[ok]
    ok = np.linalg.eigvalsh(0.5 * (sub + np.conj(np.transpose(sub, (0, 2, 1))))).min(axis=1)
    kept = sub[ok >= -tomography.EIGENVALUE_TOL]
    if not len(kept):
        return 0, np.nan, np.nan
    purities = np.sum(np.abs(kept) ** 2, axis=(1, 2))
    return len(kept), float(purities.min()), float(purities.max())


def populations():
    b = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
    return analyze(b)


def observable_protocol(observables):
    """Rows conj(vec(E)), so that B vec(rho) = tr(E rho) for Hermitian E."""
    return analyze(np.array([vectorize(e).conj() for e in observables]))


def test_mixed_populations_span_half_to_full_purity():
    count, scan_min, scan_max = grid_scan(populations(), np.array([0.5, 0.5]))
    assert count == 81
    assert scan_min == pytest.approx(0.5, abs=1e-12)
    assert scan_max == pytest.approx(1.0, abs=1e-12)
    lo, hi = completion_purity_range(populations(), np.array([0.5, 0.5]))
    assert (lo, hi) == pytest.approx((scan_min, scan_max), abs=1e-12)


def test_interference_protocol_fixes_a_single_point():
    protocol = tomography.interference_protocol(SlitParams(a=5.0, sigma_x=0.5, m=2), 32)
    analysis = analyze(protocol)
    assert analysis[3] == 4
    p = np.real(protocol @ vectorize(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)))
    count, scan_min, scan_max = grid_scan(analysis, p)
    assert count == 1
    lo, hi = completion_purity_range(analysis, p)
    assert lo == hi
    assert (lo, hi) == pytest.approx((scan_min, scan_max), abs=1e-12)
    assert lo == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_momentum_basis_is_the_fft_of_the_coordinate_basis(m):
    slits = SlitParams(a=1.0, sigma_x=0.5, m=m)
    grid = symmetric(20.0, 1024)
    coordinate = slit_basis(slits, grid.points, COORDINATE)
    momentum = slit_basis(slits, conjugate_grid(grid).points, MOMENTUM)
    for j in range(m):
        transformed = fourier_to_momentum(SampledWave(grid, coordinate[:, j].astype(complex)))
        assert np.max(np.abs(transformed.amplitudes - momentum[:, j])) < 1e-12


def test_protocol_rows_give_the_densities_of_a_complex_superposition():
    # (psi0 + i psi1)/sqrt 2 is not its own complex conjugate, so momentum
    # rows built for the conjugate state predict the wrong momentum density
    a, sigma, n = 1.0, 0.5, 32
    protocol = tomography.interference_protocol(SlitParams(a=a, sigma_x=sigma, m=2), n)
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    predicted = np.real(protocol @ vectorize(np.outer(v, v.conj())))

    x = np.linspace(-(a + 5.0 * sigma), a + 5.0 * sigma, n)
    p_max = min(2.0 / sigma, n * np.pi / (8.0 * a))
    p = np.linspace(-p_max, p_max, n)
    # an FFT grid on which every protocol momentum is a sample point:
    # p_i = (2i - (n - 1)) dp/2 with dp the protocol's momentum step
    big = 1024
    length = 4.0 * np.pi / (p[1] - p[0])
    grid = span(-length / 2.0, -length / 2.0 + (big - 1) * length / big, big)

    def psi(t):
        g = lambda c: (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-((t - c) ** 2) / (4.0 * sigma**2))
        q = np.exp(-(a**2) / (2.0 * sigma**2))
        psi0 = (g(-a) + g(a)) / np.sqrt(2.0 * (1.0 + q))
        psi1 = (g(a) - g(-a)) / np.sqrt(2.0 * (1.0 - q))
        return (psi0 + 1j * psi1) / np.sqrt(2.0)

    assert np.max(np.abs(predicted[:n] / (x[1] - x[0]) - np.abs(psi(x)) ** 2)) < 1e-12
    spectrum = fourier_to_momentum(SampledWave(grid, psi(grid.points)))
    rows = big // 2 + 2 * np.arange(n) - (n - 1)
    assert np.max(np.abs(spectrum.grid.points[rows] - p)) < 1e-12
    assert np.max(np.abs(predicted[n:] / (p[1] - p[0]) - np.abs(spectrum.amplitudes[rows]) ** 2)) < 1e-9


def test_trace_only_protocol_has_the_full_range():
    # three undefined factors: 21^6 grid points, beyond an exhaustive scan
    analysis = observable_protocol([np.eye(2)])
    _, v, _, rank = analysis
    assert v.shape[0] - rank == 3
    assert completion_purity_range(analysis, np.array([1.0])) == pytest.approx((0.5, 1.0), abs=1e-15)


@pytest.mark.parametrize(
    "p",
    [
        [1.5, -0.5],  # consistent populations outside the Bloch ball: d = 2
        [0.5, 0.6],  # no unit-trace state fits
    ],
)
def test_no_completion_gives_nan(p):
    assert grid_scan(populations(), np.array(p))[0] == 0
    lo, hi = completion_purity_range(populations(), np.array(p))
    assert np.isnan(lo) and np.isnan(hi)


def test_vanishing_data_raise_zero_factors_error():
    # zero data are adequate and all their defined factors vanish; K_max =
    # 1/(f+ f) would raise ZeroDivisionError, which is no ValueError, so a CLI
    # run would end in a traceback
    with pytest.raises(tomography.ZeroFactorsError, match="K_max undefined"):
        reconstruct(populations(), np.zeros(2))


def test_zero_protocol_has_rank_zero():
    # a protocol B of zeros has no leading singular value to scale by, and
    # still gives rank 0: zero data leave every factor undefined, and other
    # data lie wholly outside its column space
    analysis = analyze(np.zeros((3, 4)))
    assert analysis[3] == 0
    with pytest.raises(tomography.ZeroFactorsError):
        reconstruct(analysis, np.zeros(3))
    with pytest.raises(tomography.InadequateDataError) as error:
        reconstruct(analysis, np.ones(3))
    assert error.value.residual == 1.0


def test_inadequate_data_still_raises():
    with pytest.raises(tomography.InadequateDataError):
        completion_purity_range(observable_protocol([np.eye(2), np.eye(2)]), np.array([1.0, 0.5]))


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_unit = st.floats(-1.0, 1.0)


def _bloch_operator(e0, e):
    return e0 * np.eye(2) + np.einsum("k,kij->ij", e, _PAULI)


@settings(max_examples=200, deadline=None)
@given(
    direction=st.tuples(_unit, _unit, _unit).filter(lambda r: np.linalg.norm(r) > 1e-3),
    radius=st.floats(0.0, 1.0),
    frame=st.lists(_unit, min_size=9, max_size=9),
    offsets=st.tuples(_unit, _unit, _unit),
    scales=st.tuples(*[st.floats(0.2, 1.0)] * 3),
    k=st.integers(2, 3),
)
def test_true_purity_lies_in_the_range(direction, radius, frame, offsets, scales, k):
    r = radius * np.asarray(direction) / np.linalg.norm(direction)
    rho = 0.5 * _bloch_operator(1.0, r)
    # k observables whose Bloch parts are orthogonal: rank k, and r is fixed when k = 3
    axes = np.linalg.qr(np.reshape(frame, (3, 3)))[0].T
    observables = [_bloch_operator(offsets[j], scales[j] * axes[j]) for j in range(k)]
    analysis = observable_protocol(observables)
    assert analysis[3] == k
    p = np.array([np.trace(e @ rho).real for e in observables])
    lo, hi = completion_purity_range(analysis, p)
    purity = (1.0 + r @ r) / 2.0
    assert lo - 1e-12 <= purity <= hi + 1e-12
    if k == 3:
        assert lo == pytest.approx(purity, abs=1e-12)
        assert hi == pytest.approx(purity, abs=1e-12)
    else:
        assert hi == 1.0


@pytest.mark.parametrize("a", [1e-9, 1e-4, 1.0])
def test_protocol_rows_match_high_precision_states(a):
    # the antisymmetric state (u_1 - u_0) / sqrt(2 (1 - q)) is 0/0 as a -> 0
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    sigma, n = 0.5, 16
    protocol = tomography.interference_protocol(SlitParams(a=a, sigma_x=sigma, m=2), n)
    x = np.linspace(-(a + 5.0 * sigma), a + 5.0 * sigma, n)
    p_max = min(2.0 / sigma, n * np.pi / (8.0 * a))
    p = np.linspace(-p_max, p_max, n)
    s, c = mpmath.mpf(sigma), mpmath.mpf(a)
    q = mpmath.exp(-(c**2) / (2 * s**2))
    norms = (mpmath.sqrt(2 * (1 + q)), mpmath.sqrt(2 * (1 - q)))

    def coordinate(t):
        g = lambda centre: (2 * mpmath.pi * s**2) ** -0.25 * mpmath.exp(-((t - centre) ** 2) / (4 * s**2))
        return g(-c) + g(c), g(c) - g(-c)

    def momentum(t):
        g = lambda centre: (2 * s**2 / mpmath.pi) ** 0.25 * mpmath.exp(-(s**2) * t**2 - 1j * t * centre)
        return g(-c) + g(c), g(c) - g(-c)

    rows = []
    for points, states in ((x, coordinate), (p, momentum)):
        width = mpmath.mpf(points[1] - points[0])
        for t in points:
            phi = [u / norm for u, norm in zip(states(mpmath.mpf(t)), norms)]
            rows.append([mpmath.conj(phi[j]) * phi[k] * width for j in (0, 1) for k in (0, 1)])
    expected = np.array([[complex(v) for v in row] for row in rows])
    assert np.max(np.abs(protocol - expected)) < 1e-13 * np.max(np.abs(expected))
    assert analyze(protocol)[3] == 4


def test_analysis_keeps_u_thin_and_the_residual_of_the_full_svd():
    protocol = tomography.interference_protocol(SlitParams(a=5.0, sigma_x=0.5, m=2), 64)
    analysis = analyze(protocol)
    u, v, _, rank = analysis
    assert u.shape == (128, 4) and v.shape == (4, 4)
    u_full = np.linalg.svd(protocol, full_matrices=True)[0]
    p = np.random.default_rng(3).standard_normal(128)
    q = u_full.conj().T @ p
    full_residual = np.linalg.norm(q[rank:]) / np.linalg.norm(q)
    # the random data are inadequate, and the error carries their residual
    with pytest.raises(tomography.InadequateDataError) as error:
        reconstruct(analysis, p)
    assert error.value.residual == pytest.approx(full_residual, rel=1e-12)
