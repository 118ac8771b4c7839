import tracemalloc

import numpy as np
import pytest

from eulerstat.errors import InconsistencyError, ResolutionError, ShapeError
from eulerstat.initial import InitialMeasureSpec, generate_sample
from eulerstat.spectral import (
    ScalarSpectralField,
    SpectralField,
    _fold,
    _full_plane,
    _hermitian_column,
    _synthesize_cols,
    from_physical,
    l2_norm,
    leray_project,
    max_divergence,
    modal_energy,
    sample_at_grid,
    scalar_from_physical,
    scalar_to_physical,
    sobolev_norm,
    to_physical,
    truncate_to,
    velocity_from_vorticity,
    vorticity,
    wavenumbers,
)
from oracles import complex_analysis, complex_synthesis, hermitian_random_field, hermitize


def single_mode_field(N, k, component, value):
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[component, N + k[0], N + k[1]] = value
    c[component, N - k[0], N - k[1]] = np.conj(value)
    return SpectralField(N, c)


def test_single_mode_synthesis_is_cosine():
    # coeff((1,0)) = coeff((-1,0)) = 1/2 in component 2 -> u2(x) = cos(x1)
    N, M = 4, 9
    f = single_mode_field(N, (1, 0), 1, 0.5)
    g = to_physical(f, M)
    x = 2 * np.pi * np.arange(M) / M
    assert np.abs(g[:, :, 1] - np.cos(x)[:, None]).max() < 1e-12
    assert np.abs(g[:, :, 0]).max() == 0.0


def test_zero_field_synthesis():
    g = to_physical(SpectralField.zero(5), 16)
    assert np.all(g == 0.0)


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    f = hermitian_random_field(6, rng)
    for M in (13, 18, 32):
        g = to_physical(f, M)
        f2 = from_physical(g, 6)
        assert np.abs(f2.coeffs - f.coeffs).max() < 1e-12 * np.abs(f.coeffs).max()


def test_synthesis_grid_too_small():
    with pytest.raises(ResolutionError):
        to_physical(SpectralField.zero(8), 16)


def test_from_physical_constant_grid_is_zero_field():
    g = np.full((12, 12, 2), 3.7)
    f = from_physical(g, 4)
    assert np.abs(f.coeffs).max() == 0.0


def test_from_physical_rejects_nonsquare():
    with pytest.raises(ShapeError):
        from_physical(np.zeros((8, 10, 2)), 3)


def test_from_physical_analyzes_cosine():
    M, N = 16, 4
    x = 2 * np.pi * np.arange(M) / M
    g = np.zeros((M, M, 2))
    g[:, :, 1] = np.cos(x)[:, None]
    f = from_physical(g, N)
    assert abs(f.coeff(1, 0, 1) - 0.5) < 1e-14
    assert abs(f.coeff(-1, 0, 1) - 0.5) < 1e-14
    c = f.coeffs.copy()
    c[1, N + 1, N] = 0
    c[1, N - 1, N] = 0
    assert np.abs(c).max() < 1e-14


def test_parseval():
    rng = np.random.default_rng(2)
    f = hermitian_random_field(8, rng)
    g = to_physical(f, 24)
    quadrature = np.mean(np.sum(g * g, axis=2))  # (1/(2pi)^2) int |u|^2 dx
    assert abs(quadrature - modal_energy(f)) <= 1e-12 * modal_energy(f)


def test_mean_mode_pinned_to_zero():
    c = np.ones((2, 7, 7), dtype=complex)
    f = SpectralField(3, c)
    assert f.coeff(0, 0, 0) == 0.0 and f.coeff(0, 0, 1) == 0.0


def test_leray_kills_pure_gradient_mode():
    f = single_mode_field(4, (1, 0), 0, 1.0)  # u(k) parallel to k
    assert np.abs(leray_project(f).coeffs).max() < 1e-15


def test_leray_keeps_solenoidal_mode():
    f = single_mode_field(4, (0, 1), 0, 1.0)  # u(k) orthogonal to k
    assert np.abs(leray_project(f).coeffs - f.coeffs).max() < 1e-15


def test_leray_idempotent_and_divergence_free():
    rng = np.random.default_rng(3)
    c = hermitize(rng.standard_normal((2, 17, 17)) + 1j * rng.standard_normal((2, 17, 17)))
    f = SpectralField(8, c)
    p1 = leray_project(f)
    p2 = leray_project(p1)
    assert np.abs(p2.coeffs - p1.coeffs).max() < 1e-14
    assert max_divergence(p1) < 1e-12 * l2_norm(p1)


def test_leray_self_adjoint():
    rng = np.random.default_rng(4)
    N = 6
    a = hermitize(rng.standard_normal((2, 13, 13)) + 1j * rng.standard_normal((2, 13, 13)))
    b = hermitize(rng.standard_normal((2, 13, 13)) + 1j * rng.standard_normal((2, 13, 13)))
    fa, fb = SpectralField(N, a), SpectralField(N, b)
    pa, pb = leray_project(fa), leray_project(fb)
    lhs = np.sum(pa.coeffs * np.conj(fb.coeffs))
    rhs = np.sum(fa.coeffs * np.conj(pb.coeffs))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_vorticity_of_shear_mode():
    # u = (sin x2, 0) -> w = -cos x2
    N, M = 4, 12
    x = 2 * np.pi * np.arange(M) / M
    g = np.zeros((M, M, 2))
    g[:, :, 0] = np.sin(x)[None, :]
    w = vorticity(from_physical(g, N))
    grid = scalar_to_physical(w, M)
    assert np.abs(grid + np.cos(x)[None, :]).max() < 1e-12


def test_vorticity_of_zero_field():
    assert np.abs(vorticity(SpectralField.zero(4)).coeffs).max() == 0.0


def test_velocity_from_vorticity_inverts_curl():
    N, M = 4, 12
    x = 2 * np.pi * np.arange(M) / M
    w = scalar_from_physical(np.broadcast_to(-np.cos(x)[None, :], (M, M)).copy(), N)
    u = velocity_from_vorticity(w)
    g = to_physical(u, M)
    assert np.abs(g[:, :, 0] - np.sin(x)[None, :]).max() < 1e-12
    assert np.abs(g[:, :, 1]).max() < 1e-13


def test_velocity_from_vorticity_operator_identities():
    rng = np.random.default_rng(5)
    N = 8
    w = hermitize(rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17)))
    w[N, N] = 0.0
    omega = ScalarSpectralField(N, w)
    u = velocity_from_vorticity(omega)
    assert max_divergence(u) < 1e-12
    assert np.abs(vorticity(u).coeffs - omega.coeffs).max() < 1e-12


def test_velocity_from_vorticity_rejects_mean():
    w = np.zeros((9, 9), dtype=complex)
    w[4, 4] = 1.0
    with pytest.raises(InconsistencyError):
        velocity_from_vorticity(ScalarSpectralField(4, w))


def test_sobolev_norm_single_mode():
    a = 0.37
    f = single_mode_field(5, (1, 0), 0, a)
    assert abs(sobolev_norm(f, 0.0) - 2 * np.pi * a * np.sqrt(2)) < 1e-12
    # mode (1,1): |k|^2 = 2, e = -2 scales the norm by (1+2)^(-1)
    f2 = single_mode_field(5, (1, 1), 0, a)
    assert abs(sobolev_norm(f2, -2.0) - sobolev_norm(f2, 0.0) / 3.0) < 1e-12


def test_sobolev_norm_zero_field():
    assert sobolev_norm(SpectralField.zero(3), -2.0) == 0.0


def test_truncate_identity_and_drop():
    rng = np.random.default_rng(6)
    f = hermitian_random_field(8, rng)
    same = truncate_to(f, 8)
    assert np.array_equal(same.coeffs, f.coeffs)
    single = single_mode_field(8, (5, 0), 0, 1.0)
    assert np.abs(truncate_to(single, 4).coeffs).max() == 0.0
    # orthogonal projection shrinks the norm
    assert l2_norm(truncate_to(f, 4)) <= l2_norm(f)


def test_truncate_rejects_refinement():
    with pytest.raises(ValueError):
        truncate_to(SpectralField.zero(4), 8)


def test_sample_at_grid_matches_synthesis():
    rng = np.random.default_rng(7)
    f = hermitian_random_field(5, rng)
    full = to_physical(f, 30)
    sampled = sample_at_grid(f, 15)  # coarser than 2N+1: every other node of 30
    assert np.abs(sampled - full[::2, ::2, :]).max() < 1e-12


@pytest.mark.parametrize("M", [17, 24, 25])
def test_from_physical_matches_complex_fft_reference(M):
    # an arbitrary real grid: its DFT is Hermitian only up to round-off
    grid = np.random.default_rng(M).standard_normal((M, M, 2))
    got = from_physical(grid, 8).coeffs
    ref = complex_analysis(grid.transpose(2, 0, 1), 8)
    ref[:, 8, 8] = 0.0
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(got, np.conj(got[:, ::-1, ::-1]))


def test_scalar_from_physical_is_exactly_hermitian():
    grid = np.random.default_rng(8).standard_normal((24, 24))
    w = scalar_from_physical(grid, 8).coeffs
    assert np.array_equal(w, np.conj(w[::-1, ::-1]))
    assert w[8, 8].imag == 0.0


def test_full_plane_only_mirrors_and_one_helper_fixes_the_k2_zero_column():
    # _full_plane reads its half plane and mirrors it; _hermitian_column alone
    # rebuilds the k1 < 0 part of the k2 = 0 column and makes the mean real,
    # after which the mirror is exactly Hermitian.
    N = 6
    rng = np.random.default_rng(3)
    shape = (2, 2 * N + 1, N + 1)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = half.copy()
    full = _full_plane(half)
    assert np.array_equal(half, before) and np.array_equal(full[..., N:], half)
    assert not np.array_equal(full, np.conj(full[:, ::-1, ::-1]))
    _hermitian_column(half)
    assert np.array_equal(half[..., 1:], before[..., 1:])
    assert np.array_equal(half[:, N + 1 :], before[:, N + 1 :])
    full = _full_plane(half)
    assert np.array_equal(full, np.conj(full[:, ::-1, ::-1])) and np.all(full[:, N, N].imag == 0.0)


@pytest.mark.parametrize("M", [1, 2, 4, 9, 16, 17, 24, 25])  # M < 2N+1 = 17 folds modes
def test_synthesis_matches_complex_fft_reference(M):
    f = hermitian_random_field(8, np.random.default_rng(M), decay=0.0)
    ref = complex_synthesis(f.coeffs, M).transpose(1, 2, 0)
    tol = 1e-13 * np.abs(ref).max()
    assert np.abs(sample_at_grid(f, M) - ref).max() <= tol
    if M >= 17:
        assert np.abs(to_physical(f, M) - ref).max() <= tol


def test_fields_are_immutable():
    f = SpectralField.zero(3)
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0] = 1.0


def test_wavenumber_grids():
    k1, k2, ksq = wavenumbers(2)
    assert k1[0, 0] == -2 and k1[4, 0] == 2
    assert k2[0, 0] == -2 and k2[0, 4] == 2
    assert ksq[2, 2] == 0 and ksq[4, 4] == 8


def k2_major(a):
    """A copy of a whose last axis, the k2 columns, is contiguous, as the solver lays out its arrays."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize("layout", ["generated", "k2-major"])
def test_column_synthesis_makes_no_buffer_and_adds_to_zeros(layout):
    # The solver's column pass of a synthesis at N = 128 (M = 400), from a
    # generated field's half plane or a stage field (k2-major) into the
    # k2-major work buffer, allocates less than 4 KiB: the fold copies the
    # modes into place. Its bits are those of adding them to zeros, which
    # turns -0.0 into +0.0.
    N, M = 128, 400
    u = generate_sample(InitialMeasureSpec("flat_sheet", N, rho=0.1, delta=0.025, base_seed=7), 1)
    c = np.copy(u.coeffs, order="K")
    c[np.random.default_rng(5).random(c.shape) < 0.25] = complex(-0.0, -0.0)
    half = c[..., N:] if layout == "generated" else k2_major(c[..., N:])
    assert np.signbit(half[half == 0].real).any()
    work = k2_major(np.empty((2, M, N + 1), dtype=np.complex128))
    zeros = np.zeros((2, M, N + 1), dtype=np.complex128)
    zeros[:, : N + 1] += half[:, N:]
    zeros[:, M - N :] += half[:, :N]
    assert _fold(half, M, -2, out=work).tobytes() == zeros.tobytes()
    _synthesize_cols(half, work)
    tracemalloc.start()
    try:
        _synthesize_cols(half, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
