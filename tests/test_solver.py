import numpy as np
import pytest

from eulerstat.errors import BlowUpError
from eulerstat.initial import taylor_green_field
from eulerstat.solver import (
    SolverParams,
    adaptive_dt,
    damping_rates,
    evolve,
    multiplier_profile,
    rhs,
    step,
)
from eulerstat.spectral import (
    SpectralField,
    l2_norm,
    max_divergence,
    sobolev_norm,
    wavenumbers,
)
from oracles import band_limited_random_field, complex_rhs, hermitian_random_field


def single_mode_field(N, k, component, value):
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[component, N + k[0], N + k[1]] = value
    c[component, N - k[0], N - k[1]] = np.conj(value)
    return SpectralField(N, c)


@pytest.mark.parametrize("multiplier", ["standard", "power"])
def test_multiplier_constraints(multiplier):
    # 0 <= Q <= 1 everywhere, Q = 0 at and below the cutoff
    p = SolverParams(N=64, s=2 if multiplier == "power" else 1, multiplier=multiplier)
    q = multiplier_profile(p)
    assert q.min() >= 0.0 and q.max() <= 1.0
    _, _, ksq = wavenumbers(p.N)
    below = np.sqrt(ksq.astype(float)) <= p.cutoff
    assert np.all(q[below] == 0.0)


def test_standard_damping_is_thresholded_laplacian():
    # eps_N Q |k|^2 = (eps/N) max(|k|^2 - N, 0) for s = 1
    p = SolverParams(N=16, s=1, eps=0.05)
    lam = damping_rates(p)
    _, _, ksq = wavenumbers(16)
    expected = (p.eps / p.N) * np.maximum(ksq.astype(float) - p.N, 0.0)
    assert np.abs(lam - expected).max() < 1e-15


def test_power_multiplier_lower_envelope():
    p = SolverParams(N=64, s=2, multiplier="power")
    q = multiplier_profile(p)
    _, _, ksq = wavenumbers(p.N)
    kmag = np.sqrt(ksq.astype(float))
    above = kmag > p.cutoff
    envelope = 1.0 - (p.cutoff / kmag[above]) ** ((2 * p.s - 1) / p.theta_resolved)
    assert np.abs(q[above] - envelope).max() < 1e-14


def test_rhs_taylor_green_is_steady():
    p = SolverParams(N=32)
    tg = taylor_green_field(32)
    r = rhs(tg, p)
    assert np.abs(r.coeffs).max() < 1e-12


def test_rhs_zero_field():
    p = SolverParams(N=8)
    assert np.abs(rhs(SpectralField.zero(8), p).coeffs).max() == 0.0


def test_rhs_dissipation_at_2n():
    # mode |k|^2 = 2N with s=1: damping part is exactly -eps times the mode
    N = 32
    p = SolverParams(N=N, enable_nonlinear=False)
    f = single_mode_field(N, (8, 0), 1, 0.5)  # |k|^2 = 64 = 2N
    r = rhs(f, p)
    assert np.abs(r.coeffs + p.eps * f.coeffs).max() < 1e-15


def test_rhs_resolution_mismatch():
    with pytest.raises(ValueError):
        rhs(SpectralField.zero(8), SolverParams(N=16))


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("extra", [0, 1])  # padded grid M = 3N (even) and 3N + 1 (odd)
def test_rhs_matches_complex_fft_reference(N, extra):
    p = SolverParams(N=N, dealias=(3 * N + extra) / (2 * N))
    assert p.padded_grid == 3 * N + extra
    u = hermitian_random_field(N, np.random.default_rng(N + extra), decay=0.0)  # full band
    got = rhs(u, p).coeffs
    ref = complex_rhs(u.coeffs, p)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(got, np.conj(got[:, ::-1, ::-1]))


def test_step_output_is_exactly_hermitian():
    N = 16
    p = SolverParams(N=N)
    u = hermitian_random_field(N, np.random.default_rng(10), decay=0.0)
    v = step(u, 0.5 * adaptive_dt(u, p), p).coeffs
    assert np.array_equal(v, np.conj(v[:, ::-1, ::-1]))


def test_rhs_preserves_divergence_free():
    rng = np.random.default_rng(0)
    u = band_limited_random_field(24, 8, rng)
    r = rhs(u, SolverParams(N=24))
    assert max_divergence(r) < 1e-12 * max(1.0, l2_norm(r))


def test_adaptive_dt_zero_field():
    # dt = visc_safety * 2.5 / (eps_N max Q |k|^2), max over |k|_inf <= N
    p = SolverParams(N=16, s=1, eps=1.0 / 20.0)
    dt = adaptive_dt(SpectralField.zero(16), p)
    lam_max = (1.0 / 20.0 / 16.0) * (2 * 16 ** 2 - 16)
    assert abs(dt - 0.9 * 2.5 / lam_max) < 1e-14


def test_adaptive_dt_halves_with_doubled_velocity():
    rng = np.random.default_rng(1)
    u = band_limited_random_field(16, 4, rng, amplitude=10.0)  # advective bound active
    p = SolverParams(N=16)
    dt1 = adaptive_dt(u, p)
    dt2 = adaptive_dt(SpectralField(16, 2.0 * u.coeffs), p)
    assert abs(dt2 - 0.5 * dt1) < 1e-12 * dt1


def test_adaptive_dt_cfl_zero_gives_viscous_bound():
    rng = np.random.default_rng(2)
    u = band_limited_random_field(16, 4, rng, amplitude=10.0)
    p0 = SolverParams(N=16, cfl=0.0)
    assert adaptive_dt(u, p0) == adaptive_dt(SpectralField.zero(16), p0)


def test_step_dt_zero_is_identity():
    rng = np.random.default_rng(3)
    u = band_limited_random_field(12, 4, rng)
    v = step(u, 0.0, SolverParams(N=12))
    assert np.abs(v.coeffs - u.coeffs).max() < 1e-15


def test_step_taylor_green_stationary():
    p = SolverParams(N=32)
    tg = taylor_green_field(32)
    v = step(tg, adaptive_dt(tg, p), p)
    assert l2_norm(SpectralField(32, v.coeffs - tg.coeffs)) < 1e-12


def test_linear_decay_matches_exponential():
    # nonlinear term disabled: single damped mode follows exp(-lambda t)
    N = 32
    p = SolverParams(N=N, enable_nonlinear=False)
    f = single_mode_field(N, (8, 0), 1, 0.5)  # damping rate = eps
    lam = p.eps
    dt = 0.125
    v = f
    for _ in range(8):
        v = step(v, dt, p)
    exact = 0.5 * np.exp(-lam)
    got = v.coeffs[1, N + 8, N].real
    assert abs(got - exact) / exact < 1e-9


def test_step_order_three():
    # fixed-dt error against a dt/2 reference shrinks ~8x per halving
    N = 16
    p = SolverParams(N=N)
    rng = np.random.default_rng(4)
    u0 = band_limited_random_field(N, 5, rng, amplitude=0.3)
    T = 0.2

    def integrate(nsteps):
        u = u0
        for _ in range(nsteps):
            u = step(u, T / nsteps, p)
        return u

    ref = integrate(64)
    errs = [l2_norm(SpectralField(N, integrate(n).coeffs - ref.coeffs)) for n in (4, 8, 16)]
    assert errs[0] / errs[1] > 6.0
    assert errs[1] / errs[2] > 6.0


def test_step_blowup_detection():
    N = 8
    p = SolverParams(N=N)
    c = np.zeros((2, 17, 17), dtype=complex)
    c[0, 9, 8] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            step(SpectralField(N, c), 0.01, p)


def test_evolve_t_end_zero():
    rng = np.random.default_rng(5)
    u0 = band_limited_random_field(12, 4, rng)
    u, ledger = evolve(u0, 0.0, SolverParams(N=12))
    assert np.array_equal(u.coeffs, u0.coeffs)
    assert ledger.E == ledger.E0 and ledger.D == 0.0


def test_evolve_first_step_is_adaptive_dt():
    # evolve takes max|u| from the stage-1 grid; the step must equal adaptive_dt bitwise
    N = 16
    p = SolverParams(N=N)
    u0 = band_limited_random_field(N, 6, np.random.default_rng(11), amplitude=5.0)
    dt = adaptive_dt(u0, p)
    assert dt < 0.9 * 2.5 / np.max(damping_rates(p))  # the CFL bound is the active one
    _, ledger = evolve(u0, 2.5 * dt, p)
    assert ledger.history[1][0] == dt


def test_evolve_rejects_resolution_mismatch():
    u0 = band_limited_random_field(8, 4, np.random.default_rng(12))
    with pytest.raises(ValueError, match="does not match params.N"):
        evolve(u0, 0.1, SolverParams(N=16))


def test_evolve_blowup_reports_failure_time():
    N = 8
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[0, N + 1, N] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(BlowUpError) as info:
            evolve(SpectralField(N, c), 1.0, SolverParams(N=N))
    assert info.value.time is not None and 0.0 < info.value.time <= 1.0
    assert "blow-up at t=" in str(info.value)


def test_evolve_hits_output_times_exactly():
    rng = np.random.default_rng(6)
    u0 = band_limited_random_field(12, 4, rng)
    seen = []
    evolve(u0, 0.5, SolverParams(N=12), output_times=(0.0, 0.123, 0.5),
           observer=lambda t, u, led: seen.append(t))
    assert seen == [0.0, 0.123, 0.5]


def test_evolve_energy_monotone_and_divergence_free():
    rng = np.random.default_rng(7)
    N = 32
    u0 = band_limited_random_field(N, 10, rng, amplitude=0.2)
    u, ledger = evolve(u0, 0.5, SolverParams(N=N))
    energies = [e for _, e, _ in ledger.history]
    for a, b in zip(energies, energies[1:]):
        assert b <= a * (1.0 + 1e-10)
    assert max_divergence(u) < 1e-10 * l2_norm(u)
    assert ledger.D >= 0.0


def test_evolve_time_regularity_bounded():
    # |u(t) - u(s)|_{H^-2} / |t-s| stays comparable across sampled pairs
    rng = np.random.default_rng(8)
    N = 24
    u0 = band_limited_random_field(N, 8, rng, amplitude=0.5)
    times = np.linspace(0.05, 0.5, 10)
    fields = {}
    evolve(u0, 0.5, SolverParams(N=N), output_times=tuple(times),
           observer=lambda t, u, led: fields.__setitem__(t, u))
    rates = []
    ts = sorted(fields)
    for a, b in zip(ts, ts[1:]):
        diff = SpectralField(N, fields[b].coeffs - fields[a].coeffs)
        rates.append(sobolev_norm(diff, -2.0) / (b - a))
    rates = np.array(rates)
    assert rates.max() <= 10.0 * np.median(rates)


def test_evolve_energy_balance_small():
    rng = np.random.default_rng(9)
    N = 32
    u0 = band_limited_random_field(N, 6, rng, amplitude=0.2)
    _, ledger = evolve(u0, 0.5, SolverParams(N=N, cfl=0.1))
    assert abs(ledger.E + ledger.D - ledger.E0) / ledger.E0 < 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(N=0)
    with pytest.raises(ValueError):
        SolverParams(N=8, s=0)
    with pytest.raises(ValueError):
        SolverParams(N=8, multiplier="nope")
