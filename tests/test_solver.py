import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import eulerstat.solver as solver
from eulerstat.ensemble import fnv1a64
from eulerstat.errors import BlowUpError
from eulerstat.initial import InitialMeasureSpec, generate_sample, taylor_green_field
from eulerstat.solver import (
    SolverParams,
    _dt_bound,
    _step_coeffs,
    _velocity_grid,
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
    modal_energy,
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
    # mode |k|^2 = 2N with s=1: the nonlinear term vanishes on a single
    # shear mode, and the damping part is exactly -eps times the mode
    N = 32
    p = SolverParams(N=N)
    f = single_mode_field(N, (8, 0), 1, 0.5)  # |k|^2 = 64 = 2N
    r = rhs(f, p)
    assert np.abs(r.coeffs + p.eps * f.coeffs).max() < 1e-15


def test_rhs_resolution_mismatch():
    with pytest.raises(ValueError):
        rhs(SpectralField.zero(8), SolverParams(N=16))


@pytest.mark.parametrize("N, M", [(8, 25), (16, 50)])  # odd and even padded grids
def test_rhs_matches_complex_fft_reference_at_derived_grid(N, M):
    # The reference analyzes all three products u_i u_j with complex FFTs.
    p = SolverParams(N=N)
    assert p.padded_grid == M
    u = hermitian_random_field(N, np.random.default_rng(N), decay=0.0)  # full band
    got = rhs(u, p).coeffs
    ref = complex_rhs(u.coeffs, p)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(got, np.conj(got[:, ::-1, ::-1]))


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("extra", [0, 1])  # patched padded grid M = 3N (even) and 3N + 1 (odd)
def test_rhs_matches_complex_fft_reference(monkeypatch, N, extra):
    # On grids below the derived one the |k| = 2N products alias into the
    # band; the two-product RHS must still agree with the three-product
    # reference there, since the aliased isotropic part is a gradient too.
    monkeypatch.setattr(SolverParams, "padded_grid", 3 * N + extra)
    p = SolverParams(N=N)
    u = hermitian_random_field(N, np.random.default_rng(N + extra), decay=0.0)  # full band
    got = rhs(u, p).coeffs
    ref = complex_rhs(u.coeffs, p)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(got, np.conj(got[:, ::-1, ::-1]))


@pytest.mark.parametrize("N", [8, 16, 64])
def test_nonlinear_term_conserves_energy(N):
    # Full-band data: products reach |k|_inf = 2N, and only a grid of
    # M >= 3N+1 points keeps their aliases out of the retained band.
    u = hermitian_random_field(N, np.random.default_rng(N), decay=0.0)
    r = rhs(u, SolverParams(N=N, eps=0.0)).coeffs
    dE_dt = 2.0 * np.sum((np.conj(u.coeffs) * r).real)
    assert abs(dE_dt) <= 1e-12 * modal_energy(u)


def test_padded_grid_is_smallest_5_smooth_above_3n():
    smooth = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8) for c in range(6))
    for N in range(1, 513):
        assert SolverParams(N=N).padded_grid == min(M for M in smooth if M >= 3 * N + 1)


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
    # a single shear mode is steady under the nonlinear term: it follows exp(-lambda t)
    N = 32
    p = SolverParams(N=N)
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
    times = []
    evolve(u0, 2.5 * dt, p, on_step=lambda t, u, ledger: times.append(t))
    assert times[1] == dt


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


def test_evolve_hits_output_times_exactly(monkeypatch):
    # on_step runs at t = 0 and after every accepted step, at output times exactly
    rng = np.random.default_rng(6)
    u0 = band_limited_random_field(12, 4, rng)
    steps, calls = [], []
    monkeypatch.setattr(solver, "_step_coeffs", lambda *a: steps.append(1) or _step_coeffs(*a))
    u, ledger = evolve(u0, 0.5, SolverParams(N=12), output_times=(0.0, 0.123, 0.5),
                       on_step=lambda t, u, led: calls.append((t, u, led.E, led.D)))
    times = [t for t, *_ in calls]
    assert times[0] == 0.0 and calls[0][1] is u0 and calls[0][3] == 0.0
    assert all(a < b for a, b in zip(times, times[1:])) and len(times) > 3
    assert [t for t in times if t in (0.0, 0.123, 0.5)] == [0.0, 0.123, 0.5]
    assert times[-1] == 0.5 and calls[-1][1] is u
    assert calls[-1][2:] == (ledger.E, ledger.D)
    assert len(calls) == 1 + len(steps)


def test_evolve_energy_monotone_and_divergence_free():
    rng = np.random.default_rng(7)
    N = 32
    u0 = band_limited_random_field(N, 10, rng, amplitude=0.2)
    energies = []
    u, ledger = evolve(u0, 0.5, SolverParams(N=N), on_step=lambda t, u, led: energies.append(led.E))
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
           on_step=lambda t, u, led: fields.__setitem__(t, u) if t in times else None)
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
    for bad in (
        dict(eps=-0.01),
        dict(cfl=-0.1),
        dict(cfl=0.0, eps=0.0),
        dict(cfl=0.0, multiplier="power", m_n=8 * 2**0.5),
        dict(visc_safety=0.0),
        dict(visc_safety=-0.5),
        dict(multiplier="power", theta=0.0),
        dict(multiplier="power", theta=-1.0),
        dict(multiplier="power", m_n=-2.0),
    ):
        with pytest.raises(ValueError):
            SolverParams(N=8, **bad)
    SolverParams(N=8, eps=0.0)
    SolverParams(N=8, cfl=0.0)
    SolverParams(N=8, multiplier="power", theta=0.5, m_n=0.0)
    SolverParams(N=8, cfl=0.0, multiplier="power", m_n=11.3)


# fnv1a64 of the evolved coefficients at each of GOLDEN_TIMES for sample 2
# of golden_spec(family, N) under SolverParams(N), each recorded in a fresh
# process under scheme 2 (config.canonical_manifest_text records it); the
# t = 0 digests are the initial data and predate it. 7 to 36 steps per case.
GOLDEN_TIMES = (0.0, 0.1, 0.25, 0.5)
GOLDEN = {
    ("flat_sheet", 16): ("0dc1f5c0aa2edbfd", "9635bfdb3f380929", "c55bd4c3d22ff575", "d6be24ba969ae1c5"),
    ("flat_sheet", 24): ("848681714a595c71", "3fbabda5fbce2329", "c99ba28d73816be9", "ab2e234165bfb911"),
    ("flat_sheet", 32): ("86d458a822298b09", "cd399318b45e6ee1", "46d669139e55fee9", "49669d33e7d01a45"),
    ("sinusoidal_sheet", 16): ("73f55def0c2eab35", "95a02d0ba64ac955", "8b56d0920e25d6ed", "3f7dcda2d6849f99"),
    ("sinusoidal_sheet", 32): ("0d6cdc86b86ccdbd", "0a8f5adf649fa90d", "9247b1818cd6864d", "f47c27e96c3aa22d"),
}


def golden_spec(family, N):
    if family == "flat_sheet":
        return InitialMeasureSpec(family=family, N=N, rho=0.05, delta=0.05, base_seed=11)
    return InitialMeasureSpec(family=family, N=N, rho=0.1, delta=0.05, quad_points=40, base_seed=11)


def golden_digests(family, N):
    digests = []
    evolve(generate_sample(golden_spec(family, N), 2), GOLDEN_TIMES[-1], SolverParams(N=N),
           output_times=GOLDEN_TIMES,
           on_step=lambda t, u, ledger: digests.append(f"{fnv1a64(u.coeffs.tobytes()):016x}")
           if t in GOLDEN_TIMES else None)
    return tuple(digests)


@pytest.mark.parametrize("family, N", [k for k in GOLDEN if k[1] != 24])
def test_evolve_matches_golden_bytes(family, N):
    assert golden_digests(family, N) == GOLDEN[family, N]


def test_workspace_eviction_keeps_bytes():
    # Interleaved resolutions in one process: every evolve reproduces its
    # fresh-process bytes, whatever ran before it.
    for N in (16, 32, 16, 24):
        assert golden_digests("flat_sheet", N) == GOLDEN["flat_sheet", N]


def test_returned_results_survive_later_calls():
    # rhs, step and adaptive_dt return fresh arrays and floats: later calls
    # with the same params leave the results alone, and repeating a call
    # gives the same bytes.
    N = 16
    p = SolverParams(N=N)
    rng = np.random.default_rng(21)
    u, v = hermitian_random_field(N, rng), hermitian_random_field(N, rng)
    r, s, dt = rhs(u, p), step(u, 0.01, p), adaptive_dt(u, p)
    saved = r.coeffs.tobytes(), s.coeffs.tobytes()
    rhs(v, p), step(v, 0.02, p), adaptive_dt(v, p), evolve(v, 0.05, p)
    assert (r.coeffs.tobytes(), s.coeffs.tobytes()) == saved
    assert rhs(u, p).coeffs.tobytes() == saved[0]
    assert step(u, 0.01, p).coeffs.tobytes() == saved[1]
    assert adaptive_dt(u, p) == dt


@pytest.mark.parametrize("N, patched_M", [(32, None), (16, 192)])
def test_rk_step_allocates_no_padded_grid_array(monkeypatch, N, patched_M):
    # After the first step on the slabs of a call, one step (_dt_bound and
    # _step_coeffs) holds at most five modal arrays at a time (about four
    # are used: the output, the stage fields and the RHS terms). On a
    # padded grid of M = 12N points one M x M grid alone is larger than that.
    if patched_M is not None:
        monkeypatch.setattr(SolverParams, "padded_grid", patched_M)
    p = SolverParams(N=N)
    M = p.padded_grid

    def one_step(coeffs):
        U = _velocity_grid(coeffs[:, :, N:], slabs)
        return _step_coeffs(coeffs, U, _dt_bound(U, slabs), slabs)

    with solver._slabs(p, 1) as slabs:
        coeffs = one_step(hermitian_random_field(N, np.random.default_rng(4)).coeffs)
        bound = 5 * coeffs.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            one_step(coeffs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    if patched_M is not None:
        assert 8 * M * M > bound
    assert peak <= bound


def trajectory(u0, params, t_end, threads):
    """(fnv1a64 of the coefficients, their strides, t, E, D) after every step of evolve."""
    rows = []
    evolve(u0, t_end, params, threads=threads,
           on_step=lambda t, u, ledger: rows.append(
               (fnv1a64(u.coeffs.tobytes()), u.coeffs.strides, t, ledger.E, ledger.D)))
    return rows


@pytest.mark.parametrize("family", ["flat_sheet", "sinusoidal_sheet"])
@pytest.mark.parametrize("N, M", [(8, 25), (16, 50), (24, 75), (32, 100)])  # odd and even padded grids
def test_slab_split_step_keeps_bytes(monkeypatch, family, N, M):
    # Two slabs on every grid: each step, its energy ledger and its memory
    # layout are the bits of one slab, for the generated coefficients and
    # for a C-contiguous copy of them (which sums its energy in another order).
    monkeypatch.setattr(solver, "_SLAB_MIN_GRID", 0)
    p = SolverParams(N=N)
    assert p.padded_grid == M
    u0 = generate_sample(golden_spec(family, N), 2)
    for u in (u0, SpectralField(N, np.ascontiguousarray(u0.coeffs))):
        one = trajectory(u, p, 0.25, threads=1)
        assert len(one) > 2
        assert {row[1] for row in one} == {u.coeffs.strides}
        assert trajectory(u, p, 0.25, threads=2) == one


def test_energy_bits_depend_on_coefficient_layout():
    # modal_energy adds in memory order, so its last bits follow the layout
    # of the coefficients, which each step passes on to the next: generated
    # fields are not C-contiguous, and a step must keep their layout.
    u0 = generate_sample(InitialMeasureSpec("flat_sheet", 32, rho=0.1, delta=0.025, base_seed=7), 1)
    c = np.ascontiguousarray(u0.coeffs)
    assert not u0.coeffs.flags.c_contiguous
    assert modal_energy(u0) == 0.5983335716741534
    assert modal_energy(SpectralField(32, c)) == 0.5983335716741532


def test_slab_split_at_the_real_threshold():
    # N = 128 (M = 400) is above _SLAB_MIN_GRID; N = 64 (M = 200) is below,
    # and threads = 2 then runs one slab.
    with solver._slabs(SolverParams(N=64), 2) as slabs:
        assert len(slabs.cols) == 1 and slabs.pool is None
    p = SolverParams(N=128)
    assert p.padded_grid >= solver._SLAB_MIN_GRID
    with solver._slabs(p, 2) as slabs:
        assert len(slabs.rows) == len(slabs.cols) == 2
    u0 = generate_sample(InitialMeasureSpec("flat_sheet", 128, rho=0.1, delta=0.025, base_seed=7), 1)
    one = trajectory(u0, p, 0.01, threads=1)
    assert len(one) > 1
    assert trajectory(u0, p, 0.01, threads=2) == one


def test_slab_split_under_thread_switching_stress(monkeypatch):
    # More threads than CPUs, switching as often as the interpreter allows:
    # a slab that read or wrote outside its rows or columns would change bits.
    monkeypatch.setattr(solver, "_SLAB_MIN_GRID", 0)
    p = SolverParams(N=16)
    u0 = generate_sample(golden_spec("flat_sheet", 16), 2)
    one = trajectory(u0, p, 0.1, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert trajectory(u0, p, 0.1, threads=5) == one
    finally:
        sys.setswitchinterval(interval)


def test_solver_calls_from_two_threads_keep_bytes():
    # Every call holds its own arrays: two threads that evolve, differentiate
    # and step different fields with equal params, switching as often as the
    # interpreter allows, give the bytes of serial calls.
    p = SolverParams(N=16)
    fields = [generate_sample(golden_spec("flat_sheet", 16), i) for i in (1, 2)]

    def calls(u):
        return (trajectory(u, p, 0.1, threads=1), rhs(u, p).coeffs.tobytes(),
                step(u, 0.01, p).coeffs.tobytes(), adaptive_dt(u, p))

    def call(i):
        got[i] = calls(fields[i])

    serial = [calls(u) for u in fields]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = [None, None]
            workers = [threading.Thread(target=call, args=(i,), daemon=True) for i in (0, 1)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)  # a shared buffer can shrink dt until evolve never ends
            assert not any(w.is_alive() for w in workers)
            assert got == serial
    finally:
        sys.setswitchinterval(interval)


def test_slab_threads_keep_the_callers_error_state(monkeypatch):
    # The pool's threads run under the numpy error state of evolve's caller.
    monkeypatch.setattr(solver, "_SLAB_MIN_GRID", 0)
    N = 8
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[0, N + 1, N] = c[0, N - 1, N] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                evolve(SpectralField(N, c), 1.0, SolverParams(N=N), threads=2)


def test_damping_rates_finite_for_large_s():
    # lam = eps N Q (|k|^2/N^2)^s: the power is at most 2^s, so no rate
    # overflows (eps > 0) or turns NaN (eps = 0) at any s <= 100.
    for N in (2, 8, 64):
        for eps in (0.05, 0.0):
            for s in range(1, 101):
                lam = damping_rates(SolverParams(N=N, s=s, eps=eps))
                assert np.all(np.isfinite(lam)) and lam.min() >= 0.0
