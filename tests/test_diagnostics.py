import tracemalloc

import numpy as np
import pytest

from eulerstat.diagnostics import (
    RadialPower,
    ScalarCurve,
    _j1,
    cauchy_rate,
    compensated_spectrum,
    default_fit_range,
    default_r_grid,
    energy_spectrum,
    fit_exponent,
    increment_kernel,
    max_shell,
    structure_curve,
    structure_function,
    time_regularity_ratio,
    write_curve_csv,
)
from eulerstat.ensemble import EnsembleSnapshot, read_snapshot, write_snapshot
from eulerstat.initial import InitialMeasureSpec, generate_sample
from eulerstat.solver import SolverParams
from eulerstat.spectral import SpectralField, modal_energy, sobolev_norm, truncate_to, wavenumbers
from oracles import (
    bessel_j1_quadrature,
    hermitian_random_field,
    structure_function_quadrature,
    synthetic_spectrum_field,
)


def snapshot_of(fields, time=0.0):
    N = fields[0].N
    return EnsembleSnapshot(
        time=time,
        N=N,
        fields=list(fields),
        sample_seeds=list(range(1, len(fields) + 1)),
        params=SolverParams(N=N),
    )


def single_mode_field(N, k, component, value):
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[component, N + k[0], N + k[1]] = value
    c[component, N - k[0], N - k[1]] = np.conj(value)
    return SpectralField(N, c)


# --- Bessel kernel ---------------------------------------------------------


def test_bessel_against_integral_representation():
    # small arguments: one 64-node Gauss-Legendre panel is exact to roundoff
    x = np.linspace(0.0, 50.0, 200)
    assert np.abs(_j1(x) - bessel_j1_quadrature(x, panels=1)).max() < 1e-12
    # large arguments up to ~ sqrt(2) N pi for N = 128: composite panels
    x = np.linspace(50.0, 600.0, 300)
    assert np.abs(_j1(x) - bessel_j1_quadrature(x, panels=16)).max() < 1e-12


def _structure_curve_arguments(N):
    # every kmag * r that structure_curve can evaluate on default_r_grid(N)
    ksq = np.unique(wavenumbers(N)[2])
    return (default_r_grid(N)[:, None] * np.sqrt(ksq[ksq > 0].astype(np.float64))).ravel()


def test_j1_matches_scipy_bitwise():
    from scipy.special import j1 as scipy_j1

    rng = np.random.default_rng(20260101)
    five = np.array([np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 6.0)])
    edges = np.array([0.0, -0.0, -1e-300, -3.0, -5.0, -7.5, -2500.0, np.inf, -np.inf, np.nan])
    sets = {f"structure_curve N={N}": _structure_curve_arguments(N) for N in (8, 16, 32, 64, 128)}
    sets.update({
        "(0, 5]": 5.0 - rng.uniform(0.0, 5.0, 10**5),
        "(5, 50]": 50.0 - rng.uniform(0.0, 45.0, 10**5),
        "(50, 3000]": 3000.0 - rng.uniform(0.0, 2950.0, 10**5),
        "log-uniform up to 1e300": np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 10**5)),
        "5 and its neighbours, signed zeros, negatives, inf, nan": np.concatenate([five, edges]),
    })
    for name, x in sets.items():
        mismatched = np.flatnonzero(_j1(x).view(np.uint64) != scipy_j1(x).view(np.uint64))
        assert mismatched.size == 0, (name, x[mismatched[:5]])


def test_structure_curve_builds_no_kernel_matrix():
    # One kernel row per correlation length: at N = 128 (24 lengths, 5923
    # shells) structure_curve allocates less than 2 MiB, where the
    # (length, shell) matrix and its temporaries took ~14 MiB. The values
    # are the bits of the matrix's rows.
    N = 128
    snapshot = snapshot_of([hermitian_random_field(N, np.random.default_rng(9))])
    radial = RadialPower(N)
    radial.add(snapshot.fields[0])
    structure_curve(radial, snapshot)
    tracemalloc.start()
    try:
        curve = structure_curve(radial, snapshot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    ksq, power = radial.mean(snapshot)
    assert ksq.size == 5923
    W = increment_kernel(curve.abscissa[:, None] * np.sqrt(ksq))
    s2 = np.array([(2.0 * np.pi) ** 2 * np.dot(w, power) for w in W])
    assert curve.values.tobytes() == np.sqrt(np.maximum(s2, 0.0)).tobytes()


def test_kernel_bounds():
    x = np.linspace(0.0, 100.0, 40001)
    w = increment_kernel(x)
    assert w.min() >= 0.0
    assert w.max() <= 4.0
    assert np.all(w <= 4.0 * np.minimum(x * x, 1.0) + 1e-14)
    assert increment_kernel(0.0) == 0.0


def test_kernel_series_branch_is_continuous():
    # the small-x series and the direct formula agree near the switch point
    x = np.linspace(0.02, 0.2, 400)
    direct = 2.0 * (1.0 - 2.0 * _j1(x) / x)
    assert np.abs(increment_kernel(x) / direct - 1.0).max() < 1e-10


# --- structure function ----------------------------------------------------


def test_structure_function_zero_ensemble():
    snap = snapshot_of([SpectralField.zero(8)])
    curve = structure_function(snap)
    assert np.all(curve.values == 0.0)


def test_structure_function_single_mode_closed_form():
    N, a = 12, 0.3
    snap = snapshot_of([single_mode_field(N, (1, 0), 1, a)])
    r = np.array([0.3, 0.7, 1.5])
    curve = structure_function(snap, r)
    expected = np.sqrt((2 * np.pi) ** 2 * 2 * a * a * increment_kernel(r))
    assert np.abs(curve.values / expected - 1.0).max() < 1e-12


def test_structure_function_rejects_nonpositive_r():
    snap = snapshot_of([SpectralField.zero(8)])
    with pytest.raises(ValueError):
        structure_function(snap, np.array([0.0, 0.1]))


def test_structure_function_monotone():
    rng = np.random.default_rng(0)
    snap = snapshot_of([hermitian_random_field(16, rng) for _ in range(3)])
    curve = structure_function(snap)
    assert np.all(np.diff(curve.values) >= -1e-10 * curve.values.max())


def test_structure_function_kernel_vs_simple_bound():
    # S(r)^2 <= 4 (2pi)^2 sum min(|k|^2 r^2, 1) p_k
    rng = np.random.default_rng(1)
    N = 12
    f = hermitian_random_field(N, rng)
    snap = snapshot_of([f])
    from eulerstat.spectral import wavenumbers

    _, _, ksq = wavenumbers(N)
    p = np.abs(f.coeffs[0]) ** 2 + np.abs(f.coeffs[1]) ** 2
    for r in (0.05, 0.3, 1.0):
        bound = 4.0 * (2 * np.pi) ** 2 * np.sum(np.minimum(ksq * r * r, 1.0) * p)
        s2 = structure_function(snap, np.array([r])).values[0] ** 2
        assert s2 <= bound * (1 + 1e-12)


def test_structure_function_matches_quadrature_oracle_small():
    rng = np.random.default_rng(2)
    snap = snapshot_of([hermitian_random_field(16, rng) for _ in range(2)])
    r = default_r_grid(16, count=8)
    spectral = structure_function(snap, r).values
    quadrature = structure_function_quadrature(snap, r, seed=5)
    assert np.abs(spectral / quadrature - 1.0).max() < 5e-3


# --- energy spectrum -------------------------------------------------------


def test_spectrum_single_mode():
    snap = snapshot_of([single_mode_field(10, (1, 0), 0, 0.4)])
    curve = energy_spectrum(snap)
    assert abs(curve.values[0] - 0.4 ** 2) < 1e-15
    assert np.all(curve.values[1:] == 0.0)


def test_spectrum_zero_field():
    curve = energy_spectrum(snapshot_of([SpectralField.zero(6)]))
    assert np.all(curve.values == 0.0)
    assert len(curve.values) == max_shell(6)


def test_spectrum_total_energy_identity():
    rng = np.random.default_rng(3)
    fields = [hermitian_random_field(12, rng) for _ in range(4)]
    snap = snapshot_of(fields)
    curve = energy_spectrum(snap)
    modal = 0.5 * np.mean([modal_energy(f) for f in fields])
    assert abs(curve.values.sum() - modal) <= 1e-12 * modal


def test_spectrum_kmax_validation():
    snap = snapshot_of([SpectralField.zero(8)])
    assert len(energy_spectrum(snap, K_max=5).values) == 5
    with pytest.raises(ValueError):
        energy_spectrum(snap, K_max=max_shell(8) + 1)


def test_compensated_spectrum():
    snap = snapshot_of([single_mode_field(10, (3, 0), 0, 1.0)])
    curve = energy_spectrum(snap)
    assert np.array_equal(compensated_spectrum(curve, 0.0).values, curve.values)
    comp = compensated_spectrum(curve, 2.0)
    assert abs(comp.values[2] - 9.0 * curve.values[2]) < 1e-14
    exact = ScalarCurve(abscissa=np.arange(1.0, 9.0), values=np.arange(1.0, 9.0) ** -1.7)
    flat = compensated_spectrum(exact, 1.7)
    assert np.abs(flat.values - 1.0).max() < 1e-12


# --- exponent fits ---------------------------------------------------------


def test_fit_exponent_exact_power_law():
    r = np.geomspace(0.01, 1.0, 5)
    curve = ScalarCurve(abscissa=r, values=2.7 * r ** 1.37)
    fit = fit_exponent(curve, 0.005, 2.0)
    assert abs(fit.exponent - 1.37) < 1e-12
    assert fit.residual < 1e-12


def test_fit_exponent_constant_and_scaling_invariance():
    r = np.geomspace(0.01, 1.0, 6)
    flat = ScalarCurve(abscissa=r, values=np.full(6, 3.3))
    assert abs(fit_exponent(flat, 0.001, 2.0).exponent) < 1e-12
    curve = ScalarCurve(abscissa=r, values=1.1 * r ** 0.7)
    doubled = ScalarCurve(abscissa=r, values=2.2 * r ** 0.7)
    f1 = fit_exponent(curve, 0.001, 2.0)
    f2 = fit_exponent(doubled, 0.001, 2.0)
    assert abs(f1.exponent - f2.exponent) < 1e-12
    assert abs(f2.intercept - f1.intercept - np.log(2.0)) < 1e-12


def test_fit_exponent_errors():
    r = np.geomspace(0.01, 1.0, 6)
    curve = ScalarCurve(abscissa=r, values=r.copy())
    with pytest.raises(ValueError):
        fit_exponent(curve, 0.5, 0.6)  # too few points
    bad = ScalarCurve(abscissa=r, values=np.concatenate([[0.0], r[1:]]))
    with pytest.raises(ValueError):
        fit_exponent(bad, 0.005, 2.0)


def test_diagonal_continuity_synthetic_spectra():
    # E(K) = K^(-2 beta) ensembles: structure exponent ~ beta - 1/2
    rng = np.random.default_rng(4)
    N = 64
    window = (4 * np.pi / N, np.pi / 4)
    for beta in (0.75, 1.0):
        snap = snapshot_of([synthetic_spectrum_field(N, beta, rng) for _ in range(2)])
        espec = energy_spectrum(snap)
        K = espec.abscissa
        inertial = (K >= 1) & (K <= N)
        assert np.abs(K[inertial] ** (2 * beta) * espec.values[inertial] - 1.0).max() < 1e-10
        fit = fit_exponent(structure_function(snap), *window)
        assert abs(fit.exponent - (beta - 0.5)) < 0.1


# --- Cauchy rates ----------------------------------------------------------


def _embed_to(field, N_fine):
    pad = N_fine - field.N
    c = np.zeros((2, 2 * N_fine + 1, 2 * N_fine + 1), dtype=complex)
    c[:, pad : pad + 2 * field.N + 1, pad : pad + 2 * field.N + 1] = field.coeffs
    return SpectralField(N_fine, c)


def test_cauchy_rate_embedded_dynamics_is_zero():
    rng = np.random.default_rng(5)
    coarse = [hermitian_random_field(8, rng) for _ in range(3)]
    fine = [_embed_to(f, 16) for f in coarse]
    a = snapshot_of(coarse)
    b = snapshot_of(fine)
    assert cauchy_rate(a, b, "mean") < 1e-12
    assert cauchy_rate(a, b, "variance") < 1e-12
    assert cauchy_rate(a, b, 1) < 1e-12


def test_cauchy_rate_mean_matches_manual_sum():
    rng = np.random.default_rng(6)
    a = snapshot_of([hermitian_random_field(8, rng) for _ in range(3)])
    b = snapshot_of([hermitian_random_field(16, rng) for _ in range(3)])
    got = cauchy_rate(a, b, "mean")
    mean_a = sum(f.coeffs for f in a.fields) / 3
    mean_b = sum(truncate_to(f, 8).coeffs for f in b.fields) / 3
    manual = 0.0
    for c in range(2):
        for i in range(17):
            for j in range(17):
                manual += abs(mean_b[c, i, j] - mean_a[c, i, j]) ** 2
    manual = 2 * np.pi * np.sqrt(manual)
    assert abs(got - manual) < 1e-12 * max(1.0, manual)


def test_per_sample_cauchy_rate_does_not_depend_on_coefficient_layout(tmp_path):
    # The same fields in memory (record layout), read back from snapshots
    # and copied to C order give the same bits of every per-sample rate.
    def ensembles(base_seed, N):
        spec = InitialMeasureSpec("flat_sheet", N, rho=0.1, delta=0.025, base_seed=base_seed)
        snap = snapshot_of([generate_sample(spec, i) for i in (1, 2)])
        path = tmp_path / f"b{base_seed}_N{N}.euss"
        write_snapshot(path, snap)
        c_order = [SpectralField(N, np.ascontiguousarray(f.coeffs)) for f in snap.fields]
        return snap, read_snapshot(path), snapshot_of(c_order)

    for base_seed in range(8):
        coarse, fine = ensembles(base_seed, 16), ensembles(base_seed, 32)
        for j in (0, 1):
            rates = {cauchy_rate(a, b, j) for a, b in zip(coarse, fine)}
            assert len(rates) == 1, (base_seed, j, rates)


def test_cauchy_rate_validation():
    rng = np.random.default_rng(7)
    a = snapshot_of([hermitian_random_field(8, rng)])
    b = snapshot_of([hermitian_random_field(12, rng)])
    with pytest.raises(ValueError):
        cauchy_rate(a, b, "mean")
    c = snapshot_of([hermitian_random_field(16, rng)], time=1.0)
    with pytest.raises(ValueError):
        cauchy_rate(a, c, "mean")


# --- time regularity -------------------------------------------------------


def test_time_regularity_single_mode_closed_form():
    N, L = 8, 2.0
    base = single_mode_field(N, (2, 1), 0, 0.3)
    delta = 0.05
    bumped = SpectralField(N, base.coeffs + single_mode_field(N, (2, 1), 0, delta).coeffs)
    dt = 0.25
    ratio = time_regularity_ratio([(0.0, base), (dt, bumped)], L=L)
    ksq = 2 ** 2 + 1 ** 2
    expected = (
        delta * 2 * np.pi * np.sqrt(2.0) * (1 + ksq) ** (-L / 2)
        / ((1 + sobolev_norm(base, 0.0) ** 2) * dt)
    )
    assert abs(ratio - expected) < 1e-12 * expected


def test_time_regularity_shift_invariance_and_errors():
    N = 8
    rng = np.random.default_rng(8)
    traj = [(t, hermitian_random_field(N, rng)) for t in (0.0, 0.1, 0.3)]
    shifted = [(t + 5.0, f) for t, f in traj]
    assert abs(time_regularity_ratio(traj) - time_regularity_ratio(shifted)) < 1e-14
    with pytest.raises(ValueError):
        time_regularity_ratio(traj[:1])


def test_time_regularity_steady_trajectory():
    from eulerstat.initial import taylor_green_field

    tg = taylor_green_field(16)
    assert time_regularity_ratio([(0.0, tg), (1.0, tg)]) == 0.0


# --- CSV export ------------------------------------------------------------


def test_curve_csv_round_trip(tmp_path):
    r = np.geomspace(0.01, 1.0, 5)
    curve = ScalarCurve(abscissa=r, values=np.pi * r, kind="structure", time=0.4, N=64, m=8)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# structure,0.40000000000000002,64,8"
    back = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back[:, 0], r)  # 17 significant digits round-trip exactly
    assert np.array_equal(back[:, 1], curve.values)


def test_default_grids():
    r = default_r_grid(64)
    assert len(r) == 24 and abs(r[0] - np.pi / 64) < 1e-15 and abs(r[-1] - np.pi / 2) < 1e-15
    lo, hi = default_fit_range(64)
    assert abs(hi - 8 * np.pi / 64) < 1e-15 and abs(lo - hi / 10) < 1e-15
