"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with `pytest tests/test_acceptance.py -v -s`).

The desk-scale ensembles behind criteria 5, 6, 7 and 11 come from the
session fixtures in conftest.py (flat vortex sheet, m = 32, t = 0.4, with
N up to 128) and are shared across the criteria.
"""

import numpy as np

from eulerstat.cli import main
from eulerstat.diagnostics import (
    energy_spectrum,
    fit_exponent,
    structure_function,
)
from eulerstat.ensemble import EnsembleSnapshot
from eulerstat.initial import fbm_surface, sample_rng, taylor_green_field
from eulerstat.solver import SolverParams, evolve, step
from eulerstat.spectral import SpectralField, l2_norm
from eulerstat.transport import PointCloud, marginal_w1, w1_exact
from oracles import (
    band_limited_random_field,
    hermitian_random_field,
    structure_function_quadrature,
    synthetic_spectrum_field,
    w1_bruteforce,
)

# Inertial-range fit window for structure-function exponents: the default
# one-decade-to-8-grid-spacings window sits inside the dissipation range at
# these resolutions, so scaling exponents are read off above it.
INERTIAL_WINDOW = lambda N: (4 * np.pi / N, np.pi / 4)


def _criterion(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def snapshot_of(fields, time=0.0):
    N = fields[0].N
    return EnsembleSnapshot(
        time=time,
        N=N,
        fields=list(fields),
        sample_seeds=list(range(1, len(fields) + 1)),
        params=SolverParams(N=N),
    )


def test_c01_energy_balance():
    # N = 64, s = 1, eps = 1/20, T = 1, random divergence-free data; the
    # CFL is reduced so time-integration error sits below the tolerance.
    rng = np.random.default_rng(7)
    u0 = band_limited_random_field(64, 8, rng, amplitude=0.1)
    _, ledger = evolve(u0, 1.0, SolverParams(N=64, cfl=0.1))
    resid = abs(ledger.E + ledger.D - ledger.E0) / ledger.E0
    _criterion(1, "energy balance E(T) + D(T) = E(0)", resid <= 1e-6,
               f"relative residual {resid:.3e} <= 1e-06, D/E0 = {ledger.D / ledger.E0:.3e}")


def test_c02_taylor_green_steady():
    tg = taylor_green_field(32)
    u, _ = evolve(tg, 1.0, SolverParams(N=32))
    drift = l2_norm(SpectralField(32, u.coeffs - tg.coeffs))
    _criterion(2, "Taylor-Green stationarity over T = 1", drift <= 1e-6,
               f"L2 drift {drift:.3e} <= 1e-06")


def test_c03_linear_decay_oracle():
    # single shear mode |k|^2 = 2N, steady under the nonlinear term: exact rate eps
    N = 32
    p = SolverParams(N=N)
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[1, N + 8, N] = 0.5
    c[1, N - 8, N] = 0.5
    errs = []
    for nsteps in (16, 32):
        u = SpectralField(N, c)
        for _ in range(nsteps):
            u = step(u, 1.0 / nsteps, p)
        got = u.coeffs[1, N + 8, N].real
        exact = 0.5 * np.exp(-p.eps)
        errs.append(abs(got - exact) / exact)
    ok = errs[0] <= 1e-8 and errs[1] < errs[0]
    _criterion(3, "linear decay matches exp(-lambda t)", ok,
               f"rel err {errs[0]:.3e} (dt=1/16), {errs[1]:.3e} (dt=1/32) <= 1e-08")


def test_c04_structure_function_oracle():
    # spectral Bessel-kernel estimator vs physical-space ball quadrature,
    # 10^4 h-samples per r, 10 random band-limited fields at N = 32
    rng = np.random.default_rng(17)
    snap = snapshot_of([hermitian_random_field(32, rng) for _ in range(10)])
    curve = structure_function(snap)
    oracle = structure_function_quadrature(snap, curve.abscissa, seed=4)
    rel = np.abs(curve.values / oracle - 1.0).max()
    _criterion(4, "structure function vs quadrature oracle", rel <= 5e-3,
               f"max relative difference {rel:.3e} <= 5e-03 over {len(curve.abscissa)} r values")


def test_c05_smooth_sheet_scaling(flat_smooth_snapshots):
    snap = flat_smooth_snapshots[128][1]
    fit = fit_exponent(structure_function(snap), *INERTIAL_WINDOW(128))
    ok = 0.75 <= fit.exponent <= 1.05
    _criterion(5, "smooth flat-sheet structure exponent at t = 0.4", ok,
               f"exponent {fit.exponent:.3f} in [0.75, 1.05], N = 128, m = {snap.m}")


def test_c06_discontinuous_sheet_scaling(flat_rough_snapshots):
    snap0, snap4 = flat_rough_snapshots[128]
    e0 = fit_exponent(structure_function(snap0), *INERTIAL_WINDOW(128)).exponent
    e4 = fit_exponent(structure_function(snap4), *INERTIAL_WINDOW(128)).exponent
    ok = (0.4 <= e0 <= 0.6) and (0.4 <= e4 <= 0.65)
    _criterion(6, "discontinuous flat-sheet structure exponents", ok,
               f"t=0: {e0:.3f} in [0.4, 0.6]; t=0.4: {e4:.3f} in [0.4, 0.65]")


def test_c07_compensated_spectrum_bounded(flat_rough_snapshots):
    # K^2 E(K) over the inertial range K in [4, sqrt(N)] for N = 64, 128
    comp = {}
    for N in (64, 128):
        curve = energy_spectrum(flat_rough_snapshots[N][1])
        K = curve.abscissa
        mask = (K >= 4) & (K <= np.sqrt(N))
        comp[N] = K[mask] ** 2 * curve.values[mask]
    med = np.median(comp[64])
    peak = max(comp[64].max(), comp[128].max())
    ok = peak <= 3.0 * med
    _criterion(7, "compensated spectrum uniformly bounded", ok,
               f"max/median = {peak / med:.2f} <= 3 over K in [4, sqrt(N)]")


def test_c08_fbm_increment_statistics():
    # H = 0.5, 64 seeds: fitted increment-variance exponent within 0.1 of 2H
    hurst, lags, depth = 0.5, np.array([8, 16, 32, 64]), 10
    acc = np.zeros(len(lags))
    for s in range(64):
        rngs = [sample_rng(123, s, 0, lvl) for lvl in range(depth + 1)]
        surf = fbm_surface(rngs, depth, hurst)
        for j, h in enumerate(lags):
            d1 = surf[h:, :] - surf[:-h, :]
            d2 = surf[:, h:] - surf[:, :-h]
            acc[j] += 0.5 * (np.var(d1) + np.var(d2))
    slope = np.polyfit(np.log(lags), np.log(acc / 64), 1)[0]
    ok = abs(slope - 2 * hurst) <= 0.1
    _criterion(8, "fBm increment-variance exponent", ok,
               f"fitted {slope:.3f}, target {2 * hurst} +- 0.1 (64 seeds)")


def test_c09_diagonal_continuity_synthetic():
    # prescribed E(K) ~ K^(-2 beta): structure exponent ~ beta - 1/2
    rng = np.random.default_rng(44)
    N = 64
    results = []
    for beta in (0.75, 1.0):
        snap = snapshot_of([synthetic_spectrum_field(N, beta, rng) for _ in range(4)])
        fit = fit_exponent(structure_function(snap), *INERTIAL_WINDOW(N))
        results.append((beta, fit.exponent, abs(fit.exponent - (beta - 0.5))))
    ok = all(err <= 0.1 for _, _, err in results)
    detail = "; ".join(f"beta={b}: {e:.3f} (target {b - 0.5})" for b, e, _ in results)
    _criterion(9, "spectrum decay implies structure-function decay", ok, detail)


def test_c10_exact_w1():
    rng = np.random.default_rng(123)
    exact = True
    for _ in range(200):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((m, d))
        B = rng.standard_normal((m, d))
        if w1_exact(PointCloud(A), PointCloud(B)) != w1_bruteforce(A, B):
            exact = False
            break
    axioms = True
    for _ in range(50):
        A, B, C = (PointCloud(rng.standard_normal((5, 3))) for _ in range(3))
        axioms &= abs(w1_exact(A, B) - w1_exact(B, A)) <= 1e-12
        axioms &= w1_exact(A, A) <= 1e-12
        axioms &= w1_exact(A, C) <= w1_exact(A, B) + w1_exact(B, C) + 1e-12
    _criterion(10, "exact assignment W1", exact and axioms,
               f"200 factorial-oracle instances exact = {exact}, metric axioms = {axioms}")


def test_c11_wasserstein_resolution_trend(flat_smooth_snapshots):
    w_lo = marginal_w1(flat_smooth_snapshots[32][1], flat_smooth_snapshots[64][1], 1).value
    w_hi = marginal_w1(flat_smooth_snapshots[64][1], flat_smooth_snapshots[128][1], 1).value
    ok = w_hi < w_lo
    _criterion(11, "marginal W1 decreases with resolution", ok,
               f"W1(32,64) = {w_lo:.4e} > W1(64,128) = {w_hi:.4e}")


def test_c12_worker_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = """\
[experiment]
name = det
base_seed = 31
output_dir = out/{tag}

[initial]
family = flat_sheet
rho = 0.1
delta = 0.025

[run]
resolutions = 8 16
samples = 4
output_times = 0 0.1
"""

    def run(tag, workers):
        path = tmp_path / f"{tag}.cfg"
        path.write_text(config.format(tag=tag))
        assert main(["run", str(path), "--workers", str(workers)]) == 0
        outdir = tmp_path / "out" / tag
        snaps = sorted(str(p) for p in outdir.glob("*.euss"))
        assert main(["diagnose", *snaps, "--structure", "--spectrum", "2",
                     "--wasserstein", "1", "--cauchy",
                     "--out", str(tmp_path / f"diag_{tag}")]) == 0
        files = {}
        for p in sorted(outdir.glob("*.euss")):
            files["snap/" + p.name] = p.read_bytes()
        for p in sorted((tmp_path / f"diag_{tag}").iterdir()):
            files["csv/" + p.name] = p.read_bytes()
        return files

    serial = run("w1", 1)
    parallel = run("w4", 4)
    assert set(serial) == set(parallel)
    mismatched = [k for k in serial if serial[k] != parallel[k]]
    _criterion(12, "1-worker vs 4-worker byte identity", not mismatched,
               f"{len(serial)} artifacts compared, mismatches: {mismatched or 'none'}")
