"""Cross-module properties on realistic ensembles (shares the session
fixtures with the acceptance suite)."""

import numpy as np

from eulerstat.diagnostics import structure_function, time_regularity_ratio
from eulerstat.ensemble import RunManifest, read_snapshot, run_ensemble
from eulerstat.initial import InitialMeasureSpec
from eulerstat.solver import SolverParams
from eulerstat.spectral import l2_norm, max_divergence


def test_grid_scale_structure_function_shrinks_with_resolution(flat_rough_snapshots):
    # S at r = 1/N, computed from the run at resolution N, does not grow
    # when the grid is refined (bounded rough initial data)
    vals = {}
    for N in (64, 128):
        snap = flat_rough_snapshots[N][1]
        vals[N] = structure_function(snap, np.array([1.0 / N])).values[0]
    assert vals[128] ** 2 <= vals[64] ** 2


def test_empirical_l2_bound(flat_smooth_snapshots):
    for N, (snap0, snap4) in flat_smooth_snapshots.items():
        max0 = max(l2_norm(f) for f in snap0.fields)
        max4 = max(l2_norm(f) for f in snap4.fields)
        assert max4 <= max0 * (1 + 1e-12)


def test_snapshots_stay_divergence_free(flat_smooth_snapshots):
    snap = flat_smooth_snapshots[64][1]
    for f in snap.fields:
        assert max_divergence(f) <= 1e-10 * max(1.0, l2_norm(f))


def test_trajectory_time_regularity_ratio_stable(tmp_path):
    spec = InitialMeasureSpec(family="flat_sheet", N=32, rho=0.1, delta=0.025, base_seed=6)
    times = tuple(np.linspace(0.04, 0.4, 10))
    manifest = RunManifest(spec=spec, m=1, output_times=times, solver=SolverParams(N=32))
    paths = [tmp_path / f"t{j:02d}.euss" for j in range(len(times))]
    run_ensemble(manifest, paths)
    snaps = [read_snapshot(p) for p in paths]
    traj = [(s.time, s.fields[0]) for s in snaps]
    worst = time_regularity_ratio(traj, L=2.0)
    rates = []
    for (t0, f0), (t1, f1) in zip(traj, traj[1:]):
        from eulerstat.spectral import SpectralField, sobolev_norm

        diff = SpectralField(32, f1.coeffs - f0.coeffs)
        denom = (1.0 + sobolev_norm(traj[0][1], 0.0) ** 2) * (t1 - t0)
        rates.append(sobolev_norm(diff, -2.0) / denom)
    assert abs(worst - max(rates)) < 1e-12
    assert max(rates) <= 10.0 * np.median(rates)
