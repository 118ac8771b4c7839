"""Shared fixtures: the expensive flat-sheet ensembles reused by the
acceptance criteria and the slow integration properties, and the CPU count
`run` and `diagnose` see."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from eulerstat.ensemble import RunManifest, read_snapshot, run_ensemble
from eulerstat.initial import InitialMeasureSpec
from eulerstat.solver import SolverParams

ENSEMBLE_SEED = 2024
ENSEMBLE_M = 32
WORKERS = min(2, os.cpu_count() or 1)


def _flat_sheet_run(tmp_path_factory, N, rho):
    spec = InitialMeasureSpec(
        family="flat_sheet", N=N, rho=rho, delta=0.025, base_seed=ENSEMBLE_SEED
    )
    manifest = RunManifest(
        spec=spec, m=ENSEMBLE_M, output_times=(0.0, 0.4), solver=SolverParams(N=N)
    )
    out = tmp_path_factory.mktemp(f"flat_sheet_N{N}")
    paths = [out / "t00.euss", out / "t01.euss"]
    run_ensemble(manifest, paths, workers=WORKERS)
    return [read_snapshot(p) for p in paths]


@pytest.fixture(scope="session")
def flat_smooth_snapshots(tmp_path_factory):
    """rho = 0.1, delta = 0.025, m = 32 ensembles at N = 32, 64, 128; t = 0, 0.4."""
    return {N: _flat_sheet_run(tmp_path_factory, N, 0.1) for N in (32, 64, 128)}


@pytest.fixture(scope="session")
def flat_rough_snapshots(tmp_path_factory):
    """rho = 0 (discontinuous sheet), delta = 0.025, m = 32; N = 64, 128; t = 0, 0.4."""
    return {N: _flat_sheet_run(tmp_path_factory, N, 0.0) for N in (64, 128)}


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(n) makes `run` and `diagnose` see n CPUs (ensemble.usable_cpus)
    for the rest of the test."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return pin
