"""Tests of the benchmark itself (not of eulerstat): its checks catch broken
outputs, the seed reaches the config, and its names match BENCHMARK.json."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from eulerstat import EnsembleSnapshot, InitialMeasureSpec, SolverParams, generate_sample  # noqa: E402
from eulerstat.config import parse_config  # noqa: E402
from eulerstat.ensemble import write_snapshot  # noqa: E402

# The workloads and metrics later performance work is measured by; a rename
# here breaks comparisons with earlier results.
NAMED_WORKLOADS = ["flat128", "ladder", "sheet_gen"]
# failed_frac is reported as passed_frac: a metric that reads 0 on every
# run has no relative spread.
NAMED_END_TO_END = [
    "setup_s", "run_s", "diagnose_s", "total_s", "samples_per_s",
    "peak_rss_mib", "output_mib", "energy_residual", "passed_frac",
]
NAMED_PER_LAYER = [
    "solver.evolve_s", "solver.step_ms", "solver.adaptive_dt_ms", "solver.steps", "solver.rhs_ms",
    "solver.fft_points_per_step", "solver.bytes_per_step",
    "initial.generate_sample_ms",
    "spectral.from_physical_ms", "spectral.leray_project_ms", "spectral.sample_at_grid_ms",
    "ensemble.run_ensemble_s", "ensemble.pool_efficiency", "ensemble.write_snapshot_s",
    "ensemble.read_snapshot_s", "ensemble.snapshot_mib_per_s", "ensemble.variance_field_ms",
    "diagnostics.structure_function_ms", "diagnostics.energy_spectrum_ms",
    "diagnostics.cauchy_rate_ms", "diagnostics.time_regularity_ratio_ms",
    "transport.w1_exact_ms", "transport.marginal_w1_s",
    "cli.self_s", "config.parse_config_ms",
]


@pytest.fixture
def snapshot_file(tmp_path):
    spec = InitialMeasureSpec("flat_sheet", 8, rho=0.1, delta=0.025, base_seed=3)
    snap = EnsembleSnapshot(
        time=0.0, N=8, fields=[generate_sample(spec, i) for i in (1, 2)],
        sample_seeds=[1, 2], params=SolverParams(N=8),
    )
    path = tmp_path / "x_N0008_t00.euss"
    write_snapshot(path, snap)
    return path


def test_valid_snapshot_passes(snapshot_file):
    assert checks.check_snapshot(snapshot_file)[1]


@pytest.mark.parametrize("corrupt", ["nan", "divergent", "truncated", "extended", "magic"])
def test_corrupted_snapshot_fails(snapshot_file, corrupt):
    data = bytearray(snapshot_file.read_bytes())
    header = 32
    coeff = header + 8 + 8 * (4 * (17 * 3 + 5))   # a k != 0 mode of sample 1, component 1
    if corrupt == "nan":
        data[coeff:coeff + 8] = np.float64(np.nan).tobytes()
    elif corrupt == "divergent":
        data[coeff:coeff + 8] = np.float64(1.0).tobytes()
    elif corrupt == "truncated":
        del data[-8:]
    elif corrupt == "extended":
        data += b"\0" * 8
    else:
        data[:4] = b"XXXX"
    snapshot_file.write_bytes(bytes(data))
    assert not checks.check_snapshot(snapshot_file)[1]


def _energy_csv(path, rows):
    path.write_text("# energy,0.4,16,4\n" + "".join(f"{t!r},{e!r},{d!r}\n" for t, e, d in rows))
    return path


def test_energy_ledger_check(tmp_path):
    good = [(0.0, 2.0, 0.0), (0.1, 1.9, 0.1 + 1e-7), (0.2, 1.8, 0.2)]
    assert checks.check_energy(_energy_csv(tmp_path / "a_energy.csv", good))[1]
    nan_row = good + [(0.3, math.nan, 0.3)]
    assert not checks.check_energy(_energy_csv(tmp_path / "b_energy.csv", nan_row))[1]
    leaky = good + [(0.3, 1.0, 0.3)]
    assert not checks.check_energy(_energy_csv(tmp_path / "c_energy.csv", leaky))[1]


def test_spectrum_check(tmp_path, snapshot_file):
    from eulerstat.diagnostics import compensated_spectrum, energy_spectrum, write_curve_csv
    from eulerstat.ensemble import read_snapshot

    curve = compensated_spectrum(energy_spectrum(read_snapshot(snapshot_file)), 2.5)
    good = tmp_path / "good.csv"
    write_curve_csv(curve, good)
    assert checks.check_spectrum(good, snapshot_file)[1]
    bad = tmp_path / "bad.csv"
    lines = good.read_text().splitlines(keepends=True)
    k, v = lines[4].split(",")
    lines[4] = f"{k},{float(v) * 1.001!r}\n"
    bad.write_text("".join(lines))
    assert not checks.check_spectrum(bad, snapshot_file)[1]


def test_wasserstein_check(tmp_path):
    header = "# wasserstein_k1,0.4,16,32,4,2,90210,39.47\n"
    good = tmp_path / "good_wass1.csv"
    good.write_text(header + "0.1,0.2,0.5\n0.3,0.4,0.25\nsummary,14.8\n")
    assert checks.check_wasserstein(good)[1]
    bad = tmp_path / "bad_wass1.csv"
    bad.write_text(header + "0.1,0.2,-0.5\n0.3,0.4,nan\nsummary,14.8\n")
    assert not checks.check_wasserstein(bad)[1]


def test_seed_reaches_base_seed(monkeypatch, tmp_path):
    seen = {}

    def fake_untraced(workload, work, cfg, seconds, ops):
        seen["config"] = cfg.read_text()
        ops.add("fake", True)
        return {name: 1.0 for name, _ in run.END_TO_END if name not in ("setup_s", "passed_frac")}

    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "run_cli", lambda args, cwd: (0.0, 0, 0.0))
    monkeypatch.setattr(run, "untraced", fake_untraced)
    monkeypatch.setenv("EULER_STAT_SEED", "7")
    assert run.main(["--workload", "ladder", "--seed", "4242", "--seconds", "1", "--trace", "0"]) == 0
    assert parse_config(seen["config"]).base_seed == 4242
    assert "EULER_STAT_SEED" not in run.cli_env()


def test_names_match_the_metric_list_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMED_WORKLOADS == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == NAMED_END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_names()
    assert set(NAMED_PER_LAYER) <= {m["name"] for m in spec["per_layer"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_percentile_rule():
    assert layers.summarize([]) == (0.0, 0.0, 50, 0)
    assert layers.summarize(list(range(19)))[2] == 50
    assert layers.summarize(list(range(99)))[2] == 50
    assert layers.summarize(list(range(100)))[2] == 90
    assert layers.summarize(list(range(1000)))[2] == 99


def test_tracer_self_time_and_missing_names():
    tracer = Tracer()
    tracer.wrap("eulerstat.spectral.no_such_function", "x")
    assert tracer.missing == ["eulerstat.spectral.no_such_function"]

    def leaf():
        return sum(range(20000))

    def parent():
        return tracer.span("leaf", leaf) + tracer.span("leaf", leaf)

    tracer.span("root", parent)
    (root,) = tracer.durations("root")
    (self_time,) = tracer.self_times("root")
    assert self_time == pytest.approx(root - sum(tracer.durations("leaf")))
    assert tracer.total_under("root", "leaf") == pytest.approx(sum(tracer.durations("leaf")))


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
