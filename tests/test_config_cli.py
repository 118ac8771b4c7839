import contextlib
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import eulerstat
import eulerstat.ensemble as ens
import eulerstat.solver as solver
from eulerstat.cli import PRESETS, main
from eulerstat.config import ConfigError, ExperimentConfig, canonical_manifest_text, parse_config
from eulerstat.diagnostics import cauchy_rate, structure_function
from eulerstat.ensemble import EnsembleSnapshot, fnv1a64, read_snapshot, variance_field, write_snapshot
from eulerstat.initial import PRNG_ID
from eulerstat.solver import SolverParams
from eulerstat.spectral import SpectralField, modal_energy
from oracles import hermitian_random_field

GOOD = """\
[experiment]
name = demo
base_seed = 42
output_dir = out/demo

[initial]
family = flat_sheet
rho = 0.1
delta = 0.025
q = 10

[solver]
s = 1
eps = 0.05
multiplier = standard
cfl = 0.5

[run]
resolutions = 8 16
samples = 2
output_times = 0 0.05
"""


def test_parse_full_config():
    cfg = parse_config(GOOD)
    assert cfg.name == "demo" and cfg.base_seed == 42
    assert cfg.family == "flat_sheet" and cfg.rho(16) == 0.1
    assert cfg.resolutions == (8, 16)
    assert cfg.samples(8) == 2 and cfg.samples(16) == 2
    assert cfg.output_times == (0.0, 0.05)


def test_parse_rho_over_n_and_samples_n():
    cfg = parse_config(
        "[initial]\nfamily = sinusoidal_sheet\nrho = 5/N\n[run]\nsamples = N\nresolutions = 8\n"
    )
    assert cfg.rho(10) == 0.5 and cfg.rho(50) == 0.1
    assert cfg.samples(24) == 24


@pytest.mark.parametrize(
    "text,line",
    [
        ("[initial]\nfamily = vortex_blob\n", 2),
        ("[run]\nresolutions = 16 8\n", 2),
        ("[run]\nresolutions = 7\n", 2),
        ("[run]\n\noutput_times = 0.4 0.1\n", 3),
        ("[solver]\neps = fast\n", 2),
        ("key_without_section = 1\n", 1),
        ("[diagnostics]\nwobble = on\n", 1),
        ("[nonsense]\n", 1),
        ("[initial]\nfamily = flat_sheet\nfamilly = fbm\n", 3),
        ("[solver]\neps = 0.05\n\nepsilon = 0.3\n", 4),
        ("[run]\nresolution = 16\n", 2),
        ("[run]\nsample = 3\n", 2),
        ("[experiment]\nnmae = x\n", 2),
        ("[run]\nsamples = 2\nresolutions = 8\nsamples = 3\n", 4),
        ("[run]\nsamples = 2\n[run]\nsamples = 3\n", 4),
        ("[solver]\ncfl = nan\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text,line",
    [
        ("[solver]\nvisc_safety = 0\n", None),
        ("[solver]\nvisc_safety = -0.5\n", None),
        ("[solver]\nmultiplier = power\ntheta = 0\n", None),
        ("[solver]\ns = 0\n", None),
        ("[solver]\nmultiplier = wavy\n", None),
        ("[experiment]\nbase_seed = -3\n", None),
        ("[initial]\nq = -1\n", None),
        ("[initial]\n\nfamily = flat_sheet\ndelta = -1\n", 3),
        ("[initial]\nfamily = sinusoidal_sheet\nrho = 5/N\nquadrature_points = 0\n", 2),
        ("[initial]\nfamily = sinusoidal_sheet\n", 2),
        ("[initial]\nfamily = fbm\nhurst = 1\n", 2),
    ],
)
def test_out_of_range_values_name_the_resolution(text, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text + "[run]\nresolutions = 8 16\n")
    assert err.value.line == line
    assert "N=8" in str(err.value)


def test_range_checks_cover_every_resolution():
    # cfl = 0 needs a damped mode: m_n = 12 lies below N sqrt(2) at N = 16
    # (22.6), not at N = 8 (11.3)
    solver = "[solver]\ncfl = 0\nmultiplier = power\nm_n = 12\n"
    parse_config(solver + "[run]\nresolutions = 16\n")
    with pytest.raises(ConfigError, match="N=8"):
        parse_config(solver + "[run]\nresolutions = 8 16\n")
    with pytest.raises(ConfigError, match="N=8"):
        ExperimentConfig(resolutions=(16, 8),
                         solver={"cfl": 0.0, "multiplier": "power", "m_n": 12.0}).check()


def test_dealias_is_an_unknown_key(tmp_path, capsys, monkeypatch):
    # The solver derives its padded grid; a config that still sets the old
    # padding factor, even to its old default, exits 2.
    with pytest.raises(ConfigError, match="unknown key 'dealias' in \\[solver\\]"):
        parse_config("[solver]\ndealias = 1.5\n")
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "old.cfg"
    path.write_bytes(_bad_config(solver="dealias = 1.5\n"))
    assert main(["run", str(path)]) == 2
    assert "unknown key 'dealias'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_canonical_manifest_hash_stable():
    cfg = parse_config(GOOD)
    t1 = canonical_manifest_text(cfg, 16, "prng-id", "0.1.0")
    t2 = canonical_manifest_text(cfg, 16, "prng-id", "0.1.0")
    assert t1 == t2
    assert fnv1a64(t1.encode()) == fnv1a64(t2.encode())
    assert "rho = 0.1" in t1 and "samples = 2" in t1 and "prng-id" in t1


def test_presets_parse_and_match_quoted_parameters():
    for name, text in PRESETS.items():
        cfg = parse_config(text)
        assert cfg.name == name
    sin = parse_config(PRESETS["sinusoidal_sheet"])
    spec = sin.initial_spec(64)
    assert spec.d == 0.2 and spec.quad_points == 400 and sin.solver_params(64).eps == 0.01
    assert sin.rho_rule == ("over_n", 5.0) and spec.delta == 0.003125
    fbm = parse_config(PRESETS["fbm_h05"])
    assert fbm.initial_spec(64).hurst == 0.5
    flat = parse_config(PRESETS["flat_sheet_smooth"])
    assert flat.initial_spec(64).delta == 0.025 and flat.rho_rule == ("const", 0.1)
    sweep = parse_config(PRESETS["flat_sheet_delta_sweep3"])
    assert sweep.initial_spec(64).delta == 0.05 / 8


# fnv1a64 of every preset's manifest text under scheme 3 (the manifest's
# [provenance] scheme line); the hash goes into every .euss header.
GOLDEN_MANIFEST_HASHES = {
    ("fbm_h015", 64): 0x4beffcb079232f9f,
    ("fbm_h015", 128): 0x434c9e74b3754fdd,
    ("fbm_h05", 64): 0x05c5614027b89de9,
    ("fbm_h05", 128): 0x6b24e0194e16c927,
    ("fbm_h075", 64): 0xda184d5bfa0d73c1,
    ("fbm_h075", 128): 0x2755b408243c0b9f,
    ("flat_sheet_delta_sweep0", 64): 0x82e6a475e9348a74,
    ("flat_sheet_delta_sweep1", 64): 0xb38dff329cdfa57f,
    ("flat_sheet_delta_sweep2", 64): 0xe28bcd9d3e190043,
    ("flat_sheet_delta_sweep3", 64): 0x52850df0ad5b8bff,
    ("flat_sheet_delta_sweep4", 64): 0x283c554614dffedf,
    ("flat_sheet_delta_sweep5", 64): 0x0baa12362157cee5,
    ("flat_sheet_discontinuous", 64): 0x974c34377ed86afa,
    ("flat_sheet_discontinuous", 128): 0x7206a57abd477490,
    ("flat_sheet_smooth", 64): 0x2b99c65c1b0334f9,
    ("flat_sheet_smooth", 128): 0x375ade30a56acaf7,
    ("sinusoidal_sheet", 64): 0xbc71e6a84124faa8,
    ("sinusoidal_sheet", 128): 0x904b53a1aae8d55a,
    ("taylor_green_check", 32): 0x8e78ea5078ba4210,
}


def test_golden_manifest_hashes():
    got = {}
    for name, text in PRESETS.items():
        cfg = parse_config(text)
        for N in cfg.resolutions:
            got[name, N] = fnv1a64(canonical_manifest_text(cfg, N, PRNG_ID, "0.1.0").encode())
    assert got == GOLDEN_MANIFEST_HASHES


def test_presets_listing_stable(capsys):
    assert main(["presets"]) == 0
    first = capsys.readouterr().out
    assert main(["presets"]) == 0
    assert capsys.readouterr().out == first
    assert "sinusoidal_sheet" in first and "d=0.2" in first
    assert "fbm_h05" in first and "hurst=0.5" in first


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    code = "import sys, eulerstat.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_diagnose_leaves_scipy_unloaded(tmp_path):
    # a tiny ensemble (N = 8, 16 at t = 0, 0.05) through every diagnostic
    _write_config(tmp_path, GOOD)
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    code = (
        "import glob, sys\n"
        "from eulerstat.cli import main\n"
        "assert main(['run', 'exp.cfg']) == 0\n"
        "code = main(['diagnose', *sorted(glob.glob('out/demo/*.euss')), '--out', 'diag',\n"
        "             '--structure', '--spectrum', '2', '--wasserstein', '1', '--cauchy',\n"
        "             '--mean-variance', '--time-regularity', '2'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
    assert len(list((tmp_path / "diag").glob("*_structure.csv"))) == 4


def test_cli_import_leaves_process_pools_unloaded(tmp_path):
    # ordered_map imports ProcessPoolExecutor only when it starts a pool,
    # evolve ThreadPoolExecutor only when it starts threads; `presets` does
    # neither, nor does a `diagnose` without --wasserstein or at 1 CPU. At 2
    # CPUs the --wasserstein of two (N, 2N) pairs (8 and 16, at each time)
    # starts a pool.
    paths = _write_snapshots(tmp_path, ((8, 2, 0.0), (16, 2, 0.0), (8, 2, 0.1), (16, 2, 0.1)))
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    pools = "('multiprocessing', 'concurrent.futures.process', 'concurrent.futures.thread')"
    loaded = f"sorted(m for m in sys.modules if m.startswith({pools}))"
    code = ("import contextlib, io, os, sys, eulerstat.cli\n"
            "def call(*args, cpus=2):\n"
            "    os.sched_getaffinity = lambda pid: set(range(cpus))\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert eulerstat.cli.main(list(args)) == 0\n"
            f"    print({loaded})\n"
            "call('presets')\n"
            f"call('diagnose', *{paths!r}, '--structure', '--cauchy', '--time-regularity', '2', '--out', 'a')\n"
            f"call('diagnose', *{paths!r}, '--wasserstein', '1', '--time-regularity', '2', '--out', 'b', cpus=1)\n"
            f"call('diagnose', *{paths!r}, '--wasserstein', '1', '--out', 'c')\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    *serial, pooled = out.splitlines()
    assert serial == ["[]"] * 3
    assert "concurrent.futures.process" in pooled


def test_run_invalid_config_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = _write_config(tmp_path, "[run]\nresolutions = 7\n")
    assert main(["run", bad]) == 2
    assert "line 2" in capsys.readouterr().err


def _bad_config(experiment="", initial="family = flat_sheet\n", solver="", run=""):
    return (
        f"[experiment]\nname = bad\noutput_dir = out/bad\n{experiment}"
        f"[initial]\n{initial}[solver]\n{solver}"
        f"[run]\nresolutions = 8\nsamples = 1\noutput_times = 0 0.05\n{run}"
    ).encode()


# visc_safety = 0 is left to test_out_of_range_values_name_the_resolution:
# unchecked, it makes dt = 0 and the run never ends.
@pytest.mark.parametrize(
    "raw,env_seed",
    [
        pytest.param(_bad_config(initial="familly = fbm\n"), None, id="familly"),
        pytest.param(_bad_config(solver="epsilon = 0.3\n"), None, id="epsilon"),
        pytest.param(_bad_config(run="resolution = 16\n"), None, id="resolution"),
        pytest.param(_bad_config(run="sample = 3\n"), None, id="sample"),
        pytest.param(_bad_config(experiment="nmae = x\n"), None, id="nmae"),
        pytest.param(_bad_config(run="samples = 2\n"), None, id="duplicate_samples"),
        pytest.param(_bad_config(solver="visc_safety = -0.5\n"), None, id="visc_safety_neg"),
        pytest.param(_bad_config(solver="multiplier = power\ntheta = 0\n"), None, id="theta_0"),
        pytest.param(
            _bad_config(initial="family = sinusoidal_sheet\nrho = 5/N\nquadrature_points = 0\n"),
            None, id="quadrature_points_0",
        ),
        pytest.param(_bad_config(initial="family = flat_sheet\nq = -1\n"), None, id="q_neg"),
        pytest.param(_bad_config(experiment="base_seed = -3\n"), None, id="base_seed_neg"),
        pytest.param(_bad_config(solver="s = 0\n"), None, id="s_0"),
        pytest.param(_bad_config(solver="dealias = 0.5\n"), None, id="dealias_half"),
        pytest.param(_bad_config(initial="family = flat_sheet\ndelta = -1\n"), None, id="delta_neg"),
        pytest.param(_bad_config(solver="eps = 0\ncfl = 0\n"), None, id="no_step_bound"),
        pytest.param(
            _bad_config(solver="multiplier = power\nm_n = 1000\ncfl = 0\n"), None,
            id="no_damped_mode",
        ),
        pytest.param(_bad_config(), "-4", id="env_seed_neg"),
        pytest.param(b"\xff\xfe[run]\n", None, id="not_utf8"),
        pytest.param(_bad_config() + b"[diagnostics]\nstructure = on\n", None, id="diagnostics_section"),
    ],
)
def test_run_bad_input_exits_2_cleanly(tmp_path, capsys, monkeypatch, raw, env_seed):
    monkeypatch.chdir(tmp_path)
    if env_seed is None:
        monkeypatch.delenv("EULER_STAT_SEED", raising=False)
    else:
        monkeypatch.setenv("EULER_STAT_SEED", env_seed)
    path = tmp_path / "bad.cfg"
    path.write_bytes(raw)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_overflowing_s_exits_2_naming_s(tmp_path, capsys, monkeypatch):
    # At N = 64, s = 1100 gives infinite damping rates (2^s overflows): the
    # config is rejected before anything runs, not reported as a blow-up at t = 0.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_bytes(_bad_config(solver="s = 1100\n").replace(b"resolutions = 8", b"resolutions = 64"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and "N=64" in err and "s = 1100" in err
    assert "Warning" not in err and "blow-up" not in err
    assert not (tmp_path / "out").exists()


def test_run_endless_step_count_exits_2(tmp_path, capsys, monkeypatch):
    # s = 80 passes every parameter check, but its viscous step bound needs
    # ~1e22 steps to t = 0.05 at N = 8: past the desk-scale step cap.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "slow.cfg"
    path.write_bytes(_bad_config(solver="s = 80\n"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and "N=8" in err and "s = 80" in err
    assert "e+22 steps" in err and "--large" in err
    assert not (tmp_path / "out").exists()


def test_run_blow_up_exits_3_leaving_no_files_for_that_n(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = ens.generate_sample

    def exploding(spec, i):
        if spec.N == 16 and i == 2:
            return SpectralField(16, np.full((2, 33, 33), 1e300, dtype=complex))
        return real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", exploding)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", _write_config(tmp_path, GOOD)]) == 3
    assert "N=16" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "out" / "demo").iterdir()) == [
        "demo_N0008.manifest", "demo_N0008_energy.csv", "demo_N0008_t00.euss", "demo_N0008_t01.euss"]


@pytest.mark.parametrize("large", [[], ["--large"]])
def test_run_past_the_step_budget_exits_3(tmp_path, capsys, monkeypatch, large):
    # --large lifts the desk-scale estimate only, not evolve's step budget.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(solver, "MAX_STEPS", 50)
    real = ens.generate_sample
    monkeypatch.setattr(ens, "generate_sample",
                        lambda spec, i: SpectralField(spec.N, 1e6 * real(spec, i).coeffs))
    assert main(["run", _write_config(tmp_path, GOOD), *large]) == 3
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: N=8: 50 steps spent at t=") and err.count("\n") == 1


def test_run_missing_config_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "no_such_file_or_preset"]) == 2


def test_run_desk_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    big = _write_config(tmp_path, GOOD.replace("resolutions = 8 16", "resolutions = 512"))
    assert main(["run", big]) == 2
    assert "--large" in capsys.readouterr().err


def test_run_checks_free_disk_space_before_the_first_sample(tmp_path, capsys, monkeypatch):
    # GOOD writes two snapshot files at N = 8 and two at N = 16, m = 2 each:
    # 2 (32 + 2 (8 + 32 * 17^2)) + 2 (32 + 2 (8 + 32 * 33^2)) bytes.
    need = 176576
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD)
    out = tmp_path / "out" / "demo"
    monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=need - 1))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and err.count("\n") == 1
    assert f"need {need} bytes" in err and f"has {need - 1} bytes free" in err
    assert list(out.iterdir()) == []
    monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=need))
    assert main(["run", cfg]) == 0
    assert sum(p.stat().st_size for p in out.glob("*.euss")) == need


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_rejects_nonpositive_workers(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD)
    assert main(["run", cfg, "--workers", workers]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_produces_artifacts_and_respects_force(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    for N in (8, 16):
        base = tmp_path / "out" / "demo" / f"demo_N{N:04d}"
        assert (tmp_path / "out" / "demo" / f"demo_N{N:04d}_t00.euss").exists()
        assert (tmp_path / "out" / "demo" / f"demo_N{N:04d}_t01.euss").exists()
        assert base.with_suffix(".manifest").exists()
        assert (tmp_path / "out" / "demo" / f"demo_N{N:04d}_energy.csv").exists()
    snap = read_snapshot(tmp_path / "out" / "demo" / "demo_N0016_t01.euss")
    assert snap.N == 16 and snap.m == 2 and abs(snap.time - 0.05) < 1e-15
    # energy CSV: header plus (t, E, D) rows
    lines = (tmp_path / "out" / "demo" / "demo_N0008_energy.csv").read_text().splitlines()
    assert lines[0].startswith("# energy,")
    t0 = [float(x) for x in lines[1].split(",")]
    assert t0[0] == 0.0 and t0[2] == 0.0
    # re-run without --force refuses, with --force overwrites
    assert main(["run", cfg]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["run", cfg, "--force"]) == 0


@pytest.mark.parametrize("leftover", ["demo_N0008_energy.csv", "demo_N0016_energy.csv",
                                      "demo_N0016.manifest"])
def test_run_refuses_any_leftover_before_running(tmp_path, capsys, monkeypatch, leftover):
    # A leftover of the second resolution must stop the run before the first runs.
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD)
    out = tmp_path / "out" / "demo"
    out.mkdir(parents=True)
    (out / leftover).write_text("kept\n")
    assert main(["run", cfg]) == 2
    assert leftover in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [leftover]
    assert (out / leftover).read_text() == "kept\n"


def test_every_output_is_renamed_into_place(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(os.path.abspath(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    cfg = _write_config(tmp_path, GOOD)
    assert main(["run", cfg]) == 0
    run_dir, diag_dir = tmp_path / "out" / "demo", tmp_path / "diag"
    snaps = sorted(str(p) for p in run_dir.glob("*.euss"))
    assert main(["diagnose", *snaps, "--structure", "--spectrum", "2", "--wasserstein", "1",
                 "--cauchy", "--mean-variance", "--time-regularity", "2", "--out", str(diag_dir)]) == 0
    written = [str(p) for d in (run_dir, diag_dir) for p in d.iterdir()]
    assert sorted(written) == sorted(replaced)
    assert len(set(replaced)) == len(replaced)
    assert not [p for p in written if p.endswith(".tmp")]


def test_run_taylor_green_preset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "taylor_green_check"]) == 0
    out = tmp_path / "out" / "taylor_green_check"
    final = read_snapshot(out / "taylor_green_check_N0032_t01.euss")
    first = read_snapshot(out / "taylor_green_check_N0032_t00.euss")
    assert abs(final.time - 1.0) < 1e-15
    drift = np.abs(final.fields[0].coeffs - first.fields[0].coeffs).max()
    assert drift < 1e-12
    energy = (out / "taylor_green_check_N0032_energy.csv").read_text().splitlines()
    last = [float(x) for x in energy[-1].split(",")]
    assert last[0] == 1.0 and abs(last[1] - first_energy(first)) < 1e-9


def first_energy(snap):
    return float(np.sum(np.abs(snap.fields[0].coeffs) ** 2))


FAMILY_INITIAL = {
    "flat_sheet": "rho = 0.1\ndelta = 0.025\n",
    "sinusoidal_sheet": "rho = 0.1\ndelta = 0.05\nquadrature_points = 40\n",
    "fbm": "",
    "taylor_green": "",
}

# fnv1a64 of the energy CSV of `run` on family_config(family), each recorded
# in a fresh process under scheme 3; 3 to 10 steps per run. The CSV carries
# E to its last bit.
ENERGY_CSV_DIGESTS = {
    "flat_sheet": "85ea0de4888bdcee",
    "sinusoidal_sheet": "0605ec159ef0b7fd",
    "fbm": "916eec0f50b93f6a",
    "taylor_green": "7a65e4bc7928653a",
}


def family_config(family, N=16, samples=2):
    return (f"[experiment]\nname = pin\nbase_seed = 11\noutput_dir = out\n\n"
            f"[initial]\nfamily = {family}\n{FAMILY_INITIAL[family]}\n"
            f"[run]\nresolutions = {N}\nsamples = {samples}\noutput_times = 0 0.1 0.25\n")


@pytest.mark.parametrize("family", sorted(ENERGY_CSV_DIGESTS))
def test_energy_csv_keeps_its_bits(tmp_path, capsys, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write_config(tmp_path, family_config(family))]) == 0
    csv = (tmp_path / "out" / "pin_N0016_energy.csv").read_bytes()
    assert f"{fnv1a64(csv):016x}" == ENERGY_CSV_DIGESTS[family]


@pytest.mark.parametrize("family, N", [("flat_sheet", 32), ("sinusoidal_sheet", 16), ("fbm", 16)])
def test_energy_csv_equals_modal_energy_of_the_snapshots(tmp_path, capsys, monkeypatch, family, N):
    # The CSV holds sample 1's ledger; at each output time its E is the
    # modal_energy of sample 1 read back from that time's snapshot.
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write_config(tmp_path, family_config(family, N, samples=1))]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in (tmp_path / "out" / f"pin_N{N:04d}_energy.csv").read_text().splitlines()[1:]]
    energy = {t: E for t, E, _ in rows}
    for k, t in enumerate((0.0, 0.1, 0.25)):
        snap = read_snapshot(tmp_path / "out" / f"pin_N{N:04d}_t{k:02d}.euss")
        assert snap.sample_seeds == [1] and snap.time == t
        assert modal_energy(snap.fields[0]) == energy[t]


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD.replace("resolutions = 8 16", "resolutions = 8"))
    assert main(["run", cfg]) == 0
    a = (tmp_path / "out" / "demo" / "demo_N0008_t01.euss").read_bytes()
    monkeypatch.setenv("EULER_STAT_SEED", "777")
    assert main(["run", cfg, "--force"]) == 0
    b = (tmp_path / "out" / "demo" / "demo_N0008_t01.euss").read_bytes()
    assert a != b


def test_diagnose_pipeline(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD)
    assert main(["run", cfg]) == 0
    outdir = tmp_path / "out" / "demo"
    snaps = sorted(str(p) for p in outdir.glob("*.euss"))
    assert (
        main(
            ["diagnose", *snaps, "--structure", "--spectrum", "2", "--wasserstein", "1",
             "--cauchy", "--mean-variance", "--time-regularity", "2", "--out", str(tmp_path / "diag")]
        )
        == 0
    )
    diag = tmp_path / "diag"
    assert (diag / "demo_N0008_t00_structure.csv").exists()
    assert (diag / "demo_N0016_t01_spectrum.csv").exists()
    assert (diag / "summary.csv").exists()
    wass = list(diag.glob("*_wass1.csv"))
    assert len(wass) == 2  # (8, 16) pairs at t = 0 and t = 0.05
    assert (diag / "time_regularity_N0008.csv").exists()
    text = wass[0].read_text().splitlines()
    assert text[-1].startswith("summary,")


def test_diagnose_without_pair_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD.replace("resolutions = 8 16", "resolutions = 8"))
    assert main(["run", cfg]) == 0
    snaps = sorted(str(p) for p in (tmp_path / "out" / "demo").glob("*.euss"))
    assert main(["diagnose", *snaps, "--wasserstein", "1"]) == 2
    assert "pair" in capsys.readouterr().err


def test_diagnose_no_flags_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD.replace("resolutions = 8 16", "resolutions = 8"))
    assert main(["run", cfg]) == 0
    snaps = sorted(str(p) for p in (tmp_path / "out" / "demo").glob("*.euss"))
    assert main(["diagnose", *snaps]) == 2


def _write_snapshots(tmp_path, specs):
    """One snapshot file per (N, m, time) of random fields; returns the paths."""
    rng = np.random.default_rng(5)
    paths = []
    for N, m, t in specs:
        path = tmp_path / f"s_N{N:04d}_t{t:g}.euss"
        write_snapshot(path, EnsembleSnapshot(
            time=t, N=N, fields=[hermitian_random_field(N, rng) for _ in range(m)],
            sample_seeds=list(range(1, m + 1)), params=SolverParams(N=N)))
        paths.append(str(path))
    return paths


def _assert_diagnose_writes_nothing(tmp_path, capsys, args):
    before = sorted(p.name for p in tmp_path.iterdir())
    for out in ([], ["--out", str(tmp_path / "diag")]):
        assert main(["diagnose", *args, *out]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == before
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and "Traceback" not in err
    return err


def test_variance_cauchy_rate_of_unequal_sample_counts(tmp_path, capsys):
    # The variance Cauchy rate is defined for any two sample counts.
    paths = _write_snapshots(tmp_path, ((8, 3, 0.0), (16, 5, 0.0)))
    assert main(["diagnose", *paths, "--cauchy", "--out", str(tmp_path / "d")]) == 0
    lines = (tmp_path / "d" / "s_N0008_t0__s_N0016_t0_cauchy.csv").read_text().splitlines()
    rows = {name: float(value) for name, value in (line.split(",") for line in lines[1:])}
    coarse, fine = (read_snapshot(p) for p in paths)
    assert list(rows) == ["mean", "variance"]
    for statistic, value in rows.items():
        assert value == cauchy_rate(coarse, fine, statistic)


def test_diagnose_pairs_exactly_the_times_cauchy_rate_accepts(tmp_path, capsys):
    # One same-time rule: at t = 2 it admits offsets up to 2e-12, so diagnose
    # pairs the N = 16 input 1.5e-12 away and not the one 3e-12 away, as
    # cauchy_rate accepts the first and rejects the second.
    rng = np.random.default_rng(5)
    snaps = {}
    for name, N, t in (("a", 8, 2.0), ("near", 16, 2.0 + 1.5e-12), ("far", 16, 2.0 + 3e-12)):
        snaps[name] = EnsembleSnapshot(time=t, N=N, fields=[hermitian_random_field(N, rng) for _ in range(2)],
                                       sample_seeds=[1, 2], params=SolverParams(N=N))
        write_snapshot(tmp_path / f"{name}.euss", snaps[name])
    assert cauchy_rate(snaps["a"], snaps["near"]) >= 0.0
    with pytest.raises(ValueError, match="times differ"):
        cauchy_rate(snaps["a"], snaps["far"])
    paths = [str(tmp_path / f"{name}.euss") for name in snaps]
    assert main(["diagnose", *paths, "--cauchy", "--out", str(tmp_path / "d")]) == 0
    assert [p.name for p in (tmp_path / "d").glob("*_cauchy.csv")] == ["a__near_cauchy.csv"]


@pytest.mark.parametrize("flag", [["--wasserstein", "1"], ["--time-regularity", "2"]])
def test_diagnose_failure_writes_nothing(tmp_path, capsys, flag):
    # N = 8 with m = 2 and N = 16 with m = 3, one time each: W1 needs equal
    # sample counts, time regularity two times of one resolution.
    paths = _write_snapshots(tmp_path, ((8, 2, 0.0), (16, 3, 0.0)))
    _assert_diagnose_writes_nothing(tmp_path, capsys, [*paths, "--structure", "--spectrum", "0", *flag])


@pytest.mark.parametrize("flag", [
    ["--wasserstein", "4"],
    ["--wasserstein", "0"],
    ["--spectrum", "nan"],
    ["--spectrum", "inf"],
    ["--time-regularity", "nan"],
    ["--time-regularity", "inf"],
])
def test_diagnose_bad_flag_value_writes_nothing(tmp_path, capsys, flag):
    # Inputs every diagnostic accepts: an (8, 16) pair with equal m and two
    # times at N = 8, so only the flag value is at fault.
    paths = _write_snapshots(tmp_path, ((8, 2, 0.0), (8, 2, 0.1), (16, 2, 0.0)))
    err = _assert_diagnose_writes_nothing(tmp_path, capsys, [*paths, "--structure", *flag])
    assert flag[0] in err


def test_diagnose_time_regularity_rejects_repeated_time(tmp_path, capsys):
    paths = _write_snapshots(tmp_path, ((8, 2, 0.0), (8, 2, 0.1)))
    copy = tmp_path / "copy_N0008_t0.euss"
    copy.write_bytes((tmp_path / "s_N0008_t0.euss").read_bytes())
    err = _assert_diagnose_writes_nothing(
        tmp_path, capsys, [str(copy), *paths, "--structure", "--time-regularity", "2"])
    assert "N=8" in err


def test_diagnose_time_regularity_rejects_mixed_experiments(tmp_path, capsys):
    # two N = 8 snapshots at distinct times, but written by different runs
    rng = np.random.default_rng(6)
    paths = []
    for t, mhash in ((0.0, 11), (0.1, 12)):
        path = tmp_path / f"run{mhash}_N0008_t{t:g}.euss"
        write_snapshot(path, EnsembleSnapshot(
            time=t, N=8, fields=[hermitian_random_field(8, rng) for _ in range(2)],
            sample_seeds=[1, 2], params=SolverParams(N=8), manifest_hash=mhash))
        paths.append(str(path))
    err = _assert_diagnose_writes_nothing(
        tmp_path, capsys, [*paths, "--structure", "--time-regularity", "2"])
    assert "N=8" in err and paths[0] in err and paths[1] in err


@pytest.mark.parametrize("flag, message", [
    ([], "no diagnostic selected"),
    (["--wasserstein", "4"], "--wasserstein"),
    (["--spectrum", "nan"], "--spectrum"),
    (["--time-regularity", "inf"], "--time-regularity"),
])
def test_diagnose_checks_flags_before_reading(tmp_path, capsys, monkeypatch, flag, message):
    for name in ("read_snapshot", "read_snapshot_header"):
        monkeypatch.setattr(eulerstat.cli, name, lambda path: pytest.fail("read " + path))
    missing = str(tmp_path / "missing.euss")
    assert main(["diagnose", missing, *flag]) == 2
    err = capsys.readouterr().err
    assert message in err and "missing.euss" not in err
    assert list(tmp_path.iterdir()) == []


def test_diagnose_reads_a_repeated_input_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").mkdir()
    _write_snapshots(tmp_path / "a", ((8, 2, 0.0), (16, 2, 0.0)))
    args = ["a/s_N0008_t0.euss", "./a/s_N0008_t0.euss", "a/s_N0016_t0.euss"]
    assert main(["diagnose", *args, "--cauchy", "--structure", "--out", "d"]) == 0
    wrote = capsys.readouterr().out.splitlines()
    assert len(wrote) == len(set(wrote)) == 4  # 2 structure, 1 Cauchy, summary
    rows = (tmp_path / "d" / "summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["s_N0008_t0", "s_N0016_t0"]


@pytest.mark.parametrize("out", [[], ["--out", "d"]])
def test_diagnose_rejects_inputs_sharing_a_stem(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    for run in ("runA", "runB"):
        (tmp_path / run).mkdir()
        _write_snapshots(tmp_path / run, ((8, 2, 0.0),))
    before = sorted(tmp_path.rglob("*"))
    args = ["runA/s_N0008_t0.euss", "runB/s_N0008_t0.euss"]
    assert main(["diagnose", *args, "--structure", *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and args[0] in err and args[1] in err
    assert sorted(tmp_path.rglob("*")) == before


def _write_huge_pair(tmp_path, amplitude, m=2):
    """An (8, 16) pair of m samples each; the first has coefficients +-amplitude.

    That sample holds amplitude on k in {1, 2, 3}^2 and its mirror -k, so its
    grid value at x = 0 is 18 amplitude; at N = 16 it is negated. The other
    m - 1 samples are zero, which divides the mean shell powers by m.
    """
    paths = []
    for N, sign in ((8, 1.0), (16, -1.0)):
        c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
        c[:, N + 1:N + 4, N + 1:N + 4] = sign * amplitude
        c += c[:, ::-1, ::-1]
        fields = [SpectralField(N, c)] + [SpectralField(N, np.zeros_like(c))] * (m - 1)
        path = tmp_path / f"huge_N{N:04d}_t0.euss"
        write_snapshot(path, EnsembleSnapshot(time=0.0, N=N, fields=fields,
                                              sample_seeds=list(range(1, m + 1)),
                                              params=SolverParams(N=N)))
        paths.append(str(path))
    return paths


def test_diagnose_overflowing_values_write_nothing(tmp_path, capsys):
    # Finite coefficients whose W1 distances overflow: read_snapshot accepts
    # them and the structure tables compute (16 samples keep the mean powers
    # finite), then W1 rejects the values. Nothing is written, so no table
    # is written before the last one has been computed.
    paths = _write_huge_pair(tmp_path, 5e152, m=16)
    snaps = [read_snapshot(p) for p in paths]
    assert all(np.all(np.isfinite(structure_function(s).values)) for s in snaps)
    before = sorted(tmp_path.rglob("*"))
    for out in ([], ["--out", str(tmp_path / "diag")]):
        assert main(["diagnose", *paths, "--structure", "--wasserstein", "1", *out]) == 2
        assert sorted(tmp_path.rglob("*")) == before
    err = capsys.readouterr().err
    assert "eulerstat: distances between points overflow" in err    # after any overflow warnings


@pytest.mark.parametrize("amplitude, m, flag, what", [
    (1e307, 2, ["--structure"], "shell power"),         # |u(k)|^2 overflows
    (1e307, 2, ["--spectrum", "0"], "shell power"),
    (1e153, 1, ["--structure"], "structure function"),  # finite powers, S^2(r) overflows
])
def test_diagnose_overflowing_power_writes_nothing(tmp_path, capsys, amplitude, m, flag, what):
    # Neither structure nor spectrum rows (or a summary) are written.
    paths = _write_huge_pair(tmp_path, amplitude, m)
    with np.errstate(all="raise"):
        err = _assert_diagnose_writes_nothing(tmp_path, capsys, [*paths, *flag])
    assert f"non-finite {what}" in err


@pytest.mark.parametrize("m, flag, what", [
    (1, ["--mean-variance"], "non-finite mean at N=8"),         # the mean grid overflows
    (2, ["--mean-variance"], "non-finite variance at N=8"),     # finite mean, squares overflow
    (2, ["--cauchy"], "non-finite mean Cauchy rate"),           # |coefficient differences|^2
    (2, ["--wasserstein", "1"], "sampled velocity values contain non-finite entries"),
])
def test_diagnose_overflowing_statistics_write_nothing(tmp_path, capsys, m, flag, what):
    # Under errstate(all="raise") a numpy overflow warning would surface as
    # a FloatingPointError traceback, so none may be printed on the way.
    paths = _write_huge_pair(tmp_path, 1e307, m)
    with np.errstate(all="raise"):
        err = _assert_diagnose_writes_nothing(tmp_path, capsys, [*paths, *flag])
    assert what in err


@pytest.mark.parametrize("flags, unreadable_fine, what", [
    (["--structure"], True, "non-finite shell power at N=8"),   # a curve, then a later read
    (["--mean-variance"], True, "non-finite mean at N=8"),      # a mean, then a later read
    (["--cauchy", "--mean-variance"], False, "non-finite mean at N=8"),    # a mean, then a table
])
def test_diagnose_fails_at_the_first_input_to_fail(tmp_path, capsys, flags, unreadable_fine, what):
    # Each input's curves and mean are finished right after it is read, so
    # the N = 8 input's overflow is reported before the N = 16 input is read
    # and before any table (here the Cauchy rates) is built.
    paths = _write_huge_pair(tmp_path, 1e307, m=1)
    if unreadable_fine:
        c = np.zeros((2, 33, 33), dtype=complex)
        c[0, 16, 17] = np.nan
        write_snapshot(paths[1], EnsembleSnapshot(time=0.0, N=16, fields=[SpectralField(16, c)],
                                                  sample_seeds=[1], params=SolverParams(N=16)))
    with np.errstate(all="raise"):
        err = _assert_diagnose_writes_nothing(tmp_path, capsys, [*paths, *flags])
    assert what in err and paths[1] not in err


def test_overflowing_variance_and_cauchy_rate_raise(tmp_path):
    coarse, fine = (read_snapshot(p) for p in _write_huge_pair(tmp_path, 1e307))
    with np.errstate(all="raise"):
        for snap in (coarse, fine):
            with pytest.raises(ValueError, match="non-finite variance"):
                variance_field(snap)
        for statistic in ("mean", "variance", 0):
            with pytest.raises(ValueError, match="non-finite"):
                cauchy_rate(coarse, fine, statistic)


@pytest.mark.parametrize("below", [False, True])
def test_diagnose_out_under_a_file_exits_2(tmp_path, capsys, below):
    paths = _write_snapshots(tmp_path, ((8, 2, 0.0),))
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    before = sorted(tmp_path.rglob("*"))
    assert main(["diagnose", *paths, "--structure", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and str(out) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


def test_interrupted_diagnose_leaves_previous_csv_intact(tmp_path, capsys, monkeypatch):
    paths = _write_snapshots(tmp_path, ((8, 3, 0.0), (8, 3, 0.1)))
    args = ["diagnose", *paths, "--time-regularity", "2"]
    assert main(args) == 0
    dest = tmp_path / "time_regularity_N0008.csv"
    before = dest.read_bytes()
    calls = []
    real_ratio = eulerstat.cli.time_regularity_ratio

    def interrupted(*a, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_ratio(*a, **kw)

    monkeypatch.setattr(eulerstat.cli, "time_regularity_ratio", interrupted)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == "eulerstat: interrupted\n"
    assert dest.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def _children(pid):
    """The pids whose parent is pid, from /proc."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="finds the pool workers through /proc")
@pytest.mark.parametrize("signum, group", [(signal.SIGINT, False), (signal.SIGTERM, False),
                                           (signal.SIGINT, True)],
                         ids=["SIGINT", "SIGTERM", "SIGINT-group"])
def test_interrupted_run_exits_2_leaving_nothing(tmp_path, signum, group):
    # 64 flat sheets at N = 32 on 2 workers take a few seconds. The signal
    # goes to the `run` process, or to its process group as a terminal's
    # Ctrl-C does, as soon as the first pool worker is forked: the pool is
    # still starting, the worker has not set up its signals yet, and the
    # snapshot .tmp files are open.
    cfg = GOOD.replace("resolutions = 8 16", "resolutions = 32").replace(
        "samples = 2", "samples = 64").replace("output_times = 0 0.05", "output_times = 0 2")
    path = _write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "eulerstat.cli", "run", path, "--workers", "2"],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    out = tmp_path / "out" / "demo"
    try:
        deadline = time.monotonic() + 60
        workers = []
        while not workers and time.monotonic() < deadline and proc.poll() is None:
            workers = _children(proc.pid)
            time.sleep(0.002)
        assert proc.poll() is None and workers, "run ended before it could be interrupted"
        assert list(out.glob("*.tmp"))
        if group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        workers = set(workers) | set(_children(proc.pid))
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 2
        assert err.decode().splitlines() == ["eulerstat: interrupted"]
        assert not list(out.glob("*.tmp"))
        deadline = time.monotonic() + 10
        while any(os.path.exists(f"/proc/{pid}") for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)   # nothing of a failed run outlives the test


@pytest.mark.skipif(not os.path.isdir("/proc") or ens.usable_cpus() < 2,
                    reason="finds the pool worker through /proc; pins diagnose to 2 CPUs")
@pytest.mark.parametrize("signum, group", [(signal.SIGINT, False), (signal.SIGTERM, False),
                                           (signal.SIGINT, True)],
                         ids=["SIGINT", "SIGTERM", "SIGINT-group"])
def test_interrupted_pooled_diagnose_exits_2_leaving_nothing(tmp_path, signum, group):
    # --wasserstein over two (N, 2N) pairs (one per time) of 64 samples at 2
    # CPUs: this process streams the inputs and a pool of two workers solves
    # the pairs' W1. The signal goes out as soon as a worker is forked.
    paths = _write_snapshots(tmp_path, ((16, 64, 0.0), (32, 64, 0.0), (16, 64, 0.1), (32, 64, 0.1)))
    cpus = sorted(os.sched_getaffinity(0))[:2]
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    out = tmp_path / "diag"
    proc = subprocess.Popen([sys.executable, "-m", "eulerstat.cli", "diagnose", *paths,
                             "--wasserstein", "1", "--out", str(out)],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        workers = []
        while not workers and time.monotonic() < deadline and proc.poll() is None:
            workers = _children(proc.pid)
            time.sleep(0.002)
        assert proc.poll() is None and workers, "diagnose ended before it could be interrupted"
        if group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        workers = set(workers) | set(_children(proc.pid))
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 2, err.decode()
        assert err.decode().splitlines() == ["eulerstat: interrupted"]
        assert not out.exists() or not list(out.iterdir())
        deadline = time.monotonic() + 10
        while any(os.path.exists(f"/proc/{pid}") for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)   # nothing of a failed run outlives the test


def _cli(tmp_path, *args, **popen):
    """A `python -m eulerstat.cli` child process in tmp_path, stdout discarded."""
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    return subprocess.Popen([sys.executable, "-m", "eulerstat.cli", *args], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True, **popen)


def _assert_one_line(err):
    assert len(err.splitlines()) == 1 and err.startswith("eulerstat: ") and "Traceback" not in err, err


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sets a file-size limit on POSIX")
def test_failed_snapshot_write_exits_2_naming_the_file(tmp_path):
    # 16 flat sheets at N = 32 add 135208 bytes per sample to each snapshot:
    # under a 200 kB file-size limit (the child's only; SIGXFSZ ignored) the
    # second sample's write to the t = 0 snapshot fails with EFBIG.
    import errno
    import resource

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))

    cfg = GOOD.replace("resolutions = 8 16", "resolutions = 32").replace("samples = 2", "samples = 16")
    proc = _cli(tmp_path, "run", _write_config(tmp_path, cfg), preexec_fn=limit_file_size)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    _assert_one_line(err)
    tmp = os.path.join("out", "demo", "demo_N0032_t00.euss.tmp")
    assert err == f"eulerstat: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {tmp!r}\n"
    assert not list((tmp_path / "out" / "demo").iterdir())


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sets a file-size limit on POSIX")
def test_failed_pooled_snapshot_write_exits_2_naming_the_file(tmp_path):
    # As above at --workers 2: the second sample's worker writes its t = 0
    # record itself, and its failed write reaches `run` naming the file.
    import errno
    import resource

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))

    cfg = GOOD.replace("resolutions = 8 16", "resolutions = 32").replace("samples = 2", "samples = 16")
    proc = _cli(tmp_path, "run", _write_config(tmp_path, cfg), "--workers", "2",
                preexec_fn=limit_file_size)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    _assert_one_line(err)
    tmp = os.path.join("out", "demo", "demo_N0032_t00.euss.tmp")
    assert err == f"eulerstat: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {tmp!r}\n"
    assert not list((tmp_path / "out" / "demo").iterdir())


def _kill_a_worker(proc, count):
    """SIGKILL one of proc's pool workers once count of them run; return them all."""
    deadline = time.monotonic() + 60
    workers = []
    while len(workers) < count and time.monotonic() < deadline and proc.poll() is None:
        workers = _children(proc.pid)
        time.sleep(0.002)
    assert proc.poll() is None and len(workers) == count, "the command ended before its workers ran"
    os.kill(workers[0], signal.SIGKILL)
    return workers


def _assert_all_gone(pids):
    deadline = time.monotonic() + 10
    while any(os.path.exists(f"/proc/{pid}") for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="finds the pool workers through /proc")
def test_lost_run_worker_exits_2_leaving_nothing(tmp_path):
    # 64 flat sheets at N = 32 on 2 workers; one is killed once both are forked.
    cfg = GOOD.replace("resolutions = 8 16", "resolutions = 32").replace(
        "samples = 2", "samples = 64").replace("output_times = 0 0.05", "output_times = 0 2")
    proc = _cli(tmp_path, "run", _write_config(tmp_path, cfg), "--workers", "2")
    try:
        workers = _kill_a_worker(proc, 2)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 2
        _assert_one_line(err)
        assert "worker process was lost" in err
        assert not list((tmp_path / "out" / "demo").iterdir())
        _assert_all_gone(workers)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)   # nothing of a failed run outlives the test


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the parent-death signal is Linux's")
def test_run_workers_die_with_their_parent(tmp_path):
    # 64 flat sheets at N = 32 on 2 workers; `run` itself is SIGKILLed once
    # both are forked, so no cleanup of its own runs: the workers get SIGTERM.
    cfg = GOOD.replace("resolutions = 8 16", "resolutions = 32").replace(
        "samples = 2", "samples = 64").replace("output_times = 0 0.05", "output_times = 0 2")
    proc = _cli(tmp_path, "run", _write_config(tmp_path, cfg), "--workers", "2")
    try:
        deadline = time.monotonic() + 60
        workers = []
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            workers = _children(proc.pid)
            time.sleep(0.002)
        assert proc.poll() is None and len(workers) == 2, "run ended before its workers ran"
        proc.kill()
        proc.wait()
        _assert_all_gone(workers)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)   # nothing of a failed run outlives the test


@pytest.mark.skipif(not os.path.isdir("/proc") or ens.usable_cpus() < 2,
                    reason="finds the pool worker through /proc; pins diagnose to 2 CPUs")
def test_lost_diagnose_worker_exits_2_leaving_nothing(tmp_path):
    # --wasserstein over two pairs of 64 samples at 2 CPUs: a pool of two
    # workers solves the pairs' W1, and one is killed as soon as both are forked.
    paths = _write_snapshots(tmp_path, ((16, 64, 0.0), (32, 64, 0.0), (16, 64, 0.1), (32, 64, 0.1)))
    cpus = sorted(os.sched_getaffinity(0))[:2]
    out = tmp_path / "diag"
    proc = _cli(tmp_path, "diagnose", *paths, "--wasserstein", "1", "--out", str(out),
                preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        workers = _kill_a_worker(proc, 2)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 2
        _assert_one_line(err)
        assert "worker process was lost" in err
        assert not out.exists()
        _assert_all_gone(workers)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def test_run_out_of_memory_exits_2_leaving_no_files_for_that_n(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = ens.generate_sample

    def starved(spec, i):
        if spec.N == 16 and i == 2:
            raise MemoryError
        return real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", starved)
    assert main(["run", _write_config(tmp_path, GOOD)]) == 2
    assert capsys.readouterr().err == "eulerstat: MemoryError\n"
    assert sorted(p.name for p in (tmp_path / "out" / "demo").iterdir()) == [
        "demo_N0008.manifest", "demo_N0008_energy.csv", "demo_N0008_t00.euss", "demo_N0008_t01.euss"]


def test_diagnose_out_of_memory_exits_2_writing_nothing(tmp_path, capsys, monkeypatch):
    paths = _write_snapshots(tmp_path, ((8, 2, 0.0), (16, 2, 0.0)))
    message = "Unable to allocate 1.00 GiB for an array with shape (8192, 8192, 2)"

    def starved(fields, stats):
        raise MemoryError(message)

    monkeypatch.setattr(eulerstat.cli, "feed", starved)
    before = sorted(tmp_path.iterdir())
    assert main(["diagnose", *paths, "--structure", "--cauchy", "--out", str(tmp_path / "diag")]) == 2
    assert capsys.readouterr().err == f"eulerstat: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_run_sinusoidal_rho_past_one_period_exits_2(tmp_path, capsys, monkeypatch):
    # rho = 1e300 used to pass every check, create output_dir and then fail
    # in the sheet kernel, where rho * rho overflows.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_bytes(_bad_config(initial="family = sinusoidal_sheet\nrho = 1e300\n"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    _assert_one_line(err)
    assert "N=8" in err and "rho = 1e+300" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cut", ["four_bytes", "truncated_body", "extended"])
def test_diagnose_damaged_snapshot_exits_2(tmp_path, capsys, monkeypatch, cut):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD.replace("resolutions = 8 16", "resolutions = 8"))
    assert main(["run", cfg]) == 0
    path = tmp_path / "out" / "demo" / "demo_N0008_t00.euss"
    raw = path.read_bytes()
    path.write_bytes({"four_bytes": raw[:4], "truncated_body": raw[:-100], "extended": raw + b"x"}[cut])
    capsys.readouterr()
    assert main(["diagnose", str(path), "--structure"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [["--structure"], ["--spectrum", "0"]])
def test_diagnose_snapshot_of_no_modes_exits_2(tmp_path, capsys, flag):
    # A well-formed header with N = 0 and m = 2, then two 40-byte records (a
    # seed and the two components of the one mode k = (0, 0)): its length
    # matches, but a snapshot needs N >= 1.
    path = tmp_path / "zero_N0000_t0.euss"
    records = b"".join(struct.pack("<Q", seed) + bytes(32) for seed in (1, 2))
    path.write_bytes(struct.pack("<4sIIIdQ", b"EUSS", 1, 0, 2, 0.0, 0) + records)
    for out in ([], ["--out", str(tmp_path / "diag")]):
        assert main(["diagnose", str(path), *flag, *out]) == 2
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(f"eulerstat: {path}: ")
        assert printed.err.count("\n") == 1


def test_full_pipeline_byte_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, GOOD)

    def run_into(tag, workers):
        text = GOOD.replace("out/demo", f"out/{tag}")
        path = tmp_path / f"{tag}.cfg"
        path.write_text(text)
        assert main(["run", str(path), "--workers", str(workers)]) == 0
        outdir = tmp_path / "out" / tag
        snaps = sorted(str(p) for p in outdir.glob("*.euss"))
        assert main(["diagnose", *snaps, "--structure", "--spectrum", "2",
                     "--wasserstein", "1", "--out", str(tmp_path / f"diag_{tag}")]) == 0
        blobs = {}
        for p in sorted(outdir.iterdir()):
            blobs["run/" + p.name] = p.read_bytes()
        for p in sorted((tmp_path / f"diag_{tag}").iterdir()):
            blobs["diag/" + p.name] = p.read_bytes()
        return blobs

    a = run_into("one", 1)
    b = run_into("two", 2)
    ka = {k for k in a if not k.endswith(".manifest")}
    kb = {k for k in b if not k.endswith(".manifest")}
    assert {k.replace("one", "x") for k in ka} == {k.replace("two", "x") for k in kb}
    for k in sorted(ka):
        assert a[k] == b[k.replace("one", "two") if "one" in k else k], k
