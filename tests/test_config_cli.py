import numpy as np
import pytest

from eulerstat.cli import PRESETS, main
from eulerstat.config import ConfigError, canonical_manifest_text, parse_config
from eulerstat.ensemble import fnv1a64, read_snapshot

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

[diagnostics]
structure = on
spectrum = 2
"""


def test_parse_full_config():
    cfg = parse_config(GOOD)
    assert cfg.name == "demo" and cfg.base_seed == 42
    assert cfg.family == "flat_sheet" and cfg.rho(16) == 0.1
    assert cfg.resolutions == (8, 16)
    assert cfg.samples(8) == 2 and cfg.samples(16) == 2
    assert cfg.output_times == (0.0, 0.05)
    assert cfg.diagnostics == {"structure": True, "spectrum": 2.0}


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
        ("[diagnostics]\nwobble = on\n", 2),
        ("[nonsense]\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line


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
    assert sin.d == 0.2 and sin.quad_points == 400 and sin.eps == 0.01
    assert sin.rho_rule == ("over_n", 5.0) and sin.delta == 0.003125
    fbm = parse_config(PRESETS["fbm_h05"])
    assert fbm.hurst == 0.5
    flat = parse_config(PRESETS["flat_sheet_smooth"])
    assert flat.delta == 0.025 and flat.rho_rule == ("const", 0.1)
    sweep = parse_config(PRESETS["flat_sheet_delta_sweep3"])
    assert sweep.delta == 0.05 / 8


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


def test_run_invalid_config_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = _write_config(tmp_path, "[run]\nresolutions = 7\n")
    assert main(["run", bad]) == 2
    assert "line 2" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "no_such_file_or_preset"]) == 2


def test_run_desk_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    big = _write_config(tmp_path, GOOD.replace("resolutions = 8 16", "resolutions = 512"))
    assert main(["run", big]) == 2
    assert "--large" in capsys.readouterr().err


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
