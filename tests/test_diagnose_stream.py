"""`diagnose` streams its inputs: memory, read volume, output bytes, failures.

The inputs are synthetic snapshots, random band-limited fields written with
write_snapshot (nothing is evolved): N = 16 and 32 at two times each, m = 64
samples, so every diagnostic has inputs (two (N, 2N) pairs and two times per
resolution).
"""

import builtins
import contextlib
import hashlib
import multiprocessing
import os
import pathlib
import shutil
import tracemalloc
import weakref

import numpy as np
import pytest

from eulerstat import cli
from eulerstat.cli import main
from eulerstat.diagnostics import RadialPower, energy_spectrum, structure_function
from eulerstat.ensemble import (EnsembleSnapshot, GridMoments, mean_field, read_snapshot, variance_field,
                                write_csv, write_snapshot)
from eulerstat.solver import SolverParams
from eulerstat.spectral import sample_at_grid
from eulerstat.transport import marginal_w1
from oracles import hermitian_random_field

SAMPLES = 64
EVERY_TABLE_BUT_W1 = ["--structure", "--spectrum", "0", "--cauchy", "--mean-variance",
                      "--time-regularity", "2"]


def write_inputs(directory) -> list:
    """Four snapshot files (N = 16, 32 at t = 0, 0.1); returns their paths."""
    rng = np.random.default_rng(2468)
    paths = []
    for N in (16, 32):
        for t in (0.0, 0.1):
            path = os.path.join(directory, f"syn_N{N:04d}_t{t:g}.euss")
            write_snapshot(path, EnsembleSnapshot(
                time=t, N=N, fields=[hermitian_random_field(N, rng) for _ in range(SAMPLES)],
                sample_seeds=list(range(1, SAMPLES + 1)), params=SolverParams(N=N), manifest_hash=N))
            paths.append(path)
    return paths


def csv_digests(directory) -> dict:
    return {name: hashlib.sha256(open(os.path.join(directory, name), "rb").read()).hexdigest()[:16]
            for name in sorted(os.listdir(directory))}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


# sha256 prefixes of every table, written before `diagnose` streamed its
# inputs (when it read every snapshot whole first); the .npz grids since they
# replaced the grid CSVs of RETIRED_GRID_CSV.
GOLDEN = {
    "summary.csv": "b23c361baebc9ba6",
    "syn_N0016_t0.1__syn_N0032_t0.1_cauchy.csv": "41462067f3739ca2",
    "syn_N0016_t0.1_mean_variance.npz": "cfa7c45fed4f9195",
    "syn_N0016_t0.1_spectrum.csv": "c14a3229575f4610",
    "syn_N0016_t0.1_structure.csv": "be9a8a7b8e529757",
    "syn_N0016_t0__syn_N0032_t0_cauchy.csv": "7cca45d6c7056375",
    "syn_N0016_t0_mean_variance.npz": "0ac6fe441db97245",
    "syn_N0016_t0_spectrum.csv": "8a36a720bc4081e5",
    "syn_N0016_t0_structure.csv": "7e587fb3ec34333f",
    "syn_N0032_t0.1_mean_variance.npz": "546747ff34418630",
    "syn_N0032_t0.1_spectrum.csv": "86d0201ea53c04f6",
    "syn_N0032_t0.1_structure.csv": "e9a8df10571b68af",
    "syn_N0032_t0_mean_variance.npz": "5bd01ca470f1a9fe",
    "syn_N0032_t0_spectrum.csv": "cefd33510ff5d043",
    "syn_N0032_t0_structure.csv": "b3419c41c6ee4429",
    "time_regularity_N0016.csv": "8ff60c2703922994",
    "time_regularity_N0032.csv": "3819596650eabff8",
}
# sha256 prefixes of the grid CSVs (header "# <tag>,time,N,m", then one .17g
# row per grid row) that `diagnose --mean-variance` wrote before the .npz.
RETIRED_GRID_CSV = {
    "syn_N0016_t0.1_mean_u1.csv": "ab575e346466dc2a",
    "syn_N0016_t0.1_variance.csv": "f7270e8058faf8ab",
    "syn_N0016_t0_mean_u1.csv": "28610328d94740e5",
    "syn_N0016_t0_variance.csv": "cdb694cc315b0d26",
    "syn_N0032_t0.1_mean_u1.csv": "109b628cd56c89f1",
    "syn_N0032_t0.1_variance.csv": "df536e5858676bdf",
    "syn_N0032_t0_mean_u1.csv": "64fb0b408055bd11",
    "syn_N0032_t0_variance.csv": "d41c731f2f87b8fb",
}
GOLDEN_W1 = {
    1: {
        "syn_N0016_t0.1__syn_N0032_t0.1_wass1.csv": "e6dea617538376e0",
        "syn_N0016_t0__syn_N0032_t0_wass1.csv": "a75c21133d119a86",
    },
    2: {
        "syn_N0016_t0.1__syn_N0032_t0.1_wass2.csv": "7049f79723e9c6b7",
        "syn_N0016_t0__syn_N0032_t0_wass2.csv": "dda46e9469c007e1",
    },
}


@pytest.mark.parametrize("k, order", [(1, [0, 1, 2, 3]), (2, [0, 1, 2, 3]),
                                      (1, [0, 1, 3, 2]), (2, [0, 1, 3, 2])],
                         ids=["1", "2", "permuted-1", "permuted-2"])
def test_every_table_keeps_its_bytes(inputs, tmp_path, capsys, monkeypatch, pin_cpus, k, order):
    # At 2 CPUs the W1 reports of the two pairs (one per time) are solved
    # by a pool of two processes; at 1 CPU all runs in this one. In the
    # permuted order the second pair is ready first (its inputs are the
    # first three streamed), so its report must still land under its own name.
    counts = []
    ordered_map = cli.ordered_map
    monkeypatch.setattr(cli, "ordered_map",
                        lambda fn, tasks, workers: counts.append(workers) or ordered_map(fn, tasks, workers))
    out = tmp_path / "out"
    wrote = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        assert main(["diagnose", *(inputs[i] for i in order), *EVERY_TABLE_BUT_W1,
                     "--wasserstein", str(k), "--out", str(out)]) == 0
        if order != sorted(order):
            # the summary lists the inputs in the order given; put back in
            # the natural order, it is GOLDEN's
            summary = out / "summary.csv"
            head, *rows = summary.read_text().splitlines(keepends=True)
            assert [row.split(",")[0] for row in rows] == [cli._stem(inputs[i]) for i in order]
            summary.write_text(head + "".join(row for _, row in sorted(zip(order, rows))))
        assert csv_digests(out) == {**GOLDEN, **GOLDEN_W1[k]}
        wrote.append(capsys.readouterr().out)
        shutil.rmtree(out)
    assert counts == [0, 2]
    assert wrote[0] == wrote[1] and wrote[0].count("wrote ") == len(GOLDEN) + 2


def test_one_group_of_two_pairs_uses_the_pool(tmp_path, capsys, monkeypatch, pin_cpus):
    # N = 8, 16 and 32 at one time: two pairs that share the N = 16 input.
    rng = np.random.default_rng(1357)
    paths = []
    for N in (8, 16, 32):
        paths.append(str(tmp_path / f"one_N{N:04d}_t0.euss"))
        write_snapshot(paths[-1], EnsembleSnapshot(
            time=0.0, N=N, fields=[hermitian_random_field(N, rng) for _ in range(16)],
            sample_seeds=list(range(1, 17)), params=SolverParams(N=N), manifest_hash=N))
    counts = []
    ordered_map = cli.ordered_map
    monkeypatch.setattr(cli, "ordered_map",
                        lambda fn, tasks, workers: counts.append(workers) or ordered_map(fn, tasks, workers))
    digests = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        out = tmp_path / f"out{cpus}"
        assert main(["diagnose", *paths, "--wasserstein", "1", "--out", str(out)]) == 0
        digests.append(csv_digests(out))
    assert counts == [0, 2]
    assert digests[0] == digests[1] and sorted(digests[0]) == [
        "one_N0008_t0__one_N0016_t0_wass1.csv", "one_N0016_t0__one_N0032_t0_wass1.csv"]


def test_time_regularity_is_read_while_the_pool_solves_w1(inputs, tmp_path, capsys, monkeypatch,
                                                         pin_cpus):
    # At 2 CPUs a pool solves the two pairs' W1 while this process reads
    # the time regularity inputs: both resolutions' tables are read before
    # the last W1 report is taken.
    events = []
    real_map, real_regularity = cli.ordered_map, cli._time_regularity

    @contextlib.contextmanager
    def noting_map(fn, tasks, workers):
        with real_map(fn, tasks, workers) as results:
            yield (events.append("report") or result for result in results)

    def noting_regularity(heads, L):
        events.append("regularity")
        return real_regularity(heads, L)

    monkeypatch.setattr(cli, "ordered_map", noting_map)
    monkeypatch.setattr(cli, "_time_regularity", noting_regularity)
    pin_cpus(2)
    assert main(["diagnose", *inputs, "--time-regularity", "2", "--wasserstein", "1",
                 "--out", str(tmp_path)]) == 0
    assert sorted(events) == ["regularity"] * 2 + ["report"] * 2
    assert events[-1] == "report", events


def _csv_rows(path) -> list:
    """The cells of every row after the header, as floats where they parse."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(c) for c in line.split(",")] for line in path.read_text().splitlines()[1:]]


def test_streamed_tables_equal_the_library_on_read_snapshots(inputs, tmp_path, capsys):
    # `diagnose` feeds each sample of the stream to its statistics; the
    # library feeds them the fields of a snapshot read whole. A .17g cell
    # parses back to the double written, so every value must be equal.
    out = tmp_path / "out"
    assert main(["diagnose", *inputs, "--structure", "--spectrum", "0", "--mean-variance",
                 "--wasserstein", "1", "--out", str(out)]) == 0
    snaps = {pathlib.Path(p).stem: read_snapshot(p) for p in inputs}
    for stem, snap in snaps.items():
        for tag, curve in (("structure", structure_function(snap)), ("spectrum", energy_spectrum(snap))):
            assert _csv_rows(out / f"{stem}_{tag}.csv") == [list(row) for row in zip(
                curve.abscissa.tolist(), curve.values.tolist())], (stem, tag)
        with np.load(out / f"{stem}_mean_variance.npz") as npz:
            mean_u1 = sample_at_grid(mean_field(snap), 3 * snap.N)[:, :, 0]
            assert npz["mean_u1"].tobytes() == mean_u1.tobytes(), stem
            assert npz["variance"].tobytes() == variance_field(snap).tobytes(), stem
    for t in ("0", "0.1"):
        a, b = f"syn_N0016_t{t}", f"syn_N0032_t{t}"
        report = marginal_w1(snaps[a], snaps[b], 1)
        expected = [[*coords[0], dist] for coords, dist in report.per_tuple] + [["summary", report.value]]
        assert _csv_rows(out / f"{a}__{b}_wass1.csv") == expected, t


def test_grid_csvs_rebuild_from_the_npz(inputs, tmp_path, capsys):
    # The .npz holds the float64 bits and the header values the grid CSVs
    # held: written back as CSV, each gives the retired digest.
    out = tmp_path / "out"
    assert main(["diagnose", *inputs, "--mean-variance", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(n for n in GOLDEN if n.endswith(".npz"))
    rebuilt = tmp_path / "rebuilt"
    rebuilt.mkdir()
    for name in os.listdir(out):
        with np.load(out / name, allow_pickle=False) as npz:
            assert sorted(npz.files) == ["N", "m", "mean_u1", "time", "variance"]
            time, N, m = npz["time"][()], npz["N"][()], npz["m"][()]
            assert (type(time), type(N), type(m)) == (np.float64, np.int64, np.int64)
            for tag in ("mean_u1", "variance"):
                grid = npz[tag]
                assert grid.dtype == np.float64 and grid.shape == (3 * N, 3 * N)
                write_csv(rebuilt / name.replace("mean_variance.npz", f"{tag}.csv"),
                          (tag, time, N, m), grid)
    assert csv_digests(rebuilt) == RETIRED_GRID_CSV


def test_interrupted_npz_write_leaves_existing_file_intact(inputs, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    args = ["diagnose", *inputs, "--mean-variance", "--out", str(out)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_savez = np.savez

    def savez_first_grid_then_fail(fh, **arrays):
        real_savez(fh, mean_u1=arrays["mean_u1"])
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", savez_first_grid_then_fail)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == "eulerstat: interrupted\n"
    assert not list(out.glob("*.npz.tmp"))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_memory_is_bounded_in_samples_not_in_m(inputs, tmp_path, capsys, pin_cpus):
    # A quarter of the inputs' bytes: one whole snapshot of N = 32 is ~40%.
    # One CPU: tracemalloc sees this process only.
    pin_cpus(1)
    args = ["diagnose", *inputs, *EVERY_TABLE_BUT_W1]
    assert main([*args, "--out", str(tmp_path / "warm")]) == 0    # imports and caches
    tracemalloc.start()
    try:
        assert main([*args, "--out", str(tmp_path / "measured")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(os.path.getsize(p) for p in inputs) / 4


class _CountingReader:
    """A file opened for reading that adds the bytes it returns to a tally."""

    def __init__(self, fh, tally, key):
        self._fh, self._tally, self._key = fh, tally, key

    def read(self, *args):
        data = self._fh.read(*args)
        self._tally[self._key] = self._tally.get(self._key, 0) + len(data)
        return data

    def readinto(self, buffer):
        n = self._fh.readinto(buffer)
        self._tally[self._key] = self._tally.get(self._key, 0) + (n or 0)
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_each_snapshot_is_read_at_most_twice(inputs, tmp_path, capsys, monkeypatch, pin_cpus):
    # One pass feeds every table; time regularity adds one lockstep pass.
    # One CPU: the tally counts the reads of this process only.
    pin_cpus(1)
    tally = {}
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "r" in mode and os.fspath(file).endswith(".euss"):
            return _CountingReader(fh, tally, os.path.realpath(file))
        return fh

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["diagnose", *inputs, *EVERY_TABLE_BUT_W1, "--wasserstein", "1",
                 "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert sorted(tally) == sorted(os.path.realpath(p) for p in inputs)
    for path in inputs:
        assert 0 < tally[os.path.realpath(path)] <= 2 * os.path.getsize(path), path


def test_each_sample_is_dropped_before_the_next_is_read(tmp_path, capsys, monkeypatch):
    # diagnose holds one sample of a stream: when a sample's record is read,
    # no field or grid of the samples before it is alive any more.
    N, m = 8, 3
    rng = np.random.default_rng(11)
    path = str(tmp_path / "syn_N0008_t0.euss")
    write_snapshot(path, EnsembleSnapshot(
        time=0.0, N=N, fields=[hermitian_random_field(N, rng) for _ in range(m)],
        sample_seeds=list(range(1, m + 1)), params=SolverParams(N=N)))
    fed, alive = [], []
    real_open = builtins.open

    class Watching(_CountingReader):
        def read(self, *args):
            alive.append([ref() is not None for ref in fed])
            return self._fh.read(*args)

        def readinto(self, buffer):
            alive.append([ref() is not None for ref in fed])
            return self._fh.readinto(buffer)

    def watching_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Watching(fh, {}, None) if os.fspath(file) == path else fh

    for cls in (RadialPower, GridMoments):
        def add(self, value, real=cls.add):
            fed.append(weakref.ref(value))
            real(self, value)

        monkeypatch.setattr(cls, "add", add)
    monkeypatch.setattr(builtins, "open", watching_open)
    assert main(["diagnose", path, "--structure", "--mean-variance", "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert len(fed) == 2 * m        # a field and a grid per sample
    assert len(alive) == 1 + m      # the header, then each sample
    assert alive == [[False] * len(a) for a in alive]


def _with_nan(path, sample, directory):
    """A copy of the snapshot at path, named alike in directory, whose sample
    (0-based) holds a NaN."""
    raw = bytearray(pathlib.Path(path).read_bytes())
    N = int(os.path.basename(path).split("_N")[1][:4])
    K = 2 * N + 1
    size = 8 + K * K * 2 * 16                       # seed, then the coefficients
    at = 32 + sample * size + 8
    raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    bad = os.path.join(directory, "bad_" + os.path.basename(path)[4:])
    pathlib.Path(bad).write_bytes(bytes(raw))
    return bad


def _assert_fails_cleanly(args, folders, capsys):
    """diagnose args, with and without --out, exits 2, writes nothing to the
    folders and leaves no child process; returns stderr."""
    before = [sorted(os.listdir(d)) for d in folders]
    for out in ([], ["--out", str(os.path.join(folders[0], "diag"))]):
        assert main(["diagnose", *args, *out]) == 2
        assert [sorted(os.listdir(d)) for d in folders] == before
        assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert err.startswith("eulerstat: ") and "Traceback" not in err
    return err


def test_non_finite_sample_mid_stream_exits_2_and_writes_nothing(inputs, tmp_path, capsys, pin_cpus):
    # The last input's (N = 32, t = 0.1) sample 41 (of 64) holds a NaN. It
    # is found in this process, when the first three inputs have been
    # streamed into their statistics and, at 2 CPUs, the first pair's
    # (t = 0) W1 has gone to a worker process.
    bad = _with_nan(inputs[-1], 40, tmp_path)
    for cpus in (1, 2):
        pin_cpus(cpus)
        err = _assert_fails_cleanly([*inputs[:-1], bad, *EVERY_TABLE_BUT_W1, "--wasserstein", "1"],
                                    (str(tmp_path), os.path.dirname(inputs[0])), capsys)
        assert bad in err and "sample 41" in err


def test_the_earliest_failing_input_is_reported(inputs, tmp_path, capsys, pin_cpus):
    # Inputs 2 (N = 16, t = 0.1; second pair) and 3 (N = 32, t = 0; first
    # pair) both hold a NaN; input 2 is named: at 1 and at 2 CPUs this
    # process streams the inputs in order.
    bad = [_with_nan(inputs[1], 60, tmp_path), _with_nan(inputs[2], 3, tmp_path)]
    for cpus in (1, 2):
        pin_cpus(cpus)
        err = _assert_fails_cleanly([inputs[0], *bad, inputs[3], *EVERY_TABLE_BUT_W1, "--wasserstein", "1"],
                                    (str(tmp_path), os.path.dirname(inputs[0])), capsys)
        assert bad[0] in err and "sample 61" in err and bad[1] not in err
