import concurrent.futures
import functools
import multiprocessing
import os
import re
import signal
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import eulerstat.ensemble as ens
import eulerstat.initial as initial
import eulerstat.solver as solver
from eulerstat.cli import main
from eulerstat.ensemble import (
    EnsembleSnapshot,
    RunManifest,
    fnv1a64,
    mean_field,
    read_snapshot,
    run_ensemble,
    variance_field,
    write_csv,
    write_snapshot,
)
from eulerstat.errors import BlowUpError, SnapshotFormatError
from eulerstat.initial import InitialMeasureSpec, generate_sample
from eulerstat.solver import SolverParams, evolve
from eulerstat.spectral import SpectralField, l2_norm, sample_at_grid
from oracles import hermitian_random_field


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched generators reach pool workers only under fork",
)


def blown_up(spec):
    """A field whose first step overflows, so evolve raises BlowUpError."""
    c = np.full((2, 2 * spec.N + 1, 2 * spec.N + 1), 1e300, dtype=complex)
    return SpectralField(spec.N, c)


def small_manifest(N=12, m=3, family="fbm", times=(0.0, 0.05), **spec_kw):
    spec = InitialMeasureSpec(family=family, N=N, base_seed=77, **spec_kw)
    return RunManifest(spec=spec, m=m, output_times=times, solver=SolverParams(N=N))


def run_snapshots(manifest, out, **kw):
    """run_ensemble into directory out; (the snapshots read back, the energy rows)."""
    out.mkdir(exist_ok=True)
    paths = [out / f"t{j:02d}.euss" for j in range(len(manifest.output_times))]
    rows = run_ensemble(manifest, paths, **kw)
    return [read_snapshot(p) for p in paths], rows


def snapshot_of(fields, time=0.0):
    N = fields[0].N
    return EnsembleSnapshot(
        time=time,
        N=N,
        fields=list(fields),
        sample_seeds=list(range(1, len(fields) + 1)),
        params=SolverParams(N=N),
    )


def test_manifest_validation():
    spec = InitialMeasureSpec(family="fbm", N=8, base_seed=0)
    with pytest.raises(ValueError):
        RunManifest(spec=spec, m=0, output_times=(0.0,), solver=SolverParams(N=8))
    with pytest.raises(ValueError):
        RunManifest(spec=spec, m=1, output_times=(0.5, 0.1), solver=SolverParams(N=8))
    with pytest.raises(ValueError):
        RunManifest(spec=spec, m=1, output_times=(0.0,), solver=SolverParams(N=16))


def test_snapshot_validation():
    f = SpectralField.zero(4)
    with pytest.raises(ValueError):
        EnsembleSnapshot(time=0.0, N=4, fields=[], sample_seeds=[], params=SolverParams(N=4))
    with pytest.raises(ValueError):
        EnsembleSnapshot(time=0.0, N=8, fields=[f], sample_seeds=[1], params=SolverParams(N=8))


def test_run_single_sample_time_zero(tmp_path):
    manifest = small_manifest(m=1, times=(0.0,))
    snaps, _ = run_snapshots(manifest, tmp_path)
    assert len(snaps) == 1 and snaps[0].m == 1
    expected = generate_sample(manifest.spec, 1)
    assert np.array_equal(snaps[0].fields[0].coeffs, expected.coeffs)


def test_run_deterministic_across_runs_and_workers(tmp_path):
    manifest = small_manifest(m=4)
    rows = [run_snapshots(manifest, tmp_path / run, workers=workers)[1]
            for run, workers in (("a", 1), ("b", 1), ("c", 2))]
    assert rows[0] == rows[1] == rows[2]
    for name in ("t00.euss", "t01.euss"):
        a, b, c = ((tmp_path / run / name).read_bytes() for run in "abc")
        assert a == b == c


def sheet_manifest():
    return small_manifest(N=12, m=4, family="sinusoidal_sheet", rho=5 / 12, delta=0.003125,
                          quad_points=20)


def test_sinusoidal_sheet_run_deterministic_across_workers(monkeypatch, tmp_path):
    # the base is built anew by each run, in one column block per worker
    manifest = sheet_manifest()
    monkeypatch.setattr(initial, "_last_base", None)
    serial, _ = run_snapshots(manifest, tmp_path / "serial", workers=1)
    for workers in (2, 3):
        monkeypatch.setattr(initial, "_last_base", None)
        pooled, _ = run_snapshots(manifest, tmp_path / f"pooled{workers}", workers=workers)
        for s1, s2 in zip(serial, pooled):
            assert s1.sample_seeds == s2.sample_seeds == [1, 2, 3, 4]
            for f1, f2 in zip(s1.fields, s2.fields):
                assert f1.coeffs.tobytes() == f2.coeffs.tobytes()


@needs_fork
def test_sheet_run_builds_its_base_once_for_all_samples(monkeypatch, tmp_path):
    # From an empty cache, a run builds the base once, in this process
    # (_sheet_vorticity raises in any other); its forked workers find it in
    # the cache they inherit. The run's fields are generate_sample's own.
    manifest = sheet_manifest()
    first = generate_sample(manifest.spec, 1)
    here, calls, real = os.getpid(), [], initial._sheet_vorticity

    def counted(*args):
        if os.getpid() != here:
            raise AssertionError("a worker built the sheet base")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(initial, "_sheet_vorticity", counted)
    for workers in (1, 2):
        monkeypatch.setattr(initial, "_last_base", None)
        calls.clear()
        run_snapshots(manifest, tmp_path / f"w{workers}", workers=workers)
        assert len(calls) == 1, workers
    assert read_snapshot(tmp_path / "w1" / "t00.euss").fields[0].coeffs.tobytes() == first.coeffs.tobytes()
    for name in ("t00.euss", "t01.euss"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_spawned_workers_build_the_sheet_base_to_the_same_bytes(monkeypatch, tmp_path):
    # Spawned workers inherit no cache; each builds the base itself.
    manifest = sheet_manifest()
    run_snapshots(manifest, tmp_path / "fork", workers=2)
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=spawn))
    monkeypatch.setattr(initial, "_last_base", None)
    run_snapshots(manifest, tmp_path / "spawn", workers=2)
    for name in ("t00.euss", "t01.euss"):
        assert (tmp_path / "spawn" / name).read_bytes() == (tmp_path / "fork" / name).read_bytes()


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="needs the forkserver start method")
def test_forkserver_workers_run_to_the_same_bytes(monkeypatch, tmp_path):
    # A fork server, not this process, is the parent of these workers: they
    # must not take it for a sign that this process is gone.
    manifest = small_manifest(m=4)
    run_snapshots(manifest, tmp_path / "fork", workers=2)
    forkserver = multiprocessing.get_context("forkserver")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=forkserver))
    run_snapshots(manifest, tmp_path / "forkserver", workers=2)
    for name in ("t00.euss", "t01.euss"):
        assert (tmp_path / "forkserver" / name).read_bytes() == (tmp_path / "fork" / name).read_bytes()


def test_run_energy_decays_per_sample(tmp_path):
    manifest = small_manifest(N=16, m=3, family="flat_sheet", rho=0.1, delta=0.025,
                              times=(0.0, 0.4))
    snaps, _ = run_snapshots(manifest, tmp_path)
    for f0, f1 in zip(snaps[0].fields, snaps[1].fields):
        assert l2_norm(f1) <= l2_norm(f0) * (1 + 1e-12)


def test_run_records_energy_history(tmp_path):
    manifest = small_manifest(m=2, times=(0.0, 0.02))
    _, energy = run_snapshots(manifest, tmp_path)
    rows = []
    evolve(generate_sample(manifest.spec, 1), 0.02, manifest.solver,
           on_step=lambda t, u, ledger: rows.append((t, ledger.E, ledger.D)))
    assert energy == rows  # sample 1's (t, E, D) rows
    t, e, d = energy[0]
    assert t == 0.0 and d == 0.0 and e > 0


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_failed_sample_policy(monkeypatch, tmp_path, workers):
    manifest = small_manifest(m=3)
    real = generate_sample

    def exploding(spec, i):
        return blown_up(spec) if i == 2 else real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", exploding)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            run_snapshots(manifest, tmp_path / "strict", workers=workers)
        assert err.value.sample_index == 2
        assert list((tmp_path / "strict").iterdir()) == []
        snaps, _ = run_snapshots(manifest, tmp_path / "tolerant", workers=workers,
                                 tolerate_failures=True)
    assert snaps[0].m == 2 and snaps[0].sample_seeds == [1, 3]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_dropped_samples_leave_the_snapshot_of_those_kept(monkeypatch, tmp_path, workers):
    # Samples 1, 3 and 5 of 5 blow up in their first step, after their
    # t = 0 records (finite, 1e300) are in their slots: the records of
    # samples 2 and 4 move down, and each file is cut to two records.
    manifest = small_manifest(m=5)
    full, _ = run_snapshots(manifest, tmp_path / "full")
    real = generate_sample

    def exploding(spec, i):
        return blown_up(spec) if i in (1, 3, 5) else real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", exploding)
    out = tmp_path / "tolerant"
    out.mkdir()
    paths = [out / f"t{j:02d}.euss" for j in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        run_ensemble(manifest, paths, workers=workers, tolerate_failures=True, manifest_hash=99)
    for path, snap in zip(paths, full):
        kept = EnsembleSnapshot(time=snap.time, N=snap.N, fields=[snap.fields[1], snap.fields[3]],
                                sample_seeds=[2, 4], manifest_hash=99)
        write_snapshot(tmp_path / "expected.euss", kept)
        assert path.read_bytes() == (tmp_path / "expected.euss").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["t00.euss", "t01.euss"]


@needs_fork
def test_pooled_run_parent_holds_no_field(tmp_path):
    # Each worker writes its samples' records itself, so no field comes
    # back: the parent's traced peak stays below one field's bytes.
    manifest = small_manifest(N=64, m=8, family="flat_sheet", rho=0.1, delta=0.025,
                              times=(0.0, 0.01))
    paths = [tmp_path / "t00.euss", tmp_path / "t01.euss"]
    run_ensemble(manifest, paths, workers=2)            # imports and caches
    tracemalloc.start()
    try:
        run_ensemble(manifest, paths, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2 * 64 + 1) ** 2 * 16, peak


def test_run_memory_does_not_grow_with_sample_count(tmp_path):
    # Samples go to disk as they are taken: the peak of traced allocations
    # at m = 128 stays within twice that at m = 4 (an ensemble held in
    # memory grows ~20x between them).
    def peak(m):
        manifest = small_manifest(N=16, m=m, times=(0.0, 0.02))
        paths = [tmp_path / f"m{m}_t{j}.euss" for j in range(2)]
        tracemalloc.start()
        try:
            run_ensemble(manifest, paths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # caches (wavenumbers) are filled before measuring
    small, large = peak(4), peak(128)
    assert large < 2 * small, (small, large)


def test_serial_run_drops_each_sample_before_making_the_next(monkeypatch, tmp_path):
    # At one worker, no field of sample i (its final one among them) is
    # alive any more when sample i + 1 is generated.
    real_generate, real_evolve = generate_sample, ens.evolve
    finals, alive = [], []

    def evolve(*args, **kwargs):
        u, ledger = real_evolve(*args, **kwargs)
        finals.append(weakref.ref(u))
        return u, ledger

    def generating(spec, i):
        alive.append([ref() is not None for ref in finals])
        return real_generate(spec, i)

    monkeypatch.setattr(ens, "evolve", evolve)
    monkeypatch.setattr(ens, "generate_sample", generating)
    run_ensemble(small_manifest(m=3), [tmp_path / "t00.euss", tmp_path / "t01.euss"])
    assert alive == [[], [False], [False, False]]


def test_interrupted_run_leaves_no_files(monkeypatch, tmp_path):
    real = generate_sample

    def interrupted(spec, i):
        if i == 3:
            raise KeyboardInterrupt
        return real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_ensemble(small_manifest(m=5), [tmp_path / "t00.euss", tmp_path / "t01.euss"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_finish_leaves_no_files(monkeypatch, tmp_path, workers):
    # The second snapshot's header write fails after the first one's is
    # written: neither file is renamed and no .tmp is left.
    real, calls = ens._finish_snapshot, []

    def failing(fh, *args):
        calls.append(fh.name)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", fh.name)
        return real(fh, *args)

    monkeypatch.setattr(ens, "_finish_snapshot", failing)
    with pytest.raises(OSError) as err:
        run_ensemble(small_manifest(m=4), [tmp_path / "t00.euss", tmp_path / "t01.euss"],
                     workers=workers)
    assert err.value.filename == str(tmp_path / "t01.euss.tmp")
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_run_needs_one_path_per_output_time(tmp_path):
    with pytest.raises(ValueError):
        run_ensemble(small_manifest(m=2), [tmp_path / "t00.euss"])
    assert list(tmp_path.iterdir()) == []


@needs_fork
def test_pooled_blow_up_cancels_queued_samples(monkeypatch, tmp_path):
    m = 40
    manifest = small_manifest(N=16, m=m, family="flat_sheet", rho=0.1, delta=0.025,
                              times=(0.0, 0.4))
    real = generate_sample

    def marking(spec, i):
        (tmp_path / f"started_{i}").touch()
        return blown_up(spec) if i == 1 else real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", marking)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            run_ensemble(manifest, [tmp_path / "t00.euss", tmp_path / "t01.euss"], workers=2)
    assert err.value.sample_index == 1
    assert len(list(tmp_path.glob("started_*"))) < m // 2


@needs_fork
def test_pooled_run_holds_a_bounded_window_of_samples(monkeypatch, tmp_path):
    # Sample 1 is slow: while it runs, the other worker may take only the
    # samples within the window of 2 x workers submitted and not yet read.
    m, workers = 24, 2
    real = generate_sample

    def slow_first(spec, i):
        (tmp_path / f"started_{i}").touch()
        if i == 1:
            time.sleep(1.5)
            (tmp_path / "seen").write_text(str(len(list(tmp_path.glob("started_*")))))
        return real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", slow_first)
    run_ensemble(small_manifest(m=m), [tmp_path / "t00.euss", tmp_path / "t01.euss"], workers=workers)
    assert int((tmp_path / "seen").read_text()) <= 2 * workers
    assert len(list(tmp_path.glob("started_*"))) == m


@pytest.mark.parametrize("m, workers, pool", [(3, 64, 3), (1, 64, None), (3, 2, 2)])
def test_pool_size_capped_at_sample_count(monkeypatch, tmp_path, m, workers, pool):
    created = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size, runs each task
        in-process as it is submitted."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            created.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    snaps, _ = run_snapshots(small_manifest(m=m, times=(0.0,)), tmp_path, workers=workers)
    assert created == ([] if pool is None else [pool])
    assert snaps[0].sample_seeds == list(range(1, m + 1))


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="reads the signal mask")
@pytest.mark.parametrize("workers", [0, 2])
def test_ordered_map_makes_tasks_with_interrupts_unblocked(workers):
    # A task may be made by a stream (diagnose reads its inputs while the
    # pool runs), so a signal must interrupt the making of a task, not wait.
    masks = []

    def tasks():
        for i in range(6):
            masks.append(signal.pthread_sigmask(signal.SIG_BLOCK, []))
            yield -i

    with ens.ordered_map(abs, tasks(), workers) as results:
        assert list(results) == list(range(6))
    assert len(masks) == 6
    assert not [mask for mask in masks if mask & {signal.SIGINT, signal.SIGTERM}]


@pytest.mark.parametrize("cpus, workers, threads", [(2, 2, 1), (2, 1, 2), (4, 2, 2), (1, 3, 1)])
def test_solver_threads_share_the_cpus(monkeypatch, cpus, workers, threads):
    monkeypatch.setattr(ens.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert ens._solver_threads(workers) == threads


SPLIT_CONFIG = """\
[experiment]
name = split
base_seed = 7
output_dir = out

[initial]
family = flat_sheet
rho = 0.1
delta = 0.025

[run]
resolutions = 16 24
samples = 3
output_times = 0 0.05 0.1
"""


def test_cli_run_bytes_do_not_depend_on_the_slab_split(monkeypatch, tmp_path):
    # `run --workers 1` on 2 CPUs evolves with 2 threads; with the split
    # forced onto these small grids every file is the bytes of one slab.
    monkeypatch.setattr(ens.os, "sched_getaffinity", lambda pid: {0, 1})
    threads = []
    monkeypatch.setattr(ens, "evolve", lambda *a, **kw: threads.append(kw["threads"]) or evolve(*a, **kw))
    outputs = {}
    for split in (False, True):
        run_dir = tmp_path / str(split)
        run_dir.mkdir()
        (run_dir / "split.cfg").write_text(SPLIT_CONFIG)
        monkeypatch.chdir(run_dir)
        monkeypatch.setattr(solver, "_SLAB_MIN_GRID", 0 if split else 10**9)
        assert main(["run", "split.cfg", "--workers", "1"]) == 0
        outputs[split] = {p.name: p.read_bytes() for p in sorted((run_dir / "out").iterdir())}
    assert threads == [2] * 12  # two runs, two resolutions, three samples
    names = sorted(outputs[False])
    assert [n for n in names if n.endswith(".euss")] and [n for n in names if n.endswith(".manifest")]
    assert [n for n in names if n.endswith("_energy.csv")]
    assert outputs[True] == outputs[False]


def test_mean_field_cases():
    rng = np.random.default_rng(0)
    u = hermitian_random_field(8, rng)
    assert np.array_equal(mean_field(snapshot_of([u])).coeffs, u.coeffs)
    neg = SpectralField(8, -u.coeffs)
    assert np.abs(mean_field(snapshot_of([u, neg])).coeffs).max() == 0.0
    same = mean_field(snapshot_of([u, u, u]))
    assert np.abs(same.coeffs - u.coeffs).max() < 1e-15


def test_variance_field_cases():
    rng = np.random.default_rng(1)
    u = hermitian_random_field(8, rng)
    assert np.abs(variance_field(snapshot_of([u]))).max() < 1e-12
    neg = SpectralField(8, -u.coeffs)
    var = variance_field(snapshot_of([u, neg]))
    g = sample_at_grid(u, 24)
    assert np.abs(var - np.sum(g * g, axis=2)).max() < 1e-10
    v = hermitian_random_field(8, rng)
    assert np.abs(
        variance_field(snapshot_of([u, v])) - variance_field(snapshot_of([v, u]))
    ).max() < 1e-12


def test_grid_moments_add_makes_no_full_grid_temporary():
    # s2 takes grid * grid a block of rows at a time, with the bits of the
    # whole-grid expression
    M = 384
    rng = np.random.default_rng(4)
    grids = [rng.standard_normal((2, M, M)).transpose(1, 2, 0) for _ in range(3)]
    acc = ens.GridMoments(M)
    tracemalloc.start()
    try:
        acc.add(grids[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grids[0].nbytes / 4
    for grid in grids[1:]:
        acc.add(grid)
    assert np.array_equal(acc.s1, grids[0] + grids[1] + grids[2])
    assert np.array_equal(acc.s2, grids[0] * grids[0] + grids[1] * grids[1] + grids[2] * grids[2])


def test_read_back_fields_wrap_their_records(tmp_path):
    # iter_snapshot reads each record into memory of its own and wraps it:
    # the coefficients have a snapshot record's strides, and reading a
    # sample allocates one record, not a record and a copy.
    N = 32
    K = 2 * N + 1
    rng = np.random.default_rng(3)
    path = tmp_path / "r.euss"
    write_snapshot(path, snapshot_of([hermitian_random_field(N, rng) for _ in range(2)]))
    stream = ens.iter_snapshot(ens.read_snapshot_header(path))
    tracemalloc.start()
    try:
        _, field = next(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stream.close()
    record = 8 + K * K * 2 * 16
    assert record <= peak < 1.5 * record
    assert field.coeffs.strides == np.empty((K, K, 2), dtype=complex).transpose(2, 0, 1).strides
    assert field.coeffs.flags.aligned


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    fields = [hermitian_random_field(6, rng) for _ in range(3)]
    snap = EnsembleSnapshot(
        time=0.375, N=6, fields=fields, sample_seeds=[1, 2, 3],
        params=SolverParams(N=6), manifest_hash=fnv1a64(b"manifest"),
    )
    path = tmp_path / "snap.euss"
    write_snapshot(path, snap)
    back = read_snapshot(path)
    assert back.time == snap.time and back.N == snap.N and back.m == snap.m
    assert back.manifest_hash == snap.manifest_hash
    assert back.sample_seeds == snap.sample_seeds
    for f1, f2 in zip(snap.fields, back.fields):
        assert np.array_equal(f1.coeffs, f2.coeffs)


def test_read_snapshot_makes_up_no_solver_params(tmp_path):
    # a snapshot file holds no solver parameters, so none are read back
    path = tmp_path / "p.euss"
    write_snapshot(path, snapshot_of([SpectralField.zero(4)]))
    assert read_snapshot(path).params is None


def test_snapshot_layout(tmp_path):
    # header is 32 bytes; per sample: 8-byte seed + (2N+1)^2 * 2 * 16 bytes
    N, m = 4, 2
    fields = [SpectralField.zero(N) for _ in range(m)]
    snap = snapshot_of(fields)
    path = tmp_path / "z.euss"
    write_snapshot(path, snap)
    K = 2 * N + 1
    assert path.stat().st_size == 32 + m * (8 + K * K * 2 * 16)
    raw = path.read_bytes()
    assert raw[:4] == b"EUSS"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == N
    assert int.from_bytes(raw[12:16], "little") == m


def test_snapshot_component_order(tmp_path):
    # coefficients are written k1-major, k2 inner, components innermost
    N = 1
    c = np.zeros((2, 3, 3), dtype=complex)
    c[0, 2, 1] = 1.0 + 2.0j   # component 1, k = (1, 0)
    c[1, 2, 1] = 3.0 - 4.0j   # component 2, same k
    snap = snapshot_of([SpectralField(N, c)])
    path = tmp_path / "o.euss"
    write_snapshot(path, snap)
    body = np.frombuffer(path.read_bytes()[40:], dtype="<f8").reshape(3, 3, 2, 2)
    assert body[2, 1, 0, 0] == 1.0 and body[2, 1, 0, 1] == 2.0
    assert body[2, 1, 1, 0] == 3.0 and body[2, 1, 1, 1] == -4.0


def test_failed_write_leaves_existing_snapshot_intact(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "snap.euss"
    write_snapshot(path, snapshot_of([hermitian_random_field(4, rng)]))
    before = path.read_bytes()
    bad = snapshot_of([hermitian_random_field(4, rng) for _ in range(2)])
    bad.sample_seeds[1] = -1  # not packable as u64
    with pytest.raises(struct.error):
        write_snapshot(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snap.euss"]


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("kind", 0.1, 8, None), [(1, np.float64(1 / 3), "x"), (2.0, float("nan"))])
    assert path.read_text() == "# kind,0.10000000000000001,8,None\n1,0.33333333333333331,x\n2,nan\n"


def test_write_csv_matches_per_cell_format(tmp_path):
    # One '%' format per line against format(c, ".17g") / str(c) cell by cell,
    # on a grid of signed zeros, infinities, nan and extreme exponents, a
    # float32 row, rows mixing ints and strings, and a mixed header.
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e-300, 2.5e-308, 5e-324])
    grid = rng.standard_normal((24, 24)) * 10.0 ** rng.integers(-300, 301, (24, 24))
    grid.flat[rng.choice(grid.size, 100, replace=False)] = rng.choice(specials, 100)
    header = ("variance", 0.1, 8, -0.0, None)
    single = np.array([0.1, -0.0, np.inf, np.nan, 1e-40, 3.0], dtype=np.float32)   # cells are not float
    rows = [*grid, single, (3, "x", -7, 1.5, np.float64(-0.0)), ("summary", np.inf), (np.int64(2), "nan")]
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)

    def line(cells):
        return ",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in cells) + "\n"

    expected = "# " + line(header) + "".join(map(line, rows))
    assert path.read_text() == expected
    assert "-0," in expected and "inf" in expected and "nan" in expected and "e+300" in expected


def test_interrupted_csv_write_leaves_existing_file_intact(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("kind",), [(1.0,)])
    before = path.read_bytes()

    def rows():
        yield (2.0,)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_csv(path, ("kind",), rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.euss"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def _damaged_copies(tmp_path):
    rng = np.random.default_rng(3)
    snap = snapshot_of([hermitian_random_field(4, rng) for _ in range(2)])
    good = tmp_path / "good.euss"
    write_snapshot(good, snap)
    raw = good.read_bytes()
    nan = np.array([np.nan], dtype="<f8").tobytes()
    nan_body = bytearray(raw)
    nan_body[48:56] = nan  # first sample, first real part
    return {
        "bad_version": raw[:4] + struct.pack("<I", 2) + raw[8:],
        "non_finite_time": raw[:16] + nan + raw[24:],
        "short": raw[:4],
        "header_only": raw[:32],
        "no_samples": raw[:12] + struct.pack("<I", 0) + raw[16:32],
        "cut_in_seed": raw[:36],
        "cut_in_body": raw[:-8],
        "extended": raw + b"\x00",
        "non_finite": bytes(nan_body),
    }


@pytest.mark.parametrize(
    "kind",
    ["bad_version", "non_finite_time", "short", "header_only", "no_samples", "cut_in_seed",
     "cut_in_body", "extended", "non_finite"],
)
def test_read_rejects_damaged_file(tmp_path, kind):
    path = tmp_path / f"{kind}.euss"
    path.write_bytes(_damaged_copies(tmp_path)[kind])
    with pytest.raises(SnapshotFormatError, match=re.escape(str(path))):
        read_snapshot(path)


def test_fnv1a64_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
