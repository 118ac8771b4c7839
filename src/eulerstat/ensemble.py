"""Monte Carlo ensembles: generate, evolve, snapshot.

An ensemble run draws m i.i.d. samples from an initial-data family,
evolves each independently with the spectral hyper-viscosity scheme and
writes its fields at the output times to one snapshot file per time: the
process that evolves sample i writes each field, as it is taken, into the
record slot i of that snapshot's .tmp file. A snapshot of m fields at time
t represents the empirical measure (1/m) sum_i delta_{u_i(t)}.

Samples are deterministic in (base_seed, sample_index) alone, so results
are bit-identical regardless of worker count or scheduling.

Snapshot files use a fixed little-endian binary layout (magic "EUSS"):

    magic:4s  version:u32  N:u32  m:u32  time:f64  manifest_hash:u64
    then per sample: seed:u64, coefficients for k1 = -N..N (outer),
    k2 = -N..N (inner), components 1 then 2, each a little-endian complex128
    (f64 real, f64 imag).

A file is read as a stream: read_snapshot_header checks the header and the
file length, and iter_snapshot then yields one sample at a time, so a
reader holds one sample of a file, not m. read_snapshot collects the stream.
The ensemble statistics are accumulators fed one sample at a time, by feed
alone: CoefficientSum and GridMoments here, RadialPower (diagnostics) and
TupleValues (transport). mean_field and variance_field feed them a
snapshot's fields; `diagnose` feeds them the stream of iter_snapshot.

Every file the command line writes goes through atomic_open, which writes
path + ".tmp" and renames it into place: the snapshots of a run by
run_ensemble, its CSV tables through write_csv.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import math
import os
import signal
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ShapeError, SnapshotFormatError
from .initial import InitialMeasureSpec, generate_sample, sample_base
from .solver import _CHUNK_ROWS, SolverParams, evolve
from .spectral import SpectralField, sample_at_grid, synthesis_grid

__all__ = [
    "RunManifest",
    "EnsembleSnapshot",
    "SnapshotHeader",
    "same_time",
    "run_ensemble",
    "CoefficientSum",
    "GridMoments",
    "feed",
    "mean_field",
    "variance_field",
    "check_finite",
    "write_snapshot",
    "read_snapshot_header",
    "iter_snapshot",
    "read_snapshot",
    "fnv1a64",
    "atomic_open",
    "write_csv",
]

FORMAT_VERSION = 1
_MAGIC = b"EUSS"
_HEADER = struct.Struct("<4sIIIdQ")
_SEED = struct.Struct("<Q")
_COEFF = np.dtype("<c16")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, used to fingerprint manifests in snapshot files."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one ensemble run at one resolution."""

    spec: InitialMeasureSpec
    m: int
    output_times: tuple
    solver: SolverParams

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        times = tuple(float(t) for t in self.output_times)
        if not times:
            raise ValueError("at least one output time is required")
        if times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("output_times must be strictly increasing and nonnegative")
        object.__setattr__(self, "output_times", times)
        if self.spec.N != self.solver.N:
            raise ValueError("initial-data spec and solver disagree on N")


@dataclass
class EnsembleSnapshot:
    """All sample fields at one time: the empirical measure with weights 1/m.

    params are the solver parameters the fields came from, or None where
    they are not known (a snapshot file holds none).
    """

    time: float
    N: int
    fields: list
    sample_seeds: list
    params: SolverParams | None = None
    manifest_hash: int = 0

    def __post_init__(self):
        if len(self.fields) < 1:
            raise ValueError("a snapshot needs at least one sample")
        if len(self.fields) != len(self.sample_seeds):
            raise ValueError("one seed record per sample is required")
        for f in self.fields:
            if f.N != self.N:
                raise ShapeError(f"sample resolution {f.N} != snapshot resolution {self.N}")

    @property
    def m(self) -> int:
        return len(self.fields)


def same_time(ta: float, tb: float) -> bool:
    """Whether two snapshot times are one output time: within 1e-12 relative to max(1, |ta|)."""
    return abs(ta - tb) <= 1e-12 * max(1.0, abs(ta))


def _evolve_one(task):
    """Evolve one sample, writing the record of each output field into its
    snapshot's .tmp file, at the sample's slot, as on_step takes it; return
    (index, (t, E, D) per step) or the sample's BlowUpError. No field is
    kept here, u0 among them."""
    spec, solver, sample_index, output_times, threads, tmps = task
    offset = _HEADER.size + (sample_index - 1) * _sample_bytes(spec.N)
    tmp_at = dict(zip(output_times, tmps))
    rows = []

    def on_step(t, u, ledger):
        rows.append((t, ledger.E, ledger.D))
        if t in tmp_at:
            with io.BufferedRandom(_NamedFile(tmp_at[t], "r+")) as fh:   # not truncated
                fh.seek(offset)
                _write_record(fh, sample_index, u)

    try:
        evolve(generate_sample(spec, sample_index), output_times[-1], solver, output_times, on_step,
               threads=threads)
    except BlowUpError as err:
        return BlowUpError(str(err), time=err.time, sample_index=sample_index)
    return sample_index, rows


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _solver_threads(workers: int) -> int:
    """Threads per sample when workers processes share this process's CPUs:
    cpus // workers, at least one."""
    return max(1, usable_cpus() // workers)


_INTERRUPTS = {signal.SIGINT, signal.SIGTERM}
_PR_SET_PDEATHSIG = 1     # from linux/prctl.h


def _exited(pid: int) -> bool:
    """Whether process pid has exited: no /proc entry, or a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] in (b"Z", b"X")
    except (FileNotFoundError, ProcessLookupError):
        return True


def _start_worker(parent: int) -> None:
    """A pool worker leaves SIGINT to its parent, dies of SIGTERM, and takes
    both from here on (_interrupts_held blocked them).

    On Linux it also gets SIGTERM when its parent process dies, and exits at
    once if parent, the pid of the process that started the pool, is gone
    already: a worker outliving a killed `run` would go on writing into .tmp
    files that nothing removes. A worker whose parent is a fork server (the
    forkserver start method) dies with the server, which exits with parent.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if sys.platform == "linux":
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
        if os.getppid() != parent and _exited(parent):
            os._exit(1)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _INTERRUPTS)


@contextlib.contextmanager
def _interrupts_held():
    """SIGINT and SIGTERM held back in this thread for the with block: a pool
    starting its workers in it is not interrupted half-way, and each worker
    starts with them blocked until _start_worker has set them up."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    held = signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


@contextlib.contextmanager
def ordered_map(fn, tasks, workers: int):
    """Yields fn(task) for each task, in task order: in this process for 0
    workers, else on `workers` processes, with at most 2 x workers tasks
    submitted and not yet read; a lost worker raises ChildProcessError (an
    OSError), and the workers die with this process (_start_worker). Leaving
    the block, also by an exception, cancels queued tasks, waits for running
    ones."""
    if workers < 1:
        yield map(fn, tasks)
        return
    # imported here, so that a process that starts no pool never imports multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tasks, queued = iter(tasks), collections.deque()
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                               initargs=(os.getpid(),))

    def submit(n):
        # interrupts are held for the submit only: making a task may be long work
        for task in itertools.islice(tasks, n):
            with _interrupts_held():
                queued.append(pool.submit(fn, task))

    def results():
        while queued:
            yield queued.popleft().result()
            submit(1)

    try:
        submit(2 * workers)
        yield results()
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a worker process was lost: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def first_here(fn, parts) -> list:
    """[fn(part) for part in parts]: the first part in this process, each other
    one in a process of its own, from a pool that lives for the call."""
    with ordered_map(fn, parts[1:], len(parts) - 1) as rest:
        return [fn(parts[0]), *rest]


def run_ensemble(manifest: RunManifest, paths, workers: int = 1, tolerate_failures: bool = False,
                 manifest_hash: int = 0):
    """Run the ensemble into one snapshot file per output time; return the
    per-step (t, E, D) rows of the first sample kept.

    paths[j] receives the snapshot at manifest.output_times[j]. Samples are
    indexed 1..m and evolved in this process, or in a pool of
    min(workers, m) processes (ordered_map). Whichever process evolves
    sample i writes the record of each of its output fields into that
    snapshot's .tmp file, at slot i, as soon as it is taken
    (_evolve_one), so no field comes back here. Whatever m is, an evolving
    process holds one field of its sample beside the solver's arrays
    (solver._Slabs), and the parent of a pool holds none. What every sample
    shares (initial.sample_base) is built first, in one column block per
    worker (first_here), into initial's cache, which the pool's forked
    workers inherit (under spawn or forkserver each builds it once: same
    bytes, more CPU). Each path is opened by atomic_open before the pool
    starts and closed after it has shut down, so on any exception no file
    of paths is written and no .tmp is left. Each header goes in last
    (_finish_snapshot), with the count of samples kept, before any file is
    renamed. With tolerate_failures, samples whose trajectories blow up are
    dropped: the records after each one move down a slot and the file is
    cut to its new length. Otherwise the first failure raises its
    BlowUpError, carrying the sample index, and cancels the samples still
    queued. Each evolve splits the steps of large grids over cpus // workers
    threads (_solver_threads, solver.evolve); no byte of the output depends
    on either split.
    """
    if len(paths) != len(manifest.output_times):
        raise ValueError(f"{len(manifest.output_times)} output times, but {len(paths)} paths")
    workers = min(workers, manifest.m)
    threads = _solver_threads(workers)
    kept, energy_rows = [], None
    sample_base(manifest.spec, workers, first_here)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(atomic_open(path, "wb")) for path in paths]
        names = [fh.name for fh in files]
        tasks = [
            (manifest.spec, manifest.solver, i, manifest.output_times, threads, names)
            for i in range(1, manifest.m + 1)
        ]
        with ordered_map(_evolve_one, tasks, workers if workers > 1 else 0) as outcomes:
            for outcome in outcomes:
                if isinstance(outcome, BlowUpError):
                    if not tolerate_failures:
                        raise outcome
                    continue
                i, rows = outcome
                kept.append(i)
                if energy_rows is None:
                    energy_rows = rows
        if not kept:
            raise BlowUpError("all samples failed", sample_index=None)
        for fh, t in zip(files, manifest.output_times):
            _finish_snapshot(fh, manifest.spec.N, manifest.m, kept, t, manifest_hash)
    return energy_rows


class CoefficientSum:
    """Coefficient-wise sum of the N-mode sample fields fed to add, in order."""

    grid_points = None      # feed adds the fields themselves

    def __init__(self, N: int):
        self.N = N
        self.total = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=np.complex128)
        self.count = 0

    def add(self, field: SpectralField) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            self.total += field.coeffs
        self.count += 1

    def mean(self) -> SpectralField:
        """The coefficient-wise mean (equals the pointwise mean field)."""
        return SpectralField._wrap(self.N, self.total / self.count)


def mean_field(snapshot: EnsembleSnapshot) -> SpectralField:
    """Coefficient-wise ensemble mean (equals the pointwise mean field)."""
    acc = CoefficientSum(snapshot.N)
    feed(snapshot.fields, [acc])
    return acc.mean()


def check_finite(values, what: str, snapshot) -> None:
    """Raise ValueError naming what and the snapshot (or its header) unless
    every value is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"non-finite {what} at N={snapshot.N}, t={snapshot.time:g}: "
            "the coefficients are too large"
        )


class GridMoments:
    """Pointwise sums of the (M, M, 2) sample grids fed to add, in order, and
    of their squares."""

    def __init__(self, M: int):
        self.grid_points = M
        self.s1 = np.zeros((M, M, 2))
        self.s2 = np.zeros((M, M, 2))
        self.count = 0

    def add(self, grid: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            self.s1 += grid
            for i in range(0, self.grid_points, _CHUNK_ROWS):   # no full-grid temporary
                rows = grid[i : i + _CHUNK_ROWS]
                self.s2[i : i + _CHUNK_ROWS] += rows * rows
        self.count += 1

    def variance(self) -> np.ndarray:
        """Pointwise population variance, summed over components; overflow is
        left to the caller to check (check_finite).

        It is finished in place, in s1 and s2, so it is taken once, after
        the last add: max(s2/m - (s1/m)^2, 0), one operation at a time.
        """
        s1, s2 = self.s1, self.s2
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(s1, self.count, out=s1)
            np.multiply(s1, s1, out=s1)
            np.divide(s2, self.count, out=s2)
            np.subtract(s2, s1, out=s2)
            np.maximum(s2, 0.0, out=s2)
            return s2.sum(axis=2)


def variance_field(snapshot: EnsembleSnapshot, grid_points: int | None = None) -> np.ndarray:
    """Pointwise population variance across samples, summed over components.

    Returns an (M, M) grid, M defaulting to synthesis_grid(N) = 3N; raises
    ValueError if a value is not finite.
    """
    M = synthesis_grid(snapshot.N) if grid_points is None else int(grid_points)
    acc = GridMoments(M)
    feed(snapshot.fields, [acc])
    var = acc.variance()
    check_finite(var, "variance", snapshot)
    return var


def feed(fields, stats) -> None:
    """Feed each sample field of fields, in order, to every statistic of stats:
    the field itself if its grid_points is None, else the field's (M, M, 2)
    grid for M = grid_points, synthesized once per sample and M with overflow
    left to the statistic to report. With no stats, fields is not iterated."""
    if not stats:
        return
    sizes = {}              # grid_points -> the statistics fed at it, in order
    for stat in stats:
        sizes.setdefault(stat.grid_points, []).append(stat)
    for field in fields:
        for M, fed in sizes.items():
            with np.errstate(over="ignore", invalid="ignore"):
                value = field if M is None else sample_at_grid(field, M)
            for stat in fed:
                stat.add(value)
            del value
        del field           # gone before the next sample is read


class _NamedFile(io.FileIO):
    """A file whose failed writes raise an OSError that names it."""

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.name) from None


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open path + ".tmp", the handle's name, for writing ("w" text, "wb"
    binary, which also reads back); rename it onto path at the end, or
    remove it on error. A failed write names the .tmp file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        buf = io.BufferedRandom(_NamedFile(tmp, "w+"))
        with (buf if "b" in mode else io.TextIOWrapper(buf, encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """CSV via atomic_open: '# ' + header cells, then one line per row.

    Cells are joined by ','; float cells are written .17g, others with str().
    Each line is one '%' format, the same bytes as formatting cell by cell.
    """
    def line(cells):
        return ",".join("%.17g" if isinstance(c, float) else "%s" for c in cells) % tuple(cells) + "\n"

    with atomic_open(path) as fh:
        fh.write("# " + line(header))
        fh.writelines(map(line, rows))


def _write_record(fh, seed, field: SpectralField) -> None:
    """Write one sample record at fh's position: the seed, then the
    coefficients straight from the field's memory when they are in record
    order (as every evolved or generated field's are), else from a copy."""
    fh.write(_SEED.pack(int(seed)))
    fh.write(np.ascontiguousarray(field.coeffs.transpose(1, 2, 0), dtype=_COEFF))


def _finish_snapshot(fh, N: int, m: int, kept, time: float, manifest_hash: int) -> None:
    """Complete the snapshot in the binary file fh, whose slot i holds the
    record of sample i of 1..m: if a sample was dropped, move the records
    of the samples kept (indices, increasing) down to the first len(kept)
    slots and cut the file there; then write the header and flush it."""
    size = _sample_bytes(N)
    if len(kept) < m:
        record = bytearray(size)
        for slot, i in enumerate(kept):
            if i != slot + 1:
                fh.seek(_HEADER.size + (i - 1) * size)
                fh.readinto(record)
                fh.seek(_HEADER.size + slot * size)
                fh.write(record)
        fh.truncate(snapshot_bytes(N, len(kept)))
    fh.seek(0)
    fh.write(_HEADER.pack(_MAGIC, FORMAT_VERSION, N, len(kept), float(time), manifest_hash))
    fh.flush()


def write_snapshot(path, snapshot: EnsembleSnapshot) -> None:
    """Serialize a snapshot in the EUSS binary layout (bit-exact round trip), atomically."""
    with atomic_open(path, "wb") as fh:
        fh.seek(_HEADER.size)
        for seed, field in zip(snapshot.sample_seeds, snapshot.fields):
            _write_record(fh, seed, field)
        _finish_snapshot(fh, snapshot.N, snapshot.m, range(1, snapshot.m + 1), snapshot.time,
                         snapshot.manifest_hash)


@dataclass(frozen=True)
class SnapshotHeader:
    """The header of a snapshot file whose length matches it."""

    path: str
    N: int
    m: int
    time: float
    manifest_hash: int


def _sample_bytes(N: int) -> int:
    """Bytes of one sample record: the seed, then the coefficients."""
    K = 2 * N + 1
    return _SEED.size + K * K * 2 * _COEFF.itemsize


def snapshot_bytes(N: int, m: int) -> int:
    """Bytes of a snapshot file of m samples at resolution N."""
    return _HEADER.size + m * _sample_bytes(N)


def _check_length(fh, path, N: int, m: int) -> None:
    size = os.fstat(fh.fileno()).st_size
    expected = snapshot_bytes(N, m)
    if size != expected:
        raise SnapshotFormatError(
            f"{path}: {size} bytes, but its header (N={N}, m={m}) implies {expected}"
        )


def read_snapshot_header(path) -> SnapshotHeader:
    """Read and check the header of a snapshot written by write_snapshot.

    Raises SnapshotFormatError (a ValueError) naming the path for bad magic
    or version, a non-finite time, N < 1, no samples, or a length other than
    the header implies. Samples are checked as iter_snapshot reads them.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SnapshotFormatError(f"{path}: truncated snapshot header ({len(header)} bytes)")
        magic, version, N, m, time, manifest_hash = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise SnapshotFormatError(f"{path}: not a snapshot file (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise SnapshotFormatError(f"{path}: format_version {version} unsupported")
        if not math.isfinite(time):
            raise SnapshotFormatError(f"{path}: non-finite time {time!r}")
        _check_length(fh, path, N, m)
        if m < 1:
            raise SnapshotFormatError(f"{path}: a snapshot needs at least one sample")
        if N < 1:
            raise SnapshotFormatError(f"{path}: resolution N={N}, but a snapshot needs N >= 1")
    return SnapshotHeader(path=path, N=N, m=m, time=time, manifest_hash=manifest_hash)


def iter_snapshot(header: SnapshotHeader):
    """Yield (seed, SpectralField) for each sample of the file, in file order.

    One sample is read at a time. Raises SnapshotFormatError naming the path
    (and the seed) for a non-finite sample, or if the file's length no
    longer matches its header.
    """
    N, path = header.N, header.path
    K = 2 * N + 1
    size = _sample_bytes(N)
    with open(path, "rb") as fh:
        _check_length(fh, path, N, header.m)
        fh.seek(_HEADER.size)
        for _ in range(header.m):
            record = bytearray(size)        # the field's own memory, in record layout
            if fh.readinto(record) < size:
                raise SnapshotFormatError(f"{path}: truncated while it was read")
            (seed,) = _SEED.unpack_from(record)
            raw = np.frombuffer(record, dtype=_COEFF, offset=_SEED.size).reshape(K, K, 2)
            if not np.all(np.isfinite(raw)):
                raise SnapshotFormatError(f"{path}: non-finite coefficients in sample {seed}")
            field = SpectralField._wrap(N, raw.transpose(2, 0, 1))
            del record, raw                 # hold one sample while suspended
            yield seed, field
            del field                       # and none while the next is read


def read_snapshot(path) -> EnsembleSnapshot:
    """Read a snapshot written by write_snapshot: its header, then every sample.

    Raises SnapshotFormatError (a ValueError) naming the path for a file
    that is not a complete, finite snapshot: bad magic or version, a length
    other than the header implies, or non-finite values.
    """
    header = read_snapshot_header(path)
    seeds, fields = [], []
    for seed, field in iter_snapshot(header):
        seeds.append(seed)
        fields.append(field)
    return EnsembleSnapshot(
        time=header.time,
        N=header.N,
        fields=fields,
        sample_seeds=seeds,
        manifest_hash=header.manifest_hash,
    )
