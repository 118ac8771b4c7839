"""Monte Carlo ensembles: generate, evolve, snapshot.

An ensemble run draws m i.i.d. samples from an initial-data family,
evolves each independently with the spectral hyper-viscosity scheme and
writes its fields at the output times to one snapshot file per time as it is
taken. A snapshot of m fields at time t represents the empirical measure
(1/m) sum_i delta_{u_i(t)}.

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
The ensemble statistics here are accumulators fed one sample at a time
(CoefficientSum, GridMoments); mean_field and variance_field feed them from
a snapshot's fields.

Every file the command line writes goes through atomic_open (written to
path + ".tmp", then renamed into place); its CSV tables through write_csv.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ShapeError, SnapshotFormatError
from .initial import InitialMeasureSpec, generate_sample
from .solver import SolverParams, evolve
from .spectral import SpectralField, sample_at_grid, synthesis_grid

__all__ = [
    "RunManifest",
    "EnsembleSnapshot",
    "SnapshotHeader",
    "same_time",
    "run_ensemble",
    "CoefficientSum",
    "GridMoments",
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
    """All sample fields at one time: the empirical measure with weights 1/m."""

    time: float
    N: int
    fields: list
    sample_seeds: list
    params: SolverParams
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
    """Evolve one sample; return (index, output fields, (t, E, D) per step) or its BlowUpError."""
    spec, solver, sample_index, output_times, threads = task
    u0 = generate_sample(spec, sample_index)
    fields, rows = [], []

    def on_step(t, u, ledger):
        rows.append((t, ledger.E, ledger.D))
        if t in output_times:
            fields.append(u)

    try:
        evolve(u0, output_times[-1], solver, output_times, on_step, threads=threads)
    except BlowUpError as err:
        return BlowUpError(str(err), time=err.time, sample_index=sample_index)
    return sample_index, fields, rows


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _solver_threads(workers: int) -> int:
    """Threads per sample when workers processes share this process's CPUs:
    cpus // workers, at least one."""
    return max(1, usable_cpus() // workers)


def run_ensemble(manifest: RunManifest, paths, workers: int = 1, tolerate_failures: bool = False,
                 manifest_hash: int = 0):
    """Run the ensemble into one snapshot file per output time; return the
    per-step (t, E, D) rows of the first sample kept.

    paths[j] receives the snapshot at manifest.output_times[j]. Samples are
    indexed 1..m and evolved in this process, or in a pool of
    min(workers, m) processes; each is written as it is taken, in sample
    order, so the run holds one sample's fields plus the results the pool
    finished ahead of the next sample in order. With tolerate_failures,
    samples whose trajectories blow up are dropped (the header's m counts
    the samples written); otherwise the first failure raises its
    BlowUpError, carrying the sample index, and cancels the samples still
    queued. On any exception no file of paths is written and no .tmp is left.
    Each evolve splits the steps of large grids over cpus // workers threads
    (_solver_threads, solver.evolve); no byte of the output depends on it.
    """
    workers = min(workers, manifest.m)
    threads = _solver_threads(workers)
    tasks = [
        (manifest.spec, manifest.solver, i, manifest.output_times, threads)
        for i in range(1, manifest.m + 1)
    ]
    pool = None
    if workers > 1:
        # imported here, so that a process that starts no pool never imports multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    energy_rows = None
    try:
        with contextlib.ExitStack() as stack:
            writers = [stack.enter_context(_snapshot_writer(path, manifest.spec.N, t, manifest_hash))
                       for path, t in zip(paths, manifest.output_times, strict=True)]
            outcomes = pool.map(_evolve_one, tasks) if pool else map(_evolve_one, tasks)
            for outcome in outcomes:
                if isinstance(outcome, BlowUpError):
                    if not tolerate_failures:
                        raise outcome
                    continue
                i, fields, rows = outcome
                for write, field in zip(writers, fields):
                    write(i, field)
                if energy_rows is None:
                    energy_rows = rows
            if energy_rows is None:
                raise BlowUpError("all samples failed", sample_index=None)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return energy_rows


class CoefficientSum:
    """Coefficient-wise sum of the N-mode sample fields fed to add, in order."""

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
    for f in snapshot.fields:
        acc.add(f)
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
        self.s1 = np.zeros((M, M, 2))
        self.s2 = np.zeros((M, M, 2))
        self.count = 0

    def add(self, grid: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            self.s1 += grid
            self.s2 += grid * grid
        self.count += 1

    def variance(self, snapshot) -> np.ndarray:
        """Pointwise population variance, summed over components; raises
        ValueError naming the snapshot (or its header) if a value is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.s1 / self.count
            var = np.maximum(self.s2 / self.count - mean * mean, 0.0).sum(axis=2)
        check_finite(var, "variance", snapshot)
        return var


def variance_field(snapshot: EnsembleSnapshot, grid_points: int | None = None) -> np.ndarray:
    """Pointwise population variance across samples, summed over components.

    Returns an (M, M) grid, M defaulting to synthesis_grid(N) = 3N; raises
    ValueError if a value is not finite.
    """
    M = synthesis_grid(snapshot.N) if grid_points is None else int(grid_points)
    acc = GridMoments(M)
    for f in snapshot.fields:
        with np.errstate(over="ignore", invalid="ignore"):
            acc.add(sample_at_grid(f, M))
    return acc.variance(snapshot)


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open path + ".tmp" for writing; rename it onto path at the end, or remove it on error."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """CSV via atomic_open: '# ' + header cells, then one line per row.

    Cells are joined by ','; float cells are written .17g, others with str().
    Each line is one '%' format, the same bytes as formatting cell by cell; a
    1-d float64 array row takes a format built once per row length.
    """
    float_formats = {}

    def line(cells):
        if isinstance(cells, np.ndarray) and cells.dtype == np.float64 and cells.ndim == 1:
            fmt = float_formats.get(len(cells))
            if fmt is None:
                fmt = float_formats[len(cells)] = ",".join(["%.17g"] * len(cells)) + "\n"
            return fmt % tuple(cells.tolist())
        return ",".join("%.17g" if isinstance(c, float) else "%s" for c in cells) % tuple(cells) + "\n"

    with atomic_open(path) as fh:
        fh.write("# " + line(header))
        fh.writelines(map(line, rows))


@contextlib.contextmanager
def _snapshot_writer(path, N: int, time: float, manifest_hash: int):
    """Write a snapshot in the EUSS layout via atomic_open, one sample at a time.

    Yields write(seed, field), which appends one sample record; the header,
    with the count of samples written, goes in last.
    """
    with atomic_open(path, "wb") as fh:
        count = 0

        def write(seed, field):
            nonlocal count
            fh.write(_SEED.pack(int(seed)))
            fh.write(np.ascontiguousarray(field.coeffs.transpose(1, 2, 0), dtype=_COEFF))
            count += 1

        fh.seek(_HEADER.size)
        yield write
        fh.seek(0)
        fh.write(_HEADER.pack(_MAGIC, FORMAT_VERSION, N, count, float(time), manifest_hash))


def write_snapshot(path, snapshot: EnsembleSnapshot) -> None:
    """Serialize a snapshot in the EUSS binary layout (bit-exact round trip), atomically."""
    with _snapshot_writer(path, snapshot.N, snapshot.time, snapshot.manifest_hash) as write:
        for seed, field in zip(snapshot.sample_seeds, snapshot.fields):
            write(seed, field)


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


def _check_length(fh, path, N: int, m: int) -> None:
    size = os.fstat(fh.fileno()).st_size
    expected = _HEADER.size + m * _sample_bytes(N)
    if size != expected:
        raise SnapshotFormatError(
            f"{path}: {size} bytes, but its header (N={N}, m={m}) implies {expected}"
        )


def read_snapshot_header(path) -> SnapshotHeader:
    """Read and check the header of a snapshot written by write_snapshot.

    Raises SnapshotFormatError (a ValueError) naming the path for bad magic
    or version, a non-finite time, no samples, or a length other than the
    header implies. Samples are checked as iter_snapshot reads them.
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
            record = fh.read(size)
            if len(record) < size:
                raise SnapshotFormatError(f"{path}: truncated while it was read")
            (seed,) = _SEED.unpack_from(record)
            raw = np.frombuffer(record, dtype=_COEFF, offset=_SEED.size).reshape(K, K, 2)
            if not np.all(np.isfinite(raw)):
                raise SnapshotFormatError(f"{path}: non-finite coefficients in sample {seed}")
            field = SpectralField._wrap(N, raw.transpose(2, 0, 1).copy())
            del record, raw                 # hold one sample while suspended
            yield seed, field


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
        params=SolverParams(N=header.N),
        manifest_hash=header.manifest_hash,
    )
