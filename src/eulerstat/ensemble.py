"""Monte Carlo ensembles: generate, evolve, snapshot.

An ensemble run draws m i.i.d. samples from an initial-data family,
evolves each independently with the spectral hyper-viscosity scheme and
records all sample fields at the requested output times. A snapshot of m
fields at time t represents the empirical measure (1/m) sum_i delta_{u_i(t)}.

Samples are deterministic in (base_seed, sample_index) alone, so results
are bit-identical regardless of worker count or scheduling.

Snapshot files use a fixed little-endian binary layout (magic "EUSS"):

    magic:4s  version:u32  N:u32  m:u32  time:f64  manifest_hash:u64
    then per sample: seed:u64, coefficients for k1 = -N..N (outer),
    k2 = -N..N (inner), components 1 then 2, each as (f64 real, f64 imag).
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ShapeError
from .initial import InitialMeasureSpec, generate_sample
from .solver import SolverParams, evolve
from .spectral import SpectralField, sample_at_grid

__all__ = [
    "RunManifest",
    "EnsembleSnapshot",
    "run_ensemble",
    "mean_field",
    "variance_field",
    "write_snapshot",
    "read_snapshot",
    "fnv1a64",
]

FORMAT_VERSION = 1
_MAGIC = b"EUSS"
_HEADER = struct.Struct("<4sIIIdQ")
_SEED = struct.Struct("<Q")


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
    format_version: int = FORMAT_VERSION

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


def _evolve_one(args):
    spec, solver, sample_index, output_times = args
    u0 = generate_sample(spec, sample_index)
    collected = {}

    def observer(t, u, ledger):
        collected[t] = u.coeffs

    try:
        _, ledger = evolve(u0, output_times[-1], solver, output_times=output_times, observer=observer)
    except BlowUpError as err:
        raise BlowUpError(str(err), time=err.time, sample_index=sample_index) from None
    return sample_index, [collected[t] for t in output_times], ledger.history


def run_ensemble(
    manifest: RunManifest,
    workers: int = 1,
    tolerate_failures: bool = False,
    manifest_hash: int = 0,
    energy_out: dict | None = None,
):
    """Run the full ensemble; return one EnsembleSnapshot per output time.

    Samples are indexed 1..m. With tolerate_failures, samples whose
    trajectories blow up are dropped (the snapshot's m shrinks and its
    sample_seeds show which survived); otherwise the first failure aborts
    the run with a BlowUpError carrying the sample index. energy_out, when
    given a dict, receives the per-step (t, E, D) ledger history per sample.
    """
    tasks = [
        (manifest.spec, manifest.solver, i, manifest.output_times)
        for i in range(1, manifest.m + 1)
    ]
    results = {}
    failures = []

    def record(outcome_index, coeff_list, history):
        results[outcome_index] = coeff_list
        if energy_out is not None:
            energy_out[outcome_index] = history

    if workers <= 1:
        for task in tasks:
            try:
                i, coeff_list, history = _evolve_one(task)
            except BlowUpError as err:
                if not tolerate_failures:
                    raise
                failures.append(err.sample_index)
                continue
            record(i, coeff_list, history)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_evolve_one, task) for task in tasks]
            for fut in futures:
                try:
                    i, coeff_list, history = fut.result()
                except BlowUpError as err:
                    if not tolerate_failures:
                        raise
                    failures.append(err.sample_index)
                    continue
                record(i, coeff_list, history)

    surviving = sorted(results)
    if not surviving:
        raise BlowUpError("all samples failed", sample_index=None)
    snapshots = []
    for j, t in enumerate(manifest.output_times):
        fields = [SpectralField(manifest.spec.N, results[i][j]) for i in surviving]
        snapshots.append(
            EnsembleSnapshot(
                time=t,
                N=manifest.spec.N,
                fields=fields,
                sample_seeds=list(surviving),
                params=manifest.solver,
                manifest_hash=manifest_hash,
            )
        )
    return snapshots


def mean_field(snapshot: EnsembleSnapshot) -> SpectralField:
    """Coefficient-wise ensemble mean (equals the pointwise mean field)."""
    acc = np.zeros_like(snapshot.fields[0].coeffs)
    for f in snapshot.fields:
        acc += f.coeffs
    return SpectralField(snapshot.N, acc / snapshot.m)


def variance_field(snapshot: EnsembleSnapshot, grid_points: int | None = None) -> np.ndarray:
    """Pointwise population variance across samples, summed over components.

    Returns an (M, M) grid, M defaulting to the 3N synthesis grid.
    """
    M = 3 * snapshot.N if grid_points is None else int(grid_points)
    s1 = np.zeros((M, M, 2))
    s2 = np.zeros((M, M, 2))
    for f in snapshot.fields:
        g = sample_at_grid(f, M)
        s1 += g
        s2 += g * g
    mean = s1 / snapshot.m
    var = s2 / snapshot.m - mean * mean
    return np.maximum(var, 0.0).sum(axis=2)


def write_snapshot(path, snapshot: EnsembleSnapshot) -> None:
    """Serialize a snapshot in the EUSS binary layout (bit-exact round trip)."""
    K = 2 * snapshot.N + 1
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC,
                FORMAT_VERSION,
                snapshot.N,
                snapshot.m,
                float(snapshot.time),
                snapshot.manifest_hash,
            )
        )
        for seed, f in zip(snapshot.sample_seeds, snapshot.fields):
            fh.write(_SEED.pack(int(seed)))
            block = np.empty((K, K, 2, 2), dtype="<f8")
            arr = f.coeffs.transpose(1, 2, 0)  # (k1, k2, component)
            block[..., 0] = arr.real
            block[..., 1] = arr.imag
            fh.write(block.tobytes())


def read_snapshot(path, params: SolverParams | None = None) -> EnsembleSnapshot:
    """Read a snapshot written by write_snapshot.

    Raises ValueError naming the path for a file that is not a complete,
    finite snapshot: bad magic or version, a length other than the header
    implies, or non-finite values.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header ({len(header)} bytes)")
        magic, version, N, m, time, manifest_hash = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a snapshot file (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: format_version {version} unsupported")
        if not math.isfinite(time):
            raise ValueError(f"{path}: non-finite time {time!r}")
        K = 2 * N + 1
        body = K * K * 2 * 2 * 8
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + m * (_SEED.size + body)
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, but its header (N={N}, m={m}) implies {expected}")
        fields = []
        seeds = []
        for _ in range(m):
            (seed,) = _SEED.unpack(fh.read(_SEED.size))
            seeds.append(seed)
            raw = np.frombuffer(fh.read(body), dtype="<f8").reshape(K, K, 2, 2)
            if not np.all(np.isfinite(raw)):
                raise ValueError(f"{path}: non-finite coefficients in sample {seed}")
            coeffs = np.ascontiguousarray(
                (raw[..., 0] + 1j * raw[..., 1]).transpose(2, 0, 1)
            )
            fields.append(SpectralField(N, coeffs))
    return EnsembleSnapshot(
        time=time,
        N=N,
        fields=fields,
        sample_seeds=seeds,
        params=params if params is not None else SolverParams(N=N),
        manifest_hash=manifest_hash,
    )
