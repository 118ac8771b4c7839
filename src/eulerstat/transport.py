"""Exact 1-Wasserstein distances between uniform empirical measures.

For two clouds of m points each with uniform weights 1/m, W1 with
Euclidean ground cost reduces to an assignment problem,

    W1(A, B) = (1/m) min_pi sum_i |A_i - B_pi(i)|,

solved by the Hungarian algorithm (O(m^3)) over an exact integer encoding
of the float costs: every double is a dyadic rational, so scaling by a
common power of two turns the matrix into integers and the minimization
carries no rounding. Float assignment solvers can return assignments a
final ulp off the optimum on degenerate instances; the integer route
reproduces factorial brute force bit-for-bit.

The marginal distance between two ensembles compares, at each of a set of
spatial k-tuples, the clouds of stacked velocity values
(u_i(x_1), ..., u_i(x_k)) in R^(2k) across samples, and averages the
per-tuple W1 over the tuples; the average is scaled by the domain volume
(2 pi)^(2k), the quadrature weight of uniformly drawn tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSnapshot, write_csv
from .spectral import sample_at_grid, synthesis_grid

__all__ = [
    "PointCloud",
    "MarginalDistanceReport",
    "w1_exact",
    "draw_x_tuples",
    "marginal_w1",
    "write_report_csv",
]

DEFAULT_TUPLE_COUNTS = {1: 256, 2: 128, 3: 64}
DEFAULT_DIAGNOSTIC_SEED = 90210


@dataclass(frozen=True)
class PointCloud:
    """m points in R^d with uniform weights 1/m."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError(f"expected (m, d) point array, got shape {np.shape(self.points)}")
        if not np.all(np.isfinite(p)):
            raise ValueError("point cloud contains non-finite coordinates")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @property
    def m(self) -> int:
        return self.points.shape[0]


def _integer_costs(cost: np.ndarray):
    """Encode a matrix of nonnegative doubles as exact integers.

    cost[i][j] = M * 2^e with M a 53-bit integer; shifting every entry to
    the smallest exponent present gives integers with the same ordering
    and exactly proportional sums.
    """
    mant, expo = np.frexp(cost)
    e = expo - 53
    nz = cost > 0
    e_min = int(e[nz].min()) if np.any(nz) else 0
    n = cost.shape[0]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if cost[i, j] == 0.0:
                row.append(0)
            else:
                row.append(int(mant[i, j] * 9007199254740992.0) << int(e[i, j] - e_min))
        rows.append(row)
    return rows


def _hungarian(cost_int) -> list:
    """Minimum-cost assignment on an integer matrix; returns column per row.

    Shortest-augmenting-path formulation with integer potentials, so every
    comparison is exact.
    """
    n = len(cost_int)
    big = sum(max(row) for row in cost_int) + 1
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)            # match[j] = row occupying column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = big
            j1 = 0
            row = cost_int[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[match[j] - 1] = j - 1
    return cols


def w1_exact(A: PointCloud, B: PointCloud) -> float:
    """Exact W1 between equal-size uniform clouds (optimal assignment).

    The assignment is minimized in exact integer arithmetic and the matched
    costs are added with correctly rounded summation, so the value agrees
    bit-for-bit with exhaustive enumeration.
    """
    if A.m != B.m:
        raise ValueError(f"cloud sizes differ ({A.m} vs {B.m}); unequal weights unsupported")
    if A.points.shape[1] != B.points.shape[1]:
        raise ValueError("cloud dimensions differ")
    diff = A.points[:, None, :] - B.points[None, :, :]
    cost = np.sqrt(np.sum(diff * diff, axis=2))
    cols = _hungarian(_integer_costs(cost))
    return math.fsum(cost[np.arange(A.m), cols]) / A.m


@dataclass(frozen=True)
class MarginalDistanceReport:
    """Averaged W1 between k-point correlation marginals of two ensembles.

    value = volume_factor * mean(per-tuple distances); volume_factor records
    the (2 pi)^(2k) normalization so either convention can be read off.
    per_tuple holds ((x-tuple coordinates), distance) pairs.
    """

    k: int
    num_x_tuples: int
    value: float
    per_tuple: tuple
    volume_factor: float
    time: float
    N_a: int
    N_b: int
    m: int
    seed: int | None = None


def draw_x_tuples(seed: int, num_tuples: int, k: int, grid_points: int) -> np.ndarray:
    """Uniform random spatial k-tuples as indices into an M x M grid."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(k), int(grid_points)))
    rng = np.random.Generator(np.random.Philox(ss))
    return rng.integers(0, grid_points, size=(num_tuples, k, 2))


def _stacked_values(snapshot: EnsembleSnapshot, M: int) -> np.ndarray:
    """(m, M, M, 2) array of pointwise sample values on the common grid."""
    return np.stack([sample_at_grid(f, M) for f in snapshot.fields])


def marginal_w1(
    snapA: EnsembleSnapshot,
    snapB: EnsembleSnapshot,
    k: int,
    x_tuples: np.ndarray | None = None,
    num_tuples: int | None = None,
    seed: int = DEFAULT_DIAGNOSTIC_SEED,
    grid_points: int | None = None,
) -> MarginalDistanceReport:
    """Averaged W1 between the k-point correlation marginals of two snapshots.

    Tuples are grid nodes of the coarser snapshot's synthesis grid (default
    3 min(N_a, N_b) points per axis); both ensembles are evaluated at the
    same physical points, so snapshots at different resolutions are
    comparable. x_tuples overrides the random draw; otherwise num_tuples
    (default 256/128/64 for k = 1/2/3) tuples are drawn from the given seed.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k={k} unsupported (correlation order must be 1, 2 or 3)")
    if abs(snapA.time - snapB.time) > 1e-12 * max(1.0, abs(snapA.time)):
        raise ValueError(f"snapshot times differ: {snapA.time} vs {snapB.time}")
    if snapA.m != snapB.m:
        raise ValueError(f"sample counts differ ({snapA.m} vs {snapB.m})")
    M = synthesis_grid(min(snapA.N, snapB.N)) if grid_points is None else int(grid_points)
    used_seed = None
    if x_tuples is None:
        T = DEFAULT_TUPLE_COUNTS[k] if num_tuples is None else int(num_tuples)
        x_tuples = draw_x_tuples(seed, T, k, M)
        used_seed = seed
    tuples = np.asarray(x_tuples, dtype=np.int64)
    if tuples.ndim != 3 or tuples.shape[1] != k or tuples.shape[2] != 2:
        raise ValueError(f"x_tuples must have shape (T, {k}, 2), got {tuples.shape}")
    if tuples.size == 0:
        raise ValueError("at least one x-tuple is required")

    valsA = _stacked_values(snapA, M)
    valsB = _stacked_values(snapB, M)
    per_tuple = []
    for tup in tuples:
        cloudA = np.concatenate([valsA[:, i1, i2, :] for i1, i2 in tup], axis=1)
        cloudB = np.concatenate([valsB[:, i1, i2, :] for i1, i2 in tup], axis=1)
        dist = w1_exact(PointCloud(cloudA), PointCloud(cloudB))
        coords = tuple((2.0 * np.pi * i1 / M, 2.0 * np.pi * i2 / M) for i1, i2 in tup)
        per_tuple.append((coords, dist))
    volume = (2.0 * np.pi) ** (2 * k)
    value = volume * float(np.mean([d for _, d in per_tuple]))
    return MarginalDistanceReport(
        k=k,
        num_x_tuples=len(per_tuple),
        value=value,
        per_tuple=tuple(per_tuple),
        volume_factor=volume,
        time=snapA.time,
        N_a=snapA.N,
        N_b=snapB.N,
        m=snapA.m,
        seed=used_seed,
    )


def write_report_csv(report: MarginalDistanceReport, path) -> None:
    """CSV with one row per tuple and a trailing summary row."""
    header = (f"wasserstein_k{report.k}", report.time, report.N_a, report.N_b,
              report.m, report.num_x_tuples, report.seed, report.volume_factor)
    rows = [(*(c for xy in coords for c in xy), dist) for coords, dist in report.per_tuple]
    write_csv(path, header, rows + [("summary", report.value)])
