"""Exact 1-Wasserstein distances between uniform empirical measures.

For two clouds of m points each with uniform weights 1/m, W1 with
Euclidean ground cost reduces to an assignment problem,

    W1(A, B) = (1/m) min_sigma sum_i |A_i - B_sigma(i)|,

and the value is the correctly rounded sum (`math.fsum`) of the matched
float costs over m. Every exactly optimal sigma gives the same exact sum,
hence the same double, so the value does not depend on which optimum is
found; it agrees bit-for-bit with factorial brute force.

Assignments are found in three steps, batched over chunks of tuples:

- Candidate. A float shortest-augmenting-path solver (Dijkstra form with
  lazy potential updates, Crouse 2016) runs on all tuples of a chunk at
  once. Float solvers can end a final ulp off the optimum on degenerate
  instances, so its answer is only a candidate.
- Certificate. sigma is optimal iff the row-exchange graph, with weights
  w_ij = c[i, sigma(j)] - c[j, sigma(j)], has no negative cycle (LP
  duality; Burkard, Dell'Amico & Martello, Assignment Problems, ch. 4).
  Float Bellman-Ford from a virtual source gives a parent tree; exact
  integer potentials are built along it (every double is a dyadic
  rational, so costs scaled by a common power of two are integers), which
  makes tree edges exactly tight and certifies zero-weight cycles from
  duplicate points. Every reduced cost whose float value lies within a
  proven rounding bound of 0 is then checked in exact integers; those
  above the bound are exactly positive.
- Fallback. A tuple whose certificate fails (a float-suboptimal candidate,
  a Bellman-Ford parent cycle, or costs outside the range where the bound
  is proven) is solved by the Hungarian algorithm over the exact integer
  encoding of its whole cost matrix.

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
    the smallest exponent present (`_scaled_int`) gives integers with the
    same ordering and exactly proportional sums.
    """
    e_min = _ulp_exponent(float(np.min(cost, where=cost > 0, initial=np.inf)))
    return [[_scaled_int(x, e_min) for x in row] for row in cost.tolist()]


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


# Memory budget of one (T, m, m) float64 array; a chunk of tuples holds
# three at a time (costs, exchange weights, Bellman-Ford sums).
_CHUNK_BYTES = 1 << 20
# Tuples with a nonzero cost outside this range skip the certificate: inside
# it, every potential (as a double and as an integer multiple of the
# smallest cost's ulp) and every rounding bound is a finite normal number.
_COST_RANGE = (2.0 ** -400, 2.0 ** 400)
_UNIT_ROUNDOFF = 2.0 ** -53


def _cost_matrices(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(T, m, m) Euclidean costs between the clouds A[t] and B[t], (T, m, d).

    Squares are added coordinate by coordinate, with no (T, m, m, d)
    temporary; that is bitwise what numpy's sum over a last axis of 1 to 7
    terms does, and other d go through that sum itself.
    """
    if not 0 < A.shape[2] < 8:
        diff = A[:, :, None, :] - B[:, None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=3))
    acc = None
    for l in range(A.shape[2]):
        sq = A[:, :, None, l] - B[:, None, :, l]
        sq *= sq
        if acc is None:
            acc = sq
        else:
            acc += sq
    return np.sqrt(acc, out=acc)


def _candidate_assignments(cost: np.ndarray) -> np.ndarray:
    """Float shortest-augmenting-path assignment of every (m, m) matrix in a
    (T, m, m) stack; returns the column of each row, (T, m).

    Rows are added one at a time, in lockstep across the stack: a Dijkstra
    search over reduced costs c - u - v from the new row to a free column,
    then the potentials of the scanned rows and columns are moved by their
    distances (lazy update) and the path is flipped. In the search a
    scanned column gets v = -inf, so its reduced cost is +inf, and a tuple
    whose search is over gets an infinite offset and re-scans its sink, so
    nothing of it moves until the slowest tuple of the stack is done.
    """
    T, m, _ = cost.shape
    base = np.arange(T) * m               # flat index of [t, 0] in a (T, m) array
    rows_of = cost.reshape(T * m, m)
    u = np.zeros(T * m)
    v = np.zeros((T, m))
    col4row = np.full(T * m, -1)
    row4col = np.full(T * m, -1)
    path = np.zeros((T, m), dtype=np.int64)
    for cur in range(m):
        free = (row4col < 0).reshape(T, m)
        dist = np.full((T, m), np.inf)
        final = np.zeros((T, m))          # distance at which each column was scanned
        v_open = v.copy()
        flat_dist, flat_final, flat_v_open = dist.ravel(), final.ravel(), v_open.ravel()
        row = np.full(T, cur)
        offset = -u[base + cur]           # distance so far minus u[row]
        min_val = np.zeros(T)
        sink = np.zeros(T, dtype=np.int64)
        active = np.ones(T, dtype=bool)
        while True:
            reduced = rows_of[base + row]
            reduced -= v_open
            reduced += offset[:, None]
            np.copyto(path, row[:, None], where=reduced < dist)
            np.minimum(dist, reduced, out=dist)
            col = dist.argmin(axis=1)
            col = np.where(active, col, sink)
            at = base + col
            min_val = np.where(active, flat_dist[at], min_val)
            flat_final[at] = min_val
            flat_dist[at] = np.inf
            flat_v_open[at] = -np.inf
            row = row4col[at]
            active = row >= 0
            sink = np.where(active, sink, col)
            if not active.any():
                break
            offset = np.where(active, min_val - u[base + row], np.inf)
        scanned = np.isneginf(v_open)
        t_s, c_s = np.nonzero(scanned & ~free)
        u[t_s * m + row4col[t_s * m + c_s]] += min_val[t_s] - final[t_s, c_s]
        u[base + cur] += min_val
        v -= np.where(scanned, min_val[:, None] - final, 0.0)
        col = sink
        flipping = np.ones(T, dtype=bool)
        while True:
            row = path.ravel()[base + col]
            prev = col4row[base + row]
            row4col[(base + col)[flipping]] = row[flipping]
            col4row[(base + row)[flipping]] = col[flipping]
            flipping &= row != cur
            if not flipping.any():
                break
            col = np.where(flipping, prev, col)
    return col4row.reshape(T, m)


def _ulp_exponent(smallest: float) -> int:
    """e_min of `_scaled_int` for a matrix whose smallest positive entry is
    smallest (inf if there is none)."""
    return math.frexp(smallest)[1] - 53 if smallest != math.inf else 0


def _scaled_int(x: float, e_min: int) -> int:
    """x / 2^e_min as an exact integer (x >= 0, zero or at least 2^e_min * 2^52)."""
    if x == 0.0:
        return 0
    mant, e = math.frexp(x)
    return int(mant * 9007199254740992.0) << (e - 53 - e_min)


def _tree_potentials(parent, par_cost, own_cost, e_min: int):
    """Exact integer potentials along a Bellman-Ford parent forest.

    Roots (parent -1) hang off the virtual source at 0; every other node
    gets its parent's potential plus the exact edge weight, so tree edges
    have exactly zero reduced cost. Returns None if the parents form a cycle.
    """
    m = len(parent)
    P = [None] * m
    for j in range(m):
        chain = []
        k = j
        while P[k] is None:
            if parent[k] < 0:
                P[k] = 0
                break
            chain.append(k)
            if len(chain) > m:
                return None
            k = parent[k]
        for k in reversed(chain):
            P[k] = P[parent[k]] + _scaled_int(par_cost[k], e_min) - _scaled_int(own_cost[k], e_min)
    return P


def _certify(cost: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact optimality certificate for the assignments cols of a (T, m, m)
    cost stack; returns a (T,) bool array, True where cols[t] is proven
    optimal.

    sigma is optimal iff potentials P exist with nonnegative reduced costs
    W_ij + P_i - P_j on the row-exchange graph, W_ij = c[i, sigma(j)] -
    c[j, sigma(j)]. P is built exactly along a float Bellman-Ford tree. The
    float reduced cost r_ij = fl(fl(w_ij + q_i) - q_j), w = fl(W) and
    q = fl(P), is within 4u(1+u)^3 S_ij of the exact one, where
    S_ij = |w_ij| + 2 c[j, sigma(j)] + |q_i| + |q_j| and u = 2^-53; the
    check uses 8u S_ij, which stays above that after its own rounding.
    Entries whose r lies above the bound are exactly positive, those below
    its negative reject the candidate, and those within it are checked in
    integers.

    Arrays are indexed [t, j, i] (edge i -> j), so that every reduction
    over i runs along the contiguous axis.
    """
    T, m, _ = cost.shape
    tt = np.arange(T)[:, None]
    ar = np.arange(m)
    is_permutation = (np.sort(cols, axis=1) == ar).all(axis=1)
    w = cost[tt, :, cols]                        # c[i, sigma(j)] ...
    own = w[:, ar, ar].copy()                    # own[t, j] = c[j, sigma(j)]
    w -= own[:, :, None]                         # ... minus c[j, sigma(j)]
    p = np.zeros((T, m))
    parent = np.full((T, m), -1)
    moved = np.zeros((T, m), dtype=bool)
    through = np.empty_like(w)
    for _ in range(m):
        np.add(w, p[:, None, :], out=through)
        best = through.argmin(axis=2)
        reach = through[tt, ar, best]
        moved = reach < p
        if not moved.any():
            break
        p = np.where(moved, reach, p)
        parent = np.where(moved, best, parent)
    ok = is_permutation & ~moved.any(axis=1)

    smallest = np.min(cost, axis=(1, 2), where=cost > 0, initial=np.inf).tolist()
    e_mins = [_ulp_exponent(s) for s in smallest]
    par_cost = cost[tt, np.maximum(parent, 0), cols]
    potentials = [None] * T
    q = np.zeros((T, m))
    for t in np.flatnonzero(ok).tolist():
        P = _tree_potentials(parent[t].tolist(), par_cost[t].tolist(), own[t].tolist(), e_mins[t])
        if P is None:
            ok[t] = False
            continue
        potentials[t] = P
        q[t] = [math.ldexp(float(x), e_mins[t]) for x in P]

    reduced = np.add(w, q[:, None, :], out=through)
    reduced -= q[:, :, None]
    aq = np.abs(q)
    bound = np.abs(w, out=w)
    bound += 2.0 * own[:, :, None]
    bound += aq[:, None, :]
    bound += aq[:, :, None]
    bound *= 8.0 * _UNIT_ROUNDOFF
    negative = reduced < 0
    near = np.abs(reduced, out=reduced) <= bound
    ok &= ~(negative & ~near).any(axis=(1, 2))
    near &= ok[:, None, None]
    near[:, ar, ar] = False
    tree_t, tree_j = np.nonzero(parent >= 0)
    near[tree_t, tree_j, parent[tree_t, tree_j]] = False
    ts, js, is_ = np.nonzero(near)
    for t, j, i, c_ij, c_jj in zip(ts.tolist(), js.tolist(), is_.tolist(),
                                   cost[ts, is_, cols[ts, js]].tolist(), own[ts, js].tolist()):
        if not ok[t]:
            continue
        P = potentials[t]
        e_min = e_mins[t]
        if _scaled_int(c_ij, e_min) - _scaled_int(c_jj, e_min) + P[i] - P[j] < 0:
            ok[t] = False
    return ok


def _w1_chunk(A: np.ndarray, B: np.ndarray) -> list:
    """Exact W1 between A[t] and B[t] for each t; A, B are (T, m, d) arrays of
    finite points (ValueError if a distance between them overflows)."""
    cost = _cost_matrices(A, B)
    T, m, _ = cost.shape
    lo, hi = _COST_RANGE
    if not np.isfinite(cost).all():
        raise ValueError("distances between points overflow float64")
    in_range = ((cost == 0) | ((cost >= lo) & (cost <= hi))).all(axis=(1, 2))
    cols = np.zeros((T, m), dtype=np.int64)
    certified = np.zeros(T, dtype=bool)
    if in_range.any():
        trusted = cost if in_range.all() else cost[in_range]
        cols[in_range] = _candidate_assignments(trusted)
        certified[in_range] = _certify(trusted, cols[in_range])
    for t in np.flatnonzero(~certified).tolist():
        cols[t] = _hungarian(_integer_costs(cost[t]))
    matched = np.take_along_axis(cost, cols[:, :, None], axis=2)[:, :, 0]
    return [math.fsum(row) / m for row in matched.tolist()]


def w1_exact(A: PointCloud, B: PointCloud) -> float:
    """Exact W1 between equal-size uniform clouds (optimal assignment).

    The assignment is proven optimal in exact integer arithmetic (see the
    module docstring) and the matched costs are added with correctly
    rounded summation, so the value agrees bit-for-bit with exhaustive
    enumeration.
    """
    if A.m != B.m:
        raise ValueError(f"cloud sizes differ ({A.m} vs {B.m}); unequal weights unsupported")
    if A.points.shape[1] != B.points.shape[1]:
        raise ValueError("cloud dimensions differ")
    return _w1_chunk(A.points[None], B.points[None])[0]


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
    if not (np.all(np.isfinite(valsA)) and np.all(np.isfinite(valsB))):
        raise ValueError("sampled velocity values contain non-finite entries")
    chunk = max(1, _CHUNK_BYTES // (8 * snapA.m * snapA.m))
    dists = []
    for start in range(0, len(tuples), chunk):
        part = tuples[start:start + chunk]
        # (T, m, 2k) clouds: the velocity at x_1, then at x_2, ...
        clouds = [np.concatenate([vals[:, part[:, l, 0], part[:, l, 1], :] for l in range(k)],
                                 axis=2).transpose(1, 0, 2) for vals in (valsA, valsB)]
        dists.extend(_w1_chunk(*clouds))
    per_tuple = []
    for tup, dist in zip(tuples, dists):
        coords = tuple((2.0 * np.pi * i1 / M, 2.0 * np.pi * i2 / M) for i1, i2 in tup)
        per_tuple.append((coords, dist))
    volume = (2.0 * np.pi) ** (2 * k)
    value = volume * float(np.mean(dists))
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
