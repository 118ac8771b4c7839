"""Exact 1-Wasserstein distances between uniform empirical measures.

For two clouds of m points each with uniform weights 1/m, W1 with
Euclidean ground cost reduces to an assignment problem,

    W1(A, B) = (1/m) min_sigma sum_i |A_i - B_sigma(i)|,

and the value is the correctly rounded sum (`math.fsum`) of the matched
float costs over m. Every exactly optimal sigma gives the same exact sum,
hence the same double, so the value does not depend on which optimum is
found; it agrees bit-for-bit with factorial brute force.

Assignments are found in three steps. Costs are built, range-checked
and certified in slices of `_CHUNK_BYTES`; the candidate solver runs on
a stack of up to `_BATCH_BYTES` of them at once.

- Candidate. A float shortest-augmenting-path solver (Dijkstra form with
  lazy potential updates, Crouse 2016) runs on all tuples of a stack at
  once. Float solvers can end a final ulp off the optimum on degenerate
  instances, so its answer is only a candidate.
- Certificate. sigma is optimal iff the row-exchange graph, with weights
  w_ij = c[i, sigma(j)] - c[j, sigma(j)], has no negative cycle (LP
  duality; Burkard, Dell'Amico & Martello, Assignment Problems, ch. 4).
  Float Bellman-Ford from a virtual source, run in each pass only on the
  tuples still relaxing, gives a parent tree; exact integer potentials P
  are built along it (every double is a dyadic rational, so costs scaled
  by a common power of two are integers), which makes tree edges exactly
  tight and certifies zero-weight cycles from duplicate points. Every
  reduced cost whose float value lies within a proven rounding bound of 0
  is then checked in exact integers; those above the bound are exactly
  positive.
- Repair. A permutation that fails its certificate is made optimal in
  exact integers: u_i = -P_i and v_sigma(j) = c[j, sigma(j)] + P_j are
  assignment duals under which every matched edge is tight and the
  violated edges are exactly the negative reduced costs. Rows with one are
  unmatched, their u lowered until they are feasible, and the Hungarian
  algorithm re-adds only those rows from this warm start. Where
  Bellman-Ford did not settle into a tree, P is its float potentials
  rounded onto the integers, which only unmatches more rows. Tuples whose
  costs lie outside the range where the rounding bound is proven are
  solved by the Hungarian algorithm from a cold start.

The marginal distance between two ensembles compares, at each of a set of
spatial k-tuples, the clouds of stacked velocity values
(u_i(x_1), ..., u_i(x_k)) in R^(2k) across samples, and averages the
per-tuple W1 over the tuples; the average is scaled by the domain volume
(2 pi)^(2k), the quadrature weight of uniformly drawn tuples. The values
are gathered by a TupleValues accumulator fed one sample grid at a time by
ensemble.feed: marginal_w1 feeds it a snapshot's fields, and
marginal_report turns two fed ones into the report, so a caller streaming
samples can share each sample's grid with other statistics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSnapshot, feed, same_time, write_csv
from .spectral import synthesis_grid

__all__ = [
    "PointCloud",
    "MarginalDistanceReport",
    "w1_exact",
    "draw_x_tuples",
    "marginal_tuples",
    "TupleValues",
    "marginal_w1",
    "marginal_report",
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
    the smallest exponent present (`_scaled_ints`) gives integers with the
    same ordering and exactly proportional sums.
    """
    return _scaled_ints(cost, _ulp_exponent(float(np.min(cost, where=cost > 0, initial=np.inf))))


def _hungarian(cost_int, warm=None) -> list:
    """Minimum-cost assignment on an integer matrix; returns column per row.

    Shortest-augmenting-path formulation with integer potentials, so every
    comparison is exact. warm = (u, v, match), 1-based like the lists
    below, starts from potentials with c - u - v >= 0 everywhere and 0 on
    the edges of the partial matching match; only its free rows are added.
    """
    n = len(cost_int)
    if warm is None:
        u, v, match = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    else:
        u, v, match = warm           # match[j] = row occupying column j (1-based)
    way = [0] * (n + 1)
    matched = set(match[1:])
    for i in range(1, n + 1):
        if i in matched:
            continue
        match[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = math.inf
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


def _repair(cost_int, cols, P) -> list:
    """Optimal assignment from a permutation cols that failed its
    certificate, given integer potentials P of its row-exchange graph
    (`_certify`).

    u_i = -P_i and v_sigma(j) = c[j, sigma(j)] + P_j give every matched edge
    a reduced cost c - u - v of exactly 0, and edge (i, sigma(j)) the
    exchange-graph reduced cost W_ij + P_i - P_j; the negative ones are the
    violated edges. Each row with one is unmatched, its u lowered to
    min_j (c_ij - v_j), and the Hungarian re-adds only those rows. Any
    integer P gives a valid start; close-to-feasible ones unmatch few rows.
    """
    n = len(cost_int)
    u = [0] + [-p for p in P]
    v = [0] * (n + 1)
    match = [0] * (n + 1)
    for i, j in enumerate(cols):
        v[j + 1] = cost_int[i][j] + P[i]
        match[j + 1] = i + 1
    vs = v[1:]
    for i, row in enumerate(cost_int):
        low = min(map(operator.sub, row, vs))
        if low < u[i + 1]:
            u[i + 1] = low
            match[cols[i] + 1] = 0
    return _hungarian(cost_int, (u, v, match))


# Memory budget of the (T, m, m) float64 cost stack the candidate solver
# runs on at once (128 tuples at m = 64): each numpy call of its lockstep
# loop has a fixed overhead, so a larger stack makes fewer calls per tuple.
_BATCH_BYTES = 4 << 20
# Memory budget of one (T, m, m) float64 slice of that stack: costs are
# built, range-checked and certified a slice at a time, and the certificate
# holds three slice-size arrays (exchange weights, Bellman-Ford sums, and
# the weights of the tuples still relaxing).
_CHUNK_BYTES = 1 << 20
# Tuples with a nonzero cost outside this range skip the certificate: inside
# it, every potential (as a double and as an integer multiple of the
# smallest cost's ulp) and every rounding bound is a finite normal number.
_COST_RANGE = (2.0 ** -400, 2.0 ** 400)
_UNIT_ROUNDOFF = 2.0 ** -53


def _cost_matrices(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(T, m, m) Euclidean costs between the clouds A[t] and B[t], (T, m, d),
    written to out if given.

    Squares are added coordinate by coordinate, with no (T, m, m, d)
    temporary; that is bitwise what numpy's sum over a last axis of 1 to 7
    terms does, and other d go through that sum itself.
    """
    if not 0 < A.shape[2] < 8:
        diff = A[:, :, None, :] - B[:, None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=3), out=out)
    acc = np.subtract(A[:, :, None, 0], B[:, None, :, 0], out=out)
    acc *= acc
    for l in range(1, A.shape[2]):
        sq = A[:, :, None, l] - B[:, None, :, l]
        sq *= sq
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
    """e_min of `_scaled_ints` for a matrix whose smallest positive entry is
    smallest (inf if there is none)."""
    return math.frexp(smallest)[1] - 53 if smallest != math.inf else 0


def _scaled_ints(x: np.ndarray, e_min) -> list:
    """x / 2^e_min as Python integers, row by row of a 2-D array; e_min is
    one exponent or one per row. Exact where an entry is zero or at least
    2^e_min * 2^52 in magnitude, rounded down elsewhere."""
    mant, e = np.frexp(x)
    n = (mant * 9007199254740992.0).astype(np.int64).tolist()
    shift = (e - 53 - np.reshape(e_min, (-1, 1))).tolist()
    return [[a << s if s >= 0 else a >> -s for a, s in zip(*row)] for row in zip(n, shift)]


def _tree_potentials(parent, par_cost, own_cost):
    """Exact integer potentials along a Bellman-Ford parent forest, given
    the integer costs c[parent(k), sigma(k)] and c[k, sigma(k)] of each node.

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
            P[k] = P[parent[k]] + par_cost[k] - own_cost[k]
    return P


def _bellman_ford(w: np.ndarray, scratch: np.ndarray):
    """Float Bellman-Ford from a virtual source (0-weight edges to every
    node) on the exchange weights w[t, j, i] of edges i -> j; scratch is an
    array like w. Returns the potentials p and parents (-1 for the source)
    of each node, (T, m), and the tuples still relaxing after m passes.

    Each pass relaxes only the tuples whose potentials moved in the pass
    before; the others have settled.
    """
    T, m, _ = w.shape
    p = np.zeros((T, m))
    parent = np.full((T, m), -1)
    live, w_live = np.arange(T), w               # tuples still relaxing, their weights
    sums_buf, spare = scratch, np.empty_like(w)
    for _ in range(m):
        sums = np.add(w_live, p[live][:, None, :], out=sums_buf[:len(live)])
        best = sums.argmin(axis=2)
        reach = np.take_along_axis(sums, best[:, :, None], axis=2)[:, :, 0]
        moved = reach < p[live]
        p[live] = np.where(moved, reach, p[live])
        parent[live] = np.where(moved, best, parent[live])
        relaxing = moved.any(axis=1)
        if not relaxing.all():
            live = live[relaxing]
            if not len(live):
                break
            # the sums are spent: their buffer takes the weights still relaxing
            # (mode="clip" writes to out directly; "raise" would buffer a copy)
            w_live = np.take(w_live, np.flatnonzero(relaxing), axis=0,
                             out=sums_buf[:len(live)], mode="clip")
            sums_buf, spare = spare, sums_buf
    return p, parent, live


def _certify(cost: np.ndarray, cols: np.ndarray):
    """Exact optimality certificate for the assignments cols of a (T, m, m)
    cost stack; returns a (T,) bool array, True where cols[t] is proven
    optimal, and integer potentials of each permutation (None for the
    others) in units of 2^e_min, e_min the `_integer_costs` exponent: the
    exact tree potentials, or where Bellman-Ford did not settle into a tree
    its float potentials rounded down.

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
    through = np.empty_like(w)
    p, parent, live = _bellman_ford(w, through)
    ok = is_permutation.copy()
    ok[live] = False

    smallest = np.min(cost, axis=(1, 2), where=cost > 0, initial=np.inf).tolist()
    e_mins = np.array([_ulp_exponent(s) for s in smallest])
    par_cost = cost[tt, np.maximum(parent, 0), cols]
    potentials = [None] * T
    q = np.zeros((T, m))
    settled = np.flatnonzero(ok)
    for t, par, par_int, own_int in zip(settled.tolist(), parent[settled].tolist(),
                                        _scaled_ints(par_cost[settled], e_mins[settled]),
                                        _scaled_ints(own[settled], e_mins[settled])):
        P = _tree_potentials(par, par_int, own_int)
        if P is None:
            ok[t] = False
            continue
        potentials[t] = P
        q[t] = np.ldexp(np.array(P, dtype=np.float64), e_mins[t])
    rest = np.flatnonzero(is_permutation & ~ok)
    for t, P in zip(rest.tolist(), _scaled_ints(p[rest], e_mins[rest])):
        potentials[t] = P

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
    ok &= ~(negative > near).any(axis=(1, 2))    # negative beyond the bound
    near &= ok[:, None, None]
    near[:, ar, ar] = False
    tree_t, tree_j = np.nonzero(parent >= 0)
    near[tree_t, tree_j, parent[tree_t, tree_j]] = False
    ts, js, is_ = np.nonzero(near)
    pair_ints = _scaled_ints(np.stack([cost[ts, is_, cols[ts, js]], own[ts, js]], axis=1), e_mins[ts])
    for t, j, i, (c_ij, c_jj) in zip(ts.tolist(), js.tolist(), is_.tolist(), pair_ints):
        if ok[t] and c_ij - c_jj + potentials[t][i] - potentials[t][j] < 0:
            ok[t] = False
    return ok, potentials


def _tuples_within(budget: int, m: int) -> int:
    """How many (m, m) float64 matrices fit in budget bytes (at least one)."""
    return max(1, budget // (8 * m * m))


def _w1_batch(A: np.ndarray, B: np.ndarray) -> list:
    """Exact W1 between A[t] and B[t] for each t; A, B are (T, m, d) arrays of
    finite points (ValueError if a distance between them overflows)."""
    T, m, _ = A.shape
    step = _tuples_within(_CHUNK_BYTES, m)
    lo, hi = _COST_RANGE
    cost = np.empty((T, m, m))
    in_range = np.empty(T, dtype=bool)
    for s in range(0, T, step):
        with np.errstate(over="ignore"):
            part = _cost_matrices(A[s:s + step], B[s:s + step], out=cost[s:s + step])
        if not np.isfinite(part).all():
            raise ValueError("distances between points overflow float64")
        in_range[s:s + step] = ((part == 0) | ((part >= lo) & (part <= hi))).all(axis=(1, 2))
    trusted = np.flatnonzero(in_range)
    whole = len(trusted) == T
    cols = np.zeros((T, m), dtype=np.int64)
    certified = np.zeros(T, dtype=bool)
    potentials = [None] * T
    if len(trusted):
        cols[trusted] = _candidate_assignments(cost if whole else cost[trusted])
    for s in range(0, len(trusted), step):
        ts = trusted[s:s + step]
        ok, P = _certify(cost[s:s + step] if whole else cost[ts], cols[ts])
        certified[ts] = ok
        for t, P_t in zip(ts.tolist(), P):
            potentials[t] = P_t
    for t in np.flatnonzero(~certified).tolist():
        ints = _integer_costs(cost[t])
        if potentials[t] is None:
            cols[t] = _hungarian(ints)
        else:
            cols[t] = _repair(ints, cols[t].tolist(), potentials[t])
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
    return _w1_batch(A.points[None], B.points[None])[0]


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


def marginal_tuples(k: int, grid_points: int, x_tuples=None, num_tuples: int | None = None,
                    seed: int = DEFAULT_DIAGNOSTIC_SEED):
    """The (T, k, 2) grid-index tuples of a marginal distance, and the seed
    they were drawn from (None when x_tuples gives them)."""
    used_seed = None
    if x_tuples is None:
        T = DEFAULT_TUPLE_COUNTS[k] if num_tuples is None else int(num_tuples)
        x_tuples = draw_x_tuples(seed, T, k, grid_points)
        used_seed = seed
    tuples = np.asarray(x_tuples, dtype=np.int64)
    if tuples.ndim != 3 or tuples.shape[1] != k or tuples.shape[2] != 2:
        raise ValueError(f"x_tuples must have shape (T, {k}, 2), got {tuples.shape}")
    if tuples.size == 0:
        raise ValueError("at least one x-tuple is required")
    return tuples, used_seed


class TupleValues:
    """(m, T, k, 2) sample values at the grid nodes of (T, k, 2) index
    tuples, gathered from the m (M, M, 2) sample grids fed to add, in order."""

    def __init__(self, tuples: np.ndarray, m: int, grid_points: int):
        self.grid_points = grid_points
        self.tuples = tuples
        self.values = np.empty((m, *tuples.shape))
        self.count = 0
        self.finite = True

    def add(self, grid: np.ndarray) -> None:
        self.finite = self.finite and bool(np.isfinite(grid).all())
        self.values[self.count] = grid[self.tuples[..., 0], self.tuples[..., 1]]
        self.count += 1

    def clouds(self) -> np.ndarray:
        """(T, m, 2k) point clouds: the velocity at x_1, then at x_2, ...;
        ValueError if a grid fed had a non-finite value."""
        if not self.finite:
            raise ValueError("sampled velocity values contain non-finite entries")
        m, T, k, _ = self.values.shape
        return self.values.reshape(m, T, 2 * k).transpose(1, 0, 2)


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
    if not same_time(snapA.time, snapB.time):
        raise ValueError(f"snapshot times differ: {snapA.time} vs {snapB.time}")
    if snapA.m != snapB.m:
        raise ValueError(f"sample counts differ ({snapA.m} vs {snapB.m})")
    M = synthesis_grid(min(snapA.N, snapB.N)) if grid_points is None else int(grid_points)
    tuples, used_seed = marginal_tuples(k, M, x_tuples, num_tuples, seed)
    values_a, values_b = (TupleValues(tuples, snap.m, M) for snap in (snapA, snapB))
    feed(snapA.fields, [values_a])
    feed(snapB.fields, [values_b])
    return marginal_report(values_a, values_b, snapA, snapB, M, used_seed)


def marginal_report(values_a: TupleValues, values_b: TupleValues, snapA, snapB,
                    grid_points: int, seed: int | None) -> MarginalDistanceReport:
    """The marginal_w1 report from the values of two ensembles at the same
    tuples of an M-point grid; snapA and snapB are the snapshots or their
    headers, seed the one the tuples were drawn from (or None).

    A tuple drawn more than once has the same clouds each time, so each
    distinct tuple is solved once and its distance listed at every draw.
    """
    A, B = values_a.clouds(), values_b.clouds()
    tuples, M = values_a.tuples, grid_points
    T, k = tuples.shape[:2]
    _, first, inverse = np.unique(tuples.reshape(T, -1), axis=0, return_index=True, return_inverse=True)
    batch = _tuples_within(_BATCH_BYTES, snapA.m)
    solved = []
    for start in range(0, len(first), batch):
        rows = first[start:start + batch]
        solved.extend(_w1_batch(A[rows], B[rows]))
    dists = [solved[i] for i in inverse.reshape(-1).tolist()]
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
        seed=seed,
    )


def write_report_csv(report: MarginalDistanceReport, path) -> None:
    """CSV with one row per tuple and a trailing summary row."""
    header = (f"wasserstein_k{report.k}", report.time, report.N_a, report.N_b,
              report.m, report.num_x_tuples, report.seed, report.volume_factor)
    rows = [(*(c for xy in coords for c in xy), dist) for coords, dist in report.per_tuple]
    write_csv(path, header, rows + [("summary", report.value)])
