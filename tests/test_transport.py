import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerstat
from eulerstat import transport
from eulerstat.ensemble import EnsembleSnapshot
from eulerstat.initial import InitialMeasureSpec, generate_sample
from eulerstat.solver import SolverParams
from eulerstat.spectral import SpectralField, sample_at_grid
from eulerstat.transport import (
    PointCloud,
    draw_x_tuples,
    marginal_w1,
    w1_exact,
    write_report_csv,
)
from oracles import hermitian_random_field, w1_bruteforce


def snapshot_of(fields, time=0.0):
    N = fields[0].N
    return EnsembleSnapshot(
        time=time,
        N=N,
        fields=list(fields),
        sample_seeds=list(range(1, len(fields) + 1)),
        params=SolverParams(N=N),
    )


def test_w1_identical_clouds():
    rng = np.random.default_rng(0)
    A = PointCloud(rng.standard_normal((7, 3)))
    assert w1_exact(A, A) == 0.0


def test_w1_single_point_is_euclidean():
    A = PointCloud(np.array([[0.0, 0.0]]))
    B = PointCloud(np.array([[3.0, 4.0]]))
    assert abs(w1_exact(A, B) - 5.0) < 1e-15


def test_w1_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((m, d))
        B = rng.standard_normal((m, d))
        assert w1_exact(PointCloud(A), PointCloud(B)) == w1_bruteforce(A, B)


def test_w1_metric_axioms():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pts = [PointCloud(rng.standard_normal((5, 3))) for _ in range(3)]
        A, B, C = pts
        assert abs(w1_exact(A, B) - w1_exact(B, A)) < 1e-12
        assert w1_exact(A, C) <= w1_exact(A, B) + w1_exact(B, C) + 1e-12
        assert w1_exact(A, A) == 0.0


def test_w1_translation_and_scaling():
    rng = np.random.default_rng(3)
    A = PointCloud(rng.standard_normal((6, 2)))
    B = PointCloud(rng.standard_normal((6, 2)))
    base = w1_exact(A, B)
    shift = np.array([2.0, -1.0])
    assert abs(w1_exact(PointCloud(A.points + shift), PointCloud(B.points + shift)) - base) < 1e-12
    assert abs(w1_exact(PointCloud(2.5 * A.points), PointCloud(2.5 * B.points)) - 2.5 * base) < 1e-12


def test_w1_size_mismatch_rejected():
    A = PointCloud(np.zeros((3, 2)))
    B = PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        w1_exact(A, B)


def test_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0.0]]))


def test_marginal_identical_ensembles():
    rng = np.random.default_rng(4)
    snap = snapshot_of([hermitian_random_field(8, rng) for _ in range(4)])
    report = marginal_w1(snap, snap, 1, num_tuples=16)
    assert report.value == 0.0
    assert all(d == 0.0 for _, d in report.per_tuple)


def test_marginal_m1_reduces_to_pointwise_distance():
    rng = np.random.default_rng(5)
    u = hermitian_random_field(8, rng)
    v = hermitian_random_field(8, rng)
    a, b = snapshot_of([u]), snapshot_of([v])
    report = marginal_w1(a, b, 1, num_tuples=64)
    M = 3 * 8
    gu, gv = sample_at_grid(u, M), sample_at_grid(v, M)
    dists = []
    for (coords, dist) in report.per_tuple:
        (x1, x2), = coords
        i1 = round(x1 * M / (2 * np.pi)) % M
        i2 = round(x2 * M / (2 * np.pi)) % M
        expect = float(np.linalg.norm(gu[i1, i2] - gv[i1, i2]))
        assert abs(dist - expect) < 1e-12
        dists.append(expect)
    assert abs(report.value - (2 * np.pi) ** 2 * np.mean(dists)) < 1e-12


def test_marginal_dirac_closed_form():
    # transporting to a point mass costs the mean distance to it
    rng = np.random.default_rng(6)
    fields = [hermitian_random_field(8, rng) for _ in range(6)]
    mean = SpectralField(8, sum(f.coeffs for f in fields) / 6)
    a = snapshot_of(fields)
    b = snapshot_of([mean] * 6)
    report = marginal_w1(a, b, 1, num_tuples=32)
    M = 3 * 8
    vals = np.stack([sample_at_grid(f, M) for f in fields])
    gm = sample_at_grid(mean, M)
    for (coords, dist) in report.per_tuple:
        (x1, x2), = coords
        i1 = round(x1 * M / (2 * np.pi)) % M
        i2 = round(x2 * M / (2 * np.pi)) % M
        closed = float(np.mean(np.linalg.norm(vals[:, i1, i2, :] - gm[i1, i2], axis=1)))
        assert abs(dist - closed) < 1e-12


def test_marginal_k_validation_and_mismatches():
    rng = np.random.default_rng(7)
    snap = snapshot_of([hermitian_random_field(8, rng) for _ in range(3)])
    with pytest.raises(ValueError):
        marginal_w1(snap, snap, 4)
    other_time = snapshot_of([hermitian_random_field(8, rng) for _ in range(3)], time=1.0)
    with pytest.raises(ValueError):
        marginal_w1(snap, other_time, 1)
    fewer = snapshot_of([hermitian_random_field(8, rng) for _ in range(2)])
    with pytest.raises(ValueError):
        marginal_w1(snap, fewer, 1)


def test_marginal_k2_stacks_pairs():
    rng = np.random.default_rng(8)
    a = snapshot_of([hermitian_random_field(8, rng) for _ in range(3)])
    b = snapshot_of([hermitian_random_field(8, rng) for _ in range(3)])
    report = marginal_w1(a, b, 2, num_tuples=8)
    assert report.k == 2 and report.num_x_tuples == 8
    assert abs(report.volume_factor - (2 * np.pi) ** 4) < 1e-9
    coords, _ = report.per_tuple[0]
    assert len(coords) == 2


def test_tuple_draw_deterministic():
    t1 = draw_x_tuples(99, 16, 2, 24)
    t2 = draw_x_tuples(99, 16, 2, 24)
    assert np.array_equal(t1, t2)
    assert t1.shape == (16, 2, 2) and t1.min() >= 0 and t1.max() < 24


def test_report_csv(tmp_path):
    rng = np.random.default_rng(9)
    a = snapshot_of([hermitian_random_field(6, rng) for _ in range(2)])
    b = snapshot_of([hermitian_random_field(6, rng) for _ in range(2)])
    report = marginal_w1(a, b, 1, num_tuples=4)
    path = tmp_path / "w.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# wasserstein_k1,")
    assert len(lines) == 1 + 4 + 1
    assert lines[-1].split(",")[0] == "summary"
    assert float(lines[-1].split(",")[1]) == report.value


def hungarian_w1(A, B):
    """Reference: the integer Hungarian on the whole cost matrix."""
    diff = A[:, None, :] - B[None, :, :]
    cost = np.sqrt(np.sum(diff * diff, axis=2))
    cols = transport._hungarian(transport._integer_costs(cost))
    return math.fsum(cost[np.arange(len(A)), cols]) / len(A)


def integer_total(cost, cols):
    ints = transport._integer_costs(cost)
    return sum(ints[i][c] for i, c in enumerate(cols))


def count_fallbacks(monkeypatch):
    """Record the size of every cold-start `_hungarian` call (a repair's
    warm-started call is not a fallback)."""
    calls = []
    real = transport._hungarian

    def counted(cost_int, warm=None):
        if warm is None:
            calls.append(len(cost_int))
        return real(cost_int, warm)

    monkeypatch.setattr(transport, "_hungarian", counted)
    return calls


@st.composite
def tied_clouds(draw):
    """Small clouds with exact ties: duplicate points in A, in B or in both,
    all points equal, or points on an integer lattice (equal distances)."""
    m = draw(st.integers(1, 7))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["dup_a", "dup_b", "dup_both", "all_equal", "lattice"]))
    if kind == "lattice":
        coord = st.integers(-2, 2).map(float)
    else:
        coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    point = st.lists(coord, min_size=d, max_size=d)
    A = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    B = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    if kind == "all_equal":
        A[:] = A[0]
        B[:] = A[0]
    if kind in ("dup_a", "dup_both"):
        A = A[draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
    if kind in ("dup_b", "dup_both"):
        B = B[draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
    return A, B


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_clouds())
def test_w1_with_ties_matches_bruteforce(clouds):
    A, B = clouds
    assert w1_exact(PointCloud(A), PointCloud(B)) == w1_bruteforce(A, B)


def test_certificate_accepts_optimum_and_rejects_swap():
    rng = np.random.default_rng(10)
    for m, dup in ((6, False), (9, False), (9, True), (16, True)):
        A = rng.standard_normal((m, 2))
        B = rng.standard_normal((m, 2))
        if dup:
            A[1], B[2] = A[0], B[0]
        cost = transport._cost_matrices(A[None], B[None])
        best = transport._hungarian(transport._integer_costs(cost[0]))
        assert transport._certify(cost, np.array([best]))[0].tolist() == [True]
        worse = None
        for i in range(m):
            for j in range(i):
                cols = list(best)
                cols[i], cols[j] = cols[j], cols[i]
                if integer_total(cost[0], cols) > integer_total(cost[0], best):
                    worse = cols
                    break
            if worse:
                break
        assert transport._certify(cost, np.array([worse]))[0].tolist() == [False]


def test_certificate_checks_near_zero_reduced_costs_exactly():
    # The identity costs 2 + 2^-60, the swap 2. In doubles 1 - 2^-60 rounds
    # to 1, so the losing exchange cycle weighs 0 in float arithmetic and
    # only the exact integer check can see that it is negative.
    cost = np.array([[[2.0 ** -60, 1.0], [1.0, 2.0]]])
    assert transport._certify(cost, np.array([[0, 1]]))[0].tolist() == [False]
    assert transport._certify(cost, np.array([[1, 0]]))[0].tolist() == [True]


def test_certificate_rejects_bellman_ford_parent_cycle(monkeypatch):
    # On rows 0 and 1 the identity costs 2, the swap 2 - 2^-53; row 2 sits
    # apart. Bellman-Ford relaxes row 0 through row 1 to -2^-53, and
    # -2^-53 - 1 rounds back to -1, so the float iteration settles with
    # each of rows 0 and 1 the other's parent.
    cost = np.array([[[0.0, 1.0, 10.0], [1.0 - 2.0 ** -53, 2.0, 10.0], [10.0, 10.0, 0.0]]])
    tree_calls = []
    real = transport._tree_potentials

    def spied(*args):
        tree_calls.append(real(*args))
        return tree_calls[-1]

    monkeypatch.setattr(transport, "_tree_potentials", spied)
    assert transport._certify(cost, np.array([[0, 1, 2]]))[0].tolist() == [False]
    assert tree_calls == [None]
    assert transport._certify(cost, np.array([[1, 0, 2]]))[0].tolist() == [True]


def test_certificate_rejects_non_permutation():
    # every row on one column: each exchange cycle weighs exactly 0
    rng = np.random.default_rng(11)
    cost = transport._cost_matrices(rng.standard_normal((1, 5, 2)), rng.standard_normal((1, 5, 2)))
    assert transport._certify(cost, np.zeros((1, 5), dtype=np.int64))[0].tolist() == [False]


def test_generic_clouds_never_fall_back(monkeypatch):
    rng = np.random.default_rng(12)
    clouds = [(rng.standard_normal((32, 2)), rng.standard_normal((32, 2))) for _ in range(50)]
    expected = [hungarian_w1(A, B) for A, B in clouds]
    calls = count_fallbacks(monkeypatch)
    assert [w1_exact(PointCloud(A), PointCloud(B)) for A, B in clouds] == expected
    assert calls == []


def test_failed_candidate_is_repaired_without_fallback(monkeypatch):
    # On a line with every B right of every A, all assignments cost the same
    # in real arithmetic, so only the rounding of the float costs tells them
    # apart. The float candidate misses the optimum by an ulp: its float
    # reduced costs lie within the rounding bound, and the exact check fails.
    A = np.array([[0.3405254255300457], [-0.10857977740435112], [-0.10857977740435112]])
    B = np.array([[1.7564114701292186], [0.6585507878644343], [0.424056492220449]])
    cost = transport._cost_matrices(A[None], B[None])
    candidate = transport._candidate_assignments(cost)
    ok, potentials = transport._certify(cost, candidate)
    assert ok.tolist() == [False] and potentials[0] is not None
    assert math.fsum(cost[0, np.arange(3), candidate[0]]) / 3 != w1_bruteforce(A, B)
    repaired = []
    real = transport._repair

    def spied(*args):
        repaired.append(real(*args))
        return repaired[-1]

    monkeypatch.setattr(transport, "_repair", spied)
    calls = count_fallbacks(monkeypatch)
    value = w1_exact(PointCloud(A), PointCloud(B))
    assert calls == [] and len(repaired) == 1
    assert transport._certify(cost, np.array(repaired))[0].tolist() == [True]
    assert value == hungarian_w1(A, B) == w1_bruteforce(A, B)


def test_cost_matrices_match_numpy_sum():
    rng = np.random.default_rng(13)
    for d in range(0, 10):
        A = rng.standard_normal((3, 9, d)) * rng.uniform(0.1, 10.0, size=d)
        B = rng.standard_normal((3, 9, d))
        cost = transport._cost_matrices(A, B)
        for t in range(3):
            diff = A[t][:, None, :] - B[t][None, :, :]
            assert cost[t].tobytes() == np.sqrt(np.sum(diff * diff, axis=2)).tobytes()


def test_extreme_scales_match_bruteforce(monkeypatch):
    # inside the certified cost range the certificate decides; outside it
    # every tuple goes to the integer Hungarian
    calls = count_fallbacks(monkeypatch)
    rng = np.random.default_rng(14)
    A = rng.standard_normal((6, 2))
    B = rng.standard_normal((6, 2))
    for exponent, falls_back in ((-300, False), (300, False), (-450, True), (450, True)):
        del calls[:]
        sA, sB = np.ldexp(A, exponent), np.ldexp(B, exponent)
        assert w1_exact(PointCloud(sA), PointCloud(sB)) == w1_bruteforce(sA, sB)
        assert (calls != []) == falls_back


def rough_sheet_snapshot(N, m, seed):
    spec = InitialMeasureSpec(family="flat_sheet", N=N, rho=0.0, delta=0.025, base_seed=seed)
    return snapshot_of([generate_sample(spec, i) for i in range(1, m + 1)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_marginal_matches_integer_hungarian_on_rough_sheet(k):
    # rho = 0 sheets sampled at grid nodes repeat whole fields, so every
    # cloud holds duplicate points
    a = rough_sheet_snapshot(8, 16, 1)
    b = rough_sheet_snapshot(16, 16, 2)
    report = marginal_w1(a, b, k, num_tuples=12)
    M = 24
    valsA = np.stack([sample_at_grid(f, M) for f in a.fields])
    valsB = np.stack([sample_at_grid(f, M) for f in b.fields])
    tuples = draw_x_tuples(transport.DEFAULT_DIAGNOSTIC_SEED, 12, k, M)
    duplicates = 0
    for tup, (_, dist) in zip(tuples, report.per_tuple):
        A = np.concatenate([valsA[:, i1, i2, :] for i1, i2 in tup], axis=1)
        B = np.concatenate([valsB[:, i1, i2, :] for i1, i2 in tup], axis=1)
        duplicates += len(np.unique(A, axis=0)) < len(A)
        assert dist == hungarian_w1(A, B)
    assert duplicates > 0


def test_marginal_chunks_do_not_change_values(monkeypatch):
    rng = np.random.default_rng(15)
    a = snapshot_of([hermitian_random_field(6, rng) for _ in range(5)])
    b = snapshot_of([hermitian_random_field(6, rng) for _ in range(5)])
    whole = marginal_w1(a, b, 2, num_tuples=10)
    monkeypatch.setattr(transport, "_CHUNK_BYTES", 3 * 8 * 5 * 5)
    chunked = marginal_w1(a, b, 2, num_tuples=10)
    assert chunked.per_tuple == whole.per_tuple
    assert chunked.value == whole.value


@pytest.mark.parametrize("batch", [1, 3, 10])
@pytest.mark.parametrize("slice_", [1, 3, 10])
def test_marginal_batch_and_slice_sizes_do_not_change_values(monkeypatch, batch, slice_):
    # T = 10 tuples per candidate batch and per certificate slice: one tuple,
    # a non-divisor of T, or all of them
    rng = np.random.default_rng(15)
    a = snapshot_of([hermitian_random_field(6, rng) for _ in range(5)])
    b = snapshot_of([hermitian_random_field(6, rng) for _ in range(5)])
    whole = marginal_w1(a, b, 2, num_tuples=10)
    tuple_bytes = 8 * 5 * 5
    monkeypatch.setattr(transport, "_BATCH_BYTES", batch * tuple_bytes)
    monkeypatch.setattr(transport, "_CHUNK_BYTES", slice_ * tuple_bytes)
    parts = marginal_w1(a, b, 2, num_tuples=10)
    assert parts.per_tuple == whole.per_tuple
    assert parts.value == whole.value


def test_repeated_tuple_is_solved_once(monkeypatch):
    # Tuples 1 and 3 are one node: its W1 is solved once and listed twice,
    # and the report is the one of solving every tuple on its own.
    rng = np.random.default_rng(19)
    a = snapshot_of([hermitian_random_field(6, rng) for _ in range(7)])
    b = snapshot_of([hermitian_random_field(6, rng) for _ in range(7)])
    x_tuples = np.array([[[0, 1]], [[5, 2]], [[3, 3]], [[5, 2]], [[17, 9]]])
    solved = []
    w1_batch = transport._w1_batch
    monkeypatch.setattr(transport, "_w1_batch", lambda A, B: solved.append(len(A)) or w1_batch(A, B))
    report = marginal_w1(a, b, 1, x_tuples=x_tuples)
    assert sum(solved) == 4
    monkeypatch.undo()
    alone = [marginal_w1(a, b, 1, x_tuples=x_tuples[t:t + 1]) for t in range(len(x_tuples))]
    assert report.per_tuple == tuple(r.per_tuple[0] for r in alone)
    dists = [r.per_tuple[0][1] for r in alone]
    assert report.value == report.volume_factor * float(np.mean(dists))
    assert report.per_tuple[1][1] == report.per_tuple[3][1]


def test_marginal_memory_is_bounded_by_batch_and_slices():
    # m = 64, 256 tuples: two candidate stacks of _BATCH_BYTES, each
    # certified in slices of _CHUNK_BYTES, of which the certificate holds
    # three at a time. Beyond these only the sample values at the tuples
    # (for both ensembles) and the certificate's masks and integer lists
    # may be live; a full-size temporary of the stack would not fit.
    m, T = 64, 256
    rng = np.random.default_rng(17)
    a = snapshot_of([hermitian_random_field(4, rng) for _ in range(m)])
    b = snapshot_of([hermitian_random_field(4, rng) for _ in range(m)])
    marginal_w1(a, b, 1, num_tuples=8)
    tracemalloc.start()
    try:
        marginal_w1(a, b, 1, num_tuples=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = 2 * m * T * 2 * 8
    assert peak <= transport._BATCH_BYTES + 3 * transport._CHUNK_BYTES + values + (1 << 20)


def test_w1_dimension_and_finiteness_checks():
    with pytest.raises(ValueError, match="dimensions differ"):
        w1_exact(PointCloud(np.zeros((3, 2))), PointCloud(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="sizes differ"):
        w1_exact(PointCloud(np.zeros((3, 2))), PointCloud(np.zeros((4, 2))))
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError, match="overflow"):           # finite points, infinite distance
        w1_exact(PointCloud(np.array([[1e200, 0.0]])), PointCloud(np.array([[-1e200, 0.0]])))


def test_marginal_rejects_non_finite_values():
    rng = np.random.default_rng(16)
    good = [hermitian_random_field(6, rng) for _ in range(3)]
    coeffs = np.array(good[0].coeffs)
    coeffs[0] = np.nan
    bad = [SpectralField(6, coeffs)] + good[1:]
    with pytest.raises(ValueError, match="non-finite"):
        marginal_w1(snapshot_of(good), snapshot_of(bad), 1, num_tuples=4)


def test_w1_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(eulerstat.__file__))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from eulerstat.ensemble import EnsembleSnapshot\n"
        "from eulerstat.solver import SolverParams\n"
        "from eulerstat.spectral import SpectralField\n"
        "from eulerstat.transport import PointCloud, marginal_w1, w1_exact\n"
        "rng = np.random.default_rng(0)\n"
        "w1_exact(PointCloud(rng.standard_normal((8, 2))), PointCloud(rng.standard_normal((8, 2))))\n"
        "f = [SpectralField(4, rng.standard_normal((2, 9, 9)) + 0j) for _ in range(3)]\n"
        "s = EnsembleSnapshot(time=0.0, N=4, fields=f, sample_seeds=[1, 2, 3], params=SolverParams(N=4))\n"
        "marginal_w1(s, s, 2, num_tuples=4)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
