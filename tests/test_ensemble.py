import re

import numpy as np
import pytest

import eulerstat.ensemble as ens
from eulerstat.ensemble import (
    EnsembleSnapshot,
    RunManifest,
    fnv1a64,
    mean_field,
    read_snapshot,
    run_ensemble,
    variance_field,
    write_snapshot,
)
from eulerstat.errors import BlowUpError
from eulerstat.initial import InitialMeasureSpec, generate_sample
from eulerstat.solver import SolverParams
from eulerstat.spectral import SpectralField, l2_norm, sample_at_grid
from oracles import hermitian_random_field


def small_manifest(N=12, m=3, family="fbm", times=(0.0, 0.05), **spec_kw):
    spec = InitialMeasureSpec(family=family, N=N, base_seed=77, **spec_kw)
    return RunManifest(spec=spec, m=m, output_times=times, solver=SolverParams(N=N))


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


def test_run_single_sample_time_zero():
    manifest = small_manifest(m=1, times=(0.0,))
    snaps = run_ensemble(manifest)
    assert len(snaps) == 1 and snaps[0].m == 1
    expected = generate_sample(manifest.spec, 1)
    assert np.array_equal(snaps[0].fields[0].coeffs, expected.coeffs)


def test_run_deterministic_across_runs_and_workers():
    manifest = small_manifest(m=4)
    a = run_ensemble(manifest, workers=1)
    b = run_ensemble(manifest, workers=1)
    c = run_ensemble(manifest, workers=2)
    for s1, s2, s3 in zip(a, b, c):
        for f1, f2, f3 in zip(s1.fields, s2.fields, s3.fields):
            assert np.array_equal(f1.coeffs, f2.coeffs)
            assert np.array_equal(f1.coeffs, f3.coeffs)


def test_run_energy_decays_per_sample():
    manifest = small_manifest(N=16, m=3, family="flat_sheet", rho=0.1, delta=0.025,
                              times=(0.0, 0.4))
    snaps = run_ensemble(manifest)
    for f0, f1 in zip(snaps[0].fields, snaps[1].fields):
        assert l2_norm(f1) <= l2_norm(f0) * (1 + 1e-12)


def test_run_records_energy_history():
    manifest = small_manifest(m=2, times=(0.0, 0.02))
    energy = {}
    run_ensemble(manifest, energy_out=energy)
    assert set(energy) == {1, 2}
    t, e, d = energy[1][0]
    assert t == 0.0 and d == 0.0 and e > 0


def test_failed_sample_policy(monkeypatch):
    manifest = small_manifest(m=3)
    real = generate_sample

    def exploding(spec, i):
        if i == 2:
            c = np.full((2, 2 * spec.N + 1, 2 * spec.N + 1), 1e300, dtype=complex)
            return SpectralField(spec.N, c)
        return real(spec, i)

    monkeypatch.setattr(ens, "generate_sample", exploding)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            run_ensemble(manifest)
        assert err.value.sample_index == 2
        snaps = run_ensemble(manifest, tolerate_failures=True)
    assert snaps[0].m == 2 and snaps[0].sample_seeds == [1, 3]


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


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.euss"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError):
        read_snapshot(path)


def _damaged_copies(tmp_path):
    rng = np.random.default_rng(3)
    snap = snapshot_of([hermitian_random_field(4, rng) for _ in range(2)])
    good = tmp_path / "good.euss"
    write_snapshot(good, snap)
    raw = good.read_bytes()
    nan_body = bytearray(raw)
    nan_body[48:56] = np.array([np.nan], dtype="<f8").tobytes()  # first sample, first real part
    return {
        "short": raw[:4],
        "header_only": raw[:32],
        "cut_in_seed": raw[:36],
        "cut_in_body": raw[:-8],
        "extended": raw + b"\x00",
        "non_finite": bytes(nan_body),
    }


@pytest.mark.parametrize(
    "kind", ["short", "header_only", "cut_in_seed", "cut_in_body", "extended", "non_finite"]
)
def test_read_rejects_damaged_file(tmp_path, kind):
    path = tmp_path / f"{kind}.euss"
    path.write_bytes(_damaged_copies(tmp_path)[kind])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_snapshot(path)


def test_fnv1a64_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
