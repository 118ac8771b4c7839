"""Output checks that hold for every seed.

The checks read the files `eulerstat run` and `eulerstat diagnose` wrote,
with a reader of their own (the EUSS layout and the CSV formats documented
in the README), so a fault in the program's reader cannot hide a fault in
its writer. Each check returns (name, ok, detail); the benchmark counts
each one as an operation.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

# |E + D - E0| / E0 over a run. The seeded workloads sit near 1e-5 (time
# stepping error); 1e-3 leaves room for any sound scheme and none for a
# broken ledger.
ENERGY_RESIDUAL_BOUND = 1e-3
# max_k |k . u(k)| relative to the sample's L2 norm, as the program's tests
# require of evolved fields.
DIVERGENCE_BOUND = 1e-10
# sum_K E(K) against half the mean modal energy: both sum the same squares.
SPECTRUM_RTOL = 1e-9

_HEADER = struct.Struct("<4sIIIdQ")


class CheckError(ValueError):
    pass


def read_euss(path) -> tuple[int, float, np.ndarray]:
    """(N, time, coefficients of shape (m, 2, 2N+1, 2N+1)) of a snapshot."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CheckError(f"{path}: {len(data)} bytes, shorter than the header")
    magic, version, N, m, time, _ = _HEADER.unpack_from(data)
    if magic != b"EUSS" or version != 1:
        raise CheckError(f"{path}: bad magic {magic!r} or version {version}")
    K = 2 * N + 1
    record = np.dtype([("seed", "<u8"), ("c", "<f8", (K, K, 2, 2))])
    if len(data) != _HEADER.size + m * record.itemsize:
        raise CheckError(f"{path}: {len(data)} bytes, header promises m={m} samples of N={N}")
    c = np.frombuffer(data, dtype=record, offset=_HEADER.size)["c"]
    coeffs = (c[..., 0] + 1j * c[..., 1]).transpose(0, 3, 1, 2)
    return N, time, coeffs


def check_snapshot(path) -> tuple[str, bool, str]:
    name = f"snapshot {Path(path).name}"
    try:
        N, _, coeffs = read_euss(path)
    except CheckError as exc:
        return name, False, str(exc)
    if not np.all(np.isfinite(coeffs)):
        return name, False, "non-finite coefficients"
    k = np.arange(-N, N + 1, dtype=np.float64)
    div = np.abs(k[:, None] * coeffs[:, 0] + k[None, :] * coeffs[:, 1]).max(axis=(1, 2))
    l2 = 2.0 * np.pi * np.sqrt((np.abs(coeffs) ** 2).sum(axis=(1, 2, 3)))
    worst = float(np.max(div / np.maximum(1.0, l2)))
    return name, worst <= DIVERGENCE_BOUND, f"max relative divergence {worst:.3g}"


def energy_residual(path) -> float:
    """max_t |E + D - E0| / E0 of an energy CSV; NaN when a row is not finite."""
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if rows.shape[0] < 2 or rows.shape[1] != 3:
        raise CheckError(f"{path}: expected at least two (t, E, D) rows")
    E0 = rows[0, 1]
    res = np.abs(rows[:, 1] + rows[:, 2] - E0) / E0
    return float(res.max()) if np.all(np.isfinite(rows)) else math.nan


def check_energy(path) -> tuple[str, bool, str, float]:
    name = f"energy {Path(path).name}"
    try:
        res = energy_residual(path)
    except (CheckError, ValueError) as exc:
        return name, False, str(exc), math.nan
    ok = math.isfinite(res) and res < ENERGY_RESIDUAL_BOUND
    return name, ok, f"residual {res:.3g}", res


def check_spectrum(spectrum_csv, snapshot) -> tuple[str, bool, str]:
    """sum_K E(K) equals half the mean modal energy of the snapshot."""
    name = f"spectrum {Path(spectrum_csv).name}"
    try:
        with open(spectrum_csv, encoding="utf-8") as fh:
            kind = fh.readline().lstrip("# ").split(",")[0]
        gamma = float(kind.split("_comp", 1)[1]) if "_comp" in kind else 0.0
        rows = np.loadtxt(spectrum_csv, delimiter=",", comments="#", ndmin=2)
        _, _, coeffs = read_euss(snapshot)
    except (OSError, ValueError) as exc:
        return name, False, str(exc)
    total = float(np.sum(rows[:, 1] / rows[:, 0] ** gamma))
    expected = 0.5 * float((np.abs(coeffs) ** 2).sum()) / coeffs.shape[0]
    rel = abs(total - expected) / expected if expected > 0 else math.inf
    return name, rel <= SPECTRUM_RTOL, f"relative mismatch {rel:.3g}"


def check_wasserstein(path) -> tuple[str, bool, str]:
    """Every per-tuple W1 and the summary are finite and nonnegative."""
    name = f"wasserstein {Path(path).name}"
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                values.append(line.rstrip("\n").rsplit(",", 1)[-1])
    try:
        vals = np.array(values, dtype=np.float64)
    except ValueError as exc:
        return name, False, str(exc)
    ok = vals.size >= 2 and bool(np.all(np.isfinite(vals))) and bool(np.all(vals >= 0))
    return name, ok, f"{vals.size} values, min {vals.min() if vals.size else math.nan:.3g}"


def snapshot_digests(out_dir) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).glob("*.euss"))
    }


def check_same_bytes(name, expected: dict, actual: dict) -> tuple[str, bool, str]:
    differ = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    return name, bool(expected) and not differ, f"differing: {differ}" if differ else "identical"


def check_outputs(out_dir, wasserstein: bool):
    """All checks on one run + diagnose output directory.

    Returns (results, largest finite energy residual); a non-finite
    ledger fails its check and leaves the residual at 1.
    """
    out = Path(out_dir)
    results = []
    residuals = []
    energy = sorted(out.glob("*_energy.csv"))
    snaps = sorted(out.glob("*.euss"))
    if not energy or not snaps:
        results.append(("outputs present", False, f"{len(energy)} energy CSVs, {len(snaps)} snapshots"))
    for path in energy:
        name, ok, detail, res = check_energy(path)
        results.append((name, ok, detail))
        residuals.append(res if math.isfinite(res) else 1.0)
    for snap in snaps:
        results.append(check_snapshot(snap))
        results.append(check_spectrum(out / f"{snap.stem}_spectrum.csv", snap))
    if wasserstein:
        wass = sorted(out.glob("*_wass*.csv"))
        if not wass:
            results.append(("wasserstein present", False, "no W1 report written"))
        results.extend(check_wasserstein(p) for p in wass)
    return results, max(residuals, default=1.0)
