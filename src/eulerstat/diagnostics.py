"""Statistical diagnostics on ensemble snapshots.

Structure function. For a band-limited field the space-and-ball-averaged
squared increment has an exact modal form: with W(x) = 2 (1 - 2 J1(x)/x)
(J1 the Bessel function of the first kind, W(0) = 0),

    S(r)^2 = (1/m) sum_i (2 pi)^2 sum_k W(|k| r) |u_i(k)|^2
           = (1/m) sum_i int_D avg_{|h|<r} |u_i(x+h) - u_i(x)|^2 dh dx,

because the average of |exp(i k.h) - 1|^2 over the disk |h| < r is
W(|k| r). The kernel satisfies 0 <= W <= 4 and W(x) <= 4 min(x^2, 1).

Energy spectrum. E(K) = (1/m) sum_i (1/2) sum_{K-1 < |k| <= K} |u_i(k)|^2
with Euclidean shells; summing all shells recovers half the mean modal
energy. The compensated spectrum multiplies by K^gamma.

Scaling exponents are least-squares slopes in log-log coordinates.

Both curves are built from the mean modal power per |k|^2, a RadialPower
accumulator fed one sample at a time; structure_function and
energy_spectrum feed it from a snapshot's fields, and structure_curve and
spectrum_curve turn a fed one into a curve, so a caller streaming samples
computes the power once for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import EnsembleSnapshot, check_finite, mean_field, same_time, variance_field, write_csv
from .spectral import SpectralField, sobolev_norm, synthesis_grid, truncate_to, wavenumbers

__all__ = [
    "ScalarCurve",
    "ExponentFit",
    "increment_kernel",
    "default_r_grid",
    "default_fit_range",
    "RadialPower",
    "structure_function",
    "structure_curve",
    "energy_spectrum",
    "spectrum_curve",
    "compensated_spectrum",
    "fit_exponent",
    "cauchy_rate",
    "cauchy_rate_of",
    "time_regularity_ratio",
    "write_curve_csv",
]


@dataclass(frozen=True)
class ScalarCurve:
    """(abscissa, value) pairs with provenance metadata."""

    abscissa: np.ndarray
    values: np.ndarray
    kind: str = ""
    time: float = 0.0
    N: int = 0
    m: int = 0

    def __post_init__(self):
        a = np.asarray(self.abscissa, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if a.shape != v.shape or a.ndim != 1:
            raise ValueError("abscissa and values must be 1-d arrays of equal length")
        if np.any(a <= 0) or np.any(np.diff(a) <= 0):
            raise ValueError("abscissa must be positive and strictly increasing")
        a.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ExponentFit:
    """Log-log least-squares fit: values ~ exp(intercept) * abscissa^exponent."""

    exponent: float
    intercept: float
    fit_range: tuple
    residual: float


# Cephes j1.c coefficients (Moshier 1989), the ones scipy.special.j1 uses.
_J1_RP = (-8.99971225705559398224E8, 4.52228297998194034323E11,
          -7.27494245221818276015E13, 3.68295732863852883286E15)
_J1_RQ = (6.20836478118054335476E2, 2.56987256757748830383E5, 8.35146791431949253037E7,
          2.21511595479792499675E10, 4.74914122079991414898E12, 7.84369607876235854894E14,
          8.95222336184627338078E16, 5.32278620332680085395E18)
_J1_Z1 = 1.46819706421238932572E1
_J1_Z2 = 4.92184563216946036703E1
_J1_PP = (7.62125616208173112003E-4, 7.31397056940917570436E-2, 1.12719608129684925192E0,
          5.11207951146807644818E0, 8.42404590141772420927E0, 5.21451598682361504063E0,
          1.00000000000000000254E0)
_J1_PQ = (5.71323128072548699714E-4, 6.88455908754495404082E-2, 1.10514232634061696926E0,
          5.07386386128601488557E0, 8.39985554327604159757E0, 5.20982848682361821619E0,
          9.99999999999999997461E-1)
_J1_QP = (5.10862594750176621635E-2, 4.98213872951233449420E0, 7.58238284132545283818E1,
          3.66779609360150777800E2, 7.10856304998926107277E2, 5.97489612400613639965E2,
          2.11688757100572135698E2, 2.52070205858023719784E1)
_J1_QQ = (7.42373277035675149943E1, 1.05644886038262816351E3, 4.98641058337653607651E3,
          9.56231892404756170795E3, 7.99704160447350683650E3, 2.82619278517639096600E3,
          3.36093607810698293419E2)
_J1_THPIO4 = 2.35619449019234492885
_J1_SQ2OPI = 7.9788456080286535587989E-1


def _polevl(z, coef):
    """Cephes polevl: Horner's rule from the leading coefficient coef[0]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * z + c
    return ans


def _p1evl(z, coef):
    """Cephes p1evl: as _polevl with an implicit leading coefficient 1."""
    ans = z + coef[0]
    for c in coef[1:]:
        ans = ans * z + c
    return ans


def _j1(x) -> np.ndarray:
    """Bessel J1 by Cephes' rational approximations, operation for operation
    (bit-identical to scipy.special.j1; see test_j1_matches_scipy_bitwise)."""
    x = np.asarray(x, dtype=np.float64)
    neg = x < 0
    x = np.where(neg, -x, x)  # only x < 0 reflects, so -0.0 stays -0.0
    out = np.empty_like(x)
    near = x <= 5.0
    xs = x[near]
    z = xs * xs
    w = _polevl(z, _J1_RP) / _p1evl(z, _J1_RQ)
    out[near] = w * xs * (z - _J1_Z1) * (z - _J1_Z2)
    xl = x[~near]
    with np.errstate(invalid="ignore"):  # cos and sin of inf are nan, as in Cephes
        w = 5.0 / xl
        z = w * w
        p = _polevl(z, _J1_PP) / _polevl(z, _J1_PQ)
        q = _polevl(z, _J1_QP) / _p1evl(z, _J1_QQ)
        xn = xl - _J1_THPIO4
        p = p * np.cos(xn) - w * q * np.sin(xn)
        out[~near] = p * _J1_SQ2OPI / np.sqrt(xl)
    return np.where(neg, -out, out)


def increment_kernel(x) -> np.ndarray:
    """Disk average of |exp(i k.h) - 1|^2 over |h| < r, as a function of x = |k| r.

    W(x) = 2 (1 - 2 J1(x)/x), continued by W(0) = 0. A short series is used
    for small x to avoid cancellation. J1 is Cephes' rational approximation
    (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989)
    written in numpy, bit for bit the scipy.special.j1 that
    test_j1_matches_scipy_bitwise compares it with.
    """
    xx = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(xx)
    small = np.abs(xx) < 0.05
    xs = xx[small]
    x2 = xs * xs
    # W = x^2/4 - x^4/96 + x^6/4608 - ...
    out[small] = x2 / 4.0 - x2 * x2 / 96.0 + x2 * x2 * x2 / 4608.0
    xl = xx[~small]
    out[~small] = 2.0 * (1.0 - 2.0 * _j1(xl) / xl)
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def default_r_grid(N: int, count: int = 24) -> np.ndarray:
    """Logarithmically spaced correlation lengths in [2pi/(2N), pi/2]."""
    return np.geomspace(2.0 * np.pi / (2 * N), np.pi / 2.0, count)


def default_fit_range(N: int) -> tuple:
    """One decade of correlation lengths ending at 8 grid spacings."""
    r_max = 8.0 * 2.0 * np.pi / (2 * N)
    return (r_max / 10.0, r_max)


class RadialPower:
    """Modal power per integer |k|^2, summed over the N-mode sample fields
    fed to add, in order."""

    def __init__(self, N: int):
        _, _, ksq = wavenumbers(N)
        self.flat_ksq = ksq.ravel()
        self.total = np.zeros(int(self.flat_ksq.max()) + 1)
        self.count = 0

    def add(self, field: SpectralField) -> None:
        with np.errstate(over="ignore"):
            p = (np.abs(field.coeffs[0]) ** 2 + np.abs(field.coeffs[1]) ** 2).ravel()
            self.total += np.bincount(self.flat_ksq, weights=p, minlength=self.total.size)
        self.count += 1

    def mean(self, snapshot):
        """Mean modal power per populated |k|^2 > 0: (ksq values, powers).

        Raises ValueError naming the snapshot (or its header) when a shell
        power is not finite, as happens when finite coefficients overflow on
        squaring. structure_curve and spectrum_curve likewise reject sums of
        finite powers that overflow.
        """
        check_finite(self.total, "shell power", snapshot)
        acc = self.total / self.count
        nz = np.nonzero(acc)[0]
        nz = nz[nz > 0]
        return nz.astype(np.float64), acc[nz]


def _radial_power(snapshot: EnsembleSnapshot) -> RadialPower:
    acc = RadialPower(snapshot.N)
    for f in snapshot.fields:
        acc.add(f)
    return acc


def structure_function(snapshot: EnsembleSnapshot, r_values=None) -> ScalarCurve:
    """Ensemble structure function S(r) on the given correlation lengths."""
    return structure_curve(_radial_power(snapshot), snapshot, r_values)


def structure_curve(radial: RadialPower, snapshot, r_values=None) -> ScalarCurve:
    """S(r) from the radial power of a snapshot (or of its header, fed its samples)."""
    r = default_r_grid(snapshot.N) if r_values is None else np.asarray(r_values, np.float64)
    if np.any(r <= 0):
        raise ValueError("correlation lengths must be positive")
    ksq_vals, power = radial.mean(snapshot)
    kmag = np.sqrt(ksq_vals)
    W = increment_kernel(r[:, None] * kmag)
    s2 = np.empty(r.shape)
    with np.errstate(over="ignore"):
        for j, Wj in enumerate(W):  # one dot per r, so each s2[j] sums in the same order
            s2[j] = (2.0 * np.pi) ** 2 * np.dot(Wj, power)
    check_finite(s2, "structure function", snapshot)
    return ScalarCurve(
        abscissa=r,
        values=np.sqrt(np.maximum(s2, 0.0)),
        kind="structure",
        time=snapshot.time,
        N=snapshot.N,
        m=snapshot.m,
    )


def max_shell(N: int) -> int:
    """Largest shell index populated by modes with |k|_inf <= N."""
    return int(np.ceil(np.sqrt(2.0) * N))


def energy_spectrum(snapshot: EnsembleSnapshot, K_max: int | None = None) -> ScalarCurve:
    """Shell-averaged energy spectrum E(K), K = 1 .. K_max.

    Shell K collects modes with K-1 < |k| <= K (Euclidean modulus). The
    default K_max covers every populated shell, so that sum_K E(K) equals
    half the mean modal energy exactly.
    """
    return spectrum_curve(_radial_power(snapshot), snapshot, K_max)


def spectrum_curve(radial: RadialPower, snapshot, K_max: int | None = None) -> ScalarCurve:
    """E(K) from the radial power of a snapshot (or of its header, fed its samples)."""
    full = max_shell(snapshot.N)
    K_max = full if K_max is None else int(K_max)
    if K_max > full:
        raise ValueError(f"K_max={K_max} beyond the last populated shell {full}")
    ksq_vals, power = radial.mean(snapshot)
    shells = np.ceil(np.sqrt(ksq_vals)).astype(int)
    e = np.bincount(shells, weights=0.5 * power, minlength=full + 1)
    check_finite(e, "energy spectrum", snapshot)
    K = np.arange(1, K_max + 1, dtype=np.float64)
    return ScalarCurve(
        abscissa=K,
        values=e[1 : K_max + 1],
        kind="spectrum",
        time=snapshot.time,
        N=snapshot.N,
        m=snapshot.m,
    )


def compensated_spectrum(curve: ScalarCurve, gamma: float) -> ScalarCurve:
    """Multiply spectrum values by K^gamma."""
    return ScalarCurve(
        abscissa=curve.abscissa,
        values=curve.values * curve.abscissa ** gamma,
        kind=f"{curve.kind}_comp{gamma:g}",
        time=curve.time,
        N=curve.N,
        m=curve.m,
    )


def fit_exponent(curve: ScalarCurve, r_min: float, r_max: float) -> ExponentFit:
    """Least-squares power-law fit over abscissa values in [r_min, r_max]."""
    mask = (curve.abscissa >= r_min) & (curve.abscissa <= r_max)
    if np.count_nonzero(mask) < 3:
        raise ValueError(f"need >= 3 curve points in [{r_min:g}, {r_max:g}]")
    vals = curve.values[mask]
    if np.any(vals <= 0):
        raise ValueError("cannot fit a power law through nonpositive values")
    lx = np.log(curve.abscissa[mask])
    ly = np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return ExponentFit(
        exponent=float(slope),
        intercept=float(intercept),
        fit_range=(float(r_min), float(r_max)),
        residual=resid,
    )


def _modal_l2(diff_coeffs: np.ndarray) -> float:
    return float(2.0 * np.pi * np.sqrt(np.sum(np.abs(diff_coeffs) ** 2)))


def cauchy_rate(snapA: EnsembleSnapshot, snapB: EnsembleSnapshot, statistic="mean") -> float:
    """L2 distance of an ensemble statistic across one resolution doubling.

    snapB must have exactly twice the resolution of snapA at the same time.
    statistic is "mean", "variance", or an integer sample position. Mean and
    per-sample distances compare modal coefficients after truncating the
    fine field; the variance distance compares variance grids evaluated on
    the coarse synthesis grid. Raises ValueError if the rate is not finite.
    """
    if snapB.N != 2 * snapA.N:
        raise ValueError(f"resolution pair ({snapA.N}, {snapB.N}) is not a doubling")
    if not same_time(snapA.time, snapB.time):
        raise ValueError(f"snapshot times differ: {snapA.time} vs {snapB.time}")
    with np.errstate(over="ignore", invalid="ignore"):
        if statistic == "variance":
            M = synthesis_grid(snapA.N)
            fine, coarse = variance_field(snapB, M), variance_field(snapA, M)
        elif statistic == "mean":
            fine, coarse = mean_field(snapB), mean_field(snapA)
        else:
            j = int(statistic)
            fine, coarse = snapB.fields[j], snapA.fields[j]
    return cauchy_rate_of(fine, coarse, statistic, snapA)


def cauchy_rate_of(fine, coarse, statistic, snapA) -> float:
    """The Cauchy rate of cauchy_rate from the statistic of each ensemble:
    variance grids on the coarse synthesis grid, or fields. snapA is the
    coarse snapshot or its header."""
    with np.errstate(over="ignore", invalid="ignore"):
        if statistic == "variance":
            diff = fine - coarse
            rate = float(2.0 * np.pi * np.sqrt(np.mean(diff ** 2)))
        else:
            rate = _modal_l2(truncate_to(fine, snapA.N).coeffs - coarse.coeffs)
    check_finite(rate, f"{statistic} Cauchy rate", snapA)
    return rate


def time_regularity_ratio(trajectory, L: float = 2.0) -> float:
    """Max over consecutive snapshot pairs of the negative-Sobolev rate.

    trajectory is a sequence of (time, field) pairs of a single sample. The
    reported value is max |u(t)-u(s)|_{H^-L} / ((1 + |u0|_{L2}^2) |t-s|),
    with u0 the earliest field.
    """
    traj = sorted(trajectory, key=lambda p: p[0])
    if len(traj) < 2:
        raise ValueError("need at least two snapshots of the trajectory")
    u0 = traj[0][1]
    denom_base = 1.0 + sobolev_norm(u0, 0.0) ** 2
    worst = 0.0
    for (t0, f0), (t1, f1) in zip(traj, traj[1:]):
        dt = t1 - t0
        if dt <= 0:
            raise ValueError("snapshot times must be distinct")
        diff = SpectralField(f0.N, f1.coeffs - f0.coeffs)
        worst = max(worst, sobolev_norm(diff, -L) / (denom_base * dt))
    return worst


def write_curve_csv(curve: ScalarCurve, path) -> None:
    """CSV: header '# kind,time,N,m', then 'abscissa,value' rows (17 sig digits)."""
    write_csv(path, (curve.kind, curve.time, curve.N, curve.m), zip(curve.abscissa, curve.values))
