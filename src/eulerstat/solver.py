"""Spectral hyper-viscosity scheme for the 2D incompressible Euler equations.

The semi-discrete system for the modal coefficients u(k), |k|_inf <= N, is

    du(k)/dt = -i k . (I - k k^T/|k|^2) (u x u)(k) - lam(k) u(k),

where the quadratic term is evaluated pseudo-spectrally on a padded grid
and lam(k) = eps N Q(|k|) (|k|^2/N^2)^s = eps N^(1-2s) Q(|k|) |k|^(2s)
is a high-mode-only damping: Q vanishes below a cutoff m_N and rises to
at most 1 above it, so the resolved large scales see no dissipation at
all. The power (|k|^2/N^2)^s is at most 2^s, so no rate overflows.

Two multiplier profiles are provided:

- "standard" (default): Q(|k|) = max(0, 1 - N/|k|^2), active above sqrt(N);
  with s=1 and eps_N = eps/N the damping rate is (eps/N) max(|k|^2 - N, 0).
- "power": Q(|k|) = 1 - (m_N/|k|)^((2s-1)/theta) above m_N, clipped to [0,1].

Time stepping is the three-stage Shu-Osher SSP-RK3 with an adaptive step
from a CFL bound on the padded grid plus an explicit-diffusion bound.

The stages work on the k2 >= 0 half plane of the coefficients: each RHS
synthesizes the velocity on the padded grid with real inverse FFTs, forms
a = (u1^2 - u2^2)/2 and b = u1 u2 there and analyzes them with real
forward FFTs (see spectral). u x u is [[a, b], [b, -a]] plus |u|^2/2 I, a
gradient that the Leray projection removes (Basdevant 1983, J. Comput.
Phys. 50). The result is rebuilt as an exactly Hermitian array once per
step, with no re-projection. evolve synthesizes the padded velocity once
per step and uses that grid for both max|u| in the step bound and the
first RK stage; it reports through one hook, on_step, after every step.

An RK step allocates no padded-grid-sized array. Each SolverParams has
one set of buffers in the _workspace cache (two params at most): the
padded velocity grid and its synthesis rows, a and b (also |u|^2 for the
step bound) and their real spectrum. At N = 128 a set takes 8.9 MiB, at
N = 512 142 MiB. The modal-size arrays of the RHS (the gathered modes,
the divergence terms, the stage fields) are still allocated. A
synthesized grid is valid only until the next synthesis with the same
params; rhs, step and evolve return fresh arrays. Two threads must not
call rhs, step, adaptive_dt or evolve at once in one process: calls with
equal params share one buffer set.

The padded grid has M points per axis, the smallest 5-smooth M >= 3N+1
(padded_grid; 50, 100, 200, 400 for N = 16, 32, 64, 128): products reach
|k|_inf = 2N, which folds onto 2N - M <= -N-1, outside the retained band,
so the nonlinear term is alias-free (Orszag 1971, J. Atmos. Sci. 28).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BlowUpError
from .spectral import SpectralField, _analyze_half, _full_plane, _synthesize, modal_energy, wavenumbers

__all__ = [
    "SolverParams",
    "EnergyLedger",
    "multiplier_profile",
    "damping_rates",
    "rhs",
    "adaptive_dt",
    "step",
    "evolve",
]

# Real-axis stability interval of third-order explicit RK is ~[-2.51, 0];
# the viscous step bound uses 2.5.
_RK3_REAL_STABILITY = 2.5

# Recorded in every manifest; bumped when equal parameters start to give other bits.
SCHEME_VERSION = 2


@dataclass(frozen=True)
class SolverParams:
    """Scheme parameters.

    N : modal cutoff (grid scale 1/N)
    s : hyper-viscosity order (>= 1)
    eps : dissipation amplitude; the damping is eps N Q(|k|) (|k|^2/N^2)^s
    m_n : dissipation-free cutoff for the "power" profile (default floor(sqrt(N)))
    multiplier : "standard" or "power"
    theta : cutoff-growth exponent of the "power" profile
            (default 0.9 * (2s-1)/(2s))
    cfl : Courant number for the advective step bound
    visc_safety : safety factor for the explicit-diffusion step bound
    """

    N: int
    s: int = 1
    eps: float = 1.0 / 20.0
    m_n: float | None = None
    multiplier: str = "standard"
    theta: float | None = None
    cfl: float = 0.5
    visc_safety: float = 0.9

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.s < 1 or int(self.s) != self.s:
            raise ValueError("s must be an integer >= 1")
        if self.multiplier not in ("standard", "power"):
            raise ValueError(f"unknown multiplier profile {self.multiplier!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.theta is not None and not self.theta > 0:
            raise ValueError("theta must be positive")
        if self.m_n is not None and self.m_n < 0:
            raise ValueError("m_n must be nonnegative")
        if self.cfl < 0:
            raise ValueError("cfl must be nonnegative")
        if self.cfl == 0 and not (self.eps > 0 and math.sqrt(2 * self.N**2) > self.cutoff):
            raise ValueError("cfl = 0 needs damping (eps > 0, cutoff below N sqrt(2)) to bound dt")
        if not self.visc_safety > 0:
            raise ValueError("visc_safety must be positive")
        # The largest damping rate is at most eps N 2^s (|k|^2 = 2N^2, Q <= 1);
        # an infinite one gives infinite or (times eps = 0) NaN rates.
        if self.s > 1023 or not math.isfinite(self.eps * self.N * 2.0**self.s):
            raise ValueError(f"s = {self.s} is too large: eps N 2^s leaves the float range")

    @property
    def cutoff(self) -> float:
        """Wavenumber below which no dissipation acts."""
        if self.multiplier == "standard":
            return math.sqrt(self.N)
        return float(self.m_n) if self.m_n is not None else float(math.floor(math.sqrt(self.N)))

    @property
    def theta_resolved(self) -> float:
        if self.theta is not None:
            return float(self.theta)
        return 0.9 * (2 * self.s - 1) / (2 * self.s)

    @property
    def padded_grid(self) -> int:
        """M, the smallest 5-smooth (no prime factor above 5) integer >= 3N+1."""
        M = 3 * self.N + 1
        while pow(30, M, M):  # 0 iff M divides 30^M, i.e. M is 5-smooth
            M += 1
        return M


def multiplier_profile(params: SolverParams) -> np.ndarray:
    """Q(|k|) on the modal square: zero below the cutoff, in [0, 1] above."""
    _, _, ksq = wavenumbers(params.N)
    kmag = np.sqrt(ksq.astype(np.float64))
    if params.multiplier == "standard":
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 1.0 - params.N / np.where(ksq == 0, 1.0, ksq.astype(np.float64))
        return np.maximum(q, 0.0)
    m = params.cutoff
    expo = (2 * params.s - 1) / params.theta_resolved
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 - (m / np.where(kmag == 0, 1.0, kmag)) ** expo
    q = np.where(kmag > m, q, 0.0)
    return np.clip(q, 0.0, 1.0)


def damping_rates(params: SolverParams) -> np.ndarray:
    """lam(k) = eps N Q(|k|) (|k|^2/N^2)^s, shape (2N+1, 2N+1)."""
    _, _, ksq = wavenumbers(params.N)
    return params.eps * params.N * multiplier_profile(params) * (ksq / params.N**2) ** params.s


@lru_cache(maxsize=2)
def _workspace(params: SolverParams):
    """The arrays of an RK step for params: read-only constants and buffers.

    Read-only: the k2 >= 0 halves of the wavenumber and damping arrays.
    Buffers, overwritten by every call that uses them: "rows" and "U" hold
    a synthesis (_velocity_grid), "prod" the two products of _rhs_half (and
    |U|^2 in _dt_bound) and "spec" their real FFT. The cache keeps two
    params, so a multi-resolution run holds at most two buffer sets.
    """
    N, M = params.N, params.padded_grid
    k1, k2, ksq = wavenumbers(N)
    damping = damping_rates(params)
    halves = {
        "k1": k1[:, N:].astype(np.float64),
        "k2": k2[:, N:].astype(np.float64),
        "inv_ksq": np.where(ksq == 0, 0.0, 1.0 / np.where(ksq == 0, 1, ksq))[:, N:],
        "damping": damping[:, N:],
    }
    for a in halves.values():
        a.flags.writeable = False
    buffers = {
        "rows": np.empty((2, M, N + 1), dtype=np.complex128),
        "U": np.empty((2, M, M)),
        "prod": np.empty((2, M, M)),
        "spec": np.empty((2, M, M // 2 + 1), dtype=np.complex128),
    }
    return {**halves, **buffers, "lam_max": float(np.max(damping))}


def _velocity_grid(half: np.ndarray, params: SolverParams) -> np.ndarray:
    """The padded velocity grid of half, in the workspace's "U" buffer.

    Valid until the next _velocity_grid call with the same params.
    """
    ws = _workspace(params)
    return _synthesize(half, params.padded_grid, ws["rows"], ws["U"])


def _rhs_half(half: np.ndarray, U: np.ndarray, params: SolverParams) -> np.ndarray:
    """du/dt on the k2 >= 0 half plane, given U, the padded velocity grid of half.

    The products a and b (module docstring) and their spectrum go through
    workspace buffers; the result is a fresh array.
    """
    ws = _workspace(params)
    prod = ws["prod"]
    # u1^2 - u2^2 as (u1 - u2)(u1 + u2): no grid-sized temporary
    np.subtract(U[0], U[1], out=prod[0])
    np.add(U[0], U[1], out=prod[1])
    np.multiply(prod[0], prod[1], out=prod[0])
    np.multiply(U[0], U[1], out=prod[1])
    a, b = _analyze_half(prod, params.N, ws["spec"])
    a *= 0.5
    k1, k2 = ws["k1"], ws["k2"]
    div0 = 1j * (k1 * a + k2 * b)
    div1 = 1j * (k1 * b - k2 * a)
    kdot = (k1 * div0 + k2 * div1) * ws["inv_ksq"]
    out = np.empty_like(half)
    out[0] = -(div0 - k1 * kdot)
    out[1] = -(div1 - k2 * kdot)
    out -= ws["damping"] * half
    out[:, params.N, 0] = 0.0
    return out


def rhs(u: SpectralField, params: SolverParams) -> SpectralField:
    """Time derivative of the modal coefficients under the scheme.

    Not thread-safe: calls with equal params share one set of grid
    buffers, so use one thread per process (ensemble uses processes).
    """
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    half = u.coeffs[:, :, params.N :]
    U = _velocity_grid(half, params)
    return SpectralField._wrap(params.N, _full_plane(_rhs_half(half, U, params)))


def _dt_bound(U: np.ndarray, params: SolverParams) -> float:
    """adaptive_dt from U, the velocity on the padded grid.

    |U|^2 goes into the workspace's "prod" buffer, which U must not be.
    max sqrt(|U|^2) is taken as sqrt(max |U|^2): sqrt is correctly rounded
    and so monotone, and the two are the same double.
    """
    ws = _workspace(params)
    candidates = []
    if ws["lam_max"] > 0.0:
        candidates.append(params.visc_safety * _RK3_REAL_STABILITY / ws["lam_max"])
    if params.cfl > 0.0:
        sq = ws["prod"]
        np.multiply(U[0], U[0], out=sq[0])
        np.multiply(U[1], U[1], out=sq[1])
        np.add(sq[0], sq[1], out=sq[0])
        umax = float(np.sqrt(sq[0].max()))
        if umax > 0.0:
            h = 2.0 * np.pi / (2 * params.N)
            candidates.append(params.cfl * h / umax)
    if not candidates:
        raise ValueError("no finite step bound: zero damping and zero velocity")
    return min(candidates)


def adaptive_dt(u: SpectralField, params: SolverParams) -> float:
    """Step size: min of CFL-advective and explicit-diffusion bounds.

    dt_adv = cfl * h / max|u| with h = 2pi/(2N) and max|u| the largest
    velocity magnitude on the padded synthesis grid; dt_visc =
    visc_safety * 2.5 / lam_max. A zero field (or cfl = 0) leaves only
    the viscous bound. evolve reuses the padded grid it already built; this
    entry point is for one field (tests, the per-layer benchmark).
    Not thread-safe: calls with equal params share one set of grid
    buffers, so use one thread per process (ensemble uses processes).
    """
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    return _dt_bound(_velocity_grid(u.coeffs[:, :, params.N :], params), params)


def _step_coeffs(coeffs: np.ndarray, U: np.ndarray, dt: float, params: SolverParams) -> np.ndarray:
    """One Shu-Osher SSP-RK3 step; U is the padded velocity grid of coeffs.

    The stages run on the k2 >= 0 half plane; the result is a fresh,
    exactly Hermitian array.
    """
    u0 = coeffs[:, :, params.N :]
    # U (the workspace's "U" buffer when evolve or step built it) is valid
    # for stage 1 only: the stage-2 synthesis overwrites it with u1's grid,
    # and the stage-3 synthesis with u2's.
    u1 = u0 + dt * _rhs_half(u0, U, params)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * _rhs_half(u1, _velocity_grid(u1, params), params))
    out = (u0 + 2.0 * (u2 + dt * _rhs_half(u2, _velocity_grid(u2, params), params))) / 3.0
    out[:, params.N, 0] = 0.0
    return _full_plane(out)


def step(u: SpectralField, dt: float, params: SolverParams) -> SpectralField:
    """One SSP-RK3 step of size dt. Raises BlowUpError on non-finite output.

    evolve reuses the padded grid it built for the step bound; this entry
    point is for one field (tests, the per-layer benchmark).
    Not thread-safe: calls with equal params share one set of grid
    buffers, so use one thread per process (ensemble uses processes).
    """
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    U = _velocity_grid(u.coeffs[:, :, params.N :], params)
    out = _step_coeffs(u.coeffs, U, dt, params)
    if not np.all(np.isfinite(out)):
        raise BlowUpError("non-finite coefficients after time step")
    return SpectralField._wrap(params.N, out)


@dataclass
class EnergyLedger:
    """Energy balance bookkeeping in modal normalization.

    E0 is the initial modal energy sum_k |u(k)|^2, E the current one, D the
    accumulated dissipation integral of 2 sum_k lam(k) |u(k)|^2 dt
    (trapezoidal in time). The scheme conserves E + D up to integration
    error.
    """

    E0: float
    E: float
    D: float = 0.0


def _dissipation_rate(coeffs: np.ndarray, damping: np.ndarray) -> float:
    return float(2.0 * np.sum(damping * (np.abs(coeffs[0]) ** 2 + np.abs(coeffs[1]) ** 2)))


def evolve(u0: SpectralField, t_end: float, params: SolverParams, output_times=(), on_step=None):
    """Integrate to t_end with adaptive steps; return (field, EnergyLedger).

    Steps are clipped so that every requested output time (and t_end) is hit
    exactly. on_step(t, field, ledger), when given, is called at t = 0 and
    after every accepted step; at an output time, t is that time exactly.
    Blow-ups raise BlowUpError carrying the failure time.
    Not thread-safe: calls with equal params share one set of grid
    buffers, so use one thread per process (ensemble uses processes).
    """
    if u0.N != params.N:
        raise ValueError(f"field resolution {u0.N} does not match params.N={params.N}")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    targets = sorted(set(float(t) for t in output_times))
    if targets and (targets[0] < 0 or targets[-1] > t_end):
        raise ValueError("output times must lie within [0, t_end]")

    ledger = EnergyLedger(E0=modal_energy(u0), E=modal_energy(u0))
    t = 0.0
    u = u0
    pending = [s for s in targets if s > 0.0]
    if on_step is not None:
        on_step(t, u, ledger)

    damping = damping_rates(params)
    g = _dissipation_rate(u.coeffs, damping)
    while t < t_end:
        # One synthesis per step: it bounds dt and is RK stage 1's velocity.
        # U is a workspace buffer, valid until stage 2 synthesizes u1.
        U = _velocity_grid(u.coeffs[:, :, params.N :], params)
        horizon = pending[0] if pending else t_end
        dt = min(_dt_bound(U, params), horizon - t)
        coeffs = _step_coeffs(u.coeffs, U, dt, params)
        if not np.all(np.isfinite(coeffs)):
            raise BlowUpError(
                f"blow-up at t={t + dt:.6g} (E0={ledger.E0:.6g}, last E={ledger.E:.6g})",
                time=t + dt,
            )
        u = SpectralField._wrap(params.N, coeffs)
        g_after = _dissipation_rate(coeffs, damping)
        ledger.D += 0.5 * dt * (g + g_after)
        g = g_after
        ledger.E = modal_energy(u)
        t = t + dt
        if pending and t >= pending[0] - 1e-14 * max(1.0, t_end):
            t = pending.pop(0)
        if on_step is not None:
            on_step(t, u, ledger)
    return u, ledger
