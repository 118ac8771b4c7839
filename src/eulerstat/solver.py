"""Spectral hyper-viscosity scheme for the 2D incompressible Euler equations.

The semi-discrete system for the modal coefficients u(k), |k|_inf <= N, is

    du(k)/dt = -i k . (I - k k^T/|k|^2) (u x u)(k) - lam(k) u(k),

where the quadratic term is evaluated pseudo-spectrally on a padded grid
and lam(k) = eps_N * Q(|k|) * |k|^(2s) is a high-mode-only damping:
Q vanishes below a cutoff m_N and rises to at most 1 above it, so the
resolved large scales see no dissipation at all.

Two multiplier profiles are provided:

- "standard" (default): Q(|k|) = max(0, 1 - N/|k|^2), active above sqrt(N);
  with s=1 and eps_N = eps/N the damping rate is (eps/N) max(|k|^2 - N, 0).
- "power": Q(|k|) = 1 - (m_N/|k|)^((2s-1)/theta) above m_N, clipped to [0,1].

Time stepping is the three-stage Shu-Osher SSP-RK3 with an adaptive step
from a CFL bound on the padded grid plus an explicit-diffusion bound.

The stages work on the k2 >= 0 half plane of the coefficients: each RHS
synthesizes the velocity on the padded grid with real inverse FFTs, forms
the three products u_i u_j there and analyzes them with real forward
FFTs (see spectral). The result is rebuilt as an exactly Hermitian array
once per step, with no re-projection. evolve synthesizes the padded
velocity once per step and uses that grid for both max|u| in the step
bound and the first RK stage.

The padded grid has ceil(dealias * 2N) points per axis. The default
dealias = 1.5 gives M = 3N, which is not fully alias-free: products reach
|k| = 2N, which folds onto -N inside the retained band; M >= 3N+1 would
be (the alias-free padding item of ROADMAP.md). The transforms take any
M >= 2N+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SolverParams:
    """Scheme parameters.

    N : modal cutoff (grid scale 1/N)
    s : hyper-viscosity order (>= 1)
    eps : dissipation amplitude; the modal amplitude is eps_N = eps * N^(1-2s)
    m_n : dissipation-free cutoff for the "power" profile (default floor(sqrt(N)))
    multiplier : "standard" or "power"
    theta : cutoff-growth exponent of the "power" profile
            (default 0.9 * (2s-1)/(2s))
    cfl : Courant number for the advective step bound
    visc_safety : safety factor for the explicit-diffusion step bound
    dealias : padding factor; the quadratic term is evaluated on
              ceil(dealias * 2N) points per axis
    enable_nonlinear : test hook; False integrates the pure damping system
    """

    N: int
    s: int = 1
    eps: float = 1.0 / 20.0
    m_n: float | None = None
    multiplier: str = "standard"
    theta: float | None = None
    cfl: float = 0.5
    visc_safety: float = 0.9
    dealias: float = 1.5
    enable_nonlinear: bool = True

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.s < 1 or int(self.s) != self.s:
            raise ValueError("s must be an integer >= 1")
        if self.multiplier not in ("standard", "power"):
            raise ValueError(f"unknown multiplier profile {self.multiplier!r}")
        if self.dealias * 2 * self.N < 2 * self.N + 1:
            raise ValueError("dealias factor too small to resolve the retained band")

    @property
    def eps_n(self) -> float:
        return self.eps * float(self.N) ** (1 - 2 * self.s)

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
        return int(math.ceil(self.dealias * 2 * self.N))


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
    """lam(k) = eps_N * Q(|k|) * |k|^(2s), shape (2N+1, 2N+1)."""
    _, _, ksq = wavenumbers(params.N)
    return params.eps_n * multiplier_profile(params) * ksq.astype(np.float64) ** params.s


@lru_cache(maxsize=16)
def _workspace(params: SolverParams):
    """Read-only k2 >= 0 halves of the wavenumber and damping arrays."""
    N = params.N
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
    return {**halves, "lam_max": float(np.max(damping))}


def _rhs_half(half: np.ndarray, U: np.ndarray, params: SolverParams) -> np.ndarray:
    """du/dt on the k2 >= 0 half plane, given U, the padded velocity grid of half."""
    ws = _workspace(params)
    if params.enable_nonlinear:
        fhat = _analyze_half(np.stack((U[0] * U[0], U[0] * U[1], U[1] * U[1])), params.N)
        k1, k2 = ws["k1"], ws["k2"]
        div0 = 1j * (k1 * fhat[0] + k2 * fhat[1])
        div1 = 1j * (k1 * fhat[1] + k2 * fhat[2])
        kdot = (k1 * div0 + k2 * div1) * ws["inv_ksq"]
        out = np.empty_like(half)
        out[0] = -(div0 - k1 * kdot)
        out[1] = -(div1 - k2 * kdot)
    else:
        out = np.zeros_like(half)
    out -= ws["damping"] * half
    out[:, params.N, 0] = 0.0
    return out


def rhs(u: SpectralField, params: SolverParams) -> SpectralField:
    """Time derivative of the modal coefficients under the scheme."""
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    half = u.coeffs[:, :, params.N :]
    U = _synthesize(half, params.padded_grid)
    return SpectralField._wrap(params.N, _full_plane(_rhs_half(half, U, params)))


def _dt_bound(U: np.ndarray, params: SolverParams) -> float:
    """adaptive_dt from U, the velocity on the padded grid."""
    ws = _workspace(params)
    candidates = []
    if ws["lam_max"] > 0.0:
        candidates.append(params.visc_safety * _RK3_REAL_STABILITY / ws["lam_max"])
    if params.cfl > 0.0:
        umax = float(np.sqrt(U[0] ** 2 + U[1] ** 2).max())
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
    the viscous bound.
    """
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    return _dt_bound(_synthesize(u.coeffs[:, :, params.N :], params.padded_grid), params)


def _step_coeffs(coeffs: np.ndarray, U: np.ndarray, dt: float, params: SolverParams) -> np.ndarray:
    """One Shu-Osher SSP-RK3 step; U is the padded velocity grid of coeffs.

    The stages run on the k2 >= 0 half plane; the result is rebuilt as an
    exactly Hermitian array.
    """
    M = params.padded_grid
    u0 = coeffs[:, :, params.N :]
    u1 = u0 + dt * _rhs_half(u0, U, params)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * _rhs_half(u1, _synthesize(u1, M), params))
    out = (u0 + 2.0 * (u2 + dt * _rhs_half(u2, _synthesize(u2, M), params))) / 3.0
    out[:, params.N, 0] = 0.0
    return _full_plane(out)


def step(u: SpectralField, dt: float, params: SolverParams) -> SpectralField:
    """One SSP-RK3 step of size dt. Raises BlowUpError on non-finite output."""
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    U = _synthesize(u.coeffs[:, :, params.N :], params.padded_grid)
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
    error. history holds (t, E, D) per accepted step.
    """

    E0: float
    E: float
    D: float = 0.0
    history: list = field(default_factory=list)


def _dissipation_rate(coeffs: np.ndarray, damping: np.ndarray) -> float:
    return float(2.0 * np.sum(damping * (np.abs(coeffs[0]) ** 2 + np.abs(coeffs[1]) ** 2)))


def evolve(
    u0: SpectralField,
    t_end: float,
    params: SolverParams,
    output_times=(),
    observer=None,
):
    """Integrate to t_end with adaptive steps; return (field, EnergyLedger).

    Steps are clipped so that every requested output time (and t_end) is hit
    exactly; observer(t, field, ledger), when given, is invoked at each
    output time in increasing order. Blow-ups raise BlowUpError carrying the
    failure time.
    """
    if u0.N != params.N:
        raise ValueError(f"field resolution {u0.N} does not match params.N={params.N}")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    targets = sorted(set(float(t) for t in output_times))
    if targets and (targets[0] < 0 or targets[-1] > t_end):
        raise ValueError("output times must lie within [0, t_end]")

    ledger = EnergyLedger(E0=modal_energy(u0), E=modal_energy(u0))
    ledger.history.append((0.0, ledger.E, 0.0))
    t = 0.0
    u = u0
    pending = list(targets)
    if pending and pending[0] == 0.0:
        if observer is not None:
            observer(0.0, u, ledger)
        pending.pop(0)

    damping = damping_rates(params)
    M = params.padded_grid
    g = _dissipation_rate(u.coeffs, damping)
    while t < t_end:
        # One synthesis per step: it bounds dt and is RK stage 1's velocity.
        U = _synthesize(u.coeffs[:, :, params.N :], M)
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
        ledger.history.append((t, ledger.E, ledger.D))
        if pending and t >= pending[0] - 1e-14 * max(1.0, t_end):
            t = pending.pop(0)
            if observer is not None:
                observer(t, u, ledger)
    return u, ledger
