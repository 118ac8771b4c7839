"""Seedable random initial-data families.

Divergence-free random velocity fields on the torus:

- flat_sheet: a shear layer +-1 across two horizontal interfaces, optionally
  smoothed with tanh profiles of width rho, with the interface position
  randomly perturbed by a small trigonometric polynomial.
- sinusoidal_sheet: vorticity concentrated on the curve y = d sin(2 pi x),
  mollified with a third-order B-spline bump of radius rho and evaluated by
  quadrature along the curve; the velocity is recovered by inverting the
  curl, then the interface is randomly perturbed as above.
- fbm: each velocity component an independent fractional Brownian surface
  of Hurst index H, generated by midpoint displacement (diamond-square).
- taylor_green: the deterministic stationary vortex array, as a solver check.

Generator formulas live in unit coordinates xi in [0,1)^2 and are mapped to
the internal torus by x = 2 pi xi; velocity amplitudes are not rescaled.

Randomness: streams are derived per (base_seed, sample_index[, substream])
through numpy's SeedSequence feeding a Philox counter-based generator, so a
sample is fully reproducible in isolation, independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralField,
    _fold,
    from_physical,
    leray_project,
    scalar_from_physical,
    velocity_from_vorticity,
)

__all__ = [
    "InitialMeasureSpec",
    "PerturbationDraw",
    "perturbation",
    "flat_sheet_sample",
    "sinusoidal_sheet_sample",
    "fbm_sample",
    "taylor_green_field",
    "generate_sample",
    "fbm_surface",
    "PRNG_ID",
]

PRNG_ID = "numpy-philox4x64+seedsequence"

FAMILIES = ("flat_sheet", "sinusoidal_sheet", "fbm", "taylor_green")


def sample_rng(base_seed: int, sample_index: int, *substream: int) -> np.random.Generator:
    """Independent, reproducible stream for one sample (and optional substream)."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(sample_index), *substream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class InitialMeasureSpec:
    """Parameterized random initial-data family.

    family : "flat_sheet", "sinusoidal_sheet", "fbm" or "taylor_green"
    N : target modal resolution of the generated fields
    rho : interface smoothing length in unit coordinates (sheets);
          rho = 0 selects the discontinuous flat-sheet profile
    delta : amplitude of the random interface perturbation (sheets)
    q : number of perturbation modes
    d : sinusoidal sheet amplitude
    quad_points : one-sided quadrature point count along the sheet curve
    hurst : Hurst index in (0, 1) (fbm)
    sigma0 : root displacement scale of the fbm construction
    base_seed : 64-bit seed of the family; sample i uses stream (base_seed, i)
    grid_points : synthesis grid used to sample the generator (default 3N)
    """

    family: str
    N: int
    rho: float = 0.0
    delta: float = 0.0
    q: int = 10
    d: float = 0.2
    quad_points: int = 400
    hurst: float = 0.5
    sigma0: float = 1.0
    base_seed: int = 0
    grid_points: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.family == "flat_sheet" and self.rho < 0:
            raise ValueError("flat_sheet requires rho >= 0")
        if self.family == "sinusoidal_sheet" and not self.rho > 0:
            raise ValueError("sinusoidal_sheet requires rho > 0 (mollification)")
        if self.family == "fbm" and not 0.0 < self.hurst < 1.0:
            raise ValueError("fbm requires 0 < hurst < 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    @property
    def synthesis_grid(self) -> int:
        return 3 * self.N if self.grid_points is None else int(self.grid_points)


@dataclass(frozen=True)
class PerturbationDraw:
    """Random coefficients of the interface perturbation.

    alphas are drawn i.i.d. uniform on (0,1) and scaled by delta; betas are
    i.i.d. uniform on [0, 2pi).
    """

    alphas: np.ndarray
    betas: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, q: int, delta: float) -> "PerturbationDraw":
        alphas = delta * rng.random(q)
        betas = 2.0 * np.pi * rng.random(q)
        for a in (alphas, betas):
            a.flags.writeable = False
        return cls(alphas, betas)


def perturbation(draw: PerturbationDraw, x1) -> np.ndarray | float:
    """sigma(x1) = sum_k alpha_k sin(2 pi x1 - beta_k), x1 in unit coordinates."""
    x = np.asarray(x1, dtype=np.float64)
    phases = 2.0 * np.pi * x[..., None] - draw.betas
    out = np.sum(draw.alphas * np.sin(phases), axis=-1)
    return float(out) if np.isscalar(x1) else out


def flat_sheet_profile(x2, rho: float) -> np.ndarray:
    """Horizontal velocity of the (possibly smoothed) flat shear layer.

    For rho > 0: tanh((x2 - 1/4)/rho) below the midline, tanh((3/4 - x2)/rho)
    above. For rho = 0: +1 on (1/4, 3/4], -1 otherwise. x2 in unit
    coordinates, wrapped periodically.
    """
    y = np.asarray(x2, dtype=np.float64) % 1.0
    if rho > 0:
        return np.where(y <= 0.5, np.tanh((y - 0.25) / rho), np.tanh((0.75 - y) / rho))
    return np.where((y > 0.25) & (y <= 0.75), 1.0, -1.0)


def flat_sheet_sample(spec: InitialMeasureSpec, sample_index: int) -> SpectralField:
    """One random flat-sheet field: project(U_rho(x1, x2 + sigma(x1)), e1)."""
    if spec.family != "flat_sheet":
        raise ValueError(f"spec.family is {spec.family!r}, not 'flat_sheet'")
    rng = sample_rng(spec.base_seed, sample_index)
    draw = PerturbationDraw.draw(rng, spec.q, spec.delta)
    M = spec.synthesis_grid
    xi = np.arange(M) / M
    shift = perturbation(draw, xi)                       # per x1 column
    x2_shifted = xi[None, :] + shift[:, None]            # (x1, x2)
    grid = np.zeros((M, M, 2))
    grid[:, :, 0] = flat_sheet_profile(x2_shifted, spec.rho)
    return leray_project(from_physical(grid, spec.N))


def bspline_bump(r) -> np.ndarray:
    """Radial third-order B-spline bump, supported on r < 1.

    psi(r) = (80/(7 pi)) [ (r+1)^3_+ - 4 (r+1/2)^3_+ + 6 r^3_+
                           - 4 (r-1/2)^3_+ + (r-1)^3_+ ].
    """
    rr = np.asarray(r, dtype=np.float64)

    def plus_cubed(x):
        return np.where(x > 0, x, 0.0) ** 3

    val = (
        plus_cubed(rr + 1.0)
        - 4.0 * plus_cubed(rr + 0.5)
        + 6.0 * plus_cubed(rr)
        - 4.0 * plus_cubed(rr - 0.5)
        + plus_cubed(rr - 1.0)
    )
    return (80.0 / (7.0 * np.pi)) * np.where(rr < 1.0, val, 0.0)


def _sheet_vorticity_grid(spec: InitialMeasureSpec, M: int) -> np.ndarray:
    """Mollified sinusoidal-sheet vorticity on an M x M unit-coordinate grid.

    The line measure on the curve (xi, g(xi)), g(xi) = d sin(2 pi xi), is
    convolved with psi_rho(x) = rho^-2 psi(|x|/rho) by the arclength
    quadrature (rho/Q) sum_i psi_rho(x - (xi_i, g(xi_i))) sqrt(1 + g'(xi_i)^2)
    with xi_i = x1 + i rho/Q sweeping the mollifier support, i in [-Q, Q].
    """
    rho, Q, d = spec.rho, spec.quad_points, spec.d
    xi = np.arange(M) / M
    omega = np.zeros((M, M))
    x2_row = xi[None, :]
    for i in range(-Q, Q + 1):
        dx1 = -i * rho / Q                       # x1 - xi_i, constant per offset
        xi_i = xi + i * rho / Q                  # per x1 column
        g = d * np.sin(2.0 * np.pi * xi_i)
        gp = 2.0 * np.pi * d * np.cos(2.0 * np.pi * xi_i)
        dx2 = (x2_row - g[:, None] + 0.5) % 1.0 - 0.5
        r = np.sqrt(dx1 * dx1 + dx2 * dx2) / rho
        omega += bspline_bump(r) * np.sqrt(1.0 + gp * gp)[:, None]
    omega *= rho / Q / (rho * rho)               # quadrature weight and psi_rho scaling
    return omega - omega.mean()


def _evaluate_shifted(field: SpectralField, shifts: np.ndarray, M: int) -> np.ndarray:
    """Pointwise values u(x1, x2 + shift(x1)) on the M grid, exactly.

    shifts is the per-column displacement in internal (2 pi) coordinates;
    the x2 shift is applied as a modal phase factor per column, on the
    k2 >= 0 half plane, before the real inverse transform along x2.
    """
    N = field.N
    mixed = _fold(field.coeffs[..., N:], M, -2)
    np.fft.ifft(mixed, axis=-2, norm="forward", out=mixed)  # (2, x1, k2 = 0..N)
    mixed *= np.exp(1j * np.outer(shifts, np.arange(N + 1)))
    grid = np.fft.irfft(mixed, n=M, axis=-1, norm="forward")
    return np.ascontiguousarray(grid.transpose(1, 2, 0))


def sinusoidal_sheet_sample(spec: InitialMeasureSpec, sample_index: int) -> SpectralField:
    """One random sinusoidal-sheet field.

    Builds the mollified sheet vorticity (mean removed), inverts the curl to
    a divergence-free velocity, shifts x2 by the random perturbation, and
    projects.
    """
    if spec.family != "sinusoidal_sheet":
        raise ValueError(f"spec.family is {spec.family!r}, not 'sinusoidal_sheet'")
    if not spec.rho > 0:
        raise ValueError("sinusoidal sheet requires rho > 0")
    rng = sample_rng(spec.base_seed, sample_index)
    draw = PerturbationDraw.draw(rng, spec.q, spec.delta)
    M = spec.synthesis_grid
    omega = scalar_from_physical(_sheet_vorticity_grid(spec, M), spec.N)
    base = velocity_from_vorticity(omega)
    xi = np.arange(M) / M
    shifts = 2.0 * np.pi * perturbation(draw, xi)
    grid = _evaluate_shifted(base, shifts, M)
    return leray_project(from_physical(grid, spec.N))


def fbm_surface(rng: np.random.Generator, levels: int, hurst: float, sigma0: float = 1.0,
                level_rngs=None) -> np.ndarray:
    """Fractional Brownian surface on a (2^levels + 1)^2 grid by midpoint displacement.

    Corner values are drawn standard normal (times sigma0); refinement level
    l displaces new points by N(0, (sigma0 * 2^(-l * hurst))^2). The diamond
    step fills cell centers from the four cell corners, the square step
    fills edge midpoints from their (3 or 4) lattice neighbors.

    level_rngs, when given, supplies one generator per level (index 0 for
    the corners, then one per refinement), which keeps coarse levels
    identical across surfaces of different depth.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    n = 2 ** levels
    surf = np.zeros((n + 1, n + 1))

    def _rng(level):
        return level_rngs[level] if level_rngs is not None else rng

    corners = _rng(0).standard_normal(4) * sigma0
    surf[0, 0], surf[0, n], surf[n, 0], surf[n, n] = corners

    step = n
    for level in range(1, levels + 1):
        half = step // 2
        sigma = sigma0 * 2.0 ** (-level * hurst)
        gen = _rng(level)
        # diamond: cell centers from the four cell corners
        c00 = surf[0:n:step, 0:n:step]
        c01 = surf[0:n:step, step::step]
        c10 = surf[step::step, 0:n:step]
        c11 = surf[step::step, step::step]
        centers = 0.25 * (c00 + c01 + c10 + c11)
        surf[half::step, half::step] = centers + gen.standard_normal(centers.shape) * sigma
        diam = surf[half::step, half::step]
        # square: edge midpoints from the 4 (3 on the boundary) neighbors
        # at distance `half`: two previous-level points, two diamond centers.
        sum_a = surf[0:n:step, 0::step] + surf[step::step, 0::step]
        cnt_a = np.full(sum_a.shape, 2.0)
        sum_a[:, :-1] += diam
        cnt_a[:, :-1] += 1.0
        sum_a[:, 1:] += diam
        cnt_a[:, 1:] += 1.0
        surf[half::step, 0::step] = sum_a / cnt_a + gen.standard_normal(sum_a.shape) * sigma
        sum_b = surf[0::step, 0:n:step] + surf[0::step, step::step]
        cnt_b = np.full(sum_b.shape, 2.0)
        sum_b[:-1, :] += diam
        cnt_b[:-1, :] += 1.0
        sum_b[1:, :] += diam
        cnt_b[1:, :] += 1.0
        surf[0::step, half::step] = sum_b / cnt_b + gen.standard_normal(sum_b.shape) * sigma
        step = half
    return surf


def _periodize(window: np.ndarray) -> np.ndarray:
    """Remove the boundary mismatch of a (P+1)x(P+1) window with bilinear ramps.

    Returns the P x P one-period array whose periodic extension is
    continuous; only smooth large-scale ramps are subtracted, so small-scale
    increments are unchanged.
    """
    P = window.shape[0] - 1
    t = np.arange(P + 1) / P
    w = window - t[:, None] * (window[P, :] - window[0, :])[None, :]
    w = w - t[None, :] * (w[:, P] - w[:, 0])[:, None]
    return w[:P, :P]


def fbm_sample(spec: InitialMeasureSpec, sample_index: int) -> SpectralField:
    """One random fBm velocity field: two independent surfaces, one per component.

    Each surface is generated on a doubled domain, restricted to one period,
    ramp-periodized and mean-removed before modal analysis and projection.
    """
    if spec.family != "fbm":
        raise ValueError(f"spec.family is {spec.family!r}, not 'fbm'")
    N = spec.N
    P = 2 ** max(3, math.ceil(math.log2(2 * N + 1)))     # torus grid, >= 2N+1
    levels = int(math.log2(P)) + 1                        # doubled domain: (2P+1)^2
    grid = np.zeros((P, P, 2))
    for comp in range(2):
        level_rngs = [
            sample_rng(spec.base_seed, sample_index, comp, lvl) for lvl in range(levels + 1)
        ]
        surf = fbm_surface(None, levels, spec.hurst, spec.sigma0, level_rngs=level_rngs)
        period = _periodize(surf[: P + 1, : P + 1])
        grid[:, :, comp] = period - period.mean()
    return leray_project(from_physical(grid, N))


def taylor_green_field(N: int, grid_points: int | None = None) -> SpectralField:
    """Stationary vortex array u = (sin x1 cos x2, -cos x1 sin x2).

    A steady solution of the 2D Euler equations (its advection term is a
    pure gradient), used as a deterministic solver check.
    """
    M = 3 * N if grid_points is None else int(grid_points)
    x = 2.0 * np.pi * np.arange(M) / M
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    grid = np.stack((np.sin(X1) * np.cos(X2), -np.cos(X1) * np.sin(X2)), axis=-1)
    return from_physical(grid, N)


def _taylor_green_sample(spec: InitialMeasureSpec, sample_index: int) -> SpectralField:
    return taylor_green_field(spec.N, spec.synthesis_grid)


_GENERATORS = {
    "flat_sheet": flat_sheet_sample,
    "sinusoidal_sheet": sinusoidal_sheet_sample,
    "fbm": fbm_sample,
    "taylor_green": _taylor_green_sample,
}


def generate_sample(spec: InitialMeasureSpec, sample_index: int) -> SpectralField:
    """Dispatch to the family generator. Deterministic in (spec, sample_index)."""
    return _GENERATORS[spec.family](spec, sample_index)
