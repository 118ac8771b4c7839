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

The solver evolves the curl of that system, the vorticity w(k) =
i (k1 u2(k) - k2 u1(k)), which fixes u(k) = (i k2, -i k1) w(k)/|k|^2:

    dw(k)/dt = (k1^2 - k2^2) b(k) - k1 k2 a(k) - lam(k) w(k),

a = u1^2 - u2^2, b = u1 u2. u x u is [[a/2, b], [b, -a/2]] plus a gradient,
|u|^2/2 I, which the curl removes: no stage projects. The state is the
k2 >= 0 half plane of w, one scalar k2-major (_half) array. Each RHS builds
the velocity from w by one multiply (divergence-free by construction),
synthesizes it on the padded grid with real inverse FFTs, forms a and b
there and analyzes them with real forward FFTs (see spectral). evolve
bounds the step by max|u| on the first stage's grid and reports through
one hook, on_step, after every step; E, the dissipation rate and the
blow-up test of a step share one array of the velocity's squares.

Each synthesis and analysis is a pass of 1-D transforms along x1 (the
k2 columns of the half plane) and a pass along x2 (the x1 rows of the
padded grid). A stage is a row pass (synthesis along x2, the products,
their analysis along x2) and a column pass (analysis along x1, the curl
and damping terms, the stage combination, the velocity and the next
synthesis along x1), and no operation reads outside its row or column.
evolve(..., threads=n) splits each pass into n row or column slabs on
padded grids of at least _SLAB_MIN_GRID points (below it, one slab) and
runs them on its own threads; every operation is the same, so the bits
are those of one slab.

An RK step allocates no padded-grid-sized array, and no array holds the
padded grid. Each evolve, rhs, step or adaptive_dt call makes one set of
arrays (_Slabs) before it starts any thread and holds it until it
returns; a row pass takes the velocity, its products and their spectrum
a chunk of x1 rows at a time. At N = 128 the arrays take 6.9 MiB (7.7
MiB on two slabs), at N = 512 100.4 MiB (103.5 MiB). No two calls share
an array, so calls from several threads, with equal params or not, give
the bits of serial calls. rhs, step and evolve return a velocity (of
dw/dt, the next step, the field at t_end) in a fresh, exactly Hermitian
array laid out as a snapshot record, (k1, k2, component).

The padded grid has M points per axis, the smallest 5-smooth M >= 3N+1
(padded_grid; 50, 100, 200, 400 for N = 16, 32, 64, 128): products reach
|k|_inf = 2N, which folds onto 2N - M <= -N-1, outside the retained band,
so the nonlinear term is alias-free (Orszag 1971, J. Atmos. Sci. 28).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .spectral import (
    SpectralField,
    _analyze_cols,
    _analyze_rows,
    _full_plane,
    _hermitian_column,
    _record_layout,
    _synthesize_cols,
    _synthesize_rows,
    wavenumbers,
)

__all__ = [
    "SolverParams",
    "EnergyLedger",
    "multiplier_profile",
    "damping_rates",
    "viscous_dt",
    "rhs",
    "adaptive_dt",
    "step",
    "evolve",
]

# Real-axis stability interval of third-order explicit RK is ~[-2.51, 0];
# the viscous step bound uses 2.5.
_RK3_REAL_STABILITY = 2.5

# Padded grids of at least this many points per axis split the RK steps of
# evolve(..., threads > 1) into slabs. Two slabs against one, time per step on
# two shared vCPUs, the second one free: 0.88-1.22 at M = 200, 0.75-1.07 at 225,
# 0.71-0.79 at 243, 0.57-0.60 at 400 (1.02-1.17 at each M with it busy); below
# ~225 the hand-offs between threads cost more than the second CPU gains.
_SLAB_MIN_GRID = 225

# x1 rows per chunk of a row pass: the synthesis along x2, the step bound's
# |u|^2, the products and their real FFT go through scratches of that many rows.
_CHUNK_ROWS = 64

# Recorded in every manifest; bumped when equal parameters start to give other bits.
SCHEME_VERSION = 3

# The most steps one evolve call takes; run's desk-scale estimate also uses it.
MAX_STEPS = 10**6


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


def viscous_dt(params: SolverParams, lam_max: float | None = None) -> float:
    """The explicit-diffusion step bound visc_safety * 2.5 / lam_max (inf without damping).

    lam_max, the largest damping rate, is taken from damping_rates(params)
    unless the caller already has it.
    """
    if lam_max is None:
        lam_max = float(np.max(damping_rates(params)))
    return params.visc_safety * _RK3_REAL_STABILITY / lam_max if lam_max > 0.0 else math.inf


def _half(N: int, *lead: int) -> np.ndarray:
    """An uninitialized k2-major half plane (*lead, 2N+1, N+1), its k2 columns
    contiguous: the column passes cut it into ranges of k2, and numpy is
    fast on contiguous blocks, slow on narrow strided ones."""
    return np.empty((*lead, N + 1, 2 * N + 1), dtype=np.complex128).swapaxes(-1, -2)


def _half_plane(u: SpectralField, params: SolverParams) -> np.ndarray:
    """The k2 >= 0 half plane of u (a view), once u.N is checked against params.N."""
    if u.N != params.N:
        raise ValueError(f"field resolution {u.N} does not match params.N={params.N}")
    return u.coeffs[:, :, params.N :]


def _chunks(r: slice, M: int) -> list:
    """(x1 rows x, vel, spec, d, s) for each run x of at most _CHUNK_ROWS
    rows of the row slab r, on two scratches of the slab's own: vel is the
    first as a real (2, rows, M) array, spec the second as a complex
    (2, rows, M//2+1) one, d and s the second as two real (rows, M) ones.
    All are contiguous: numpy buffers operands that are not."""
    rows = min(_CHUNK_ROWS, r.stop - r.start)
    velocity = np.empty(2 * rows * M)
    scratch = np.empty(2 * rows * (M // 2 + 1), dtype=np.complex128)
    chunks = []
    for i in range(r.start, r.stop, _CHUNK_ROWS):
        x = slice(i, min(i + _CHUNK_ROWS, r.stop))
        n = x.stop - i
        d, s = scratch.view(np.float64)[: 2 * n * M].reshape(2, n, M)
        chunks.append((x, velocity[: 2 * n * M].reshape(2, n, M),
                       scratch[: 2 * n * (M // 2 + 1)].reshape(2, n, M // 2 + 1), d, s))
    return chunks


class _Slabs:
    """The arrays, slabs and threads of the RK steps of one solver call.

    Read-only, complex128 (numpy would cast real factors in every product,
    through a buffer) and k2-major (_half) k2 >= 0 halves of the modal
    square: damping, the damping rates lam(k), lam_max their largest; curl,
    -k1 k2 and k1^2 - k2^2, the factors of a and b in dw/dt; to_u, i k2/|k|^2
    and -i k1/|k|^2, which make u of w. Buffers, overwritten by every step:
    work, complex (2, M, N+1) and k2-major, holds the k2 = 0..N columns of a
    synthesis along x1; the row pass (_row_pass) replaces each x1 row of it
    by the same columns of the products' real FFT along x2, and the FFT
    along x1 runs in place in it; between steps, as ledger, the ledger's
    squares (_ledger_terms). No array holds the padded grid: each row slab
    goes through its rows _CHUNK_ROWS at a time in two scratches of its own
    (chunks, _chunks). The k2-major modal arrays of the column passes, one
    block (buffers): ab the analyzed products, then the velocity of the
    next synthesis (between steps, the state's); the scalar u1, the stage
    field, and du, dw/dt.

    The n row slabs and n column slabs split each pass (module docstring)
    into contiguous ranges; run calls fn on the first slab on the calling
    thread and on the others on the pool, and returns when all are done.
    One slab (no pool) makes the whole-array calls of a serial step.
    """

    def __init__(self, params: SolverParams, pool=None, n: int = 1):
        N, M = params.N, params.padded_grid
        self.params = params
        k1, k2, ksq = (a[:, N:] for a in wavenumbers(N))
        ksq = np.where(ksq == 0, 1, ksq)        # k = 0: every numerator below is 0
        self.damping, self.curl, self.to_u = _half(N), _half(N, 2), _half(N, 2)
        self.damping[...] = damping_rates(params)[:, N:]
        self.lam_max = float(np.max(self.damping.real))
        self.curl[0], self.curl[1] = -k1 * k2, k1 * k1 - k2 * k2
        np.multiply(1j, k2 / ksq, out=self.to_u[0])
        np.multiply(-1j, k1 / ksq, out=self.to_u[1])
        for a in (self.damping, self.curl, self.to_u):
            a.flags.writeable = False
        memory = np.empty(2 * (N + 1) * M, dtype=np.complex128)
        self.work = memory.reshape(2, N + 1, M).swapaxes(-1, -2)
        self.ledger = memory.view(np.float64)
        self.buffers()
        self.rows = tuple(slice(M * i // n, M * (i + 1) // n) for i in range(n))
        self.chunks = {r.start: _chunks(r, M) for r in self.rows}
        self.cols = tuple(slice((N + 1) * i // n, (N + 1) * (i + 1) // n) for i in range(n))
        self.pool = pool

    def buffers(self) -> None:
        """Make ab, u1 and du, views of one block: evolve drops and remakes it."""
        block = _half(self.params.N, 4)
        self.ab, self.u1, self.du = block[:2], block[2], block[3]

    def run(self, fn, slabs) -> list:
        # A copied context carries the caller's numpy error state into the pool.
        futures = [self.pool.submit(contextvars.copy_context().run, fn, s) for s in slabs[1:]]
        try:
            first = fn(slabs[0])
        finally:
            # no slab outlives run, even when one of them raises
            rest = [f.result() for f in futures]
        return [first, *rest]


@contextlib.contextmanager
def _slabs(params: SolverParams, threads: int):
    """Slabs for threads threads, or one slab on a grid below _SLAB_MIN_GRID."""
    n = min(threads, params.N + 1) if params.padded_grid >= _SLAB_MIN_GRID else 1
    if n == 1:
        yield _Slabs(params)
        return
    # imported here, so that a process that starts no threads never imports it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        yield _Slabs(params, pool, n)


def _row_pass(slabs: _Slabs, r: slice, bound: bool):
    """Row pass of an RHS on the x1 rows r, a chunk of rows at a time: the
    real inverse FFT along x2 of work's rows into the chunk's velocity
    scratch, the products a and b (module docstring) of the velocity in its
    place, and their real FFT along x2, whose columns k2 = 0..N go back
    into the same rows of work. With bound, also the largest |u|^2 on these
    rows of the padded grid (else None)."""
    N = slabs.params.N
    maxima = []
    for x, vel, spec, d, s in slabs.chunks[r.start]:
        _synthesize_rows(slabs.work[:, x], vel)
        u1, u2 = vel
        if bound:
            np.multiply(u1, u1, out=d)
            np.multiply(u2, u2, out=s)
            np.add(d, s, out=d)
            maxima.append(d.max())
        # u1^2 - u2^2 as (u1 - u2)(u1 + u2), u1 u2 in u2's slot
        np.subtract(u1, u2, out=d)
        np.add(u1, u2, out=s)
        np.multiply(u1, u2, out=u2)
        np.multiply(d, s, out=u1)
        _analyze_rows(vel, spec)
        np.copyto(slabs.work[:, x], spec[..., : N + 1])
    return np.max(maxima) if bound else None


def _velocity(w: np.ndarray, u: np.ndarray, slabs: _Slabs, c: slice) -> None:
    """u = (i k2, -i k1) w/|k|^2 on the k2 columns c of the half planes w and
    u, a component at a time: numpy buffers a broadcast w on small grids."""
    for to_u, ui in zip(slabs.to_u, u):
        np.multiply(to_u[:, c], w[:, c], out=ui[:, c])


def _vorticity(u: SpectralField, slabs: _Slabs) -> np.ndarray:
    """w = i (k1 u2 - k2 u1) on the k2 >= 0 half plane of u, in a fresh
    k2-major array, and its velocity in ab unless evolve dropped ab: how
    every entry point turns its field into the state."""
    N, half = slabs.params.N, _half_plane(u, slabs.params)
    k1, k2, _ = wavenumbers(N)
    w = _half(N)
    np.multiply(k1[:, N:], half[1], out=w)
    np.subtract(w, k2[:, N:] * half[0], out=w)
    np.multiply(1j, w, out=w)
    if slabs.ab is not None:
        slabs.run(lambda c: _velocity(w, slabs.ab, slabs, c), slabs.cols)
    return w


def _stage1_rows(slabs: _Slabs, bound: bool):
    """The first stage's synthesis of ab along x1 and row pass (_row_pass). With
    bound, returns max |u|^2 on the padded grid, the max of the row slabs'
    maxima (NaN if one is NaN): the same double as over the whole grid."""
    slabs.run(lambda c: _synthesize_cols(slabs.ab, slabs.work, c), slabs.cols)
    maxima = slabs.run(lambda r: _row_pass(slabs, r, bound), slabs.rows)
    return np.max(maxima) if bound else None


def _rhs_cols(w: np.ndarray, slabs: _Slabs, c: slice) -> None:
    """Column pass of an RHS on the k2 columns c, after _row_pass: dw/dt of
    the vorticity half plane w into slabs.du, one operation per line of
        du = -k1 k2 a + (k1^2 - k2^2) b - damping * w,  du(0) = 0,
    in ab's slots. No operand is cast or broadcast, so numpy buffers none."""
    ab, du = slabs.ab[..., c], slabs.du[:, c]
    _analyze_cols(slabs.work, slabs.ab, c)
    np.multiply(slabs.curl[..., c], ab, out=ab)
    np.add(ab[0], ab[1], out=du)
    np.multiply(slabs.damping[:, c], w[:, c], out=ab[0])
    np.subtract(du, ab[0], out=du)
    if c.start == 0:
        du[slabs.params.N, 0] = 0.0


def rhs(u: SpectralField, params: SolverParams) -> SpectralField:
    """The velocity of dw/dt under the scheme, in a fresh field; runs on the calling thread."""
    slabs = _Slabs(params)
    w = _vorticity(u, slabs)
    _stage1_rows(slabs, False)
    _rhs_cols(w, slabs, slabs.cols[0])
    _hermitian_column(slabs.du)
    return _field(slabs.du, slabs)


def _dt_bound(speed_sq, slabs: _Slabs) -> float:
    """adaptive_dt from speed_sq, max |u|^2 on the padded grid (_stage1_rows;
    unused for cfl = 0). max sqrt(|u|^2) is taken as sqrt(max |u|^2): sqrt
    is correctly rounded and so monotone, and the two are the same double.
    """
    params = slabs.params
    dt = viscous_dt(params, slabs.lam_max)
    if params.cfl > 0.0:
        umax = float(np.sqrt(speed_sq))
        if umax > 0.0:
            h = 2.0 * np.pi / (2 * params.N)
            return min(dt, params.cfl * h / umax)
    if dt == math.inf:
        raise ValueError("no finite step bound: zero damping and zero velocity")
    return dt


def adaptive_dt(u: SpectralField, params: SolverParams) -> float:
    """Step size: min of CFL-advective and explicit-diffusion bounds.

    dt_adv = cfl * h / max|u| with h = 2pi/(2N) and max|u| the largest speed
    on the padded grid of the velocity of u's vorticity; dt_visc =
    viscous_dt(params). A zero field (or cfl = 0) leaves only the viscous
    bound. For one field (tests, the per-layer benchmark; evolve bounds its
    first stage's synthesis); runs on the calling thread.
    """
    slabs = _Slabs(params)
    _vorticity(u, slabs)
    return _dt_bound(_stage1_rows(slabs, params.cfl > 0.0), slabs)


def _step_coeffs(w: np.ndarray, dt: float, slabs: _Slabs) -> None:
    """One Shu-Osher SSP-RK3 step of the vorticity half plane w, in place, after
    its first row pass (_stage1_rows); its k2 = 0 column is made exactly
    Hermitian and its velocity put in ab. A stage is a row and a column pass."""
    N = slabs.params.N

    # The stage combinations, one operation per line: u1 = w + dt * du;
    # u2 = 0.75 * w + 0.25 * (u1 + dt * du), in u1's slot; the next
    # w = (w + 2.0 * (u2 + dt * du)) / 3.0, in du's slot and then in w's
    def stage1(c):
        w0, u1, du = w[:, c], slabs.u1[:, c], slabs.du[:, c]
        _rhs_cols(w, slabs, c)
        np.multiply(dt, du, out=du)
        np.add(w0, du, out=u1)
        _velocity(slabs.u1, slabs.ab, slabs, c)
        _synthesize_cols(slabs.ab, slabs.work, c)

    def stage2(c):
        w0, u1, du = w[:, c], slabs.u1[:, c], slabs.du[:, c]
        _rhs_cols(slabs.u1, slabs, c)
        np.multiply(dt, du, out=du)
        np.add(u1, du, out=du)
        np.multiply(0.25, du, out=du)
        np.multiply(0.75, w0, out=u1)
        np.add(u1, du, out=u1)
        _velocity(slabs.u1, slabs.ab, slabs, c)
        _synthesize_cols(slabs.ab, slabs.work, c)

    def stage3(c):
        w0, u2, du = w[:, c], slabs.u1[:, c], slabs.du[:, c]
        _rhs_cols(slabs.u1, slabs, c)
        np.multiply(dt, du, out=du)
        np.add(u2, du, out=du)
        np.multiply(2.0, du, out=du)
        np.add(w0, du, out=du)
        np.divide(du, 3.0, out=w0)
        if c.start == 0:
            w[N, 0] = 0.0
            _hermitian_column(w)
        _velocity(w, slabs.ab, slabs, c)

    slabs.run(stage1, slabs.cols)
    slabs.run(lambda r: _row_pass(slabs, r, False), slabs.rows)
    slabs.run(stage2, slabs.cols)
    slabs.run(lambda r: _row_pass(slabs, r, False), slabs.rows)
    slabs.run(stage3, slabs.cols)


def _field(w: np.ndarray, slabs: _Slabs) -> SpectralField:
    """The velocity of w (_velocity), mirrored into a fresh record-layout field, on this thread."""
    N = slabs.params.N
    out = _record_layout(N)
    _velocity(w, out[..., N:], slabs, slice(None))
    _full_plane(out[..., N:], out)
    return SpectralField._wrap(N, out)


def _ledger_terms(half: np.ndarray, slabs: _Slabs) -> tuple[float, float]:
    """(E, rate) of the field with the k2 >= 0 velocity half plane half (ab,
    an output's field or u0, in any layout), from its squares mirrored into
    a record's order in slabs.ledger (|conj z| = |z|, lam(-k) = lam(k)): E is
    modal_energy's sum; rate (NaN if E is not finite) has the bits of
    2.0 * np.sum(damping_rates(params) * (abs(c0) ** 2 + abs(c1) ** 2))."""
    K, N = half.shape[-2], half.shape[-1] - 1
    sq = slabs.ledger[: 2 * K * K].reshape(K, K, 2)
    h = slabs.ledger[2 * K * K : 2 * K * (K + N + 1)].reshape(2, N + 1, K).swapaxes(-1, -2)
    np.abs(half, out=h)
    np.square(h, out=h)
    rec = h.transpose(1, 2, 0)
    sq[:, N:] = rec
    sq[:, :N] = rec[::-1, :0:-1]
    E = float(np.sum(sq))
    if not math.isfinite(E):
        return E, math.nan
    # weighted in the half plane's layout (numpy buffers a product of two)
    r, w = h[0], slabs.ledger[: K * K].reshape(K, K)
    np.add(h[0], h[1], out=r)
    np.multiply(slabs.damping.real, r, out=r)
    w[:, N:] = r
    w[:, :N] = r[::-1, :0:-1]
    return E, float(2.0 * np.sum(w))


def step(u: SpectralField, dt: float, params: SolverParams) -> SpectralField:
    """One SSP-RK3 step of size dt. Raises BlowUpError if its E is not finite.

    For one field (tests, the per-layer benchmark); runs on the calling thread.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    slabs = _Slabs(params)
    w = _vorticity(u, slabs)
    _stage1_rows(slabs, False)
    _step_coeffs(w, dt, slabs)
    u = _field(w, slabs)
    if not math.isfinite(_ledger_terms(_half_plane(u, params), slabs)[0]):
        raise BlowUpError("non-finite energy after time step")
    return u


@dataclass
class EnergyLedger:
    """Energy balance bookkeeping in modal normalization.

    E0 is the initial modal energy sum_k |u(k)|^2, E the current one, D the
    accumulated dissipation integral of 2 sum_k lam(k) |u(k)|^2 dt
    (trapezoidal in time). The scheme conserves E + D up to integration
    error. evolve raises BlowUpError at a step whose E is not finite.
    """

    E0: float
    E: float
    D: float = 0.0


def evolve(u0: SpectralField, t_end: float, params: SolverParams, output_times=(), on_step=None,
           threads: int = 1):
    """Integrate to t_end with adaptive steps; return (field, EnergyLedger).

    Steps are clipped so that every requested output time (and t_end) is hit
    exactly. on_step(t, field, ledger), when given, is called at t = 0 with
    u0 and after every accepted step, with a fresh field at an output time
    (t is that time exactly) and at t_end (the field returned), else None.
    A step whose E is not finite (a non-finite coefficient, or squares that
    overflow) and steps past MAX_STEPS raise BlowUpError carrying the time.

    Besides its slabs (_Slabs) evolve holds one scalar half plane, w made of
    u0 after the call at t = 0, and no full plane between output times: u0
    and w, then an output's field, built from w, take the place of ab, u1
    and du, remade after them; an output step's ledger squares its field. No reference to u0 is kept
    past the first step (the caller may still hold it, on_step may keep more).

    With threads > 1 and a padded grid of at least _SLAB_MIN_GRID points,
    each pass of a step is split into that many row or column slabs, run by
    this thread and a pool of threads - 1 that lives for this call; the
    results are the same bits as with one thread. on_step runs on this
    thread. Every call holds its own arrays: calls from other threads, with
    equal params or not, leave its bits alone.
    """
    _half_plane(u0, params)         # checks u0.N before any array is made
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    targets = sorted(set(float(t) for t in output_times))
    if targets and (targets[0] < 0 or targets[-1] > t_end):
        raise ValueError("output times must lie within [0, t_end]")

    t, u = 0.0, u0
    del u0                  # the first step drops u0
    pending = [s for s in targets if s > 0.0]
    with _slabs(params, threads) as slabs:
        E0, g = _ledger_terms(_half_plane(u, params), slabs)
        ledger = EnergyLedger(E0=E0, E=E0)
        if on_step is not None:
            on_step(t, u, ledger)
        slabs.ab = slabs.u1 = slabs.du = None      # u0 and w take their place
        w = _vorticity(u, slabs)
        steps = 0
        while t < t_end:
            u = None            # u0, or the field of the last output time
            if slabs.ab is None:
                slabs.buffers()
                slabs.run(lambda c: _velocity(w, slabs.ab, slabs, c), slabs.cols)
            if (steps := steps + 1) > MAX_STEPS:
                raise BlowUpError(f"{MAX_STEPS} steps spent at t={t:.6g} of {t_end:g}", time=t)
            # One synthesis per stage: the first one's velocity also bounds dt.
            speed_sq = _stage1_rows(slabs, params.cfl > 0.0)
            horizon = pending[0] if pending else t_end
            dt = min(_dt_bound(speed_sq, slabs), horizon - t)
            _step_coeffs(w, dt, slabs)
            t = t + dt
            if output := pending and t >= pending[0] - 1e-14 * max(1.0, t_end):
                t = pending.pop(0)
            if output or t >= t_end:
                slabs.ab = slabs.u1 = slabs.du = None      # the field takes their place
                u = _field(w, slabs)
            E, g_after = _ledger_terms(slabs.ab if u is None else _half_plane(u, params), slabs)
            if not math.isfinite(E):
                raise BlowUpError(f"blow-up at t={t:.6g} (E0={ledger.E0:.6g}, last E={ledger.E:.6g})",
                                  time=t)
            ledger.D += 0.5 * dt * (g + g_after)
            g = g_after
            ledger.E = E
            if on_step is not None:
                on_step(t, u, ledger)
    return u, ledger
