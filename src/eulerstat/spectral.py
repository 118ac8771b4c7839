"""Spectral representation of periodic 2D fields.

Conventions used throughout the package:

- The domain is the 2pi-periodic square torus [0, 2pi)^2.
- A velocity field is stored by its Fourier coefficients on the modal
  square |k|_inf <= N, i.e. u(x) = sum_k coeff(k) exp(i k.x) with
  k = (k1, k2) integer wavenumbers.
- Coefficient arrays are indexed coeffs[c, i1, i2] with k_a = i_a - N,
  component c in {0, 1}. Scalar fields drop the leading axis.
- Physical grids are equispaced, x_j = 2pi*j/M, stored as (M, M, 2)
  arrays for vector fields (axes: x1 index, x2 index, component) and
  (M, M) for scalars.
- Real-valuedness corresponds to Hermitian symmetry
  coeff(-k) = conj(coeff(k)); the k = 0 mode is pinned to zero
  (zero-mean fields, conservation of momentum).

Transforms between modes and grids use one real-FFT path (numpy.fft with
norm="forward") on the half plane k2 >= 0: _synthesize places the k2 >= 0
modes at k1 mod M and applies a complex inverse FFT along x1 and a real
one along x2; _analyze_half is the reverse, and _full_plane rebuilds the
k2 < 0 half (and the k1 < 0 half of the k2 = 0 column) by conjugate
symmetry, so analyzed coefficients are exactly Hermitian. Both accept any
grid size M >= 2N+1; sample_at_grid folds modes first and so takes any M.

All arithmetic is float64/complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InconsistencyError, ResolutionError, ShapeError

__all__ = [
    "SpectralField",
    "ScalarSpectralField",
    "wavenumbers",
    "to_physical",
    "from_physical",
    "scalar_to_physical",
    "scalar_from_physical",
    "sample_at_grid",
    "leray_project",
    "vorticity",
    "velocity_from_vorticity",
    "sobolev_norm",
    "l2_norm",
    "modal_energy",
    "truncate_to",
    "hermitize",
]


@lru_cache(maxsize=64)
def wavenumbers(N: int):
    """Return (k1, k2, ksq) integer arrays of shape (2N+1, 2N+1)."""
    k = np.arange(-N, N + 1)
    k1 = k[:, None] * np.ones_like(k)[None, :]
    k2 = np.ones_like(k)[:, None] * k[None, :]
    ksq = k1 * k1 + k2 * k2
    for a in (k1, k2, ksq):
        a.flags.writeable = False
    return k1, k2, ksq


def _validate_modal_shape(coeffs: np.ndarray, vector: bool) -> int:
    expected_ndim = 3 if vector else 2
    if coeffs.ndim != expected_ndim:
        raise ShapeError(f"expected {expected_ndim}-d coefficient array, got shape {coeffs.shape}")
    if vector and coeffs.shape[0] != 2:
        raise ShapeError(f"expected 2 components, got {coeffs.shape[0]}")
    n1, n2 = coeffs.shape[-2], coeffs.shape[-1]
    if n1 != n2 or n1 % 2 == 0:
        raise ShapeError(f"modal array must be odd square, got {coeffs.shape}")
    return (n1 - 1) // 2


def hermitize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-symmetric arrays: c(k) <- (c(k) + conj(c(-k)))/2."""
    flipped = coeffs[..., ::-1, ::-1]
    return 0.5 * (coeffs + np.conj(flipped))


@dataclass(frozen=True)
class SpectralField:
    """Divergence-free-capable velocity field as modal coefficients.

    Attributes
    ----------
    N : int
        Modal cutoff; coefficients cover |k|_inf <= N.
    coeffs : np.ndarray
        Complex array of shape (2, 2N+1, 2N+1), read-only.
    """

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        n = _validate_modal_shape(c, vector=True)
        if n != self.N:
            raise ShapeError(f"coefficient array implies N={n}, field declares N={self.N}")
        c[:, self.N, self.N] = 0.0
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _wrap(cls, N: int, coeffs: np.ndarray) -> "SpectralField":
        """Internal fast path: take ownership of a freshly built array."""
        obj = object.__new__(cls)
        coeffs[:, N, N] = 0.0
        coeffs.flags.writeable = False
        object.__setattr__(obj, "N", N)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    @classmethod
    def zero(cls, N: int) -> "SpectralField":
        return cls._wrap(N, np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=np.complex128))

    def coeff(self, k1: int, k2: int, component: int) -> complex:
        """Single coefficient accessor, k in signed wavenumber convention."""
        return complex(self.coeffs[component, k1 + self.N, k2 + self.N])

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.coeffs)))


@dataclass(frozen=True)
class ScalarSpectralField:
    """Scalar periodic field (vorticity, stream function) as modal coefficients."""

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        n = _validate_modal_shape(c, vector=False)
        if n != self.N:
            raise ShapeError(f"coefficient array implies N={n}, field declares N={self.N}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def coeff(self, k1: int, k2: int) -> complex:
        return complex(self.coeffs[k1 + self.N, k2 + self.N])

    @property
    def mean_mode(self) -> complex:
        return complex(self.coeffs[self.N, self.N])


def _fold(a: np.ndarray, M: int, axis: int) -> np.ndarray:
    """Sum the modes k = -N..N along axis into the slots k mod M of an M-point DFT axis.

    For M >= 2N+1 no two modes share a slot and this is a plain embedding.
    """
    L = a.shape[axis]
    N = (L - 1) // 2
    shape = list(a.shape)
    shape[axis] = M
    out = np.zeros(shape, dtype=np.complex128)
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    i = 0
    while i < L:  # runs of consecutive slots, at most ceil(L/M) + 1 of them
        r = (i - N) % M
        n = min(L - i, M - r)
        dst[r : r + n] += src[i : i + n]
        i += n
    return out


def _synthesize(half: np.ndarray, M: int) -> np.ndarray:
    """Real values on the M x M grid of a Hermitian field given by its k2 >= 0 half.

    half has shape (..., 2N+1, C): rows k1 = -N..N, which are folded onto
    k1 mod M, and columns k2 = 0..C-1 with C <= M//2 + 1. The inverse
    transform along x1 is complex, the one along x2 real, so the k2 < 0
    half is implied by conjugate symmetry. Returns shape (..., M, M).
    """
    rows = _fold(half, M, -2)
    np.fft.ifft(rows, axis=-2, norm="forward", out=rows)
    return np.fft.irfft(rows, n=M, axis=-1, norm="forward")


def _analyze_half(grid: np.ndarray, N: int) -> np.ndarray:
    """Modes k1 = -N..N, k2 = 0..N of a real (..., M, M) grid, M >= 2N+1."""
    M = grid.shape[-1]
    cols = np.fft.rfft(grid, axis=-1, norm="forward")[..., : N + 1]
    np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    return np.concatenate((cols[..., M - N :, :], cols[..., : N + 1, :]), axis=-2)


def _full_plane(half: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (..., 2N+1, 2N+1) array with the given k2 >= 0 half.

    The k1 < 0 part of the k2 = 0 column is rebuilt (in half, in place)
    from its k1 > 0 part and the mean mode made real; the k2 < 0 half
    follows from coeff(-k) = conj(coeff(k)).
    """
    N = half.shape[-1] - 1
    col = half[..., 0]
    col[..., :N] = np.conj(col[..., :N:-1])
    col[..., N] = col[..., N].real
    return np.concatenate((np.conj(half[..., ::-1, :0:-1]), half), axis=-1)


def to_physical(field: SpectralField, grid_points: int | None = None) -> np.ndarray:
    """Synthesize the field on an equispaced grid.

    grid_points defaults to 3N; must be >= 2N+1 so that the synthesis is
    alias-free and invertible. Returns a real (M, M, 2) array.
    """
    M = 3 * field.N if grid_points is None else int(grid_points)
    if M < 2 * field.N + 1:
        raise ResolutionError(f"grid_points={M} < 2N+1={2 * field.N + 1}")
    grid = _synthesize(field.coeffs[..., field.N :], M)
    return np.ascontiguousarray(grid.transpose(1, 2, 0))


def scalar_to_physical(field: ScalarSpectralField, grid_points: int | None = None) -> np.ndarray:
    M = 3 * field.N if grid_points is None else int(grid_points)
    if M < 2 * field.N + 1:
        raise ResolutionError(f"grid_points={M} < 2N+1={2 * field.N + 1}")
    return _synthesize(field.coeffs[..., field.N :], M)


def sample_at_grid(field: SpectralField, grid_points: int) -> np.ndarray:
    """Exact pointwise values of the trigonometric polynomial on any M >= 1 grid.

    Unlike to_physical this permits M < 2N+1: coefficients are folded onto
    the coarse DFT grid (modes congruent mod M coincide at the grid nodes),
    which reproduces the pointwise samples exactly but is not invertible.
    """
    M = int(grid_points)
    if M < 1:
        raise ResolutionError("grid_points must be >= 1")
    half = _fold(field.coeffs, M, -1)[..., : M // 2 + 1]
    return np.ascontiguousarray(_synthesize(half, M).transpose(1, 2, 0))


def _analyze(grid: np.ndarray, N: int) -> np.ndarray:
    M = grid.shape[-1]
    if grid.shape[-2] != M:
        raise ShapeError(f"grid must be square, got {grid.shape}")
    if M < 2 * N + 1:
        raise ResolutionError(f"grid size {M} cannot resolve modes up to N={N}")
    return _full_plane(_analyze_half(grid, N))


def from_physical(grid: np.ndarray, N: int) -> SpectralField:
    """Analyze a real (M, M, 2) grid, truncating to |k|_inf <= N.

    The zero mode is discarded (fields are mean-free by convention).
    """
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 3 or g.shape[2] != 2:
        raise ShapeError(f"expected (M, M, 2) grid, got {g.shape}")
    coeffs = _analyze(g.transpose(2, 0, 1), N)
    return SpectralField._wrap(N, coeffs)


def scalar_from_physical(grid: np.ndarray, N: int) -> ScalarSpectralField:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"expected (M, M) grid, got {g.shape}")
    return ScalarSpectralField(N, _analyze(g, N))


def leray_project(field: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: c(k) <- c(k) - k (k.c(k))/|k|^2."""
    k1, k2, ksq = wavenumbers(field.N)
    inv = np.where(ksq == 0, 0.0, 1.0 / np.where(ksq == 0, 1, ksq))
    dot = (k1 * field.coeffs[0] + k2 * field.coeffs[1]) * inv
    out = np.empty_like(field.coeffs)
    out[0] = field.coeffs[0] - k1 * dot
    out[1] = field.coeffs[1] - k2 * dot
    return SpectralField._wrap(field.N, out)


def max_divergence(field: SpectralField) -> float:
    """max_k |k . coeff(k)|, a solenoidality residual."""
    k1, k2, _ = wavenumbers(field.N)
    return float(np.max(np.abs(k1 * field.coeffs[0] + k2 * field.coeffs[1])))


def vorticity(field: SpectralField) -> ScalarSpectralField:
    """Scalar curl: w(k) = i (k1 u2(k) - k2 u1(k))."""
    k1, k2, _ = wavenumbers(field.N)
    return ScalarSpectralField(field.N, 1j * (k1 * field.coeffs[1] - k2 * field.coeffs[0]))


def velocity_from_vorticity(w: ScalarSpectralField) -> SpectralField:
    """Divergence-free velocity with the given curl: u(k) = i (k2, -k1) w(k)/|k|^2.

    Raises InconsistencyError when the vorticity has a nonzero mean (no
    periodic velocity field has a curl with nonzero mean).
    """
    scale = float(np.max(np.abs(w.coeffs))) or 1.0
    if abs(w.mean_mode) > 1e-12 * scale:
        raise InconsistencyError(f"vorticity has nonzero mean mode {w.mean_mode!r}")
    k1, k2, ksq = wavenumbers(w.N)
    inv = np.where(ksq == 0, 0.0, 1.0 / np.where(ksq == 0, 1, ksq))
    out = np.empty((2, 2 * w.N + 1, 2 * w.N + 1), dtype=np.complex128)
    out[0] = 1j * k2 * w.coeffs * inv
    out[1] = -1j * k1 * w.coeffs * inv
    return SpectralField._wrap(w.N, out)


def sobolev_norm(field: SpectralField, exponent: float = 0.0) -> float:
    """H^e norm ((2pi)^2 sum_k (1+|k|^2)^e |coeff(k)|^2)^(1/2); e=0 is the L2 norm."""
    _, _, ksq = wavenumbers(field.N)
    weights = (1.0 + ksq.astype(np.float64)) ** exponent
    total = np.sum(weights * (np.abs(field.coeffs[0]) ** 2 + np.abs(field.coeffs[1]) ** 2))
    return float(2.0 * np.pi * np.sqrt(total))


def l2_norm(field: SpectralField) -> float:
    return sobolev_norm(field, 0.0)


def modal_energy(field: SpectralField) -> float:
    """sum_k |coeff(k)|^2 over both components (modal normalization)."""
    return float(np.sum(np.abs(field.coeffs) ** 2))


def truncate_to(field: SpectralField, N_coarse: int) -> SpectralField:
    """Drop all modes with |k|_inf > N_coarse."""
    if N_coarse > field.N:
        raise ValueError(f"cannot truncate N={field.N} field to larger N_coarse={N_coarse}")
    lo, hi = field.N - N_coarse, field.N + N_coarse + 1
    return SpectralField(N_coarse, field.coeffs[:, lo:hi, lo:hi])
