"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they validate: the structure
function oracle integrates over the displacement ball by stratified Monte
Carlo (no Bessel functions anywhere), W1 is minimized by factorial
enumeration, and the Bessel kernel itself is checked against a quadrature
of the integral representation of J1.
"""

import itertools
import math

import numpy as np

from eulerstat.spectral import SpectralField, hermitize, leray_project, wavenumbers


def hermitian_random_field(N, rng, decay=1.0, amplitude=1.0):
    """Random real band-limited divergence-free field with |u(k)| ~ |k|^-decay."""
    k1, k2, ksq = wavenumbers(N)
    kmag = np.sqrt(ksq.astype(float))
    half = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    amp = np.where(ksq > 0, amplitude * (1.0 + kmag) ** (-decay), 0.0)
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    for comp in range(2):
        z = (rng.standard_normal(kmag.shape) + 1j * rng.standard_normal(kmag.shape)) * amp
        z = np.where(half, z, 0.0)
        c[comp] = z + np.conj(z[::-1, ::-1])
    return leray_project(SpectralField(N, c))


def band_limited_random_field(N, band, rng, amplitude=1.0):
    """Divergence-free random field supported on |k|_inf <= band."""
    c = np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    blk = rng.standard_normal((2, 2 * band + 1, 2 * band + 1)) + 1j * rng.standard_normal(
        (2, 2 * band + 1, 2 * band + 1)
    )
    c[:, N - band : N + band + 1, N - band : N + band + 1] = amplitude * blk
    return leray_project(SpectralField(N, hermitize(c)))


def synthetic_spectrum_field(N, beta, rng):
    """Divergence-free field whose energy spectrum is exactly E(K) = K^(-2 beta).

    Shell K distributes 2 K^(-2 beta) of modal power uniformly over its
    modes; phases are random but amplitudes exact (Hermitian by mirroring
    a half-spectrum, so hermitization cannot redistribute shell energy).
    """
    k1, k2, ksq = wavenumbers(N)
    kmag = np.sqrt(ksq.astype(float))
    shell = np.ceil(kmag).astype(int)
    n_per_shell = np.bincount(shell.ravel())
    half = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    mask = ksq > 0
    amp = np.zeros_like(kmag)
    amp[mask] = np.sqrt(2.0 * shell[mask].astype(float) ** (-2 * beta) / n_per_shell[shell[mask]])
    safe = np.where(mask, kmag, 1.0)
    e1 = np.where(mask, -k2 / safe, 0.0)
    e2 = np.where(mask, k1 / safe, 0.0)
    phase = np.exp(2j * np.pi * rng.random(kmag.shape))
    base = np.where(half, amp * phase, 0.0)
    c = np.empty((2, 2 * N + 1, 2 * N + 1), dtype=complex)
    c[0] = base * e1 + np.conj((base * e1)[::-1, ::-1])
    c[1] = base * e2 + np.conj((base * e2)[::-1, ::-1])
    return SpectralField(N, c)


def ball_strata_samples(rng, radius, n_rad=100, n_ang=100):
    """Stratified uniform sample of the disk |h| < radius, one point per
    equal-area cell (n_rad radial x n_ang angular strata)."""
    i = np.arange(n_rad)[:, None]
    j = np.arange(n_ang)[None, :]
    rad = radius * np.sqrt((i + rng.random((n_rad, n_ang))) / n_rad)
    ang = 2.0 * np.pi * (j + rng.random((n_rad, n_ang))) / n_ang
    return rad.ravel() * np.cos(ang.ravel()), rad.ravel() * np.sin(ang.ravel())


def grid_increment_integral(field, h):
    """Literal grid quadrature of int |u(x+h) - u(x)|^2 dx on 2N+1 points.

    The integrand is band-limited to |k|_inf <= 2N, for which the (2N+1)^2
    equispaced trapezoid rule is exact.
    """
    from eulerstat.spectral import to_physical

    N = field.N
    M = 2 * N + 1
    k1, k2, _ = wavenumbers(N)
    shifted = SpectralField(N, field.coeffs * np.exp(1j * (k1 * h[0] + k2 * h[1])))
    g = to_physical(field, M)
    gs = to_physical(shifted, M)
    return (2.0 * np.pi) ** 2 * float(np.mean(np.sum((gs - g) ** 2, axis=2)))


def modal_increment_integral(power_half, k1_half, k2_half, h1, h2):
    """int |u(x+h)-u(x)|^2 dx for a batch of displacements, via the exact
    cosine form of the grid quadrature (half-spectrum, doubled)."""
    phase = np.outer(h1, k1_half) + np.outer(h2, k2_half)
    return 4.0 * (2.0 * np.pi) ** 2 * ((1.0 - np.cos(phase)) @ power_half)


def structure_function_quadrature(snapshot, r_values, seed=0, n_rad=100, n_ang=100):
    """Physical-space structure function: stratified Monte Carlo over the
    displacement ball (n_rad * n_ang h-samples per r), exact x-integral."""
    N = snapshot.N
    k1, k2, ksq = wavenumbers(N)
    half = ((k1 > 0) | ((k1 == 0) & (k2 > 0))).ravel()
    k1h = k1.ravel()[half].astype(float)
    k2h = k2.ravel()[half].astype(float)
    power = np.zeros(k1h.size)
    for f in snapshot.fields:
        p = (np.abs(f.coeffs[0]) ** 2 + np.abs(f.coeffs[1]) ** 2).ravel()
        power += p[half]
    power /= snapshot.m
    rng = np.random.default_rng(seed)
    out = np.empty(len(r_values))
    for idx, r in enumerate(r_values):
        h1, h2 = ball_strata_samples(rng, r, n_rad, n_ang)
        d = modal_increment_integral(power, k1h, k2h, h1, h2)
        out[idx] = np.sqrt(d.mean())
    return out


def w1_bruteforce(A, B):
    """Exact W1 by enumerating all assignments (m <= ~8)."""
    m = A.shape[0]
    cost = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
    best = np.inf
    for perm in itertools.permutations(range(m)):
        total = math.fsum(cost[np.arange(m), perm])
        best = min(best, total)
    return best / m


def bessel_j1_quadrature(x, panels=1, nodes=64):
    """J1(x) = (1/pi) int_0^pi cos(theta - x sin theta) dtheta by
    panel-wise Gauss-Legendre quadrature with `nodes` points per panel."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, np.pi, panels + 1)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros_like(xx)
    for a, b in zip(edges, edges[1:]):
        theta = 0.5 * (b - a) * t + 0.5 * (a + b)
        f = np.cos(theta[None, :] - np.outer(xx, np.sin(theta)))
        total += 0.5 * (b - a) * (f @ w)
    return total / np.pi


def _complex_embed(coeffs, M):
    """Full-plane M-point DFT array with mode k at (k1 mod M, k2 mod M), summing
    modes that coincide (M < 2N+1 folds them)."""
    N = (coeffs.shape[-1] - 1) // 2
    out = np.zeros(coeffs.shape[:-2] + (M, M), dtype=complex)
    idx = np.arange(-N, N + 1) % M
    for i1, r1 in enumerate(idx):
        for i2, r2 in enumerate(idx):
            out[..., r1, r2] += coeffs[..., i1, i2]
    return out


def complex_synthesis(coeffs, M):
    """Real part of the complex inverse FFT of the embedded modes, (..., M, M)."""
    return np.real(np.fft.ifft2(_complex_embed(coeffs, M), axes=(-2, -1))) * (M * M)


def complex_analysis(grid, N):
    """Modes |k|_inf <= N of a real (..., M, M) grid by a complex FFT, hermitized."""
    M = grid.shape[-1]
    idx = np.arange(-N, N + 1) % M
    dft = np.fft.fft2(grid, axes=(-2, -1)) / (M * M)
    return hermitize(dft[..., idx[:, None], idx[None, :]])


def complex_rhs(coeffs, params):
    """The scheme's du/dt with complex FFTs on the full padded plane and a
    Hermitian projection of the advection term."""
    from eulerstat.solver import damping_rates

    N, M = params.N, params.padded_grid
    k1, k2, ksq = (a.astype(float) for a in wavenumbers(N))
    out = np.zeros_like(coeffs)
    if params.enable_nonlinear:
        U = complex_synthesis(coeffs, M)
        fhat = complex_analysis(np.stack((U[0] * U[0], U[0] * U[1], U[1] * U[1])), N)
        div0 = 1j * (k1 * fhat[0] + k2 * fhat[1])
        div1 = 1j * (k1 * fhat[1] + k2 * fhat[2])
        kdot = (k1 * div0 + k2 * div1) * np.where(ksq == 0, 0.0, 1.0 / np.where(ksq == 0, 1, ksq))
        out[0] = -(div0 - k1 * kdot)
        out[1] = -(div1 - k2 * kdot)
        out = hermitize(out)
    out -= damping_rates(params) * coeffs
    out[:, N, N] = 0.0
    return out
