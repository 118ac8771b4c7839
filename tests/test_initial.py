import weakref

import numpy as np
import pytest
from scipy.integrate import quad

import eulerstat.initial as initial
from eulerstat.initial import (
    InitialMeasureSpec,
    PerturbationDraw,
    bspline_bump,
    fbm_sample,
    fbm_surface,
    flat_sheet_profile,
    flat_sheet_sample,
    generate_sample,
    perturbation,
    sample_rng,
    sinusoidal_sheet_sample,
    taylor_green_field,
)
from eulerstat.solver import SolverParams, evolve
from eulerstat.spectral import SpectralField, l2_norm, max_divergence, to_physical, vorticity
from oracles import dense_sheet_vorticity_grid


def test_perturbation_zero_amplitude():
    rng = sample_rng(0, 1)
    draw = PerturbationDraw.draw(rng, 10, 0.0)
    x = np.linspace(0, 1, 50)
    assert np.all(perturbation(draw, x) == 0.0)


def test_perturbation_single_mode_value():
    draw = PerturbationDraw(alphas=np.array([0.5]), betas=np.array([0.0]))
    assert abs(perturbation(draw, 0.25) - 0.5) < 1e-15


def test_perturbation_triangle_bound():
    for seed in range(20):
        rng = sample_rng(42, seed)
        draw = PerturbationDraw.draw(rng, 10, 0.03)
        x = np.linspace(0, 1, 257)
        assert np.abs(perturbation(draw, x)).max() <= draw.alphas.sum() + 1e-15
        assert draw.alphas.sum() <= 10 * 0.03
        assert np.all((draw.betas >= 0) & (draw.betas < 2 * np.pi))
        assert np.all((draw.alphas >= 0) & (draw.alphas <= 0.03))


def test_draw_deterministic():
    d1 = PerturbationDraw.draw(sample_rng(7, 3), 10, 0.05)
    d2 = PerturbationDraw.draw(sample_rng(7, 3), 10, 0.05)
    assert np.array_equal(d1.alphas, d2.alphas) and np.array_equal(d1.betas, d2.betas)


def test_flat_profile_smooth_center_and_shape():
    assert flat_sheet_profile(0.25, 0.1) == 0.0  # tanh(0) at the lower interface
    assert abs(flat_sheet_profile(0.5, 0.1) - np.tanh(2.5)) < 1e-15
    assert abs(flat_sheet_profile(0.75, 0.1)) < 1e-15


def test_flat_profile_discontinuous_values():
    x2 = np.array([0.0, 0.25, 0.2500001, 0.5, 0.75, 0.7500001, 1.0 - 1e-9])
    expect = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    assert np.array_equal(flat_sheet_profile(x2, 0.0), expect)


def test_flat_sheet_sample_invariants_and_determinism():
    spec = InitialMeasureSpec(family="flat_sheet", N=24, rho=0.1, delta=0.025, base_seed=9)
    u1 = flat_sheet_sample(spec, 3)
    u2 = flat_sheet_sample(spec, 3)
    assert np.array_equal(u1.coeffs, u2.coeffs)
    assert max_divergence(u1) < 1e-12
    assert u1.coeff(0, 0, 0) == 0.0
    assert not np.array_equal(u1.coeffs, flat_sheet_sample(spec, 4).coeffs)


def test_flat_sheet_mirror_symmetry():
    # delta = 0, rho > 0: u1(x1, 1/2 + y) = u1(x1, 1/2 - y)
    spec = InitialMeasureSpec(family="flat_sheet", N=32, rho=0.1, delta=0.0, base_seed=1)
    g = to_physical(flat_sheet_sample(spec, 1), 96)  # x2 = 1/2 at index 48
    assert np.abs(g[:, 49:, 0] - g[:, 47:0:-1, 0]).max() < 1e-10


def test_flat_sheet_perturbation_vanishes_with_delta():
    base = InitialMeasureSpec(family="flat_sheet", N=32, rho=0.1, delta=0.0, base_seed=5)
    u0 = flat_sheet_sample(base, 1)
    dists = []
    for delta in (0.05, 0.025, 0.0125):
        spec = InitialMeasureSpec(family="flat_sheet", N=32, rho=0.1, delta=delta, base_seed=5)
        u = flat_sheet_sample(spec, 1)
        dists.append(l2_norm(SpectralField(32, u.coeffs - u0.coeffs)))
    assert dists[0] > dists[1] > dists[2]


def test_bspline_endpoint_and_support():
    # (r+1)^3 - 4(r+1/2)^3 + 6r^3 - 4(r-1/2)^3 + (r-1)^3 telescopes to 0 at r=1
    assert bspline_bump(1.0) == 0.0
    assert np.all(bspline_bump(np.linspace(1.0, 5.0, 40)) == 0.0)
    assert abs(bspline_bump(0.0) - 40.0 / (7.0 * np.pi)) < 1e-15
    r = np.linspace(0, 1, 200)
    assert np.all(bspline_bump(r) >= 0.0)


def test_bspline_unit_mass():
    mass = quad(lambda r: bspline_bump(r) * 2 * np.pi * r, 0, 1)[0]
    assert abs(mass - 1.0) < 1e-12


def test_sinusoidal_sheet_invariants():
    spec = InitialMeasureSpec(
        family="sinusoidal_sheet", N=24, rho=5 / 24, delta=0.003125, base_seed=2
    )
    u = sinusoidal_sheet_sample(spec, 1)
    assert max_divergence(u) < 1e-12
    assert abs(vorticity(u).mean_mode) < 1e-10
    assert np.array_equal(u.coeffs, sinusoidal_sheet_sample(spec, 1).coeffs)


def test_sinusoidal_requires_mollification():
    with pytest.raises(ValueError):
        InitialMeasureSpec(family="sinusoidal_sheet", N=16, rho=0.0)


def test_sinusoidal_mollifier_within_one_period():
    InitialMeasureSpec(family="sinusoidal_sheet", N=8, rho=1.0)
    for rho in (1.0 + 2 ** -52, 1e300, float("inf")):
        with pytest.raises(ValueError, match=r"rho <= 1"):
            InitialMeasureSpec(family="sinusoidal_sheet", N=8, rho=rho)


# rho * 3N of 1.5, 3, 15 and 7 rows; 0.45 needs all but one row at N = 8,
# and 0.49 needs more rows than the grid has, so the window is the column.
SHEET_RHOS = {
    "half_over_N": lambda N: 0.5 / N,
    "one_over_N": lambda N: 1 / N,
    "five_over_N": lambda N: 5 / N,
    "seven_rows": lambda N: 7 / (3 * N),
    "0.45": lambda N: 0.45,
    "0.49": lambda N: 0.49,
}


# d = 1 and 2 move the sheet by one and two periods in x2, so rows wrap.
@pytest.mark.parametrize("d", [0.0, 0.2, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("rho", SHEET_RHOS.values(), ids=SHEET_RHOS.keys())
@pytest.mark.parametrize("N", [8, 16, 32])
def test_banded_sheet_grid_matches_dense_sum(N, rho, d):
    M, r = 3 * N, rho(N)
    dense = dense_sheet_vorticity_grid(M, r, 6, d).tobytes()
    for parts in (1, 2, 3, 4, M):
        assert initial._sheet_vorticity(M, r, 6, d, parts).tobytes() == dense, parts


def test_banded_sheet_grid_matches_dense_sum_at_preset_quadrature():
    # the sinusoidal_sheet preset's Q = 400 and rho = 5/N at N = 16, with
    # its d = 0.2 and with d = 1, where rows wrap
    for d in (0.2, 1.0):
        dense = dense_sheet_vorticity_grid(48, 5 / 16, 400, d).tobytes()
        for parts in (1, 2, 3, 4, 48):
            assert initial._sheet_vorticity(48, 5 / 16, 400, d, parts).tobytes() == dense, (d, parts)


@pytest.fixture
def counted_sheet_grids(monkeypatch):
    """Clears the sheet base cache and counts the vorticity grids built."""
    calls = []
    real = initial._sheet_vorticity

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(initial, "_sheet_vorticity", counted)
    monkeypatch.setattr(initial, "_last_base", None)
    return calls


def _sheet_spec(**kw):
    return InitialMeasureSpec(**{
        "family": "sinusoidal_sheet", "N": 12, "rho": 5 / 12, "delta": 0.003125,
        "quad_points": 20, "base_seed": 3, **kw,
    })


def test_sheet_base_built_once_per_spec(counted_sheet_grids):
    spec = _sheet_spec()
    for i in (1, 2, 3):
        sinusoidal_sheet_sample(spec, i)
    assert len(counted_sheet_grids) == 1
    changes = [dict(N=16), dict(rho=3 / 12), dict(quad_points=21), dict(d=0.3)]
    for count, change in enumerate(changes, start=2):
        sinusoidal_sheet_sample(_sheet_spec(**change), 1)
        assert len(counted_sheet_grids) == count


def test_sheet_base_is_read_only():
    base = initial.sample_base(_sheet_spec())
    assert not base.coeffs.flags.writeable
    with pytest.raises(ValueError):
        base.coeffs[0, 0, 0] = 1.0


def test_sheet_sample_same_bytes_cold_and_warm(counted_sheet_grids):
    spec = _sheet_spec()
    cold = sinusoidal_sheet_sample(spec, 2).coeffs.tobytes()
    sinusoidal_sheet_sample(spec, 1)
    warm = sinusoidal_sheet_sample(spec, 2).coeffs.tobytes()
    assert len(counted_sheet_grids) == 1
    assert cold == warm


@pytest.mark.parametrize(
    "bad",
    [
        dict(family="flat_sheet", delta=-1.0),
        dict(family="flat_sheet", rho=-0.1),
        dict(family="flat_sheet", q=-1),
        dict(family="sinusoidal_sheet", rho=0.1, quad_points=0),
        dict(family="flat_sheet", base_seed=-3),
        dict(family="fbm", hurst=0.0),
        dict(family="nope"),
    ],
)
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        InitialMeasureSpec(N=16, **bad)


def test_spec_accepts_boundary_values():
    InitialMeasureSpec(family="flat_sheet", N=16, q=0, delta=0.0, base_seed=0)
    InitialMeasureSpec(family="sinusoidal_sheet", N=16, rho=0.1, quad_points=1)


def test_fbm_sample_invariants():
    spec = InitialMeasureSpec(family="fbm", N=16, hurst=0.5, base_seed=3)
    u = fbm_sample(spec, 2)
    assert np.array_equal(u.coeffs, fbm_sample(spec, 2).coeffs)
    assert max_divergence(u) < 1e-10 * l2_norm(u)
    assert not np.array_equal(u.coeffs, fbm_sample(spec, 3).coeffs)


def test_fbm_hurst_validation():
    with pytest.raises(ValueError):
        InitialMeasureSpec(family="fbm", N=16, hurst=1.5)


def test_fbm_surface_refinement_consistency():
    # deeper surfaces refine shallower ones on the shared coarse lattice
    rngs_a = [sample_rng(11, 0, 0, l) for l in range(6)]
    rngs_b = [sample_rng(11, 0, 0, l) for l in range(7)]
    a = fbm_surface(rngs_a, 5, 0.4)
    b = fbm_surface(rngs_b, 6, 0.4)
    assert np.array_equal(b[::2, ::2], a)


def test_fbm_increment_scaling_coarse():
    # quick version of the generator statistic (tight version in acceptance)
    lags = np.array([4, 8, 16, 32])
    acc = np.zeros(len(lags))
    nseeds = 8
    for s in range(nseeds):
        rngs = [sample_rng(123, s, 0, l) for l in range(10)]
        surf = fbm_surface(rngs, 9, 0.5)
        for j, h in enumerate(lags):
            d1 = surf[h:, :] - surf[:-h, :]
            d2 = surf[:, h:] - surf[:, :-h]
            acc[j] += 0.5 * (np.var(d1) + np.var(d2))
    slope = np.polyfit(np.log(lags), np.log(acc / nseeds), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_periodization_kills_ramps():
    P = 16
    x = np.arange(P + 1) / P
    ramp = 1.7 * x[:, None] + 0.3 * x[None, :] + 2.0 * x[:, None] * x[None, :]
    from eulerstat.initial import _periodize

    assert np.abs(_periodize(ramp)).max() < 1e-13


def test_taylor_green_field_values():
    N, M = 8, 24
    g = to_physical(taylor_green_field(N), M)
    x = 2 * np.pi * np.arange(M) / M
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    assert np.abs(g[:, :, 0] - np.sin(X1) * np.cos(X2)).max() < 1e-12
    assert np.abs(g[:, :, 1] + np.cos(X1) * np.sin(X2)).max() < 1e-12
    assert max_divergence(taylor_green_field(N)) < 1e-14


def test_generate_sample_dispatch():
    spec = InitialMeasureSpec(family="flat_sheet", N=16, rho=0.1, base_seed=0)
    assert np.array_equal(generate_sample(spec, 1).coeffs, flat_sheet_sample(spec, 1).coeffs)
    with pytest.raises(ValueError):
        InitialMeasureSpec(family="nope", N=16)


@pytest.mark.parametrize("spec", [
    InitialMeasureSpec(family="flat_sheet", N=16, rho=0.1, base_seed=0),
    InitialMeasureSpec(family="sinusoidal_sheet", N=16, rho=5 / 16, delta=0.003125, base_seed=2),
    InitialMeasureSpec(family="fbm", N=16, hurst=0.5, base_seed=3),
], ids=lambda spec: spec.family)
def test_sample_grid_is_released_before_the_projection(monkeypatch, spec):
    # The (M, M, 2) grid of a sample is gone once its modes are taken, so
    # it is not alive next to the projection's temporaries.
    grids, alive = [], []
    real_analysis, real_projection = initial.from_physical, initial.leray_project

    def from_physical(grid, N):
        grids.append(weakref.ref(grid))
        return real_analysis(grid, N)

    def leray_project(field):
        alive.append([ref() is not None for ref in grids])
        return real_projection(field)

    monkeypatch.setattr(initial, "from_physical", from_physical)
    monkeypatch.setattr(initial, "leray_project", leray_project)
    generate_sample(spec, 1)
    assert alive == [[False]]


def _in_record_layout(field):
    """Whether a snapshot record of field is written from its own memory."""
    record = np.ascontiguousarray(field.coeffs.transpose(1, 2, 0), dtype="<c16")
    return np.shares_memory(record, field.coeffs)


@pytest.mark.parametrize("spec", [
    InitialMeasureSpec(family="flat_sheet", N=16, rho=0.1, base_seed=0),
    InitialMeasureSpec(family="sinusoidal_sheet", N=16, rho=5 / 16, delta=0.003125, base_seed=2),
    InitialMeasureSpec(family="fbm", N=16, hurst=0.5, base_seed=3),
    InitialMeasureSpec(family="taylor_green", N=16),
], ids=lambda spec: spec.family)
def test_samples_come_out_in_record_layout(spec):
    # (k1, k2, component) in memory, as evolved fields are: the t = 0
    # record of a run copies no field.
    assert _in_record_layout(generate_sample(spec, 1))


def test_evolved_fields_come_out_in_record_layout():
    spec = InitialMeasureSpec(family="sinusoidal_sheet", N=16, rho=5 / 16, delta=0.003125,
                              base_seed=2)
    u, _ = evolve(generate_sample(spec, 1), 0.01, SolverParams(N=16))
    assert _in_record_layout(u)
