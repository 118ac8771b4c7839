"""Per-layer metrics: a traced in-process CLI run plus direct layer timings.

`traced()` runs the workload's `run` and `diagnose` twice in this process:
first at the workload's worker count with only `run_ensemble` wrapped (the
pooled wall time, and the reference bytes), then at one worker with every
name in SPAN_LAYERS wrapped. The two runs' snapshots must be identical
bytes. Layers the workload's CLI command does not reach are then called
directly on the workload's own snapshots, so every metric is measured;
`trace.direct_layers` counts them. Last come direct calls at fixed sizes
(`table.*`), the baseline of the solver, generator, W1 and snapshot I/O.

`trace.overhead_frac` compares the traced run with the untraced one (a
tracing overhead only on flat128, where both use one worker, and within
the machine's run-to-run noise there); `trace.overhead_est_frac` is the
span count times the measured cost of one span, over the traced wall time.

Each timed layer reports its median, the highest of the 50th/90th/99th
percentiles with at least ten samples beyond it (`.tail`, `.tail_pct`; the
median when there are fewer than 20 samples) and the sample count (`.n`).
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

# Metric name -> the names the program looks up when it calls that layer.
SPAN_LAYERS = {
    "config.parse_config_ms": ("eulerstat.cli.parse_config",),
    "ensemble.run_ensemble_s": ("eulerstat.cli.run_ensemble",),
    "initial.generate_sample_ms": ("eulerstat.ensemble.generate_sample",),
    "spectral.from_physical_ms": ("eulerstat.initial.from_physical",),
    "spectral.leray_project_ms": ("eulerstat.initial.leray_project",),
    "solver.evolve_s": ("eulerstat.ensemble.evolve",),
    "solver.step_ms": ("eulerstat.solver.step",),
    "solver.adaptive_dt_ms": ("eulerstat.solver.adaptive_dt",),
    "ensemble.write_snapshot_s": ("eulerstat.cli.write_snapshot",),
    "ensemble.read_snapshot_s": ("eulerstat.cli.read_snapshot",),
    "ensemble.variance_field_ms": ("eulerstat.cli.variance_field", "eulerstat.diagnostics.variance_field"),
    "spectral.sample_at_grid_ms": (
        "eulerstat.cli.sample_at_grid",
        "eulerstat.ensemble.sample_at_grid",
        "eulerstat.transport.sample_at_grid",
    ),
    "diagnostics.structure_function_ms": ("eulerstat.cli.structure_function",),
    "diagnostics.energy_spectrum_ms": ("eulerstat.cli.energy_spectrum",),
    "diagnostics.cauchy_rate_ms": ("eulerstat.cli.cauchy_rate",),
    "diagnostics.time_regularity_ratio_ms": ("eulerstat.cli.time_regularity_ratio",),
    "transport.marginal_w1_s": ("eulerstat.cli.marginal_w1",),
    "transport.w1_exact_ms": ("eulerstat.transport.w1_exact",),
}
# Timed layers that are not spans of wrapped names.
OTHER_TIMINGS = ("solver.rhs_ms", "cli.self_s")
TIMINGS = tuple(SPAN_LAYERS) + OTHER_TIMINGS

# (name, unit) of the single-valued per-layer metrics.
SCALARS = (
    ("solver.steps", "count"),
    ("solver.fft_points_per_step", "computed_pts"),
    ("solver.bytes_per_step", "computed_B"),
    ("ensemble.pool_efficiency", "frac"),
    ("ensemble.snapshot_mib_per_s", "MiB/s"),
    ("share.solver_of_run", "frac"),
    ("share.generate_of_run", "frac"),
    ("share.transport_of_diagnose", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.overhead_est_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.missing_names", "count"),
    ("trace.direct_layers", "count"),
)

TABLE_N = (32, 64, 128)
TABLE_FAMILIES = ("flat_sheet", "sinusoidal_sheet", "fbm", "taylor_green")
TABLE_M = (32, 64, 128)
TABLE = (
    tuple((f"table.{op}_N{N}_ms", "ms") for op in ("rhs", "adaptive_dt", "step") for N in TABLE_N)
    + tuple((f"table.generate_sample_{fam}_N64_ms", "ms") for fam in TABLE_FAMILIES)
    + tuple((f"table.w1_exact_m{m}_ms", "ms") for m in TABLE_M)
    + (("table.snapshot_write_mib_per_s", "MiB/s"), ("table.snapshot_read_mib_per_s", "MiB/s"))
)

# Complex M x M transforms per SSP-RK3 step: three RHS evaluations of two
# inverse (velocity) and three forward (flux) transforms, plus the two
# inverse transforms adaptive_dt makes.
FFTS_PER_STEP = 3 * (2 + 3) + 2


def unit_of(name: str) -> str:
    return "ms" if name.endswith("_ms") else "s"


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer in TIMINGS:
        unit = unit_of(layer)
        names += [(layer, unit), (f"{layer}.tail", unit), (f"{layer}.tail_pct", "%"), (f"{layer}.n", "count")]
    return names + list(SCALARS) + list(TABLE)


def summarize(values) -> tuple[float, float, int, int]:
    """(median, tail value, tail percentile, count); zeros when empty."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 50, 0
    pct = next((p for p in (99, 90, 50) if n * (100 - p) >= 1000), 50)
    return float(np.median(values)), float(np.percentile(values, pct)), pct, n


def repeat(fn, budget: float = 0.3, min_reps: int = 3, max_reps: int = 100) -> list[float]:
    """Durations of calls to fn, at least min_reps, until budget seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when a wrapped name is missing and b has no spans."""
    return a / b if b > 0 else 0.0


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a traced no-op minus a bare one."""
    def noop():
        return None

    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(calls):
        tracer.span("noop", noop)
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (traced - (time.perf_counter() - t0)) / calls)


def _cli(cli, args, cwd: Path) -> int:
    """eulerstat.cli.main in cwd with its stdout discarded; the exit code."""
    with contextlib.chdir(cwd), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def _half(snap):
    """The snapshot truncated to N/2, the coarse partner of an (N/2, N) pair."""
    from eulerstat.ensemble import EnsembleSnapshot
    from eulerstat.solver import SolverParams
    from eulerstat.spectral import truncate_to

    n = snap.N // 2
    return EnsembleSnapshot(
        time=snap.time, N=n, fields=[truncate_to(f, n) for f in snap.fields],
        sample_seeds=list(snap.sample_seeds), params=SolverParams(N=n),
    )


def _direct_calls(cli, snap0, snap):
    """Calls that reach each layer without the CLI, on a workload's snapshots
    at its first and last output time (largest resolution)."""
    half = _half(snap)
    return (
        ("transport.marginal_w1_s", lambda: cli.marginal_w1(half, snap, 1)),
        ("diagnostics.cauchy_rate_ms", lambda: cli.cauchy_rate(half, snap, "variance")),
        ("diagnostics.time_regularity_ratio_ms",
         lambda: cli.time_regularity_ratio([(snap0.time, snap0.fields[0]), (snap.time, snap.fields[0])], L=2.0)),
        ("ensemble.variance_field_ms", lambda: cli.variance_field(snap)),
        ("spectral.sample_at_grid_ms", lambda: cli.sample_at_grid(snap.fields[0], 3 * snap.N)),
    )


def traced(workload, work: Path, cfg: Path, seed: int, ops) -> dict:
    import eulerstat.cli as cli
    from eulerstat.config import parse_config
    from eulerstat.ensemble import read_snapshot
    from eulerstat.solver import rhs

    out = work / "out"
    run_args = ["run", cfg.name, "--force", "--workers"]

    # Pooled run at the workload's worker count, untraced but for one span.
    pooled = Tracer()
    pooled.wrap("eulerstat.cli.run_ensemble", "ensemble.run_ensemble_s")
    t0 = time.perf_counter()
    try:
        code = _cli(cli, run_args + [str(workload.workers)], work)
    finally:
        pooled.remove()
    ops.add("eulerstat run (pooled)", code == 0, f"exit {code}")
    code = _cli(cli, workload.diagnose_args(out), work)
    untraced_s = time.perf_counter() - t0
    ops.add("eulerstat diagnose (pooled)", code == 0, f"exit {code}")
    ops.add_checks(checks.check_outputs(out, workload.wasserstein)[0])
    pooled_digests = checks.snapshot_digests(out)

    # Traced run at one worker.
    tracer = Tracer()
    for layer, names in SPAN_LAYERS.items():
        for dotted in names:
            tracer.wrap(dotted, layer)
    try:
        t0 = time.perf_counter()
        code = tracer.span("cli.run", _cli, cli, run_args + ["1"], work)
        ops.add("eulerstat run (traced)", code == 0, f"exit {code}")
        code = tracer.span("cli.diagnose", _cli, cli, workload.diagnose_args(out), work)
        traced_s = time.perf_counter() - t0
        cli_spans = len(tracer.spans)
        ops.add("eulerstat diagnose (traced)", code == 0, f"exit {code}")
        ops.add_checks(checks.check_outputs(out, workload.wasserstein)[0])
        ops.add(*checks.check_same_bytes(
            f"snapshots at --workers {workload.workers} equal traced --workers 1",
            pooled_digests, checks.snapshot_digests(out),
        ))
        snap_paths = sorted(out.glob("*.euss"))
        snap_bytes = sum(p.stat().st_size for p in snap_paths)
        last_n = [p for p in snap_paths if p.name[:-9] == snap_paths[-1].name[:-9]]
        snap0, snap = read_snapshot(last_n[0]), read_snapshot(last_n[-1])
        direct = 0
        for layer, call in _direct_calls(cli, snap0, snap):
            if not tracer.durations(layer):
                direct += 1
                tracer.span("direct", call)
    finally:
        tracer.remove()

    config = parse_config(cfg.read_text(encoding="utf-8"))
    params = config.solver_params(max(config.resolutions))
    u0 = snap0.fields[0]
    rhs_times = repeat(lambda: rhs(u0, params), budget=0.5, min_reps=5)

    timings = {layer: tracer.durations(layer) for layer in SPAN_LAYERS}
    timings["solver.rhs_ms"] = rhs_times
    timings["cli.self_s"] = tracer.self_times("cli.run") + tracer.self_times("cli.diagnose")

    run_wall = sum(tracer.durations("cli.run"))
    diag_wall = sum(tracer.durations("cli.diagnose"))
    serial = (tracer.total_under("cli.run", "initial.generate_sample_ms")
              + tracer.total_under("cli.run", "solver.evolve_s"))
    io_s = sum(timings["ensemble.write_snapshot_s"]) + sum(timings["ensemble.read_snapshot_s"])
    fft_points = FFTS_PER_STEP * params.padded_grid ** 2

    metrics = {}
    for layer in TIMINGS:
        scale = 1e3 if layer.endswith("_ms") else 1.0
        med, tail, pct, n = summarize(timings[layer])
        unit = unit_of(layer)
        metrics[layer] = (med * scale, unit)
        metrics[f"{layer}.tail"] = (tail * scale, unit)
        metrics[f"{layer}.tail_pct"] = (pct, "%")
        metrics[f"{layer}.n"] = (n, "count")
    scalars = {
        "solver.steps": len(timings["solver.step_ms"]),
        "solver.fft_points_per_step": fft_points,
        # each transform reads and writes one complex128 array
        "solver.bytes_per_step": fft_points * 16 * 2,
        "ensemble.pool_efficiency": _ratio(serial, workload.workers * sum(pooled.durations("ensemble.run_ensemble_s"))),
        "ensemble.snapshot_mib_per_s": _ratio(2 * snap_bytes / 2**20, io_s),
        "share.solver_of_run": tracer.total_under("cli.run", "solver.evolve_s") / run_wall,
        "share.generate_of_run": tracer.total_under("cli.run", "initial.generate_sample_ms") / run_wall,
        "share.transport_of_diagnose": tracer.total_under("cli.diagnose", "transport.marginal_w1_s") / diag_wall,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.overhead_est_frac": cli_spans * span_cost() / traced_s,
        "trace.spans": len(tracer.spans),
        "trace.missing_names": len(tracer.missing),
        "trace.direct_layers": direct,
    }
    for name, unit in SCALARS:
        metrics[name] = (scalars[name], unit)
    if tracer.missing:
        print("missing names: " + " ".join(tracer.missing))
    metrics.update(layer_table(work, seed))
    return metrics


def layer_table(work: Path, seed: int) -> dict:
    """Direct calls at fixed sizes; inputs drawn from the workload seed."""
    from eulerstat import (
        EnsembleSnapshot, InitialMeasureSpec, PointCloud, SolverParams,
        adaptive_dt, generate_sample, read_snapshot, rhs, step, w1_exact, write_snapshot,
    )

    def ms(times):
        return float(np.median(times)) * 1e3

    out = {}
    for N in TABLE_N:
        params = SolverParams(N=N)
        u = generate_sample(InitialMeasureSpec("flat_sheet", N, rho=0.1, delta=0.025, base_seed=seed), 1)
        dt = adaptive_dt(u, params)
        out[f"table.rhs_N{N}_ms"] = ms(repeat(lambda: rhs(u, params)))
        out[f"table.adaptive_dt_N{N}_ms"] = ms(repeat(lambda: adaptive_dt(u, params)))
        out[f"table.step_N{N}_ms"] = ms(repeat(lambda: step(u, dt, params)))
    family_args = {
        "flat_sheet": dict(rho=0.1, delta=0.025),
        "sinusoidal_sheet": dict(rho=5 / 64, delta=0.003125, d=0.2, quad_points=400),
        "fbm": dict(hurst=0.5),
        "taylor_green": dict(),
    }
    for fam in TABLE_FAMILIES:
        spec = InitialMeasureSpec(fam, 64, base_seed=seed, **family_args[fam])
        out[f"table.generate_sample_{fam}_N64_ms"] = ms(repeat(lambda: generate_sample(spec, 1), min_reps=1))
    rng = np.random.default_rng(seed)
    for m in TABLE_M:
        a, b = PointCloud(rng.standard_normal((m, 2))), PointCloud(rng.standard_normal((m, 2)))
        out[f"table.w1_exact_m{m}_ms"] = ms(repeat(lambda: w1_exact(a, b)))
    spec = InitialMeasureSpec("flat_sheet", 64, rho=0.1, delta=0.025, base_seed=seed)
    fields = [generate_sample(spec, i) for i in range(1, 9)]
    snap = EnsembleSnapshot(time=0.0, N=64, fields=fields, sample_seeds=list(range(1, 9)),
                            params=SolverParams(N=64))
    path = work / "table.euss"
    write_times = repeat(lambda: write_snapshot(path, snap))
    mib = path.stat().st_size / 2**20
    out["table.snapshot_write_mib_per_s"] = mib / float(np.median(write_times))
    out["table.snapshot_read_mib_per_s"] = mib / float(np.median(repeat(lambda: read_snapshot(path))))
    units = dict(TABLE)
    return {name: (value, units[name]) for name, value in out.items()}
