"""Command-line experiment orchestration.

    eulerstat run <config-or-preset> [--force] [--workers W] [--large]
    eulerstat diagnose <snapshots...> [--structure] [--spectrum GAMMA]
              [--wasserstein K] [--cauchy] [--mean-variance]
              [--time-regularity L] [--out DIR]
    eulerstat presets

`run` evolves the configured ensembles for every resolution, writes each
sample into its slot of the snapshot files (*.euss) as it is taken, and
writes a resolved manifest per resolution and an energy CSV. `diagnose`
turns snapshot files into CSV tables and .npz grids. It reads each
snapshot once, in the order given, one sample at a time, for every table
but the time regularity ones, which take one more pass over the snapshots
of each resolution in lockstep. All of that runs in this process. Only the
W1 reports of --wasserstein may leave it: with two (N, 2N) pairs or more
and more than one CPU, a pool of min(pairs, CPUs) processes solves each
pair as soon as both its snapshots are read; otherwise no pool is
imported. Snapshot, CSV and .npz outputs are byte-deterministic for a
fixed config, regardless of worker and CPU count. The environment
variable EULER_STAT_SEED overrides the configured base seed.

Exit codes: 0 success; 2 bad input, configuration or flags, a failed read or write,
out of memory, a lost worker process, or an interrupt; 3 a blow-up or a spent step
budget. Every failure prints one `eulerstat: ` line (main's) and leaves no partial file.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import signal
import sys
import tempfile
from functools import partial
from operator import itemgetter

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, canonical_manifest_text, parse_config
from .diagnostics import (
    RadialPower,
    cauchy_rate_of,
    compensated_spectrum,
    default_fit_range,
    fit_exponent,
    spectrum_curve,
    structure_curve,
    time_regularity_ratio,
    write_curve_csv,
)
from .ensemble import (
    CoefficientSum,
    GridMoments,
    RunManifest,
    atomic_open,
    check_finite,
    feed,
    fnv1a64,
    iter_snapshot,
    ordered_map,
    read_snapshot_header,
    run_ensemble,
    same_time,
    snapshot_bytes,
    usable_cpus,
    write_csv,
)
from .errors import BlowUpError
from .initial import PRNG_ID
from .solver import MAX_STEPS, viscous_dt
from .spectral import ScalarSpectralField, scalar_to_physical, synthesis_grid
from .transport import (
    DEFAULT_DIAGNOSTIC_SEED,
    TupleValues,
    marginal_report,
    marginal_tuples,
    write_report_csv,
)

# The whole-snapshot forms of what `diagnose` and `run` stream; perfbench
# wraps and calls them under these names.
from .diagnostics import cauchy_rate, energy_spectrum, structure_function  # noqa: F401
from .ensemble import read_snapshot, variance_field, write_snapshot  # noqa: F401
from .spectral import sample_at_grid  # noqa: F401
from .transport import marginal_w1  # noqa: F401

MAX_DESK_N = 256
MAX_DESK_M = 64

PRESETS = {
    "taylor_green_check": """\
[experiment]
name = taylor_green_check
base_seed = 0
output_dir = out/taylor_green_check

[initial]
family = taylor_green

[run]
resolutions = 32
samples = 1
output_times = 0 1
""",
    "flat_sheet_smooth": """\
[experiment]
name = flat_sheet_smooth
base_seed = 1234
output_dir = out/flat_sheet_smooth

[initial]
family = flat_sheet
rho = 0.1
delta = 0.025

[run]
resolutions = 64 128
samples = N
output_times = 0 0.4
""",
    "flat_sheet_discontinuous": """\
[experiment]
name = flat_sheet_discontinuous
base_seed = 1234
output_dir = out/flat_sheet_discontinuous

[initial]
family = flat_sheet
rho = 0
delta = 0.025

[run]
resolutions = 64 128
samples = N
output_times = 0 0.4
""",
    "sinusoidal_sheet": """\
[experiment]
name = sinusoidal_sheet
base_seed = 1234
output_dir = out/sinusoidal_sheet

[initial]
family = sinusoidal_sheet
rho = 5/N
delta = 0.003125
d = 0.2
quadrature_points = 400

[solver]
eps = 0.01

[run]
resolutions = 64 128
samples = N
output_times = 0 0.6 1.2
""",
}

# Fractional Brownian velocity fields at three Hurst indices.
for _tag, _hurst in (("h015", 0.15), ("h05", 0.5), ("h075", 0.75)):
    PRESETS[f"fbm_{_tag}"] = f"""\
[experiment]
name = fbm_{_tag}
base_seed = 1234
output_dir = out/fbm_{_tag}

[initial]
family = fbm
hurst = {_hurst!r}

[run]
resolutions = 64 128
samples = N
output_times = 0 1
"""

# Perturbation-amplitude sweep: delta = 0.05 / 2^j on the rough sheet.
for _j in range(6):
    _delta = 0.05 / 2 ** _j
    PRESETS[f"flat_sheet_delta_sweep{_j}"] = f"""\
[experiment]
name = flat_sheet_delta_sweep{_j}
base_seed = 1234
output_dir = out/flat_sheet_delta_sweep{_j}

[initial]
family = flat_sheet
rho = 0
delta = {_delta!r}

[run]
resolutions = 64
samples = N
output_times = 0 0.4
"""


class _Failure(Exception):
    """A command's failure: main prints its message and exits with its code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _snapshot_paths(cfg: ExperimentConfig, N: int):
    base = os.path.join(cfg.output_dir, f"{cfg.name}_N{N:04d}")
    snaps = [f"{base}_t{j:02d}.euss" for j in range(len(cfg.output_times))]
    return snaps, f"{base}.manifest", f"{base}_energy.csv"


def _make_writable_dir(path: str) -> None:
    """Create directory path if needed and prove a file can be written in it (OSError if not)."""
    os.makedirs(path, exist_ok=True)
    with tempfile.TemporaryFile(dir=path):     # nameless: no interrupt leaves it behind
        pass


def cmd_run(args) -> int:
    if args.workers < 1:
        raise _Failure(f"--workers must be >= 1, got {args.workers}")
    if os.path.isfile(args.config):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _Failure(f"cannot read config {args.config!r}: {exc}")
    elif args.config in PRESETS:
        text = PRESETS[args.config]
    else:
        raise _Failure(f"config {args.config!r} is neither a file nor a preset name")
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        raise _Failure(f"{args.config}: {exc}")

    env_seed = os.environ.get("EULER_STAT_SEED")
    if env_seed is not None:
        try:
            cfg.base_seed = int(env_seed)
            cfg.check()
        except ValueError as exc:
            raise _Failure(f"EULER_STAT_SEED={env_seed!r}: {exc}")

    if not args.large:
        if any(N > MAX_DESK_N or cfg.samples(N) > MAX_DESK_M for N in cfg.resolutions):
            raise _Failure(f"desk-scale caps N <= {MAX_DESK_N}, m <= {MAX_DESK_M} exceeded; "
                           "pass --large to override")
        for N in cfg.resolutions:
            params = cfg.solver_params(N)
            steps = cfg.output_times[-1] / viscous_dt(params)
            if steps > MAX_STEPS:
                raise _Failure(f"N={N}: s = {params.s} needs ~{steps:.2g} steps to "
                               f"t = {cfg.output_times[-1]:g} under the viscous step bound, over "
                               f"the desk-scale cap of {MAX_STEPS}; pass --large to override")

    try:
        _make_writable_dir(cfg.output_dir)
    except OSError as exc:
        raise _Failure(f"output_dir {cfg.output_dir!r} is not writable: {exc}")
    need = len(cfg.output_times) * sum(snapshot_bytes(N, cfg.samples(N)) for N in cfg.resolutions)
    free = shutil.disk_usage(cfg.output_dir).free
    if need > free:
        raise _Failure(f"the snapshots need {need} bytes, but {cfg.output_dir!r} has {free} bytes free")

    # Every resolution is checked before the first one runs.
    for N in cfg.resolutions:
        snap_paths, manifest_path, energy_path = _snapshot_paths(cfg, N)
        existing = [p for p in snap_paths + [manifest_path, energy_path] if os.path.exists(p)]
        if existing and not args.force:
            raise _Failure(f"artifacts exist for N={N} (e.g. {existing[0]}); use --force to overwrite")

    for N in cfg.resolutions:
        snap_paths, manifest_path, energy_path = _snapshot_paths(cfg, N)
        manifest_text = canonical_manifest_text(cfg, N, PRNG_ID, __version__)
        mhash = fnv1a64(manifest_text.encode("utf-8"))
        manifest = RunManifest(
            spec=cfg.initial_spec(N),
            m=cfg.samples(N),
            output_times=cfg.output_times,
            solver=cfg.solver_params(N),
        )
        try:
            energy_rows = run_ensemble(manifest, snap_paths, workers=args.workers,
                                       tolerate_failures=cfg.tolerate_failures, manifest_hash=mhash)
        except BlowUpError as exc:
            raise _Failure(f"N={N}: {exc} (sample {exc.sample_index}, t={exc.time})", 3)
        with atomic_open(manifest_path) as fh:
            fh.write(manifest_text)
        write_csv(energy_path, ("energy", cfg.output_times[-1], N, manifest.m), energy_rows)
        for path in (*snap_paths, manifest_path, energy_path):
            print(f"wrote {path}")
    return 0


def _stem(path: str) -> str:
    return os.path.basename(path).removesuffix(".euss")


def cmd_diagnose(args) -> int:
    # Read a file named twice once; refuse two files whose outputs would share names.
    by_real, by_stem = {}, {}
    for p in args.snapshots:
        by_real.setdefault(os.path.realpath(p), p)
    for p in by_real.values():
        other = by_stem.setdefault(_stem(p), p)
        if other != p:
            raise _Failure(f"{other} and {p} would both write outputs named {_stem(p)}")
    # Checks that name the offending flag or input run first; those that
    # need no input run before the first one is read.
    selected = (args.structure, args.spectrum is not None, args.wasserstein is not None,
                args.cauchy, args.mean_variance, args.time_regularity is not None)
    if not any(selected):
        raise _Failure("no diagnostic selected; pass --structure, --spectrum, ... (see --help)")
    if args.wasserstein not in (None, 1, 2, 3):
        raise _Failure(f"--wasserstein must be 1, 2 or 3, got {args.wasserstein}")
    for flag, value in (("--spectrum", args.spectrum), ("--time-regularity", args.time_regularity)):
        if value is not None and not math.isfinite(value):
            raise _Failure(f"{flag} must be finite, got {value}")
    loaded = [(p, read_snapshot_header(p)) for p in by_real.values()]

    pairs = []
    if args.wasserstein is not None or args.cauchy:
        for pa, sa in loaded:
            for pb, sb in loaded:
                if sb.N == 2 * sa.N and same_time(sa.time, sb.time):
                    pairs.append((pa, sa, pb, sb))
        if not pairs:
            raise _Failure("no (N, 2N) snapshot pair at a common time among the inputs")
    if args.wasserstein is not None:
        for pa, sa, pb, sb in pairs:
            if sa.m != sb.m:
                raise _Failure(f"{pa} and {pb} have different sample counts")
    by_n = {}
    if args.time_regularity is not None:
        for path, snap in loaded:
            by_n.setdefault(snap.N, []).append((path, snap))
        if not any(len(s) >= 2 for s in by_n.values()):
            raise _Failure("time regularity needs >= 2 snapshots of the same resolution")
        for N, entries in sorted(by_n.items()):
            if len({s.manifest_hash for _, s in entries}) > 1:
                names = ", ".join(p for p, _ in entries)
                raise _Failure(f"time regularity needs one experiment per resolution, but the "
                               f"N={N} inputs come from different manifests: {names}")
            if len({s.time for _, s in entries}) < len(entries):
                raise _Failure(f"time regularity needs distinct times, but two N={N} inputs share one")

    # Compute every table before writing any: a failure while computing
    # leaves no partial outputs, and --out is not created until then.
    outputs = _diagnose_tables(args, loaded, pairs, by_n)

    out_dir = args.out or os.path.dirname(os.path.abspath(args.snapshots[0]))
    try:
        _make_writable_dir(out_dir)
        for name, write in outputs:
            dest = os.path.join(out_dir, name)
            write(dest)
            print(f"wrote {dest}")
    except OSError as exc:
        raise _Failure(f"output directory {out_dir!r} is not writable: {exc}")
    return 0


def _diagnose_tables(args, loaded, pairs, by_n) -> list:
    """(file name, writer taking the path) of every table `diagnose` writes.

    loaded holds (path, header) of each input, pairs the (N, 2N) pairs and
    by_n the inputs per resolution for time regularity. Each input is
    streamed once, in the order of loaded, in this process, and its
    statistics finished right after (_streamed); the time regularity tables
    read their inputs once more, in lockstep (_regularity_tables). The W1
    report of a pair is the only work that may leave this process: with
    --wasserstein, two pairs or more and more than one CPU, a pool of
    min(pairs, CPUs) processes solves each pair as soon as both its inputs
    are streamed, while later inputs stream here (ordered_map) and then the
    time regularity inputs are read. No output byte or error message depends
    on the CPU count.

    Failures are raised in this order: the inputs in order, each with a
    sample that cannot be read, then its curves and its mean_u1 as they are
    finished; then the tables in the order below.
    """
    finished = {}               # path -> its finished statistics
    workers = min(len(pairs), usable_cpus()) if args.wasserstein is not None else 0
    with ordered_map(_pair_report, _streamed(args, loaded, pairs, finished),
                     workers if workers > 1 else 0) as reports:
        # read while the pool solves W1; an error waits for its turn, after W1's
        try:
            regularity, regularity_error = _regularity_tables(args, by_n), None
        except (OSError, ValueError, MemoryError) as exc:
            regularity, regularity_error = [], exc
        reports = dict(reports)

    outputs, summary_rows = [], []
    if args.structure:
        for path, head in loaded:
            curve = finished[path]["structure"]
            outputs.append((f"{_stem(path)}_structure.csv", partial(write_curve_csv, curve)))
            try:
                fit = fit_exponent(curve, *default_fit_range(head.N))
                summary_rows.append((_stem(path), "structure_exponent", fit.exponent,
                                     fit.intercept, fit.residual, *fit.fit_range))
            except ValueError:
                summary_rows.append((_stem(path), "structure_exponent", *["nan"] * 5))
    if args.spectrum is not None:
        for path, head in loaded:
            curve = finished[path]["spectrum"]
            if args.spectrum != 0.0:
                curve = compensated_spectrum(curve, args.spectrum)
            outputs.append((f"{_stem(path)}_spectrum.csv", partial(write_curve_csv, curve)))
    if args.wasserstein is not None:
        for j, (pa, _, pb, _) in enumerate(pairs):
            if isinstance(reports[j], ValueError):
                raise reports[j]
            outputs.append((f"{_stem(pa)}__{_stem(pb)}_wass{args.wasserstein}.csv",
                            partial(write_report_csv, reports[j])))
    if args.cauchy:
        for pa, sa, pb, sb in pairs:
            M = synthesis_grid(sa.N)
            fine, coarse = finished[pb], finished[pa]
            mean = cauchy_rate_of(fine["mean"], coarse["mean"], "mean", sa)
            check_finite(fine[M], "variance", sb)
            check_finite(coarse[M], "variance", sa)
            rows = [("mean", mean), ("variance", cauchy_rate_of(fine[M], coarse[M], "variance", sa))]
            outputs.append((f"{_stem(pa)}__{_stem(pb)}_cauchy.csv",
                            partial(write_csv, header=("cauchy", sa.time, sa.N, sa.m), rows=rows)))
    if args.mean_variance:
        for path, head in loaded:
            variance = finished[path][synthesis_grid(head.N)]
            check_finite(variance, "variance", head)
            arrays = {"mean_u1": finished[path]["mean_u1"], "variance": variance,
                      "time": np.float64(head.time), "N": np.int64(head.N), "m": np.int64(head.m)}
            outputs.append((f"{_stem(path)}_mean_variance.npz", partial(_write_npz, arrays)))
    if regularity_error is not None:
        raise regularity_error
    outputs += regularity

    if summary_rows:
        header = ("file", "quantity", "exponent", "intercept", "residual", "r_min", "r_max")
        outputs.append(("summary.csv", partial(write_csv, header=header, rows=summary_rows)))
    return outputs


def _regularity_tables(args, by_n) -> list:
    """(file name, writer) of each time regularity table: one per resolution
    with two times or more, its inputs read in lockstep (_time_regularity)."""
    tables = []
    for N, entries in sorted(by_n.items()):
        if len(entries) < 2:
            continue
        heads = sorted((h for _, h in entries), key=lambda h: h.time)
        header = (f"time_regularity_L{args.time_regularity:g}", heads[-1].time, N,
                  min(h.m for h in heads))
        rows = _time_regularity(heads, args.time_regularity)
        tables.append((f"time_regularity_N{N:04d}.csv", partial(write_csv, header=header, rows=rows)))
    return tables


def _write_npz(arrays, path) -> None:
    """The named arrays as one uncompressed .npz at path, via atomic_open."""
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _streamed(args, loaded, pairs, finished):
    """Stream each input of loaded, in order, and yield the W1 task of each
    pair, (pair index, tuple values a, tuple values b, header a, header b),
    as soon as both its inputs are streamed.

    Each input is fed (feed) in one pass to the statistics its tables need:
    radial power, coefficient sum, variance moments on its own grid and on
    each pair's coarse grid, and W1 tuple values on that grid. An input with
    none is not read. Its finished statistics go to finished[path], under a
    name or a grid size, and each accumulator is dropped as soon as it is
    finished; tuple values, once no pair still to be yielded needs them.
    """
    waiting = dict(enumerate(pairs)) if args.wasserstein is not None else {}    # not yet yielded
    values = {}                 # (path, M) -> TupleValues
    for path, head in loaded:
        # the coarse grid size of each of its pairs, once each
        coarse = dict.fromkeys(synthesis_grid(sa.N) for pa, sa, pb, _ in pairs if path in (pa, pb))
        radial = RadialPower(head.N) if args.structure or args.spectrum is not None else None
        total = CoefficientSum(head.N) if args.mean_variance or (args.cauchy and coarse) else None
        sizes = [synthesis_grid(head.N)] if args.mean_variance else []
        if args.cauchy:
            sizes += coarse
        moments = {M: GridMoments(M) for M in dict.fromkeys(sizes)}
        for M in coarse if args.wasserstein is not None else ():
            values[path, M] = TupleValues(marginal_tuples(args.wasserstein, M)[0], head.m, M)
        stats = [s for s in (radial, total, *moments.values()) if s is not None]
        stats += [v for (p, _), v in values.items() if p == path]
        # map holds no sample while the next is read; a generator's frame would
        feed(map(itemgetter(1), iter_snapshot(head)), stats)
        del stats
        done = finished[path] = {M: moments.pop(M).variance() for M in list(moments)}
        if args.structure:
            done["structure"] = structure_curve(radial, head)
        if args.spectrum is not None:
            done["spectrum"] = spectrum_curve(radial, head)
        mean = total.mean() if total is not None else None
        if args.cauchy:
            done["mean"] = mean
        if args.mean_variance:
            done["mean_u1"] = _mean_u1(mean, head)
        del radial, total, mean
        for j in [j for j, (pa, _, pb, _) in waiting.items() if pa in finished and pb in finished]:
            pa, sa, pb, sb = waiting.pop(j)
            M = synthesis_grid(sa.N)
            yield j, values[pa, M], values[pb, M], sa, sb
        needed = {(p, synthesis_grid(sa.N)) for pa, sa, pb, _ in waiting.values() for p in (pa, pb)}
        values = {key: v for key, v in values.items() if key in needed}


def _pair_report(task):
    """(pair index, W1 report) of a task of _streamed, or (pair index, the
    ValueError raised) for the W1 table to raise in pair order."""
    j, values_a, values_b, sa, sb = task
    try:
        return j, marginal_report(values_a, values_b, sa, sb, values_a.grid_points,
                                  DEFAULT_DIAGNOSTIC_SEED)
    except ValueError as exc:
        return j, exc


def _time_regularity(heads, L) -> list:
    """The (seed, ratio) rows of the inputs with headers heads, in time
    order, read in lockstep."""
    streams = [iter_snapshot(h) for h in heads]
    try:
        return [(samples[0][0], time_regularity_ratio(
            [(h.time, field) for h, (_, field) in zip(heads, samples)], L=L))
            for samples in zip(*streams)]
    finally:
        for stream in streams:
            stream.close()


def _mean_u1(mean, head) -> np.ndarray:
    """The first velocity component of the mean field on its synthesis grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = scalar_to_physical(ScalarSpectralField(head.N, mean.coeffs[0]), synthesis_grid(head.N))
    check_finite(u1, "mean", head)
    return u1


def cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        cfg = parse_config(PRESETS[name])
        spec = cfg.initial_spec(cfg.resolutions[0])
        params = cfg.solver_params(cfg.resolutions[0])
        kind, x = cfg.rho_rule
        rho = f"{x:g}/N" if kind == "over_n" else f"{x:g}"
        samples = "N" if cfg.samples_rule[0] == "match_n" else str(cfg.samples_rule[1])
        extras = ""
        if cfg.family == "fbm":
            extras = f" hurst={spec.hurst:g}"
        if cfg.family == "sinusoidal_sheet":
            extras = f" d={spec.d:g} Q={spec.quad_points}"
        print(
            f"{name}: family={cfg.family} rho={rho} delta={spec.delta:g}{extras} "
            f"eps={params.eps:g} N={','.join(str(n) for n in cfg.resolutions)} "
            f"m={samples} times={','.join(f'{t:g}' for t in cfg.output_times)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerstat",
        description="Monte Carlo statistical solutions of the 2D incompressible Euler equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config or preset")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--force", action="store_true", help="overwrite existing artifacts")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel sample workers (>= 1; at most m are used); each "
                            "splits the steps of large grids over cpus // workers threads, "
                            "with the same outputs")
    p_run.add_argument("--large", action="store_true", help="lift desk-scale N/m caps")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diagnose", help="compute diagnostics from snapshot files")
    p_diag.add_argument("snapshots", nargs="+", help="*.euss snapshot files")
    p_diag.add_argument("--structure", action="store_true", help="structure function curves")
    p_diag.add_argument("--spectrum", type=float, default=None, metavar="GAMMA",
                        help="energy spectrum compensated by K^GAMMA (0 = raw)")
    p_diag.add_argument("--wasserstein", type=int, default=None, metavar="K",
                        help="marginal W1 of order K between (N, 2N) snapshot pairs")
    p_diag.add_argument("--cauchy", action="store_true",
                        help="mean/variance Cauchy rates between (N, 2N) pairs")
    p_diag.add_argument("--mean-variance", action="store_true", help="mean and variance grids (.npz)")
    p_diag.add_argument("--time-regularity", type=float, default=None, metavar="L",
                        help="negative-Sobolev time regularity ratios with exponent L")
    p_diag.add_argument("--out", default=None, help="output directory for CSV tables and .npz grids")
    p_diag.set_defaults(func=cmd_diagnose)

    p_pre = sub.add_parser("presets", help="list built-in experiment presets")
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM raises KeyboardInterrupt too, so that cleanup code runs
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # 2, not 128 + the signal (130, 143): the signal was caught and cleanup ran
        # (.tmp files removed, pool shut down), so, as after bad input, every
        # file left is complete and the command need only be run again.
        message, code = "interrupted", 2
    except _Failure as exc:
        message, code = str(exc), exc.code
    except (OSError, ValueError, MemoryError) as exc:
        message, code = str(exc) or type(exc).__name__, 2
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"eulerstat: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
