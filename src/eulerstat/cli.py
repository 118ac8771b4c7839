"""Command-line experiment orchestration.

    eulerstat run <config-or-preset> [--force] [--workers W] [--large]
    eulerstat diagnose <snapshots...> [--structure] [--spectrum GAMMA]
              [--wasserstein K] [--cauchy] [--mean-variance]
              [--time-regularity L] [--out DIR]
    eulerstat presets

`run` evolves the configured ensembles for every resolution, appends each
sample to the snapshot files (*.euss) as it is taken, and writes a resolved
manifest per resolution and an energy CSV. `diagnose` turns snapshot files
into diagnostic CSV tables, reading each snapshot once, one sample at a
time, for all of them. Its work comes in units: one per group of inputs
(an input and every input it is paired with at a common time; the W1
tuple values of a group never leave its process) and one per resolution
for time regularity. With --wasserstein and more than one group, the
units are dealt round-robin over the CPUs, the first share in this
process and each other share in a pool process of its own; otherwise all
run here and no pool is imported. Snapshot and CSV outputs are
byte-deterministic for a fixed config, regardless of worker and CPU
count. The environment variable EULER_STAT_SEED overrides the configured
base seed.

Exit codes: 0 success, 2 configuration/usage error, 3 solver blow-up.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

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
    fnv1a64,
    iter_snapshot,
    read_snapshot_header,
    run_ensemble,
    same_time,
    usable_cpus,
    write_csv,
)
from .errors import BlowUpError
from .initial import PRNG_ID
from .solver import viscous_dt
from .spectral import sample_at_grid, synthesis_grid
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
from .transport import marginal_w1  # noqa: F401

MAX_DESK_N = 256
MAX_DESK_M = 64
MAX_DESK_STEPS = 10**6

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


def _err(msg: str) -> None:
    print(f"eulerstat: {msg}", file=sys.stderr)


def _snapshot_paths(cfg: ExperimentConfig, N: int):
    base = os.path.join(cfg.output_dir, f"{cfg.name}_N{N:04d}")
    snaps = [f"{base}_t{j:02d}.euss" for j in range(len(cfg.output_times))]
    return snaps, f"{base}.manifest", f"{base}_energy.csv"


def _make_writable_dir(path: str) -> None:
    """Create directory path if needed and prove a file can be written in it (OSError if not)."""
    os.makedirs(path, exist_ok=True)
    probe = os.path.join(path, ".write_probe")
    with open(probe, "w"):
        pass
    os.remove(probe)


def cmd_run(args) -> int:
    if args.workers < 1:
        _err(f"--workers must be >= 1, got {args.workers}")
        return 2
    if os.path.isfile(args.config):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            _err(f"cannot read config {args.config!r}: {exc}")
            return 2
    elif args.config in PRESETS:
        text = PRESETS[args.config]
    else:
        _err(f"config {args.config!r} is neither a file nor a preset name")
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        _err(f"{args.config}: {exc}")
        return 2

    env_seed = os.environ.get("EULER_STAT_SEED")
    if env_seed is not None:
        try:
            cfg.base_seed = int(env_seed)
            cfg.check()
        except ValueError as exc:
            _err(f"EULER_STAT_SEED={env_seed!r}: {exc}")
            return 2

    if not args.large:
        over = [N for N in cfg.resolutions if N > MAX_DESK_N]
        over_m = [cfg.samples(N) for N in cfg.resolutions if cfg.samples(N) > MAX_DESK_M]
        if over or over_m:
            _err(
                f"desk-scale caps N <= {MAX_DESK_N}, m <= {MAX_DESK_M} exceeded; "
                "pass --large to override"
            )
            return 2
        for N in cfg.resolutions:
            params = cfg.solver_params(N)
            steps = cfg.output_times[-1] / viscous_dt(params)
            if steps > MAX_DESK_STEPS:
                _err(f"N={N}: s = {params.s} needs ~{steps:.2g} steps to t = {cfg.output_times[-1]:g} "
                     f"under the viscous step bound, over the desk-scale cap of {MAX_DESK_STEPS}; "
                     "pass --large to override")
                return 2

    try:
        _make_writable_dir(cfg.output_dir)
    except OSError as exc:
        _err(f"output_dir {cfg.output_dir!r} is not writable: {exc}")
        return 2

    # Every resolution is checked before the first one runs.
    for N in cfg.resolutions:
        snap_paths, manifest_path, energy_path = _snapshot_paths(cfg, N)
        existing = [p for p in snap_paths + [manifest_path, energy_path] if os.path.exists(p)]
        if existing and not args.force:
            _err(f"artifacts exist for N={N} (e.g. {existing[0]}); use --force to overwrite")
            return 2

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
            _err(f"N={N}: {exc} (sample {exc.sample_index}, t={exc.time})")
            return 3
        for path in snap_paths:
            print(f"wrote {path}")
        with atomic_open(manifest_path) as fh:
            fh.write(manifest_text)
        header = ("energy", cfg.output_times[-1], N, manifest.m)
        write_csv(energy_path, header, energy_rows)
        print(f"wrote {manifest_path}")
        print(f"wrote {energy_path}")
    return 0


def _stem(path: str) -> str:
    base = os.path.basename(path)
    return base[:-5] if base.endswith(".euss") else base


def cmd_diagnose(args) -> int:
    # Read a file named twice once; refuse two files whose outputs would share names.
    by_real, by_stem = {}, {}
    for p in args.snapshots:
        by_real.setdefault(os.path.realpath(p), p)
    for p in by_real.values():
        other = by_stem.setdefault(_stem(p), p)
        if other != p:
            _err(f"{other} and {p} would both write outputs named {_stem(p)}")
            return 2
    # Checks that name the offending flag or input run first; those that
    # need no input run before the first one is read.
    selected = (args.structure, args.spectrum is not None, args.wasserstein is not None,
                args.cauchy, args.mean_variance, args.time_regularity is not None)
    if not any(selected):
        _err("no diagnostic selected; pass --structure, --spectrum, ... (see --help)")
        return 2
    if args.wasserstein not in (None, 1, 2, 3):
        _err(f"--wasserstein must be 1, 2 or 3, got {args.wasserstein}")
        return 2
    for flag, value in (("--spectrum", args.spectrum), ("--time-regularity", args.time_regularity)):
        if value is not None and not math.isfinite(value):
            _err(f"{flag} must be finite, got {value}")
            return 2
    try:
        loaded = [(p, read_snapshot_header(p)) for p in by_real.values()]
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return 2

    pairs = []
    if args.wasserstein is not None or args.cauchy:
        for pa, sa in loaded:
            for pb, sb in loaded:
                if sb.N == 2 * sa.N and same_time(sa.time, sb.time):
                    pairs.append((pa, sa, pb, sb))
        if not pairs:
            _err("no (N, 2N) snapshot pair at a common time among the inputs")
            return 2
    if args.wasserstein is not None:
        for pa, sa, pb, sb in pairs:
            if sa.m != sb.m:
                _err(f"{pa} and {pb} have different sample counts")
                return 2
    by_n = {}
    if args.time_regularity is not None:
        for path, snap in loaded:
            by_n.setdefault(snap.N, []).append((path, snap))
        if not any(len(s) >= 2 for s in by_n.values()):
            _err("time regularity needs >= 2 snapshots of the same resolution")
            return 2
        for N, entries in sorted(by_n.items()):
            if len({s.manifest_hash for _, s in entries}) > 1:
                names = ", ".join(p for p, _ in entries)
                _err(f"time regularity needs one experiment per resolution, but the N={N} "
                     f"inputs come from different manifests: {names}")
                return 2
            if len({s.time for _, s in entries}) < len(entries):
                _err(f"time regularity needs distinct times, but two N={N} inputs share one")
                return 2

    # Compute every table before writing any: a failure while computing
    # leaves no partial outputs, and --out is not created until then.
    try:
        outputs = _diagnose_tables(args, loaded, pairs, by_n)
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return 2

    out_dir = args.out or os.path.dirname(os.path.abspath(args.snapshots[0]))
    try:
        _make_writable_dir(out_dir)
        for name, write in outputs:
            dest = os.path.join(out_dir, name)
            write(dest)
            print(f"wrote {dest}")
    except OSError as exc:
        _err(f"output directory {out_dir!r} is not writable: {exc}")
        return 2
    return 0


def _diagnose_tables(args, loaded, pairs, by_n) -> list:
    """(file name, writer taking the path) of every table `diagnose` writes.

    loaded holds (path, header) of each input, pairs the (N, 2N) pairs and
    by_n the inputs per resolution for time regularity. The work is split
    into units: one per group of inputs (an input and every input it is
    paired with, directly or through others; _stream_group) and one per
    resolution for time regularity (_time_regularity). With --wasserstein
    and more than one group, the units are dealt round-robin into one share
    per CPU (at most one per unit); this process runs the first share and a
    pool of one process per other share runs the rest (_run_shares). The
    tables are then built and ordered here, from the results alone, so no
    output byte or error message depends on the CPU count.

    A failure is raised when its table is built, tables in the order below,
    except that an input that cannot be streamed fails first, the earliest
    such input in the order of loaded, so the failure reported does not
    depend on the order in which the inputs are read.
    """
    # The grid sizes at which each input's variance is needed: its own (mean
    # and variance grids) and the coarse member's of each pair it is in
    # (variance Cauchy rate).
    variance_sizes = {path: [] for path, _ in loaded}
    if args.mean_variance:
        for path, head in loaded:
            variance_sizes[path].append(synthesis_grid(head.N))
    if args.cauchy:
        for pa, sa, pb, _ in pairs:
            M = synthesis_grid(sa.N)
            for path in (pa, pb):
                if M not in variance_sizes[path]:
                    variance_sizes[path].append(M)
    units = []
    for group in _groups(loaded, pairs):
        paths = {path for path, _ in group}
        units.append(partial(_stream_group, args, group, [p for p in pairs if p[0] in paths],
                             variance_sizes))
    one_share = args.wasserstein is None or len(units) == 1
    regularity = {N: sorted((h for _, h in entries), key=lambda h: h.time)
                  for N, entries in sorted(by_n.items()) if len(entries) >= 2}
    units += [partial(_time_regularity, N, heads, args.time_regularity)
              for N, heads in regularity.items()]
    shares = 1 if one_share else min(len(units), usable_cpus())
    done = {}
    for part in _run_shares([units[i::shares] for i in range(shares)]):
        done.update(part)
    for path, _ in loaded:
        if (path, "read") in done:
            raise done[path, "read"]

    outputs, summary_rows = [], []
    if args.structure:
        for path, head in loaded:
            curve = _now(done[path, "structure"])
            outputs.append((f"{_stem(path)}_structure.csv", partial(write_curve_csv, curve)))
            try:
                fit = fit_exponent(curve, *default_fit_range(head.N))
                summary_rows.append((_stem(path), "structure_exponent", fit.exponent,
                                     fit.intercept, fit.residual, *fit.fit_range))
            except ValueError:
                summary_rows.append((_stem(path), "structure_exponent", *["nan"] * 5))
    if args.spectrum is not None:
        for path, head in loaded:
            curve = _now(done[path, "spectrum"])
            if args.spectrum != 0.0:
                curve = compensated_spectrum(curve, args.spectrum)
            outputs.append((f"{_stem(path)}_spectrum.csv", partial(write_curve_csv, curve)))
    if args.wasserstein is not None:
        for pa, _, pb, _ in pairs:
            report = _now(done[pa, pb, "wasserstein"])
            outputs.append((f"{_stem(pa)}__{_stem(pb)}_wass{args.wasserstein}.csv",
                            partial(write_report_csv, report)))
    if args.cauchy:
        for pa, sa, pb, _ in pairs:
            M = synthesis_grid(sa.N)
            rows = [("mean", cauchy_rate_of(done[pb, "mean"], done[pa, "mean"], "mean", sa)),
                    ("variance", cauchy_rate_of(_now(done[pb, M]), _now(done[pa, M]), "variance", sa))]
            outputs.append((f"{_stem(pa)}__{_stem(pb)}_cauchy.csv",
                            partial(write_csv, header=("cauchy", sa.time, sa.N, sa.m), rows=rows)))
    if args.mean_variance:
        for path, head in loaded:
            for tag, grid in (("mean_u1", _now(done[path, "mean_u1"])),
                              ("variance", _now(done[path, synthesis_grid(head.N)]))):
                outputs.append((f"{_stem(path)}_{tag}.csv",
                                partial(write_csv, header=(tag, head.time, head.N, head.m), rows=grid)))
    for N, heads in regularity.items():
        header = (f"time_regularity_L{args.time_regularity:g}", heads[-1].time, N,
                  min(h.m for h in heads))
        rows = _now(done[N, "time_regularity"])
        outputs.append((f"time_regularity_N{N:04d}.csv", partial(write_csv, header=header, rows=rows)))

    if summary_rows:
        header = ("file", "quantity", "exponent", "intercept", "residual", "r_min", "r_max")
        outputs.append(("summary.csv", partial(write_csv, header=header, rows=summary_rows)))
    return outputs


def _groups(loaded, pairs) -> list:
    """The inputs of loaded split into groups, each an input with every input
    it is paired with, directly or through others; groups and their members
    are in the order of loaded."""
    index = {path: i for i, (path, _) in enumerate(loaded)}
    root = list(range(len(loaded)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for pa, _, pb, _ in pairs:
        a, b = find(index[pa]), find(index[pb])
        root[max(a, b)] = min(a, b)
    groups = {}
    for i, entry in enumerate(loaded):
        groups.setdefault(find(i), []).append(entry)
    return list(groups.values())


def _run_shares(shares) -> list:
    """_run_units of each share: the first in this process, each other one in
    a process of its own, from a pool that lives for the call."""
    if len(shares) == 1:
        return [_run_units(shares[0])]
    # imported here, so that a process that starts no pool never imports multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=len(shares) - 1)
    try:
        futures = [pool.submit(_run_units, share) for share in shares[1:]]
        first = _run_units(shares[0])
        return [first, *(f.result() for f in futures)]
    finally:
        pool.shutdown(cancel_futures=True)


def _run_units(units) -> dict:
    """The merged results of the units, each a call returning a dict."""
    done = {}
    for unit in units:
        done.update(unit())
    return done


def _stream_group(args, group, pairs, variance_sizes) -> dict:
    """The results of one group of inputs: _stream_input of each of them, in
    order, then the W1 report of each of its pairs, under the key (path a,
    path b, "wasserstein"). The W1 tuple values are gathered here and
    dropped with the group. If an input cannot be streamed, the result is
    its error alone, under (path, "read"), and the group stops there.
    """
    paired = {p for pa, _, pb, _ in pairs for p in (pa, pb)}
    w1_pairs = pairs if args.wasserstein is not None else []
    values = {}         # (path, M) -> TupleValues
    for pa, sa, pb, sb in w1_pairs:
        M = synthesis_grid(sa.N)
        tuples = marginal_tuples(args.wasserstein, M)[0]
        for path, head in ((pa, sa), (pb, sb)):
            if (path, M) not in values:
                values[path, M] = TupleValues(tuples, head.m)
    done = {}
    for path, head in group:
        streamed = _later(_stream_input, args, path, head, variance_sizes[path], path in paired,
                          {M: acc for (p, M), acc in values.items() if p == path})
        if isinstance(streamed, Exception):
            return {(path, "read"): streamed}
        done.update(streamed)
    for pa, sa, pb, sb in w1_pairs:
        M = synthesis_grid(sa.N)
        done[pa, pb, "wasserstein"] = _later(marginal_report, values[pa, M], values[pb, M],
                                             sa, sb, M, DEFAULT_DIAGNOSTIC_SEED)
    return done


def _time_regularity(N, heads, L) -> dict:
    """{(N, "time_regularity"): the (seed, ratio) rows of the N inputs with
    headers heads, in time order, read in lockstep; or the error raised}."""
    def rows():
        streams = [iter_snapshot(h) for h in heads]
        try:
            return [(samples[0][0], time_regularity_ratio(
                [(h.time, field) for h, (_, field) in zip(heads, samples)], L=L))
                for samples in zip(*streams)]
        finally:
            for stream in streams:
                stream.close()

    return {(N, "time_regularity"): _later(rows)}


def _later(fn, *args):
    """fn(*args), or the OSError or ValueError it raised, for _now to raise."""
    try:
        return fn(*args)
    except (OSError, ValueError) as exc:
        return exc


def _now(result):
    """result of _later, or raise the error it holds."""
    if isinstance(result, (OSError, ValueError)):
        raise result
    return result


def _mean_u1(mean, head) -> np.ndarray:
    """The first velocity component of the mean field on its synthesis grid."""
    # a copy: a view of u1 would hold the whole (M, M, 2) grid until written
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = sample_at_grid(mean, synthesis_grid(head.N))[:, :, 0].copy()
    check_finite(u1, "mean", head)
    return u1


def _stream_input(args, path, head, variance_sizes, paired, values) -> dict:
    """Read one input once, one sample at a time, and finish the statistics
    it alone determines; returns {(path, statistic or grid size): result, or
    the ValueError it raised}.

    Each sample field feeds the input's radial power and coefficient sum.
    Its grid, synthesized once per size M, feeds the variance moments at
    each size in variance_sizes and the W1 tuple values values[M], which
    the caller keeps for the pair's other input. paired says whether the
    input is in an (N, 2N) pair.
    """
    radial = RadialPower(head.N) if args.structure or args.spectrum is not None else None
    total = (CoefficientSum(head.N)
             if args.mean_variance or (args.cauchy and paired) else None)
    moments = {M: GridMoments(M) for M in variance_sizes}
    feeds = [acc for acc in (radial, total) if acc is not None]
    grids = {M: [acc] for M, acc in moments.items()}    # M -> statistics fed M-grids
    for M, acc in values.items():
        grids.setdefault(M, []).append(acc)
    if not feeds and not grids:
        return {}
    _stream_into(head, feeds, grids)

    # Each accumulator is dropped as soon as its result is done.
    del grids
    done = {(path, M): _later(moments.pop(M).variance, head) for M in variance_sizes}
    if args.structure:
        done[path, "structure"] = _later(structure_curve, radial, head)
    if args.spectrum is not None:
        done[path, "spectrum"] = _later(spectrum_curve, radial, head)
    if total is not None:
        mean, total = total.mean(), None
        if args.cauchy:
            done[path, "mean"] = mean
        if args.mean_variance:
            done[path, "mean_u1"] = _later(_mean_u1, mean, head)
    return done


def _stream_into(head, feeds, grids) -> None:
    """Feed each sample of the input with header head to the statistics in
    feeds, and its M-point grid, synthesized once per M, to those in grids[M]."""
    for _, field in iter_snapshot(head):
        for acc in feeds:
            acc.add(field)
        for M, accs in grids.items():
            with np.errstate(over="ignore", invalid="ignore"):
                grid = sample_at_grid(field, M)
            for acc in accs:
                acc.add(grid)


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
    p_diag.add_argument("--mean-variance", action="store_true", help="mean and variance grids")
    p_diag.add_argument("--time-regularity", type=float, default=None, metavar="L",
                        help="negative-Sobolev time regularity ratios with exponent L")
    p_diag.add_argument("--out", default=None, help="output directory for CSV files")
    p_diag.set_defaults(func=cmd_diagnose)

    p_pre = sub.add_parser("presets", help="list built-in experiment presets")
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
