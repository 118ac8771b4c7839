"""eulerstat benchmark: `eulerstat run` + `eulerstat diagnose` on generated configs.

    python3 perfbench/run.py --workload flat128 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The seed goes into the config's
`base_seed`; the program sees only the config. With --trace 0 the CLI runs
as a subprocess, back to back (a closed loop, one client), for --seconds
seconds and the end-to-end metrics are medians over those executions. With
--trace 1 the same commands run in this process with spans around the
program's public functions, followed by direct timings of single layers
(see layers.py). Outputs are checked after every execution (checks.py).

Prints one JSON line with the environment, then the result as the last line.
Exits 2 without a result when the checkout holds no eulerstat sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Time spent in repeated `diagnose` calls per execution, relative to `run`.
DIAGNOSE_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    body: str                 # config sections after [experiment]
    workers: int
    samples: int              # samples evolved, summed over resolutions
    diagnose: tuple
    wasserstein: bool = False

    def diagnose_args(self, out: Path) -> list[str]:
        return ["diagnose", *(str(p) for p in sorted(out.glob("*.euss"))), *self.diagnose]


# Why each workload exists: see README.md in this directory.
WORKLOADS = {
    "flat128": Workload(
        body=(
            "[initial]\nfamily = flat_sheet\nrho = 0.1\ndelta = 0.025\n\n"
            "[run]\nresolutions = 128\nsamples = 2\noutput_times = 0 0.4\n"
        ),
        workers=1,
        samples=2,
        diagnose=("--structure", "--spectrum", "3", "--mean-variance"),
    ),
    "ladder": Workload(
        body=(
            "[initial]\nfamily = flat_sheet\nrho = 0\ndelta = 0.025\n\n"
            "[run]\nresolutions = 16 32\nsamples = 64\noutput_times = 0 0.4\n"
        ),
        workers=2,
        samples=128,
        diagnose=(
            "--structure", "--spectrum", "2", "--wasserstein", "1", "--cauchy",
            "--mean-variance", "--time-regularity", "2",
        ),
        wasserstein=True,
    ),
    "sheet_gen": Workload(
        body=(
            "[initial]\nfamily = sinusoidal_sheet\nrho = 5/N\ndelta = 0.003125\n"
            "d = 0.2\nquadrature_points = 400\n\n"
            "[solver]\neps = 0.01\n\n"
            "[run]\nresolutions = 64\nsamples = 8\noutput_times = 0 0.1\n"
        ),
        workers=2,
        samples=8,
        diagnose=("--structure", "--spectrum", "2.2", "--time-regularity", "2"),
    ),
}

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("diagnose_s", "s"),
    ("total_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("output_mib", "MiB"),
    ("energy_residual", "-log10"),
    ("passed_frac", "frac"),
)


def config_text(name: str, seed: int, workload: Workload) -> str:
    return (
        f"[experiment]\nname = {name}\nbase_seed = {seed}\noutput_dir = out\n\n"
        + workload.body
    )


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EULER_STAT_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args, cwd: Path) -> tuple[float, int, float]:
    """Run `eulerstat <args>` in a fresh interpreter.

    Returns (wall seconds, exit code, peak RSS in MiB). wait4 reports the
    largest RSS of the process and of the pool workers it reaped.
    """
    with open(cwd / "cli.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulerstat.cli", *args],
            cwd=cwd, env=cli_env(), stdout=log, stderr=log,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Ops:
    """Operations attempted and failed: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def add_checks(self, results) -> None:
        for name, ok, detail in results:
            self.add(name, ok, detail)


def setup(name: str, seed: int, workload: Workload, work: Path) -> tuple[float, Path]:
    """Write the workload's config and start the CLI cold, SETUP_REPEATS times.

    A cold start (interpreter, imports, preset parsing) is what every CLI
    call pays first, so work moved to import time shows in setup_s.
    Returns (median seconds, config path).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "bench.cfg"
        cfg.write_text(config_text(name, seed, workload), encoding="utf-8")
        _, code, _ = run_cli(["presets"], work)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"`eulerstat presets` exited {code}; see {work / 'cli.log'}")
    return statistics.median(times), cfg


def untraced(workload: Workload, work: Path, cfg: Path, seconds: float, ops: Ops) -> dict:
    """Executions of one `run` and DIAGNOSE_SHARE-balanced `diagnose` calls,
    back to back, until the next would end well past `seconds`; medians.

    `diagnose` is short next to `run` on flat128 and sheet_gen, so it is
    repeated on the same snapshots (k times, k fixed after the first
    execution) to give its median as many samples as the run time allows.
    """
    out = work / "out"
    runs, diags, rss, sizes, residuals = [], [], [], [], []
    first_digests = None
    repeats = 1
    start = time.perf_counter()
    while True:
        t_exec = time.perf_counter()
        run_s, code, rss_run = run_cli(["run", cfg.name, "--workers", str(workload.workers)], work)
        ops.add("eulerstat run", code == 0, f"exit {code}")
        peak = rss_run
        for _ in range(repeats):
            diag_s, code, rss_diag = run_cli(workload.diagnose_args(out), work)
            ops.add("eulerstat diagnose", code == 0, f"exit {code}")
            diags.append(diag_s)
            peak = max(peak, rss_diag)
        if not runs:
            repeats = min(10, max(1, round(DIAGNOSE_SHARE * run_s / diag_s)))
        runs.append(run_s)
        rss.append(peak)
        results, residual = checks.check_outputs(out, workload.wasserstein)
        ops.add_checks(results)
        residuals.append(residual)
        digests = checks.snapshot_digests(out)
        if first_digests is None:
            first_digests = digests
        else:
            ops.add(*checks.check_same_bytes("snapshots repeat across executions", first_digests, digests))
        sizes.append(sum(p.stat().st_size for p in out.glob("*")))
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        if now - start + (now - t_exec) / 2 > seconds:
            break
    run_s = statistics.median(runs)
    diag_s = statistics.median(diags)
    return {
        "run_s": run_s,
        "diagnose_s": diag_s,
        "total_s": run_s + diag_s,
        "samples_per_s": statistics.median(workload.samples / r for r in runs),
        "peak_rss_mib": statistics.median(rss),
        "output_mib": statistics.median(sizes) / 2**20,
        "energy_residual": -math.log10(max(max(residuals), 1e-300)),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would look into enclosing directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() in ("Unified", "Data"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "eulerstat" / "cli.py").is_file():
        print(f"perfbench: no eulerstat sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    ops = Ops()
    try:
        setup_s, cfg = setup(args.workload, args.seed, workload, work)
        if args.trace:
            sys.path.insert(0, str(SRC))
            import layers

            metrics = layers.traced(workload, work, cfg, args.seed, ops)
        else:
            values = untraced(workload, work, cfg, args.seconds, ops)
            values["setup_s"] = setup_s
            values["passed_frac"] = (ops.attempted - len(ops.failures)) / ops.attempted
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": environment()}))
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
