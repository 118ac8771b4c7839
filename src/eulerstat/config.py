"""Experiment configuration files.

Flat UTF-8 key-value format: `[section]` headers, `key = value` lines,
`#` comments. Four sections, [experiment], [initial], [solver] and [run],
describe the run only; `eulerstat diagnose` flags choose what is measured
from its snapshots. Values that may scale with resolution (rho, samples)
accept the forms `<float>/N` and `N`. Unknown sections and unknown or
repeated keys are rejected.

The [initial] and [solver] parameters are declared once, in the key tables
below; their defaults and range checks belong to InitialMeasureSpec and
SolverParams, which parse_config builds for every resolution.

Example::

    [experiment]
    name = flat_sheet_smooth
    base_seed = 1234
    output_dir = out/flat_sheet_smooth

    [initial]
    family = flat_sheet
    rho = 0.1
    delta = 0.025

    [solver]
    eps = 0.05

    [run]
    resolutions = 64 128
    samples = N
    output_times = 0 0.4
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .ensemble import FORMAT_VERSION
from .initial import InitialMeasureSpec
from .solver import SCHEME_VERSION, SolverParams

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "canonical_manifest_text"]


class ConfigError(ValueError):
    """Schema violation in a config file, anchored to a source line."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _as_float(value, line, key):
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}", line) from None
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {value!r}", line)
    return x


def _as_int(value, line, key):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}", line) from None


def _as_str(value, line, key):
    return value


def _as_bool(value, line, key):
    v = str(value).strip().lower()
    if v in ("on", "true", "yes", "1"):
        return True
    if v in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be on/off, got {value!r}", line)


# (config key, InitialMeasureSpec / SolverParams field, parser), in manifest order.
_INITIAL_KEYS = (
    ("delta", "delta", _as_float),
    ("q", "q", _as_int),
    ("d", "d", _as_float),
    ("quadrature_points", "quad_points", _as_int),
    ("hurst", "hurst", _as_float),
    ("sigma0", "sigma0", _as_float),
)
_SOLVER_KEYS = (
    ("s", "s", _as_int),
    ("eps", "eps", _as_float),
    ("multiplier", "multiplier", _as_str),
    ("theta", "theta", _as_float),
    ("m_n", "m_n", _as_float),
    ("cfl", "cfl", _as_float),
    ("visc_safety", "visc_safety", _as_float),
)

_KEYS = {
    "experiment": ("name", "base_seed", "output_dir"),
    "initial": ("family", "rho", *(key for key, _, _ in _INITIAL_KEYS)),
    "solver": tuple(key for key, _, _ in _SOLVER_KEYS),
    "run": ("resolutions", "samples", "output_times", "tolerate_failures"),
}


@dataclass
class ExperimentConfig:
    """Parsed experiment description, before per-resolution resolution.

    `initial` and `solver` hold the InitialMeasureSpec and SolverParams
    fields the config sets; every other field keeps its dataclass default.
    """

    name: str = "experiment"
    base_seed: int = 0
    output_dir: str = "out"
    family: str = "flat_sheet"
    rho_rule: tuple = ("const", 0.0)     # ("const", x) or ("over_n", x) for x/N
    resolutions: tuple = (64,)
    samples_rule: tuple = ("match_n",)   # ("match_n",) or ("fixed", m)
    output_times: tuple = (0.0,)
    tolerate_failures: bool = False
    initial: dict = dataclass_field(default_factory=dict)
    solver: dict = dataclass_field(default_factory=dict)

    def rho(self, N: int) -> float:
        kind, x = self.rho_rule
        return x / N if kind == "over_n" else x

    def samples(self, N: int) -> int:
        return N if self.samples_rule[0] == "match_n" else int(self.samples_rule[1])

    def initial_spec(self, N: int) -> InitialMeasureSpec:
        return InitialMeasureSpec(
            family=self.family, N=N, rho=self.rho(N), base_seed=self.base_seed, **self.initial
        )

    def solver_params(self, N: int) -> SolverParams:
        return SolverParams(N=N, **self.solver)

    def check(self, family_line=None) -> None:
        """Build the spec and params of every resolution.

        Raises ConfigError naming the first N whose values are out of range;
        initial-data errors are anchored to `family_line`.
        """
        for N in self.resolutions:
            try:
                self.initial_spec(N)
            except ValueError as exc:
                raise ConfigError(f"N={N}: {exc}", family_line) from None
            try:
                self.solver_params(N)
            except ValueError as exc:
                raise ConfigError(f"N={N}: {exc}") from None


def _parse_sections(text: str):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KEYS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            first = sections[current][key][1]
            raise ConfigError(f"duplicate key {key!r} in [{current}] (first on line {first})", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _get(sections, section, key, default=None):
    return sections.get(section, {}).get(key, (default, None))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config file; raise ConfigError with line anchors."""
    sections = _parse_sections(text)
    cfg = ExperimentConfig()

    for key, parse in (("name", _as_str), ("base_seed", _as_int), ("output_dir", _as_str)):
        value, line = _get(sections, "experiment", key)
        if value is not None:
            setattr(cfg, key, parse(value, line, key))

    value, family_line = _get(sections, "initial", "family")
    if value is not None:
        cfg.family = value.lower()
    value, line = _get(sections, "initial", "rho")
    if value is not None:
        if value.endswith("/N"):
            cfg.rho_rule = ("over_n", _as_float(value[:-2], line, "rho"))
        else:
            cfg.rho_rule = ("const", _as_float(value, line, "rho"))
    for section, table, values in (
        ("initial", _INITIAL_KEYS, cfg.initial),
        ("solver", _SOLVER_KEYS, cfg.solver),
    ):
        for key, attr, parse in table:
            value, line = _get(sections, section, key)
            if value is not None:
                values[attr] = parse(value, line, key)

    value, line = _get(sections, "run", "resolutions")
    if value is not None:
        res = tuple(_as_int(tok, line, "resolutions") for tok in value.split())
        if not res:
            raise ConfigError("resolutions must not be empty", line)
        if any(b <= a for a, b in zip(res, res[1:])):
            raise ConfigError("resolutions must be sorted ascending", line)
        if any(n < 8 or n % 2 for n in res):
            raise ConfigError("each resolution must be even and >= 8", line)
        cfg.resolutions = res
    value, line = _get(sections, "run", "samples")
    if value is not None:
        if value.upper() == "N":
            cfg.samples_rule = ("match_n",)
        else:
            m = _as_int(value, line, "samples")
            if m < 1:
                raise ConfigError("samples must be >= 1", line)
            cfg.samples_rule = ("fixed", m)
    value, line = _get(sections, "run", "output_times")
    if value is not None:
        times = tuple(_as_float(tok, line, "output_times") for tok in value.split())
        if not times or times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("output_times must be nonnegative and strictly increasing", line)
        cfg.output_times = times
    value, line = _get(sections, "run", "tolerate_failures")
    if value is not None:
        cfg.tolerate_failures = _as_bool(value, line, "tolerate_failures")

    cfg.check(family_line)
    return cfg


def _fmt(x) -> str:
    if x is None:
        return "default"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def canonical_manifest_text(cfg: ExperimentConfig, N: int, prng_id: str, version: str) -> str:
    """Resolved, canonically ordered manifest for one resolution.

    This text is what snapshot files fingerprint (FNV-1a 64); it records
    every parameter the run depended on, read from the InitialMeasureSpec
    and SolverParams the run uses, including the PRNG algorithm and the
    solver's scheme version.
    """
    spec, params = cfg.initial_spec(N), cfg.solver_params(N)
    kind, x = cfg.rho_rule
    lines = [
        "[experiment]",
        f"name = {cfg.name}",
        f"base_seed = {spec.base_seed}",
        "",
        "[initial]",
        f"family = {spec.family}",
        f"rho = {_fmt(spec.rho)}",
        f"rho_rule = {_fmt(x)}{'/N' if kind == 'over_n' else ''}",
        *(f"{key} = {_fmt(getattr(spec, attr))}" for key, attr, _ in _INITIAL_KEYS),
        "",
        "[solver]",
        f"n = {params.N}",
        *(f"{key} = {_fmt(getattr(params, attr))}" for key, attr, _ in _SOLVER_KEYS),
        "",
        "[run]",
        f"samples = {cfg.samples(N)}",
        f"output_times = {' '.join(_fmt(t) for t in cfg.output_times)}",
        f"tolerate_failures = {'on' if cfg.tolerate_failures else 'off'}",
        "",
        "[provenance]",
        f"prng = {prng_id}",
        f"package_version = {version}",
        f"format_version = {FORMAT_VERSION}",
        f"scheme = {SCHEME_VERSION}",
        "",
    ]
    return "\n".join(lines)
