"""Experiment configuration: INI-style sections with strictly validated
keys.  Unknown sections or keys are hard errors, as are malformed values;
error messages name the offending ``section.key``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

import numpy as np

from . import architectures as arch_mod
from . import problems as prob_mod
from . import spaces
from .architectures import ArchitectureSpec, ParamVector
from .errors import ConfigurationError
from .flows import FlowConfig, _check_fields
from .growth import GrowthSchedule
from .spaces import Domain, Field, SobolevOrder

_METRICS = {"l2": SobolevOrder.L2, "w12": SobolevOrder.W12, "w22": SobolevOrder.W22}


@dataclass(frozen=True)
class AnalysisSettings:
    """The fits ``[analysis]`` asks for; with no ``loss_target`` each picks its own."""

    lojasiewicz: bool = False
    rate: bool = False
    critical_point: bool = False
    kernel_decay: bool = False
    loss_target: float | None = None
    alpha: float = 0.5

    def __post_init__(self):
        _check_fields(self, {})


@dataclass(frozen=True)
class CoverageSettings:
    """``count`` seeded targets uniform on [-box, box]^2, against parameter
    grids of spacing ``grid_step`` on [-grid_max, grid_max]."""

    count: int = 100
    seed: int = 0
    box: float = 100.0
    grid_step: float = 1e-3
    grid_max: float = 150.0

    def __post_init__(self):
        _check_fields(self, {
            "> 0": ("box", "grid_step", "grid_max"), ">= 0": ("seed",), ">= 1": ("count",),
        })


_SCHEMA = {
    "problem": {
        "kind", "name", "dimension", "resolution", "metric", "phi", "clamp",
    },
    "architecture": {
        "kind", "a", "modes", "w0", "init", "init_scale", "init_seed",
    },
    "flow": {"kind", "g0", *(f.name for f in fields(FlowConfig))},
    "analysis": {f.name for f in fields(AnalysisSettings)},
    "growth": {f.name for f in fields(GrowthSchedule)},
    "spectrum": {"count", "seed", "sweep", "w", "metric"},
    "coverage": {f.name for f in fields(CoverageSettings)},
    "output": {"dir"},
}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    raw: dict[str, dict[str, str]]
    path: str = ""

    def has(self, section: str, key: str | None = None) -> bool:
        if section not in self.raw:
            return False
        return key is None or key in self.raw[section]

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.raw.get(section, {}).get(key, default)

    def _convert(self, section, key, conv, default):
        text = self.get(section, key)
        if text is None:
            return default
        try:
            return conv(text)
        except (ValueError, TypeError):
            raise ConfigurationError(f"{section}.{key}: cannot parse value '{text}'") from None

    def get_float(self, section, key, default=None):
        return self._convert(section, key, float, default)

    def get_int(self, section, key, default=None):
        return self._convert(section, key, int, default)

    def get_seed(self, section, key, override=None) -> int:
        """``override`` (a ``--seed``) or the key, default 0; never negative."""
        seed = self.get_int(section, key, 0) if override is None else override
        if seed < 0:
            raise ConfigurationError(f"{section}.{key} must be >= 0, got {seed}")
        return seed

    def get_bool(self, section, key, default=False):
        text = self.get(section, key)
        if text is None:
            return default
        lowered = text.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigurationError(f"{section}.{key}: expected a boolean, got '{text}'")

    def flat_pairs(self) -> dict[str, str]:
        return {
            f"{s}.{k}": v for s, body in self.raw.items() for k, v in body.items()
        }


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        body = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown key {section}.{key}")
            body[key] = value.strip()
        raw[section] = body
    return ExperimentConfig(raw=raw, path=str(path))


def _finite_float(text: str, where: str) -> float:
    """``float(text)``, which must be finite (a ``ValueError`` is the caller's)."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"{where} must be finite, got {text.strip()}")
    return value


def _parse_modes(text: str, where: str) -> list[tuple[int, float]]:
    """Parse 'mode:amplitude, mode:amplitude, ...' lists."""
    modes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            mode_text, amp_text = part.split(":")
            modes.append((int(mode_text), _finite_float(amp_text, where)))
        except ValueError:
            raise ConfigurationError(
                f"{where}: expected 'mode:amplitude' pairs, got '{part}'"
            ) from None
    if not modes:
        raise ConfigurationError(f"{where}: empty mode list")
    return modes


def _parse_floats(text: str, where: str) -> list[float]:
    try:
        return [_finite_float(p, where) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(f"{where}: expected comma-separated floats") from None


def _param_values(text: str, where: str, m: int) -> np.ndarray:
    values = _parse_floats(text, where)
    if len(values) != m:
        raise ConfigurationError(f"{where}: expected {m} values, got {len(values)}")
    return np.array(values)


def _metric(cfg: ExperimentConfig, section: str, default: str) -> SobolevOrder:
    text = cfg.get(section, "metric", default)
    metric = _METRICS.get(text.lower())
    if metric is None:
        raise ConfigurationError(f"{section}.metric: unknown metric '{text}'")
    return metric


def build_problem(cfg: ExperimentConfig):
    if not cfg.has("problem"):
        raise ConfigurationError("missing [problem] section")
    kind = cfg.get("problem", "kind")
    if kind not in ("quadratic", "npbe"):
        raise ConfigurationError(f"problem.kind: expected quadratic or npbe, got '{kind}'")
    dimension = cfg.get_int("problem", "dimension", 1)
    default_res = (
        spaces.DEFAULT_RESOLUTION_1D if dimension == 1 else spaces.DEFAULT_RESOLUTION_3D
    )
    resolution = cfg.get_int("problem", "resolution", default_res)
    basis = _in_section("problem", spaces.make_space, Domain(dimension), resolution)
    phi_text = cfg.get("problem", "phi")
    if phi_text is None:
        raise ConfigurationError("problem.phi: manufactured solution is required")
    phi = spaces.field_from_modes(basis, _parse_modes(phi_text, "problem.phi"))
    metric = _metric(cfg, "problem", "l2" if kind == "quadratic" else "w22")
    name = cfg.get("problem", "name", kind)
    if kind == "quadratic":
        return prob_mod.quadratic_problem(basis, phi, metric, name=name)
    clamp = cfg.get_float("problem", "clamp", spaces.DEFAULT_CLAMP)
    return _in_section(
        "problem", prob_mod.npbe_problem, basis, phi, metric, clamp=clamp, name=name
    )


def build_architecture(cfg: ExperimentConfig, basis) -> ArchitectureSpec:
    if not cfg.has("architecture"):
        raise ConfigurationError("missing [architecture] section")
    kind = cfg.get("architecture", "kind")
    if kind == "sinusoid":
        a = cfg.get_int("architecture", "a", None)
        if a is None or a < 1:
            raise ConfigurationError("architecture.a: pair count >= 1 required")
        return arch_mod.sinusoid_architecture(basis, a)
    if kind == "affine":
        modes_text = cfg.get("architecture", "modes")
        if modes_text is None:
            raise ConfigurationError("architecture.modes: required for affine")
        fields = []
        scale = 1.0 / np.sqrt(spaces.HALF_WIDTH ** basis.dimension)
        for k in _parse_floats(modes_text, "architecture.modes"):
            idx = int(k)
            if idx < 1 or idx > basis.size:
                raise ConfigurationError(f"architecture.modes: mode {idx} out of range")
            e = np.zeros(basis.size)
            e[idx - 1] = scale
            fields.append(Field(e, basis))
        return arch_mod.affine_architecture(fields)
    if kind == "spiral":
        return arch_mod.spiral_architecture()
    raise ConfigurationError(f"architecture.kind: unknown kind '{kind}'")


def initial_params(cfg: ExperimentConfig, arch: ArchitectureSpec) -> ParamVector:
    m = arch.n_params
    w0_text = cfg.get("architecture", "w0")
    if w0_text is not None:
        return ParamVector(_param_values(w0_text, "architecture.w0", m))
    init = cfg.get("architecture", "init", "normal")
    scale = cfg.get_float("architecture", "init_scale", 1.0)
    seed = cfg.get_seed("architecture", "init_seed")
    rng = np.random.default_rng(seed)
    if init == "normal":
        values = scale * rng.standard_normal(m)
    elif init == "uniform":
        values = rng.uniform(-scale, scale, size=m)
    else:
        raise ConfigurationError(f"architecture.init: unknown distribution '{init}'")
    return ParamVector(values)


def _in_section(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose errors begin with a key name,
    prefixed with ``section.``"""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{section}.{exc}") from None


# how a settings dataclass field is read, by its annotation
_READERS = {
    "float": ExperimentConfig.get_float, "float | None": ExperimentConfig.get_float,
    "int": ExperimentConfig.get_int, "bool": ExperimentConfig.get_bool,
    "tuple[float, ...]": lambda cfg, s, k: tuple(_parse_floats(cfg.get(s, k), f"{s}.{k}")),
}


def _settings(cfg: ExperimentConfig, section: str, cls, seed_override: int | None = None):
    """``cls`` built from the keys of ``[section]`` that are present, each
    parsed by its field's annotation; ``seed_override`` (a ``--seed``) wins
    over the file's ``seed``."""
    kwargs = {
        f.name: _READERS[f.type](cfg, section, f.name)
        for f in fields(cls)
        if cfg.has(section, f.name)
    }
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return _in_section(section, cls, **kwargs)


def build_flow_config(cfg: ExperimentConfig, seed_override: int | None = None) -> FlowConfig:
    return _settings(cfg, "flow", FlowConfig, seed_override)


def build_growth_schedule(cfg: ExperimentConfig) -> GrowthSchedule:
    return _settings(cfg, "growth", GrowthSchedule)


def build_analysis(cfg: ExperimentConfig) -> AnalysisSettings:
    return _settings(cfg, "analysis", AnalysisSettings)


def build_coverage(cfg: ExperimentConfig, seed_override: int | None = None) -> CoverageSettings:
    return _settings(cfg, "coverage", CoverageSettings, seed_override)


def initial_field(cfg: ExperimentConfig, basis) -> Field:
    g0_text = cfg.get("flow", "g0")
    if g0_text is None:
        return spaces.zero_field(basis)
    return spaces.field_from_modes(basis, _parse_modes(g0_text, "flow.g0"))


def build_spectrum(cfg: ExperimentConfig, arch: ArchitectureSpec, seed_override=None):
    """The [spectrum] metric and the parameter sets to tabulate: explicit
    ``w`` sets, a 1-parameter ``sweep``, or ``count`` seeded uniform draws."""
    metric = _metric(cfg, "spectrum", "l2")
    m = arch.n_params
    explicit = cfg.get("spectrum", "w")
    if explicit is not None:
        return metric, [_param_values(chunk, "spectrum.w", m) for chunk in explicit.split(";")]
    sweep = cfg.get("spectrum", "sweep")
    if sweep is not None:
        if m != 1:
            raise ConfigurationError("spectrum.sweep: only for 1-parameter families")
        try:
            lo, hi, num = sweep.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
        except ValueError:
            raise ConfigurationError("spectrum.sweep: expected 'start:stop:count'") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and num >= 1):
            raise ConfigurationError(
                f"spectrum.sweep needs finite bounds and a count >= 1, got '{sweep}'"
            )
        return metric, [np.array([w]) for w in np.linspace(lo, hi, num)]
    count = cfg.get_int("spectrum", "count", 5)
    if count < 1:
        raise ConfigurationError(f"spectrum.count must be >= 1, got {count}")
    rng = np.random.default_rng(cfg.get_seed("spectrum", "seed", seed_override))
    return metric, [rng.uniform(-3.0, 3.0, size=m) for _ in range(count)]
