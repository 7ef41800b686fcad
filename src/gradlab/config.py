"""Experiment configuration: INI-style sections with strictly validated
keys.  Unknown sections or keys are hard errors, as are malformed values;
error messages name the offending ``section.key``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from . import architectures as arch_mod
from . import problems as prob_mod
from . import spaces
from .architectures import ArchitectureSpec, ParamVector
from .errors import ConfigurationError
from .flows import FlowConfig
from .growth import GrowthSchedule
from .spaces import Domain, Field, SobolevOrder

_METRICS = {"l2": SobolevOrder.L2, "w12": SobolevOrder.W12, "w22": SobolevOrder.W22}

_SCHEMA = {
    "problem": {
        "kind", "name", "dimension", "resolution", "metric", "phi", "clamp",
    },
    "architecture": {
        "kind", "a", "modes", "w0", "init", "init_scale", "init_seed",
    },
    "flow": {
        "kind", "t_end", "rel_tol", "abs_tol", "grad_stop", "stall_window",
        "stall_rel_change", "stall_grad_level", "stall_loss_floor",
        "record_every", "seed", "anneal_c", "noise_beta", "sde_step",
        "record_params", "max_steps", "g0",
    },
    "analysis": {
        "lojasiewicz", "rate", "critical_point", "kernel_decay",
        "loss_target", "alpha",
    },
    "growth": {
        "max_levels", "params_per_expansion", "solution_tol",
        "frequency_seed", "forced_frequencies",
    },
    "spectrum": {"count", "seed", "sweep", "w", "metric"},
    "coverage": {"count", "seed", "box", "grid_step", "grid_max"},
    "output": {"dir"},
}

_POSITIVE_KEYS = {
    ("flow", "t_end"), ("flow", "rel_tol"), ("flow", "abs_tol"),
    ("flow", "record_every"), ("flow", "sde_step"),
    ("problem", "resolution"), ("problem", "clamp"),
    ("growth", "solution_tol"),
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
            value = conv(text)
        except (ValueError, TypeError):
            raise ConfigurationError(
                f"{section}.{key}: cannot parse value '{text}'"
            ) from None
        if (section, key) in _POSITIVE_KEYS and value <= 0:
            raise ConfigurationError(f"{section}.{key}: must be > 0, got {text}")
        return value

    def get_float(self, section, key, default=None):
        return self._convert(section, key, float, default)

    def get_int(self, section, key, default=None):
        return self._convert(section, key, int, default)

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


def _parse_modes(text: str, where: str) -> list[tuple[int, float]]:
    """Parse 'mode:amplitude, mode:amplitude, ...' lists."""
    modes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            mode_text, amp_text = part.split(":")
            modes.append((int(mode_text), float(amp_text)))
        except ValueError:
            raise ConfigurationError(
                f"{where}: expected 'mode:amplitude' pairs, got '{part}'"
            ) from None
    if not modes:
        raise ConfigurationError(f"{where}: empty mode list")
    return modes


def _parse_floats(text: str, where: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
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
    basis = spaces.make_space(Domain(dimension), resolution)
    phi_text = cfg.get("problem", "phi")
    if phi_text is None:
        raise ConfigurationError("problem.phi: manufactured solution is required")
    phi = spaces.field_from_modes(basis, _parse_modes(phi_text, "problem.phi"))
    metric = _metric(cfg, "problem", "l2" if kind == "quadratic" else "w22")
    name = cfg.get("problem", "name", kind)
    if kind == "quadratic":
        return prob_mod.quadratic_problem(basis, phi, metric, name=name)
    clamp = cfg.get_float("problem", "clamp", spaces.DEFAULT_CLAMP)
    return prob_mod.npbe_problem(basis, phi, metric, clamp=clamp, name=name)


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
    seed = cfg.get_int("architecture", "init_seed", 0)
    rng = np.random.default_rng(seed)
    if init == "normal":
        values = scale * rng.standard_normal(m)
    elif init == "uniform":
        values = rng.uniform(-scale, scale, size=m)
    else:
        raise ConfigurationError(f"architecture.init: unknown distribution '{init}'")
    return ParamVector(values)


def build_flow_config(cfg: ExperimentConfig, seed_override: int | None = None) -> FlowConfig:
    kwargs = {}
    for key in (
        "t_end", "rel_tol", "abs_tol", "grad_stop", "stall_rel_change",
        "stall_grad_level", "stall_loss_floor", "record_every",
        "anneal_c", "noise_beta", "sde_step",
    ):
        value = cfg.get_float("flow", key, None)
        if value is not None:
            kwargs[key] = value
    for key in ("stall_window", "seed", "max_steps"):
        value = cfg.get_int("flow", key, None)
        if value is not None:
            kwargs[key] = value
    if cfg.has("flow", "record_params"):
        kwargs["record_params"] = cfg.get_bool("flow", "record_params")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return FlowConfig(**kwargs)


def build_growth_schedule(cfg: ExperimentConfig) -> GrowthSchedule:
    kwargs = {}
    for key in ("max_levels", "params_per_expansion", "frequency_seed"):
        value = cfg.get_int("growth", key, None)
        if value is not None:
            kwargs[key] = value
    tol = cfg.get_float("growth", "solution_tol", None)
    if tol is not None:
        kwargs["solution_tol"] = tol
    forced = cfg.get("growth", "forced_frequencies")
    if forced is not None:
        kwargs["forced_frequencies"] = tuple(
            _parse_floats(forced, "growth.forced_frequencies")
        )
    return GrowthSchedule(**kwargs)


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
            grid = np.linspace(float(lo), float(hi), int(num))
        except ValueError:
            raise ConfigurationError(
                "spectrum.sweep: expected 'start:stop:count'"
            ) from None
        return metric, [np.array([w]) for w in grid]
    count = cfg.get_int("spectrum", "count", 5)
    seed = cfg.get_int("spectrum", "seed", 0) if seed_override is None else seed_override
    rng = np.random.default_rng(seed)
    return metric, [rng.uniform(-3.0, 3.0, size=m) for _ in range(count)]
