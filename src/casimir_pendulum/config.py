"""Run configuration: a single strict JSON document per run.

Schema (only "params" is required):

    {
      "params":     {"d_m": ..., "l_m": ..., "mass_kg": ..., "alpha0_m3": ...,
                     "omega0_rad_s": ..., "beta": 2.0, "include_gravity": true},
      "initial":    {"phi0_rad": 0.0},
      "integrator": {"method": "rk45_adaptive" | "rk4_fixed", "t_max": ...,
                     "dt": ..., "rel_tol": ..., "abs_tol": ..., "max_steps": ...,
                     "record_stride": ..., "collision_gap": ...},
      "outputs":    {"trajectory_csv": "...", "report_json": "..."}
    }

Unknown keys anywhere are rejected with an error naming the key; so are
values of the wrong type.  When "t_max" is omitted the run covers a fixed
number of linearized periods of the configured pendulum.
"""

import json
from dataclasses import dataclass, replace
from importlib import resources

from .analytic import linear_omega, linear_period
from .forces import AtomProperties
from .integrator import IntegratorConfig, Method
from .pendulum import MAX_ANGLE, PendulumParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "DEFAULT_T_MAX_PERIODS",
    "SWEEPABLE_PARAMS",
    "load_config",
    "parse_config",
    "preset_names",
    "load_preset",
]

DEFAULT_T_MAX_PERIODS = 12  # enough cycles for a stable period estimate

SWEEPABLE_PARAMS = ("d_m", "l_m", "mass_kg", "alpha0_m3", "omega0_rad_s", "beta", "phi0_rad")

_METHODS = {m.value: m for m in Method}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run configuration.

    t_max is None when the file leaves the run length to the default of
    DEFAULT_T_MAX_PERIODS linearized periods; build_integrator resolves it
    against a concrete parameter set (the sweep runner re-resolves per
    point, so each point gets the same number of cycles).  The other
    integrator settings default to IntegratorConfig's.
    """

    params: PendulumParams
    phi0_rad: float = 0.0
    method: Method = IntegratorConfig.method
    t_max: float | None = None
    dt: float | None = None
    rel_tol: float = IntegratorConfig.rel_tol
    abs_tol: float = IntegratorConfig.abs_tol
    max_steps: int = IntegratorConfig.max_steps
    record_stride: int = IntegratorConfig.record_stride
    collision_gap: float = IntegratorConfig.collision_gap
    trajectory_csv: str | None = None
    report_json: str | None = None

    def build_integrator(self, params: PendulumParams | None = None) -> IntegratorConfig:
        if params is None:
            params = self.params
        t_max = self.t_max
        if t_max is None:
            t_max = DEFAULT_T_MAX_PERIODS * linear_period(params)
        return IntegratorConfig(
            t_max=t_max,
            method=self.method,
            dt=self.dt,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            max_steps=self.max_steps,
            record_stride=self.record_stride,
            collision_gap=self.collision_gap,
        )

    def with_swept_value(self, name: str, value: float) -> "RunConfig":
        """Copy of this config with one sweepable field replaced."""
        if name == "phi0_rad":
            return replace(self, phi0_rad=value)
        p = self.params
        if name == "d_m":
            new_params = replace(p, d=value)
        elif name == "l_m":
            new_params = replace(p, l=value)
        elif name == "mass_kg":
            new_params = replace(p, mass=value)
        elif name == "beta":
            new_params = replace(p, beta=value)
        elif name == "alpha0_m3":
            new_params = replace(p, atom=AtomProperties(alpha0=value, omega0=p.atom.omega0))
        elif name == "omega0_rad_s":
            new_params = replace(p, atom=AtomProperties(alpha0=p.atom.alpha0, omega0=value))
        else:
            raise ConfigError(f"unknown sweep parameter {name!r}; choose from {SWEEPABLE_PARAMS}")
        return replace(self, params=new_params)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}{key!r}")


_MISSING = object()


def _get_number(section: dict, key: str, where: str, default=_MISSING):
    if key not in section:
        if default is _MISSING:
            raise ConfigError(f"missing required config key {where}{key!r}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {where}{key!r} must be a number, got {value!r}")
    return float(value)


def _get_int(section: dict, key: str, where: str) -> int:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {where}{key!r} must be an integer, got {value!r}")
    return value


def _get_bool(section: dict, key: str, where: str, default: bool) -> bool:
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, bool):
        raise ConfigError(f"config key {where}{key!r} must be true or false, got {value!r}")
    return value


def _get_str(section: dict, key: str, where: str) -> str | None:
    if key not in section:
        return None
    value = section[key]
    if not isinstance(value, str):
        raise ConfigError(f"config key {where}{key!r} must be a string, got {value!r}")
    return value


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON document and build a RunConfig."""
    _require_mapping(data, "config")
    _reject_unknown(data, {"params", "initial", "integrator", "outputs"}, "")

    if "params" not in data:
        raise ConfigError("missing required config section 'params'")
    p = _require_mapping(data["params"], "'params'")
    _reject_unknown(
        p,
        {"d_m", "l_m", "mass_kg", "alpha0_m3", "omega0_rad_s", "beta", "include_gravity"},
        "params.",
    )
    try:
        atom = AtomProperties(
            alpha0=_get_number(p, "alpha0_m3", "params."),
            omega0=_get_number(p, "omega0_rad_s", "params."),
        )
        params = PendulumParams(
            d=_get_number(p, "d_m", "params."),
            l=_get_number(p, "l_m", "params."),
            mass=_get_number(p, "mass_kg", "params."),
            atom=atom,
            beta=_get_number(p, "beta", "params.", default=2.0),
            include_gravity=_get_bool(p, "include_gravity", "params.", default=True),
        )
        linear_omega(params)  # every run's time scale
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid 'params' section: {exc}") from exc

    init = _require_mapping(data.get("initial", {}), "'initial'")
    _reject_unknown(init, {"phi0_rad"}, "initial.")
    phi0 = _get_number(init, "phi0_rad", "initial.", default=0.0)
    if not abs(phi0) < MAX_ANGLE:
        raise ConfigError(f"initial.'phi0_rad' must satisfy |phi0| < pi/2, got {phi0!r}")

    integ = _require_mapping(data.get("integrator", {}), "'integrator'")
    _reject_unknown(
        integ,
        {"method", "t_max", "dt", "rel_tol", "abs_tol", "max_steps", "record_stride",
         "collision_gap"},
        "integrator.",
    )
    settings = {}  # only the keys present; RunConfig holds the defaults
    method_name = _get_str(integ, "method", "integrator.")
    if method_name is not None:
        if method_name not in _METHODS:
            raise ConfigError(
                f"config key integrator.'method' must be one of {sorted(_METHODS)}, "
                f"got {method_name!r}"
            )
        settings["method"] = _METHODS[method_name]
    out = _require_mapping(data.get("outputs", {}), "'outputs'")
    _reject_unknown(out, {"trajectory_csv", "report_json"}, "outputs.")
    for key in ("t_max", "dt", "rel_tol", "abs_tol", "max_steps", "record_stride",
                "collision_gap"):
        if key in integ:
            get = _get_int if key in ("max_steps", "record_stride") else _get_number
            settings[key] = get(integ, key, "integrator.")

    config = RunConfig(
        params=params,
        phi0_rad=phi0,
        trajectory_csv=_get_str(out, "trajectory_csv", "outputs."),
        report_json=_get_str(out, "report_json", "outputs."),
        **settings,
    )
    try:
        config.build_integrator()
    except ValueError as exc:
        raise ConfigError(f"invalid 'integrator' section: {exc}") from exc
    return config


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)


def preset_names() -> list[str]:
    """Names of the bundled preset configurations."""
    root = resources.files(__package__).joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> RunConfig:
    """Load a bundled preset by name (e.g. 'paper-defaults')."""
    root = resources.files(__package__).joinpath("presets")
    candidate = root.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return parse_config(json.loads(candidate.read_text(encoding="utf-8")))
