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
values of the wrong type.  The "params" keys live in one table, _PARAMS,
which drives parsing, sweeping and params_to_dict; each "integrator" key
maps to its reader in _INTEGRATOR, and an omitted one keeps
IntegratorConfig's default.  An omitted "t_max" stays None: integrate then
runs DEFAULT_T_MAX_PERIODS linearized periods of the pendulum it integrates,
so every point of a sweep covers the same number of cycles.
"""

import json
from dataclasses import asdict, dataclass, replace
from importlib import resources

from .analytic import linear_omega
from .forces import AtomProperties
from .integrator import IntegratorConfig, Method
from .pendulum import MAX_ANGLE, PendulumParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "SWEEPABLE_PARAMS",
    "load_config",
    "parse_config",
    "params_to_dict",
    "preset_names",
    "load_preset",
]

_MISSING = object()

# "params" key -> (PendulumParams field, type, default); the atom's two
# fields are listed flat, and _MISSING marks a required key.
_PARAMS = {
    "d_m": ("d", float, _MISSING),
    "l_m": ("l", float, _MISSING),
    "mass_kg": ("mass", float, _MISSING),
    "alpha0_m3": ("alpha0", float, _MISSING),
    "omega0_rad_s": ("omega0", float, _MISSING),
    "beta": ("beta", float, PendulumParams.beta),
    "include_gravity": ("include_gravity", bool, PendulumParams.include_gravity),
}
_PHI0 = "phi0_rad"

SWEEPABLE_PARAMS = tuple(k for k, (_, kind, _) in _PARAMS.items() if kind is float) + (_PHI0,)

_METHODS = {m.value: m for m in Method}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _flat_fields(params: PendulumParams) -> dict:
    """The fields of params with the atom's inlined, as _PARAMS names them."""
    fields = asdict(params)
    fields.update(fields.pop("atom"))
    return fields


def _build_params(fields: dict) -> PendulumParams:
    """Inverse of _flat_fields; raises ValueError for invalid values."""
    atom = AtomProperties(alpha0=fields.pop("alpha0"), omega0=fields.pop("omega0"))
    return PendulumParams(atom=atom, **fields)


def params_to_dict(params: PendulumParams) -> dict:
    """The "params" section that parses back to params."""
    fields = _flat_fields(params)
    return {key: kind(fields[name]) for key, (name, kind, _) in _PARAMS.items()}


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run configuration; integrator.t_max is None when the
    file leaves the run length to integrate's default."""

    params: PendulumParams
    phi0_rad: float = 0.0
    integrator: IntegratorConfig = IntegratorConfig()
    trajectory_csv: str | None = None
    report_json: str | None = None

    def build_integrator(self, params: PendulumParams | None = None) -> IntegratorConfig:
        """The integrator field; params is ignored, since integrate resolves
        the default run length itself.  Kept for benchmarks/replay.py."""
        return self.integrator

    def with_swept_value(self, name: str, value: float) -> "RunConfig":
        """Copy of this config with one sweepable field replaced."""
        if name not in SWEEPABLE_PARAMS:
            raise ConfigError(f"unknown sweep parameter {name!r}; choose from {SWEEPABLE_PARAMS}")
        if name == _PHI0:
            return replace(self, phi0_rad=value)
        fields = _flat_fields(self.params)
        fields[_PARAMS[name][0]] = value
        return replace(self, params=_build_params(fields))


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}{key!r}")


def _get_number(section: dict, key: str, where: str, default=_MISSING):
    if key not in section:
        if default is _MISSING:
            raise ConfigError(f"missing required config key {where}{key!r}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {where}{key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(
            f"config key {where}{key!r} must be a number within the float range"
        ) from None


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


def _get_method(section: dict, key: str, where: str) -> Method:
    name = _get_str(section, key, where)
    if name not in _METHODS:
        raise ConfigError(
            f"config key {where}{key!r} must be one of {sorted(_METHODS)}, got {name!r}"
        )
    return _METHODS[name]


# "integrator" key (an IntegratorConfig field) -> reader
_INTEGRATOR = {
    "method": _get_method,
    "t_max": _get_number,
    "dt": _get_number,
    "rel_tol": _get_number,
    "abs_tol": _get_number,
    "max_steps": _get_int,
    "record_stride": _get_int,
    "collision_gap": _get_number,
}


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON document and build a RunConfig."""
    _require_mapping(data, "config")
    _reject_unknown(data, {"params", "initial", "integrator", "outputs"}, "")

    if "params" not in data:
        raise ConfigError("missing required config section 'params'")
    p = _require_mapping(data["params"], "'params'")
    _reject_unknown(p, _PARAMS, "params.")
    fields = {
        name: (_get_bool if kind is bool else _get_number)(p, key, "params.", default)
        for key, (name, kind, default) in _PARAMS.items()
    }
    try:
        params = _build_params(fields)
        linear_omega(params)  # every run's time scale
    except ValueError as exc:
        raise ConfigError(f"invalid 'params' section: {exc}") from exc

    init = _require_mapping(data.get("initial", {}), "'initial'")
    _reject_unknown(init, {_PHI0}, "initial.")
    phi0 = _get_number(init, _PHI0, "initial.", default=0.0)
    if not abs(phi0) < MAX_ANGLE:
        raise ConfigError(f"initial.{_PHI0!r} must satisfy |phi0| < pi/2, got {phi0!r}")

    integ = _require_mapping(data.get("integrator", {}), "'integrator'")
    _reject_unknown(integ, _INTEGRATOR, "integrator.")
    settings = {key: read(integ, key, "integrator.")
                for key, read in _INTEGRATOR.items() if key in integ}
    out = _require_mapping(data.get("outputs", {}), "'outputs'")
    _reject_unknown(out, {"trajectory_csv", "report_json"}, "outputs.")
    trajectory_csv = _get_str(out, "trajectory_csv", "outputs.")
    report_json = _get_str(out, "report_json", "outputs.")
    try:
        integrator = IntegratorConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"invalid 'integrator' section: {exc}") from exc
    return RunConfig(params, phi0, integrator, trajectory_csv, report_json)


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
