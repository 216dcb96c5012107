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
values of the wrong type.  Every key of every section, with its kind and
whether it is required, lives in one table, _SCHEMA, and one reader,
_section, checks them all.  The "params" entry comes from _PARAMS, which
also drives sweeping and params_to_dict.  An omitted optional key keeps the
default of the dataclass it fills.  An omitted "t_max" stays None: integrate
then ends the release from rest with the step of its second descending zero
crossing, so every run, and every point of a sweep, covers one full cycle,
capped at 1.5 closed-form upper bounds on its period (2 when phi0 <= 0).
"""

import json
from dataclasses import dataclass
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

# "params" key -> (PendulumParams field, kind, required); the atom's two
# fields are listed flat, and an omitted optional key keeps its default.
_PARAMS = {
    "d_m": ("d", float, True),
    "l_m": ("l", float, True),
    "mass_kg": ("mass", float, True),
    "alpha0_m3": ("alpha0", float, True),
    "omega0_rad_s": ("omega0", float, True),
    "beta": ("beta", float, False),
    "include_gravity": ("include_gravity", bool, False),
}
_PHI0 = "phi0_rad"

SWEEPABLE_PARAMS = tuple(k for k, (_, kind, _) in _PARAMS.items() if kind is float) + (_PHI0,)

# section -> key -> (kind, required), keys in the order they are read; the
# "integrator" keys are IntegratorConfig fields
_SCHEMA = {
    "params": {key: (kind, required) for key, (_, kind, required) in _PARAMS.items()},
    "initial": {_PHI0: (float, False)},
    "integrator": {
        "method": (Method, False), "t_max": (float, False), "dt": (float, False),
        "rel_tol": (float, False), "abs_tol": (float, False), "max_steps": (int, False),
        "record_stride": (int, False), "collision_gap": (float, False),
    },
    "outputs": {"trajectory_csv": (str, False), "report_json": (str, False)},
}

# kind -> (accepted JSON types, what the error message says a value must be);
# a bool is accepted only where the kind is bool, never as a number
_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    Method: (str, "a string"),
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def params_to_dict(params: PendulumParams) -> dict:
    """The "params" section that parses back to params."""
    fields = {**vars(params), **vars(params.atom)}  # the atom's fields as _PARAMS names them
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
        """Copy of this config with one sweepable field replaced; raises
        ValueError for params that parse_config would reject."""
        if name not in SWEEPABLE_PARAMS:
            raise ConfigError(f"unknown sweep parameter {name!r}; choose from {SWEEPABLE_PARAMS}")
        params, phi0 = self.params, value
        if name != _PHI0:
            params, phi0 = _swept_params(params, name, value), self.phi0_rad
            linear_omega(params)
        return RunConfig(params, phi0, self.integrator, self.trajectory_csv, self.report_json)


def _swept_params(params: PendulumParams, name: str, value: float) -> PendulumParams:
    """params with the "params" key name set to value, built from its fields
    (a new atom only where name is one of the atom's); raises ValueError for
    a value PendulumParams or AtomProperties rejects, but leaves the
    stiffness to linear_omega."""
    fields = dict(vars(params))
    field, atom = _PARAMS[name][0], fields["atom"]
    if field in vars(atom):
        fields["atom"] = AtomProperties(**{**vars(atom), field: value})
    else:
        fields[field] = value
    return PendulumParams(**fields)


def _section(data: dict, name: str) -> dict:
    """The keys that section name of data gives, each converted to its kind;
    raises ConfigError for a section that is not an object, then for an
    unknown key, then for the first key in schema order that is missing
    although required or holds a value of the wrong type."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be a JSON object, got {type(section).__name__}")
    schema = _SCHEMA[name]
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown config key {name}.{key!r}")
    values = {}
    for key, (kind, required) in schema.items():
        if key not in section:
            if required:
                raise ConfigError(f"missing required config key {name}.{key!r}")
            continue
        value = section[key]
        types, words = _KINDS[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
            problem = f"must be {words}, got {value!r}"
        else:
            try:
                values[key] = kind(value)
                continue
            except OverflowError:  # an integer literal beyond the float range
                problem = "must be a number within the float range"
            except ValueError:  # a string that names no Method
                problem = f"must be one of {sorted(m.value for m in Method)}, got {value!r}"
        raise ConfigError(f"config key {name}.{key!r} {problem}")
    return values


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON document and build a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    for key in data:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    if "params" not in data:
        raise ConfigError("missing required config section 'params'")

    fields = {_PARAMS[key][0]: value for key, value in _section(data, "params").items()}
    try:
        atom = AtomProperties(alpha0=fields.pop("alpha0"), omega0=fields.pop("omega0"))
        params = PendulumParams(atom=atom, **fields)
        linear_omega(params)  # params with no finite positive stiffness set no run's time scale
    except ValueError as exc:
        raise ConfigError(f"invalid 'params' section: {exc}") from exc

    phi0 = _section(data, "initial").get(_PHI0, 0.0)
    if not abs(phi0) < MAX_ANGLE:
        raise ConfigError(f"initial.{_PHI0!r} must satisfy |phi0| < pi/2, got {phi0!r}")

    settings = _section(data, "integrator")
    outputs = _section(data, "outputs")
    try:
        integrator = IntegratorConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"invalid 'integrator' section: {exc}") from exc
    return RunConfig(params, phi0, integrator, outputs.get("trajectory_csv"),
                     outputs.get("report_json"))


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
    """Load a bundled preset by one of preset_names() (e.g. 'paper-defaults');
    a path-like name such as '../presets/paper-defaults' is unknown."""
    if name not in preset_names():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    path = resources.files(__package__).joinpath("presets").joinpath(f"{name}.json")
    return parse_config(json.loads(path.read_text(encoding="utf-8")))
