"""Strict JSON run-configuration parsing and the bundled presets."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_pendulum import (
    AtomProperties,
    ConfigError,
    IntegratorConfig,
    Method,
    PendulumParams,
    State,
    exact_period,
    integrate,
    linear_period,
    load_config,
    load_preset,
    parse_config,
    preset_names,
)
from casimir_pendulum.config import SWEEPABLE_PARAMS, params_to_dict

FULL_DOC = {
    "params": {
        "d_m": 2e-8,
        "l_m": 1e-8,
        "mass_kg": 1e-24,
        "alpha0_m3": 1e-30,
        "omega0_rad_s": 1e15,
        "beta": 1.5,
        "include_gravity": False,
    },
    "initial": {"phi0_rad": 0.01},
    "integrator": {
        "method": "rk4_fixed",
        "t_max": 1e-6,
        "dt": 1e-10,
        "rel_tol": 1e-9,
        "abs_tol": 1e-11,
        "max_steps": 5000,
        "record_stride": 3,
        "collision_gap": 3e-10,
    },
    "outputs": {"trajectory_csv": "a.csv", "report_json": "b.json"},
}


def test_full_document_round_trip():
    config = parse_config(FULL_DOC)
    assert config.params.d == 2e-8
    assert config.params.l == 1e-8
    assert config.params.mass == 1e-24
    assert config.params.atom.alpha0 == 1e-30
    assert config.params.atom.omega0 == 1e15
    assert config.params.beta == 1.5
    assert config.params.include_gravity is False
    assert config.phi0_rad == 0.01
    assert config.integrator.method is Method.RK4_FIXED
    assert config.integrator.t_max == 1e-6
    assert config.integrator.dt == 1e-10
    assert config.integrator.rel_tol == 1e-9
    assert config.integrator.abs_tol == 1e-11
    assert config.integrator.max_steps == 5000
    assert config.integrator.record_stride == 3
    assert config.integrator.collision_gap == 3e-10
    assert config.build_integrator(config.params) is config.integrator  # benchmarks/replay.py
    assert config.trajectory_csv == "a.csv"
    assert config.report_json == "b.json"


def test_minimal_document_defaults():
    config = parse_config({"params": FULL_DOC["params"]})
    assert config.phi0_rad == 0.0
    assert config.integrator.method is Method.RK45_ADAPTIVE
    assert config.integrator.t_max is None
    assert config.integrator.rel_tol == 1e-10
    assert config.integrator.abs_tol == 1e-14
    assert config.integrator.max_steps == 1_000_000
    assert config.integrator.record_stride == 1
    assert config.integrator.collision_gap == 2e-10
    assert config.trajectory_csv is None


def test_default_beta_and_gravity():
    doc = {"params": {k: v for k, v in FULL_DOC["params"].items()
                      if k not in ("beta", "include_gravity")}}
    config = parse_config(doc)
    assert config.params.beta == 2.0
    assert config.params.include_gravity is True


def test_default_run_length_is_twelve_periods():
    # a run that does not start at rest runs 12 linearized periods
    params = parse_config({"params": FULL_DOC["params"]}).params
    traj = integrate(params, State(0.0, 0.1, 1e6), IntegratorConfig())
    assert traj.t[-1] == pytest.approx(12 * linear_period(params), rel=1e-12)


@pytest.mark.parametrize("phi0,periods", [(0.1, 1.5), (-0.1, 2.0), (0.0, 2.0)])
def test_default_run_length_from_rest_is_one_cycle(phi0, periods):
    # the last row is the first after the second descending zero crossing and
    # the one before it the state at that crossing, before 1.5 exact periods (2 from phi0 <= 0); from equilibrium, with no
    # crossing, the run reaches the cap, 2 closed-form upper bounds on the
    # period, which at phi0 = 0 is exact_period's small-amplitude limit
    params = parse_config({"params": FULL_DOC["params"]}).params
    traj = integrate(params, State(0.0, phi0, 0.0), IntegratorConfig())
    cap = periods * exact_period(params, phi0)
    descending = np.nonzero((traj.phi[:-1] > 0.0) & (traj.phi[1:] <= 0.0))[0] + 1
    if phi0 == 0.0:
        assert len(descending) == 0
        assert traj.t[-1] == pytest.approx(cap, rel=1e-12)
    else:
        assert descending.tolist() == [descending[0], len(traj) - 1 - (traj.phi[-2] <= 0.0)]
        assert traj.phi[-3] > 0.0 >= traj.phi[-1]
        assert traj.t[-1] < cap


def test_explicit_t_max_wins():
    doc = {"params": FULL_DOC["params"], "integrator": {"t_max": 5e-7}}
    assert parse_config(doc).integrator.t_max == 5e-7


class TestRejection:
    """Unknown keys and wrong types fail loudly, naming the key."""

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"params": FULL_DOC["params"], "bogus": 1})

    def test_unknown_params_key(self):
        doc = {"params": dict(FULL_DOC["params"], extra=1)}
        with pytest.raises(ConfigError, match="extra"):
            parse_config(doc)

    def test_unknown_integrator_key(self):
        doc = {"params": FULL_DOC["params"], "integrator": {"dt_s": 1e-10}}
        with pytest.raises(ConfigError, match="dt_s"):
            parse_config(doc)

    def test_unknown_initial_key(self):
        doc = {"params": FULL_DOC["params"], "initial": {"phi0": 0.1}}
        with pytest.raises(ConfigError, match="phi0"):
            parse_config(doc)

    def test_unknown_outputs_key(self):
        doc = {"params": FULL_DOC["params"], "outputs": {"csv": "x"}}
        with pytest.raises(ConfigError, match="csv"):
            parse_config(doc)

    def test_missing_params_section(self):
        with pytest.raises(ConfigError, match="params"):
            parse_config({})

    def test_missing_required_field(self):
        doc = {"params": {k: v for k, v in FULL_DOC["params"].items() if k != "mass_kg"}}
        with pytest.raises(ConfigError, match="mass_kg"):
            parse_config(doc)

    def test_nan_collision_gap(self):
        # json.load accepts NaN, and no tip distance is <= NaN: such a gap
        # would switch the collision test off
        doc = {"params": FULL_DOC["params"], "integrator": {"collision_gap": math.nan}}
        with pytest.raises(ConfigError, match="collision_gap"):
            parse_config(doc)

    def test_string_where_number_expected(self):
        doc = {"params": dict(FULL_DOC["params"], d_m="2e-8")}
        with pytest.raises(ConfigError, match="d_m"):
            parse_config(doc)

    def test_bool_is_not_a_number(self):
        doc = {"params": dict(FULL_DOC["params"], mass_kg=True)}
        with pytest.raises(ConfigError, match="mass_kg"):
            parse_config(doc)

    def test_float_is_not_a_count(self):
        doc = {"params": FULL_DOC["params"], "integrator": {"max_steps": 10.5}}
        with pytest.raises(ConfigError, match="max_steps"):
            parse_config(doc)

    def test_gravity_flag_must_be_bool(self):
        doc = {"params": dict(FULL_DOC["params"], include_gravity=1)}
        with pytest.raises(ConfigError, match="include_gravity"):
            parse_config(doc)

    def test_unknown_method(self):
        doc = {"params": FULL_DOC["params"], "integrator": {"method": "euler"}}
        with pytest.raises(ConfigError, match="method"):
            parse_config(doc)

    def test_fixed_step_without_dt(self):
        doc = {"params": FULL_DOC["params"], "integrator": {"method": "rk4_fixed"}}
        with pytest.raises(ConfigError, match="integrator"):
            parse_config(doc)

    def test_inverted_geometry_names_section(self):
        doc = {"params": dict(FULL_DOC["params"], d_m=5e-9)}
        with pytest.raises(ConfigError, match="params"):
            parse_config(doc)

    def test_amplitude_bounded_by_quarter_turn(self):
        doc = {"params": FULL_DOC["params"], "initial": {"phi0_rad": math.pi / 2}}
        with pytest.raises(ConfigError, match="phi0_rad"):
            parse_config(doc)

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="params"):
            parse_config({"params": [1, 2, 3]})

    @pytest.mark.parametrize("key, value", [
        ("d_m", 1e300),  # (d-l)^4 overflows
        ("mass_kg", 1e-300),  # the stiffness denominator underflows to 0
        ("d_m", math.inf),  # json.load accepts Infinity
    ])
    def test_extreme_params_name_the_geometry(self, key, value):
        doc = {"params": dict(FULL_DOC["params"], **{key: value})}
        with pytest.raises(ConfigError, match="params.*d=.*l=.*mass="):
            parse_config(doc)


def with_entry(section, key, value):
    """FULL_DOC with one entry of one section set; None as section sets a
    top-level key."""
    doc = json.loads(json.dumps(FULL_DOC))
    (doc if section is None else doc[section])[key] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (with_entry("params", "d_m", "2e-8"), "config key params.'d_m' must be a number, got '2e-8'"),
    (with_entry("integrator", "max_steps", 10.5),
     "config key integrator.'max_steps' must be an integer, got 10.5"),
    (with_entry("params", "include_gravity", 1),
     "config key params.'include_gravity' must be true or false, got 1"),
    (with_entry("outputs", "trajectory_csv", 3),
     "config key outputs.'trajectory_csv' must be a string, got 3"),
    (with_entry("integrator", "method", None),
     "config key integrator.'method' must be a string, got None"),
    (with_entry("integrator", "method", "euler"),
     "config key integrator.'method' must be one of ['rk45_adaptive', 'rk4_fixed'], got 'euler'"),
    (with_entry("params", "extra", 1), "unknown config key params.'extra'"),
    (with_entry(None, "bogus", 1), "unknown config key 'bogus'"),
    ({"params": {k: v for k, v in FULL_DOC["params"].items() if k != "mass_kg"}},
     "missing required config key params.'mass_kg'"),
    (with_entry(None, "params", [1]), "'params' must be a JSON object, got list"),
    ([FULL_DOC], "config must be a JSON object, got list"),
    (with_entry("params", "mass_kg", 10**400),
     "config key params.'mass_kg' must be a number within the float range"),
    # an unknown key wins over a wrong type met earlier in the document
    ({"params": {"d_m": "x", "extra": 1}}, "unknown config key params.'extra'"),
])
def test_error_messages(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


def test_integrator_section_names_every_setting():
    assert set(FULL_DOC["integrator"]) == {f.name for f in dataclasses.fields(IntegratorConfig)}


@settings(derandomize=True, database=None, max_examples=300)
@given(key=st.sampled_from(sorted(FULL_DOC["params"])),
       value=st.floats() | st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 5e-324]))
def test_any_float_in_params_raises_only_config_error(key, value):
    try:
        parse_config({"params": dict(FULL_DOC["params"], **{key: value})})
    except ConfigError:
        pass


# every name the schema knows, plus strangers
SCHEMA_NAMES = sorted({*FULL_DOC, *(k for body in FULL_DOC.values() for k in body),
                       "stranger", ""})
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.sampled_from(["rk4_fixed", "rk45_adaptive", 10**400, -10**400]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_NAMES), inner, max_size=5),
    max_leaves=12,
)


@st.composite
def mutated_docs(draw):
    """FULL_DOC with one to three section entries set to arbitrary JSON."""
    doc = json.loads(json.dumps(FULL_DOC))
    for _ in range(draw(st.integers(1, 3))):
        section = doc[draw(st.sampled_from(sorted(doc)))]
        section[draw(st.sampled_from(SCHEMA_NAMES))] = draw(JSON_VALUES)
    return doc


@settings(derandomize=True, database=None, max_examples=300)
@given(doc=JSON_VALUES | mutated_docs())
def test_any_json_raises_only_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        pass


# (section, key) -> (how a RunConfig holds the value, the kind the parser
# converts it to, the value when the key is omitted)
ROUND_TRIP = {
    ("params", "d_m"): (lambda c: c.params.d, float, None),
    ("params", "l_m"): (lambda c: c.params.l, float, None),
    ("params", "mass_kg"): (lambda c: c.params.mass, float, None),
    ("params", "alpha0_m3"): (lambda c: c.params.atom.alpha0, float, None),
    ("params", "omega0_rad_s"): (lambda c: c.params.atom.omega0, float, None),
    ("params", "beta"): (lambda c: c.params.beta, float, 2.0),
    ("params", "include_gravity"): (lambda c: c.params.include_gravity, bool, True),
    ("initial", "phi0_rad"): (lambda c: c.phi0_rad, float, 0.0),
    ("integrator", "method"): (lambda c: c.integrator.method, Method, Method.RK45_ADAPTIVE),
    ("integrator", "t_max"): (lambda c: c.integrator.t_max, float, None),
    ("integrator", "dt"): (lambda c: c.integrator.dt, float, None),
    ("integrator", "rel_tol"): (lambda c: c.integrator.rel_tol, float, 1e-10),
    ("integrator", "abs_tol"): (lambda c: c.integrator.abs_tol, float, 1e-14),
    ("integrator", "max_steps"): (lambda c: c.integrator.max_steps, int, 1_000_000),
    ("integrator", "record_stride"): (lambda c: c.integrator.record_stride, int, 1),
    ("integrator", "collision_gap"): (lambda c: c.integrator.collision_gap, float, 2e-10),
    ("outputs", "trajectory_csv"): (lambda c: c.trajectory_csv, str, None),
    ("outputs", "report_json"): (lambda c: c.report_json, str, None),
}
REQUIRED = {"d_m", "l_m", "mass_kg", "alpha0_m3", "omega0_rad_s"}


def near_value(value):
    """A JSON value of value's type: numbers mostly within 0.5x-2x of it,
    sometimes zero, negated or a small int; any short text for a string."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, str):
        if value in {m.value for m in Method}:
            return st.sampled_from(sorted(m.value for m in Method))
        return st.text(max_size=6)
    if isinstance(value, int):
        return st.integers(-1, 2 * value)
    return (st.floats(0.5, 2.0).map(lambda f: f * value)
            | st.sampled_from([value, -value, 0.0, 0, 1, 2]))


NEAR_VALUES = {key: near_value(value) for body in FULL_DOC.values() for key, value in body.items()}


@st.composite
def near_full_docs(draw):
    """FULL_DOC with typed values near its own, optional keys and sections
    dropped, and every object's keys in a drawn order."""
    doc = {}
    for name in draw(st.permutations(sorted(FULL_DOC))):
        if name != "params" and draw(st.booleans()):
            continue
        keys = draw(st.permutations(sorted(FULL_DOC[name])))
        doc[name] = {key: draw(NEAR_VALUES[key]) for key in keys
                     if key in REQUIRED or draw(st.booleans())}
    return doc


@settings(derandomize=True, database=None, max_examples=500)
@given(doc=near_full_docs())
def test_accepted_document_round_trips(doc):
    """A document the parser accepts gives a RunConfig holding each of its
    values, converted to the key's kind, and each omitted key's default."""
    try:
        config = parse_config(doc)
    except ConfigError:
        return
    for (section, key), (read, kind, default) in ROUND_TRIP.items():
        given_value = doc.get(section, {}).get(key)
        expected = default if given_value is None else kind(given_value)
        actual = read(config)
        assert type(actual) is type(expected) and actual == expected, (section, key)


def test_integer_beyond_float_range_names_the_key():
    doc = {"params": dict(FULL_DOC["params"], mass_kg=10**400)}  # json.loads keeps it an int
    with pytest.raises(ConfigError, match="mass_kg"):
        parse_config(doc)


@settings(derandomize=True, database=None, max_examples=200)
@given(l=st.floats(1e-9, 1e-6), gap=st.floats(1e-3, 10.0), mass=st.floats(1e-27, 1e-20),
       alpha0=st.floats(1e-31, 1e-28), omega0=st.floats(1e13, 1e17), beta=st.floats(1.0, 2.0),
       gravity=st.booleans())
def test_params_to_dict_round_trip(l, gap, mass, alpha0, omega0, beta, gravity):
    params = PendulumParams(d=l * (1.0 + gap), l=l, mass=mass,
                            atom=AtomProperties(alpha0=alpha0, omega0=omega0), beta=beta,
                            include_gravity=gravity)
    assert parse_config({"params": params_to_dict(params)}).params == params


@st.composite
def swept_values(draw):
    key = draw(st.sampled_from(SWEEPABLE_PARAMS))
    base = {**FULL_DOC["params"], **FULL_DOC["initial"]}[key]
    return key, draw(st.floats(0.5, 2.0).map(lambda f: f * base) | st.floats())


@settings(derandomize=True, database=None, max_examples=300)
@given(swept=swept_values())
@example(("d_m", 1e300))  # (d - l)**-4 underflows: no finite positive stiffness
def test_swept_value_equals_parsed_replacement(swept):
    """A swept copy is the config parse_config builds from the replaced
    document, and raises exactly where parse_config rejects that document;
    except phi0_rad, which a sweep takes beyond the |phi0| < pi/2 that
    parse_config demands."""
    key, value = swept
    doc = json.loads(json.dumps(FULL_DOC))
    doc["initial" if key in doc["initial"] else "params"][key] = value
    try:
        expected = parse_config(doc)
    except ConfigError:
        expected = None
    try:
        swept_config = parse_config(FULL_DOC).with_swept_value(key, value)
    except ValueError:
        assert expected is None
    else:
        assert swept_config == expected or key == "phi0_rad" and expected is None


class TestFiles:
    def test_load_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(FULL_DOC))
        assert load_config(str(path)) == parse_config(FULL_DOC)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


class TestPresets:
    def test_listing(self):
        assert "paper-defaults" in preset_names()

    def test_reference_preset_values(self):
        config = load_preset("paper-defaults")
        assert config.params.d == 2e-8
        assert config.params.l == 1e-8
        assert config.params.mass == 1e-24
        assert config.params.atom.alpha0 == 1e-30
        assert config.params.atom.omega0 == 1e15
        assert config.params.beta == 2.0
        assert config.phi0_rad == 1e-3
        assert config.integrator.method is Method.RK45_ADAPTIVE
        assert config.integrator.rel_tol == 1e-10
        assert config.integrator.abs_tol == 1e-14

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="paper-defaults"):
            load_preset("does-not-exist")

    @pytest.mark.parametrize("name", ["../presets/paper-defaults", "./paper-defaults",
                                      "presets/../paper-defaults"])
    def test_path_like_name_is_unknown(self, name):
        """Only the names preset_names() lists load, not a path that reaches
        a bundled file."""
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset(name)


class TestSweptCopies:
    @pytest.mark.parametrize(
        "name,getter",
        [
            ("d_m", lambda c: c.params.d),
            ("l_m", lambda c: c.params.l),
            ("mass_kg", lambda c: c.params.mass),
            ("alpha0_m3", lambda c: c.params.atom.alpha0),
            ("omega0_rad_s", lambda c: c.params.atom.omega0),
            ("beta", lambda c: c.params.beta),
            ("phi0_rad", lambda c: c.phi0_rad),
        ],
    )
    def test_each_field(self, name, getter):
        base = parse_config({"params": FULL_DOC["params"]})
        values = {"d_m": 3e-8, "l_m": 0.9e-8, "mass_kg": 2e-24, "alpha0_m3": 2e-30,
                  "omega0_rad_s": 2e15, "beta": 1.25, "phi0_rad": 0.05}
        swept = base.with_swept_value(name, values[name])
        assert getter(swept) == values[name]

    def test_no_finite_stiffness(self):
        base = parse_config({"params": FULL_DOC["params"]})
        with pytest.raises(ValueError, match=r"^no finite positive stiffness for d=1e\+300, "):
            base.with_swept_value("d_m", 1e300)

    def test_unknown_name(self):
        base = parse_config({"params": FULL_DOC["params"]})
        with pytest.raises(ConfigError, match="t_max"):
            base.with_swept_value("t_max", 1.0)

    def test_base_untouched(self):
        """Swept copies share no mutable state with the base: its params,
        atom included, equal a fresh parse after every field is swept."""
        base = parse_config({"params": FULL_DOC["params"]})
        for name in SWEEPABLE_PARAMS:
            value = 1.25 * {**FULL_DOC["params"], **FULL_DOC["initial"]}[name]
            assert base.with_swept_value(name, value) != base
        fresh = parse_config({"params": FULL_DOC["params"]}).params
        assert base.params == fresh
        assert vars(base.params) == vars(fresh) and vars(base.params.atom) == vars(fresh.atom)
        assert params_to_dict(base.params) == FULL_DOC["params"]
