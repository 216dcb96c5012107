"""Parameter estimation from atomic data and the regime validator."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_pendulum import (
    ConfigError,
    NanostringSpec,
    ValidityReport,
    estimate_params,
    parse_config,
    validate,
)
from casimir_pendulum.analytic import _dimensionless_system
from casimir_pendulum.pendulum import MIN_TIP_GAP

# 30-atom chain of 1e-10 m atoms, atomic weight 60.22 g/mol, hung 1e-8 m
# above the plate: l = 9e-9 m, per-atom mass 1e-25 kg, M = 3e-24 kg.
REFERENCE_SPEC = dict(n_atoms=30, atom_radius=1e-10, atomic_weight=60.22)


class TestEstimateParams:
    def test_reference_chain(self):
        params = estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=1e-8)
        assert params.l == pytest.approx(9e-9, rel=1e-15)
        assert params.mass == pytest.approx(3e-24, rel=1e-12)
        assert params.d == pytest.approx(1.9e-8, rel=1e-15)

    def test_no_order_of_magnitude_rounding(self):
        # 9e-9 exactly, not 1e-8
        params = estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=1e-8)
        assert params.l == 30 * 3 * 1e-10

    def test_two_atom_chain(self):
        params = estimate_params(
            NanostringSpec(n_atoms=2, atom_radius=1e-10, atomic_weight=1.0), gap_r=1e-8
        )
        assert params.l == pytest.approx(6e-10, rel=1e-15)

    def test_atom_defaults(self):
        params = estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=1e-8)
        assert params.atom.alpha0 == 1e-30
        assert params.atom.omega0 == 1e15

    def test_atom_overrides(self):
        spec = NanostringSpec(alpha0=2e-30, omega0=5e14, **REFERENCE_SPEC)
        params = estimate_params(spec, gap_r=1e-8)
        assert params.atom.alpha0 == 2e-30
        assert params.atom.omega0 == 5e14

    def test_homogeneous_in_radius(self):
        base = estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=1e-8)
        spec = dict(REFERENCE_SPEC, atom_radius=2e-10)
        doubled = estimate_params(NanostringSpec(**spec), gap_r=1e-8)
        assert doubled.l == 2 * base.l

    def test_homogeneous_in_weight(self):
        base = estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=1e-8)
        spec = dict(REFERENCE_SPEC, atomic_weight=2 * 60.22)
        doubled = estimate_params(NanostringSpec(**spec), gap_r=1e-8)
        assert doubled.mass == pytest.approx(2 * base.mass, rel=1e-15)

    def test_geometry_holds_by_construction(self):
        params = estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=1e-12)
        assert params.d > params.l

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            NanostringSpec(n_atoms=1, atom_radius=1e-10, atomic_weight=60.0)
        with pytest.raises(ValueError):
            NanostringSpec(n_atoms=30, atom_radius=0.0, atomic_weight=60.0)
        with pytest.raises(ValueError):
            NanostringSpec(n_atoms=30, atom_radius=1e-10, atomic_weight=-1.0)
        with pytest.raises(ValueError):
            estimate_params(NanostringSpec(**REFERENCE_SPEC), gap_r=0.0)


class TestValidate:
    def test_reference_design_passes_everything(self, params):
        report = validate(params, phi0=1e-3)
        assert report.verdict
        assert report.near_zone_ok
        assert report.gravity_negligible
        assert report.geometry_ok
        assert report.small_angle_ok

    def test_near_zone_ratio(self, params):
        # (c/omega0) / R(phi0) with the swing topping out at R(1e-3)
        report = validate(params, phi0=1e-3)
        assert report.near_zone_ratio == pytest.approx(29.979230810385843, rel=1e-12)

    def test_gravity_ratio(self, params):
        report = validate(params, phi0=1e-3)
        assert report.gravity_ratio == pytest.approx(192543.1795884126, rel=1e-12)

    def test_lower_omega0_widens_near_zone(self, params):
        slow_atom = replace(params.atom, omega0=1e13)
        report = validate(replace(params, atom=slow_atom), phi0=1e-3)
        assert report.near_zone_ok
        assert report.near_zone_ratio == pytest.approx(2997.9230810385843, rel=1e-12)

    def test_near_zone_fails_for_wide_gap(self, params):
        report = validate(replace(params, d=5e-7), phi0=1e-3)
        assert not report.near_zone_ok
        assert not report.verdict

    def test_heavy_string_loses_to_gravity(self, params):
        report = validate(replace(params, mass=1e-18), phi0=1e-3)
        assert not report.gravity_negligible
        assert report.gravity_ratio < 100

    def test_geometry_fails_inside_safety_gap(self, params):
        report = validate(replace(params, d=1.0001e-8), phi0=1e-3)
        assert not report.geometry_ok

    def test_equilibrium_gap_equal_to_default_gap_fails(self, params):
        # d - l == MIN_TIP_GAP exactly: the tip touches the gap at phi = 0
        design = replace(params, d=2 * MIN_TIP_GAP, l=MIN_TIP_GAP)
        assert design.d - design.l == MIN_TIP_GAP
        report = validate(design, phi0=1e-3)
        assert not report.geometry_ok
        assert not report.verdict

    def test_geometry_uses_the_given_gap(self, params):
        r0 = params.d - params.l
        assert validate(params, phi0=1e-3, gap=math.nextafter(r0, 0.0)).geometry_ok
        assert not validate(params, phi0=1e-3, gap=r0).geometry_ok
        assert not validate(params, phi0=1e-3, gap=2 * r0).geometry_ok

    @pytest.mark.parametrize("gap", [0.0, 1e-10, math.nextafter(MIN_TIP_GAP, 0.0)])
    def test_gap_below_the_floor_keeps_the_floor(self, params, gap):
        # a collision_gap below MIN_TIP_GAP does not admit a tip the
        # point-atom force law cannot describe
        below = replace(params, d=params.l + 1e-10)
        assert not validate(below, phi0=1e-3, gap=gap).geometry_ok
        assert not validate(below, phi0=1e-3, gap=gap).verdict
        at_floor = replace(params, d=2 * MIN_TIP_GAP, l=MIN_TIP_GAP)
        assert validate(at_floor, phi0=1e-3, gap=gap).geometry_ok

    def test_large_amplitude_flagged(self, params):
        assert not validate(params, phi0=0.31).small_angle_ok
        assert validate(params, phi0=0.3).small_angle_ok

    def test_equilibrium_release_is_valid(self, params):
        assert validate(params, phi0=0.0).verdict

    def test_amplitude_sign_irrelevant(self, params):
        assert validate(params, phi0=-1e-3) == validate(params, phi0=1e-3)

    def test_never_raises_for_physics(self, params):
        # absurd but finite inputs still yield a report
        report = validate(params, phi0=1.4)
        assert not report.small_angle_ok
        assert isinstance(report.verdict, bool)

    @pytest.mark.parametrize("phi0", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_raises(self, params, phi0):
        with pytest.raises(ValueError, match="phi0 must be finite"):
            validate(params, phi0=phi0)

    def test_verdict_is_conjunction(self):
        flags = dict(near_zone_ok=True, gravity_negligible=True, geometry_ok=True,
                     small_angle_ok=True)
        ratios = dict(near_zone_ratio=30.0, gravity_ratio=1e5)
        assert ValidityReport(**flags, **ratios).verdict is True
        for name in flags:
            assert ValidityReport(**dict(flags, **{name: False}), **ratios).verdict is False
        with pytest.raises(TypeError):  # set from the flags, never given
            ValidityReport(**flags, **ratios, verdict=True)


def exponents(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)



@settings(derandomize=True, database=None, max_examples=300)
@given(d=exponents(-20, 100), l=exponents(-20, 100), mass=exponents(-320, 0),
       alpha0=exponents(-40, -10), omega0=exponents(5, 25), beta=st.floats(1.0, 2.0),
       gravity=st.booleans(), phi0=st.floats(-1.57, 1.57))
@example(1e10, 1e-15, 1e-310, 1e-30, 1e15, 2.0, True, 0.3)  # M*g*l/2 underflows to 0
# the reference string where gamma is no finite float, so integrate raises
@example(1e72, 1e-8, 1e-24, 1e-30, 1e15, 2.0, True, 0.3)
@example(1e75, 1e-8, 1e-24, 1e-30, 1e15, 2.0, True, 0.3)
def test_rates_every_accepted_design(d, l, mass, alpha0, omega0, beta, gravity, phi0):
    """validate rates every design parse_config accepts, and its
    gravity_ratio is 1/gamma of the integrator's scales, bit for bit."""
    try:
        config = parse_config({
            "params": {"d_m": d, "l_m": l, "mass_kg": mass, "alpha0_m3": alpha0,
                       "omega0_rad_s": omega0, "beta": beta, "include_gravity": gravity},
            "initial": {"phi0_rad": phi0}})
    except ConfigError:
        return
    report = validate(config.params, config.phi0_rad)
    assert isinstance(report, ValidityReport)
    if not gravity:
        return
    try:
        gamma = _dimensionless_system(config.params)[2]
    except ValueError:  # gamma is inf: integrate raises, validate reports
        assert report.gravity_ratio == 0.0
    else:
        assert report.gravity_ratio == (1.0 / gamma if gamma else math.inf)

