"""Geometry, torques, equation of motion and energies of the nanostring.

Expected numbers are hand evaluations for the reference design (d = 2e-8,
l = 1e-8, M = 1e-24, generic atom, beta = 2).  The equation of motion is
stepped only in the integrator's dimensionless form, so it is checked here
against the SI torques.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from casimir_pendulum import (
    AtomProperties,
    GeometryError,
    IntegratorConfig,
    PendulumParams,
    State,
    integrate,
    moment_of_inertia,
    potential_energy,
    tip_distance,
    torque_casimir,
    torque_gravity,
    total_energy,
)
from casimir_pendulum.integrator import _accel, _dimensionless_system, _rk4_step
from rk_reference import dop853_step

INERTIA = 3.333333333333333e-41  # kg*m^2, M*l^2/3
TIP_AT_001 = 1.0000499995833348e-08  # m, R(0.01) = 2e-8 - 1e-8*cos(0.01)
GRAVITY_COEFF = 4.903324999999999e-32  # N*m, M*g*l/2
TAU_GRAV_001 = -4.903243278325275e-34  # N*m, -M*g*(l/2)*sin(0.01)
TAU_CAS_001 = -9.438972590669088e-29  # N*m, 3*F_near(R(0.01))*l*sin(0.01)
ACC_001 = -2831706486930.562  # rad/s^2, (tau_g + tau_c)/I at phi = 0.01
V_CASIMIR_0 = -3.1470059535178436e-27  # J, 3*U_near(1e-8), gravity excluded
KE_1E7 = 1.6666666666666666e-27  # J, I*(1e7)^2/2


class TestGeometry:
    def test_tip_distance_straight_down(self, params):
        assert tip_distance(0.0, params) == 1e-8

    def test_tip_distance_small_angle(self, params):
        assert tip_distance(0.01, params) == pytest.approx(TIP_AT_001, rel=1e-15)

    def test_tip_distance_even_in_phi(self, params):
        assert tip_distance(0.2, params) == tip_distance(-0.2, params)

    def test_tip_rises_with_angle(self, params):
        angles = np.linspace(0.0, 1.5, 40)
        heights = [tip_distance(a, params) for a in angles]
        assert all(a < b for a, b in zip(heights, heights[1:]))

    def test_moment_of_inertia(self, params):
        assert moment_of_inertia(params) == pytest.approx(INERTIA, rel=1e-15)


class TestTorques:
    def test_both_vanish_at_equilibrium(self, params):
        assert torque_gravity(0.0, params) == 0.0
        assert torque_casimir(0.0, params) == 0.0

    def test_both_restore(self, params):
        for phi in (0.01, 0.3, -0.01, -0.3):
            assert math.copysign(1, torque_gravity(phi, params)) == -math.copysign(1, phi)
            assert math.copysign(1, torque_casimir(phi, params)) == -math.copysign(1, phi)

    def test_gravity_magnitude(self, params):
        assert torque_gravity(0.01, params) == pytest.approx(TAU_GRAV_001, rel=1e-12)

    def test_casimir_magnitude(self, params):
        assert torque_casimir(0.01, params) == pytest.approx(TAU_CAS_001, rel=1e-12)

    def test_casimir_dominates_gravity(self, params):
        # the design point of the whole device: vacuum torque ~ 1e5 x gravity
        ratio = torque_casimir(0.01, params) / torque_gravity(0.01, params)
        assert ratio > 1e4

    def test_gravity_flag(self, params, params_vacuum_only):
        assert torque_gravity(0.3, params_vacuum_only) == 0.0
        assert torque_casimir(0.3, params_vacuum_only) == torque_casimir(0.3, params)

    def test_beta_scales_restoring(self, params):
        weak = replace(params, beta=1.0)
        # (1+beta) multiplier: 3 at beta=2, 2 at beta=1
        assert torque_casimir(0.1, params) / torque_casimir(0.1, weak) == pytest.approx(
            1.5, rel=1e-12
        )


def core_steps(phi: float, psi: float, h: float, params: PendulumParams):
    """(phi, psi) after one step of h in tau, by RK4 and by Dormand-Prince."""
    _, lam, gamma = _dimensionless_system(params)
    dp = dop853_step(phi, psi, _accel(phi, lam, gamma), h, lam, gamma)
    return _rk4_step(phi, psi, h, lam, gamma), dp[:2]


def core_acceleration(phi: float, params: PendulumParams) -> float:
    """phi_ddot in rad/s^2 from the dimensionless core: w_ref^2 * dpsi/dtau."""
    w_ref, lam, gamma = _dimensionless_system(params)
    return w_ref**2 * _accel(phi, lam, gamma)


class TestEquationOfMotion:
    def test_rhs_at_rest_displaced(self, params):
        assert core_acceleration(0.01, params) == pytest.approx(ACC_001, rel=1e-12)

    @pytest.mark.parametrize("include_gravity", [True, False])
    @pytest.mark.parametrize("phi", [0.01, -0.01, 0.2, -0.2, 0.45, -0.45])
    def test_core_matches_si_torques(self, params, phi, include_gravity):
        p = replace(params, include_gravity=include_gravity)
        si = (torque_gravity(phi, p) + torque_casimir(phi, p)) / moment_of_inertia(p)
        assert core_acceleration(phi, p) == pytest.approx(si, rel=1e-12)

    def test_rhs_passes_velocity_through(self, params):
        # dphi/dtau = psi: over a short step either method moves phi by h*psi
        h = 1e-7
        for phi in (0.0, 0.2, -0.45):
            for phi_new, _ in core_steps(phi, 0.123, h, params):
                assert (phi_new - phi) / h == pytest.approx(0.123, rel=1e-5)

    def test_equilibrium_is_fixed_point(self, params):
        assert core_acceleration(0.0, params) == 0.0
        assert core_steps(0.0, 0.0, 0.1, params) == ((0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2, 2.0])
    def test_rejects_horizontal_string(self, params, phi):
        with pytest.raises(GeometryError):
            integrate(params, State(t=0.0, phi=phi, phi_dot=0.0), IntegratorConfig(t_max=1e-7))


class TestEnergy:
    def test_casimir_well_depth(self, params_vacuum_only):
        assert potential_energy(0.0, params_vacuum_only) == pytest.approx(V_CASIMIR_0, rel=1e-12)

    def test_kinetic_term(self, params):
        e_moving = total_energy(State(t=0.0, phi=0.0, phi_dot=1e7), params)
        e_rest = total_energy(State(t=0.0, phi=0.0, phi_dot=0.0), params)
        assert e_moving - e_rest == pytest.approx(KE_1E7, rel=1e-12)

    def test_potential_grows_away_from_equilibrium(self, params):
        v = [potential_energy(phi, params) for phi in (0.0, 0.1, 0.2, 0.3)]
        assert all(a < b for a, b in zip(v, v[1:]))

    @pytest.mark.parametrize("include_gravity", [True, False])
    def test_torque_is_minus_potential_gradient(self, params, include_gravity):
        """-dV/dphi must reproduce the full torque under either gravity flag."""
        p = replace(params, include_gravity=include_gravity)
        h = 3e-4
        angles = np.linspace(0.05, 0.45, 5)
        for phi in np.concatenate([-angles, angles]):
            fd = -(potential_energy(phi + h, p) - potential_energy(phi - h, p)) / (2 * h)
            tau = torque_gravity(phi, p) + torque_casimir(phi, p)
            assert abs(fd / tau - 1) <= 1e-6

    def test_gravity_term_follows_flag(self, params, params_vacuum_only):
        # at phi = 0 the flags differ by exactly -M*g*l/2
        diff = potential_energy(0.0, params) - potential_energy(0.0, params_vacuum_only)
        assert diff == pytest.approx(-GRAVITY_COEFF, rel=1e-12)

    def test_energy_rejects_horizontal_string(self, params):
        with pytest.raises(GeometryError):
            potential_energy(1.6, params)


class TestValidation:
    def test_pivot_must_clear_string(self, atom):
        with pytest.raises(ValueError):
            PendulumParams(d=1e-8, l=1e-8, mass=1e-24, atom=atom)
        with pytest.raises(ValueError):
            PendulumParams(d=5e-9, l=1e-8, mass=1e-24, atom=atom)

    def test_positive_scalars(self, atom):
        with pytest.raises(ValueError):
            PendulumParams(d=2e-8, l=-1e-8, mass=1e-24, atom=atom)
        with pytest.raises(ValueError):
            PendulumParams(d=2e-8, l=1e-8, mass=0.0, atom=atom)

    def test_beta_window(self, atom):
        with pytest.raises(ValueError):
            PendulumParams(d=2e-8, l=1e-8, mass=1e-24, atom=atom, beta=0.5)
        with pytest.raises(ValueError):
            PendulumParams(d=2e-8, l=1e-8, mass=1e-24, atom=atom, beta=2.5)

    def test_state_must_be_finite(self):
        with pytest.raises(ValueError):
            State(t=0.0, phi=math.nan, phi_dot=0.0)
        with pytest.raises(ValueError):
            State(t=0.0, phi=0.0, phi_dot=math.inf)
