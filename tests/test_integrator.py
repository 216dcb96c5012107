"""Integrator behaviour: conservation, convergence, period extraction,
terminations.

The key oracle is independent of the time stepper: for a conservative
one-degree-of-freedom system released from rest at phi0, the exact period
is the action integral

    T = 4 * integral_0^{phi0} dphi / sqrt(2*(V(phi0) - V(phi)) / I)

evaluated here by adaptive quadrature after the substitution
phi = phi0*sin(theta) (which removes the turning-point singularity).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import casimir_pendulum.integrator as integrator_module
from casimir_pendulum import (
    GeometryError,
    InsufficientCyclesError,
    IntegratorConfig,
    Method,
    PendulumParams,
    State,
    Termination,
    Trajectory,
    energy_drift,
    estimate_period,
    integrate,
    linear_period,
    load_preset,
    moment_of_inertia,
    potential_energy,
    tip_distance,
    total_energy,
)


def quadrature_period(params: PendulumParams, phi0: float) -> float:
    """Exact period via the action integral; no time stepping involved."""
    inertia = moment_of_inertia(params)
    v0 = potential_energy(phi0, params)

    def integrand(theta: float) -> float:
        phi = phi0 * math.sin(theta)
        dv = v0 - potential_energy(phi, params)
        return phi0 * math.cos(theta) / math.sqrt(2.0 * dv / inertia)

    value, _ = quad(integrand, 0.0, 0.5 * math.pi, limit=200)
    return 4.0 * value


def release(params, phi0, n_periods=12.0, **overrides) -> Trajectory:
    config = IntegratorConfig(t_max=n_periods * linear_period(params), **overrides)
    return integrate(params, State(t=0.0, phi=phi0, phi_dot=0.0), config)


class TestEquilibrium:
    def test_fixed_point(self, params):
        traj = release(params, 0.0, n_periods=3.0)
        assert traj.termination is Termination.COMPLETED
        assert np.all(traj.phi == 0.0)
        assert np.all(traj.phi_dot == 0.0)
        assert energy_drift(traj) <= 1e-14

    def test_period_unmeasurable(self, params):
        with pytest.raises(InsufficientCyclesError):
            estimate_period(release(params, 0.0, n_periods=3.0))


class TestPeriodAgainstOracles:
    def test_small_angle_matches_linear_theory(self, params_vacuum_only):
        traj = release(params_vacuum_only, 1e-3)
        measured = estimate_period(traj).mean_period
        expected = linear_period(params_vacuum_only)
        assert abs(measured - expected) / expected <= 1e-4

    @pytest.mark.parametrize("phi0", [1e-2, 0.3])
    def test_matches_action_integral(self, params_vacuum_only, phi0):
        """Dual route: adaptive quadrature of V vs time integration."""
        expected = quadrature_period(params_vacuum_only, phi0)
        measured = estimate_period(release(params_vacuum_only, phi0)).mean_period
        assert abs(measured - expected) / expected <= 1e-7

    def test_matches_action_integral_with_gravity(self, params):
        expected = quadrature_period(params, 0.3)
        measured = estimate_period(release(params, 0.3)).mean_period
        assert abs(measured - expected) / expected <= 1e-7

    def test_gravity_shifts_period_slightly(self, params, params_vacuum_only):
        # gravity adds ~5e-6 relative stiffness, shortening the period
        t_on = estimate_period(release(params, 1e-3)).mean_period
        t_off = estimate_period(release(params_vacuum_only, 1e-3)).mean_period
        shift = (t_off - t_on) / t_off
        assert 0 < shift <= 3e-5

    def test_softening_with_amplitude(self, params_vacuum_only):
        periods = [
            estimate_period(release(params_vacuum_only, phi0)).mean_period
            for phi0 in (1e-3, 1e-2, 1e-1, 3e-1)
        ]
        assert all(a <= b for a, b in zip(periods, periods[1:]))
        assert periods[-1] > 1.05 * periods[0]


class TestEnergyConservation:
    def test_adaptive_default_tolerances(self, params):
        traj = release(params, 1e-2, n_periods=20.0)
        assert energy_drift(traj) <= 1e-10

    def test_drift_monotone_in_tolerance(self, params):
        drifts = [
            energy_drift(release(params, 1e-2, n_periods=20.0, rel_tol=rt, abs_tol=rt * 1e-2))
            for rt in (1e-6, 1e-8, 1e-10, 1e-12)
        ]
        assert all(a > b for a, b in zip(drifts, drifts[1:]))


class TestReversibility:
    def test_rk4_round_trip(self, params_vacuum_only):
        t_lin = linear_period(params_vacuum_only)
        config = IntegratorConfig(
            t_max=t_lin, method=Method.RK4_FIXED, dt=t_lin / 2000, max_steps=10**7
        )
        fwd = integrate(params_vacuum_only, State(0.0, 0.3, 0.0), config).final_state()
        back = integrate(
            params_vacuum_only, State(0.0, fwd.phi, -fwd.phi_dot), config
        ).final_state()
        assert abs(back.phi - 0.3) <= 1e-6


class TestDeterminism:
    def test_bit_identical_reruns(self, params):
        a = release(params, 1e-2)
        b = release(params, 1e-2)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.phi_dot, b.phi_dot)
        assert np.array_equal(a.energy, b.energy)


class TestTrajectoryInvariants:
    def test_columns(self, params):
        traj = release(params, 1e-2, n_periods=2.0)
        assert np.all(np.diff(traj.t) > 0)
        expected_r = np.array([tip_distance(p, params) for p in traj.phi])
        assert np.array_equal(traj.r, expected_r)
        assert traj.params == params

    def test_read_only(self, params):
        traj = release(params, 1e-2, n_periods=2.0)
        with pytest.raises(ValueError):
            traj.phi[0] = 1.0

    def test_record_stride_thins_but_keeps_endpoints(self, params):
        dense = release(params, 1e-2, n_periods=2.0)
        sparse = release(params, 1e-2, n_periods=2.0, record_stride=7)
        assert len(sparse) < len(dense)
        assert sparse.t[0] == dense.t[0]
        # same step sequence, so the last accepted state is identical
        assert sparse.t[-1] == dense.t[-1]
        assert sparse.phi[-1] == dense.phi[-1]

    @pytest.mark.parametrize("design", ["paper-defaults", "gravity-off", "colliding"])
    def test_energy_column_is_total_energy(self, design, params_vacuum_only, atom):
        """The column comes from the dimensionless invariant; the SI
        total_energy is the independent reference."""
        if design == "paper-defaults":
            config = load_preset(design)
            initial = State(0.0, config.phi0_rad, 0.0)
            traj = integrate(config.params, initial, config.integrator)
        elif design == "gravity-off":
            traj = release(params_vacuum_only, 0.3, n_periods=3.0)
        else:
            traj = release(PendulumParams(d=1.019e-8, l=1e-8, mass=1e-24, atom=atom), 0.3)
            assert traj.termination is Termination.COLLISION
        for t, phi, phi_dot, energy in zip(traj.t, traj.phi, traj.phi_dot, traj.energy):
            expected = total_energy(State(t, phi, phi_dot), traj.params)
            assert energy == pytest.approx(expected, rel=1e-12)

    def test_initial_sample_is_exact_initial_state(self, params):
        traj = integrate(
            params, State(t=1.5e-9, phi=1e-2, phi_dot=0.0), IntegratorConfig(t_max=1e-7)
        )
        assert traj.t[0] == 1.5e-9
        assert traj.phi[0] == 1e-2


class TestTerminations:
    def test_collision_when_gap_closes_mid_swing(self, atom):
        # equilibrium gap 1.9e-10 m is inside the 2e-10 m safety margin, but
        # the release point R(0.3) ~ 6.4e-10 m is not: the tip collides on
        # the way through the bottom of the swing.
        p = PendulumParams(d=1.019e-8, l=1e-8, mass=1e-24, atom=atom)
        traj = release(p, 0.3)
        assert traj.termination is Termination.COLLISION
        assert np.all(traj.r > 2e-10)  # the violating state is not recorded
        assert abs(traj.phi[-1]) < 0.3

    def test_collision_at_initial_state(self, atom):
        p = PendulumParams(d=1.00015e-8, l=1e-8, mass=1e-24, atom=atom)
        traj = integrate(p, State(0.0, 0.0, 0.0), IntegratorConfig(t_max=1e-7))
        assert traj.termination is Termination.COLLISION
        assert len(traj) == 1

    def test_collision_gap_configurable(self, params):
        # huge safety gap: even the reference design "collides" immediately
        traj = integrate(
            params, State(0.0, 0.0, 0.0), IntegratorConfig(t_max=1e-7, collision_gap=5e-8)
        )
        assert traj.termination is Termination.COLLISION

    def test_step_limit(self, params):
        traj = release(params, 1e-3, n_periods=100.0, max_steps=50)
        assert traj.termination is Termination.STEP_LIMIT
        assert len(traj) == 51  # initial sample + 50 accepted steps

    def test_completed(self, params):
        assert release(params, 1e-3, n_periods=2.0).termination is Termination.COMPLETED

    def test_stalled(self):
        # at t = 1 s a 1e-30 s step no longer changes the time
        config = IntegratorConfig(t_max=2.0, method=Method.RK4_FIXED, dt=1e-30)
        params = load_preset("paper-defaults").params
        traj = integrate(params, State(t=1.0, phi=1e-3, phi_dot=0.0), config)
        assert traj.termination is Termination.STALLED
        assert len(traj) == 1
        assert traj.t[0] == 1.0

    @pytest.mark.parametrize("dt", [1e152, 1e283])
    def test_overflowing_fixed_step_is_collision(self, params, dt):
        # a stage angle of the first step overflows to inf, whose sine is a
        # math domain error: the run ends with only the start state recorded
        config = IntegratorConfig(t_max=1e300, method=Method.RK4_FIXED, dt=dt)
        traj = integrate(params, State(0.0, 0.3, 0.0), config)
        assert traj.termination is Termination.COLLISION
        assert len(traj) == 1
        assert (traj.t[0], traj.phi[0], traj.phi_dot[0]) == (0.0, 0.3, 0.0)


def rk4_one_step(params, state: State, dt: float) -> Trajectory:
    config = IntegratorConfig(t_max=state.t + dt, method=Method.RK4_FIXED, dt=dt)
    return integrate(params, state, config)


class TestStepRk4:
    """The fixed-step RK4 method of integrate."""

    def test_equilibrium_fixed_point(self, params):
        traj = rk4_one_step(params, State(0.0, 0.0, 0.0), 1e-9)
        s = traj.final_state()
        assert len(traj) == 2
        assert (s.phi, s.phi_dot) == (0.0, 0.0)
        assert s.t == pytest.approx(1e-9, rel=1e-15)

    def test_restoring_first_step(self, params):
        s = rk4_one_step(params, State(0.0, 1e-3, 0.0), linear_period(params) / 1000).final_state()
        assert 0 < s.phi < 1e-3
        assert s.phi_dot < 0

    def test_rejects_nonpositive_dt(self):
        for dt in (0.0, -1e-9):
            with pytest.raises(ValueError):
                IntegratorConfig(t_max=1e-7, method=Method.RK4_FIXED, dt=dt)

    def test_geometry_violation_surfaces(self, params):
        # the step carries phi past pi/2: a collision, not an exception
        traj = rk4_one_step(params, State(0.0, 1.57, 1e9), 1e-7)
        assert traj.termination is Termination.COLLISION
        assert len(traj) == 1
        assert traj.phi[-1] == 1.57

    def test_order_of_convergence(self, params_vacuum_only):
        """Halving dt must shrink the one-period state error ~16x."""
        t_lin = linear_period(params_vacuum_only)

        def final_phi(n: int) -> float:
            config = IntegratorConfig(
                t_max=t_lin,
                method=Method.RK4_FIXED,
                dt=t_lin / n,
                record_stride=n,
                max_steps=10**7,
            )
            return integrate(params_vacuum_only, State(0.0, 0.3, 0.0), config).phi[-1]

        reference = final_phi(4096)
        errors = [abs(final_phi(n) - reference) for n in (64, 128, 256)]
        slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(3.7 <= s <= 4.3 for s in slopes)


class TestDormandPrinceStep:
    @pytest.mark.parametrize("phi0", [1e-3, 0.2])
    def test_six_rhs_calls_per_accepted_step(self, monkeypatch, phi0):
        """The last stage is the next step's first (FSAL): 6 calls, not 7."""
        calls = 0
        accel = integrator_module._accel

        def counting_accel(*args):
            nonlocal calls
            calls += 1
            return accel(*args)

        monkeypatch.setattr(integrator_module, "_accel", counting_accel)
        config = load_preset("paper-defaults")
        assert config.integrator.record_stride == 1
        traj = integrate(config.params, State(0.0, phi0, 0.0), config.integrator)
        assert traj.termination is Termination.COMPLETED
        assert calls / (len(traj) - 1) <= 6.05


class TestEstimatePeriod:
    def test_synthetic_unit_sinusoid(self, params):
        """phi(t) = cos(2 pi t) over 3 periods -> mean period 1.0."""
        t = np.linspace(0.0, 3.0, 1000)
        phi = np.cos(2 * math.pi * t)
        traj = Trajectory(
            t=t,
            phi=phi,
            phi_dot=-2 * math.pi * np.sin(2 * math.pi * t),
            r=np.array([tip_distance(p, params) for p in phi]),
            energy=np.ones_like(t),
            params=params,
            termination=Termination.COMPLETED,
        )
        estimate = estimate_period(traj)
        assert estimate.mean_period == pytest.approx(1.0, abs=1e-6)
        assert estimate.cycles_observed == 2
        assert estimate.mean_period == pytest.approx(
            float(np.mean(estimate.per_cycle_periods)), rel=1e-15
        )

    def test_single_crossing_is_insufficient(self, params):
        with pytest.raises(InsufficientCyclesError):
            estimate_period(release(params, 1e-3, n_periods=0.9))


class TestEnergyDrift:
    def test_zero_initial_energy_rejected(self, params):
        traj = release(params, 1e-3, n_periods=2.0)
        doctored = Trajectory(
            t=traj.t,
            phi=traj.phi,
            phi_dot=traj.phi_dot,
            r=traj.r,
            energy=np.zeros_like(traj.energy),
            params=params,
            termination=traj.termination,
        )
        with pytest.raises(ValueError):
            energy_drift(doctored)


class TestConfigValidation:
    def test_t_max_positive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=0.0)

    def test_fixed_step_needs_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e-7, method=Method.RK4_FIXED)

    def test_adaptive_needs_positive_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e-7, rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e-7, abs_tol=-1e-12)

    def test_counts_at_least_one(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e-7, max_steps=0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e-7, record_stride=0)

    def test_integrate_rejects_horizontal_release(self, params):
        with pytest.raises(GeometryError):
            integrate(params, State(0.0, 1.6, 0.0), IntegratorConfig(t_max=1e-7))

    def test_integrate_rejects_empty_time_window(self, params):
        with pytest.raises(ValueError):
            integrate(params, State(1e-6, 1e-3, 0.0), IntegratorConfig(t_max=1e-7))
