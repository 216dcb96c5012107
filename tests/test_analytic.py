"""Linearized frequency and period."""

import math
from dataclasses import replace

import pytest

from casimir_pendulum import linear_omega, linear_period

# Hand evaluations of omega = sqrt(9*(1+beta)*hbar*omega0*alpha0 /
# (32*pi*M*l*(d-l)^4)) for the reference design.
OMEGA_BETA2 = 16829454.412327394  # rad/s
PERIOD_BETA2 = 3.7334456324247924e-07  # s
PERIOD_BETA15 = 4.0897847801964e-07  # s
PERIOD_BETA1 = 4.5725183909315927e-07  # s


def test_omega_reference_design(params):
    assert linear_omega(params) == pytest.approx(OMEGA_BETA2, rel=1e-12)


@pytest.mark.parametrize(
    "beta,expected",
    [(2.0, PERIOD_BETA2), (1.5, PERIOD_BETA15), (1.0, PERIOD_BETA1)],
)
def test_period_across_beta(params, beta, expected):
    assert linear_period(replace(params, beta=beta)) == pytest.approx(expected, rel=1e-12)


def test_period_is_tenth_of_microsecond(params):
    # headline scale of the device
    assert 1e-7 < linear_period(params) < 1e-6


def test_gravity_flag_is_ignored(params, params_vacuum_only):
    assert linear_omega(params) == linear_omega(params_vacuum_only)


class TestScalingLaws:
    """omega^2 = 9(1+beta) hbar omega0 alpha0 / (32 pi M l (d-l)^4)."""

    def test_gap_quadratic_in_period(self, params):
        # T ~ (d-l)^2: doubling the gap quadruples the period
        wide = replace(params, d=params.l + 2 * (params.d - params.l))
        assert linear_period(wide) / linear_period(params) == pytest.approx(4.0, rel=1e-12)

    def test_beta_endpoint_ratio(self, params):
        strong = linear_period(replace(params, beta=2.0))
        weak = linear_period(replace(params, beta=1.0))
        assert weak / strong == pytest.approx(math.sqrt(1.5), rel=1e-12)

    def test_mass_square_root(self, params):
        heavy = replace(params, mass=4 * params.mass)
        assert linear_period(heavy) / linear_period(params) == pytest.approx(2.0, rel=1e-12)

    def test_alpha0_omega0_product(self, params):
        atom4 = replace(params.atom, alpha0=2 * params.atom.alpha0, omega0=2 * params.atom.omega0)
        faster = replace(params, atom=atom4)
        assert linear_omega(faster) / linear_omega(params) == pytest.approx(2.0, rel=1e-12)

