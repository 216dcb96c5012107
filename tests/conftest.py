"""Shared fixtures: the reference nanostring configuration, and the
Hypothesis profile "no-shrink".

`pytest --hypothesis-profile=no-shrink` reports the first failing example of
a property as it was generated, without shrinking it.  Which tests pass or
fail does not change, only how long a failing property takes to report:
tests/mutants.py runs its tests so, as a mutant must only fail them.
"""

from dataclasses import replace

import pytest
from hypothesis import Phase, settings

from casimir_pendulum import AtomProperties, PendulumParams

# Reference design: 1e-8 m string pivoted 2e-8 m above the plate, 1e-24 kg,
# generic atom (alpha0 = 1e-30 m^3, omega0 = 1e15 rad/s), beta = 2.
D = 2e-8
L = 1e-8
MASS = 1e-24
ALPHA0 = 1e-30
OMEGA0 = 1e15

settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture
def atom() -> AtomProperties:
    return AtomProperties(alpha0=ALPHA0, omega0=OMEGA0)


@pytest.fixture
def params(atom) -> PendulumParams:
    return PendulumParams(d=D, l=L, mass=MASS, atom=atom)


@pytest.fixture
def params_vacuum_only(params) -> PendulumParams:
    """Same pendulum with the (tiny) gravity torque switched off."""
    return replace(params, include_gravity=False)
