"""A generic explicit Runge-Kutta step, the tests' scalar reference for the
Dormand-Prince tableau the integrator writes out by hand (in _advance) and
holds as a table of arrays for lanes (_dp45_lanes).

The Butcher arrays hold the coefficients as the same quotients the
integrator writes, each stage's terms are summed left to right, and zero
weights are skipped, so a step equals the integrator's bit for bit: a
subtracted term there is an added negated coefficient here, which rounds
the same.
"""

from functools import reduce
from operator import add

from casimir_pendulum.integrator import _accel

# Dormand & Prince 1980: the stage rows of A, the last being the 5th-order
# weights (first same as last), and the error weights b5 - b4.
DP45_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP45_E = (71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def weighted_sum(weights, values):
    """sum(w * v), left to right, skipping zero weights."""
    return reduce(add, (w * v for w, v in zip(weights, values) if w != 0))


def dp45_step(phi, psi, a1, h, lam, gamma):
    """One Dormand-Prince trial step from (phi, psi) with a1 = _accel(phi):
    (phi5, psi5, a7, err_phi, err_psi).  Stage i sits at
    (phi + h*sum_j a_ij*v_j, v_i) with v_1 = psi, and raises ValueError
    where math.sin does, at a stage angle of +-inf."""
    v, a = [psi], [a1]
    for row in DP45_A:  # the last stage sits at (phi5, psi5)
        x = phi + h * weighted_sum(row, v)
        v.append(psi + h * weighted_sum(row, a))
        a.append(_accel(x, lam, gamma))
    return x, v[-1], a[-1], h * weighted_sum(DP45_E, v), h * weighted_sum(DP45_E, a)
