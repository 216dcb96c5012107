"""The tests' references: scalar steps for the Dormand-Prince pair that the
integrator writes once, as _dp_trial, which both its scalar loop (_advance)
and its numpy lanes call; and a vectorised crossing locator for its scalar
one, _crossing_time.

The tableau is held exactly, as fractions.  dp45_step takes a step in the
standard form, with stage velocities; it is independent of the integrator's
weights and agrees with it to rounding.  The integrator takes the same step
in Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I, II.14): as the
equation of motion has no velocity term, stage i's angle is

    phi + h*c_i*psi + h^2 * sum_j ab_ij * a_j,   ab = A^2,

phi5 is the angle of the last stage (whose ab row is b.A), and
err_phi = h^2 * sum_j eb_j * a_j with eb = e.A, the psi term dropping out as
sum(e) = 0.  NYSTROM derives those weights here in exact arithmetic, and
nystrom_step applies them in the integrator's order, so that it equals the
integrator's step bit for bit: with ka_j = h*a_j, each stage angle is
phi + h*(c_i*psi + ab_i2*ka2 + ab_i1*ka1 + ab_i3*ka3 + ...), summed left to
right with zero weights skipped, psi5 = psi + (sum_j b_j*ka_j),
err_phi = h*(sum_j eb_j*ka_j) and err_psi = sum_j e_j*ka_j.  A subtracted
term there is an added negated weight here, which rounds the same.
"""

from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

from casimir_pendulum.integrator import _accel

# Dormand & Prince 1980: the stage rows of A, the last being the 5th-order
# weights b (first same as last), and the error weights e = b5 - b4.
DP45_A = tuple(tuple(map(Fraction, row)) for row in (
    ("1/5",),
    ("3/40", "9/40"),
    ("44/45", "-56/15", "32/9"),
    ("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
    ("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
    ("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84"),
))
DP45_E = tuple(map(Fraction, ("71/57600", "0", "-71/16695", "71/1920", "-17253/339200",
                              "22/525", "-1/40")))


def _nystrom_weights():
    """(c, ab, b, eb, e) of the Nystrom form, exact: for stages 2-7, c_i and
    the row ab_i over a_1..a_7; then b and eb = e.A over a_1..a_7, and e."""
    rows = [()] + list(DP45_A)  # stage 1 has no terms
    square = [[row[j] if j < len(row) else Fraction(0) for j in range(7)] for row in rows]
    ab = [tuple(sum(square[i][k] * square[k][j] for k in range(7)) for j in range(7))
          for i in range(7)]
    eb = tuple(sum(DP45_E[i] * square[i][j] for i in range(7)) for j in range(7))
    assert sum(DP45_E) == 0  # so that psi drops out of err_phi
    return (tuple(sum(row) for row in rows[1:]), ab[1:], square[6], eb, DP45_E)


NYSTROM = _nystrom_weights()


def weighted_sum(weights, values):
    """sum(w * v), left to right, skipping zero weights."""
    return reduce(add, (w * v for w, v in zip(weights, values) if w != 0))


def floats(weights):
    return [float(w) for w in weights]


def dp45_step(phi, psi, a1, h, lam, gamma):
    """One Dormand-Prince trial step in standard form from (phi, psi) with
    a1 = _accel(phi): (phi5, psi5, a7, err_phi, err_psi).  Stage i sits at
    (phi + h*sum_j a_ij*v_j, v_i) with v_1 = psi, and raises ValueError
    where math.sin does, at a stage angle of +-inf."""
    v, a = [psi], [a1]
    for row in DP45_A:  # the last stage sits at (phi5, psi5)
        x = phi + h * weighted_sum(floats(row), v)
        v.append(psi + h * weighted_sum(floats(row), a))
        a.append(_accel(x, lam, gamma))
    e = floats(DP45_E)
    return x, v[-1], a[-1], h * weighted_sum(e, v), h * weighted_sum(e, a)


def nystrom_step(phi, psi, a1, h, lam, gamma):
    """The same step in Nystrom form and in the integrator's order (see the
    module docstring): (phi5, psi5, a7, err_phi, err_psi).  Raises
    ValueError where math.sin does, at a stage angle of +-inf."""
    c, ab, b, eb, e = NYSTROM
    ka = [h * a1]
    for ci, row in zip(c, ab):  # the last stage sits at phi5
        x = phi + h * weighted_sum(floats((ci,) + row[1:2] + row[:1] + row[2:]),
                                   [psi] + ka[1:2] + ka[:1] + ka[2:])
        a = _accel(x, lam, gamma)
        ka.append(h * a)
    return (x, psi + weighted_sum(floats(b), ka), a,
            h * weighted_sum(floats(eb), ka), weighted_sum(floats(e), ka))


def crossing_times(t0, t1, p0, p1, v0, v1):
    """Time of each descending zero crossing from the numpy columns of its
    bracket (t0, t1, p0, p1, v0, v1): _crossing_time on every entry at once,
    with the same operations in the same order, numpy's inf and NaN standing
    where a Newton step divides by zero."""
    h, dp = t1 - t0, p0 - p1
    m0, m1 = h * v0, h * v1  # slopes per bracket length
    c2, c3 = -3.0 * dp - 2.0 * m0 - m1, 2.0 * dp + m0 + m1  # p0 + m0*s + c2*s^2 + c3*s^3
    s = p0 / dp
    with np.errstate(all="ignore"):
        for _ in range(3):
            s = s - (p0 + s * (m0 + s * (c2 + s * c3))) / (m0 + s * (2.0 * c2 + s * (3.0 * c3)))
    hermite = (s >= 0.0) & (s <= 1.0) & ((v0 < 0.0) | (v1 < 0.0))
    return np.where(hermite, t0 + s * h, t0 + p0 * h / dp)
