"""The tests' references: scalar steps for the Dormand-Prince 8(5,3) pair
that the integrator writes once, as _dp_trial, which both its scalar loop
(_advance) and its numpy lanes call; and a vectorised crossing locator for
its scalar one, _crossing_time.

The tableau is scipy's dop853 one (Prince & Dormand 1981, as Hairer's
dop853 code holds it): A, b and the error weights E5 and E3, each float
held exactly as a fraction.  dop853_step takes a step in the standard form,
with stage velocities; it is independent of the integrator's weights and
agrees with it to rounding.  The integrator takes the same step in Nystrom
form (Hairer, Norsett & Wanner, Solving ODEs I, II.14): as the equation of
motion has no velocity term, stage i's angle is

    phi + h*c_i*psi + h^2 * sum_j ab_ij * a_j,   c = A.1, ab = A^2,

phi8 = phi + h*psi + h^2 * sum_j (b.A)_j * a_j, and err_phi = h^2 *
sum_j (e.A)_j * a_j for e = E5, E3, the psi term dropping out as sum(e) = 0.
NYSTROM derives those weights here in exact arithmetic from scipy's floats;
where the exact tableau has a 0 that its rounded floats miss (sum(e), and
(b.A)_j = b_j*(1 - c_j) for b_4 = b_5 = 0), the weight is 0.  nystrom_step
applies them in the integrator's order, so that it equals the integrator's
step bit for bit: with ka_j = h*a_j, each stage angle is
phi + h*(c_i*psi + ab_i1*ka1 + ab_i2*ka2 + ...), summed left to right with
zero weights skipped, phi8 = phi + h*(psi + sum_j (b.A)_j*ka_j),
psi8 = psi + (sum_j b_j*ka_j), err_phi = h*(sum_j (e.A)_j*ka_j) and
err_psi = sum_j e_j*ka_j.  A subtracted term there is an added negated
weight here, which rounds the same.
"""

from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as dop853

from casimir_pendulum.integrator import _accel

STAGES = dop853.N_STAGES  # 12; stage 13, at the solution, is the next step's first
DOP853_A = tuple(tuple(Fraction(float(x)) for x in row[:i])
                 for i, row in enumerate(dop853.A[:STAGES]))  # row i: a_i1 .. a_i(i-1)
DOP853_B = tuple(Fraction(float(x)) for x in dop853.B)
DOP853_E5 = tuple(Fraction(float(x)) for x in dop853.E5[:STAGES])
DOP853_E3 = tuple(Fraction(float(x)) for x in dop853.E3[:STAGES])
assert dop853.E5[STAGES] == dop853.E3[STAGES] == 0  # no error weight on stage 13


def _nystrom_weights():
    """(c, ab, ba, b, (e5a, e5), (e3a, e3)) of the Nystrom form, exact: for
    stages 2-12, c_i and the row ab_i over a_1..a_12; then phi8's weights
    b.A, psi8's b, and for each error estimate e.A and e."""
    square = [[row[j] if j < len(row) else Fraction(0) for j in range(STAGES)]
              for row in DOP853_A]
    ab = [tuple(sum(square[i][k] * square[k][j] for k in range(STAGES)) for j in range(STAGES))
          for i in range(STAGES)]
    c = [sum(row) for row in DOP853_A]

    def dot_a(v):
        return tuple(sum(v[i] * square[i][j] for i in range(STAGES)) for j in range(STAGES))

    ba = dot_a(DOP853_B)
    # rounding of exact zeros: sum(b) = 1 and (b.A)_j = b_j*(1 - c_j), which is 0 at b_j = 0
    assert abs(sum(DOP853_B) - 1) < 1e-15
    dropped = [j for j in range(STAGES) if DOP853_B[j] == 0 and ba[j] != 0]
    assert dropped == [3, 4] and all(abs(ba[j]) < 1e-16 for j in dropped)
    ba = tuple(Fraction(0) if j in dropped else w for j, w in enumerate(ba))
    for e in (DOP853_E5, DOP853_E3):
        assert abs(sum(e)) < 1e-15  # so that psi drops out of err_phi
    return (c[1:], ab[1:], ba, DOP853_B, (dot_a(DOP853_E5), DOP853_E5),
            (dot_a(DOP853_E3), DOP853_E3))


NYSTROM = _nystrom_weights()


def weighted_sum(weights, values):
    """sum(w * v), left to right, skipping zero weights."""
    return reduce(add, (w * v for w, v in zip(weights, values) if w != 0))


def floats(weights):
    return [float(w) for w in weights]


def dop853_step(phi, psi, a1, h, lam, gamma):
    """One Dormand-Prince 8(5,3) trial step in standard form from (phi, psi)
    with a1 = _accel(phi): (phi8, psi8, a13, e5_phi, e5_psi, e3_phi,
    e3_psi).  Stage i sits at (phi + h*sum_j a_ij*v_j, v_i) with v_1 = psi,
    and raises ValueError where math.sin does, at a stage angle of +-inf."""
    v, a = [psi], [a1]
    for row in DOP853_A[1:]:
        x = phi + h * weighted_sum(floats(row), v)
        v.append(psi + h * weighted_sum(floats(row), a))
        a.append(_accel(x, lam, gamma))
    b = floats(DOP853_B)
    phi8 = phi + h * weighted_sum(b, v)
    errors = [h * weighted_sum(floats(e), col) for e in (DOP853_E5, DOP853_E3) for col in (v, a)]
    return (phi8, psi + h * weighted_sum(b, a), _accel(phi8, lam, gamma), *errors)


def nystrom_step(phi, psi, a1, h, lam, gamma):
    """The same step in Nystrom form and in the integrator's order (see the
    module docstring): (phi8, psi8, a13, e5_phi, e5_psi, e3_phi, e3_psi).
    Raises ValueError where math.sin does, at a stage angle of +-inf."""
    c, ab, ba, b, *errors = NYSTROM
    ka = [h * a1]
    for ci, row in zip(c, ab):
        x = phi + h * weighted_sum(floats((ci,) + row), [psi] + ka)
        ka.append(h * _accel(x, lam, gamma))
    phi8 = phi + h * weighted_sum([1.0] + floats(ba), [psi] + ka)
    out = [phi8, psi + weighted_sum(floats(b), ka), _accel(phi8, lam, gamma)]
    for ea, e in errors:
        out += [h * weighted_sum(floats(ea), ka), weighted_sum(floats(e), ka)]
    return tuple(out)


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
