"""An 80-digit SU(1,1) reference for the covering group, in mpmath.

An element is (theta, alpha, beta): the lifted angle and the SU(1,1) matrix
[[alpha, beta], [conj beta, conj alpha]], alpha = e^{i theta/2} cosh(chi/2),
beta = e^{i theta/2} sinh(chi/2) e^{i phi}.  Products follow Bargmann's law,
theta_12 = theta_1 + theta_2 + 2 arg(1 + beta_1 conj(beta_2) / (alpha_1 alpha_2)),
computed on the SU(1,1) matrices themselves; nothing here calls plektonlab.
"""

import math

import mpmath
import numpy as np

mp = mpmath.mp.clone()
mp.dps = 80


def chart(theta, chi, phi):
    """The element with chart coordinates (theta, chi, phi)."""
    theta, chi, phi = mp.mpf(theta), mp.mpf(chi), mp.mpf(phi)
    half = mp.expj(theta / 2)
    return theta, half * mp.cosh(chi / 2), half * mp.sinh(chi / 2) * mp.expj(phi)


def rotation(angle):
    return chart(angle, 0, 0)


def boost1(t):
    """b1(t): a boost along +x1 for t >= 0, along -x1 for t < 0."""
    return chart(0, abs(t), 0 if t >= 0 else mp.pi)


def compose(*elements):
    theta, alpha, beta = elements[0]
    for theta2, alpha2, beta2 in elements[1:]:
        z = beta * mp.conj(beta2) / (alpha * alpha2)
        theta = theta + theta2 + 2 * mp.arg(1 + z)
        alpha, beta = (alpha * alpha2 + beta * mp.conj(beta2),
                       alpha * beta2 + beta * mp.conj(alpha2))
    return theta, alpha, beta


def inverse(g):
    theta, alpha, beta = g
    return -theta, mp.conj(alpha), -beta


def coordinates(g):
    """(theta, chi, phi) as floats, phi in (-pi, pi]."""
    theta, _, beta = g
    phi = mp.arg(beta * mp.expj(-theta / 2))
    return float(theta), float(2 * mp.asinh(abs(beta))), float(phi)


def boost_to(p):
    """The standard boost B_p at lift 0: the pure boost carrying (m, 0, 0),
    m = sqrt(p.p), to the momentum p = (p0, p1, p2)."""
    p0, p1, p2 = (mp.mpf(x) for x in p)
    return chart(0, mp.asinh(mp.hypot(p1, p2) / mp.sqrt(p0**2 - p1**2 - p2**2)), mp.atan2(p2, p1))


def wigner(g, momenta):
    """The Wigner rotations at the given momenta, from their definition: the
    lifts of B_{Lp}^-1 g B_p, with L p formed at 80 digits."""
    lorentz, out = _matrix(g), []
    for p in momenta:
        q = lorentz * mp.matrix([mp.mpf(x) for x in p])
        out.append(compose(inverse(boost_to([q[0], q[1], q[2]])), g, boost_to(p))[0])
    return out


def _matrix(g):
    theta, _, beta = g
    chi, phi = 2 * mp.asinh(abs(beta)), mp.arg(beta * mp.expj(-theta / 2))
    ch, sh, k = mp.cosh(chi), mp.sinh(chi), mp.cosh(chi) - 1
    u, v = mp.cos(phi), mp.sin(phi)
    b = mp.matrix([[ch, sh * u, sh * v], [sh * u, 1 + k * u * u, k * u * v],
                   [sh * v, k * u * v, 1 + k * v * v]])
    c, s = mp.cos(theta), mp.sin(theta)
    r = mp.matrix([[1, 0, 0], [0, c, -s], [0, s, c]])
    return r * b


def matrix(g):
    """R(theta) B(chi, phi), rounded once from 80 digits."""
    return np.array(_matrix(g).tolist(), dtype=float)


def arc_end(g, angle) -> float:
    """The lifted angle to which g moves a space-like ray at lifted angle
    `angle`: theta + angle plus the turn of the ray under the boost
    B(chi, phi).  The boost stretches the ray's component along (cos phi,
    sin phi) by cosh chi and keeps the other, so the turn lies in
    (-pi/2, pi/2) and is the principal angle from the ray to its image."""
    theta, _, beta = g
    chi, phi = 2 * mp.asinh(abs(beta)), mp.arg(beta * mp.expj(-theta / 2))
    angle = mp.mpf(angle)
    u, n = (mp.cos(angle), mp.sin(angle)), (mp.cos(phi), mp.sin(phi))
    stretch = (mp.cosh(chi) - 1) * (u[0] * n[0] + u[1] * n[1])
    image = (u[0] + stretch * n[0], u[1] + stretch * n[1])
    turn = mp.atan2(u[0] * image[1] - u[1] * image[0], u[0] * image[0] + u[1] * image[1])
    return float(angle + theta + turn)


def direction_gap(phi1: float, phi2: float) -> float:
    """|phi1 - phi2| mod 2 pi, in [0, pi]."""
    return abs(math.remainder(phi1 - phi2, 2.0 * math.pi))


def chart_errors(g, ref) -> tuple[float, float, float]:
    """Errors of a plektonlab element g in lift, rapidity and direction
    against the reference element ref; the direction error is weighted by
    min(1, sinh chi), since a weak boost's direction is ill-conditioned and
    moves its matrix only by sinh chi times the error."""
    theta, chi, phi = coordinates(ref)
    return (abs(g.angle - theta), abs(g.rapidity - chi),
            min(1.0, math.sinh(chi)) * direction_gap(g.direction, phi))
