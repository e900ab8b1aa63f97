"""Lifted angles by path continuation: the independent oracle for the
closed-form lifts of `minkowski`, `wigner` and `cones.act`.

The library never calls this module; suites and tests compare against it.
A covering element is reached from the identity along its canonical path
t -> R(t theta) exp(t log B), t in [0, 1], with B its boost factor, and raw
angles in (-pi, pi] are continued along that path step by step.
"""

from __future__ import annotations

import math

import numpy as np

from .minkowski import (
    ETA,
    TWO_PI,
    CoveringLorentz,
    LiftError,
    LorentzMatrix,
    _polar_angle_raw,
    rotation_matrix,
)
from .tolerances import CONTINUATION_RTOL
from .wigner import standard_boost


def _sym_boost_part(L: LorentzMatrix) -> np.ndarray:
    """The symmetric positive factor B with L = R(theta(L)) @ B."""
    theta = _polar_angle_raw(L.m)
    return rotation_matrix(-theta).m @ L.m


def canonical_path(g: CoveringLorentz):
    """Path t -> Lambda(t) from the identity to g.matrix whose polar-angle
    lift runs from 0 to g.angle.

    At t = 1 it returns g.matrix itself: the eigen-reconstruction of a strong
    boost misses it by eps cond(B), and Wigner angles amplify that miss
    (to 3e-9 at rapidity 5).
    """
    w, V = np.linalg.eigh(_sym_boost_part(g.matrix))
    if np.any(w <= 0.0):
        raise ValueError("boost factor is not positive definite")
    log_w = np.log(w)

    def path(t: float) -> np.ndarray:
        if t == 1.0:
            return g.matrix.m
        return rotation_matrix(t * g.angle).m @ (V * np.exp(t * log_w)) @ V.T

    return path


def continue_angles(angles_at, starts, *, initial_steps: int = 16,
                    max_steps: int = 1 << 20) -> np.ndarray:
    """Continue the raw angles ``angles_at(t)``, t in [0, 1], from the lifted
    values ``starts`` at t = 0.

    The step count doubles until every increment is below pi/4 and two
    successive endpoints agree; raises LiftError if they never do.
    """
    start = np.asarray(starts, dtype=float)
    steps, prev = initial_steps, None
    while steps <= max_steps:
        raw = np.array([angles_at(t) for t in np.linspace(0.0, 1.0, steps + 1)])
        d = np.remainder(np.diff(raw, axis=0) + math.pi, TWO_PI) - math.pi
        if np.abs(d).max() < math.pi / 4.0:
            end = start + d.sum(axis=0)
            if prev is not None and np.abs(end - prev).max() <= CONTINUATION_RTOL * max(
                    1.0, float(np.abs(end).max())):
                return end
            prev = end
        steps *= 2
    raise LiftError("angle continuation did not stabilise (step-size underflow)")


def compose_angle(g1: CoveringLorentz, g2: CoveringLorentz, **steps) -> float:
    """Lifted polar angle of g1 g2, continued along g1 times the path of g2."""
    path, m1 = canonical_path(g2), g1.matrix.m
    return float(continue_angles(lambda t: [_polar_angle_raw(m1 @ path(t))],
                                 [g1.angle], **steps)[0])


def ray_angles(g: CoveringLorentz, rays: np.ndarray, starts, **steps) -> np.ndarray:
    """Lifted spatial angles of the rays (rows of ``rays``) moved along the
    path of g, starting from their lifted angles ``starts``."""
    path, rays = canonical_path(g), np.asarray(rays, dtype=float)

    def angles(t):
        v = rays @ path(t).T
        return np.arctan2(v[:, 2], v[:, 1])

    return continue_angles(angles, starts, **steps)


def wigner_angles(g: CoveringLorentz, pts: np.ndarray, **steps) -> np.ndarray:
    """Wigner rotations Omega(g, p) of B_{L(t)p}^-1 L(t) B_p continued from 0
    along the path of g, for an (n, 3) array of shell points."""
    path, bp = canonical_path(g), standard_boost(pts)

    def angles(t):
        lam = path(t)
        w = ETA @ standard_boost(pts @ lam.T) @ ETA @ lam @ bp
        return np.arctan2(w[:, 2, 1], w[:, 1, 1])

    return continue_angles(angles, np.zeros(len(pts)), **steps)
