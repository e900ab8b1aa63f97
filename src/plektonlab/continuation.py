"""Lifted angles by path continuation: the independent oracle for the
closed-form lifts of `minkowski`, `wigner` and `cones.act`.

The library never calls this module; suites and tests compare against it.
A covering element is reached from the identity along its canonical path
t -> R(t theta) exp(t log B), t in [0, 1], with B its boost factor, and raw
angles in (-pi, pi] are continued along that path step by step.  Paths and
raw angles are evaluated on whole arrays of t: ``angles_at(ts)`` returns a
(T, n) array for T values of t, each row bitwise what one value alone gives.
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

# values of t evaluated in one stack at most: memory stays bounded at any step count
_CHUNK = 1024
# the most steps a continuation tries before it raises LiftError
_MAX_STEPS = 1 << 20


def _sym_boost_part(L: LorentzMatrix) -> np.ndarray:
    """The symmetric positive factor B with L = R(theta(L)) @ B."""
    theta = _polar_angle_raw(L.m)
    return rotation_matrix(-theta).m @ L.m


def canonical_path(g: CoveringLorentz):
    """Path ts -> Lambda(ts), a (T, 3, 3) stack for an array of T values of t,
    from the identity to g.matrix, whose polar-angle lift runs from 0 to
    g.angle.

    At t = 1 it returns g.matrix itself: the eigen-reconstruction of a strong
    boost misses it by eps cond(B), and Wigner angles amplify that miss
    (to 3e-9 at rapidity 5).
    """
    w, V = np.linalg.eigh(_sym_boost_part(g.matrix))
    if np.any(w <= 0.0):
        raise ValueError("boost factor is not positive definite")
    log_w = np.log(w)

    def path(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        # R(t theta) with math's trig per t, as rotation_matrix builds it
        trig = np.array([(math.cos(a), math.sin(a)) for a in (ts * g.angle).tolist()])
        rot = np.zeros((len(ts), 3, 3))
        rot[:, 0, 0] = 1.0
        rot[:, 1, 1] = rot[:, 2, 2] = trig[:, 0]
        rot[:, 2, 1], rot[:, 1, 2] = trig[:, 1], -trig[:, 1]
        # (R (V e)) V^T, as R @ (V * e) @ V.T associates; R ((V e) V^T) is an ulp off
        out = (rot @ (V * np.exp(ts[:, None] * log_w)[:, None, :])) @ V.T
        out[ts == 1.0] = g.matrix.m
        return out

    return path


def _evaluated(angles_at, ts: np.ndarray) -> np.ndarray:
    """``angles_at(ts)`` as a (T, n) float array, in stacks of at most _CHUNK."""
    return np.concatenate([np.asarray(angles_at(ts[i:i + _CHUNK]), dtype=float)
                           for i in range(0, len(ts), _CHUNK)])


def continue_angles(angles_at, starts, *, initial_steps: int = 16) -> np.ndarray:
    """Continue the raw angles ``angles_at(ts)``, t in [0, 1], from the lifted
    values ``starts`` at t = 0.

    The step count doubles until every increment is below pi/4 and two
    successive endpoints agree; raises LiftError if they never do.  A
    doubling evaluates only the new midpoints: linspace(0, 1, 2 s + 1) holds
    linspace(0, 1, s + 1) bitwise at its even points.
    """
    start = np.asarray(starts, dtype=float)
    steps, prev, raw = initial_steps, None, None
    while steps <= _MAX_STEPS:
        ts = np.linspace(0.0, 1.0, steps + 1)
        if raw is None:
            raw = _evaluated(angles_at, ts)
        else:
            finer = np.empty((steps + 1, *raw.shape[1:]))
            finer[::2], finer[1::2] = raw, _evaluated(angles_at, ts[1::2])
            raw = finer
        d = np.remainder(np.diff(raw, axis=0) + math.pi, TWO_PI) - math.pi
        if np.abs(d).max() < math.pi / 4.0:
            end = start + d.sum(axis=0)
            if prev is not None and np.abs(end - prev).max() <= CONTINUATION_RTOL * max(
                    1.0, float(np.abs(end).max())):
                return end
            prev = end
        steps *= 2
    raise LiftError("angle continuation did not stabilise (step-size underflow)")


def ray_angles(g: CoveringLorentz, rays: np.ndarray, starts, **steps) -> np.ndarray:
    """Lifted spatial angles of the rays (rows of ``rays``) moved along the
    path of g, starting from their lifted angles ``starts``."""
    path, rays = canonical_path(g), np.asarray(rays, dtype=float)

    def angles(ts):
        v = rays @ path(ts).transpose(0, 2, 1)
        return np.arctan2(v[..., 2], v[..., 1])

    return continue_angles(angles, starts, **steps)


def wigner_angles(g: CoveringLorentz, pts: np.ndarray, **steps) -> np.ndarray:
    """Wigner rotations Omega(g, p) of B_{L(t)p}^-1 L(t) B_p continued from 0
    along the path of g, for an (n, 3) array of shell points."""
    path, bp = canonical_path(g), standard_boost(pts)

    def angles(ts):
        lam = path(ts)
        w = ETA @ standard_boost(pts @ lam.transpose(0, 2, 1)) @ ETA @ lam[:, None] @ bp
        return np.arctan2(w[..., 2, 1], w[..., 1, 1])

    return continue_angles(angles, np.zeros(len(pts)), **steps)
