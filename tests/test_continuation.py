"""The stacked continuation oracle against a frozen per-t copy of the oracle
it replaced: paths and raw angles are evaluated on whole arrays of t, and
every lifted angle must agree bit for bit."""

import math
import re

import numpy as np
import pytest

from plektonlab import continuation
from plektonlab.minkowski import (
    ETA,
    TWO_PI,
    LorentzMatrix,
    _checked_lorentz,
    _polar_angle_raw,
    cover_boost1,
    cover_compose,
    cover_rotation,
    rotation_matrix,
)
from plektonlab.tolerances import CONTINUATION_RTOL
from plektonlab.wigner import sample_shell, standard_boost


def _frozen_path(g):
    """`continuation.canonical_path` as it was: one matrix per value of t."""
    w, V = np.linalg.eigh(continuation._sym_boost_part(g.matrix))
    log_w = np.log(w)

    def path(t):
        if t == 1.0:
            return g.matrix.m
        return rotation_matrix(t * g.angle).m @ (V * np.exp(t * log_w)) @ V.T

    return path


def _frozen_continue(angles_at, starts, *, initial_steps=16, max_steps=1 << 20):
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
    raise AssertionError("the frozen oracle did not stabilise")


def _frozen_compose(g1, g2, **steps):
    path, m1 = _frozen_path(g2), g1.matrix.m
    return float(_frozen_continue(lambda t: [_polar_angle_raw(m1 @ path(t))],
                                  [g1.angle], **steps)[0])


def _frozen_rays(g, rays, starts, **steps):
    path = _frozen_path(g)

    def angles(t):
        v = rays @ path(t).T
        return np.arctan2(v[:, 2], v[:, 1])

    return _frozen_continue(angles, starts, **steps)


def _frozen_wigner(g, pts, **steps):
    path, bp = _frozen_path(g), standard_boost(pts)

    def angles(t):
        lam = path(t)
        w = ETA @ standard_boost(pts @ lam.T) @ ETA @ lam @ bp
        return np.arctan2(w[:, 2, 1], w[:, 1, 1])

    return _frozen_continue(angles, np.zeros(len(pts)), **steps)


def _elements(rng, count):
    """Covering elements with rapidity up to 1.2, every fourth up to 4."""
    for k in range(count):
        rapidity = 4.0 if k % 4 == 0 else 1.2
        yield cover_compose(cover_rotation(rng.uniform(-7.0, 7.0)), cover_compose(
            cover_boost1(rng.uniform(-rapidity, rapidity)), cover_rotation(rng.uniform(-3.0, 3.0))))


def test_paths_match_the_frozen_per_t_path():
    rng = np.random.default_rng(61)
    ts = np.concatenate([np.linspace(0.0, 1.0, 33), rng.random(16)])
    for g in _elements(rng, 40):
        stacked, frozen = continuation.canonical_path(g)(ts), _frozen_path(g)
        assert stacked.tobytes() == np.array([frozen(t) for t in ts]).tobytes()


def test_oracles_match_the_frozen_per_t_oracle():
    # bitwise, on mild and strong boosts, at the default and at the wigner
    # suite's step counts
    rng = np.random.default_rng(67)
    for g1, g2 in zip(_elements(rng, 24), _elements(rng, 24)):
        pts = sample_shell(1.0, rng, 12)
        rays = np.zeros((2, 3))
        rays[:, 1:] = rng.normal(0.0, 1.0, (2, 2))
        starts = np.arctan2(rays[:, 2], rays[:, 1]) + TWO_PI * rng.integers(-3, 4, 2)
        assert continuation.compose_angle(g1, g2) == _frozen_compose(g1, g2)
        assert (continuation.ray_angles(g1, rays, starts).tobytes()
                == _frozen_rays(g1, rays, starts).tobytes())
        for steps in ({}, {"initial_steps": 64}, {"initial_steps": 128}):
            assert (continuation.wigner_angles(g2, pts, **steps).tobytes()
                    == _frozen_wigner(g2, pts, **steps).tobytes())


def test_doublings_evaluate_only_new_midpoints():
    seen = []

    def angles_at(ts):
        seen.append(ts.copy())
        return np.stack([np.sin(3.0 * ts), 5.0 * ts], axis=1)

    end = continuation.continue_angles(angles_at, [0.0, 0.0], initial_steps=4)
    everything = np.concatenate(seen)
    assert len(everything) == len(np.unique(everything))  # no value of t twice
    assert np.sort(everything).tobytes() == np.linspace(0.0, 1.0, len(everything)).tobytes()
    assert end.tolist() == pytest.approx([math.sin(3.0), 5.0], abs=1e-12)


def test_stacked_lorentz_checks_match_the_constructor():
    # each matrix passes or fails as LorentzMatrix decides, with its message
    rng = np.random.default_rng(71)
    good = np.array([rotation_matrix(a).m for a in rng.uniform(-7.0, 7.0, 5)])
    assert _checked_lorentz(good) is good
    broken = [np.diag([1.0, 1.0, 1.0 + 1e-6]), np.diag([1.0, -1.0, 1.0]),
              np.diag([-1.0, -1.0, 1.0]), np.full((3, 3), np.nan),
              np.diag([1e200, 1.0, 1.0])]
    for m in broken:
        with pytest.raises(ValueError) as single:
            LorentzMatrix(m)
        stack = np.concatenate([good[:2], m[None], good[2:]])
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            _checked_lorentz(stack)
