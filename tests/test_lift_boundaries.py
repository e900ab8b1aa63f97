"""Boundary regimes of the closed-form lifts, each refereed by the path
continuation oracle: rapidities up to 5, sheets far from 0 (lifted angles up
to 40 pi) and boosts from 1e-9 to 1e-6 around the polar-angle branch switch.
Products of near-cancelling strong boosts, which the oracle cannot read off a
float matrix, are refereed by the group law instead.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plektonlab.cones import DEFAULT_FRAME, ReferenceFrame, act, cone_path, rebase, wedge_path
from plektonlab.continuation import ray_angles, wigner_angles
from plektonlab.minkowski import (
    LIFT_TOL,
    MVec3,
    cover_boost1,
    cover_compose,
    cover_inverse,
    cover_rotation,
)
from plektonlab.wigner import sample_shell, wigner_rotation
from tests.test_continuation import compose_angle

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

strong = st.floats(-5.0, 5.0)
tiny = st.builds(lambda t, sign: sign * t, st.floats(1e-9, 1e-6), st.sampled_from((-1.0, 1.0)))
far_angles = st.floats(-40.0 * math.pi, 40.0 * math.pi)
directions = st.floats(-math.pi, math.pi)


def element(rapidity, angle, direction):
    """r(angle + direction) b1(rapidity) r(-direction): lifted angle `angle`."""
    return cover_compose(cover_rotation(angle + direction),
                         cover_compose(cover_boost1(rapidity), cover_rotation(-direction)))


strong_elements = st.builds(element, strong, far_angles, directions)
tiny_elements = st.builds(element, tiny, far_angles, directions)
elements = st.one_of(strong_elements, tiny_elements)

canonical_paths = st.builds(
    lambda wedge, apex, center, half, sheet: (
        wedge_path(MVec3(*apex), center, sheet) if wedge
        else cone_path(MVec3(*apex), center, half, sheet)),
    st.booleans(), st.tuples(*[st.floats(-1.0, 1.0)] * 3), directions,
    st.floats(0.05, 1.2), st.integers(-3, 3))
# rebased arcs no longer sit at the spatial angle of their corners mod 2 pi
rebased_paths = st.builds(
    lambda path, offset: rebase(path, DEFAULT_FRAME,
                                ReferenceFrame(DEFAULT_FRAME.reference_angle + offset)),
    canonical_paths, st.floats(-10.0, 10.0))
paths = st.one_of(canonical_paths, rebased_paths)

boundary = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@boundary
@given(elements, elements)
def test_compose_matches_continuation(g1, g2):
    prod = cover_compose(g1, g2)
    # the oracle reads the polar angle off the float product, whose entries
    # carry eps |m1| |m2|; above the branch switch that error is divided by
    # the product's boost r, so near-cancelling strong boosts cannot be refereed
    m = prod.matrix.m
    r = math.hypot(m[0, 1], m[0, 2])
    size = float(np.abs(g1.matrix.m).max() * np.abs(g2.matrix.m).max())
    assume(r <= 1e-6 or EPS * size / r <= LIFT_TOL / 4.0)
    assert abs(prod.angle - compose_angle(g1, g2)) <= LIFT_TOL


@boundary
@given(strong_elements, st.one_of(strong_elements, tiny_elements))
def test_compose_near_cancelling_strong_boosts(g1, h):
    # g2 = g1^-1 h is a strong boost that nearly undoes g1, so
    # 1 + gamma_1 conj(gamma_2) e^{-i theta_2} is close to 0 and the product is h
    g2 = cover_compose(cover_inverse(g1), h)
    assert abs(cover_compose(g1, g2).angle - h.angle) <= LIFT_TOL
    assert abs(cover_compose(cover_compose(g1, g2), cover_inverse(g2)).angle
               - g1.angle) <= LIFT_TOL


@boundary
@given(elements, st.integers(0, 2**16))
def test_wigner_matches_continuation(g, seed):
    pts = sample_shell(1.0, np.random.default_rng(seed), 6)
    assert np.abs(wigner_rotation(g, pts) - wigner_angles(g, pts)).max() <= LIFT_TOL


@boundary
@given(elements, paths)
def test_act_matches_continuation(g, path):
    moved = act(g, path)
    rays = [path.corners[0].as_array(), path.corners[1].as_array()]
    dense = ray_angles(g, rays, [path.arc.alpha_minus, path.arc.alpha_plus])
    assert abs(moved.arc.alpha_minus - dense[0]) <= LIFT_TOL
    assert abs(moved.arc.alpha_plus - dense[1]) <= LIFT_TOL


@boundary
@given(st.integers(-20, 20), paths)
def test_full_rotations_shift_arcs_exactly(turns, path):
    moved = act(cover_rotation(TWO_PI * turns), path)
    assert moved.arc.alpha_minus == path.arc.alpha_minus + TWO_PI * turns
    assert moved.arc.alpha_plus == path.arc.alpha_plus + TWO_PI * turns
