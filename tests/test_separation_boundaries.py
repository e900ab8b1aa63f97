"""Causal separation at exact arc gaps, refereed by geometry instead of an oracle.

Two regions with a common apex, a cone and a cone or a wedge and a cone, whose
direction arcs are a signed gap delta apart are causally separated iff
delta >= 0: disjoint arcs put one region in the causal complement of the
other, overlapping arcs share directions.  Both regions are then moved by one
covering element, which cannot change the verdict.  For delta > 0 each apex is
also shifted inward along its region's axis; the shifted region lies inside
the original one, so it stays separated, and the apex difference enters the
certificate.  The dense-sampling oracle cannot referee these pairs: it misses
same-apex overlaps as wide as 1e-3.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from plektonlab.cones import SeparationError, act, causally_separated, cone_path, wedge_path
from plektonlab.minkowski import (
    MVec3,
    cover_boost1,
    cover_compose,
    cover_rotation,
    cover_translation,
)

# |delta| at or above this must give the exact verdict without raising
DECISIVE_GAP = 1e-6

boundary = settings(max_examples=400, deadline=None, derandomize=True, database=None)

gaps = st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                 st.floats(-9.0, -0.5), st.sampled_from((-1.0, 1.0)))
angles = st.floats(-math.pi, math.pi)
halves = st.floats(0.05, 1.2)
sheets = st.integers(-2, 2)
shifts = st.floats(0.0, 1.0)


@st.composite
def movers(draw):
    """A covering Poincare element with rapidity at most 1.2."""
    direction = draw(angles)
    lorentz = cover_compose(
        cover_rotation(draw(st.floats(-7.0, 7.0)) + direction),
        cover_compose(cover_boost1(draw(st.floats(-1.2, 1.2))), cover_rotation(-direction)))
    shift = MVec3(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
    return cover_compose(cover_translation(shift), lorentz)


def inward(path, s):
    """The path with its apex moved by s along its spatial axis."""
    mid = 0.5 * (path.arc.alpha_minus + path.arc.alpha_plus)
    return path.translated(MVec3(0.0, s * math.cos(mid), s * math.sin(mid)))


def assert_verdict(c1, c2, delta):
    if abs(delta) >= DECISIVE_GAP:
        assert causally_separated(c1, c2) == (delta > 0.0)
        return
    try:
        assert causally_separated(c1, c2) == (delta > 0.0)
    except SeparationError:
        pass


@boundary
@given(st.booleans(), angles, halves, halves, gaps, sheets, sheets, shifts, shifts,
       movers(), st.booleans())
def test_separation_at_signed_arc_gap(wedge, center, half1, half2, delta, sheet1, sheet2,
                                      shift1, shift2, g, swap):
    apex = MVec3(0.0, 0.0, 0.0)
    if wedge:
        first = wedge_path(apex, center, sheet1)
        upper = center + math.pi / 2.0
    else:
        first = cone_path(apex, center, half1, sheet1)
        upper = center + half1
    second = cone_path(apex, upper + delta + half2, half2, sheet2)
    if delta > 0.0:
        first, second = inward(first, shift1), inward(second, shift2)
    first, second = act(g, first), act(g, second)
    if swap:
        first, second = second, first
    assert_verdict(first, second, delta)
