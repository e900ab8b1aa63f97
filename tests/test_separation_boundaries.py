"""Causal separation at exact arc gaps, refereed by geometry and by the primal oracle.

Two regions with a common apex, a cone and a cone or a wedge and a cone, whose
direction arcs are a signed gap delta apart are causally separated iff
delta >= 0: disjoint arcs put one region in the causal complement of the
other, overlapping arcs share directions.  Both regions are then moved by one
covering element, which cannot change the verdict.  For delta > 0 each apex is
also shifted inward along its region's axis; the shifted region lies inside
the original one, so it stays separated, and the apex difference enters the
certificate.  The draw keeps the second cone from lying wholly past the
first, where a negative delta would again mean disjoint arcs.  The primal
oracle `find_causal_pair` gets the same verdict on every decisive gap.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plektonlab.cones import (SeparationError, act, causally_separated, cone_path,
                              find_causal_pair, wedge_path)
from plektonlab.minkowski import (
    CoveringLorentz,
    CoveringPoincare,
    MVec3,
    cover_boost1,
    cover_compose,
    cover_rotation,
)
from tests.test_cones import translated

# |delta| at or above this must give the exact verdict without raising
DECISIVE_GAP = 1e-6

boundary = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def signed(exponents):
    return st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                     exponents, st.sampled_from((-1.0, 1.0)))


gaps = signed(st.floats(-9.0, -0.5))
decisive_gaps = signed(st.floats(math.log10(DECISIVE_GAP), -0.5))
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
    return cover_compose(CoveringPoincare(shift, CoveringLorentz.identity()), lorentz)


def inward(path, s):
    """The path with its apex moved by s along its spatial axis."""
    mid = 0.5 * (path.arc.alpha_minus + path.arc.alpha_plus)
    return translated(path, MVec3(0.0, s * math.cos(mid), s * math.sin(mid)))


def assert_verdict(c1, c2, delta):
    if abs(delta) >= DECISIVE_GAP:
        assert causally_separated(c1, c2) == (delta > 0.0)
        return
    try:
        assert causally_separated(c1, c2) == (delta > 0.0)
    except SeparationError:
        pass


def signed_gap_pair(*args):
    """The two moved regions of the construction, or a rejected draw."""
    pair = gap_regions(*args)
    assume(pair is not None)
    return pair


def gap_regions(wedge, center, half1, half2, delta, sheet1, sheet2, shift1, shift2, g, swap):
    """The two moved regions of the construction, or None where a negative
    delta would leave the second arc wholly past the first's."""
    apex = MVec3(0.0, 0.0, 0.0)
    if wedge:
        first = wedge_path(apex, center, sheet1)
        upper = center + math.pi / 2.0
    else:
        first = cone_path(apex, center, half1, sheet1)
        upper = center + half1
    # a negative delta must leave the arcs overlapping at both ends: below
    # -(width1 + 2 half2) the second arc lies wholly past the first's
    if first.arc.width + 2.0 * half2 + delta < abs(delta):
        return None
    second = cone_path(apex, upper + delta + half2, half2, sheet2)
    if delta > 0.0:
        first, second = inward(first, shift1), inward(second, shift2)
    first, second = act(g, first), act(g, second)
    return (second, first) if swap else (first, second)


@boundary
@given(st.booleans(), angles, halves, halves, gaps, sheets, sheets, shifts, shifts,
       movers(), st.booleans())
def test_separation_at_signed_arc_gap(wedge, center, half1, half2, delta, sheet1, sheet2,
                                      shift1, shift2, g, swap):
    first, second = signed_gap_pair(wedge, center, half1, half2, delta, sheet1, sheet2,
                                    shift1, shift2, g, swap)
    assert_verdict(first, second, delta)


@boundary
@given(st.booleans(), angles, halves, halves, decisive_gaps, sheets, sheets, shifts, shifts,
       movers(), st.booleans())
def test_primal_oracle_at_signed_arc_gap(wedge, center, half1, half2, delta, sheet1, sheet2,
                                         shift1, shift2, g, swap):
    first, second = signed_gap_pair(wedge, center, half1, half2, delta, sheet1, sheet2,
                                    shift1, shift2, g, swap)
    assert (find_causal_pair(first, second) is None) == (delta > 0.0)
