"""Public functions decide causal separation; suites reuse their generators'.

An overlapping pair: a cone and its copy moved one unit of time into its own
future.  Each public entry point must refuse it, and the braid, twist and cpt
suites must run without deciding a pair their generators certified again.
"""

import math

import pytest

from plektonlab import cones
from plektonlab.cones import SeparationError, causally_separated, cone_path
from plektonlab.fields import (
    FieldSymbol,
    FieldWord,
    ObservableWord,
    exchange,
    normal_form,
    twist_conjugate,
    vacuum_swap,
)
from plektonlab.minkowski import MVec3
from plektonlab.report import PASS
from plektonlab.suites import run_suite
from tests.test_cones import translated

A = ObservableWord.symbol("A")
B = ObservableWord.symbol("B")


def overlapping_pair():
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    later = translated(c, MVec3(2.0, 0, 0))
    assert not causally_separated(c, later)
    return later, c


def test_exchange_refuses_an_overlapping_pair(z3):
    later, c = overlapping_pair()
    w = FieldWord.of(FieldSymbol(1, A, later), FieldSymbol(1, B, c))
    with pytest.raises(ValueError, match="causally separated"):
        exchange(w, 0, z3)


def test_normal_form_refuses_a_word_whose_only_inversion_overlaps(z3):
    later, c = overlapping_pair()
    far = cone_path(MVec3(0, -50.0, 0), math.pi, 0.3)
    assert causally_separated(far, c) and causally_separated(far, later)
    w = FieldWord.of(FieldSymbol(1, A, far), FieldSymbol(1, B, later), FieldSymbol(2, A, c))
    assert normal_form(w, (0, 1, 2), z3) == w
    with pytest.raises(ValueError, match="causally separated"):
        normal_form(w, (0, 2, 1), z3)


def test_twist_and_vacuum_swap_refuse_an_overlapping_pair(z3):
    later, c = overlapping_pair()
    with pytest.raises(ValueError, match="causally separated"):
        twist_conjugate(FieldSymbol(1, A, c), (later, c), z3)
    with pytest.raises(SeparationError):
        vacuum_swap((FieldSymbol(1, A, later), FieldSymbol(1, B, c)), z3)


@pytest.mark.parametrize("suite, decided", [("braid", []), ("twist", [1] * 4), ("cpt", []),
                                             ("geometry", [150, 400])],
                         ids=["braid-0", "twist-4", "cpt-0", "geometry-150-400"])
def test_suite_decides_no_pair_twice(z3, monkeypatch, suite, decided):
    # every pair a check draws was certified by its generator, and its
    # transported, reflected, rebased or rotated images are not decided again;
    # what is left: twist's public calls, one pair each (relative_winding on
    # the two reference wedge pairs, and the negative control's
    # twist_conjugate and relative_winding), and geometry's stacks of oracle
    # pairs and of precedes triples in four orders
    real, calls = cones._separated_many, []

    def separated_many(pairs):
        calls.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(cones, "_separated_many", separated_many)
    rep = run_suite(suite, z3, None, 7)
    assert rep.checks and all(c.status == PASS for c in rep.checks), \
        [c.to_dict() for c in rep.checks if c.status != PASS]
    assert calls == decided
