import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plektonlab import cones
from plektonlab.cones import (ReferenceFrame, SeparationError, causally_separated, cone_path,
                              reflect_path, relative_winding, standard_wedge_path)
from plektonlab.fields import (
    FieldSymbol,
    FieldWord,
    GradedOperator,
    ObservableAtom,
    ObservableWord,
    StateVector,
    adjoint,
    angular_order,
    cpt_conjugate,
    cpt_conjugate_graded,
    exchange,
    gauge_operator,
    graded_compose,
    graded_form,
    load_word,
    multiply,
    normal_form,
    tomita_S,
    twist_conjugate,
    twisted_commutator_defect,
    vacuum_swap,
    vacuum_vector,
)
from plektonlab.minkowski import MVec3, cover_rotation
from plektonlab.scenes import parse_scene
from plektonlab.sectors import ONE, AnyonModel, CyclotomicPhase, r_phase

A = ObservableWord.symbol("A")
B = ObservableWord.symbol("B")


def fan(count, opening=0.15, start=-1.2, step=0.8):
    return [cone_path(MVec3(0, 0, 0), start + step * k, opening) for k in range(count)]


# ---------------------------------------------------------------------------
# observable words
# ---------------------------------------------------------------------------

@given(st.integers(-5, 5), st.integers(-5, 5))
def test_gamma_distributes_and_composes(k, m):
    w = A * B.gamma(1)
    assert w.gamma(k).gamma(m) == w.gamma(k + m)
    assert (A * B).gamma(k) == A.gamma(k) * B.gamma(k)


def test_star_antiautomorphism():
    w = A * B
    assert w.star() == B.star() * A.star()
    assert w.star().star() == w
    # star commutes with the charge automorphism
    assert w.gamma(2).star() == w.star().gamma(2)


def test_reflect_marker_rules():
    w = A.gamma(3)
    r = w.reflect()
    assert r.atoms[0].twist == -3 and r.atoms[0].reflected
    assert r.reflect() == w
    # reflection is product preserving, star still anti
    w2 = A * B
    assert w2.reflect() == A.reflect() * B.reflect()
    assert w2.reflect().star() == w2.star().reflect()


# ---------------------------------------------------------------------------
# multiplication, fusion, adjoint
# ---------------------------------------------------------------------------

# the localisation of a fused symbol whose paths differ: not a ConePath, so
# the symbol is not localised and exchange refuses to move it
DELOCALIZED = "delocalized"


def fuse_adjacent(w: FieldWord, i: int = 0) -> FieldWord:
    """Merge factors i and i+1 into f(c1+c2, g^c2(A1) A2).

    The fused symbol keeps the common path only when both localisations
    coincide; otherwise it is marked delocalized and exchange refuses to
    move it.
    """
    left, right = w.factors[i], w.factors[i + 1]
    obs = left.obs.gamma(right.charge) * right.obs
    if (
        left.is_localized()
        and right.is_localized()
        and left.loc.same_path(right.loc)
    ):
        loc = left.loc
    else:
        loc = DELOCALIZED
    fused = FieldSymbol(left.charge + right.charge, obs, loc)
    return FieldWord(w.coeff, w.factors[:i] + (fused,) + w.factors[i + 2:])


def test_fusion_with_unit():
    loc = fan(1)[0]
    w = FieldWord.of(FieldSymbol(1, A, loc), FieldSymbol(0, ObservableWord.identity(), loc))
    fused = fuse_adjacent(w)
    assert fused.factors == (FieldSymbol(1, A, loc),)


def test_fusion_formula():
    loc = fan(1)[0]
    w = FieldWord.of(FieldSymbol(1, A, loc), FieldSymbol(1, B, loc))
    fused = fuse_adjacent(w)
    sym = fused.factors[0]
    assert sym.charge == 2
    assert sym.obs == A.gamma(1) * B
    assert sym.loc.same_path(loc)


def test_fusion_to_vacuum_charge():
    loc = fan(1)[0]
    w = FieldWord.of(FieldSymbol(3, A, loc), FieldSymbol(-3, B, loc))
    sym = fuse_adjacent(w).factors[0]
    assert sym.charge == 0
    assert sym.obs == A.gamma(-3) * B


def test_fusion_across_paths_delocalizes(z3):
    l1, l2 = fan(2)
    w = FieldWord.of(FieldSymbol(1, A, l1), FieldSymbol(1, B, l2))
    sym = fuse_adjacent(w).factors[0]
    assert sym.loc is DELOCALIZED
    with pytest.raises(ValueError):
        exchange(FieldWord.of(sym, FieldSymbol(1, A, l1)), 0, z3)


def test_adjoint_examples():
    loc = fan(1)[0]
    s = FieldSymbol(2, A, loc)
    adj = adjoint(s)
    assert adj.charge == -2
    assert adj.obs == A.star().gamma(-2)
    assert adj.loc is loc
    assert adjoint(adj) == s
    s0 = FieldSymbol(0, A, loc)
    assert adjoint(s0).obs == A.star()


# ---------------------------------------------------------------------------
# exchange and normal ordering
# ---------------------------------------------------------------------------

def test_fermion_anticommutation(fermion):
    l1, l2 = fan(2)
    w = FieldWord.of(FieldSymbol(1, A, l2), FieldSymbol(1, B, l1))
    assert relative_winding(l2, l1) == 0
    assert exchange(w, 0, fermion).coeff == CyclotomicPhase.from_pair(1, 2)


def test_exchange_involution(z3):
    l1, l2 = fan(2)
    w = FieldWord.of(FieldSymbol(2, A, l2), FieldSymbol(1, B, l1))
    assert exchange(exchange(w, 0, z3), 0, z3) == w


def test_observables_exchange_trivially(z3):
    l1, l2 = fan(2)
    w = FieldWord.of(FieldSymbol(0, A, l2), FieldSymbol(5, B, l1))
    assert exchange(w, 0, z3).coeff == ONE


def test_exchange_coefficient_value(z3):
    l1, l2 = fan(2)
    w = FieldWord.of(FieldSymbol(2, A, l2), FieldSymbol(1, B, l1))
    n = relative_winding(l2, l1)
    assert exchange(w, 0, z3).coeff == r_phase(z3, 1, 2, n)


def _all_reduced_routes(perm):
    if all(perm[i] < perm[i + 1] for i in range(len(perm) - 1)):
        yield ()
        return
    for i in range(len(perm) - 1):
        if perm[i] > perm[i + 1]:
            nxt = list(perm)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            for rest in _all_reduced_routes(tuple(nxt)):
                yield (i,) + rest


def test_confluence_all_routes(z3):
    locs = fan(4, opening=0.12, start=-1.5, step=1.1)
    syms = [FieldSymbol(c, A, loc) for c, loc in zip((1, 2, -1, 3), locs)]
    for perm in itertools.permutations(range(4)):
        word = FieldWord.of(*(syms[i] for i in perm))
        coeffs = set()
        for route in _all_reduced_routes(perm):
            out = word
            for i in route:
                out = exchange(out, i, z3)
            assert [f.charge for f in out.factors] == [1, 2, -1, 3]
            coeffs.add(out.coeff)
        assert len(coeffs) == 1


def test_normal_form(z3):
    locs = fan(3)
    syms = [FieldSymbol(c, A, loc) for c, loc in zip((1, 2, 1), locs)]
    word = FieldWord.of(syms[2], syms[0], syms[1])
    ordered = normal_form(word, angular_order(word), z3)
    assert [f.loc.arc.alpha_minus for f in ordered.factors] == sorted(
        f.loc.arc.alpha_minus for f in word.factors)
    # already ordered words are untouched
    assert normal_form(ordered, (0, 1, 2), z3) == ordered
    # all-observable words reorder with unit coefficient
    obs_word = FieldWord.of(*(FieldSymbol(0, A, loc) for loc in locs))
    assert normal_form(obs_word, (2, 1, 0), z3).coeff == ONE


def test_multiply_concatenates(z3):
    l1, l2 = fan(2)
    w1 = FieldWord.of(FieldSymbol(1, A, l1), coeff=CyclotomicPhase.from_pair(1, 3))
    w2 = FieldWord.of(FieldSymbol(2, B, l2), coeff=CyclotomicPhase.from_pair(1, 3))
    prod = multiply(w1, w2)
    assert prod.coeff == CyclotomicPhase.from_pair(2, 3)
    assert sum(f.charge for f in prod.factors) == 3


# ---------------------------------------------------------------------------
# graded operators
# ---------------------------------------------------------------------------

def test_graded_form_and_compose():
    l1, l2 = fan(2)
    g1 = graded_form(FieldSymbol(1, A, l1))
    g2 = graded_form(FieldSymbol(2, B, l2))
    assert g1.phase_at(5).is_one()
    comp = graded_compose(g1, g2)
    assert comp.shift == 3
    assert comp.obs == A.gamma(2) * B


def test_gauge_covariance():
    loc = fan(1)[0]
    t = Fraction(2, 7)
    f = graded_form(FieldSymbol(3, A, loc))
    conj = graded_compose(graded_compose(gauge_operator(t), f), gauge_operator(-t))
    assert conj.shift == 3
    for q in range(-6, 7):
        assert conj.phase_at(q) == CyclotomicPhase(3 * t)


def _frozen_canonical_poly(a, b, d):
    """The canonical form as it was, through Fraction's own mod 1."""
    a, b, d = Fraction(a) % 1, Fraction(b) % 1, Fraction(d) % 1
    if a >= Fraction(1, 2):
        a -= Fraction(1, 2)
        b = (b - Fraction(1, 2)) % 1
    return a, b, d


# negative, zero, already reduced and large exponents, as Fractions and ints
exponents = st.one_of(
    st.fractions(),
    st.fractions(min_value=0, max_value=Fraction(99, 100)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)),
    st.integers(-10 ** 30, 10 ** 30),
)


@given(exponents, exponents, exponents)
def test_graded_canonical_form_matches_fraction_mod_one(a, b, d):
    g = GradedOperator(0, a, b, d, ObservableWord.identity())
    for got, want in zip((g.a, g.b, g.d), _frozen_canonical_poly(a, b, d)):
        assert type(got) is Fraction and got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_graded_phase_polynomial_equivalence():
    # q^2 + q is even: (a,b) and (a+1/2, b+1/2) give the same phases
    g1 = GradedOperator(0, Fraction(1, 2), Fraction(1, 2), Fraction(0),
                        ObservableWord.identity())
    g2 = GradedOperator(0, Fraction(0), Fraction(0), Fraction(0),
                        ObservableWord.identity())
    assert g1 == g2
    for q in range(-8, 9):
        assert g1.phase_at(q) == g2.phase_at(q)


graded = st.builds(GradedOperator, st.integers(-6, 6), exponents, exponents, exponents,
                   st.sampled_from([A, B, A * B.gamma(1)]))
roots = st.builds(CyclotomicPhase.from_pair, st.integers(-30, 30), st.integers(1, 24))


def _model(root):
    """A Z model whose omega is root^2 and whose chosen square root is root."""
    return AnyonModel(None, root * root, root, (root * root).turns)


@given(st.integers(-6, 6), exponents, exponents, exponents, st.integers(-50, 50))
def test_phase_at_is_the_polynomial_at_q(shift, a, b, d, q):
    g = GradedOperator(shift, a, b, d, A)
    assert g.phase_at(q) == CyclotomicPhase(Fraction(a) * q * q + Fraction(b) * q + Fraction(d))


@given(graded, graded, st.integers(-50, 50))
def test_compose_acts_as_the_operator_product(g1, g2, q):
    g = graded_compose(g1, g2)
    assert g.phase_at(q) == g2.phase_at(q) * g1.phase_at(q + g2.shift)
    assert (g.shift, g.obs) == (g1.shift + g2.shift, g1.obs.gamma(g2.shift) * g2.obs)


# exponent shifts in the ambiguity lattice Z^3 + Z(1/2, 1/2, 0), and outside it
half, third, twelfth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 12)
nudges = st.sampled_from([(0, 0, 0), (half, half, 0), (-half, half, 1), (half, 0, 0),
                          (0, half, 0), (0, 0, third), (twelfth, 0, 0), (half, -half, twelfth)])


@given(st.integers(-6, 6), exponents, exponents, exponents,
       st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)), nudges)
def test_equal_operators_are_those_with_equal_phases_at_three_grades(shift, a, b, d, ints,
                                                                     nudge):
    g1 = GradedOperator(shift, a, b, d, A)
    moved = [x + i + e for x, i, e in zip((a, b, d), ints, nudge)]
    g2 = GradedOperator(shift, *moved, A)
    agree = all(g1.phase_at(q) == g2.phase_at(q) for q in (-1, 0, 1))
    assert (g1 == g2) == agree == (_frozen_canonical_poly(a, b, d)
                                   == _frozen_canonical_poly(*moved))
    if agree:
        assert hash(g1) == hash(g2)
        assert all(g1.phase_at(q) == g2.phase_at(q) for q in range(-9, 10))


@given(roots, st.integers(-6, 6), st.integers(-3, 3), st.booleans())
def test_twist_conjugate_matches_the_fraction_formula(root, c, m, reverse):
    # the formula as it was, in Fraction turns: 0 q^2 + 2 h c k q + h c^2 k
    l1, l2 = fan(2)
    l2 = cones.act(cover_rotation(2.0 * math.pi * m), l2)
    pair = (l1, l2) if reverse else (l2, l1)
    k = 2 * relative_winding(*pair) + 1
    h = root.turns
    g = twist_conjugate(FieldSymbol(c, A, l1), pair, _model(root))
    assert (g.a, g.b, g.d) == _frozen_canonical_poly(0, h * 2 * c * k, h * c * c * k)
    assert (g.shift, g.obs) == (c, A)


@given(roots, st.integers(-6, 6), exponents, exponents, exponents,
       st.sampled_from([math.pi / 2.0, -math.pi / 2.0]))
def test_cpt_conjugate_graded_matches_the_fraction_formula(root, c, a, b, d, mu):
    # the formula as it was: grade flip (-a, b, -d), then the Z* ... Z layer
    frame = ReferenceFrame(mu)
    wedge = standard_wedge_path(frame)
    k = 2 * relative_winding(wedge, reflect_path(wedge, frame)) + 1
    h = root.turns
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    got = cpt_conjugate_graded(GradedOperator(c, a, b, d, A), _model(root), frame)
    assert (got.a, got.b, got.d) == _frozen_canonical_poly(-a, b + h * 2 * c * k,
                                                           -d - h * c * c * k)
    assert (got.shift, got.obs) == (-c, A.reflect())


def test_twist_conjugate_phases(fermion, z3):
    l1, l2 = fan(2)
    pair = (l2, l1)
    n = relative_winding(l2, l1)
    assert n == 0
    # charge zero commutes with the twist
    g0 = twist_conjugate(FieldSymbol(0, A, l1), pair, z3)
    assert g0.is_phase_trivial()
    # grade-q exponent (q c + c^2/2) in units of omega for the fermion root i
    c = 1
    g = twist_conjugate(FieldSymbol(c, A, l1), pair, fermion)
    for q in range(-6, 7):
        expected = CyclotomicPhase(Fraction(1, 2) * (q * c + Fraction(c * c, 2)))
        assert g.phase_at(q) == expected


def test_twisted_commutator(fermion, z3):
    l1, l2 = fan(2)
    f2 = FieldSymbol(1, B, l2)
    f1 = FieldSymbol(2, A, l1)
    assert twisted_commutator_defect(f2, f1, (l2, l1), z3) == (0, 0, 0)
    mismatched = cones.act(cover_rotation(2 * math.pi), l2)
    assert twisted_commutator_defect(f2, f1, (mismatched, l1), z3) != (0, 0, 0)


def test_graded_symbolic_consistency(z3):
    # exchange coefficient = grade-wise ratio of twisted compositions
    l1, l2 = fan(2)
    f2 = FieldSymbol(2, B, l2)
    f1 = FieldSymbol(1, A, l1)
    n = relative_winding(l2, l1)
    w = twist_conjugate(f1, (l2, l1), z3)
    left = graded_compose(graded_form(f2), w)
    right = graded_compose(w, graded_form(f2))
    coeff = exchange(FieldWord.of(f2, f1), 0, z3).coeff
    for q in range(-6, 7):
        assert right.phase_at(q) / left.phase_at(q) == coeff


# ---------------------------------------------------------------------------
# pseudo-Tomita
# ---------------------------------------------------------------------------

def wedge_symbol(charge=1, obs=A):
    loc = cone_path(MVec3(0.0, 0.8, 0.0), 0.1, 0.2)
    return FieldSymbol(charge, obs, loc)


def test_tomita_examples(z3):
    v = vacuum_vector(wedge_symbol(1))
    sv = tomita_S(v, z3)
    assert sv.charge == -1
    assert sv.obs == A.star().gamma(-1)
    assert tomita_S(sv, z3) == v


def test_tomita_observable_shape(z3):
    v = StateVector(0, A * B, wedge_symbol().loc)
    sv = tomita_S(v, z3)
    assert sv.charge == 0
    assert sv.obs == (A * B).star()


def test_tomita_antilinearity(z3):
    v = vacuum_vector(wedge_symbol(), CyclotomicPhase.from_pair(1, 5))
    assert tomita_S(v, z3).coeff == CyclotomicPhase.from_pair(4, 5)


def test_tomita_involution_sweep(z3):
    rng = np.random.default_rng(0)
    for _ in range(50):
        center = rng.uniform(-1.0, 1.0)
        half = rng.uniform(0.05, min(0.4, (math.pi / 2 - abs(center)) * 0.8))
        loc = cone_path(MVec3(0.0, abs(rng.normal(1.0, 0.3)) + 0.5,
                              rng.normal(0.0, 0.2)), center, half)
        v = StateVector(int(rng.integers(-4, 5)), A.gamma(int(rng.integers(-2, 3))),
                        loc, CyclotomicPhase.from_pair(int(rng.integers(0, 9)), 9))
        assert tomita_S(tomita_S(v, z3), z3) == v


def test_tomita_rejects_outside_wedge(z3):
    loc = cone_path(MVec3(0.0, -2.0, 0.0), math.pi, 0.2)
    with pytest.raises(ValueError):
        tomita_S(vacuum_vector(FieldSymbol(1, A, loc)), z3)


# ---------------------------------------------------------------------------
# vacuum overlaps
# ---------------------------------------------------------------------------

def winding_minus_one_pair():
    c1 = cone_path(MVec3(0, 0, 0), 0.0, 0.1)
    c2 = cone_path(MVec3(0, 0, 0), -math.pi, 0.1)
    assert relative_winding(c2, c1) == -1
    return c2, c1


def test_vacuum_swap_phases(boson, fermion):
    c2, c1 = winding_minus_one_pair()
    f2 = FieldSymbol(1, A, c2)
    f1 = FieldSymbol(1, B, c1)
    assert vacuum_swap((f2, f1), boson).coeff == ONE
    out = vacuum_swap((f2, f1), fermion)
    assert out.coeff == CyclotomicPhase.from_pair(1, 2)
    assert out.bra == adjoint(f1) and out.ket == adjoint(f2)
    assert out.bra.loc is c1 and out.ket.loc is c2


def test_vacuum_swap_guards(z3):
    c2, c1 = winding_minus_one_pair()
    f2 = FieldSymbol(1, A, c2)
    f1 = FieldSymbol(2, B, c1)
    with pytest.raises(ValueError):
        vacuum_swap((f2, f1), z3)  # unequal charges
    out = vacuum_swap((f2, FieldSymbol(1, B, c1)), z3)
    with pytest.raises(ValueError, match="winding guard"):
        vacuum_swap((out.bra, out.ket), z3)


def test_pairs_that_are_not_separated_are_refused_alike(z3):
    # every public operation refuses such a pair as relative_winding does:
    # one SeparationError, naming the operation
    base = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    later = cone_path(MVec3(2.0, 0, 0), 0.0, 0.3)  # in the future of base's apex
    assert not causally_separated(later, base)
    f_base, f_later = FieldSymbol(1, A, base), FieldSymbol(1, B, later)
    for what, call in (
            ("relative winding", lambda: relative_winding(later, base)),
            ("exchange", lambda: exchange(FieldWord.of(f_later, f_base), 0, z3)),
            ("twist", lambda: twist_conjugate(f_base, (later, base), z3)),
            ("vacuum swap", lambda: vacuum_swap((f_later, f_base), z3))):
        with pytest.raises(SeparationError, match=f"^{what} requires causally separated regions$"):
            call()


# ---------------------------------------------------------------------------
# CPT
# ---------------------------------------------------------------------------

def test_cpt_charge_and_localisation(z3):
    frame = ReferenceFrame(math.pi / 2)
    loc = cone_path(MVec3(0.2, -0.1, 0.4), 0.8, 0.2, sheet=1)
    sym = FieldSymbol(2, A, loc)
    op, jloc = cpt_conjugate(sym, z3, frame)
    assert op.shift == -2
    assert op.obs == A.reflect()
    assert jloc.same_path(reflect_path(loc, frame))


def test_cpt_involution(z3, fermion):
    frame = ReferenceFrame(math.pi / 2)
    for model in (z3, fermion):
        for c in range(-4, 5):
            g = GradedOperator(c, Fraction(1, 6), Fraction(-1, 4), Fraction(2, 9), A)
            assert cpt_conjugate_graded(
                cpt_conjugate_graded(g, model, frame), model, frame) == g


def test_cpt_gauge_phase(z3):
    v = gauge_operator(Fraction(1, 5))
    assert cpt_conjugate_graded(v, z3) == v


def test_cpt_wedge_twist_value(z3):
    # with the reference cone on the positive x2 axis the twist winding is -1
    frame = ReferenceFrame(math.pi / 2)
    loc = cone_path(MVec3(0, 0, 0), 0.0, 0.2)
    sym = FieldSymbol(1, A, loc)
    op, _ = cpt_conjugate(sym, z3, frame)
    h = z3.omega_sqrt.turns
    for q in range(-5, 6):
        assert op.phase_at(q) == CyclotomicPhase(-h * (2 * q - 1))


# ---------------------------------------------------------------------------
# word files
# ---------------------------------------------------------------------------

def test_load_word(tmp_path, z3):
    scene = parse_scene({
        "cones": [
            {"id": "L", "apex": [0, 0, 0], "center_angle": -0.9, "half_opening": 0.2},
            {"id": "R", "apex": [0, 0, 0], "center_angle": 0.9, "half_opening": 0.2},
        ]
    })
    doc = {"coeff": {"k": 1, "M": 6},
           "factors": [{"charge": 1, "obs": "A", "path": "R"},
                       {"charge": 2, "obs": "B*", "path": "L"}]}
    path = tmp_path / "word.json"
    path.write_text(json.dumps(doc))
    word = load_word(path, scene)
    assert word.coeff == CyclotomicPhase.from_pair(1, 6)
    assert word.factors[0].obs == A
    assert word.factors[1].obs == ObservableWord.symbol("B", star=True)
    assert exchange(word, 0, z3).factors[0].obs == word.factors[1].obs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"factors": [{"charge": 1, "obs": "A", "path": "X"}]}))
    with pytest.raises(ValueError, match="unknown path"):
        load_word(bad, scene)
