import copy
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plektonlab.sectors import (
    AnyonModel,
    CyclotomicPhase,
    ModelError,
    load_model,
    monodromy_prefactor,
    parse_model,
    r_phase,
    sector_phase,
    twist_phase,
    validate_model,
)
from tests.conftest import ASSETS

phases = st.builds(CyclotomicPhase.from_pair,
                   st.integers(-40, 40), st.integers(1, 24))
charges = st.integers(-12, 12)
windings = st.integers(-6, 6)


def models():
    def build(k, m, root_choice, order):
        omega = CyclotomicPhase.from_pair(k, m)
        half = CyclotomicPhase(omega.turns / 2)
        if root_choice:
            half = CyclotomicPhase(half.turns + Fraction(1, 2))
        return AnyonModel(order, omega, half, omega.turns)

    return st.builds(build, st.integers(0, 23), st.integers(1, 24),
                     st.booleans(), st.none())


# ---------------------------------------------------------------------------
# exact phase arithmetic
# ---------------------------------------------------------------------------

@given(phases, phases, phases)
def test_phase_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a * a.inverse()).is_one()
    assert a ** 3 == a * a * a


@given(phases)
def test_phase_canonical_form(p):
    assert 0 <= p.turns < 1
    assert CyclotomicPhase.from_pair(p.numerator, p.denominator) == p


# negative, zero, already reduced and large turns, as Fractions and as ints
turns = st.one_of(
    st.fractions(),
    st.fractions(min_value=0, max_value=Fraction(99, 100)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)),
    st.integers(-10 ** 30, 10 ** 30),
)


@given(turns, st.integers(-10 ** 6, 10 ** 6))
def test_phase_reduction_matches_fraction_mod_one(x, n):
    for phase, want in ((CyclotomicPhase(x), Fraction(x) % 1),
                        (CyclotomicPhase(Fraction(x)) ** n, (Fraction(x) * n) % 1)):
        assert type(phase.turns) is Fraction and phase.turns == want
        assert (phase.numerator, phase.denominator) == (want.numerator, want.denominator)


# powers: negative, zero and large ints
exponents = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.just(0),
    st.integers(-10 ** 30, 10 ** 30),
)


@given(turns, turns, exponents)
def test_int_pair_operations_match_fraction_arithmetic(x, y, n):
    a, b = CyclotomicPhase(x), CyclotomicPhase(y)
    fx, fy = Fraction(x) % 1, Fraction(y) % 1

    def holds(phase, want):
        want %= 1
        return (type(phase) is CyclotomicPhase and phase.turns == want
                and (phase.numerator, phase.denominator) == (want.numerator, want.denominator))

    assert holds(a * b, fx + fy)
    assert holds(a / b, fx - fy)
    assert holds(a ** n, fx * Fraction(n))
    assert holds(a.inverse(), -fx)
    assert a.is_one() == (fx == 0)
    assert (a == b) == (fx == fy) and (a != b) == (fx != fy)
    if fx == fy:
        assert hash(a) == hash(b)
    assert a == CyclotomicPhase(fx) and hash(a) == hash(CyclotomicPhase(fx))
    assert a != fx  # a phase is not a number of turns


def test_phases_are_immutable():
    p = CyclotomicPhase.from_pair(1, 3)
    for name in ("_k", "_m", "turns", "numerator"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    with pytest.raises(AttributeError):
        del p._k
    assert p == CyclotomicPhase.from_pair(1, 3)


MODEL_FILES = sorted(f.name for f in ASSETS.glob("*.json")
                     if "omega" in json.loads(f.read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", MODEL_FILES)
def test_phases_and_models_survive_pickling(name):
    # "all" sends the model to its forked workers by pickle
    model = load_model(ASSETS / name)
    phases = [model.omega, model.omega_sqrt, CyclotomicPhase.from_pair(-7, 12),
              CyclotomicPhase.one()]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps((model, phases), protocol))
        assert back == (model, phases)
        assert [hash(p) for p in back[1]] == [hash(p) for p in phases]
        assert [(p.numerator, p.denominator) for p in back[1]] == \
            [(p.numerator, p.denominator) for p in phases]
        assert validate_model(back[0]) == validate_model(model)
    assert copy.deepcopy(model) == model


def test_phase_display():
    assert str(CyclotomicPhase.from_pair(1, 2)) == "1/2 of 2pi"
    assert str(CyclotomicPhase.from_pair(4, 6)) == "2/3 of 2pi"
    assert abs(CyclotomicPhase.from_pair(1, 4).to_complex() - 1j) < 1e-15


def test_powers_take_integers_only():
    # a root of a phase is model data (omega_sqrt), so no non-integer power
    # picks one; numpy's ints are integers
    a = CyclotomicPhase.from_pair(1, 5)
    with pytest.raises(TypeError):
        a ** Fraction(1, 2)
    with pytest.raises(TypeError):
        a ** Fraction(4, 2)
    assert a ** np.int64(3) == a ** 3 == CyclotomicPhase.from_pair(3, 5)


# ---------------------------------------------------------------------------
# sector phases
# ---------------------------------------------------------------------------

def test_sector_phase_examples(fermion, z3):
    assert sector_phase(fermion, 0).is_one()
    assert sector_phase(fermion, 1) == CyclotomicPhase.from_pair(1, 2)
    # omega = exp(2 pi i/3), q = 2: omega^4 = omega
    assert sector_phase(z3, 2) == z3.omega


def conjugate_sector(model, q):
    """The conjugate charge -q, whose statistics phase coincides with q's
    because (-q)^2 = q^2."""
    assert sector_phase(model, -q) == sector_phase(model, q)
    return -q


def test_conjugate_sector(z3):
    assert conjugate_sector(z3, 3) == -3
    assert conjugate_sector(z3, 0) == 0
    z5 = AnyonModel(5, CyclotomicPhase.from_pair(1, 5),
                    CyclotomicPhase.from_pair(3, 5), Fraction(1, 5))
    assert conjugate_sector(z5, 2) == -2
    assert sector_phase(z5, -2) == sector_phase(z5, 3)


@given(models(), charges)
@settings(max_examples=60)
def test_spin_statistics_per_sector(model, q):
    spin_q = (model.spin * q * q) % 1
    assert CyclotomicPhase(spin_q) == sector_phase(model, q)


# ---------------------------------------------------------------------------
# exchange and monodromy phases
# ---------------------------------------------------------------------------

def test_r_phase_examples(fermion, z3, semion):
    assert r_phase(fermion, 1, 1, 0) == CyclotomicPhase.from_pair(1, 2)
    assert r_phase(z3, 2, 1, -1) == r_phase(z3, 2, 1, 0).inverse()
    # omega = i, c1 = 1, c2 = 2, n = 0: i^2 = -1
    assert r_phase(semion, 1, 2, 0) == CyclotomicPhase.from_pair(1, 2)


@given(models(), charges, charges, windings)
@settings(max_examples=80)
def test_r_phase_pairing(model, c1, c2, n):
    assert (r_phase(model, c1, c2, n) * r_phase(model, c1, c2, -1 - n)).is_one()


def test_monodromy_examples(z3):
    assert monodromy_prefactor(z3, 2, 3, 5, 4, 0).is_one()
    # alpha=0, c1=c2=1: exponent 2n
    assert monodromy_prefactor(z3, 0, 1, 2, 1, 3) == z3.omega ** 6
    with pytest.raises(ValueError):
        monodromy_prefactor(z3, 0, 1, 3, 1, 1)


@given(models(), charges, charges, charges, windings)
@settings(max_examples=80)
def test_monodromy_prefactor_identity(model, alpha, c1, c2, n):
    pre = monodromy_prefactor(model, alpha, alpha + c1, alpha + c1 + c2,
                              alpha + c2, n)
    assert pre == model.omega ** (2 * c1 * c2 * n)
    assert pre * r_phase(model, c1, c2, 0) == r_phase(model, c1, c2, n)


# ---------------------------------------------------------------------------
# twist phases
# ---------------------------------------------------------------------------

def test_twist_phase_examples(fermion):
    assert twist_phase(fermion, 0, 5).is_one()
    # Klein twist: omega = -1 with root i at q = 1, n = 0
    assert twist_phase(fermion, 1, 0) == CyclotomicPhase.from_pair(1, 4)
    # n = -1 and n = 0 give the two opposite wedge conventions
    for q in range(-4, 5):
        assert twist_phase(fermion, q, -1) == fermion.omega_sqrt ** (-q * q)
        assert twist_phase(fermion, q, 0) == fermion.omega_sqrt ** (q * q)


@given(st.integers(-9, 9), windings)
def test_twist_periodicity_z3(q, n):
    z3 = AnyonModel(3, CyclotomicPhase.from_pair(1, 3),
                    CyclotomicPhase.from_pair(2, 3), Fraction(1, 3))
    assert twist_phase(z3, q + 3, n) == twist_phase(z3, q, n)
    assert sector_phase(z3, q + 3) == sector_phase(z3, q)


# ---------------------------------------------------------------------------
# model validation and files
# ---------------------------------------------------------------------------

def test_validate_model_cases(fermion, z3, boson):
    assert validate_model(boson).ok
    assert validate_model(fermion).ok
    assert validate_model(z3).ok
    bad = AnyonModel(3, CyclotomicPhase.from_pair(1, 4),
                     CyclotomicPhase.from_pair(1, 8), Fraction(1, 4))
    rep = validate_model(bad)
    assert not rep.ok and any("omega^3" in f for f in rep.failures)
    # wrong square-root choice fails the N^2 rule
    bad_root = AnyonModel(3, CyclotomicPhase.from_pair(1, 3),
                          CyclotomicPhase.from_pair(1, 6), Fraction(1, 3))
    rep = validate_model(bad_root)
    assert not rep.ok and any("omega_sqrt" in f for f in rep.failures)
    # spin-statistics violation
    bad_spin = AnyonModel(2, CyclotomicPhase.from_pair(1, 2),
                          CyclotomicPhase.from_pair(1, 4), Fraction(1, 3))
    assert not validate_model(bad_spin).ok


def test_sqrt_is_model_data():
    with pytest.raises(ValueError):
        AnyonModel(2, CyclotomicPhase.from_pair(1, 2),
                   CyclotomicPhase.from_pair(1, 3), Fraction(1, 2))


def reduced_charge(model, q):
    """Display projection of a lifted charge; arithmetic stays in Z."""
    return q % model.group_order if model.is_finite else q


def test_lifted_charges_display(z3):
    assert reduced_charge(z3, -2) == 1
    assert reduced_charge(z3, 7) == 1


def test_model_file_roundtrip(tmp_path):
    doc = {"group": {"ZN": 3}, "omega": {"k": 1, "M": 3},
           "omega_sqrt": {"k": 2, "M": 3}, "spin": {"p": 1, "q": 3},
           "mass": 1.25}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert model.group_order == 3
    assert model.omega == CyclotomicPhase.from_pair(1, 3)
    assert model.mass == 1.25
    assert validate_model(model).ok


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json\n}")
    with pytest.raises(ModelError, match="line 1"):
        load_model(bad)
    with pytest.raises(ModelError):
        parse_model({"group": "Q", "omega": {"k": 0, "M": 1},
                     "omega_sqrt": {"k": 0, "M": 1}, "spin": {"p": 0, "q": 1}})
    with pytest.raises(ModelError):
        parse_model({"group": "Z", "omega": {"k": 1, "M": 2},
                     "omega_sqrt": {"k": 1, "M": 3}, "spin": {"p": 1, "q": 2}})
