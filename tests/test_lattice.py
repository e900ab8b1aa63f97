import numpy as np
import pytest

from plektonlab.cones import cone_path
from plektonlab.fields import FieldSymbol, FieldWord, ObservableWord
from plektonlab.lattice import ClockShiftLattice, OracleError, lattice_oracle
from plektonlab.minkowski import MVec3
from plektonlab.sectors import r_phase

I = ObservableWord.identity()


def fan(count):
    return [cone_path(MVec3(0, 0, 0), -1.4 + 0.9 * k, 0.15) for k in range(count)]


def test_fermion_sites_anticommute(fermion):
    lat = ClockShiftLattice(fermion, 3)
    a = [lat.site_operator(j) for j in range(3)]
    for j in range(3):
        for k in range(j + 1, 3):
            assert np.abs(a[j] @ a[k] + a[k] @ a[j]).max() < 1e-12
    # unitarity of the string operators
    for m in a:
        assert np.abs(m @ m.conj().T - np.eye(lat.dimension)).max() < 1e-12


def test_z3_commutation_matches_r_phase(z3):
    lat = ClockShiftLattice(z3, 2)
    a1, a2 = lat.site_operator(0), lat.site_operator(1)
    omega = z3.omega.to_complex()
    # site 2 sits at the larger angle, so exchanging a2 a1 costs r_phase(1,1,0)
    assert np.abs(a2 @ a1 - omega * a1 @ a2).max() < 1e-12
    assert r_phase(z3, 1, 1, 0).to_complex() == pytest.approx(omega)


def test_adjoint_is_conjugate_transpose(z3):
    locs = fan(2)
    lat = ClockShiftLattice(z3, 2)
    for charge in (-2, -1, 1, 2):
        sym = FieldSymbol(charge, I, locs[0])
        from plektonlab.fields import adjoint

        lhs = lat.symbol_matrix(adjoint(sym), 0)
        rhs = lat.symbol_matrix(sym, 0).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


def test_oracle_word_report(z3):
    locs = fan(4)
    word = FieldWord.of(*(FieldSymbol(c, I, loc)
                          for c, loc in zip((1, 2, -1, 1), locs)))
    rep = lattice_oracle(z3, word)
    assert rep.ok
    assert rep.dimension == 81
    assert rep.exchange_residual < 1e-12
    assert rep.adjoint_residual < 1e-12


def test_fusion_matches_matrix_product(z3):
    loc = fan(1)[0]
    lat = ClockShiftLattice(z3, 1)
    from plektonlab.fields import fuse_adjacent

    word = FieldWord.of(FieldSymbol(2, I, loc), FieldSymbol(-1, I, loc))
    fused = fuse_adjacent(word)
    lhs = lat.word_matrix(word, [0, 0])
    rhs = lat.word_matrix(fused, [0])
    assert np.abs(lhs - rhs).max() < 1e-12


def test_oracle_covers_both_winding_orientations(z3):
    locs = fan(3)
    descending = FieldWord.of(*(FieldSymbol(1, I, loc) for loc in reversed(locs)))
    rep = lattice_oracle(z3, descending)
    assert rep.ok
    ascending = FieldWord.of(*(FieldSymbol(1, I, loc) for loc in locs))
    assert lattice_oracle(z3, ascending).ok


def test_oracle_rejections(z3, boson, semion):
    locs = fan(2)
    with pytest.raises(OracleError, match="Z_N"):
        lattice_oracle(boson, FieldWord.of(FieldSymbol(1, I, locs[0])))
    with pytest.raises(OracleError, match="overflow"):
        ClockShiftLattice(z3, 9)
    with pytest.raises(OracleError, match="overflow"):
        ClockShiftLattice(semion, 6)
    word = FieldWord.of(FieldSymbol(1, ObservableWord.symbol("A"), locs[0]))
    with pytest.raises(OracleError, match="observable"):
        lattice_oracle(z3, word)
