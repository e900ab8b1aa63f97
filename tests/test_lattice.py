import numpy as np
import pytest

from plektonlab.cones import cone_path
from plektonlab.fields import FieldSymbol, FieldWord, ObservableWord
import plektonlab.lattice
from plektonlab.lattice import ClockShiftLattice, OracleError, lattice_oracle
from plektonlab.minkowski import MVec3
from plektonlab.sectors import CyclotomicPhase, r_phase

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


def _dense_string_operators(model, n_sites):
    """The string operators U_1 ... U_{j-1} V_j as dense matrices, each site
    operator embedded by explicit Kronecker products with identities."""
    n = model.group_order
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    u = np.linalg.matrix_power(clock, int(model.omega.turns * n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)

    def embed(op, site):
        out = np.eye(1, dtype=complex)
        for k in range(n_sites):
            out = np.kron(out, op if k == site else np.eye(n))
        return out

    ops = []
    for j in range(n_sites):
        m = embed(shift, j)
        for k in range(j):
            m = embed(u, k) @ m
        ops.append(m)
    return ops


def _dense_power(a, c):
    return np.linalg.matrix_power(a if c >= 0 else a.conj().T, abs(c))


@pytest.mark.parametrize("model_name", ["fermion", "z3"])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_tensor_factors_match_dense_reference(request, model_name, n_sites):
    model = request.getfixturevalue(model_name)
    lat = ClockShiftLattice(model, n_sites)
    ops = _dense_string_operators(model, n_sites)
    loc = fan(1)[0]
    for j in range(n_sites):
        assert np.abs(lat.site_operator(j) - ops[j]).max() < 1e-12
        for c in range(-2, 3):
            got = lat.symbol_matrix(FieldSymbol(c, I, loc), j)
            assert np.abs(got - _dense_power(ops[j], c)).max() < 1e-12
    rng = np.random.default_rng(31 + 10 * n_sites + model.group_order)
    for _ in range(6):
        length = int(rng.integers(1, 6))
        charges = [int(c) for c in rng.integers(-2, 3, length)]
        sites = [int(s) for s in rng.integers(0, n_sites, length)]
        coeff = CyclotomicPhase.from_pair(int(rng.integers(0, 6)), 6)
        word = FieldWord.of(*(FieldSymbol(c, I, loc) for c in charges), coeff=coeff)
        want = coeff.to_complex() * np.eye(lat.dimension)
        for c, s in zip(charges, sites):
            want = want @ _dense_power(ops[s], c)
        assert np.abs(lat.word_matrix(word, sites) - want).max() < 1e-12
    with pytest.raises(IndexError):
        lat.site_operator(n_sites)


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


def _four_factor_word():
    return FieldWord.of(*(FieldSymbol(c, I, loc)
                          for c, loc in zip((1, 2, -1, 1), fan(4))))


def test_oracle_detects_wrong_exchange_coefficient(z3, monkeypatch):
    exchange = plektonlab.lattice.exchange
    third = CyclotomicPhase.from_pair(1, 3)

    def off_by_a_third(word, i, model):
        swapped = exchange(word, i, model)
        return FieldWord(swapped.coeff * third, swapped.factors)

    monkeypatch.setattr(plektonlab.lattice, "exchange", off_by_a_third)
    rep = lattice_oracle(z3, _four_factor_word())
    assert rep.exchange_residual > 1
    assert not rep.ok


def test_oracle_detects_wrong_adjoint(z3, monkeypatch):
    monkeypatch.setattr(plektonlab.lattice, "adjoint", lambda sym: sym)
    rep = lattice_oracle(z3, _four_factor_word())
    assert rep.adjoint_residual >= 1
    assert not rep.ok


def test_out_buffer_receives_the_fresh_matrix(z3):
    lat = ClockShiftLattice(z3, 4)
    word = _four_factor_word()
    sites = [2, 0, 3, 1]
    buf = np.full((lat.dimension, lat.dimension), np.nan, dtype=complex)
    assert lat.word_matrix(word, sites, out=buf) is buf
    assert np.array_equal(buf, lat.word_matrix(word, sites))
    sym = word.factors[2]
    assert lat.symbol_matrix(sym, 3, out=buf) is buf
    assert np.array_equal(buf, lat.symbol_matrix(sym, 3))


def _dense_residuals(model, word, sites):
    """Both residuals from freshly allocated dense sides, as
    max |A - B| over the entries."""
    from plektonlab.fields import adjoint, exchange

    lat = ClockShiftLattice(model, len(word.factors))
    unswapped = lat.word_matrix(word, sites)
    exch = 0.0
    for i in range(len(word.factors) - 1):
        new_sites = list(sites)
        new_sites[i], new_sites[i + 1] = new_sites[i + 1], new_sites[i]
        rhs = lat.word_matrix(exchange(word, i, model), new_sites)
        exch = max(exch, float(np.abs(unswapped - rhs).max()))
    adj = max(float(np.abs(lat.symbol_matrix(adjoint(sym), s)
                           - lat.symbol_matrix(sym, s).conj().T).max())
              for sym, s in zip(word.factors, sites))
    return exch, adj


@pytest.mark.parametrize("mutation", [None, "exchange", "adjoint"])
def test_oracle_residuals_equal_dense_sides(z3, monkeypatch, mutation):
    # the mutations make both residuals nonzero in turn, so the equality is
    # checked on values other than rounding noise
    if mutation == "exchange":
        exchange = plektonlab.lattice.exchange
        third = CyclotomicPhase.from_pair(1, 3)
        wrong = lambda word, i, model: FieldWord(
            exchange(word, i, model).coeff * third, exchange(word, i, model).factors)
        monkeypatch.setattr(plektonlab.lattice, "exchange", wrong)
        monkeypatch.setattr(plektonlab.fields, "exchange", wrong)
    elif mutation == "adjoint":
        monkeypatch.setattr(plektonlab.lattice, "adjoint", lambda sym: sym)
        monkeypatch.setattr(plektonlab.fields, "adjoint", lambda sym: sym)
    word = _four_factor_word()
    sites = [1, 3, 0, 2]
    rep = lattice_oracle(z3, word, sites)
    assert (rep.exchange_residual, rep.adjoint_residual) == _dense_residuals(z3, word, sites)


def test_oracle_holds_two_dense_sides(z3):
    # one d x d complex side is 16 d^2 bytes; the oracle keeps two and small
    # site factors, whatever the charges and the order of the word
    import tracemalloc

    side = 16 * 3 ** 10
    peaks = []
    for charges, locs in (((1, 2, 1, 2, 1), fan(5)), ((-1, -2, 1, -2, -1), fan(5)[::-1])):
        word = FieldWord.of(*(FieldSymbol(c, I, loc) for c, loc in zip(charges, locs)))
        tracemalloc.start()
        try:
            assert lattice_oracle(z3, word).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(2 * side <= p < 2.5 * side for p in peaks), peaks
