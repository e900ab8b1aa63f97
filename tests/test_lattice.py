import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from plektonlab.cones import SeparationError, WindingError, cone_path
from plektonlab.fields import FieldSymbol, FieldWord, ObservableWord, _exchange
import plektonlab.lattice
from plektonlab.lattice import ClockShiftLattice, LatticeReport, OracleError, lattice_oracle
from plektonlab.minkowski import MVec3
from plektonlab.sectors import AnyonModel, CyclotomicPhase, r_phase
from plektonlab.tolerances import LATTICE_TOL
from tests.test_cones import translated
from tests.test_fields import DELOCALIZED, fuse_adjacent

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


def _clock_and_shift(model):
    """U = clock^a (omega = zeta^a) and the cyclic shift V, as dense N x N
    matrices built here."""
    n = model.group_order
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return (np.linalg.matrix_power(clock, int(model.omega.turns * n)),
            np.roll(np.eye(n, dtype=complex), 1, axis=0))


def _dense_string_operators(model, n_sites):
    """The string operators U_1 ... U_{j-1} V_j as dense matrices, each site
    operator embedded by explicit Kronecker products with identities."""
    n = model.group_order
    u, shift = _clock_and_shift(model)

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
    with pytest.raises(OracleError, match=f"^site {n_sites} is off the {n_sites}-site chain"):
        lat.site_operator(n_sites)
    with pytest.raises(OracleError, match=f"^site -1 is off the {n_sites}-site chain"):
        lat.symbol_matrix(FieldSymbol(1, I, loc), -1)


def test_fusion_matches_matrix_product(z3):
    loc = fan(1)[0]
    lat = ClockShiftLattice(z3, 1)
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
    # only the dense builders refuse a dimension beyond MAX_DIMENSION
    big = ClockShiftLattice(z3, 9)
    for build in (lambda: big.site_operator(0),
                  lambda: big.symbol_matrix(FieldSymbol(1, I, locs[0]), 0),
                  lambda: big.word_matrix(FieldWord.of(FieldSymbol(1, I, locs[0])), [0])):
        with pytest.raises(OracleError, match=r"^dimension overflow: 3\^9 > 1024$"):
            build()
    with pytest.raises(OracleError, match=r"^dimension overflow: 4\^6 > 1024$"):
        ClockShiftLattice(semion, 6).site_operator(5)
    assert ClockShiftLattice(semion, 5).site_operator(4).shape == (1024, 1024)
    word = FieldWord.of(FieldSymbol(1, ObservableWord.symbol("A"), locs[0]))
    with pytest.raises(OracleError, match="observable"):
        lattice_oracle(z3, word)
    # sites must pair one to one with the factors
    w3 = FieldWord.of(*(FieldSymbol(1, I, loc) for loc in fan(3)))
    with pytest.raises(OracleError, match="4 sites given for a word of 3 factors"):
        lattice_oracle(z3, w3, [2, 1, 0, 5])
    with pytest.raises(OracleError, match="2 sites given for a word of 3 factors"):
        lattice_oracle(z3, w3, [0, 1])
    with pytest.raises(OracleError, match="1 sites given for a word of 3 factors"):
        ClockShiftLattice(z3, 3).word_matrix(w3, [0])
    # and each must lie on the chain: the offending site is named, not the
    # sites of one position across the exchanged words
    for sites, off in (([0, 1, 7], 7), ([-1, 0, 1], -1)):
        with pytest.raises(OracleError, match=f"^site {off} is off the 3-site chain"):
            lattice_oracle(z3, w3, sites)
        with pytest.raises(OracleError, match=f"^site {off} is off the 3-site chain"):
            ClockShiftLattice(z3, 3).word_matrix(w3, sites)


_RELATED = "exchange requires causally separated regions"
_DELOCALIZED = "cannot exchange a delocalized symbol"
_AMBIGUOUS = "separation undecidable within tolerance"


@pytest.mark.parametrize("names, sites, error, match", [
    ("base later", None, ValueError, _RELATED),
    ("opposite base later", None, ValueError, _RELATED),
    ("base delocalized", [0, 1], ValueError, _DELOCALIZED),
    ("base grazing", None, SeparationError, _AMBIGUOUS),
    # two failing pairs: the lower index's refusal wins
    ("grazing base later", None, SeparationError, _AMBIGUOUS),
    ("later base grazing", None, ValueError, _RELATED),
    ("later base delocalized", [0, 1, 2], ValueError, _RELATED),
    ("delocalized base grazing", [0, 1, 2], ValueError, _DELOCALIZED),
    # a separated pair with no winding raises when it is exchanged, before
    # the next pair's refusal
    ("west east later", None, WindingError, "share an endpoint"),
])
def test_oracle_refuses_a_pair_exchange_refuses(z3, monkeypatch, names, sites, error, match):
    # each adjacent pair is refused as `exchange` refuses it, the lowest
    # index first, and before any site product is built
    def unbuilt(self, words):
        raise AssertionError("site products built before the refusal")

    monkeypatch.setattr(ClockShiftLattice, "_site_products", unbuilt)
    base = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    locs = {
        "base": base,
        "opposite": cone_path(MVec3(0, 0, 0), math.pi, 0.3),
        # a later apex in base's own direction: causally related to base
        "later": translated(base, MVec3(2.0, 0, 0)),
        # apexes light-like to base's up to 1e-8: inside the ambiguity band
        "grazing": cone_path(MVec3(1 + 1e-8, -1, 0), math.pi, 0.3),
        "delocalized": DELOCALIZED,
        # arcs (-0.4, 0) and (0, 0.4) at one apex: separated, but grazing
        "west": cone_path(MVec3(0, 0, 0), -0.2, 0.2),
        "east": cone_path(MVec3(0, 0, 0), 0.2, 0.2),
    }
    word = FieldWord.of(*(FieldSymbol(1, I, locs[name]) for name in names.split()))
    with pytest.raises(error, match=match):
        lattice_oracle(z3, word, sites)


def _four_factor_word():
    return FieldWord.of(*(FieldSymbol(c, I, loc)
                          for c, loc in zip((1, 2, -1, 1), fan(4))))


def _off_by_a_third(word, i, model):
    """The exchanged word with a coefficient one third of a turn off."""
    swapped = _exchange(word, i, model)
    return FieldWord(swapped.coeff * CyclotomicPhase.from_pair(1, 3), swapped.factors)


def _mutate(patch, mutation):
    """Patch the oracle's hook and the dense reference's alike: the unchecked
    exchange, which `fields.exchange` calls after its checks, or adjoint."""
    for module in (plektonlab.lattice, plektonlab.fields):
        if mutation == "exchange":
            patch.setattr(module, "_exchange", _off_by_a_third)
        elif mutation == "adjoint":
            patch.setattr(module, "adjoint", lambda sym: sym)


def test_oracle_detects_wrong_exchange_coefficient(z3, monkeypatch):
    monkeypatch.setattr(plektonlab.lattice, "_exchange", _off_by_a_third)
    rep = lattice_oracle(z3, _four_factor_word())
    assert rep.exchange_residual > 1
    assert not rep.ok


def test_oracle_detects_wrong_adjoint(z3, monkeypatch):
    monkeypatch.setattr(plektonlab.lattice, "adjoint", lambda sym: sym)
    rep = lattice_oracle(z3, _four_factor_word())
    assert rep.adjoint_residual >= 1
    assert not rep.ok


def _kron_side(model, n_sites, charges, sites, coeff=1.0):
    """One side as a dense matrix: the per-site products of the symbols'
    site factors (U^c before the site, V^c on it, the identity after it,
    from this file's own clock and shift), then np.kron over the sites,
    then the coefficient."""
    u, v = _clock_and_shift(model)
    eye = np.eye(len(u), dtype=complex)
    per_site = [eye] * n_sites
    for c, s in zip(charges, sites):
        per_site = [p @ _dense_power(u if k < s else v if k == s else eye, c)
                    for k, p in enumerate(per_site)]
    return reduce(np.kron, per_site, np.ones((1, 1), dtype=complex)) * coeff


def _dense_residuals(model, word, sites):
    """Both residuals from dense sides built here with np.kron, as
    max |A - B| over the entries."""
    from plektonlab.fields import adjoint, exchange

    n_sites = len(word.factors)

    def side(w, s):
        return _kron_side(model, n_sites, [sym.charge for sym in w.factors], s,
                          w.coeff.to_complex())

    unswapped = side(word, sites)
    exch = 0.0
    for i in range(len(word.factors) - 1):
        new_sites = list(sites)
        new_sites[i], new_sites[i + 1] = new_sites[i + 1], new_sites[i]
        rhs = side(exchange(word, i, model), new_sites)
        exch = max(exch, float(np.abs(unswapped - rhs).max()))
    adj = max(float(np.abs(_kron_side(model, n_sites, [adjoint(sym).charge], [s])
                           - _kron_side(model, n_sites, [sym.charge], [s]).conj().T).max())
              for sym, s in zip(word.factors, sites))
    return exch, adj


def _assert_matches_dense(rep, want):
    """Each residual is within 1e-12 of the dense one, and exactly 0.0 iff
    the dense one is below LATTICE_TOL."""
    for got, dense in zip((rep.exchange_residual, rep.adjoint_residual), want):
        assert abs(got - dense) <= 1e-12, (got, dense)
        assert (got == 0.0) == (dense < LATTICE_TOL), (got, dense)


@pytest.mark.parametrize("mutation", [None, "exchange", "adjoint"])
def test_oracle_residuals_equal_dense_sides(z3, monkeypatch, mutation):
    # the mutations make both residuals nonzero in turn, so the agreement is
    # checked on values other than rounding noise
    _mutate(monkeypatch, mutation)
    word = _four_factor_word()
    sites = [1, 3, 0, 2]
    _assert_matches_dense(lattice_oracle(z3, word, sites), _dense_residuals(z3, word, sites))


def test_site_wise_distance_equals_dense_distance():
    # clock and shift products agree at all or none of a site's columns, so
    # the oracle's sides never give a mixed column mask; random site rows
    # with one transposition at some sites do, and random int exponents of
    # exp(2 pi i / k) with a random ratio of roots of unity per comparison,
    # 1 to 6 comparisons a stack
    from plektonlab.lattice import _residuals

    def dense(rows, exps, k):
        sites = [np.zeros((len(r), len(r)), dtype=complex) for r in rows]
        for m, r, e in zip(sites, rows, exps):
            m[r, np.arange(len(r))] = np.exp(2j * np.pi * e / k)
        return reduce(np.kron, sites, np.ones((1, 1), dtype=complex))

    rng = np.random.default_rng(12)
    mixed = 0
    for _ in range(60):
        n, length, count = (int(x) for x in rng.integers((2, 1, 1), (6, 5, 7)))
        k = int(rng.integers(2, 13))
        rows_a = np.array([[rng.permutation(n) for _ in range(length)] for _ in range(count)])
        rows_b = rows_a.copy()
        for c, s in zip(*np.nonzero(rng.random((count, length)) < 0.5)):
            i, j = rng.choice(n, 2, replace=False)
            rows_b[c, s, [i, j]] = rows_b[c, s, [j, i]]
        exps_a, exps_b = (rng.integers(0, k, (count, length, n)) for _ in range(2))
        ratios = [CyclotomicPhase.from_pair(int(rng.integers(0, 12)), int(rng.integers(1, 13)))
                  for _ in range(count)]
        got = _residuals((rows_a, exps_a), (rows_b, exps_b), k, ratios)
        assert len(got) == count
        for c, ratio in enumerate(ratios):
            want = np.abs(dense(rows_a[c], exps_a[c], k)
                          - ratio.to_complex() * dense(rows_b[c], exps_b[c], k)).max()
            assert abs(got[c] - want) <= 1e-12
            # a comparison reads the same bits whatever else is in its stack
            one = slice(c, c + 1)
            alone = _residuals((rows_a[one], exps_a[one]), (rows_b[one], exps_b[one]), k, [ratio])
            assert alone[0].hex() == got[c].hex()
            mixed += n > 2 and not (rows_a[c] == rows_b[c]).all()
    assert mixed > 10


def _convolved_residual(a, b, n, ratio):
    """The residual of one comparison from a cyclic convolution, mod q, of
    per-site indicator vectors of the gaps over the agreeing columns: the
    gaps the columns reach, followed site by site, never the columns."""
    (rows_a, exps_a), (rows_b, exps_b) = a, b
    q = math.lcm(n, ratio.denominator)
    reach = np.zeros(q, dtype=np.int64)
    reach[ratio.numerator * (q // ratio.denominator) % q] = 1
    for ra, ea, rb, eb in zip(rows_a, exps_a, rows_b, exps_b):
        hits = np.bincount((eb - ea)[ra == rb] % n * (q // n), minlength=q)
        reach = np.minimum(1, sum(np.roll(reach, g) * h for g, h in enumerate(hits)))
    apart = not (rows_a == rows_b).all()
    return max([1.0] * apart + [2 * abs(math.sin(math.pi * x / q)) for x in np.flatnonzero(reach)])


def test_residuals_need_no_dimension():
    # 30 to 40 sites of N = 5 to 8 columns, d = N^L from 9e20 to 1.3e36:
    # each comparison against the convolution referee, in stacks of 5.  The
    # exponents of b are a's plus a constant per site except at one site, so
    # some sumsets miss gaps mod q; one comparison is a correct
    # identity, one has a site with one disagreeing column and one a site
    # with none agreeing
    from plektonlab.lattice import _residuals

    rng = np.random.default_rng(29)
    partial = 0
    for _ in range(12):
        n, length = int(rng.integers(5, 9)), int(rng.integers(30, 41))
        rows_a = rng.integers(0, n, (5, length, n))
        exps_a = rng.integers(0, n, (5, length, n))
        shifts = rng.integers(0, n, (5, length))
        rows_b, exps_b = rows_a.copy(), (exps_a + shifts[..., None]) % n
        for c in (1, 2, 3):
            exps_b[c, rng.integers(length)] = rng.integers(0, n, n)
        ratios = [CyclotomicPhase.from_pair(-int(shifts[0].sum()), n)]
        ratios += [CyclotomicPhase.from_pair(int(rng.integers(0, m)), m)
                   for m in (1, n, 2 * n, 7)]
        site, column = int(rng.integers(length)), int(rng.integers(n))
        rows_b[3, site, column] = (rows_b[3, site, column] + 1) % n
        rows_b[4, site] = (rows_b[4, site] + 1) % n
        a, b = (rows_a, exps_a), (rows_b, exps_b)
        got = _residuals(a, b, n, ratios)
        want = [_convolved_residual((rows_a[c], exps_a[c]), (rows_b[c], exps_b[c]), n, r)
                for c, r in enumerate(ratios)]
        assert got[0] == want[0] == 0.0
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want)), (got, want)
        assert got[3] >= 1.0
        assert got[4] == want[4] == 1.0
        for c in (1, 2):
            q = math.lcm(n, ratios[c].denominator)
            partial += got[c] < max(2 * abs(math.sin(math.pi * x / q)) for x in range(q)) - 1e-12
    assert partial > 4


def test_oracle_builds_its_sides_in_one_stack(z3, monkeypatch):
    # the word, its exchanged words and the adjoints beside their symbols
    # are one call of the site-product builder
    calls = []
    original = ClockShiftLattice._site_products

    def counted(self, words):
        calls.append(len(words))
        return original(self, words)

    monkeypatch.setattr(ClockShiftLattice, "_site_products", counted)
    for length in range(1, 6):
        calls.clear()
        word = FieldWord.of(*(FieldSymbol(c, I, loc)
                              for c, loc in zip((1, -2, 2, 1, -1), fan(length)[::-1])))
        assert lattice_oracle(z3, word).ok
        assert calls == [3 * length]


@pytest.mark.parametrize("mutation", [None, "exchange", "adjoint"])
def test_oracle_expands_no_column(semion, monkeypatch, mutation):
    # the Kronecker expansion to d entries is for the dense builders only;
    # the mutations give exponent gaps and disagreeing rows to compare
    def expanded(*args):
        raise AssertionError("the oracle expanded a side to its d columns")

    _mutate(monkeypatch, mutation)
    monkeypatch.setattr(plektonlab.lattice, "_expand", expanded)
    for length in range(6):
        word = FieldWord.of(*(FieldSymbol(c, I, loc)
                              for c, loc in zip((1, 2, 3, -2, -1), fan(length))))
        rep = lattice_oracle(semion, word)
        assert rep.ok == (mutation is None or length < {"exchange": 2, "adjoint": 1}[mutation])


def test_oracle_holds_no_dense_side(z3):
    # one d x d complex side is 16 d^2 bytes; the oracle keeps each side as a
    # row index and an exponent per site column, whatever the charges and
    # the order, and compares sides through sumsets of per-site gaps
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
    assert all(p < 0.1 * side for p in peaks), peaks


# omega = 1/N turns, spin 1/N and a square root of omega for each Z_N
_ROOTS = {2: (1, 4), 3: (2, 3), 4: (1, 8), 5: (3, 5)}


def _seeded_word(n_group, length):
    """A word of charges +-1..3 on ``ring(length)`` in a seeded order, with
    a seeded coefficient, and the site of each factor: its cone's place in
    the ring, which is the angular order."""
    rng = np.random.default_rng(1000 * n_group + length)
    charges = [int(c) for c in rng.choice([-3, -2, -1, 1, 2, 3], length)]
    cones = ring(length) if length > 6 else fan(length)
    sites = [int(k) for k in rng.permutation(length)]
    word = FieldWord.of(*(FieldSymbol(c, I, cones[k]) for c, k in zip(charges, sites)),
                        coeff=CyclotomicPhase.from_pair(int(rng.integers(0, 6)), 6))
    return word, sites


def ring(count):
    """count cones about one apex with disjoint arcs in (-pi, pi), in angular
    order; unlike `fan`, any count."""
    step = 2 * math.pi / count
    return [cone_path(MVec3(0, 0, 0), -math.pi + (k + 0.5) * step, 0.15 * step)
            for k in range(count)]


def _check_against_dense(monkeypatch, n_group, length, mutation):
    model = _model(n_group)
    _mutate(monkeypatch, mutation)
    word, sites = _seeded_word(n_group, length)
    rep = lattice_oracle(model, word)
    assert rep.dimension == n_group ** length
    _assert_matches_dense(rep, _dense_residuals(model, word, sites))
    # the Z_2 string operators are Hermitian, so a wrong adjoint that
    # returns its symbol unchanged is right there
    assert rep.ok == (mutation is None or (mutation, n_group) == ("adjoint", 2))


@pytest.mark.parametrize("mutation", [None, "exchange", "adjoint"])
@pytest.mark.parametrize("n_group, length", [(2, 6), (3, 6), (4, 5), (5, 4)])
def test_oracle_residuals_equal_dense_sides_at_the_cap(monkeypatch, n_group, length,
                                                       mutation):
    # the longest word for each N <= 5 within d = 1024: d = 64, 729, 1024 and 625
    _check_against_dense(monkeypatch, n_group, length, mutation)


@pytest.mark.parametrize("mutation", [None, "exchange", "adjoint"])
@pytest.mark.parametrize("n_group, length", [(7, 3), (31, 2), (2, 7), (2, 10)])
def test_oracle_residuals_equal_dense_sides_beyond_the_old_caps(monkeypatch, n_group, length,
                                                                mutation):
    # N above 5 and words longer than 6, while the dense referee still
    # fits: d = 343, 961, 128 and 1024
    _check_against_dense(monkeypatch, n_group, length, mutation)


def _follow(a, n, factors, column):
    """The row that basis column ``column`` (L site states) reaches through
    the string operators of ``factors`` (charge, site), the rightmost first,
    and its exponent of zeta = exp(2 pi i / N), as Python ints:
    (U_1 ... U_{j-1} V_j)^c is U_1^c ... U_{j-1}^c V_j^c, which multiplies
    |r> by zeta^(a c (r_1 + ... + r_{j-1})) and moves r_j by c."""
    r, e = list(column), 0
    for c, j in reversed(factors):
        e += a * c * sum(r[:j])
        r[j] = (r[j] + c) % n
    return tuple(r), e


def _follow_dagger(a, n, factor, row):
    """The column and exponent of the dagger of one factor at basis state
    ``row``: the one column the factor sends to that row, with the phase
    conjugated."""
    c, j = factor
    column = list(row)
    column[j] = (column[j] - c) % n
    reached, e = _follow(a, n, [factor], column)
    assert reached == tuple(row)
    return tuple(column), -e


def _distance(x, y, n, ratio):
    """|A e - r B e| at one column e: 1 where the sides reach different
    rows, else 2 |sin(pi delta)| for delta the exact phase gap in turns."""
    (row_x, e_x), (row_y, e_y) = x, y
    if row_x != row_y:
        return 1.0
    return 2 * abs(math.sin(math.pi * ((Fraction(e_x - e_y, n) - ratio.turns) % 1)))


def _sampled_residuals(model, word, sites, columns):
    """Both residuals of `lattice_oracle(model, word, sites)` over the given
    basis columns only, each followed through each side's factors in
    Python ints: lower bounds on the residuals, for any d."""
    n = model.group_order
    a = int(model.omega.turns * n)
    factors = [(sym.charge, s) for sym, s in zip(word.factors, sites)]
    exchanged = []
    for i in range(len(factors) - 1):
        swapped = plektonlab.fields.exchange(word, i, model)
        moved = list(sites)
        moved[i], moved[i + 1] = moved[i + 1], moved[i]
        exchanged.append(([(sym.charge, s) for sym, s in zip(swapped.factors, moved)],
                          swapped.coeff / word.coeff))
    adjoints = [((plektonlab.fields.adjoint(sym).charge, s), (sym.charge, s))
                for sym, s in zip(word.factors, sites)]
    one = CyclotomicPhase.one()
    exch = adj = 0.0
    for column in columns:
        side = _follow(a, n, factors, column)
        for other, ratio in exchanged:
            exch = max(exch, _distance(side, _follow(a, n, other, column), n, ratio))
        for adjoint_factor, factor in adjoints:
            adj = max(adj, _distance(_follow(a, n, [adjoint_factor], column),
                                     _follow_dagger(a, n, factor, column), n, one))
    return exch, adj


@pytest.mark.parametrize("mutation", [None, "exchange", "adjoint"])
@pytest.mark.parametrize("n_group, length", [(7, 8), (11, 10), (13, 16)])
def test_column_sampler_referees_the_oracle_beyond_the_dense_referee(monkeypatch, n_group,
                                                                    length, mutation):
    # d = 5.8e6, 2.6e10 and 6.7e17: 202 basis columns each (all zero, all
    # N - 1 and 200 seeded).  A correct word reads exactly 0.0 on both
    # sides; each mutation is seen by the sampler, whose maximum is a lower
    # bound on the oracle's residual
    model = _model(n_group)
    _mutate(monkeypatch, mutation)
    word, sites = _seeded_word(n_group, length)
    rep = lattice_oracle(model, word)
    assert rep.dimension == n_group ** length
    rng = np.random.default_rng(n_group)
    columns = [[0] * length, [n_group - 1] * length]
    columns += rng.integers(0, n_group, (200, length)).tolist()
    sampled = _sampled_residuals(model, word, sites, columns)
    got = (rep.exchange_residual, rep.adjoint_residual)
    assert all(low <= high + 1e-12 for low, high in zip(sampled, got)), (sampled, got)
    if mutation is None:
        assert got == sampled == (0.0, 0.0)
    else:
        caught = sampled[0] if mutation == "exchange" else sampled[1]
        assert caught > 1.0 - 1e-12 and not rep.ok


def test_site_products_refuse_exponents_beyond_int64():
    # F factors of Z_N give exponents up to (N-1)^3 floor((F+1)^2 / 4): k
    # factors on site 1 and then F - k on site 0, all of charge N - 1, with
    # a = N - 1, at the column N - 1 of site 0.  At the largest N where that
    # fits int64, the worst word's exponents are exact (against `_follow`);
    # one more N is refused, by `_site_products` and so by the oracle
    top = 2 ** 63 - 1
    for length in (999, 1000):
        k = (length + 1) ** 2 // 4
        edge = round((top / k) ** (1 / 3)) + 2
        while (edge - 1) ** 3 * k > top:
            edge -= 1
        assert edge ** 3 * k > top
        for n in (edge, edge + 1):
            model = AnyonModel(n, CyclotomicPhase.from_pair(n - 1, n),
                               CyclotomicPhase.from_pair(n - 1, 2 * n), Fraction(n - 1, n))
            lat = ClockShiftLattice(model, 2)
            word = [(-1, 1)] * ((length + 1) // 2) + [(-1, 0)] * (length // 2)
            if n == edge + 1:
                with pytest.raises(OracleError, match=f"^{length} factors of Z_{n} are too "
                                                      "many for int64 exponents$"):
                    lat._site_products([word])
                continue
            rows, exps = lat._site_products([word])
            for column in ([n - 1, 0], [n - 1, n - 1], [n - 2, 1], [0, 0], [1, n - 1]):
                row, e = _follow(n - 1, n, word, column)
                assert (rows[0, 0, column[0]], rows[0, 1, column[1]]) == row
                assert exps[0, 1, column[1]] == 0  # no factor right of site 1
                assert exps[0, 0, column[0]] == e % n
    loc = fan(1)[0]
    big = AnyonModel(2 ** 21 + 1, CyclotomicPhase.from_pair(1, 2 ** 21 + 1),
                     CyclotomicPhase.from_pair(1, 2 ** 22 + 2), Fraction(1, 2 ** 21 + 1))
    with pytest.raises(OracleError, match="too many for int64"):
        lattice_oracle(big, FieldWord.of(FieldSymbol(1, I, loc)))


def _model(n_group):
    return AnyonModel(n_group, CyclotomicPhase(Fraction(1, n_group)),
                      CyclotomicPhase.from_pair(*_ROOTS.get(n_group, (1, 2 * n_group))),
                      Fraction(1, n_group))


# the longest word of each N <= 5 whose dense sides stay within d = 1024 or so
_MAX_LENGTH = {2: 6, 3: 6, 4: 5, 5: 4}


def test_oracle_residuals_equal_dense_sides_over_random_words(monkeypatch):
    # 400 seeded words, the first one on each admitted (N, length), with
    # default and explicit sites; every other word has a wrong exchange
    # coefficient and an identity adjoint, so most residuals compared are not
    # rounding noise.  Later lengths are the shorter of two draws: the dense
    # reference costs up to 0.3 s a word at the top of each ladder, which the
    # cap tests cover
    pairs = [(n, length) for n, top in _MAX_LENGTH.items() for length in range(1, top + 1)]
    rng = np.random.default_rng(20)
    nonzero = 0
    for k in range(400):
        if k < len(pairs):
            n_group, length = pairs[k]
        else:
            n_group = int(rng.integers(2, 6))
            length = int(rng.integers(1, _MAX_LENGTH[n_group] + 1, 2).min())
        cones = fan(length)
        locs = [cones[j] for j in rng.permutation(length)]
        word = FieldWord.of(*(FieldSymbol(int(c), I, loc)
                              for c, loc in zip(rng.integers(-3, 4, length), locs)),
                            coeff=CyclotomicPhase.from_pair(int(rng.integers(0, 6)), 6))
        explicit = rng.random() < 0.5
        sites = ([int(s) for s in rng.integers(0, length, length)] if explicit
                 else plektonlab.lattice._sites_by_angle(word))
        with monkeypatch.context() as m:
            if k % 2:
                _mutate(m, "exchange")
                _mutate(m, "adjoint")
            rep = lattice_oracle(_model(n_group), word, sites if explicit else None)
            want = _dense_residuals(_model(n_group), word, sites)
        _assert_matches_dense(rep, want)
        nonzero += max(want) > 0
    assert nonzero > 200


def test_oracle_reports_the_empty_and_one_factor_words(z3, semion):
    loc = fan(1)[0]
    sixth = CyclotomicPhase.from_pair(1, 6)
    assert lattice_oracle(z3, FieldWord.of()) == LatticeReport(3, 0.0, 0.0, 0)
    assert lattice_oracle(z3, FieldWord.of(coeff=sixth)) == LatticeReport(3, 0.0, 0.0, 0)
    one = FieldWord.of(FieldSymbol(2, I, loc), coeff=sixth)
    assert lattice_oracle(z3, one) == LatticeReport(3, 0.0, 0.0, 1)
    one = FieldWord.of(FieldSymbol(-3, I, loc))
    assert lattice_oracle(semion, one, [0]) == LatticeReport(4, 0.0, 0.0, 1)


def test_oracle_holds_no_dense_side_at_the_cap(semion):
    # Z_4 with 5 sites, d = 1024: expanding one comparison of two sides to
    # its columns takes 24 d bytes (an int exponent gap, its float distance
    # and a row mask per column), and the word's stack has five sides.  The
    # oracle expands none: it holds (15, 5, 4) int site products and at most
    # q gaps per comparison, so the peak stays below five expansions
    import tracemalloc

    side = 24 * 4 ** 5
    for charges, locs in (((1, 2, 3, 2, 1), fan(5)), ((-1, -2, 1, -2, -1), fan(5)[::-1])):
        word = FieldWord.of(*(FieldSymbol(c, I, loc) for c, loc in zip(charges, locs)))
        lattice_oracle(semion, word)  # first-call caches are not the oracle's sides
        tracemalloc.start()
        try:
            assert lattice_oracle(semion, word).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * side, peak


def test_oracle_calls_exchange_and_adjoint_once_per_identity(z3, monkeypatch):
    # the L-1 unchecked exchanges and the L adjoints, after one stacked
    # decision of the adjacent pairs and no decision of a pair on its own
    calls = {"_exchange": 0, "adjoint": 0, "_separated_many": 0}
    for module, name in ((plektonlab.lattice, "_exchange"), (plektonlab.lattice, "adjoint"),
                         (plektonlab.fields, "_separated_many")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(plektonlab.fields, "causally_separated", None)
    for length in range(6):
        calls.update(_exchange=0, adjoint=0, _separated_many=0)
        word = FieldWord.of(*(FieldSymbol(1, I, loc) for loc in fan(length)))
        assert lattice_oracle(z3, word).checks == max(length - 1, 0) + length
        assert calls == {"_exchange": max(length - 1, 0), "adjoint": length,
                         "_separated_many": 1}


def test_site_products_are_ints(z3, semion):
    # rows and exponents of zeta are exact: no float ever enters a side
    for model, n_sites in ((z3, 3), (semion, 5)):
        lat = ClockShiftLattice(model, n_sites)
        rows, exps = lat._site_products([[(1, 0), (-2, 2), (3, 1)], [(2, 1), (0, 0), (-1, 2)]])
        assert rows.shape == exps.shape == (2, n_sites, model.group_order)
        assert np.issubdtype(rows.dtype, np.integer)
        assert np.issubdtype(exps.dtype, np.integer)


def test_lattice_names_no_float_matrix_routine():
    # site products are built in closed form on ints, never by multiplying
    # or powering float matrices
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(plektonlab.lattice))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"linalg", "matrix_power"}


def test_oracle_refuses_a_ratio_too_fine_for_int64(z3, monkeypatch):
    # the exchanged sides are compared through their coefficient over the
    # word's: a ratio off by 1/q turn is read in units of 1/lcm(N, q) turn,
    # exactly while that fits int64, and refused once it does not
    def off_by(q):
        def exchanged(word, i, model):
            swapped = _exchange(word, i, model)
            return FieldWord(swapped.coeff * CyclotomicPhase.from_pair(1, q), swapped.factors)
        return exchanged

    word = FieldWord.of(*(FieldSymbol(1, I, loc) for loc in fan(3)),
                        coeff=CyclotomicPhase.from_pair(1, 2 ** 61 - 1))
    q = 2 ** 55 - 55  # k = 3 q fits int64 with room for four terms
    monkeypatch.setattr(plektonlab.lattice, "_exchange", off_by(q))
    rep = lattice_oracle(z3, word)
    assert rep.exchange_residual == pytest.approx(2 * math.sin(math.pi / q), rel=1e-12)
    assert rep.ok and rep.adjoint_residual == 0.0
    monkeypatch.setattr(plektonlab.lattice, "_exchange", off_by(2 ** 61 - 1))
    with pytest.raises(OracleError, match="too fine for int64"):
        lattice_oracle(z3, word)
