"""Acceptance criteria, one test per criterion.

Each test prints a single [AC-k] pass/fail line (run with -s to see them all)
and asserts the stated tolerances and runtime budgets.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from plektonlab import cones, fields, minkowski, wigner
from plektonlab.cones import (
    ReferenceFrame,
    cone_path,
    reflect_path,
    relative_winding,
    relative_winding_scan,
    standard_wedge_path,
)
from plektonlab.fields import (
    FieldSymbol,
    FieldWord,
    GradedOperator,
    ObservableWord,
    StateVector,
    adjoint,
    cpt_conjugate,
    cpt_conjugate_graded,
    exchange,
    graded_form,
    tomita_S,
    twisted_commutator_defect,
    vacuum_swap,
    vacuum_vector,
)
from plektonlab.lattice import lattice_oracle
from plektonlab.minkowski import MVec3, cover_rotation
from plektonlab.scenes import load_scene
from plektonlab.sectors import (
    AnyonModel,
    CyclotomicPhase,
    monodromy_prefactor,
    r_phase,
    sector_phase,
    twist_phase,
)
from plektonlab.suites import random_cover_element, random_separated_pair, random_symbol
from plektonlab.tolerances import LATTICE_TOL
from tests.conftest import ASSETS

TWO_PI = 2 * math.pi

Z3 = AnyonModel(3, CyclotomicPhase.from_pair(1, 3),
                CyclotomicPhase.from_pair(2, 3), Fraction(1, 3), mass=1.0)
FERMION = AnyonModel(2, CyclotomicPhase.from_pair(1, 2),
                     CyclotomicPhase.from_pair(1, 4), Fraction(1, 2), mass=1.0)


def report(tag, ok, detail=""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_winding_ground_truth():
    t0 = time.monotonic()
    scene = load_scene(ASSETS / "antipodal_scene.json")
    scene_ok = relative_winding(scene["C2"], scene["C1"]) == -1

    rng = np.random.default_rng(101)
    agree = 0
    for _ in range(1000):
        c2, c1 = random_separated_pair(rng)
        if relative_winding(c2, c1) == relative_winding_scan(c2, c1):
            agree += 1
    elapsed = time.monotonic() - t0
    report("AC-1", scene_ok and agree == 1000 and elapsed < 5.0,
           f"antipodal N=-1: {scene_ok}, oracle agreement {agree}/1000, {elapsed:.2f}s < 5s")


def test_criterion_2_antisymmetry_and_covariance():
    rng = np.random.default_rng(102)
    frame0 = ReferenceFrame(math.pi / 2)
    anti = cov = reb = 0
    for _ in range(1000):
        c2, c1 = random_separated_pair(rng)
        n = relative_winding(c2, c1)
        if n + relative_winding(c1, c2) == -1:
            anti += 1
        g = random_cover_element(rng)
        if relative_winding(cones.act(g, c2), cones.act(g, c1)) == n:
            cov += 1
        frame1 = ReferenceFrame(rng.uniform(-6, 6))
        if relative_winding(cones.rebase(c2, frame0, frame1),
                            cones.rebase(c1, frame0, frame1)) == n:
            reb += 1
    report("AC-2", anti == cov == reb == 1000,
           f"antisymmetry {anti}/1000, covariance {cov}/1000, rebase {reb}/1000")


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


def test_criterion_3_exchange_algebra():
    rng = np.random.default_rng(103)
    inv_ok = 0
    for _ in range(300):
        c2, c1 = random_separated_pair(rng)
        w = FieldWord.of(random_symbol(rng, c2, Z3), random_symbol(rng, c1, Z3))
        if exchange(exchange(w, 0, Z3), 0, Z3) == w:
            inv_ok += 1

    locs = [cone_path(MVec3(0, 0, 0), -1.5 + 1.1 * k, 0.12) for k in range(4)]
    syms = [FieldSymbol(c, ObservableWord.symbol("A"), loc)
            for c, loc in zip((1, 2, -1, 3), locs)]
    confluent = True
    routes = 0
    for perm in itertools.permutations(range(4)):
        word = FieldWord.of(*(syms[i] for i in perm))
        coeffs = set()
        for route in _all_reduced_routes(perm):
            out = word
            for i in route:
                out = exchange(out, i, Z3)
            coeffs.add(out.coeff)
            routes += 1
        confluent &= len(coeffs) == 1

    c2, c1 = locs[1], locs[0]
    w = FieldWord.of(FieldSymbol(1, ObservableWord.symbol("A"), c2),
                     FieldSymbol(1, ObservableWord.symbol("B"), c1))
    fermi_ok = exchange(w, 0, FERMION).coeff == CyclotomicPhase.from_pair(1, 2)

    mono = 0
    for _ in range(1000):
        alpha = int(rng.integers(-8, 9))
        cc1 = int(rng.integers(-6, 7))
        cc2 = int(rng.integers(-6, 7))
        n = int(rng.integers(-5, 6))
        pre = monodromy_prefactor(Z3, alpha, alpha + cc1, alpha + cc1 + cc2,
                                  alpha + cc2, n)
        if pre == Z3.omega ** (2 * cc1 * cc2 * n):
            mono += 1
    report("AC-3", inv_ok == 300 and confluent and fermi_ok and mono == 1000,
           f"involution {inv_ok}/300, {routes} confluent routes, "
           f"fermion -1: {fermi_ok}, monodromy {mono}/1000")


def test_criterion_4_twist():
    rng = np.random.default_rng(104)
    vanish = 0
    trials = 150
    for _ in range(trials):
        c2, c1 = random_separated_pair(rng)
        f2 = random_symbol(rng, c2, Z3)
        f1 = random_symbol(rng, c1, Z3)
        if twisted_commutator_defect(f2, f1, (c2, c1), Z3) == (0, 0, 0):
            vanish += 1

    wedge_ok = True
    for model in (Z3, FERMION):
        for mu, expected_n in ((math.pi / 2, -1), (-math.pi / 2, 0)):
            frame = ReferenceFrame(mu)
            we = standard_wedge_path(frame)
            n = relative_winding(we, reflect_path(we, frame))
            wedge_ok &= n == expected_n
            sgn = -1 if n == -1 else 1
            for q in range(-6, 7):
                wedge_ok &= twist_phase(model, q, n) == model.omega_sqrt ** (sgn * q * q)
    report("AC-4", vanish == trials and wedge_ok,
           f"twisted locality {vanish}/{trials}, wedge twist values both frames: {wedge_ok}")


def test_criterion_5_pseudo_tomita():
    rng = np.random.default_rng(105)
    frame = ReferenceFrame(math.pi / 2)
    ok = 0
    for _ in range(1000):
        center = rng.uniform(-1.0, 1.0)
        half = rng.uniform(0.05, min(0.4, (math.pi / 2 - abs(center)) * 0.8))
        loc = cone_path(MVec3(0.0, abs(rng.normal(1.0, 0.3)) + 0.5,
                              rng.normal(0.0, 0.2)), center, half)
        v = StateVector(int(rng.integers(-5, 6)),
                        ObservableWord.symbol("A").gamma(int(rng.integers(-2, 3))),
                        loc, CyclotomicPhase.from_pair(int(rng.integers(0, 12)), 12))
        if tomita_S(tomita_S(v, Z3, frame), Z3, frame) == v:
            ok += 1
    loc = cone_path(MVec3(0.0, 1.0, 0.0), 0.0, 0.2)
    v0 = StateVector(0, ObservableWord.symbol("A") * ObservableWord.symbol("B"), loc)
    star_ok = tomita_S(v0, Z3, frame).obs == v0.obs.star()
    report("AC-5", ok == 1000 and star_ok,
           f"S^2 identity {ok}/1000, charge-0 star map: {star_ok}")


def test_criterion_6_cpt():
    rng = np.random.default_rng(106)
    frame = ReferenceFrame(math.pi / 2)
    invol = geo = 0
    for _ in range(1000):
        c2, c1 = random_separated_pair(rng)
        sym = random_symbol(rng, c1, Z3)
        op, jloc = cpt_conjugate(sym, Z3, frame)
        if op.shift == -sym.charge and jloc.same_path(reflect_path(sym.loc, frame)):
            geo += 1
        g = GradedOperator(sym.charge, Fraction(int(rng.integers(-6, 7)), 12),
                           Fraction(int(rng.integers(-6, 7)), 12),
                           Fraction(int(rng.integers(-6, 7)), 12), sym.obs)
        if cpt_conjugate_graded(cpt_conjugate_graded(g, Z3, frame), Z3, frame) == g:
            invol += 1

    c1 = cone_path(MVec3(0, 0, 0), 0.0, 0.1)
    c2 = cone_path(MVec3(0, 0, 0), -math.pi, 0.1)
    rejected = 0
    for k in range(100):
        charge = int(rng.integers(-4, 5))
        f2 = FieldSymbol(charge, ObservableWord.symbol("A"), c2)
        f1 = FieldSymbol(charge, ObservableWord.symbol("B"), c1)
        overlap = vacuum_swap((f2, f1), Z3)
        try:
            vacuum_swap((overlap.bra, overlap.ket), Z3)
        except ValueError:
            rejected += 1
    report("AC-6", invol == 1000 and geo == 1000 and rejected == 100,
           f"Theta^2 {invol}/1000, geometric action {geo}/1000, "
           f"swap guard {rejected}/100")


def test_criterion_7_lattice_oracle():
    t0 = time.monotonic()
    worst = 0.0
    roots = {2: (1, 4), 3: (2, 3), 4: (1, 8)}
    for n_group in (2, 3, 4):
        k, m = roots[n_group]
        model = AnyonModel(n_group, CyclotomicPhase(Fraction(1, n_group)),
                           CyclotomicPhase.from_pair(k, m),
                           Fraction(1, n_group))
        rng = np.random.default_rng(107 + n_group)
        for n_sites in (2, 5):
            locs = [cone_path(MVec3(0, 0, 0), -1.6 + 0.7 * j, 0.1)
                    for j in range(n_sites)]
            charges = [int(rng.integers(-2, 3)) or 1 for _ in range(n_sites)]
            word = FieldWord.of(*(FieldSymbol(c, ObservableWord.identity(), loc)
                                  for c, loc in zip(charges, locs)))
            rep = lattice_oracle(model, word)
            worst = max(worst, rep.exchange_residual, rep.adjoint_residual)
    elapsed = time.monotonic() - t0
    report("AC-7", worst < LATTICE_TOL and elapsed < 30.0,
           f"max residual {worst:.2e} < {LATTICE_TOL:g}, {elapsed:.1f}s < 30s")


def test_criterion_8_wigner_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(108)
    pts = wigner.sample_shell(1.0, rng, 10)
    psi = wigner.GaussianSum((1.0, 0.4 - 0.3j), ((0.4, -0.2), (-0.3, 0.5)), (1.0, 1.6))

    coc = 0.0
    for _ in range(100):
        g1 = random_cover_element(rng, translations=False)
        g2 = random_cover_element(rng, translations=False)
        coc = max(coc, wigner.verify_cocycle(g1, g2, pts))

    rot = 0.0
    for s in (0.0, 0.5, 1.0 / 3.0):
        u = wigner.apply_rep(minkowski.ZERO_VEC, cover_rotation(TWO_PI), s, psi)
        expected = np.exp(2j * math.pi * s) * psi.evaluate(pts)
        rot = max(rot, float(np.abs(u.evaluate(pts) - expected).max()))

    jres = 0.0
    for _ in range(5):
        g = random_cover_element(rng, translations=False)
        res = wigner.verify_j_relations(g, 0.5, psi, pts)
        jres = max(jres, *res.values())

    n0 = wigner.shell_norm2(psi, 1.0)
    g = random_cover_element(rng, translations=False)
    n1 = wigner.shell_norm2(
        wigner.apply_rep(MVec3(0.2, -0.1, 0.3), g, 1.0 / 3.0, psi), 1.0)
    uni = abs(n1 - n0) / n0

    elapsed = time.monotonic() - t0
    report("AC-8",
           coc < 1e-9 and rot < 1e-9 and jres < 1e-8 and uni < 1e-6 and elapsed < 60.0,
           f"cocycle {coc:.2e} < 1e-9, rotation {rot:.2e} < 1e-9, "
           f"j-relations {jres:.2e} < 1e-8, unitarity {uni:.2e} < 1e-6, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_9_spin_statistics_cross_module():
    rng = np.random.default_rng(109)
    pts = wigner.sample_shell(1.0, rng, 15)
    psi = wigner.GaussianSum((1.0,), ((0.2, -0.4),), (1.1,))
    eig = sector_phase(Z3, 1).to_complex()
    u = wigner.apply_rep(minkowski.ZERO_VEC, cover_rotation(TWO_PI),
                         float(Z3.spin), psi)
    res = float(np.abs(u.evaluate(pts) - eig * psi.evaluate(pts)).max())
    report("AC-9", res < 1e-9,
           f"|U(r(2pi)) - omega| = {res:.2e} < 1e-9 for s=1/3, omega=exp(2pi i/3)")
