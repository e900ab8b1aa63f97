import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plektonlab.minkowski import (
    LorentzMatrix,
    MVec3,
    ZERO_VEC,
    cover_boost1,
    cover_compose,
    cover_rotation,
    polar_rotation_angle,
)
from plektonlab.cli import main
from plektonlab.sectors import sector_phase
from plektonlab.wigner import (
    GaussianSum,
    WaveFunction,
    apply_j,
    apply_rep,
    sample_shell,
    shell_norm2,
    shell_points,
    standard_boost,
    verify_cocycle,
    verify_j_relations,
    wigner_rotation,
)
from tests import su11
from tests.conftest import ASSETS
from tests.test_minkowski import _mild_chain

TWO_PI = 2 * math.pi


def rnd_lorentz(rng):
    return cover_compose(
        cover_rotation(rng.uniform(-6, 6)),
        cover_compose(cover_boost1(rng.uniform(-1.2, 1.2)),
                      cover_rotation(rng.uniform(-3, 3))),
    )


PSI = GaussianSum((1.0, 0.4 - 0.3j), ((0.4, -0.2), (-0.3, 0.5)), (1.0, 1.6))


def test_mass_shell_point():
    p = shell_points(2.0, [0.3, -0.4])
    assert p.shape == (3,) and p[0] == pytest.approx(math.sqrt(4.0 + 0.25))
    assert p[0] ** 2 - p[1] ** 2 - p[2] ** 2 == pytest.approx(4.0, abs=1e-12)


def test_standard_boost_properties():
    rest = shell_points(1.5, [0.0, 0.0])
    assert np.abs(standard_boost(rest) - np.eye(3)).max() < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = shell_points(1.0, rng.uniform(-2, 2, 2))
        b = standard_boost(p)
        assert np.abs(b @ np.array([1.0, 0, 0]) - p).max() < 1e-12
        assert np.abs(b - b.T).max() < 1e-12
        assert polar_rotation_angle(LorentzMatrix(b)) == pytest.approx(0.0, abs=1e-12)


def test_wigner_rotation_at_rest():
    rest = shell_points(1.0, [0.0, 0.0])
    for phi in (0.4, -1.3, TWO_PI, 2 * TWO_PI):
        assert wigner_rotation(cover_rotation(phi), rest) == pytest.approx(phi, abs=1e-10)


def test_wigner_rotation_collinear_boost():
    p = shell_points(1.0, [0.9, 0.0])
    assert wigner_rotation(cover_boost1(0.8), p) == pytest.approx(0.0, abs=1e-12)


def test_wigner_rotation_full_turn_everywhere():
    rng = np.random.default_rng(1)
    pts = sample_shell(1.0, rng, 25)
    om = wigner_rotation(cover_rotation(TWO_PI), pts)
    assert np.abs(om - TWO_PI).max() < 1e-9


def test_cocycle_relation():
    rng = np.random.default_rng(2)
    pts = sample_shell(1.0, rng, 10)
    ident = cover_rotation(0.0)
    g = rnd_lorentz(rng)
    assert verify_cocycle(g, ident, pts) < 1e-12
    # pure rotations add exactly
    assert verify_cocycle(cover_rotation(1.3), cover_rotation(-2.6), pts) < 1e-10
    for _ in range(10):
        assert verify_cocycle(rnd_lorentz(rng), rnd_lorentz(rng), pts) < 1e-9


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_wigner_rotation_along_long_chains_agrees_with_mpmath(seed):
    # the 200-step chains walk g up to rapidity 23-26, where forming L p in
    # floats cancels catastrophically: Omega read off the chart stays finite
    # and within 1e-13 of the 80-digit lift of B_{Lp}^-1 g B_p at every step
    rng = np.random.default_rng(100 + seed)
    for acc, _ in _mild_chain(seed):
        pts = shell_points(1.0, rng.uniform(-2.5, 2.5, (12, 2)))
        got = wigner_rotation(acc, pts)
        assert np.isfinite(got).all()
        g = su11.chart(acc.angle, acc.rapidity, acc.direction)
        assert max(abs(float(x) - w) for x, w in zip(got, su11.wigner(g, pts))) <= 1e-13
    assert acc.rapidity > 20.0


def test_apply_rep_identity_and_translation():
    rng = np.random.default_rng(3)
    pts = sample_shell(1.0, rng, 12)
    ident = cover_rotation(0.0)
    same = apply_rep(ZERO_VEC, ident, 0.7, PSI)
    assert np.abs(same.evaluate(pts) - PSI.evaluate(pts)).max() < 1e-14
    a = MVec3(0.7, -0.2, 0.4)
    moved = apply_rep(a, ident, 0.7, PSI)
    phase = np.exp(1j * (a.x0 * pts[:, 0] - a.x1 * pts[:, 1] - a.x2 * pts[:, 2]))
    assert np.abs(moved.evaluate(pts) - phase * PSI.evaluate(pts)).max() < 1e-13


def test_norm_preservation():
    rng = np.random.default_rng(4)
    n0 = shell_norm2(PSI, 1.0)
    for _ in range(2):
        g = rnd_lorentz(rng)
        a = MVec3(*rng.normal(0, 0.3, 3))
        n1 = shell_norm2(apply_rep(a, g, 1.0 / 3.0, PSI), 1.0)
        assert abs(n1 - n0) / n0 < 1e-6


class _Decaying(WaveFunction):
    """|psi|^2 = exp(-b omega)."""

    def __init__(self, b):
        self.b = b

    def evaluate(self, pts):
        return np.exp(-0.5 * self.b * pts[..., 0])


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_shell_rule_integrates_the_closed_form(b, mass):
    # int exp(-b omega) d^2 p / (2 omega) = pi exp(-b m) / b
    want = math.pi * math.exp(-b * mass) / b
    assert abs(shell_norm2(_Decaying(b), mass) - want) <= 1e-12 * want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1.2), st.floats(-math.pi, math.pi), st.floats(-20.0, 20.0),
       st.floats(-1.0, 1.0), st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_boosted_states_keep_their_norm(rapidity, direction, angle, spin, a):
    # every boost the suites draw (rapidity up to 1.2); the rule's range is
    # stated in `wigner._shell_rule`
    g = cover_compose(cover_rotation(angle + direction),
                      cover_compose(cover_boost1(rapidity), cover_rotation(-direction)))
    n0 = shell_norm2(PSI, 1.0)
    n1 = shell_norm2(apply_rep(MVec3(*a), g, spin, PSI), 1.0)
    assert abs(n1 - n0) <= 1e-12 * n0


def test_verify_all_passes_at_quarter_sweep_seed_3(monkeypatch, capsys):
    # the [-8, 8]^2 box rule read unitarity 7.3e-6 here, against 1e-6
    monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.25")
    code = main(["verify", "--suite", "all", "--model", str(ASSETS / "z3_anyon.json"),
                 "--scene", str(ASSETS / "antipodal_scene.json"), "--seed", "3"])
    assert code == 0, capsys.readouterr().out


def test_apply_j_involution_and_antilinearity():
    rng = np.random.default_rng(5)
    pts = sample_shell(1.0, rng, 15)
    jj = apply_j(apply_j(PSI))
    assert np.abs(jj.evaluate(pts) - PSI.evaluate(pts)).max() < 1e-14
    real_even = GaussianSum((1.0,), ((0.0, 0.0),), (1.2,))
    assert np.abs(apply_j(real_even).evaluate(pts) - real_even.evaluate(pts)).max() < 1e-14
    lhs = apply_j(GaussianSum(tuple(1j * w for w in PSI.weights), PSI.centers,
                              PSI.widths)).evaluate(pts)
    rhs = -1j * apply_j(PSI).evaluate(pts)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_rotation_2pi_eigenvalue_per_spin():
    rng = np.random.default_rng(6)
    pts = sample_shell(1.0, rng, 15)
    for s, expected in ((0.0, 1.0), (0.5, -1.0), (1.0 / 3.0, cmath.exp(2j * math.pi / 3))):
        for k in (1, 2, 3):
            rot = apply_rep(ZERO_VEC, cover_rotation(TWO_PI * k), s, PSI)
            res = np.abs(rot.evaluate(pts) - expected**k * PSI.evaluate(pts)).max()
            assert res < 1e-9


def test_j_relations(z3):
    rng = np.random.default_rng(7)
    pts = sample_shell(1.0, rng, 12)
    worst = 0.0
    for _ in range(5):
        res = verify_j_relations(rnd_lorentz(rng), 0.5, PSI, pts)
        worst = max(worst, *res.values())
    assert worst < 1e-8
    # fractional spin matches the sector phase of the Z3 model
    res = verify_j_relations(rnd_lorentz(rng), float(z3.spin), PSI, pts)
    assert max(res.values()) < 1e-8
    rot = apply_rep(ZERO_VEC, cover_rotation(TWO_PI), float(z3.spin), PSI)
    eig = sector_phase(z3, 1).to_complex()
    assert np.abs(rot.evaluate(pts) - eig * PSI.evaluate(pts)).max() < 1e-9


def test_step_size_independence():
    from plektonlab.continuation import wigner_angles

    rng = np.random.default_rng(8)
    pts = sample_shell(1.0, rng, 10)
    g = rnd_lorentz(rng)
    coarse = wigner_angles(g, pts, initial_steps=64)
    fine = wigner_angles(g, pts, initial_steps=128)
    assert np.abs(coarse - fine).max() < 1e-10
    assert np.abs(wigner_rotation(g, pts) - fine).max() < 1e-9


def test_shell_points_helper():
    pts = shell_points(2.0, np.array([[0.3, -0.4], [1.0, 0.2]]))
    mink = pts[:, 0] ** 2 - pts[:, 1] ** 2 - pts[:, 2] ** 2
    assert np.abs(mink - 4.0).max() < 1e-12
