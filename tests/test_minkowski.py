import math

import numpy as np
import pytest

from plektonlab.minkowski import (
    CoveringLorentz,
    CoveringPoincare,
    LorentzMatrix,
    MVec3,
    _chart,
    cover_boost1,
    cover_compose,
    cover_inverse,
    cover_rotation,
    minkowski_inner,
    polar_rotation_angle,
    reflect_conjugate,
    rotation_matrix,
)
from tests import su11

EPS = np.finfo(float).eps


def boost1_matrix(t):
    """The boost along x1 with rapidity t as a validated matrix."""
    ch, sh = math.cosh(t), math.sinh(t)
    return LorentzMatrix([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


def rnd_element(rng, translations=True):
    g = cover_compose(
        cover_rotation(rng.uniform(-7, 7)),
        cover_compose(cover_boost1(rng.uniform(-1.5, 1.5)),
                      cover_rotation(rng.uniform(-3, 3))),
    )
    if translations:
        shift = MVec3(*rng.normal(0, 1, 3))
        g = cover_compose(CoveringPoincare(shift, CoveringLorentz.identity()), g)
    return g


def test_inner_product_signature():
    assert minkowski_inner(MVec3(1, 0, 0), MVec3(1, 0, 0)) == 1.0
    assert minkowski_inner(MVec3(0, 1, 0), MVec3(0, 1, 0)) == -1.0
    assert minkowski_inner(MVec3(1, 1, 0), MVec3(1, 1, 0)) == 0.0


def test_polar_rotation_angle_basic():
    assert polar_rotation_angle(LorentzMatrix(np.eye(3))) == 0.0
    assert polar_rotation_angle(rotation_matrix(math.pi / 3)) == pytest.approx(math.pi / 3, abs=1e-14)
    assert polar_rotation_angle(boost1_matrix(1.3)) == pytest.approx(0.0, abs=1e-14)


def test_polar_rotation_angle_mixed():
    m = LorentzMatrix(rotation_matrix(0.8).m @ boost1_matrix(0.9).m)
    assert polar_rotation_angle(m) == pytest.approx(0.8, abs=1e-12)
    # boost-first factorisation has a different polar angle in general
    m2 = boost1_matrix(0.9).m @ rotation_matrix(0.8).m
    s = np.linalg.eigvalsh(m2.T @ m2)
    assert np.all(s > 0)


def test_non_lorentz_rejected():
    with pytest.raises(ValueError):
        LorentzMatrix(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        LorentzMatrix(-np.eye(3))  # not orthochronous


def test_strong_boost_negative_controls():
    # the determinant by cofactors must still reject at rapidity 5, where the
    # entries reach 74 and every bound has grown by max(1, |L|^2)
    b = cover_compose(cover_rotation(0.7),
                      cover_compose(cover_boost1(5.0), cover_rotation(-0.7))).matrix.m
    cases = [
        (b @ np.diag([1.0, 1.0, -1.0]), "not proper"),
        (-b, "not proper"),  # det(-B) = -1 in three dimensions
        (b @ np.diag([-1.0, -1.0, 1.0]), "not orthochronous"),
        (b + 1e-6 * np.random.default_rng(0).standard_normal((3, 3)),
         "does not preserve the metric"),
    ]
    for m, message in cases:
        with pytest.raises(ValueError, match=message):
            LorentzMatrix(m)


@pytest.mark.parametrize("make, message", [
    (lambda: LorentzMatrix(np.full((3, 3), math.nan)), "not finite"),
    (lambda: LorentzMatrix(np.diag([math.inf, 1.0, 1.0])), "not finite"),
    (lambda: cover_boost1(math.inf), "not finite"),
    (lambda: cover_boost1(math.nan), "not finite"),
    (lambda: LorentzMatrix(np.diag([1e200, 1.0, 1.0])), "too large"),
    (lambda: cover_boost1(800.0), "overflows"),
    (lambda: cover_rotation(math.nan), "not finite"),
    (lambda: cover_rotation(-math.inf), "not finite"),
    (lambda: CoveringLorentz(LorentzMatrix(np.eye(3)), math.nan), "not finite"),
    (lambda: CoveringLorentz(LorentzMatrix(np.eye(3)), math.inf), "not finite"),
])
def test_non_finite_lorentz_data_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def _rotation_angles():
    """+-0.0, +-2 pi m for m = 1 to 1e15 and 200 seeded angles of sizes 1e-3 to 1e6."""
    rng = np.random.default_rng(31)
    far = [s * 2.0 * math.pi * 10 ** k for k in range(16) for s in (1, -1)]
    return [0.0, -0.0, *far, *(rng.uniform(-1, 1, 200) * 10.0 ** rng.uniform(-3, 6, 200)).tolist()]


def test_cover_rotation_is_the_matrix_built_element_bit_for_bit():
    for angle in _rotation_angles():
        new, old = cover_rotation(angle), CoveringLorentz(rotation_matrix(angle), angle)
        assert ([float.hex(x) for x in (new.angle, new.rapidity, new.direction)]
                == [float.hex(x) for x in (old.angle, old.rapidity, old.direction)])
        assert new.matrix.m.tobytes() == old.matrix.m.tobytes()


def test_cover_rotation_builds_no_lorentz_matrix(monkeypatch):
    def refuse(self, m):
        raise AssertionError("cover_rotation built a LorentzMatrix")

    monkeypatch.setattr(LorentzMatrix, "__init__", refuse)
    for angle in _rotation_angles():
        assert cover_rotation(angle).angle == angle
    with pytest.raises(AssertionError, match="built a LorentzMatrix"):
        rotation_matrix(1.0)


def _rapidities():
    rng = np.random.default_rng(8)
    ts = [0.0, -0.0, 5e-324, -1e-300, 1e-8, 0.5, -3.0, 26.0, -400.0, 710.0, -710.0]
    return ts + [float(t) for t in rng.uniform(-30, 30, 200)]


def test_cover_boost1_is_built_in_the_chart():
    # (0, |t|, 0 or pi); beside the matrix-built element its rapidity
    # |t| may differ from asinh|sinh t| in the last bits, nothing else does
    for t in _rapidities():
        g = cover_boost1(t)
        want = _chart(0.0, abs(t), math.pi if math.copysign(1.0, t) < 0 else 0.0)
        assert ([float.hex(x) for x in (g.angle, g.rapidity, g.direction)]
                == [float.hex(x) for x in (want.angle, want.rapidity, want.direction)])
        if abs(t) < 350:  # the matrix-built element needs |L|^2 in float range
            old = CoveringLorentz(boost1_matrix(t), 0.0)
            assert (g.angle, g.direction) == (old.angle, old.direction)
            assert abs(g.rapidity - old.rapidity) <= 4 * EPS * max(1.0, abs(t))
            assert g.matrix.is_close(old.matrix, 1e-12 * math.cosh(t))


def test_cover_boost1_builds_no_lorentz_matrix(monkeypatch):
    def refuse(self, m):
        raise AssertionError("cover_boost1 built a LorentzMatrix")

    monkeypatch.setattr(LorentzMatrix, "__init__", refuse)
    for t in _rapidities():
        assert cover_boost1(t).rapidity == abs(t)


@pytest.mark.parametrize("t, message", [
    (math.nan, "rapidity nan is not finite"), (math.inf, "rapidity inf is not finite"),
    (-math.inf, "rapidity -inf is not finite"), (711.0, "rapidity 711.0 overflows"),
    (-1e300, "rapidity -1e[+]300 overflows")])
def test_cover_boost1_refuses_a_rapidity_with_no_float_boost(t, message):
    with pytest.raises(ValueError, match=message):
        cover_boost1(t)


def test_rotation_cover_examples():
    g = cover_rotation(2 * math.pi)
    assert g.matrix.is_close(LorentzMatrix(np.eye(3)), 1e-15)
    assert g.angle == 2 * math.pi
    assert cover_rotation(0.0).is_close(CoveringLorentz.identity())


def test_boost_coordinates():
    t = 0.83
    b = cover_boost1(t)
    x = MVec3(1.2, -0.4, 0.7)
    y = b.matrix.apply(x)
    assert y.x0 == pytest.approx(math.cosh(t) * x.x0 + math.sinh(t) * x.x1, abs=1e-14)
    assert y.x1 == pytest.approx(math.sinh(t) * x.x0 + math.cosh(t) * x.x1, abs=1e-14)
    assert y.x2 == x.x2
    assert b.angle == 0.0


def test_double_full_rotation_lift():
    g = cover_compose(cover_rotation(2 * math.pi), cover_rotation(2 * math.pi))
    assert g.matrix.is_close(LorentzMatrix(np.eye(3)), 1e-14)
    assert g.angle == pytest.approx(4 * math.pi, abs=1e-12)


def test_compose_with_identity():
    rng = np.random.default_rng(0)
    g = rnd_element(rng)
    assert cover_compose(g, CoveringPoincare.identity()).is_close(g, 1e-12)
    assert cover_compose(CoveringPoincare.identity(), g).is_close(g, 1e-12)


def test_rotation_conjugates_boost():
    # r(pi) b1(t) r(-pi) = b1(-t) with trivial lift
    t = 0.7
    g = cover_compose(cover_rotation(math.pi),
                      cover_compose(cover_boost1(t), cover_rotation(-math.pi)))
    assert g.matrix.is_close(boost1_matrix(-t), 1e-12)
    assert g.angle == pytest.approx(0.0, abs=1e-9)


def test_compose_matches_fine_step_oracle():
    # closed-form lift against continuation with a forced fine subdivision
    from tests.test_continuation import compose_angle

    rng = np.random.default_rng(42)
    for _ in range(4):
        g1 = rnd_element(rng, translations=False)
        g2 = rnd_element(rng, translations=False)
        prod = cover_compose(g1, g2)
        dense = compose_angle(g1, g2, initial_steps=2048)
        assert prod.angle == pytest.approx(dense, abs=1e-9)


def test_associativity():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b, c = (rnd_element(rng) for _ in range(3))
        left = cover_compose(cover_compose(a, b), c)
        right = cover_compose(a, cover_compose(b, c))
        assert abs(left.lorentz.angle - right.lorentz.angle) < 1e-9
        assert left.lorentz.matrix.is_close(right.lorentz.matrix, 1e-10)
        d = left.translation - right.translation
        assert max(abs(d.x0), abs(d.x1), abs(d.x2)) < 1e-10


def test_projection_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(40):
        a, b = rnd_element(rng, False), rnd_element(rng, False)
        prod = cover_compose(a, b)
        assert np.abs(prod.matrix.m - a.matrix.m @ b.matrix.m).max() < 1e-12


def test_center_commutes():
    rng = np.random.default_rng(5)
    for n in (-2, -1, 1, 2):
        z = cover_rotation(2 * math.pi * n)
        g = rnd_element(rng, translations=False)
        left = cover_compose(z, g)
        right = cover_compose(g, z)
        assert left.matrix.is_close(g.matrix, 1e-12)
        assert left.angle == pytest.approx(g.angle + 2 * math.pi * n, abs=1e-9)
        assert right.angle == pytest.approx(left.angle, abs=1e-9)


def test_pure_rotation_matches_boost_factor_reference():
    # reference: the boost factor R(-theta) L of the polar decomposition is
    # the identity to within 1e-12
    def reference(g):
        b = rotation_matrix(-polar_rotation_angle(g.matrix)).m @ g.matrix.m
        return bool(np.abs(b - np.eye(3)).max() <= 1e-12)

    rng = np.random.default_rng(12)

    def turned_boost(t):
        return cover_compose(cover_rotation(rng.uniform(-7, 7)),
                             cover_compose(cover_boost1(t), cover_rotation(rng.uniform(-7, 7))))

    cases = {True: [], False: []}
    for _ in range(40):
        chain = cover_rotation(rng.uniform(-20, 20))
        for _ in range(5):
            chain = cover_compose(chain, cover_rotation(rng.uniform(-20, 20)))
        cases[True] += [chain, turned_boost(1e-13 * rng.choice((-1, 1)))]
        cases[False] += [turned_boost(1e-11 * rng.choice((-1, 1))),
                         rnd_element(rng, translations=False)]
    for expected, elements in cases.items():
        for g in elements:
            assert g.is_pure_rotation() == reference(g) == expected


def test_inverse():
    rng = np.random.default_rng(6)
    for _ in range(15):
        g = rnd_element(rng)
        e = cover_compose(g, cover_inverse(g))
        assert e.is_close(CoveringPoincare.identity(), 1e-9)


def test_inverse_at_rapidity_5():
    # the rows of this matrix miss the metric by more than MAT_TOL unless
    # the inverse is renormalised
    g = cover_compose(cover_rotation(5.0),
                      cover_compose(cover_boost1(5.0), cover_rotation(1.0)))
    inv = cover_inverse(g)
    assert inv.angle == -g.angle
    scale = float(np.abs(g.matrix.m).max()) ** 2
    assert np.abs(inv.matrix.m @ g.matrix.m - np.eye(3)).max() <= 1e-12 * scale
    assert cover_compose(g, inv).angle == pytest.approx(0.0, abs=1e-9)


def _strong(rapidity):
    return cover_compose(cover_rotation(0.4),
                         cover_compose(cover_boost1(rapidity), cover_rotation(-1.1)))


def test_strong_boost_times_its_inverse_composes():
    # g g^-1 is near the identity, but its entries carry eps |g|^2, so the
    # product is checked against its factors' L00_1 L00_2, not its own size,
    # and its angle is read off its spatial block: the closed form would
    # multiply that error by about |g|
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a, b = rng.uniform(-3, 3, 2)
        g = cover_compose(cover_rotation(a),
                          cover_compose(cover_boost1(rng.uniform(-10, 10)), cover_rotation(b)))
        e = cover_compose(g, cover_inverse(g))
        size = np.abs(g.matrix.m).max() ** 2
        assert np.abs(e.matrix.m - np.eye(3)).max() <= 1e-12 * size
        assert abs(e.angle) <= 1e-15 * size


def test_near_cancelling_strong_boosts_keep_the_lift():
    # g (g^-1 h) is h up to float error: about eps |g|^2 |h| once the angle
    # comes from the product's spatial block, not the closed form's eps |g|^3
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a, b, c, d = rng.uniform(-3, 3, 4)
        g = cover_compose(cover_rotation(a),
                          cover_compose(cover_boost1(rng.uniform(-8, 8)), cover_rotation(b)))
        h = cover_compose(cover_rotation(c),
                          cover_compose(cover_boost1(rng.uniform(-2, 2)), cover_rotation(d)))
        gh = cover_compose(g, cover_compose(cover_inverse(g), h))
        assert abs(gh.angle - h.angle) <= 1e-14 * g.matrix.m[0, 0] ** 2 * h.matrix.m[0, 0]


@pytest.mark.parametrize("boost", [5e-7, 1e-6, 2e-6, 1e-5])
def test_near_cancelling_strong_boosts_at_the_polar_branch_switch(boost):
    # g (g^-1 b1(boost)) is b1(boost) with entries off by eps |g|: the chart
    # carries the float error of its factors, about eps L00, and no more,
    # even where the matrix's polar angle changes branch
    g = _strong(10.0)
    gh = cover_compose(g, cover_compose(cover_inverse(g), cover_boost1(boost)))
    ref = su11.compose(su11.chart(g.angle, g.rapidity, g.direction),
                       su11.inverse(su11.chart(g.angle, g.rapidity, g.direction)),
                       su11.boost1(boost))
    bound = 8.0 * EPS * g.matrix.m[0, 0]
    assert max(su11.chart_errors(gh, ref)) <= bound
    assert np.abs(gh.matrix.m - su11.matrix(ref)).max() <= bound
    assert abs(gh.angle) <= bound


@pytest.mark.parametrize("rapidity, push, message", [
    (2.0, lambda m: m * (1 + 1e-6), "does not preserve the metric"),
    (8.0, lambda m: m * (1 + 1e-3), "does not preserve the metric"),
    (10.0, lambda m: m * 1.5, "does not preserve the metric"),
    (10.0, lambda m: m @ np.diag([1.0, 1.0, -1.0]), "not proper"),
])
def test_a_product_pushed_off_the_group_is_rejected(rapidity, push, message):
    # products cannot leave the group, so the public constructor is where
    # a matrix meets the checks: the product's own matrix passes them, the
    # pushed one does not
    gh = cover_compose(_strong(rapidity), cover_rotation(0.3))
    back = CoveringLorentz(LorentzMatrix(gh.matrix.m), gh.angle)
    assert np.abs(back.matrix.m - gh.matrix.m).max() <= 1e-12 * gh.matrix.m[0, 0]
    with pytest.raises(ValueError, match=message):
        CoveringLorentz(LorentzMatrix(push(gh.matrix.m)), gh.angle)


@pytest.mark.parametrize("rapidity, partner", [(2.0, None), (10.0, 0.3)])
def test_a_pushed_lift_is_rejected(rapidity, partner):
    # the product's lift agrees with the 80-digit product to 1e-12; moved by
    # 1e-3 it no longer projects to the product's matrix
    g = _strong(rapidity)
    h = g if partner is None else cover_rotation(partner)
    gh = cover_compose(g, h)
    ref = su11.compose(*(su11.chart(x.angle, x.rapidity, x.direction) for x in (g, h)))
    assert max(su11.chart_errors(gh, ref)) <= 1e-12
    for pushed in (gh.angle + 1e-3, gh.angle - 1e-3):
        with pytest.raises(ValueError, match="does not project"):
            CoveringLorentz(gh.matrix, pushed)


@pytest.mark.parametrize("rapidity", [17.0, 18.0, 19.0, 20.0, 21.0, 22.0])
def test_accurate_strong_matrices_are_accepted(rapidity):
    # R(theta) B(chi, phi) rounded once from 80 digits; the cofactor of L00
    # rounds to eps |L|^2 where the full determinant rounds to eps |L|^3
    rng = np.random.default_rng(int(rapidity))
    for _ in range(40):
        theta, phi = rng.uniform(-math.pi, math.pi, 2)
        m = su11.matrix(su11.chart(theta, rapidity, phi))
        g = CoveringLorentz(LorentzMatrix(m), theta)
        assert abs(g.rapidity - rapidity) <= 1e-12 * rapidity


@pytest.mark.parametrize("rapidity", [17.0, 18.0, 19.0, 20.0, 21.0, 22.0])
def test_strong_matrices_pushed_off_the_group_are_refused(rapidity):
    # entries moved by 1e-3 of the largest, an improper or a time-reversing
    # matrix, and a lift moved by 1e-3.  (A uniform scaling by 1 + 1e-3 is
    # not among them: it moves L^T eta L by 2e-3, below that product's eps |L|^2
    # rounding at these rapidities.)
    rng = np.random.default_rng(100 + int(rapidity))
    for _ in range(10):
        theta, phi = rng.uniform(-math.pi, math.pi, 2)
        m = su11.matrix(su11.chart(theta, rapidity, phi))
        noise = rng.standard_normal((3, 3))
        cases = [
            (m + 1e-3 * np.abs(m).max() * noise / np.abs(noise).max(),
             "does not preserve the metric"),
            (m @ np.diag([1.0, 1.0, -1.0]), "not proper"),
            (-m, "not proper"),
            (m @ np.diag([-1.0, -1.0, 1.0]), "not orthochronous"),
        ]
        for pushed, message in cases:
            with pytest.raises(ValueError, match=message):
                LorentzMatrix(pushed)
        for pushed in (theta + 1e-3, theta - 1e-3):
            with pytest.raises(ValueError, match="does not project"):
                CoveringLorentz(LorentzMatrix(m), pushed)


def test_reflect_examples():
    r = reflect_conjugate(cover_rotation(0.9))
    assert r.is_close(cover_rotation(-0.9), 1e-14)
    b = reflect_conjugate(cover_boost1(0.6))
    assert b.is_close(cover_boost1(0.6), 1e-14)


def test_metric_preserved_over_deep_chains():
    # products of many elements stay valid Lorentz matrices (1e-12 scaled)
    # and stay on the 80-digit product in lift, rapidity and direction
    rng = np.random.default_rng(20)
    g = CoveringPoincare.identity()
    ref = su11.rotation(0)
    eta = np.diag([1.0, -1.0, -1.0])
    for _ in range(100):
        a, t = rng.uniform(-7, 7), rng.uniform(-0.8, 0.8)
        g = cover_compose(g, cover_compose(cover_rotation(a), cover_boost1(t)))
        ref = su11.compose(ref, su11.rotation(a), su11.boost1(t))
        m = g.lorentz.matrix.m
        scale = max(1.0, float(np.abs(m).max()) ** 2)
        assert np.abs(m.T @ eta @ m - eta).max() <= 1e-12 * scale
        assert max(su11.chart_errors(g.lorentz, ref)) <= 1e-12


def _mild_chain(seed):
    """(acc, ref) after each of 200 steps acc = acc r(a) b1(t) r(b), |t| <= 1.2:
    the package's product and the 80-digit one."""
    rng = np.random.default_rng(seed)
    acc, ref = CoveringLorentz.identity(), su11.rotation(0)
    for _ in range(200):
        a, t = rng.uniform(-math.pi, math.pi), rng.uniform(-1.2, 1.2)
        b = rng.uniform(-math.pi, math.pi)
        acc = cover_compose(acc, cover_compose(cover_rotation(a),
                                               cover_compose(cover_boost1(t), cover_rotation(b))))
        ref = su11.compose(ref, su11.rotation(a), su11.boost1(t), su11.rotation(b))
        yield acc, ref


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_long_chains_of_mild_elements_agree_with_mpmath(seed):
    # r(a) b1(t) r(b) with |t| <= 1.2 composed 200 times walks up to
    # rapidity 23-26; every step is a group element that the public
    # constructor accepts back, within 1e-9 of the 80-digit chain
    for acc, ref in _mild_chain(seed):
        assert max(su11.chart_errors(acc, ref)) <= 1e-9
        back = CoveringLorentz(LorentzMatrix(acc.matrix.m), acc.angle)
        assert max(su11.chart_errors(back, ref)) <= 1e-9
    assert acc.rapidity > 20.0


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_act_along_long_chains_agrees_with_mpmath(seed, refereed_paths):
    # act's images of these paths stay within 1.7e-12 of the 80-digit arc
    # ends wherever act returns one, up to the chains' top rapidity of 26.4;
    # it refuses only cones whose exact image arc is within ARC_TOL of pi,
    # and every image it returns passes the public constructor's row rules
    from plektonlab.cones import act, cone_path, wedge_path
    from plektonlab.tolerances import ARC_TOL

    paths = [cone_path(MVec3(0, 0, 0), 0.4, 0.3), cone_path(MVec3(0, 0, 0), -2.0, 0.05, sheet=1),
             wedge_path(MVec3(0, 0, 0), 1.0)]
    checked = 0
    for acc, ref in _mild_chain(seed):
        for path in paths:
            want = [su11.arc_end(ref, end) for end in (path.arc.alpha_minus, path.arc.alpha_plus)]
            try:
                arc = act(acc, path).arc
            except ValueError as err:
                assert str(err) == "cone arcs must have width strictly below pi"
                assert abs(want[1] - want[0] - math.pi) <= ARC_TOL
                continue
            assert abs(arc.alpha_minus - want[0]) <= ARC_TOL
            assert abs(arc.alpha_plus - want[1]) <= ARC_TOL
            checked += 1
    assert checked > 590
    built, refused = refereed_paths
    assert not refused and len(built) > checked


def test_reflect_conjugate_matrix_is_j_l_j():
    j = np.diag([-1.0, -1.0, 1.0])
    rng = np.random.default_rng(8)
    for _ in range(500):
        g = cover_compose(rnd_element(rng, translations=False),
                          rnd_element(rng, translations=False))
        assert np.array_equal(reflect_conjugate(g).matrix.m, j @ g.matrix.m @ j)


def test_lift_failure_surfaces():
    from plektonlab.continuation import continue_angles
    from plektonlab.minkowski import LiftError

    # a discontinuous path keeps a large angle jump at every subdivision
    def broken(ts):
        return np.where(ts < 0.5, 0.0, 3.0)[:, None]

    with pytest.raises(LiftError):
        continue_angles(broken, [0.0], initial_steps=2)


def test_reflect_involution_and_automorphism():
    rng = np.random.default_rng(7)
    for _ in range(15):
        g = rnd_element(rng)
        h = rnd_element(rng)
        assert reflect_conjugate(reflect_conjugate(g)).is_close(g, 1e-12)
        left = reflect_conjugate(cover_compose(g, h))
        right = cover_compose(reflect_conjugate(g), reflect_conjugate(h))
        assert left.is_close(right, 1e-9)
