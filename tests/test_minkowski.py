import math

import numpy as np
import pytest

from plektonlab.minkowski import (
    CoveringLorentz,
    CoveringPoincare,
    LorentzMatrix,
    MVec3,
    boost1_matrix,
    cover_boost1,
    cover_compose,
    cover_inverse,
    cover_rotation,
    cover_translation,
    minkowski_inner,
    polar_rotation_angle,
    reflect_conjugate,
    rotation_matrix,
)


def rnd_element(rng, translations=True):
    g = cover_compose(
        cover_rotation(rng.uniform(-7, 7)),
        cover_compose(cover_boost1(rng.uniform(-1.5, 1.5)),
                      cover_rotation(rng.uniform(-3, 3))),
    )
    if translations:
        g = cover_compose(cover_translation(MVec3(*rng.normal(0, 1, 3))), g)
    return g


def test_inner_product_signature():
    assert minkowski_inner(MVec3(1, 0, 0), MVec3(1, 0, 0)) == 1.0
    assert minkowski_inner(MVec3(0, 1, 0), MVec3(0, 1, 0)) == -1.0
    assert minkowski_inner(MVec3(1, 1, 0), MVec3(1, 1, 0)) == 0.0


def test_polar_rotation_angle_basic():
    assert polar_rotation_angle(LorentzMatrix.identity()) == 0.0
    assert polar_rotation_angle(rotation_matrix(math.pi / 3)) == pytest.approx(math.pi / 3, abs=1e-14)
    assert polar_rotation_angle(boost1_matrix(1.3)) == pytest.approx(0.0, abs=1e-14)


def test_polar_rotation_angle_mixed():
    m = rotation_matrix(0.8) @ boost1_matrix(0.9)
    assert polar_rotation_angle(m) == pytest.approx(0.8, abs=1e-12)
    # boost-first factorisation has a different polar angle in general
    m2 = boost1_matrix(0.9) @ rotation_matrix(0.8)
    s = np.linalg.eigvalsh(m2.m.T @ m2.m)
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
    (lambda: cover_boost1(400.0), "too large"),
    (lambda: cover_boost1(800.0), "overflows"),
    (lambda: cover_rotation(math.nan), "not finite"),
    (lambda: cover_rotation(-math.inf), "not finite"),
    (lambda: CoveringLorentz(LorentzMatrix.identity(), math.nan), "not finite"),
    (lambda: CoveringLorentz(LorentzMatrix.identity(), math.inf), "not finite"),
])
def test_non_finite_lorentz_data_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_rotation_cover_examples():
    g = cover_rotation(2 * math.pi)
    assert g.matrix.is_close(LorentzMatrix.identity(), 1e-15)
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
    assert g.matrix.is_close(LorentzMatrix.identity(), 1e-14)
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
    from plektonlab.continuation import compose_angle

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


def test_reflect_examples():
    r = reflect_conjugate(cover_rotation(0.9))
    assert r.is_close(cover_rotation(-0.9), 1e-14)
    b = reflect_conjugate(cover_boost1(0.6))
    assert b.is_close(cover_boost1(0.6), 1e-14)


def test_metric_preserved_over_deep_chains():
    # products of many elements must stay valid Lorentz matrices (1e-12 scaled)
    rng = np.random.default_rng(20)
    g = CoveringPoincare.identity()
    eta = np.diag([1.0, -1.0, -1.0])
    for _ in range(100):
        h = cover_compose(cover_rotation(rng.uniform(-7, 7)),
                          cover_boost1(rng.uniform(-0.8, 0.8)))
        g = cover_compose(g, h)
        m = g.lorentz.matrix.m
        scale = max(1.0, float(np.abs(m).max()) ** 2)
        assert np.abs(m.T @ eta @ m - eta).max() <= 1e-12 * scale


def test_lift_failure_surfaces():
    from plektonlab.continuation import continue_angles
    from plektonlab.minkowski import LiftError

    # a discontinuous path keeps a large angle jump at every subdivision
    def broken(ts):
        return np.where(ts < 0.5, 0.0, 3.0)[:, None]

    with pytest.raises(LiftError):
        continue_angles(broken, [0.0], initial_steps=2, max_steps=1024)


def test_reflect_involution_and_automorphism():
    rng = np.random.default_rng(7)
    for _ in range(15):
        g = rnd_element(rng)
        h = rnd_element(rng)
        assert reflect_conjugate(reflect_conjugate(g)).is_close(g, 1e-12)
        left = reflect_conjugate(cover_compose(g, h))
        right = cover_compose(reflect_conjugate(g), reflect_conjugate(h))
        assert left.is_close(right, 1e-9)
