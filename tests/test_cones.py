import ast
import inspect
import math

import numpy as np
import pytest

from plektonlab import cones
from plektonlab.cones import (
    KIND_CONE_COMPLEMENT,
    ConePath,
    LiftedArc,
    ReferenceFrame,
    SeparationError,
    SpacelikeDirection,
    WindingError,
    _certificate,
    _certificates,
    _layout,
    _separation_rows,
    accumulated_angle,
    act,
    causally_separated,
    cone_path,
    direction_lifted_angle,
    find_causal_pair,
    precedes,
    rebase,
    reflect_path,
    relative_winding,
    relative_winding_scan,
    standard_wedge_path,
    wedge_path,
)
from plektonlab.minkowski import (
    MVec3,
    cover_boost1,
    cover_compose,
    cover_rotation,
    cover_translation,
    minkowski_inner,
    minkowski_norm2,
    reflect_vector,
)
from plektonlab.tolerances import WEDGE_TOL

TWO_PI = 2 * math.pi


def rnd_pair(rng):
    """Causally separated (c2, c1) with random sheets and small apex jitter."""
    while True:
        d1, d2 = rng.uniform(0.08, 0.45, 2)
        base = rng.uniform(-math.pi, math.pi)
        rel = d1 + d2 + 0.15 + rng.uniform(0, TWO_PI - 2 * (d1 + d2 + 0.15))
        c1 = cone_path(MVec3(*rng.normal(0, 0.05, 3)), base, d1,
                       sheet=int(rng.integers(-2, 3)))
        c2 = cone_path(MVec3(*rng.normal(0, 0.05, 3)), base + rel, d2,
                       sheet=int(rng.integers(-2, 3)))
        try:
            if causally_separated(c1, c2):
                return c2, c1
        except SeparationError:
            continue


def rnd_cover(rng, translations=True):
    g = cover_compose(
        cover_rotation(rng.uniform(-7, 7)),
        cover_compose(cover_boost1(rng.uniform(-1.2, 1.2)),
                      cover_rotation(rng.uniform(-3, 3))),
    )
    if translations:
        g = cover_compose(cover_translation(MVec3(*rng.normal(0, 0.5, 3))), g)
    return g


# ---------------------------------------------------------------------------
# lifted angles
# ---------------------------------------------------------------------------

def test_direction_lifted_angle():
    assert direction_lifted_angle(MVec3(0, 1, 0)) == 0.0
    assert direction_lifted_angle(MVec3(0, -1, 0)) == math.pi
    e = SpacelikeDirection(MVec3(math.sinh(1), math.cosh(1) * math.cos(0.3),
                                 math.cosh(1) * math.sin(0.3)))
    assert direction_lifted_angle(e, 1) == pytest.approx(0.3 + TWO_PI, abs=1e-12)


def test_lifted_arc_invariants():
    with pytest.raises(ValueError):
        LiftedArc(0.5, 0.5)
    with pytest.raises(ValueError):
        LiftedArc(0.0, 3.5)
    with pytest.raises(ValueError):
        # cone arcs must stay below pi
        cone_path(MVec3(0, 0, 0), 0.0, math.pi / 2)


# ---------------------------------------------------------------------------
# causal separation
# ---------------------------------------------------------------------------

def test_wedge_and_causal_complement_separated():
    w = wedge_path()
    wp = wedge_path(center_angle=math.pi)
    assert causally_separated(w, wp)


def test_timelike_translate_not_separated():
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    assert not causally_separated(c, c.translated(MVec3(2.0, 0.0, 0.0)))


def test_antipodal_narrow_cones_separated():
    a = cone_path(MVec3(0, 0, 0), 0.0, 0.2)
    b = cone_path(MVec3(0, 0, 0), math.pi, 0.2)
    assert causally_separated(a, b)
    assert find_causal_pair(a, b) is None


def test_separation_agrees_with_primal_oracle():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(1000):
        cA = cone_path(MVec3(*rng.normal(0, 0.4, 3)),
                       rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 0.6))
        cB = cone_path(MVec3(*rng.normal(0, 0.4, 3)),
                       rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 0.6))
        try:
            sep = causally_separated(cA, cB)
        except SeparationError:
            continue
        pair = find_causal_pair(cA, cB)
        assert sep == (pair is None)
        if pair is not None:
            x, y = pair
            assert minkowski_norm2(x - y) > 0.0
            # the witness lies in the two closures, up to rounding of its size
            for c, v in ((cA, x), (cB, y)):
                rel = v - c.apex
                tol = WEDGE_TOL * max(1.0, abs(rel.x0), abs(rel.x1), abs(rel.x2))
                assert all(minkowski_inner(n, rel) >= -tol for n in c.normals)
        checked += 1
    assert checked > 900


def test_primal_oracle_names_nothing_of_the_certificate():
    # the oracle referees the certificate, so it may share only region data;
    # its stacked core and layout count as the oracle
    names = set()
    for func in (find_causal_pair, cones._causal_pairs, cones._hull_layout):
        tree = ast.parse(inspect.getsource(func))
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"closure_rays", "apex", "ORACLE_CONTACT"} <= names
    banned = {"causally_separated", "_certificates", "_certificate", "_separation_rows",
              "_verdict"}
    assert not names & banned
    assert not [name for name in names if name.startswith("SEP_")]


def _one_nappe_certificate(rows, sign):
    """Reference: the certificate for one nappe (sign +1 future, -1 past),
    with each candidate family built and filtered separately."""
    iu, ju = np.triu_indices(len(rows), k=1)
    crosses = np.cross(rows[iu], rows[ju]) * np.array([1.0, -1.0, -1.0])
    parts = [crosses, -crosses, np.array([[sign, 0.0, 0.0]])]
    r = np.hypot(rows[:, 1], rows[:, 2])
    mask = r > 1e-14
    ux, uy = rows[mask, 1] / r[mask], rows[mask, 2] / r[mask]
    parts.append(np.stack([np.full(ux.shape, sign), ux, uy], axis=1))
    t = sign * rows[mask, 0] / r[mask]
    tm = np.abs(t) <= 1.0
    ang = np.arccos(np.clip(t[tm], -1.0, 1.0))
    base = np.arctan2(uy[tm], ux[tm])
    for psi in (base + ang, base - ang):
        parts.append(np.stack([np.full(psi.shape, sign), np.cos(psi), np.sin(psi)], axis=1))
    cand = np.vstack(parts)
    scale = np.abs(cand).max(axis=1)
    cand = cand[scale > 1e-14] / scale[scale > 1e-14, None]
    cand = cand[(sign * cand[:, 0] >= -1e-10)
                & (cand[:, 0] ** 2 - cand[:, 1] ** 2 - cand[:, 2] ** 2 >= -1e-9)]
    if len(cand) == 0:
        return math.inf
    values = (cand * np.array([1.0, -1.0, -1.0])) @ rows.T / np.abs(rows).max(axis=1)
    return float(np.maximum(values.max(axis=1), 0.0).min())


def test_certificate_matches_one_nappe_reference():
    # the one-pass certificate performs the reference's arithmetic, so the
    # violations agree exactly, for cones, wedges, moved and translated pairs
    rng = np.random.default_rng(31)

    def region():
        apex = MVec3(*rng.normal(0, 0.4, 3))
        center = rng.uniform(-math.pi, math.pi)
        if rng.random() < 0.3:
            return wedge_path(apex, center)
        return cone_path(apex, center, rng.uniform(0.05, 1.4))

    for k in range(400):
        c1, c2 = region(), region()
        if k % 3 == 1:
            g = rnd_cover(rng)
            c1, c2 = act(g, c1), act(g, c2)
        elif k % 3 == 2:
            c2 = c1.translated(MVec3(*rng.normal(0, 1.0, 3)))
        d = (c1.apex - c2.apex).as_array()
        rows = np.concatenate([c1.closure_rays, -c2.closure_rays]
                              + ([d[None, :]] if np.abs(d).max() > 1e-14 else []))
        assert _certificate(rows) == (_one_nappe_certificate(rows, 1.0),
                                      _one_nappe_certificate(rows, -1.0))


def test_stacked_certificates_match_single_calls():
    # a pair's violations do not depend on the other pairs of its stack; every
    # row count from 8 to 13: cones and wedges, shared and time-like separated
    # apexes, pairs moved by covering elements with rapidity up to 3
    rng = np.random.default_rng(43)

    def region(apex):
        center = rng.uniform(-math.pi, math.pi)
        if rng.random() < 0.3:
            return wedge_path(apex, center)
        return cone_path(apex, center, rng.uniform(0.05, 1.4))

    by_rows = {}
    for _ in range(480):
        apex = MVec3(*rng.normal(0, 0.4, 3))
        c1 = region(apex)
        c2 = region(apex if rng.random() < 0.4 else MVec3(*rng.normal(0, 0.4, 3)))
        if rng.random() < 0.1:
            c2 = c2.translated(c1.apex - c2.apex + MVec3(rng.normal(), 0.0, 0.0))
        if rng.random() < 0.3:
            g = cover_compose(cover_rotation(rng.uniform(-7, 7)), cover_compose(
                cover_boost1(rng.uniform(-3, 3)), cover_rotation(rng.uniform(-3, 3))))
            c1, c2 = act(g, c1), act(g, c2)
        rows = _separation_rows(c1, c2)
        by_rows.setdefault(len(rows), []).append(rows)
    assert sorted(by_rows) == list(range(8, 14))
    for group in by_rows.values():
        stacked = [tuple(v) for v in _certificates(np.stack(group)).tolist()]
        assert stacked == [_certificate(rows) for rows in group]


def _frozen_certificates(rows):
    """`cones._certificates` as it was with numpy's max over the short
    component and row axes: the reference for the elementwise maxima."""
    from plektonlab.tolerances import SEP_DEGENERATE, SEP_NAPPE_SLACK, SEP_ZERO

    p, n, _ = rows.shape
    m, ga, gb, ga2, gb2, per_row, t_sign, ang_sign, sign, nappes = _layout(n)
    flat = rows.reshape(p, 3 * n)
    cand = np.empty((p, 2 * m + len(sign), 3))
    np.subtract(flat.take(ga, axis=1) * flat.take(gb, axis=1),
                flat.take(ga2, axis=1) * flat.take(gb2, axis=1), out=cand[:, :m])
    cand[:, :m] *= cones._MINK_DIAG
    np.negative(cand[:, :m], out=cand[:, m:2 * m])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.hypot(rows[..., 1], rows[..., 2])
        r[r <= SEP_DEGENERATE] = np.nan
        u = rows / r[..., None]
        psi = (np.arctan2(u[..., 2], u[..., 1]).take(per_row, axis=1)
               + np.arccos(u[..., 0].take(per_row, axis=1) * t_sign) * ang_sign)
        cand[:, 2 * m:, 0] = sign
        cand[:, 2 * m:2 * m + 2, 1:] = 0.0
        cand[:, 2 * m + 2:-4 * n, 1:] = u.take(per_row[:2 * n], axis=1)[..., 1:]
        cand[:, -4 * n:, 1] = np.cos(psi)
        cand[:, -4 * n:, 2] = np.sin(psi)
        scale = np.abs(cand).max(axis=2)
        cand /= scale[..., None]
        values = (cand * cones._MINK_DIAG) @ rows.transpose(0, 2, 1)
        values /= np.abs(rows).max(axis=2)[:, None, :]
        viol = np.maximum(values.max(axis=2), 0.0)
        w0 = cand[..., 0]
        inside = (scale > SEP_DEGENERATE) & (
            w0 ** 2 - cand[..., 1] ** 2 - cand[..., 2] ** 2 >= -SEP_NAPPE_SLACK)
    ok = inside[:, None, :] & (w0[:, None, :] * cones._NAPPE_SIGN >= -SEP_ZERO) & nappes
    return np.where(ok, viol[:, None, :], math.inf).min(axis=2)


def test_certificates_match_frozen_short_axis_kernel():
    # bitwise, on stacks of every row count from 8 to 13: cones and wedges,
    # shared apexes, and lanes with a zeroed row or a row with no spatial
    # part (their candidates are NaN)
    rng = np.random.default_rng(77)

    def region(apex):
        center = rng.uniform(-math.pi, math.pi)
        if rng.random() < 0.3:
            return wedge_path(apex, center)
        return cone_path(apex, center, rng.uniform(0.05, 1.4))

    by_rows = {}
    for _ in range(1200):
        apex = MVec3(*rng.normal(0, 0.4, 3))
        c1 = region(apex)
        c2 = region(apex if rng.random() < 0.4 else MVec3(*rng.normal(0, 0.4, 3)))
        by_rows.setdefault(len(_separation_rows(c1, c2)), []).append(
            _separation_rows(c1, c2))
    assert sorted(by_rows) == list(range(8, 14))
    for group in by_rows.values():
        rows = np.stack(group)
        lanes = np.arange(len(rows))
        rows[lanes % 5 == 1, lanes[lanes % 5 == 1] % rows.shape[1]] = 0.0
        rows[lanes % 5 == 2, -1, 1:] = 0.0
        assert _certificates(rows).tobytes() == _frozen_certificates(rows).tobytes()
        for p in (1, 64):
            assert (_certificates(rows[:p]).tobytes()
                    == _frozen_certificates(rows[:p]).tobytes())


def test_certificate_layout_is_read_only():
    # every later certificate with n rows shares the cached layout arrays
    for n in range(8, 14):
        assert not any(a.flags.writeable for a in _layout(n)[1:])


def test_separation_rejects_complements():
    comp = cone_path(MVec3(0, 0, 0), 0.0, 0.2, kind=KIND_CONE_COMPLEMENT)
    with pytest.raises(SeparationError):
        causally_separated(comp, cone_path(MVec3(0, 0, 0), math.pi, 0.2))


def test_complements_transport_and_reflect():
    comp = cone_path(MVec3(0.1, 0.0, -0.2), 0.4, 0.2, sheet=1,
                     kind=KIND_CONE_COMPLEMENT)
    g = cover_compose(cover_rotation(1.1), cover_boost1(0.6))
    moved = act(g, comp)
    assert moved.kind == KIND_CONE_COMPLEMENT
    assert moved.arc.width < math.pi
    assert reflect_path(reflect_path(comp)).same_path(comp, 1e-12)


# ---------------------------------------------------------------------------
# ordering and winding
# ---------------------------------------------------------------------------

def test_precedes_on_disjoint_arcs():
    a = cone_path(MVec3(0, 0, 0), 0.0, 0.1)          # arc (-0.1, 0.1)
    b = cone_path(MVec3(0, 0, 0), 1.1, 0.1)          # arc (1.0, 1.2)
    assert precedes(a, b)
    assert not precedes(b, a)


def test_precedes_after_full_rotation():
    a = cone_path(MVec3(0, 0, 0), 0.0, 0.1)
    b = cone_path(MVec3(0, 0, 0), -1.1, 0.1)         # below a on the same sheet
    assert not precedes(a, b)
    assert precedes(a, act(cover_rotation(TWO_PI), b))


def test_opposed_cone_winding_value():
    c1 = cone_path(MVec3(0, 0, 0), 0.0, 0.1)
    c2 = cone_path(MVec3(0, 0, 0), -math.pi, 0.1)    # arc (-pi-0.1, -pi+0.1)
    assert relative_winding(c2, c1) == -1
    assert relative_winding_scan(c2, c1) == -1


def test_winding_same_sheet():
    c1 = cone_path(MVec3(0, 0, 0), 0.0, 0.1)
    c2 = cone_path(MVec3(0, 0, 0), 1.1, 0.1)
    assert relative_winding(c2, c1) == 0
    assert relative_winding_scan(c2, c1) == 0


def test_winding_shift_of_reference_path():
    rng = np.random.default_rng(2)
    c2, c1 = rnd_pair(rng)
    n = relative_winding(c2, c1)
    shifted = act(cover_rotation(TWO_PI), c1)
    assert relative_winding(c2, shifted) == n - 1


def test_winding_antisymmetry_and_covariance():
    rng = np.random.default_rng(8)
    for _ in range(60):
        c2, c1 = rnd_pair(rng)
        n = relative_winding(c2, c1)
        assert n == relative_winding_scan(c2, c1)
        assert relative_winding(c1, c2) == -1 - n
        g = rnd_cover(rng)
        assert relative_winding(act(g, c2), act(g, c1)) == n


def test_winding_rotation_shift_property():
    rng = np.random.default_rng(9)
    for m in (-3, -1, 2):
        c2, c1 = rnd_pair(rng)
        n = relative_winding(c2, c1)
        assert relative_winding(act(cover_rotation(TWO_PI * m), c2), c1) == n + m


def test_grazing_cone_arcs_rejected():
    a = cone_path(MVec3(0, 0, 0), -0.2, 0.2)   # arc (-0.4, 0.0)
    b = cone_path(MVec3(0, 0, 0), 0.2, 0.2)    # arc (0.0, 0.4)
    with pytest.raises(WindingError):
        relative_winding(b, a)


def test_winding_requires_separation():
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    with pytest.raises(SeparationError):
        relative_winding(c.translated(MVec3(2.0, 0, 0)), c)


# ---------------------------------------------------------------------------
# group action on paths
# ---------------------------------------------------------------------------

def test_act_identity_and_full_rotation():
    c = cone_path(MVec3(0.1, 0.2, -0.3), 0.7, 0.2, sheet=1)
    from plektonlab.minkowski import CoveringPoincare

    assert act(CoveringPoincare.identity(), c).same_path(c, 1e-14)
    r = act(cover_rotation(TWO_PI), c)
    assert r.arc.alpha_minus == pytest.approx(c.arc.alpha_minus + TWO_PI, abs=1e-12)
    assert r.arc.alpha_plus == pytest.approx(c.arc.alpha_plus + TWO_PI, abs=1e-12)
    # same projected region: the corner rays are unchanged
    for u, v in zip(r.corners, c.corners):
        assert abs(u.x0 - v.x0) < 1e-12 and abs(u.x1 - v.x1) < 1e-12


def test_act_boost_matches_dense_transport():
    from plektonlab.continuation import ray_angles

    rng = np.random.default_rng(10)
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.2)
    g = cover_boost1(0.7)
    moved = act(g, c)
    dense = ray_angles(
        g, [c.corners[0].as_array(), c.corners[1].as_array()],
        [c.arc.alpha_minus, c.arc.alpha_plus])
    assert moved.arc.alpha_minus == pytest.approx(dense[0], abs=1e-9)
    assert moved.arc.alpha_plus == pytest.approx(dense[1], abs=1e-9)
    # endpoints also agree with the transported corner angles modulo 2 pi
    for corner, lifted in ((moved.corners[0], moved.arc.alpha_minus),
                           (moved.corners[1], moved.arc.alpha_plus)):
        wrapped = math.atan2(corner.x2, corner.x1)
        assert math.cos(wrapped) == pytest.approx(math.cos(lifted), abs=1e-12)
        assert math.sin(wrapped) == pytest.approx(math.sin(lifted), abs=1e-12)


def test_act_commutes_with_rebase():
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.2)
    f0 = ReferenceFrame()
    f1 = ReferenceFrame(f0.reference_angle + 1.0)
    g = cover_boost1(0.7)
    a = act(g, rebase(c, f0, f1))
    b = rebase(act(g, c), f0, f1)
    assert a.arc.alpha_minus == pytest.approx(b.arc.alpha_minus, abs=1e-12)
    assert a.arc.alpha_plus == pytest.approx(b.arc.alpha_plus, abs=1e-12)


def test_act_preserves_wedge_width():
    rng = np.random.default_rng(11)
    w = wedge_path(center_angle=0.4, sheet=-1)
    for _ in range(5):
        w2 = act(rnd_cover(rng), w)
        assert w2.arc.width == pytest.approx(math.pi, abs=1e-12)
        assert w2.kind == "wedge"


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_reflect_involution():
    c = cone_path(MVec3(0.3, 0.1, -0.2), 0.9, 0.2, sheet=1)
    assert reflect_path(reflect_path(c)).same_path(c, 1e-12)


def test_reflect_arc_map():
    c = cone_path(MVec3(0, 0, 0), 0.3, 0.1)  # arc (0.2, 0.4)
    r = reflect_path(c)
    assert r.arc.alpha_minus == pytest.approx(math.pi - 0.4, abs=1e-12)
    assert r.arc.alpha_plus == pytest.approx(math.pi - 0.2, abs=1e-12)


def test_reflect_standard_wedge_lands_on_complement():
    we = standard_wedge_path()
    jwe = reflect_path(we)
    assert jwe.same_path(wedge_path(center_angle=math.pi), 1e-12)


def test_reflect_requires_invariant_reference():
    c = cone_path(MVec3(0, 0, 0), 0.3, 0.1)
    with pytest.raises(ValueError):
        reflect_path(c, ReferenceFrame(0.3))


def test_reflect_reverses_winding_order():
    rng = np.random.default_rng(13)
    for _ in range(40):
        c2, c1 = rnd_pair(rng)
        lhs = relative_winding(reflect_path(c2), reflect_path(c1))
        assert lhs == relative_winding(c1, c2)
        assert lhs == relative_winding_scan(reflect_path(c2), reflect_path(c1))


def test_orientation_reversal_of_accumulated_angle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        start = rng.uniform(-math.pi, math.pi)
        sweep = rng.uniform(-2.5, 2.5)
        rap = rng.uniform(-1.0, 1.0)
        ts = np.linspace(0, 1, 300)
        pts = [MVec3(math.sinh(rap * t),
                     math.cosh(rap * t) * math.cos(start + sweep * t),
                     math.cosh(rap * t) * math.sin(start + sweep * t)) for t in ts]
        fwd = accumulated_angle(pts)
        bwd = accumulated_angle([reflect_vector(p) for p in pts])
        assert abs(fwd + bwd) < 1e-12


# ---------------------------------------------------------------------------
# standard wedge path and rebasing
# ---------------------------------------------------------------------------

def test_standard_wedge_path_arc():
    we = standard_wedge_path(ReferenceFrame(0.0))  # reference cone inside W1
    assert we.arc.alpha_minus == pytest.approx(-math.pi / 2)
    assert we.arc.alpha_plus == pytest.approx(math.pi / 2)
    # the j-invariant choices select the same sheet
    assert standard_wedge_path(ReferenceFrame(math.pi / 2)).same_path(we)
    assert standard_wedge_path(ReferenceFrame(-math.pi / 2)).same_path(we)


def test_wedge_reflection_winding_depends_on_reference_cone():
    up = ReferenceFrame(math.pi / 2)     # contains the positive x2 axis
    down = ReferenceFrame(-math.pi / 2)  # contains the negative x2 axis
    we_up = standard_wedge_path(up)
    we_down = standard_wedge_path(down)
    assert relative_winding(we_up, reflect_path(we_up, up)) == -1
    assert relative_winding(we_down, reflect_path(we_down, down)) == 0
    # same statement with the arguments transposed
    assert relative_winding(reflect_path(we_up, up), we_up) in (-1, 0)
    assert relative_winding(reflect_path(we_down, down), we_down) in (-1, 0)


def test_half_rotation_maps_wedge_to_complement():
    we = standard_wedge_path()
    assert act(cover_rotation(math.pi), we).same_path(
        wedge_path(center_angle=math.pi), 1e-12)


def test_rebase_identity_and_invariance():
    rng = np.random.default_rng(15)
    f0 = ReferenceFrame(math.pi / 2)
    c2, c1 = rnd_pair(rng)
    assert rebase(c1, f0, f0).same_path(c1, 1e-15)
    for _ in range(40):
        c2, c1 = rnd_pair(rng)
        f1 = ReferenceFrame(rng.uniform(-6, 6))
        n = relative_winding(c2, c1)
        assert relative_winding(rebase(c2, f0, f1), rebase(c1, f0, f1)) == n
        offset = rebase(c1, f0, f1).arc.alpha_minus - c1.arc.alpha_minus
        assert offset == pytest.approx(f1.reference_angle - f0.reference_angle)


def test_precedes_transitive_irreflexive():
    rng = np.random.default_rng(16)
    for _ in range(30):
        mid = rng.uniform(-math.pi, math.pi)
        offs = sorted(rng.uniform(0.0, 1.8, 3))
        paths = [cone_path(MVec3(0, 0, 0), mid + o, 0.05) for o in offs]
        try:
            if precedes(paths[0], paths[1]) and precedes(paths[1], paths[2]):
                assert precedes(paths[0], paths[2])
            assert not (precedes(paths[0], paths[1]) and precedes(paths[1], paths[0]))
        except (SeparationError, WindingError):
            continue


def _separation_cases(rng, count):
    """(C1, C2) pairs of every kind `causally_separated` meets: cones and
    wedges, shared apexes, moved pairs, cone-complements and degenerate arcs
    (which raise before any certificate)."""
    def region(apex):
        center = rng.uniform(-math.pi, math.pi)
        roll = rng.random()
        if roll < 0.25:
            return wedge_path(apex, center)
        if roll < 0.3:
            return cone_path(apex, center, 1e-10)  # arc width below ARC_TOL
        if roll < 0.35:
            return cone_path(apex, center, 0.3, kind=KIND_CONE_COMPLEMENT)
        return cone_path(apex, center, rng.uniform(0.05, 1.4))

    pairs = []
    for _ in range(count):
        apex = MVec3(*rng.normal(0, 0.4, 3))
        c1 = region(apex)
        c2 = region(apex if rng.random() < 0.4 else MVec3(*rng.normal(0, 0.4, 3)))
        if rng.random() < 0.3:
            g = rnd_cover(rng)
            c1, c2 = act(g, c1), act(g, c2)
        pairs.append((c1, c2))
    return pairs


def _decided(c1, c2):
    try:
        return causally_separated(c1, c2)
    except SeparationError as exc:
        return exc


def _same_verdict(a, b):
    if isinstance(a, SeparationError) or isinstance(b, SeparationError):
        return type(a) is type(b) and str(a) == str(b)
    return type(a) is type(b) is bool and a == b


def test_separated_many_matches_single_calls(monkeypatch):
    # 1200 pairs in one call, against one call per pair: the same verdict,
    # or an exception of the same type and message
    pairs = _separation_cases(np.random.default_rng(53), 1200)
    many = cones._separated_many(pairs)
    single = [_decided(c1, c2) for c1, c2 in pairs]
    assert all(_same_verdict(a, b) for a, b in zip(many, single))
    kinds = {type(v).__name__ if isinstance(v, Exception) else v for v in many}
    assert kinds == {True, False, "SeparationError"}
    assert {str(v) for v in many if isinstance(v, SeparationError)} >= {
        "cone-complement regions are not supported here", "degenerate (empty-interior) cone"}

    # lanes patched into the ambiguity band, by a rule on each lane's own rows
    # so that a stack and a single call patch the same pairs
    real = cones._certificates

    def certificates(rows):
        viol = real(rows)
        key = np.floor(np.abs(rows[:, 0, 1]) * 1e6) % 5
        viol[key == 0, 0] = 3e-9
        viol[key == 1, 1] = 4e-8
        return viol

    monkeypatch.setattr(cones, "_certificates", certificates)
    many = cones._separated_many(pairs)
    single = [_decided(c1, c2) for c1, c2 in pairs]
    assert all(_same_verdict(a, b) for a, b in zip(many, single))
    margins = {str(v) for v in many if isinstance(v, SeparationError)}
    assert {"separation undecidable within tolerance (margin 3.000e-09)",
            "separation undecidable within tolerance (margin 4.000e-08)"} <= margins


def test_stacked_primal_oracle_matches_single_calls():
    # witnesses bitwise equal to one call per pair, None in the same lanes;
    # cones and wedges with and without an apex gap in one call
    rng = np.random.default_rng(59)
    pairs = [(c1, c2) for c1, c2 in _separation_cases(rng, 1000)
             if KIND_CONE_COMPLEMENT not in (c1.kind, c2.kind)]
    many = cones._causal_pairs(pairs)
    assert {len(c1.closure_rays) + len(c2.closure_rays) for c1, c2 in pairs} == {8, 10, 12}
    hits = 0
    for (c1, c2), got in zip(pairs, many):
        want = find_causal_pair(c1, c2)
        assert (got is None) == (want is None)
        if want is not None:
            assert [v.as_array().tobytes() for v in got] == [v.as_array().tobytes() for v in want]
            hits += 1
    assert 0 < hits < len(pairs)
