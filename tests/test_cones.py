import ast
import copy
import functools
import inspect
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from plektonlab import cones, suites
from plektonlab.cli import main
from plektonlab.cones import (
    KIND_CONE_COMPLEMENT,
    ConePath,
    LiftedArc,
    ReferenceFrame,
    SeparationError,
    WindingError,
    _certificates,
    _layout,
    _separation_rows,
    act,
    causally_separated,
    cone_path,
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
    ZERO_VEC,
    CoveringLorentz,
    CoveringPoincare,
    LiftError,
    MVec3,
    cover_boost1,
    cover_compose,
    cover_rotation,
    minkowski_inner,
)
from plektonlab.tolerances import ARC_TOL, SEP_AMBIGUOUS, SEP_FILTER, SEP_ZERO, WEDGE_TOL
from tests.conftest import ASSETS

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


def certificate(rows):
    """The (future, past) violations of one row set, as a stack of one."""
    return tuple(_certificates(rows[None])[0].tolist())


def translated(path, a):
    """The path with its apex moved by the vector a; ValueError unless the
    moved apex is finite."""
    return ConePath(path.apex + a, path.arc, path.kind, path.normals, path.corners)


def rnd_cover(rng, translations=True, rapidity=1.2):
    g = cover_compose(
        cover_rotation(rng.uniform(-7, 7)),
        cover_compose(cover_boost1(rng.uniform(-rapidity, rapidity)),
                      cover_rotation(rng.uniform(-3, 3))),
    )
    if translations:
        shift = MVec3(*rng.normal(0, 0.5, 3))
        g = cover_compose(CoveringPoincare(shift, CoveringLorentz.identity()), g)
    return g


# ---------------------------------------------------------------------------
# lifted angles
# ---------------------------------------------------------------------------

def test_lifted_arc_invariants():
    # a region refuses an arc of width outside (0, pi], NaN included; the
    # arc itself is plain data
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    w = wedge_path()
    for path in (c, w):
        for lo, hi in ((0.5, 0.5), (0.5, 0.4), (0.0, 3.5), (0.0, math.nan), (math.inf, math.inf)):
            with pytest.raises(ValueError, match=r"^arc width .* outside \(0, pi\]$"):
                ConePath(path.apex, LiftedArc(lo, hi), path.kind, path.normals, path.corners)
        bad = _swapped_arc(path)
        for image in (lambda: reflect_path(bad), lambda: act(cover_rotation(1.0), bad),
                      lambda: rebase(bad, ReferenceFrame(), ReferenceFrame(2.0))):
            with pytest.raises(ValueError, match=r"^arc width -0.(1|09)\d* outside \(0, pi\]$"):
                image()
    with pytest.raises(ValueError, match="half_opening must lie in"):
        cone_path(MVec3(0, 0, 0), 0.0, math.pi / 2)
    with pytest.raises(ValueError, match="cone arcs must have width strictly below pi"):
        ConePath(c.apex, LiftedArc(0.0, math.pi), c.kind, c.normals, c.corners)
    with pytest.raises(ValueError, match="wedge arcs must have width exactly pi"):
        ConePath(w.apex, LiftedArc(0.0, 3.0), w.kind, w.normals, w.corners)


def _swapped_arc(path):
    """path with its arc (0.1, 0): a region no public rule admits, for the
    images of the package's own operations to refuse."""
    changed = object.__new__(ConePath)
    vars(changed).update(rows=path.rows, arc=LiftedArc(0.1, 0.0), kind=path.kind)
    return changed


@pytest.mark.parametrize("sheet", [10 ** 7, 10 ** 9, -10 ** 12, 10 ** 15])
@pytest.mark.parametrize("build", [lambda sheet: cone_path(ZERO_VEC, 0.0, 0.3, sheet),
                                   lambda sheet: wedge_path(ZERO_VEC, 0.0, sheet)],
                         ids=["cone", "wedge"])
def test_a_sheet_that_rounds_the_arc_is_named(build, sheet):
    # the float endpoints round a 0.6-wide cone to 0.6000003814697266 at 10**9
    # and to 0.0 at 10**15
    with pytest.raises(ValueError, match=r"^center_angle \+ 2 pi sheet = "
                       rf"{TWO_PI * sheet!r} is too far from 0 \(sheet {sheet}\)"):
        build(sheet)


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [lambda center: cone_path(ZERO_VEC, center, 0.3),
                                   lambda center: wedge_path(ZERO_VEC, center)],
                         ids=["cone", "wedge"])
def test_a_non_finite_center_is_named(build, center):
    # not math.cos's "math domain error" from the corners
    with pytest.raises(ValueError, match=r"^center_angle \+ 2 pi sheet must be a finite number$"):
        build(center)


def test_a_sheet_whose_rounding_stays_within_arc_tol_is_kept():
    cone = cone_path(ZERO_VEC, 0.0, 0.3, 10 ** 6)  # 3.7e-10 narrow
    assert abs(cone.arc.width - 0.6) <= ARC_TOL
    assert abs(wedge_path(ZERO_VEC, 0.0, -10 ** 6).arc.width - math.pi) <= ARC_TOL


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_constructors_reject_non_finite_vectors(bad, axis):
    # a NaN apex would drop the apex-gap row from every separation certificate
    v = MVec3(*(bad if k == axis else 0.5 for k in range(3)))
    for build in (lambda: cone_path(v, 0.0, 0.2), lambda: wedge_path(v),
                  lambda: cone_path(v, 0.0, 0.2, kind=KIND_CONE_COMPLEMENT),
                  lambda: translated(cone_path(ZERO_VEC, 0.0, 0.2), v),
                  lambda: CoveringPoincare(v, CoveringLorentz.identity())):
        with pytest.raises(ValueError, match="not finite"):
            build()


def test_translations_reject_a_nan_vector():
    # both once passed: the translated cone read as separated from the
    # opposite cone with winding -1, and act moved the cone to a NaN apex
    c = cone_path(ZERO_VEC, 0.0, 0.2)
    with pytest.raises(ValueError, match="not finite"):
        translated(c, MVec3(math.nan, 0, 0))
    with pytest.raises(ValueError, match="not finite"):
        act(CoveringPoincare(MVec3(math.nan, 0, 0), CoveringLorentz.identity()), c)


# ---------------------------------------------------------------------------
# causal separation
# ---------------------------------------------------------------------------

def test_wedge_and_causal_complement_separated():
    w = wedge_path()
    wp = wedge_path(center_angle=math.pi)
    assert causally_separated(w, wp)


def test_timelike_translate_not_separated():
    c = cone_path(MVec3(0, 0, 0), 0.0, 0.3)
    assert not causally_separated(c, translated(c, MVec3(2.0, 0.0, 0.0)))


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
            assert minkowski_inner(x - y, x - y) > 0.0
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
            c2 = translated(c1, MVec3(*rng.normal(0, 1.0, 3)))
        d = (c1.apex - c2.apex).as_array()
        rows = np.concatenate([c1.closure_rays, -c2.closure_rays]
                              + ([d[None, :]] if np.abs(d).max() > 1e-14 else []))
        assert certificate(rows) == (_one_nappe_certificate(rows, 1.0),
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
            c2 = translated(c2, c1.apex - c2.apex + MVec3(rng.normal(), 0.0, 0.0))
        if rng.random() < 0.3:
            g = cover_compose(cover_rotation(rng.uniform(-7, 7)), cover_compose(
                cover_boost1(rng.uniform(-3, 3)), cover_rotation(rng.uniform(-3, 3))))
            c1, c2 = act(g, c1), act(g, c2)
        rows = _separation_rows(c1, c2)
        by_rows.setdefault(len(rows), []).append(rows)
    assert sorted(by_rows) == list(range(8, 14))
    for group in by_rows.values():
        stacked = [tuple(v) for v in _certificates(np.stack(group)).tolist()]
        assert stacked == [certificate(rows) for rows in group]


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


def test_definition_scan_follows_far_sheets():
    # pairs up to 10^6 sheets apart: the scan's 11 sheets sit about the arcs'
    # own offset, so it finds the closed form's N there; a pair with no
    # winding still raises
    rng = np.random.default_rng(21)
    far = 0
    for _ in range(300):
        c2, c1 = rnd_pair(rng)
        m = int(rng.choice([-1, 1])) * int(10 ** rng.uniform(0, 6))
        c2 = act(cover_rotation(TWO_PI * m), c2)
        n = relative_winding(c2, c1)
        assert relative_winding_scan(c2, c1) == n and relative_winding_scan(c1, c2) == -1 - n
        far += not -5 <= n <= 5
    assert far > 200
    west = cone_path(MVec3(0, 0, 0), -0.2, 0.2, sheet=9)
    east = cone_path(MVec3(0, 0, 0), 0.2, 0.2, sheet=9)
    with pytest.raises(WindingError, match="share an endpoint"):
        relative_winding_scan(east, west)


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
        relative_winding(translated(c, MVec3(2.0, 0, 0)), c)


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


def test_act_keeps_paths_under_strong_boosts():
    # r(a) b1(8) r(b) stretches the normals by up to e^8, and with them the
    # float error of n.n, which the light-like check reads relative to n0^2
    rng = np.random.default_rng(8)
    for k in range(600):
        a, b = rng.uniform(-3, 3, 2)
        g = cover_compose(cover_rotation(a), cover_compose(cover_boost1(8.0), cover_rotation(b)))
        c = (cone_path(ZERO_VEC, rng.uniform(-3, 3), rng.uniform(0.05, 1.4)) if k % 2
             else wedge_path(ZERO_VEC, rng.uniform(-3, 3)))
        moved = act(g, c)
        assert moved.kind == c.kind


def test_normals_off_the_light_cone_are_rejected_at_any_scale():
    # through the public constructor; the package's own regions are checked
    # against it by the refereed_paths fixture
    c = cone_path(ZERO_VEC, 0.3, 0.4)

    def public(n):
        return ConePath(c.apex, c.arc, c.kind, (MVec3(*n), *c.normals[1:]), c.corners)

    for size in (1.0, math.exp(8)):
        n = size * np.array([1.0, math.cos(0.7), math.sin(0.7)])
        public(n)
        n[1:] *= 1 + 1e-6
        with pytest.raises(ValueError, match="light-like"):
            public(n)
    # finite, but n.n overflows to inf - inf = NaN, which the bound refuses
    with pytest.raises(ValueError, match="light-like"):
        public((1e200, 1e200, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("what", ["apex", "normal", "corner"])
def test_the_public_constructor_refuses_non_finite_vectors(what, bad):
    # a NaN apex, or a normal (nan, nan, nan) or (inf, inf, 0), once read as
    # separated from the antipodal cone with relative winding -1: n.n of such
    # a normal is NaN, which no bound refused
    c = cone_path(ZERO_VEC, 0.0, 0.2)
    v = MVec3(bad, bad, 0.0)
    apex = v if what == "apex" else c.apex
    normals = (v, *c.normals[1:]) if what == "normal" else c.normals
    corners = (*c.corners[:3], v) if what == "corner" else c.corners
    with pytest.raises(ValueError, match=rf"^{what} \({bad}, {bad}, 0.0\) is not finite$"):
        ConePath(apex, c.arc, c.kind, normals, corners)


def test_far_rotations_and_rebases_keep_the_wedge_arc_rule():
    # a shift by 2 pi m rounds both arc ends to the float grid near 2 pi m:
    # a width above pi + ARC_TOL is no LiftedArc, and _path refuses one below
    # pi - ARC_TOL.  Pure rotations and rebases shift the ends; a boost on
    # top drifts them apart (LiftError).  From m = 1e9 no wedge survives
    rng = np.random.default_rng(1)
    narrowed = accepted = 0
    for _ in range(3000):
        m = int(10 ** rng.uniform(6, 13))
        w = wedge_path(MVec3(*rng.normal(0, 1, 3)), rng.uniform(-math.pi, math.pi))
        far = ReferenceFrame(math.pi / 2 + TWO_PI * m)
        for shift, move in ((TWO_PI * m, lambda: act(cover_rotation(TWO_PI * m), w)),
                            (far.reference_angle - math.pi / 2,
                             lambda: rebase(w, ReferenceFrame(), far))):
            lo, hi = w.arc.alpha_minus + shift, w.arc.alpha_plus + shift
            if hi - lo > math.pi + ARC_TOL:
                message = "outside"
            elif hi - lo < math.pi - ARC_TOL:
                message, narrowed = "wedge arcs must have width exactly pi", narrowed + 1
            else:
                assert m < 10 ** 9 and move().arc == LiftedArc(lo, hi)
                accepted += 1
                continue
            with pytest.raises(ValueError, match=message):
                move()
        try:
            moved = act(cover_compose(cover_rotation(TWO_PI * m), cover_boost1(0.5)), w)
        except LiftError:
            continue
        assert m < 10 ** 9 and abs(moved.arc.width - math.pi) <= ARC_TOL
    assert narrowed > 2000 and accepted > 100


def test_built_paths_pass_the_public_rules(refereed_paths):
    built, refused = refereed_paths
    _built_paths()
    assert not refused and len(built) == 15


@pytest.mark.parametrize("seed", [1, 3, 7, 11, 42])
def test_every_region_of_verify_all_passes_the_public_rules(monkeypatch, capsys, refereed_paths,
                                                            seed):
    # in this process, so that the referee sees the suites' regions; the
    # report stays the committed one
    monkeypatch.delenv("PLEKTONLAB_SWEEP", raising=False)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    built, refused = refereed_paths
    code = main(["verify", "--suite", "all", "--model", str(ASSETS / "z3_anyon.json"),
                 "--scene", str(ASSETS / "antipodal_scene.json"), "--seed", str(seed),
                 "--format", "json"])
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / f"verify_all_seed{seed}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert not refused and len(built) > 5000


def _built_paths():
    """(name, path) from every builder: cone_path, wedge_path, act (a boost
    with a translation, a pure rotation), reflect_path and rebase."""
    cone = cone_path(MVec3(0.1, -0.2, 0.3), 0.7, 0.4, sheet=1)
    wedge = wedge_path(MVec3(-0.3, 0.2, 0.1), -1.1, sheet=-1)
    g = cover_compose(CoveringPoincare(MVec3(0.5, -0.4, 0.3), CoveringLorentz.identity()),
                      cover_compose(cover_rotation(2.5), cover_boost1(0.8)))
    f0, f1 = ReferenceFrame(), ReferenceFrame(2.0)
    out = []
    for name, c in (("cone", cone), ("wedge", wedge),
                     ("complement", cone_path(ZERO_VEC, -2.0, 0.3, kind=KIND_CONE_COMPLEMENT))):
        out += [(name, c), (f"act-{name}", act(g, c)),
                (f"rotate-{name}", act(cover_rotation(-TWO_PI), c)),
                (f"reflect-{name}", reflect_path(c)), (f"rebase-{name}", rebase(c, f0, f1))]
    return out


_BUILT = dict(_built_paths())


@pytest.mark.parametrize("name", list(_BUILT))
def test_rows_are_read_only_and_the_views_are_their_bits(name):
    path = _BUILT[name]
    assert path.rows.dtype == float and not path.rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        path.rows[0, 0] = 1.0
    k = 2 if path.kind == "wedge" else 4
    assert path.rows.shape == (5 + k, 3)
    assert len(path.normals) == k and len(path.corners) == 4
    vecs = (path.apex, *path.normals, *path.corners)
    assert all(type(v) is MVec3 and all(type(x) is float for x in v) for v in vecs)
    assert np.array(vecs).tobytes() == path.rows.tobytes()
    # read once, then cached
    assert path.apex is path.apex and path.corners is path.corners


def test_a_path_has_the_rows_of_its_kind():
    c, w = cone_path(ZERO_VEC, 0.3, 0.4), wedge_path(ZERO_VEC, 0.3)
    with pytest.raises(ValueError, match="^a cone path has 9 vectors .*, not 7$"):
        ConePath(c.apex, c.arc, c.kind, c.normals[:2], c.corners)
    with pytest.raises(ValueError, match="^a wedge path has 7 vectors .*, not 9$"):
        ConePath(w.apex, w.arc, w.kind, w.normals * 2, w.corners)
    with pytest.raises(ValueError, match="unknown kind"):
        ConePath(c.apex, c.arc, "cone complement", c.normals, c.corners)


def test_a_pickled_path_comes_back_read_only():
    # verify --suite all sends the scene's paths to its workers by pickle
    for path in _BUILT.values():
        for back in (pickle.loads(pickle.dumps(path)), copy.deepcopy(path)):
            assert back == path and not back.rows.flags.writeable
            assert back.rows.tobytes() == path.rows.tobytes()


def _as_tuple(path):
    """The parent's field tuple of a path, whose == and hash it kept."""
    return (path.apex, path.arc, path.kind, path.normals, path.corners)


def test_equality_and_hash_follow_the_vector_tuples():
    # separately built equal paths, a -0.0/0.0 apex pair, and unequal paths
    # that differ in the apex, the arc, the sheet or the kind
    a = cone_path(MVec3(0.1, 0.2, 0.3), 0.4, 0.3)
    paths = [a, cone_path(MVec3(0.1, 0.2, 0.3), 0.4, 0.3),
             cone_path(MVec3(-0.0, 0.0, -0.0), 0.4, 0.3), cone_path(MVec3(0.0, -0.0, 0.0), 0.4, 0.3),
             cone_path(MVec3(0.1, 0.2, 0.30000000000000004), 0.4, 0.3),
             cone_path(MVec3(0.1, 0.2, 0.3), 0.4, 0.3, sheet=1),
             cone_path(MVec3(0.1, 0.2, 0.3), 0.4, 0.3, kind=KIND_CONE_COMPLEMENT),
             cone_path(MVec3(0.1, 0.2, 0.3), 0.4, 0.31),
             wedge_path(MVec3(0.1, 0.2, 0.3), 0.4), wedge_path(MVec3(0.1, 0.2, 0.3), 0.4),
             rebase(a, ReferenceFrame(), ReferenceFrame()), act(cover_rotation(0.0), a)]
    assert paths[2].rows.tobytes() != paths[3].rows.tobytes()
    equal_pairs = 0
    for p in paths:
        for q in paths:
            assert (p == q) == (_as_tuple(p) == _as_tuple(q))
            assert (p != q) == (_as_tuple(p) != _as_tuple(q))
            if p == q:
                assert hash(p) == hash(q)
                equal_pairs += p is not q
    # the classes {0, 1, 10, 11}, {2, 3} and {8, 9}, ordered pairs of distinct members
    assert equal_pairs == 12 + 2 + 2
    assert a != _as_tuple(a) and len({*paths}) == 7


def test_act_builds_no_vector(monkeypatch):
    # MVec3 constructions counted through both constructors of the class,
    # while act moves a cone and a wedge by a boost with a translation, a
    # pure rotation and a wedge that drifts nowhere
    c = cone_path(MVec3(0.1, -0.2, 0.3), 0.7, 0.4, sheet=1)
    w = wedge_path(MVec3(-0.3, 0.2, 0.1), -1.1)
    shift = CoveringPoincare(MVec3(0.5, -0.4, 0.3), CoveringLorentz.identity())
    elements = [cover_compose(shift, cover_compose(cover_rotation(2.5), cover_boost1(0.8))),
                cover_boost1(-3.0), cover_rotation(TWO_PI), CoveringPoincare.identity()]
    built = []
    new, make = MVec3.__new__, MVec3._make

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def counted_make(cls, iterable):
        built.append(iterable)
        return make(iterable)

    monkeypatch.setattr(MVec3, "__new__", counted_new)
    monkeypatch.setattr(MVec3, "_make", classmethod(counted_make))
    assert MVec3(1.0, 2.0, 3.0) == (1.0, 2.0, 3.0) and len(built) == 1
    built.clear()
    images = [act(g, path) for g in elements for path in (c, w)]
    assert built == []
    # the views are built when read, through the counted constructors
    assert len(images[0].corners) == 4 and len(built) == 4


def test_act_names_no_vector_type():
    # act moves the rows array: no per-vector object and no array packing
    tree = ast.parse(inspect.getsource(act))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    calls = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert "MVec3" not in names and ("np", "array") not in calls


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
    # the sheet whose centre 2 pi n is nearest; at an odd multiple of pi the
    # lower one where mu / 2 pi meets the tie exactly, else one within rounding
    for k in range(-40, 40):
        tie = (2 * k + 1) * math.pi
        for mu, sheets in ((tie - 1e-9, {k}), (tie + 1e-9, {k + 1}),
                           (tie, {k} if tie / TWO_PI == k + 0.5 else {k, k + 1})):
            arc = standard_wedge_path(ReferenceFrame(mu)).arc
            assert arc in {wedge_path(ZERO_VEC, 0.0, n).arc for n in sheets}
    assert sum((2 * k + 1) * math.pi / TWO_PI == k + 0.5 for k in range(-40, 40)) >= 9


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
    real = cones._decide

    def certificates(rows):
        viol = real(rows)
        key = np.floor(np.abs(rows[:, 0, 1]) * 1e6) % 5
        viol[key == 0, 0] = 3e-9
        viol[key == 1, 1] = 4e-8
        return viol

    monkeypatch.setattr(cones, "_decide", certificates)
    many = cones._separated_many(pairs)
    single = [_decided(c1, c2) for c1, c2 in pairs]
    assert all(_same_verdict(a, b) for a, b in zip(many, single))
    margins = {str(v) for v in many if isinstance(v, SeparationError)}
    assert {"separation undecidable within tolerance (margin 3.000e-09)",
            "separation undecidable within tolerance (margin 4.000e-08)"} <= margins


# ---------------------------------------------------------------------------
# the minimiser filter in front of the certificate
# ---------------------------------------------------------------------------

def _verdict_or_error(violations):
    """`_verdict(violations)`, or the SeparationError it raises."""
    try:
        return cones._verdict(violations)
    except SeparationError as exc:
        return exc


def _kernel_violations(row_sets):
    """`_certificates` per row set, as tuples, from one stack per row count
    (each lane bitwise a call on its own)."""
    by_n: dict = {}
    for i, rows in enumerate(row_sets):
        by_n.setdefault(len(rows), []).append(i)
    out = [None] * len(row_sets)
    for lanes in by_n.values():
        for i, viol in zip(lanes, _certificates(np.stack([row_sets[i] for i in lanes])).tolist()):
            out[i] = tuple(viol)
    return out


def _filter_cases(rng, count):
    """(C1, C2) pairs with 8 to 13 rows: cones and wedges, shared apexes,
    time-like translates, a third of them moved by a covering element with
    rapidity up to 4."""
    def region(apex):
        center = rng.uniform(-math.pi, math.pi)
        if rng.random() < 0.3:
            return wedge_path(apex, center)
        return cone_path(apex, center, rng.uniform(0.05, 1.4))

    pairs = []
    for _ in range(count):
        apex = MVec3(*rng.normal(0, 0.4, 3))
        c1 = region(apex)
        c2 = region(apex if rng.random() < 0.4 else MVec3(*rng.normal(0, 0.4, 3)))
        if rng.random() < 0.1:
            c2 = translated(c2, c1.apex - c2.apex + MVec3(rng.normal(), 0.0, 0.0))
        if rng.random() < 0.3:
            g = rnd_cover(rng, rapidity=4.0)
            c1, c2 = act(g, c1), act(g, c2)
        pairs.append((c1, c2))
    return pairs


def _signed_gap_cases(rng, count, exponents=(-12.0, -4.0)):
    """The signed-gap construction of test_separation_boundaries at gaps
    +-10^e, e uniform in ``exponents``, moved by covering elements with
    rapidity up to 4: by default its certificate margins straddle SEP_ZERO
    and SEP_AMBIGUOUS."""
    # imported here: test_separation_boundaries imports this module
    from tests.test_separation_boundaries import gap_regions

    pairs = []
    for _ in range(count):
        delta = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(*exponents)
        pair = gap_regions(rng.random() < 0.3, rng.uniform(-math.pi, math.pi),
                           *rng.uniform(0.05, 1.2, 2), delta, *rng.integers(-2, 3, 2).tolist(),
                           *rng.uniform(0.0, 1.0, 2), rnd_cover(rng, rapidity=4.0),
                           rng.random() < 0.5)
        assert pair is not None  # a gap this small never leaves the arcs apart
        pairs.append(pair)
    return pairs


@functools.lru_cache(maxsize=1)
def _filter_pairs():
    """22 000 ordered (C1, C2) pairs: 11 000 drawn pairs, then each swapped."""
    rng = np.random.default_rng(67)
    drawn = _filter_cases(rng, 8000) + _signed_gap_cases(rng, 3000)
    return tuple(drawn + [(c2, c1) for c1, c2 in drawn])


def test_filtered_verdicts_are_the_kernels():
    # _separated_many and _cones_separated against _verdict(_certificates(...))
    # on 22 000 ordered pairs (each drawn pair both ways), every raise with
    # its message
    pairs = _filter_pairs()
    row_sets = [_separation_rows(c1, c2) for c1, c2 in pairs]
    assert {len(rows) for rows in row_sets} == set(range(8, 14))
    kernel = _kernel_violations(row_sets)
    want = [_verdict_or_error(viol) for viol in kernel]
    got = cones._separated_many(pairs)
    assert all(_same_verdict(a, b) for a, b in zip(got, want))
    assert {type(v).__name__ for v in want} == {"bool", "SeparationError"}
    assert {True, False} <= set(v for v in want if isinstance(v, bool))

    # the generators' filter on the cone pairs among them: every lane it
    # accepts is separated, with no raise
    lanes = [i for i, (c1, c2) in enumerate(pairs) if c1.kind == c2.kind == "cone"]
    apexes = np.array([[pairs[i][0].rows[0], pairs[i][1].rows[0]] for i in lanes])
    rays = np.array([[pairs[i][0].closure_rays, pairs[i][1].closure_rays] for i in lanes])
    accepted = cones._cones_separated(apexes[:, 0], rays[:, 0], apexes[:, 1], rays[:, 1])
    assert all(want[i] is True for i in np.array(lanes)[accepted])
    assert accepted.sum() >= 1000 and len(pairs) + len(lanes) >= 30000

    # the gap lanes reach both sides of both thresholds, within 10x of each
    gap_margins = [max(viol) for viol in kernel[8000:11000] + kernel[19000:]]
    for lo, hi in ((SEP_ZERO / 10.0, SEP_ZERO), (SEP_ZERO, 10.0 * SEP_ZERO),
                   (SEP_AMBIGUOUS / 10.0, SEP_AMBIGUOUS), (SEP_AMBIGUOUS, 10.0 * SEP_AMBIGUOUS)):
        assert any(lo < m <= hi for m in gap_margins), (lo, hi)


def test_lanes_without_minimisers_keep_the_kernels_verdict():
    # a zeroed row, or one with no spatial part, in stacks of every row count
    rng = np.random.default_rng(71)
    by_rows: dict = {}
    for c1, c2 in _filter_cases(rng, 1500):
        rows = _separation_rows(c1, c2)
        by_rows.setdefault(len(rows), []).append(rows)
    assert sorted(by_rows) == list(range(8, 14))
    for group in by_rows.values():
        rows = np.stack(group)
        lanes = np.arange(len(rows))
        rows[lanes % 5 == 1, lanes[lanes % 5 == 1] % rows.shape[1]] = 0.0
        rows[lanes % 5 == 2, -1, 1:] = 0.0
        got = [_verdict_or_error(v) for v in cones._decide(rows).tolist()]
        want = [_verdict_or_error(v) for v in _certificates(rows).tolist()]
        assert all(_same_verdict(a, b) for a, b in zip(got, want))


def _reference_minimisers(rows):
    """The kernel's minimiser candidates of one row set, built as in
    `_one_nappe_certificate` but with each violation kept: a (2, 2, n) array
    over (+ang, -ang) x (future, past) x row, inf where a row has none."""
    out = np.full((2, 2, len(rows)), math.inf)
    r = np.hypot(rows[:, 1], rows[:, 2])
    norms = np.abs(rows).max(axis=1)
    for s, sign in enumerate((1.0, -1.0)):
        t = np.full(len(rows), np.nan)
        t[r > 1e-14] = sign * rows[r > 1e-14, 0] / r[r > 1e-14]
        has = np.abs(t) <= 1.0
        base = np.arctan2(rows[has, 2] / r[has], rows[has, 1] / r[has])
        for a, psi in enumerate((base + np.arccos(t[has]), base - np.arccos(t[has]))):
            cand = np.stack([np.full(psi.shape, sign), np.cos(psi), np.sin(psi)], axis=1)
            values = (cand * np.array([1.0, -1.0, -1.0])) @ rows.T / norms
            out[a, s, has] = np.maximum(values.max(axis=1), 0.0)
    return out


def test_minimiser_values_match_the_kernels_candidates():
    # every one of the 4n values within 1e-14 of the kernel's, inf alike, and
    # never below the kernel's minimum over all its candidates
    rng = np.random.default_rng(73)
    pairs = _filter_cases(rng, 600) + _signed_gap_cases(rng, 200)
    for c1, c2 in pairs:
        rows = _separation_rows(c1, c2)
        got = cones._minimiser_violations(rows[None])[0]
        want = _reference_minimisers(rows).ravel()
        assert got.shape == want.shape == (4 * len(rows),)
        assert (np.isinf(got) == np.isinf(want)).all()
        finite = np.isfinite(want)
        assert finite.any() and (np.abs(got[finite] - want[finite]) <= 1e-14).all()
        nappes = got.reshape(2, 2, -1).min(axis=(0, 2))
        assert (nappes >= np.array(certificate(rows))).all()


def test_a_lane_is_settled_iff_its_minimisers_clear_the_bound(monkeypatch):
    # near-grazing gap lanes: a lane reaches the kernel iff the least of its
    # 4n minimiser values exceeds SEP_FILTER in a nappe, else it keeps those
    # least values; among them are lanes that one family of minimisers
    # (+ang or -ang) settles alone and lanes just above the bound
    real, sent = cones._certificates, set()
    monkeypatch.setattr(cones, "_certificates",
                        lambda rows: sent.update(r.tobytes() for r in rows) or real(rows))
    by_rows: dict = {}
    for c1, c2 in _signed_gap_cases(np.random.default_rng(83), 1000, (-12.0, -9.0)):
        rows = _separation_rows(c1, c2)
        by_rows.setdefault(len(rows), []).append(rows)
    one_family, above = {0: 0, 1: 0}, 0
    for group in by_rows.values():
        for rows, margins in zip(group, cones._decide(np.stack(group))):
            ref = _reference_minimisers(rows)
            least = ref.min(axis=(0, 2))
            if (least <= SEP_FILTER).all():
                assert rows.tobytes() not in sent
                assert (np.abs(margins - least) <= 1e-14).all()
                for family in (0, 1):
                    one_family[family] += not (ref[1 - family].min(axis=1) <= SEP_FILTER).all()
            else:
                assert rows.tobytes() in sent and tuple(margins.tolist()) == certificate(rows)
                above += max(least) <= 2.0 * SEP_FILTER
    assert min(one_family.values()) > 0 and above > 0


def _fan(rng, count):
    """``count`` cones spread over one turn on sheets -3 to 3: arcs at most
    0.6 of the angular step wide about their centres, each apex on its own
    axis, so each cone lies inside the cone of the same arc at the origin and
    every pair is separated."""
    step = TWO_PI / count
    fan = []
    for k in range(count):
        center = k * step + rng.uniform(-0.1, 0.1) * step
        half = rng.uniform(0.1, 0.3) * step
        s = rng.uniform(0.0, 0.5)
        fan.append(cone_path(MVec3(0.0, s * math.cos(center), s * math.sin(center)), center,
                             half, sheet=int(rng.integers(-3, 4))))
    return fan


def test_separated_fan_needs_no_kernel(monkeypatch):
    # every ordered pair of a separated 20-cone fan is settled by the
    # minimisers; an overlapping and an in-band pair still reach the kernel
    real, calls = cones._certificates, []
    monkeypatch.setattr(cones, "_certificates", lambda rows: calls.append(len(rows)) or real(rows))
    fan = _fan(np.random.default_rng(79), 20)
    table = {(i, j): relative_winding(fan[i], fan[j])
             for i in range(20) for j in range(20) if i != j}
    assert calls == []
    assert all(table[i, j] + table[j, i] == -1 for i, j in table)

    c = cone_path(ZERO_VEC, 0.0, 0.3)
    assert not causally_separated(c, translated(c, MVec3(2.0, 0.0, 0.0)))
    assert calls == [1]
    # arcs overlapping by 1e-8 at a common apex: a margin in the band
    with pytest.raises(SeparationError, match="undecidable within tolerance"):
        relative_winding(cone_path(ZERO_VEC, 0.7 - 1e-8, 0.4), c)
    assert calls == [1, 1]


# ---------------------------------------------------------------------------
# the generators' filter: the minimisers alone
# ---------------------------------------------------------------------------

def _boost(chi, direction):
    """The pure boost of rapidity chi towards ``direction``, as a symmetric
    3x3 array (rows x map to x @ L)."""
    c, s = math.cos(direction), math.sin(direction)
    ch, sh = math.cosh(chi), math.sinh(chi)
    return np.array([[ch, sh * c, sh * s],
                     [sh * c, 1.0 + (ch - 1.0) * c * c, (ch - 1.0) * c * s],
                     [sh * s, (ch - 1.0) * c * s, 1.0 + (ch - 1.0) * s * s]])


def _generator_lanes(rng, count):
    """(apex1, rays1, apex2, rays2) drawn as `suites.random_separated_pairs`
    draws its candidates: apex gaps of every causal type."""
    d1, d2 = rng.uniform(0.08, 0.45, (2, count))
    base = rng.uniform(-math.pi, math.pi, count)
    rel = d1 + d2 + 0.15 + rng.uniform(0.0, TWO_PI - 2.0 * (d1 + d2 + 0.15))
    apex1, apex2 = rng.normal(0.0, 0.05, (2, count, 3))
    return apex1, cones._cone_rays(base, d1), apex2, cones._cone_rays(base + rel, d2)


def _fan_lanes(rng, fans):
    """(apex1, rays1, apex2, rays2) of the 6 pairs of each of ``fans``
    four-cone fans drawn as `suites._separated_fan` draws a try."""
    step = TWO_PI / 4
    a, b = np.triu_indices(4, k=1)
    centers = rng.uniform(-math.pi, math.pi, (fans, 1)) + np.arange(4) * step
    apexes = np.zeros((fans, 4, 3))
    apexes[..., 1:] = rng.normal(0.0, 0.02, (fans, 4, 2))
    rays = cones._cone_rays(centers.ravel(), rng.uniform(0.08, 0.3 * step, 4 * fans))
    rays = rays.reshape(fans, 4, 4, 3)
    return (apexes[:, a].reshape(-1, 3), rays[:, a].reshape(-1, 4, 3),
            apexes[:, b].reshape(-1, 3), rays[:, b].reshape(-1, 4, 3))


def _touching_lanes(rng, count):
    """(apex1, rays1, apex2, rays2) whose apex gap is time-like by
    delta = 10^U(-13, -6) of its length, along a direction theta that C1
    opens towards and C2 away from.  Unturned, no ray leads from d to a more
    time-like point, and the certificate reads contact below SEP_ZERO; half
    the cones are turned by up to 0.6, half the pairs swapped (a past gap)
    and a third boosted by rapidity up to 2."""
    theta = rng.uniform(-math.pi, math.pi, count)
    r = rng.uniform(0.01, 0.5, count)
    delta = 10.0 ** rng.uniform(-13.0, -6.0, count)
    turn = (rng.random(count) < 0.5) * rng.uniform(-0.6, 0.6, (2, count))
    apex2 = rng.normal(0.0, 0.3, (count, 3))
    apex1 = apex2 + np.stack([r * (1.0 + delta), r * np.cos(theta), r * np.sin(theta)], axis=1)
    rays1 = cones._cone_rays(theta + turn[0], rng.uniform(0.05, 1.2, count))
    rays2 = cones._cone_rays(theta + math.pi + turn[1], rng.uniform(0.05, 1.2, count))
    swap = rng.random(count) < 0.5
    lanes = [np.where(swap[:, None], apex2, apex1), np.where(swap[:, None, None], rays2, rays1),
             np.where(swap[:, None], apex1, apex2), np.where(swap[:, None, None], rays1, rays2)]
    for i in np.flatnonzero(rng.random(count) < 1.0 / 3.0):
        boost = _boost(rng.uniform(-2.0, 2.0), rng.uniform(-math.pi, math.pi))
        for a in lanes:
            a[i] = a[i] @ boost
    return lanes


def test_generator_acceptance_is_sound_and_the_kernels_on_drawn_lanes():
    # 24 000 lanes drawn like the generators' candidates (pairs, then fan
    # tries) and 12 000 touching the light cone at their gap: every accepted
    # lane has the kernel's verdict True, with no raise, and on the drawn
    # lanes acceptance is that verdict
    rng = np.random.default_rng(89)
    apex1, rays1, apex2, rays2 = (np.concatenate(parts) for parts in zip(
        _generator_lanes(rng, 12000), _fan_lanes(rng, 2000), _touching_lanes(rng, 12000)))
    rows = np.concatenate([rays1, -rays2, (apex1 - apex2)[:, None]], axis=1)
    kernel = np.concatenate([_certificates(rows[i:i + 2000]) for i in range(0, 36000, 2000)])
    want = np.array([_verdict_or_error(viol) is True for viol in kernel.tolist()])
    accepted = cones._cones_separated(apex1, rays1, apex2, rays2)
    assert want[accepted].all()
    drawn = np.arange(36000) < 24000
    assert (accepted[drawn] == want[drawn]).all()
    assert 0 < want[:12000].sum() < 12000 and 0 < want[12000:24000].sum() < 12000
    # the touching lanes reach contact, the band and overlap in both nappes,
    # and some that are not separated have minimisers between SEP_FILTER and
    # SEP_AMBIGUOUS
    touching = ~drawn
    future = rows[:, -1, 0] > 0.0
    margin = kernel.max(axis=1)
    for nappe in (future, ~future):
        lanes = touching & nappe
        assert (want & lanes).sum() >= 100
        assert ((margin > SEP_ZERO) & (margin < SEP_AMBIGUOUS) & lanes).sum() >= 100
        assert ((margin >= SEP_AMBIGUOUS) & lanes).sum() >= 100
    least = cones._minimiser_violations(rows).reshape(-1, 2, 2, 9).min(axis=(1, 3)).max(axis=1)
    assert ((SEP_FILTER < least) & (least < SEP_AMBIGUOUS) & ~want & touching).any()


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
