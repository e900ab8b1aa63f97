"""The stacked transport layer against the per-vector and full-matrix formulas
it replaced, kept here as references, and the covering group's chart against
an 80-digit SU(1,1) product.

`act` and `standard_boost` perform the references' arithmetic on fewer or
larger arrays, and `cone_path`, `wedge_path`, `reflect_path`,
`closure_rays` and the generators' `_cone_rays` build the per-vector
regions of the references from 3-tuples, so every output must agree bit for
bit, signed zeros included.  The generators build their cones from the rows
of `_cone_rays` through `cone_path`'s builder; `tests/test_suites.py` holds
those cones to `cone_path` bit for bit.  `cover_compose`, `cover_inverse`, the chart's
matrices and `wigner_rotation` must agree with mpmath to a few eps of the
float error their factors carry.
"""

import math

import numpy as np

from plektonlab import cones, minkowski
from plektonlab.cones import (
    KIND_CONE,
    KIND_CONE_COMPLEMENT,
    KIND_WEDGE,
    ConePath,
    LiftedArc,
    ReferenceFrame,
    act,
    cone_path,
    rebase,
    reflect_path,
    wedge_path,
)
from plektonlab.minkowski import (
    LIFT_TOL,
    TWO_PI,
    CoveringLorentz,
    CoveringPoincare,
    LiftError,
    MVec3,
    cover_boost1,
    cover_compose,
    cover_inverse,
    cover_rotation,
)
from plektonlab.wigner import shell_points, standard_boost, wigner_rotation
from tests import su11

EPS = np.finfo(float).eps


def _standard_boost_loop(pts):
    m = np.sqrt(pts[..., 0] ** 2 - pts[..., 1] ** 2 - pts[..., 2] ** 2)
    u = pts / m[..., None]
    out = np.zeros(pts.shape[:-1] + (3, 3))
    g = u[..., 0]
    out[..., 0, 0] = g
    for i in (1, 2):
        out[..., 0, i] = u[..., i]
        out[..., i, 0] = u[..., i]
        for j in (1, 2):
            out[..., i, j] = (i == j) + u[..., i] * u[..., j] / (1.0 + g)
    return out


def _reference(g):
    return su11.chart(g.angle, g.rapidity, g.direction)


def _act_per_vector(g, path):
    p = g if isinstance(g, CoveringPoincare) else CoveringPoincare(MVec3(0.0, 0.0, 0.0), g)
    m, theta = p.lorentz.matrix.m, p.lorentz.angle

    def move(v):
        w = m @ v.as_array()
        return MVec3(float(w[0]), float(w[1]), float(w[2]))

    apex = p.translation + move(path.apex)
    normals = tuple(move(n) for n in path.normals)
    corners = tuple(move(c) for c in path.corners)
    if p.lorentz.is_pure_rotation():
        return ConePath(apex, path.arc.shifted(theta), path.kind, normals, corners)
    rays = np.stack([path.corners[0].as_array(), path.corners[1].as_array()])
    moved = rays @ m.T
    turn = np.arctan2(moved[:, 2], moved[:, 1]) - np.arctan2(rays[:, 2], rays[:, 1]) - theta
    turn = np.remainder(turn + math.pi, TWO_PI) - math.pi
    lo, hi = (np.array([path.arc.alpha_minus, path.arc.alpha_plus]) + theta + turn).tolist()
    if path.kind == KIND_WEDGE:
        if abs((hi - lo) - math.pi) > LIFT_TOL:
            raise LiftError("wedge arc endpoints drifted apart under transport")
        hi = lo + math.pi
    return ConePath(apex, LiftedArc(lo, hi), path.kind, normals, corners)


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _path_bits(c):
    vecs = (c.apex, *c.normals, *c.corners)
    return (c.kind, np.array([c.arc.alpha_minus, c.arc.alpha_plus]).tobytes(),
            np.array([(v.x0, v.x1, v.x2) for v in vecs]).tobytes())


def _elements(rng, n):
    """Boosts R(theta + psi) B1(t) R(-psi) with |t| up to 6, pure rotations
    by 2 pi m and pure axis boosts."""
    out = []
    for k in range(n):
        t = rng.uniform(-6.0, 6.0) if k % 2 else rng.uniform(-1.0, 1.0)
        theta, psi = rng.uniform(-12.0, 12.0), rng.uniform(-math.pi, math.pi)
        out.append(cover_compose(cover_rotation(theta + psi),
                                 cover_compose(cover_boost1(t), cover_rotation(-psi))))
    out += [cover_rotation(TWO_PI * m) for m in (-3, -2, -1, 1, 2, 3)]
    out += [cover_rotation(0.0), cover_boost1(6.0), cover_boost1(-6.0)]
    return out


def _outcome(build):
    """The bits of the path build() returns, or the repr of its LiftError."""
    try:
        return _path_bits(build())
    except LiftError as exc:
        return repr(exc)


def _rebase_per_vector(path, old_frame, new_frame):
    offset = new_frame.reference_angle - old_frame.reference_angle
    return ConePath(path.apex, path.arc.shifted(offset), path.kind, path.normals, path.corners)


def test_act_matches_per_vector_reference():
    # one act, and depth-2 chains: act of an act image (by the next element),
    # of a reflect_path image and of a rebase image, each against the
    # per-vector references chained the same way
    rng = np.random.default_rng(101)
    paths = [cone_path(MVec3(*rng.normal(0.0, 0.4, 3)), rng.uniform(-math.pi, math.pi),
                       rng.uniform(0.05, 1.4), sheet=int(rng.integers(-2, 3)))
             for _ in range(4)]
    paths += [wedge_path(MVec3(*rng.normal(0.0, 0.4, 3)), rng.uniform(-math.pi, math.pi),
                         sheet=int(rng.integers(-2, 3))) for _ in range(3)]
    frames = [ReferenceFrame(), ReferenceFrame(-math.pi / 2.0), ReferenceFrame(1.3)]
    elements = _elements(rng, 160)
    for k, g in enumerate(elements):
        if k % 2:
            shift = MVec3(*rng.normal(0.0, 1.0, 3))
            g = cover_compose(CoveringPoincare(shift, CoveringLorentz.identity()), g)
        h = elements[(k + 1) % len(elements)]
        frame, other = frames[k % 2], frames[2]
        for c in paths:
            assert _outcome(lambda: act(g, c)) == _outcome(lambda: _act_per_vector(g, c))
            assert _outcome(lambda: act(h, act(g, c))) == _outcome(
                lambda: _act_per_vector(h, _act_per_vector(g, c)))
            assert _outcome(lambda: act(g, reflect_path(c, frame))) == _outcome(
                lambda: _act_per_vector(g, _reflect_path_per_vector(c, frame)))
            assert _outcome(lambda: act(g, rebase(c, frame, other))) == _outcome(
                lambda: _act_per_vector(g, _rebase_per_vector(c, frame, other)))


def test_compose_and_inverse_match_full_matrix_reference():
    # each product's chart within 8 eps sqrt(L00_1 L00_2) max(1, |lifts|) of the
    # 80-digit product, its matrix within 8 eps L00_1 L00_2 max(1, |lifts|);
    # an inverse within 8 eps max(1, |lift|), its matrix 8 eps L00 max(1, |lift|)
    rng = np.random.default_rng(102)
    elements = _elements(rng, 200)
    for k, g in enumerate(elements):
        # strong with mild partners, and each element with its own inverse
        for h in (elements[-1 - k], cover_inverse(g)):
            gh = cover_compose(g, h)
            ref = su11.compose(_reference(g), _reference(h))
            size = g.matrix.m[0, 0] * h.matrix.m[0, 0]
            lifts = max(1.0, abs(g.angle), abs(h.angle))
            assert max(su11.chart_errors(gh, ref)) <= 8.0 * EPS * math.sqrt(size) * lifts
            assert np.abs(gh.matrix.m - su11.matrix(ref)).max() <= 8.0 * EPS * size * lifts
        inv = cover_inverse(g)
        ref = su11.inverse(_reference(g))
        lift = max(1.0, abs(g.angle))
        assert inv.angle == -g.angle and inv.rapidity == g.rapidity
        assert max(su11.chart_errors(inv, ref)) <= 8.0 * EPS * lift
        assert np.abs(inv.matrix.m - su11.matrix(ref)).max() <= 8.0 * EPS * g.matrix.m[0, 0] * lift


def test_chart_matrix_matches_mpmath():
    # R(theta) B(chi, phi) from cos, sin, cosh and sinh against the matrix
    # rounded once from 80 digits, and back through the public constructor
    rng = np.random.default_rng(103)
    for g in _elements(rng, 100):
        m = g.matrix.m
        assert np.abs(m - su11.matrix(_reference(g))).max() <= 4.0 * EPS * m[0, 0]
        back = minkowski.CoveringLorentz(minkowski.LorentzMatrix(m), g.angle)
        assert max(su11.chart_errors(back, _reference(g))) <= 4.0 * EPS * max(1.0, abs(g.angle))


def test_standard_boost_matches_loop_and_wigner_matches_mpmath():
    # standard_boost bit for bit against the per-entry loop; wigner_rotation
    # within 8 eps max(1, |theta|) of the 80-digit lift of g B_p, with B_p
    # the chart element (0, chi_p, phi_p) of each float point, on arrays and
    # on single points
    rng = np.random.default_rng(104)
    for g in _elements(rng, 120):
        spatial = rng.uniform(-2.5, 2.5, (12, 2))
        spatial[0] = 0.0  # at rest
        spatial[1, 0] = 0.0  # on the p2 axis
        spatial[2, 1] = 0.0  # on the p1 axis
        pts = shell_points(rng.uniform(0.5, 2.0), spatial)
        _assert_same_bits(standard_boost(pts), _standard_boost_loop(pts))
        want = [su11.compose(_reference(g), su11.boost_to(p))[0] for p in pts]
        bound = 8.0 * EPS * max(1.0, abs(g.angle))
        assert max(abs(float(x) - w) for x, w in zip(wigner_rotation(g, pts), want)) <= bound
        for k in range(3):
            single = wigner_rotation(g, pts[k])
            assert single.shape == () and abs(single - want[k]) <= bound


def _spatial_per_vector(angle):
    return MVec3(0.0, math.cos(angle), math.sin(angle))


def _wedge_normals_per_vector(center):
    c, s = math.cos(center), math.sin(center)
    return (MVec3(-1.0, -c, -s), MVec3(1.0, -c, -s))


def _cone_path_per_vector(apex, center, half, sheet, kind):
    lift = center + TWO_PI * sheet
    arc = LiftedArc(lift - half, lift + half)
    shift = math.pi / 2.0 - half
    normals = _wedge_normals_per_vector(center - shift) + _wedge_normals_per_vector(center + shift)
    axis = _spatial_per_vector(center)
    s = math.sin(half)
    corners = (_spatial_per_vector(center - half), _spatial_per_vector(center + half),
               MVec3(s, axis.x1, axis.x2), MVec3(-s, axis.x1, axis.x2))
    return ConePath(apex, arc, kind, normals, corners)


def _wedge_path_per_vector(apex, center, sheet):
    lift = center + TWO_PI * sheet
    arc = LiftedArc(lift - math.pi / 2.0, lift + math.pi / 2.0)
    axis = _spatial_per_vector(center)
    corners = (_spatial_per_vector(center - math.pi / 2.0),
               _spatial_per_vector(center + math.pi / 2.0),
               MVec3(1.0, axis.x1, axis.x2), MVec3(-1.0, axis.x1, axis.x2))
    return ConePath(apex, arc, KIND_WEDGE, _wedge_normals_per_vector(center), corners)


def _reflect_path_per_vector(path, frame):
    c = frame.reflection_constant()

    def j(v):
        return MVec3(-v.x0, -v.x1, v.x2)

    west, east, *rest = path.corners
    corners = (j(east), j(west), *(j(v) for v in rest))
    arc = LiftedArc(c - path.arc.alpha_plus, c - path.arc.alpha_minus)
    return ConePath(j(path.apex), arc, path.kind, tuple(j(n) for n in path.normals), corners)


def _closure_rays_per_vector(path):
    rays = [np.array([v.x0, v.x1, v.x2]) for v in path.corners]
    if path.kind == KIND_WEDGE:
        west, east, up, down = rays
        rays = [up, down, west, east, -west, -east]
    return np.array(rays)


def test_regions_match_per_vector_reference():
    rng = np.random.default_rng(106)
    centers = [0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, 7.5, -13.0]
    centers += rng.uniform(-math.pi, math.pi, 40).tolist()
    halves = [1e-3, 0.3, math.pi / 4.0, 1.5] + rng.uniform(0.05, 1.5, 8).tolist()
    apexes = [MVec3(0.0, -0.0, 0.0), MVec3(-0.0, 0.0, -0.0), MVec3(*rng.normal(0.0, 0.4, 3))]
    frames = [ReferenceFrame(), ReferenceFrame(-math.pi / 2.0), ReferenceFrame(5.0 * math.pi / 2.0)]
    for k, center in enumerate(centers):
        apex, sheet = apexes[k % 3], k % 5 - 2
        got = [wedge_path(apex, center, sheet)]
        want = [_wedge_path_per_vector(apex, center, sheet)]
        for half in halves:
            kind = KIND_CONE_COMPLEMENT if k % 4 == 3 else KIND_CONE
            got.append(cone_path(apex, center, half, sheet, kind))
            want.append(_cone_path_per_vector(apex, center, half, sheet, kind))
        for g, w in zip(got, want):
            assert _path_bits(g) == _path_bits(w)
            _assert_same_bits(g.closure_rays, _closure_rays_per_vector(w))
            for frame in frames:
                assert _path_bits(reflect_path(g, frame)) == _path_bits(
                    _reflect_path_per_vector(w, frame))
        rays = cones._cone_rays(np.full(len(halves), center), np.array(halves))
        _assert_same_bits(rays, [_closure_rays_per_vector(w) for w in want[1:]])
