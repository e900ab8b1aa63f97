"""Space-like cones, wedges and their lifted angular arcs.

A region is stored as its apex, the light-like normals of its boundary
planes, the extreme rays of its closure, and a lifted angular arc locating
the sheet of the universal cover of the manifold of space-like directions.
All winding-number arithmetic happens on the arcs; the rays and normals
carry the rapidity extent and decide causal separation.  The separation
certificate runs over a stack of pairs with one candidate layout per row
count, so each pair's violations are bitwise those of a single call.

Roles of the stored extreme rays (order is fixed and preserved by the
orientation-preserving group action):

* ``corners[0]`` ("west")  - the ray realising the lower arc endpoint,
* ``corners[1]`` ("east")  - the ray realising the upper arc endpoint,
* ``corners[2:4]``         - the rapidity extremes (light-like for wedges).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .minkowski import (
    TWO_PI,
    CoveringPoincare,
    LiftError,
    MVec3,
    _as_poincare,
    minkowski_inner,
    minkowski_norm2,
    reflect_vector,
    wrap_angle,
)
from .tolerances import (ARC_TOL, HALF_OPENING_MARGIN, LIFT_TOL, NORM2_TOL, ORACLE_COMMON_APEX,
                         ORACLE_CONTACT, REFLECTION_TOL, SEP_AMBIGUOUS, SEP_DEGENERATE,
                         SEP_NAPPE_SLACK, SEP_ZERO, SHEET_TIE, WEDGE_TOL)

KIND_CONE = "cone"
KIND_WEDGE = "wedge"
KIND_CONE_COMPLEMENT = "cone-complement"


class SeparationError(ValueError):
    """Causal separation could not be decided (grazing or invalid input)."""


class WindingError(ValueError):
    """No valid relative winding number exists for the given pair."""


@dataclass(frozen=True)
class SpacelikeDirection:
    """A point of the direction manifold: e.e = -1."""

    e: MVec3

    def __post_init__(self) -> None:
        n2 = minkowski_norm2(self.e)
        if abs(n2 + 1.0) > NORM2_TOL:
            raise ValueError(f"direction is not space-like unit (e.e = {n2})")


def direction_lifted_angle(e, sheet: int = 0) -> float:
    """Lifted angle atan2(e2, e1) + 2*pi*sheet, branch (-pi, pi]."""
    v = e.e if isinstance(e, SpacelikeDirection) else e
    if math.hypot(v.x1, v.x2) == 0.0:
        raise ValueError("direction has no spatial part")
    return math.atan2(v.x2, v.x1) + TWO_PI * sheet


def accumulated_angle(points) -> float:
    """Total angle swept by a discretely sampled path of directions."""
    vs = [p.e if isinstance(p, SpacelikeDirection) else p for p in points]
    angles = [math.atan2(v.x2, v.x1) for v in vs]
    total = 0.0
    for a, b in zip(angles, angles[1:]):
        total += wrap_angle(b - a)
    return total


@dataclass(frozen=True)
class LiftedArc:
    """Unreduced angular interval of a sheet; width in (0, pi]."""

    alpha_minus: float
    alpha_plus: float

    def __post_init__(self) -> None:
        w = self.width
        if not (w > 0.0 and w <= math.pi + ARC_TOL):
            raise ValueError(f"arc width {w} outside (0, pi]")

    @property
    def width(self) -> float:
        return self.alpha_plus - self.alpha_minus

    def shifted(self, delta: float) -> "LiftedArc":
        return LiftedArc(self.alpha_minus + delta, self.alpha_plus + delta)


@dataclass(frozen=True)
class ReferenceFrame:
    """Base point of the lifted-angle bookkeeping.

    ``reference_angle`` is the lifted angle of the reference direction e0,
    assumed to sit at the centre of the reference cone.  Reflection-aware
    operations require the reference cone to be invariant under
    j = diag(-1,-1,1), i.e. the angle must be pi/2 mod pi (the cone contains
    the positive or the negative x2 axis).
    """

    reference_angle: float = math.pi / 2.0

    def is_reflection_invariant(self) -> bool:
        return abs(wrap_angle(2.0 * self.reference_angle - math.pi)) <= REFLECTION_TOL

    def reflection_constant(self) -> float:
        """c such that the lifted reflection is angle -> c - angle."""
        if not self.is_reflection_invariant():
            raise ValueError(
                "reference cone is not invariant under the wedge-edge reflection"
            )
        return 2.0 * self.reference_angle


DEFAULT_FRAME = ReferenceFrame()


@dataclass(frozen=True)
class ConePath:
    """A path class: apex, lifted arc, kind, boundary data.

    For ``kind == 'cone-complement'`` the stored arc, normals and corners are
    those of the complemented cone; the projected region is its causal
    complement.  Such paths can be transported and reflected but are rejected
    by the ordering and winding operations.
    """

    apex: MVec3
    arc: LiftedArc
    kind: str
    normals: tuple[MVec3, ...]
    corners: tuple[MVec3, ...]

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CONE, KIND_WEDGE, KIND_CONE_COMPLEMENT):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == KIND_WEDGE:
            if abs(self.arc.width - math.pi) > ARC_TOL:
                raise ValueError("wedge arcs must have width exactly pi")
        elif self.arc.width > math.pi - ARC_TOL:
            raise ValueError("cone arcs must have width strictly below pi")
        for n in self.normals:
            if abs(minkowski_norm2(n)) > NORM2_TOL:
                raise ValueError("boundary normals must be light-like")

    def same_path(self, other: "ConePath", tol: float = LIFT_TOL) -> bool:
        if self.kind != other.kind:
            return False
        da = self.apex - other.apex
        if max(abs(da.x0), abs(da.x1), abs(da.x2)) > tol:
            return False
        return (
            abs(self.arc.alpha_minus - other.arc.alpha_minus) <= tol
            and abs(self.arc.alpha_plus - other.arc.alpha_plus) <= tol
        )

    def translated(self, a: MVec3) -> "ConePath":
        return replace(self, apex=self.apex + a)

    @functools.cached_property
    def closure_rays(self) -> np.ndarray:
        """Generators of the closed region's recession cone as a read-only
        (k, 3) array; a wedge's closure also holds the full lines through its
        west and east rays."""
        rays = [v.as_array() for v in self.corners]
        if self.kind == KIND_WEDGE:
            west, east, up, down = rays
            rays = [up, down, west, east, -west, -east]
        out = np.array(rays)
        out.setflags(write=False)
        return out


def _spatial(angle: float) -> MVec3:
    return MVec3(0.0, math.cos(angle), math.sin(angle))


def _wedge_normals(center: float) -> tuple[MVec3, MVec3]:
    # standard wedge W1 (center 0): <l, x> > 0 for l = (-1,-1,0) and (1,-1,0),
    # rotated by center
    c, s = math.cos(center), math.sin(center)
    return (MVec3(-1.0, -c, -s), MVec3(1.0, -c, -s))


def wedge_path(apex: MVec3 = MVec3(0.0, 0.0, 0.0), center_angle: float = 0.0,
               sheet: int = 0) -> ConePath:
    """Wedge with direction arc (center - pi/2, center + pi/2) on the given sheet."""
    lift = center_angle + TWO_PI * sheet
    arc = LiftedArc(lift - math.pi / 2.0, lift + math.pi / 2.0)
    west = _spatial(center_angle - math.pi / 2.0)
    east = _spatial(center_angle + math.pi / 2.0)
    axis = _spatial(center_angle)
    light_up = MVec3(1.0, axis.x1, axis.x2)
    light_down = MVec3(-1.0, axis.x1, axis.x2)
    return ConePath(apex, arc, KIND_WEDGE, _wedge_normals(center_angle),
                    (west, east, light_up, light_down))


def cone_path(apex: MVec3, center_angle: float, half_opening: float,
              sheet: int = 0, kind: str = KIND_CONE) -> ConePath:
    """Canonical space-like cone: intersection of the two wedges whose
    direction arcs overlap exactly in (center - half, center + half).

    The boundary consists of four light-like planes; the closure has four
    extreme rays, two at the angular endpoints and two at the rapidity
    extremes +-artanh(sin(half_opening)).
    """
    if not (0.0 < half_opening < math.pi / 2.0 - HALF_OPENING_MARGIN):
        raise ValueError("half_opening must lie in (0, pi/2)")
    if kind not in (KIND_CONE, KIND_CONE_COMPLEMENT):
        raise ValueError("cone_path builds cones or cone-complements")
    lift = center_angle + TWO_PI * sheet
    arc = LiftedArc(lift - half_opening, lift + half_opening)
    shift = math.pi / 2.0 - half_opening
    normals = _wedge_normals(center_angle - shift) + _wedge_normals(center_angle + shift)
    axis = _spatial(center_angle)
    s = math.sin(half_opening)
    corners = (
        _spatial(center_angle - half_opening),
        _spatial(center_angle + half_opening),
        MVec3(s, axis.x1, axis.x2),
        MVec3(-s, axis.x1, axis.x2),
    )
    return ConePath(apex, arc, kind, normals, corners)


def standard_wedge_path(frame: ReferenceFrame = DEFAULT_FRAME) -> ConePath:
    """The path ending at the standard wedge with minimal accumulated angle
    from the reference sheet."""
    mu = frame.reference_angle
    best = None
    for n in (math.floor(mu / TWO_PI), round(mu / TWO_PI), math.ceil(mu / TWO_PI)):
        lo = -math.pi / 2.0 + TWO_PI * n
        hi = math.pi / 2.0 + TWO_PI * n
        dist = max(lo - mu, mu - hi, 0.0)
        if best is None or dist < best[0] - SHEET_TIE:
            best = (dist, n)
    return wedge_path(MVec3(0.0, 0.0, 0.0), 0.0, sheet=best[1])


# ---------------------------------------------------------------------------
# causal separation
# ---------------------------------------------------------------------------

_MINK_DIAG = np.array([1.0, -1.0, -1.0])
_NAPPE_SIGN = np.array([[1.0], [-1.0]])


@functools.lru_cache(maxsize=8)
def _layout(n: int):
    """Index and sign arrays of the candidates of n rows (a pair has 8 to 13)."""
    iu, ju = np.triu_indices(n, k=1)
    ia, ib = 3 * iu[:, None], 3 * ju[:, None]
    gathers = (ia + [1, 2, 0], ib + [2, 0, 1], ia + [2, 0, 1], ib + [1, 2, 0])
    per_row, t_sign = np.tile(np.arange(n), 4), np.repeat([1.0, -1.0, 1.0, -1.0], n)
    sign = np.concatenate([[1.0, -1.0], np.repeat([1.0, -1.0], n), t_sign])
    nappe = np.concatenate([np.zeros(2 * len(iu)), sign])
    arrays = (*gathers, per_row, t_sign, np.repeat([1.0, -1.0], 2 * n), sign,
              np.stack([nappe >= 0.0, nappe <= 0.0]))
    for a in arrays:  # shared by every later certificate with n rows
        a.setflags(write=False)
    return (len(iu), *arrays)


def _abs_max3(a: np.ndarray) -> np.ndarray:
    """``np.abs(a).max(axis=-1)`` for a last axis of length 3, as two
    elementwise maxima: numpy reduces such a short axis slowly."""
    a = np.abs(a)
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])


def _certificates(rows: np.ndarray) -> np.ndarray:
    """Best (smallest) normalised violations over candidate separating
    covectors w in the closed future and in the closed past cone, as a (P, 2)
    array for a (P, n, 3) stack of row sets.

    A value <= 0 means some w certifies that the open difference set avoids
    that nappe, > 0 that none does.  Candidates are the extreme-ray types of
    the dual feasibility cone: pairwise Minkowski cross products of the
    constraints and their negatives (shared by both nappes), and per nappe
    the axis and each constraint's light-like tangent and minimisers.  A lane
    is NaN where its row has no spatial part or its minimiser does not exist,
    so the layout depends only on n and no pair depends on the rest of its stack.
    """
    p, n, _ = rows.shape
    m, ga, gb, ga2, gb2, per_row, t_sign, ang_sign, sign, nappes = _layout(n)
    flat = rows.reshape(p, 3 * n)
    cand = np.empty((p, 2 * m + len(sign), 3))
    np.subtract(flat.take(ga, axis=1) * flat.take(gb, axis=1),
                flat.take(ga2, axis=1) * flat.take(gb2, axis=1), out=cand[:, :m])
    cand[:, :m] *= _MINK_DIAG  # the Minkowski cross product eta (v x w)
    np.negative(cand[:, :m], out=cand[:, m:2 * m])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.hypot(rows[..., 1], rows[..., 2])
        r[r <= SEP_DEGENERATE] = np.nan
        u = rows / r[..., None]  # (t, ux, uy) per row
        # minimiser angles base + ang and base - ang, with ang = arccos(sign t)
        # for the future and then the past nappe
        psi = (np.arctan2(u[..., 2], u[..., 1]).take(per_row, axis=1)
               + np.arccos(u[..., 0].take(per_row, axis=1) * t_sign) * ang_sign)
        cand[:, 2 * m:, 0] = sign
        cand[:, 2 * m:2 * m + 2, 1:] = 0.0
        cand[:, 2 * m + 2:-4 * n, 1:] = u.take(per_row[:2 * n], axis=1)[..., 1:]
        cand[:, -4 * n:, 1] = np.cos(psi)
        cand[:, -4 * n:, 2] = np.sin(psi)
        scale = _abs_max3(cand)
        cand /= scale[..., None]
        # values per (lane, row, candidate): the max over rows then runs
        # elementwise along the contiguous candidate axis
        values = np.ascontiguousarray(
            ((cand * _MINK_DIAG) @ rows.transpose(0, 2, 1)).transpose(0, 2, 1))
        values /= _abs_max3(rows)[..., None]
        viol = np.maximum(np.maximum.reduce(values, axis=1), 0.0)
        w0 = cand[..., 0]
        inside = (scale > SEP_DEGENERATE) & (
            w0 ** 2 - cand[..., 1] ** 2 - cand[..., 2] ** 2 >= -SEP_NAPPE_SLACK)
    ok = inside[:, None, :] & (w0[:, None, :] * _NAPPE_SIGN >= -SEP_ZERO) & nappes
    return np.where(ok, viol[:, None, :], math.inf).min(axis=2)


def _certificate(rows: np.ndarray) -> tuple[float, float]:
    """The (future, past) violations of one row set."""
    return tuple(_certificates(rows[None])[0].tolist())


def _separation_rows(c1: ConePath, c2: ConePath) -> np.ndarray:
    """Rows for C1 against C2: C1's closure rays, C2's negated, the apex gap."""
    for c in (c1, c2):
        if c.kind == KIND_CONE_COMPLEMENT:
            raise SeparationError("cone-complement regions are not supported here")
        if c.arc.width <= ARC_TOL:
            raise SeparationError("degenerate (empty-interior) cone")
    d = c1.apex - c2.apex
    rows = [c1.closure_rays, -c2.closure_rays]
    if max(abs(d.x0), abs(d.x1), abs(d.x2)) > SEP_DEGENERATE:
        rows.append([[d.x0, d.x1, d.x2]])
    return np.concatenate(rows)


def _verdict(violations) -> bool:
    """The verdict on (future, past) violations; raises in the ambiguity band."""
    for viol in violations:
        if SEP_ZERO < viol < SEP_AMBIGUOUS:
            raise SeparationError(f"separation undecidable within tolerance (margin {viol:.3e})")
    return all(viol <= SEP_ZERO for viol in violations)


def causally_separated(c1: ConePath, c2: ConePath) -> bool:
    """True iff no x in C1 and y in C2 are causally related.

    Decided on the polyhedral data: the open difference set d + cone(G) with
    G the closure rays of C1 and the negated rays of C2 must avoid both
    nappes of the light cone; each avoidance is certified by a covector in
    the dual nappe.  Near-grazing configurations raise SeparationError, the
    future nappe's margin first.
    """
    (verdict,) = _separated_many([(c1, c2)])
    if isinstance(verdict, SeparationError):
        raise verdict
    return verdict


# most pairs in one numpy stack: the oracle's 150 pairs of the geometry suite
# in stacks of 64 raised that suite's peak RSS by 2 MB against stacks of 32,
# which decide about as fast per pair
_STACK = 32


def _stacks(keyed) -> Iterator[list]:
    """The items of (key, item) pairs grouped by key, in stacks of at most _STACK."""
    groups: dict = {}
    for key, item in keyed:
        groups.setdefault(key, []).append(item)
    for group in groups.values():
        for start in range(0, len(group), _STACK):
            yield group[start:start + _STACK]


def _separated_many(pairs) -> list:
    """Per (C1, C2) pair, `causally_separated(C1, C2)` or the SeparationError
    it would raise.  Certificate stacks of one row count decide the pairs,
    so each verdict is bitwise that of a call on its own."""
    out: list = [None] * len(pairs)
    keyed = []
    for i, (c1, c2) in enumerate(pairs):
        try:
            rows = _separation_rows(c1, c2)
        except SeparationError as exc:
            out[i] = exc
            continue
        keyed.append((len(rows), (i, rows)))
    for stack in _stacks(keyed):
        lanes, rows = zip(*stack)
        for i, violations in zip(lanes, _certificates(np.array(rows)).tolist()):
            try:
                out[i] = _verdict(violations)
            except SeparationError as exc:
                out[i] = exc
    return out


def _cone_rays(center: np.ndarray, half: np.ndarray) -> np.ndarray:
    """`cone_path(apex, center, half).closure_rays` per lane, (P, 4, 3); the
    trig runs through `math`, as there, so the rays are bitwise the path's."""
    trig = np.array([[(math.cos(a), math.sin(a)) for a in lane]
                     for lane in np.stack([center - half, center + half, center], 1).tolist()])
    rays = np.zeros((len(center), 4, 3))
    rays[:, :2, 1:] = trig[:, :2]
    rays[:, 2:, 1:] = trig[:, 2:]
    rays[:, 2, 0] = [math.sin(h) for h in half.tolist()]
    rays[:, 3, 0] = -rays[:, 2, 0]
    return rays


def _cones_separated(apex1, center1, half1, apex2, center2, half2) -> np.ndarray:
    """Per lane, `causally_separated(cone_path(apex1, center1, half1),
    cone_path(apex2, center2, half2))`, False where it raises.  The rows are
    bitwise `_separation_rows`, stacked by row count (8 without an apex gap)."""
    gap = apex1 - apex2
    rows = np.concatenate([_cone_rays(center1, half1), -_cone_rays(center2, half2),
                           gap[:, None, :]], axis=1)
    has_gap = np.abs(gap).max(axis=1) > SEP_DEGENERATE
    viol = np.empty((len(rows), 2))
    for lanes, n in ((has_gap, 9), (~has_gap, 8)):
        if lanes.any():
            viol[lanes] = _certificates(rows[lanes, :n])
    # a margin in the ambiguity band would raise in `_verdict`: it rejects too
    return (viol <= SEP_ZERO).all(axis=1)


def find_causal_pair(c1: ConePath, c2: ConePath):
    """Exact primal sign oracle: x in the closure of C1 and y in that of C2
    with (x - y)^2 > 0, or None.

    The differences x - y fill d + cone(G), with d the apex difference and G
    the closure rays of C1 and the negated rays of C2.  That set meets the
    open future (past) nappe iff phi = +-t0 - |t_s| is positive somewhere on
    the hull of d and G, each scaled to max-norm 1.  phi is concave, and on a
    face where it is smooth it is constant along the light-like direction of
    its gradient, so its maximum sits at a generator, at the stationary point
    inside an edge, or where a triangle of generators meets the time axis;
    every such point is evaluated, in `_causal_pairs`.  An apex difference
    within rounding of the apexes counts as none.  Shares only the regions'
    rays and apexes with the certificate of `causally_separated`.
    """
    (pair,) = _causal_pairs([(c1, c2)])
    return pair


@functools.lru_cache(maxsize=8)
def _hull_layout(k: int):
    """Edge ends and triangle corners of k generators (a pair has 8 to 13)."""
    i, j = np.triu_indices(k, 1)
    tri = np.array(list(itertools.combinations(range(k), 3)))
    arrays = (i, j, tri, tri[:, [1, 2, 0]], tri[:, [2, 0, 1]])
    for a in arrays:  # shared by every later call with k generators
        a.setflags(write=False)
    return arrays


def _causal_pairs(pairs) -> list:
    """`find_causal_pair` per (C1, C2) pair, with one numpy pass per stack
    of pairs with the same generator count; each result is bitwise that of
    a call on its own."""
    out: list = [None] * len(pairs)
    keyed = []
    for lane, (c1, c2) in enumerate(pairs):
        apexes = np.array([c1.apex.as_array(), c2.apex.as_array()])
        rays1, rays2 = c1.closure_rays, c2.closure_rays
        d = apexes[0] - apexes[1]
        common = np.abs(d).max() <= ORACLE_COMMON_APEX * max(1.0, np.abs(apexes).max())
        gens = np.concatenate([rays1, -rays2, d[None]][:2 if common else 3])
        keyed.append((len(gens), (lane, len(rays1), len(rays1) + len(rays2), apexes, gens)))
    sign = np.array([[1.0], [-1.0]])  # future, past
    for group in _stacks(keyed):
        gens = np.array([lane[-1] for lane in group])
        k = gens.shape[1]
        i, j, tri, p_at, q_at = _hull_layout(k)
        gens /= np.abs(gens).max(axis=2, keepdims=True)
        lanes, n_edges = len(gens), len(i)
        a, e = gens[:, None, i, 1:], gens[:, None, j] - gens[:, None, i]
        p, q = gens[:, p_at, 1:], gens[:, q_at, 1:]
        with np.errstate(all="ignore"):
            # on the edge a + lam e, the slope s e0 of s t0 meets that of |t_s|
            q2, c = e[..., 1] ** 2 + e[..., 2] ** 2, sign * e[..., 0]
            lam = (c * np.abs(a[..., 0] * e[..., 2] - a[..., 1] * e[..., 1]) / np.sqrt(q2 - c * c)
                   - a[..., 0] * e[..., 1] - a[..., 1] * e[..., 2]) / q2
            lam = np.nan_to_num(np.clip(lam, 0.0, 1.0))  # no stationary point: an end
            # barycentric weights of the origin in each triangle's spatial parts
            bary = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
            bary /= (bary[..., 0] + bary[..., 1] + bary[..., 2])[..., None]
            # per lane and nappe: the generators, one point per edge, one per triangle
            weights = np.zeros((lanes, 2, k + n_edges + len(tri), k))
            weights[:, :, :k] = np.eye(k)
            at_edge = k + np.arange(n_edges)
            weights[:, :, at_edge, i], weights[:, :, at_edge, j] = 1.0 - lam, lam
            weights[:, :, k + n_edges + np.arange(len(tri))[:, None], tri] = bary[:, None]
            t = weights @ gens[:, None]
            phi = sign * t[..., 0] - np.hypot(t[..., 1], t[..., 2])
        # a triangle that misses the time axis has no candidate point
        on_axis = ((bary >= 0.0) & (bary <= 1.0)).all(axis=2)
        phi[:, :, k + n_edges:] = np.where(on_axis[:, None], phi[:, :, k + n_edges:], -math.inf)
        best = phi.reshape(lanes, -1).argmax(axis=1).tolist()
        for n, (lane, k1, n_rays, apexes, _) in enumerate(group):
            s, m = divmod(best[n], phi.shape[2])
            if phi[n, s, m] <= ORACLE_CONTACT:
                continue
            # x - y = d + r u, with u the rays' part of the maximiser: a multiple
            # of it when d has weight mu > 0, else phi(d + r u) >= phi(d) + r phi(u) > 0
            w, d = weights[n, s, m], apexes[0] - apexes[1]
            mu = w[n_rays:].sum()
            r = (np.abs(d).max() / mu if mu > 0.0
                 else 1.0 + abs(sign[s, 0] * d[0] - math.hypot(d[1], d[2])) / phi[n, s, m])
            steps = r * w[:n_rays, None] * gens[n, :n_rays]
            out[lane] = (MVec3.from_array(apexes[0] + steps[:k1].sum(axis=0)),
                         MVec3.from_array(apexes[1] - steps[k1:].sum(axis=0)))
    return out


# ---------------------------------------------------------------------------
# ordering and winding numbers
# ---------------------------------------------------------------------------

def _arc_below(c1: ConePath, c2: ConePath, offset: float = 0.0) -> bool:
    """sup of c1's lifted angles (+offset) below inf of c2's.

    Endpoint coincidence is accepted when a wedge is involved (wedge arcs are
    open half-circles, the endpoint is never attained) and rejected as
    grazing for a cone-cone pair, which the conventions of this package do
    not classify.
    """
    a = c1.arc.alpha_plus + offset
    b = c2.arc.alpha_minus
    if b - a > ARC_TOL:
        return True
    if a - b > ARC_TOL:
        return False
    if c1.kind == KIND_WEDGE or c2.kind == KIND_WEDGE:
        return True
    raise WindingError("arcs share an endpoint (grazing light-like contact)")


def precedes(c1: ConePath, c2: ConePath) -> bool:
    """Partial order on path classes: every lifted angle of c1 below c2's."""
    return _precedes_given(c1, c2, causally_separated(c1, c2))


def _precedes_given(c1: ConePath, c2: ConePath, verdict) -> bool:
    """`precedes(c1, c2)` given `_separated_many`'s verdict on (c1, c2)."""
    _require_separated(verdict, "precedes")
    return _arc_below(c1, c2)


def relative_winding(c2: ConePath, c1: ConePath) -> int:
    """The unique n with r(2 pi n) . c1 < c2 < r(2 pi (n+1)) . c1.

    Decides causal separation first (SeparationError unless separated), then
    computes n in closed form from the arcs and verifies it against both
    defining inequalities; raises WindingError when no integer passes.
    """
    return _winding_given(c2, c1, causally_separated(c1, c2))


def _winding_given(c2: ConePath, c1: ConePath, verdict) -> int:
    """`relative_winding(c2, c1)` given `_separated_many`'s verdict on (c1, c2)."""
    _require_separated(verdict, "relative winding")
    return _winding(c2, c1)


def _require_separated(verdict, what: str) -> None:
    """Raise a verdict that is a SeparationError, or one for a pair that is
    not separated."""
    if isinstance(verdict, SeparationError):
        raise verdict
    if not verdict:
        raise SeparationError(f"{what} requires causally separated regions")


def _winding(c2: ConePath, c1: ConePath) -> int:
    """`relative_winding` for a pair whose separation is already decided."""
    gap = c2.arc.alpha_minus - c1.arc.alpha_plus
    n = math.floor((gap + ARC_TOL) / TWO_PI)
    if not _arc_below(c1, c2, TWO_PI * n):
        raise WindingError(f"no valid winding number (candidate n={n} fails r(2pi n)c1 < c2)")
    if not _arc_below(c2, c1, -TWO_PI * (n + 1)):
        raise WindingError(f"no valid winding number (candidate n={n} fails c2 < r(2pi(n+1))c1)")
    return n


def relative_winding_scan(c2: ConePath, c1: ConePath) -> int:
    """Definition-based oracle: scan n in [-5, 5] against both inequalities.

    Independent of the closed-form floor computation; raises WindingError
    unless exactly one candidate passes.
    """
    hits = []
    for n in range(-5, 6):
        if _arc_below(c1, c2, TWO_PI * n) and _arc_below(c2, c1, -TWO_PI * (n + 1)):
            hits.append(n)
    if len(hits) != 1:
        raise WindingError(f"definition scan found {len(hits)} candidates in [-5, 5]")
    return hits[0]


# ---------------------------------------------------------------------------
# group action and reflection
# ---------------------------------------------------------------------------

def act(g, path: ConePath) -> ConePath:
    """Natural action of the covering Poincare group on path classes.

    The apex and boundary data transform by the matrix part.  Each lifted
    arc end alpha moves in closed form to alpha + theta plus the turn of its
    ray, with theta the lifted angle of g.  For a ray at spatial angle beta,
    g r(beta) lifts to theta + beta and factors as R(theta + beta) B' with B'
    a pure boost; B' never turns a space-like ray through pi, so the turn is
    the principal angle of B' r(-beta) ray, measured from the ray's own angle
    and therefore independent of the frame the arc is expressed in.  A pure
    rotation shifts the arc by exactly its lifted angle, so rotations by
    2 pi n shift the arc by 2 pi n rather than acting trivially.
    """
    p = _as_poincare(g)
    lam = p.lorentz.matrix
    k = 1 + len(path.normals)
    vecs = np.array([(v.x0, v.x1, v.x2) for v in (path.apex, *path.normals, *path.corners)])
    # a stacked matmul is bitwise lam.m @ v per vector; vecs @ lam.m.T is not
    images = [MVec3(*v) for v in np.matmul(lam.m, vecs[:, :, None])[:, :, 0].tolist()]
    apex = p.translation + images[0]
    normals, corners = tuple(images[1:k]), tuple(images[k:])

    if p.lorentz.is_pure_rotation():
        arc = path.arc.shifted(p.lorentz.angle)
        return ConePath(apex, arc, path.kind, normals, corners)

    rays = vecs[k:k + 2]
    moved = rays @ lam.m.T
    turn = (np.arctan2(moved[:, 2], moved[:, 1]) - np.arctan2(rays[:, 2], rays[:, 1])
            - p.lorentz.angle)
    turn = np.remainder(turn + math.pi, TWO_PI) - math.pi
    ends = np.array([path.arc.alpha_minus, path.arc.alpha_plus])
    lo, hi = (ends + p.lorentz.angle + turn).tolist()
    if path.kind == KIND_WEDGE:
        if abs((hi - lo) - math.pi) > LIFT_TOL:
            raise LiftError("wedge arc endpoints drifted apart under transport")
        hi = lo + math.pi
    arc = LiftedArc(lo, hi)
    return ConePath(apex, arc, path.kind, normals, corners)


def reflect_path(path: ConePath, frame: ReferenceFrame = DEFAULT_FRAME) -> ConePath:
    """Canonical action of j = diag(-1,-1,1) on path classes.

    Requires a j-invariant reference cone; lifted angles map orientation-
    reversingly as angle -> c - angle with c fixed by the reference sheet.
    """
    c = frame.reflection_constant()
    apex = reflect_vector(path.apex)
    normals = tuple(reflect_vector(n) for n in path.normals)
    west, east, *rest = path.corners
    corners = (reflect_vector(east), reflect_vector(west),
               *(reflect_vector(v) for v in rest))
    arc = LiftedArc(c - path.arc.alpha_plus, c - path.arc.alpha_minus)
    return ConePath(apex, arc, path.kind, normals, corners)


def rebase(path: ConePath, old_frame: ReferenceFrame, new_frame: ReferenceFrame) -> ConePath:
    """Re-express the lifted-angle data over a new reference direction.

    The connector between the two reference directions is taken to be the
    direct angular sweep (no extra winding), so every arc shifts by the same
    offset and all relative winding numbers are unchanged.  Alternative
    connector windings are obtained by composing with act(r(2 pi k), .).
    """
    offset = new_frame.reference_angle - old_frame.reference_angle
    return replace(path, arc=path.arc.shifted(offset))


def path_within_wedge(path: ConePath, wedge: ConePath) -> bool:
    """Whether a path class sits inside a wedge path (region and sheet)."""
    if wedge.kind != KIND_WEDGE:
        raise ValueError("containment target must be a wedge path")
    if path.same_path(wedge, WEDGE_TOL):
        return True
    if path.kind != KIND_CONE:
        return False
    if path.arc.alpha_minus < wedge.arc.alpha_minus - WEDGE_TOL:
        return False
    if path.arc.alpha_plus > wedge.arc.alpha_plus + WEDGE_TOL:
        return False
    rel = path.apex - wedge.apex
    for n in wedge.normals:
        if minkowski_inner(n, rel) < -WEDGE_TOL:
            return False
        for corner in path.corners:
            if minkowski_inner(n, corner) < -WEDGE_TOL:
                return False
    return True
