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
import math
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
from .tolerances import (ARC_TOL, HALF_OPENING_MARGIN, LIFT_TOL, NORM2_TOL, ORACLE_CONTACT,
                         ORACLE_RATIO_FLOOR, ORACLE_RECESSION_MARGIN, ORACLE_SINGULAR_DET,
                         ORACLE_SPACELIKE, ORACLE_ZERO_SAMPLE, REFLECTION_TOL, SEP_AMBIGUOUS,
                         SEP_DEGENERATE, SEP_NAPPE_SLACK, SEP_ZERO, SHEET_TIE, WEDGE_TOL)

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
        scale = np.abs(cand).max(axis=2)
        cand /= scale[..., None]
        values = (cand * _MINK_DIAG) @ rows.transpose(0, 2, 1)
        values /= np.abs(rows).max(axis=2)[:, None, :]
        viol = np.maximum(values.max(axis=2), 0.0)
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
    return _verdict(_certificate(_separation_rows(c1, c2)))


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


@functools.lru_cache(maxsize=8)
def _simplex_grid(parts: int, total: int) -> np.ndarray:
    """Weights on the simplex with denominator ``total``, as a read-only
    (k, parts) array shared by every later call."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), total, parts)
    grid = np.array(out, dtype=float) / total
    grid.setflags(write=False)
    return grid


def _direction_samples(c: ConePath, resolution: int) -> np.ndarray:
    """Space-like vectors sampled densely across the direction set of c."""
    gens = c.closure_rays
    w = _simplex_grid(len(gens), resolution)
    # nudge off the light-like boundary and away from cancelling ray pairs
    w = w + 1e-3
    pts = w @ gens
    scale = np.abs(pts).max(axis=1)
    keep = scale > ORACLE_ZERO_SAMPLE
    pts = pts[keep] / scale[keep, None]
    mink = pts[:, 0] ** 2 - pts[:, 1] ** 2 - pts[:, 2] ** 2
    return pts[mink < -ORACLE_SPACELIKE]


def find_causal_pair(c1: ConePath, c2: ConePath, resolution: int = 5):
    """Dense-sampling sign oracle: search for x in C1, y in C2 with
    (x-y)^2 >= 0.

    Directions are sampled densely over each region; for each direction pair
    the radial profile r, r' >= 0 of (apex1 + r e - apex2 - r' f)^2 is a
    quadratic whose supremum over the quadrant is evaluated in closed form.
    Returns a violating (x, y) pair or None.  Independent of the certificate
    search in `causally_separated`.
    """
    E = _direction_samples(c1, resolution)
    F = _direction_samples(c2, resolution)
    d = (c1.apex - c2.apex).as_array()

    def mdot(u, v):
        return u[..., 0] * v[..., 0] - u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]

    a = mdot(E, E)[:, None]          # < 0
    b = mdot(F, F)[None, :]          # < 0
    c = np.einsum("ik,jk->ij", E * np.array([1.0, -1.0, -1.0]), F)
    de = mdot(E, d)[:, None]
    df = mdot(F, d)[None, :]
    dd = float(mdot(d, d))

    # recession causal: c strictly below -sqrt(a b) means r e - r' f reaches
    # the open interior of the light cone (equality is the grazing ray e = f)
    rec = c < -np.sqrt(a * b) - ORACLE_RECESSION_MARGIN
    if np.any(rec):
        i, j = np.argwhere(rec)[0]
        t = c[i, j] / a[i, 0]  # ratio r/r' maximising the quadratic part
        r, rp = 1e6 * max(t, ORACLE_RATIO_FLOOR), 1e6
        x = c1.apex.as_array() + r * E[i]
        y = c2.apex.as_array() + rp * F[j]
        return MVec3.from_array(x), MVec3.from_array(y)

    # edge r' = 0: maximum at r = -de/a when nonnegative
    r_edge = np.where(de >= 0.0, -de / a, 0.0) + np.zeros_like(c)
    # edge r = 0: maximum at r' = df/b when nonnegative
    rp_edge = np.where(df <= 0.0, df / b, 0.0) + np.zeros_like(c)
    # interior critical point of the (negative-definite) quadratic
    det = a * b - c**2
    safe = np.abs(det) > ORACLE_SINGULAR_DET
    with np.errstate(divide="ignore", invalid="ignore"):
        r_in = np.where(safe, (-de * b + c * df) / det, 0.0)
        rp_in = np.where(safe, (a * df - c * de) / det, 0.0)
    feas = safe & (r_in >= 0.0) & (rp_in >= 0.0)
    v_in = dd + 2.0 * r_in * de - 2.0 * rp_in * df + r_in**2 * a + rp_in**2 * b \
        - 2.0 * r_in * rp_in * c
    v_in = np.where(feas, v_in, -np.inf)

    # keep the best candidate (value, r, r') per direction pair, in this order
    best, r_best, rp_best = np.full(c.shape, dd), np.zeros(c.shape), np.zeros(c.shape)
    for v, r, rp in ((dd + 2.0 * r_edge * de + r_edge**2 * a, r_edge, 0.0),
                     (dd - 2.0 * rp_edge * df + rp_edge**2 * b, 0.0, rp_edge),
                     (v_in, r_in, rp_in)):
        upd = v > best
        best, r_best, rp_best = (np.where(upd, v, best), np.where(upd, r, r_best),
                                 np.where(upd, rp, rp_best))

    # the regions are open: a supremum of exactly zero is boundary contact
    # (apexes or grazing rays), not a causal pair
    strict = ORACLE_CONTACT * max(1.0, float(np.abs(d).max()) ** 2)
    i, j = np.unravel_index(int(np.argmax(best)), best.shape)
    if best[i, j] > strict:
        x = c1.apex.as_array() + r_best[i, j] * E[i]
        y = c2.apex.as_array() + rp_best[i, j] * F[j]
        return MVec3.from_array(x), MVec3.from_array(y)
    return None


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
    if not causally_separated(c1, c2):
        raise SeparationError("precedes requires causally separated regions")
    return _arc_below(c1, c2)


def relative_winding(c2: ConePath, c1: ConePath) -> int:
    """The unique n with r(2 pi n) . c1 < c2 < r(2 pi (n+1)) . c1.

    Decides causal separation first (SeparationError unless separated), then
    computes n in closed form from the arcs and verifies it against both
    defining inequalities; raises WindingError when no integer passes.
    """
    if not causally_separated(c1, c2):
        raise SeparationError("relative winding requires causally separated regions")
    return _winding(c2, c1)


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
