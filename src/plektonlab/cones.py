"""Space-like cones, wedges and their lifted angular arcs.

A region is stored as one read-only float array of rows (its apex, the
light-like normals of its boundary planes and the extreme rays of its
closure) and a lifted angular arc locating the sheet of the universal cover
of the manifold of space-like directions.  The group action moves the rows
with one matrix product.  All winding-number arithmetic happens on the
arcs; the rays and normals carry the rapidity extent and decide causal
separation.  The separation certificate runs over a stack of pairs with one
candidate layout per row count, so each pair's violations are bitwise those
of a single call.  Its light-like minimiser candidates decide first, and
only the pairs they cannot settle as separated run the full certificate;
every verdict is still the certificate's.  The suites' generators, which
may redraw any candidate, keep only the pairs the minimisers settle and
never run the certificate.

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
from dataclasses import dataclass

import numpy as np

from .minkowski import (
    TWO_PI,
    ZERO_VEC,
    CoveringPoincare,
    LiftError,
    MVec3,
    _as_poincare,
    _finite_vector,
    wrap_angle,
)
from .tolerances import (ARC_TOL, HALF_OPENING_MARGIN, LIFT_TOL, NORM2_TOL, ORACLE_COMMON_APEX,
                         ORACLE_CONTACT, REFLECTION_TOL, SEP_AMBIGUOUS, SEP_DEGENERATE,
                         SEP_FILTER, SEP_NAPPE_SLACK, SEP_ZERO, WEDGE_TOL)

KIND_CONE = "cone"
KIND_WEDGE = "wedge"
KIND_CONE_COMPLEMENT = "cone-complement"
# a region's rows: its apex, its boundary normals and 4 corners
_ROWS = {KIND_CONE: 9, KIND_WEDGE: 7, KIND_CONE_COMPLEMENT: 9}


class SeparationError(ValueError):
    """Causal separation could not be decided (grazing or invalid input)."""


class WindingError(ValueError):
    """No valid relative winding number exists for the given pair."""


@dataclass(frozen=True)
class LiftedArc:
    """Unreduced angular interval of a sheet.  A region's arc has its width
    in (0, pi]; the region checks it (`_set_path`), the arc does not."""

    alpha_minus: float
    alpha_plus: float

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


@dataclass(frozen=True, init=False, eq=False)
class ConePath:
    """A path class: apex, lifted arc, kind, boundary data.

    The vectors are the rows of one read-only float array ``rows``: the
    apex, the light-like boundary normals (4 for a cone, 2 for a wedge) and
    the 4 corners.  ``apex``, ``normals`` and ``corners`` are `MVec3` views
    of those rows, built when first read.  Two paths are equal when their
    kinds and arcs are and their rows are elementwise (so -0.0 equals 0.0);
    equal paths hash equal.

    For ``kind == 'cone-complement'`` the stored arc, normals and corners are
    those of the complemented cone; the projected region is its causal
    complement.  Such paths can be transported and reflected but are rejected
    by the ordering and winding operations.
    """

    rows: np.ndarray
    arc: LiftedArc
    kind: str

    def __init__(self, apex: MVec3, arc: LiftedArc, kind: str, normals: tuple[MVec3, ...],
                 corners: tuple[MVec3, ...]) -> None:
        """Check the kind, finite vectors, their number, light-like normals, the arc."""
        if kind not in _ROWS:
            raise ValueError(f"unknown kind {kind!r}")
        for what, vectors in (("apex", (apex,)), ("normal", normals), ("corner", corners)):
            for v in vectors:
                _finite_vector(v, what)
        rows = _rows(apex, *normals, *corners)
        if rows.shape != (_ROWS[kind], 3):
            raise ValueError(f"a {kind} path has {_ROWS[kind]} vectors (apex, normals, 4 corners), "
                             f"not {len(rows)}")
        # transport by L errs n.n by ~2 eps |n0| |L|, and |L| ~ the largest |n0|
        n0, n1, n2 = np.abs(rows[1:-4].T)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e200 entries: inf - inf = NaN
            err = np.abs(n0 * n0 - n1 * n1 - n2 * n2)
            bound = NORM2_TOL * np.maximum(1.0, n0 * n0.max())
        if not (err <= bound).all():
            raise ValueError("boundary normals must be light-like")
        _set_path(self, rows, arc, kind)

    @functools.cached_property
    def apex(self) -> MVec3:
        return MVec3._make(self.rows[0].tolist())

    @functools.cached_property
    def normals(self) -> tuple[MVec3, ...]:
        return tuple(map(MVec3._make, self.rows[1:-4].tolist()))

    @functools.cached_property
    def corners(self) -> tuple[MVec3, ...]:
        return tuple(map(MVec3._make, self.rows[-4:].tolist()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind == other.kind and self.arc == other.arc
                and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash((self.kind, self.arc, *self.rows.ravel().tolist()))

    def __reduce__(self):
        # an unpickled array is writable: rebuild it read-only through _path
        return _path, (self.rows, self.arc, self.kind)

    def same_path(self, other: "ConePath", tol: float = LIFT_TOL) -> bool:
        if self.kind != other.kind:
            return False
        if max(map(abs, (self.rows[0] - other.rows[0]).tolist())) > tol:
            return False
        return (
            abs(self.arc.alpha_minus - other.arc.alpha_minus) <= tol
            and abs(self.arc.alpha_plus - other.arc.alpha_plus) <= tol
        )

    @functools.cached_property
    def closure_rays(self) -> np.ndarray:
        """Generators of the closed region's recession cone as a read-only
        (k, 3) array, the corners' rows for a cone; a wedge's closure also
        holds the full lines through its west and east rays."""
        rays = self.rows[-4:]
        if self.kind == KIND_WEDGE:  # up, down, west, east, -west, -east
            rays = np.concatenate([rays[2:], rays[:2], -rays[:2]])
            rays.setflags(write=False)
        return rays


def _rows(*vectors) -> np.ndarray:
    """3-tuples as the rows of a float array (np.fromiter reads them in a
    third less time than np.array)."""
    return np.fromiter(itertools.chain(*vectors), float).reshape(-1, 3)


def _path(rows: np.ndarray, arc: LiftedArc, kind: str) -> ConePath:
    """The path over an (n, 3) float array of rows, which it makes read-only.
    The package's own regions and images are built here from checked rows;
    only their arc is checked, since rounding a far lift can break it."""
    return _set_path(object.__new__(ConePath), rows, arc, kind)


def _set_path(path: ConePath, rows: np.ndarray, arc: LiftedArc, kind: str) -> ConePath:
    """Check the arc width, in (0, pi] and then against the kind, and store
    the region in path: the one arc rule of every region, public or built."""
    w = arc.width
    if not (w > 0.0 and w <= math.pi + ARC_TOL):  # NaN fails too
        raise ValueError(f"arc width {w} outside (0, pi]")
    if kind == KIND_WEDGE:
        if abs(w - math.pi) > ARC_TOL:
            raise ValueError("wedge arcs must have width exactly pi")
    elif w > math.pi - ARC_TOL:
        raise ValueError("cone arcs must have width strictly below pi")
    rows.setflags(write=False)
    vars(path).update(rows=rows, arc=arc, kind=kind)  # frozen: no __setattr__
    return path


_J_SIGNS = np.array([-1.0, -1.0, 1.0])  # j = diag(-1,-1,1) as a row scaling


def _wedge_normals(center: float) -> tuple[tuple[float, float, float], ...]:
    # standard wedge W1 (center 0): <l, x> > 0 for l = (-1,-1,0) and (1,-1,0),
    # rotated by center
    c, s = math.cos(center), math.sin(center)
    return ((-1.0, -c, -s), (1.0, -c, -s))


def _cone_corners(center: float, half: float) -> tuple[tuple[float, float, float], ...]:
    """Rows (t, x1, x2) of the extreme rays of the direction arc (center -
    half, center + half): west, east and the rapidity extremes
    +-artanh(sin(half)), light-like at a wedge's half = pi/2.  The trig runs
    through `math`.  `wedge_path`, `cone_path` and `_cone_rays` all take their
    corners from here, and the generators build their cones from the rows of
    `_cone_rays` that certified them."""
    c, s, h = math.cos(center), math.sin(center), math.sin(half)
    return ((0.0, math.cos(center - half), math.sin(center - half)),
            (0.0, math.cos(center + half), math.sin(center + half)), (h, c, s), (-h, c, s))


def _lifted_arc(center_angle: float, half: float, sheet: int) -> LiftedArc:
    """The arc of half-width ``half`` about center_angle + 2 pi sheet;
    ValueError naming that lift unless it is a finite float whose endpoints
    keep the width 2 half to ARC_TOL (a lift far from 0 rounds them)."""
    try:
        lift = center_angle + TWO_PI * sheet
    except OverflowError:  # an int sheet beyond float range
        lift = math.inf
    if not math.isfinite(lift):
        raise ValueError("center_angle + 2 pi sheet must be a finite number")
    lo, hi = lift - half, lift + half
    if abs(hi - lo - 2.0 * half) > ARC_TOL:
        raise ValueError(f"center_angle + 2 pi sheet = {lift!r} is too far from 0 (sheet "
                         f"{sheet}): the arc endpoints round to width {hi - lo!r}, "
                         f"not {2.0 * half!r}")
    return LiftedArc(lo, hi)


def wedge_path(apex: MVec3 = ZERO_VEC, center_angle: float = 0.0,
               sheet: int = 0) -> ConePath:
    """Wedge with direction arc (center - pi/2, center + pi/2) on the given sheet."""
    _finite_vector(apex, "apex")
    arc = _lifted_arc(center_angle, math.pi / 2.0, sheet)
    rows = _rows(apex, *_wedge_normals(center_angle), *_cone_corners(center_angle, math.pi / 2.0))
    return _path(rows, arc, KIND_WEDGE)


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
    _finite_vector(apex, "apex")
    if not math.isfinite(center_angle):  # else math.cos raises a bare "math domain error"
        raise ValueError("center_angle + 2 pi sheet must be a finite number")
    return _cone(apex, center_angle, half_opening, sheet, _cone_corners(center_angle, half_opening),
                 kind)


def _cone(apex, center: float, half: float, sheet: int, corners, kind: str = KIND_CONE) -> ConePath:
    """`cone_path` on checked input, with its 4 corners given as the rows of
    `_cone_corners(center, half)` (3-tuples or lists of floats).  The rows
    are the apex, the normals of the two wedges whose arcs overlap in
    (center - half, center + half) and the corners; np.fromiter with a count
    reads them in a fifth less time than without one."""
    arc = _lifted_arc(center, half, sheet)
    shift = math.pi / 2.0 - half
    rows = np.fromiter(itertools.chain(apex, *_wedge_normals(center - shift),
                                       *_wedge_normals(center + shift), *corners), float, 27)
    return _path(rows.reshape(9, 3), arc, kind)


def standard_wedge_path(frame: ReferenceFrame = DEFAULT_FRAME) -> ConePath:
    """The path ending at the standard wedge with minimal accumulated angle
    from the reference sheet: the sheet n whose centre 2 pi n is nearest the
    reference angle, the lower one on a tie."""
    return wedge_path(ZERO_VEC, 0.0, sheet=math.ceil(frame.reference_angle / TWO_PI - 0.5))


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


def _minimiser_violations(rows: np.ndarray) -> np.ndarray:
    """`_certificates`' violations of its 4n light-like minimiser candidates
    (t_sign, cos psi, sin psi) alone, as a (P, 4n) array in the layout's
    order, inf where a minimiser does not exist (its kernel candidate is
    NaN).  The kernel admits each one that exists: its max-norm is exactly
    1, its Minkowski square within eps of 0 and its w0 of its nappe's sign."""
    p, n, _ = rows.shape
    per_row, t_sign, ang_sign = _layout(n)[5:8]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the kernel's arithmetic up to psi, so each arccos reads its argument
        r = np.hypot(rows[..., 1], rows[..., 2])
        r[r <= SEP_DEGENERATE] = np.nan
        u = rows / r[..., None]
        psi = (np.arctan2(u[..., 2], u[..., 1]).take(per_row, axis=1)
               + np.arccos(u[..., 0].take(per_row, axis=1) * t_sign) * ang_sign)
        cand = np.empty((p, 3, 4 * n))  # candidates as columns
        cand[:, 0] = t_sign
        np.cos(psi, out=cand[:, 1])
        np.sin(psi, out=cand[:, 2])
        values = (rows * _MINK_DIAG) @ cand  # per (lane, row, candidate)
        values /= _abs_max3(rows)[..., None]
        viol = np.maximum(np.maximum.reduce(values, axis=1), 0.0)
    viol[np.isnan(psi)] = math.inf
    return viol


def _minimiser_margins(rows: np.ndarray) -> np.ndarray:
    """(future, past) minima of `_minimiser_violations` of a (P, n, 3) stack,
    as a (P, 2) array."""
    p, n, _ = rows.shape
    # the layout's minimisers run (+ang, -ang) x (future, past) x row
    return _minimiser_violations(rows).reshape(p, 2, 2, n).min(axis=(1, 3))


def _decide(rows: np.ndarray) -> np.ndarray:
    """(future, past) margins of a (P, n, 3) stack whose `_verdict` is that of
    `_certificates(rows)`: the minimiser candidates decide first, and only
    the lanes they leave open run the full kernel.

    A lane whose minimisers reach <= SEP_FILTER in both nappes gets those
    margins: the kernel's minima, over a superset of the same candidates,
    would be <= SEP_ZERO (see SEP_FILTER), a separated verdict with no raise.
    Every other lane gets the kernel's violations, so each verdict, and each
    SeparationError, is the kernel's."""
    margins = _minimiser_margins(rows)
    rest = np.flatnonzero(~(margins <= SEP_FILTER).all(axis=1))
    if len(rest):
        margins[rest] = _certificates(rows[rest])
    return margins


def _separation_rows(c1: ConePath, c2: ConePath) -> np.ndarray:
    """Rows for C1 against C2: C1's closure rays, C2's negated, the apex gap."""
    for c in (c1, c2):
        if c.kind == KIND_CONE_COMPLEMENT:
            raise SeparationError("cone-complement regions are not supported here")
        if c.arc.width <= ARC_TOL:
            raise SeparationError("degenerate (empty-interior) cone")
    d = c1.rows[0] - c2.rows[0]
    rows = [c1.closure_rays, -c2.closure_rays]
    if max(map(abs, d.tolist())) > SEP_DEGENERATE:
        rows.append(d[None])
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
# and 64 nine-row lanes certified in one stack took 1.07-1.16 ms against
# 0.67-0.72 ms in two stacks of 32 (timeit, best of 5, 2-core machine)
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
    it would raise.  Stacks of one row count go to `_decide`: the minimiser
    candidates settle the separated pairs they can, and the certificate
    decides the rest, so every verdict and raise is the certificate's and
    each is that of a call on its own."""
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
        for i, violations in zip(lanes, _decide(np.array(rows)).tolist()):
            try:
                out[i] = _verdict(violations)
            except SeparationError as exc:
                out[i] = exc
    return out


def _cone_rays(center: np.ndarray, half: np.ndarray) -> np.ndarray:
    """`cone_path(apex, center, half).closure_rays` per lane, (P, 4, 3), from
    the same corner builder."""
    rows = [_cone_corners(c, h) for c, h in zip(center.tolist(), half.tolist())]
    return np.array(rows).reshape(-1, 4, 3)


def _cones_separated(apex1, rays1, apex2, rays2) -> np.ndarray:
    """Per lane, True only where `causally_separated(C1, C2)` is True, for
    the cones with apexes ``apex1`` and ``apex2`` and the closure rays
    ``rays1`` and ``rays2`` of `_cone_rays`.  The rows are bitwise
    `_separation_rows` where the lane has an apex gap (without one, those
    are its first 8 rows).  A lane is accepted when it has an apex gap and
    its minimisers reach <= SEP_FILTER in both nappes, which keeps the
    certificate's minima <= SEP_ZERO (see SEP_FILTER): separated, with no
    raise.  Every other lane is rejected without the certificate, which is
    sound for the generators alone, since they redraw what they reject."""
    gap = apex1 - apex2
    rows = np.concatenate([rays1, -rays2, gap[:, None, :]], axis=1)
    has_gap = np.abs(gap).max(axis=1) > SEP_DEGENERATE
    return (_minimiser_margins(rows) <= SEP_FILTER).all(axis=1) & has_gap


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
        apexes = np.array((c1.apex, c2.apex))
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
            out[lane] = (MVec3._make((apexes[0] + steps[:k1].sum(axis=0)).tolist()),
                         MVec3._make((apexes[1] - steps[k1:].sum(axis=0)).tolist()))
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
    _require_separated(causally_separated(c1, c2), "relative winding")
    return _winding(c2, c1)


def _require_separated(verdict, what: str) -> None:
    """Raise `_separation_refusal(verdict, what)` unless it is None."""
    if (refusal := _separation_refusal(verdict, what)) is not None:
        raise refusal


def _separation_refusal(verdict, what: str) -> SeparationError | None:
    """None for a separated pair; else the verdict if it is a SeparationError,
    or one saying that ``what`` requires causally separated regions."""
    if isinstance(verdict, SeparationError):
        return verdict
    return None if verdict else SeparationError(f"{what} requires causally separated regions")


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
    """Definition-based oracle: scan the 11 sheets n0 - 5 ... n0 + 5 against
    both inequalities, n0 = round((mid2 - mid1) / 2 pi) the offset of the
    arcs' own midpoints, so a pair on far sheets is scanned where it winds.

    Independent of the closed-form floor computation; raises WindingError
    unless exactly one candidate passes.
    """
    mid1 = 0.5 * (c1.arc.alpha_minus + c1.arc.alpha_plus)
    mid2 = 0.5 * (c2.arc.alpha_minus + c2.arc.alpha_plus)
    base = round((mid2 - mid1) / TWO_PI)
    hits = [n for n in range(base - 5, base + 6)
            if _arc_below(c1, c2, TWO_PI * n) and _arc_below(c2, c1, -TWO_PI * (n + 1))]
    if len(hits) != 1:
        raise WindingError(f"definition scan found {len(hits)} candidates in "
                           f"[{base - 5}, {base + 5}]")
    return hits[0]


# ---------------------------------------------------------------------------
# group action and reflection
# ---------------------------------------------------------------------------

def act(g, path: ConePath) -> ConePath:
    """Natural action of the covering Poincare group on path classes.

    The rows (apex, normals, corners) transform by the matrix part in one
    stacked product, and the translation moves the apex.  Each lifted arc
    end alpha moves in closed form to alpha + theta plus the turn of its
    ray, with theta the lifted angle of g.  For a ray at spatial angle beta,
    g r(beta) lifts to theta + beta and factors as R(theta + beta) B' with B'
    a pure boost; B' never turns a space-like ray through pi, so the turn is
    the principal angle of B' r(-beta) ray, measured from the ray's own angle
    and therefore independent of the frame the arc is expressed in.  A pure
    rotation shifts the arc by exactly its lifted angle, so rotations by
    2 pi n shift the arc by 2 pi n rather than acting trivially.  Only the
    image's arc is checked, and no per-vector object is built.
    """
    p = _as_poincare(g)
    m, theta = p.lorentz.matrix.m, p.lorentz.angle
    # a stacked matmul is bitwise m @ v per row; rows @ m.T is not
    images = np.matmul(m, path.rows[:, :, None])[:, :, 0]
    (x0, x1, x2), (t0, t1, t2) = images[0].tolist(), p.translation
    images[0] = (t0 + x0, t1 + x1, t2 + x2)

    if p.lorentz.is_pure_rotation():
        return _path(images, path.arc.shifted(theta), path.kind)

    rays = path.rows[-4:-2]
    moved = rays @ m.T
    # numpy's arctan2 is not math.atan2 bit for bit on every machine
    west, east = (np.arctan2(moved[:, 2], moved[:, 1])
                  - np.arctan2(rays[:, 2], rays[:, 1])).tolist()
    # the principal turns in [-pi, pi): float % is np.remainder bit for bit
    lo = path.arc.alpha_minus + theta + ((west - theta + math.pi) % TWO_PI - math.pi)
    hi = path.arc.alpha_plus + theta + ((east - theta + math.pi) % TWO_PI - math.pi)
    if path.kind == KIND_WEDGE:
        if abs((hi - lo) - math.pi) > LIFT_TOL:
            raise LiftError("wedge arc endpoints drifted apart under transport")
        hi = lo + math.pi
    return _path(images, LiftedArc(lo, hi), path.kind)


def reflect_path(path: ConePath, frame: ReferenceFrame = DEFAULT_FRAME) -> ConePath:
    """Canonical action of j = diag(-1,-1,1) on path classes.

    Requires a j-invariant reference cone; lifted angles map orientation-
    reversingly as angle -> c - angle with c fixed by the reference sheet.
    j reverses orientation, so the west and east corners trade places.
    """
    c = frame.reflection_constant()
    rows = path.rows * _J_SIGNS
    rows[[-4, -3]] = rows[[-3, -4]]
    arc = LiftedArc(c - path.arc.alpha_plus, c - path.arc.alpha_minus)
    return _path(rows, arc, path.kind)


def rebase(path: ConePath, old_frame: ReferenceFrame, new_frame: ReferenceFrame) -> ConePath:
    """Re-express the lifted-angle data over a new reference direction.

    The connector between the two reference directions is taken to be the
    direct angular sweep (no extra winding), so every arc shifts by the same
    offset and all relative winding numbers are unchanged.  Alternative
    connector windings are obtained by composing with act(r(2 pi k), .).
    """
    offset = new_frame.reference_angle - old_frame.reference_angle
    return _path(path.rows, path.arc.shifted(offset), path.kind)


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
    # n.v for each wedge normal n, v the apex gap and then each corner
    vectors = [(path.rows[0] - wedge.rows[0]).tolist(), *path.rows[-4:].tolist()]
    for n0, n1, n2 in wedge.rows[1:-4].tolist():
        for v0, v1, v2 in vectors:
            if n0 * v0 - n1 * v1 - n2 * v2 < -WEDGE_TOL:
                return False
    return True
