"""2+1-dimensional Minkowski algebra and the universal cover of the Lorentz group.

Conventions used throughout the package:

* metric signature (+, -, -);
* a proper orthochronous Lorentz matrix factors uniquely as ``R(theta) @ B``
  with ``R`` a spatial rotation and ``B`` a symmetric positive boost (the
  polar decomposition);
* an element of the universal covering group is the matrix together with the
  polar rotation angle lifted to the real line, so rotations by multiples of
  2*pi stay distinct from the identity.  Lifts are computed in closed form:
  over SU(1,1) ~ SO(2,1)_0 the lifted angle is twice the lifted argument of
  alpha, and the product law of the cover (V. Bargmann, Ann. Math. 48 (1947)
  568) gives the lift of a product from the lifts and boost factors of its
  factors (for strong boosts that nearly cancel, only its sheet: see
  `_product`).  Path continuation survives only as the independent oracle in
  ``plektonlab.continuation``.

Exact integers and phases never pass through the float matrices; only the
matrices themselves and the lifted angles are floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tolerances import (DET_TOL, LIFT_TOL, MAT_TOL, ORTHOCHRONOUS_TOL, POLAR_BRANCH_BOOST,
                         PROJECTION_ATOL, PROJECTION_RTOL, PURE_ROTATION_BOOST)

ETA = np.diag([1.0, -1.0, -1.0])
ETA.setflags(write=False)
ETA_SIGNS = np.diag(ETA)  # read-only view: m @ ETA is m * ETA_SIGNS up to signed zeros

TWO_PI = 2.0 * math.pi


class LiftError(RuntimeError):
    """A lifted angle could not be determined (continuation failed to
    stabilise, or transported wedge ends drifted apart)."""


def wrap_angle(x: float) -> float:
    """Reduce an angle to the branch (-pi, pi]."""
    y = math.fmod(x, TWO_PI)
    if y > math.pi:
        y -= TWO_PI
    elif y <= -math.pi:
        y += TWO_PI
    return y


class MVec3(NamedTuple):
    """A vector in 2+1-dimensional Minkowski space, signature (+, -, -).

    A 3-tuple, so a sequence of vectors is already the rows of an array:
    ``np.array(vectors)`` converts it in one call."""

    x0: float
    x1: float
    x2: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    def __add__(self, other: "MVec3") -> "MVec3":
        return MVec3(self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "MVec3") -> "MVec3":
        return MVec3(self.x0 - other.x0, self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "MVec3":
        return MVec3(-self.x0, -self.x1, -self.x2)


ZERO_VEC = MVec3(0.0, 0.0, 0.0)


def _finite_vector(v: MVec3, what: str) -> MVec3:
    """``v``; raises ValueError unless every component is finite.  The
    public constructors of regions and translations check their vectors."""
    if not all(map(math.isfinite, v)):
        raise ValueError(f"{what} {tuple(map(float, v))} is not finite")
    return v


def minkowski_inner(u: MVec3, v: MVec3) -> float:
    """u.v with signature (+,-,-); space-like unit vectors have u.u = -1."""
    return u.x0 * v.x0 - u.x1 * v.x1 - u.x2 * v.x2


def minkowski_norm2(u: MVec3) -> float:
    return minkowski_inner(u, u)


class LorentzMatrix:
    """A proper orthochronous Lorentz matrix.

    Validated on construction: ``L^T eta L = eta`` within tolerance,
    ``det L = 1`` and ``L[0,0] >= 1``.
    """

    __slots__ = ("m",)

    def __init__(self, m) -> None:
        object.__setattr__(self, "m", _lorentz_rows(m, 1.0))

    @staticmethod
    def identity() -> "LorentzMatrix":
        return LorentzMatrix(np.eye(3))

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return LorentzMatrix(self.m @ other.m)

    def inverse(self) -> "LorentzMatrix":
        # L^-1 = eta L^T eta for Lorentz matrices.  Its columns are the rows
        # of L, which may meet the metric less closely than the columns that
        # validated L, so the inverse is renormalised like a product.  The
        # + 0.0 gives exact zeros the sign that the product eta L^T eta gives.
        return LorentzMatrix(_renormalize((self.m * ETA_SIGNS).T * ETA_SIGNS + 0.0))

    def apply(self, v: MVec3) -> MVec3:
        return MVec3._make((self.m @ v).tolist())

    def is_close(self, other: "LorentzMatrix", tol: float = MAT_TOL) -> bool:
        return bool(np.abs(self.m - other.m).max() <= tol)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(f"{x:.6g}" for x in row) for row in self.m)
        return f"LorentzMatrix([{rows}])"


def _lorentz_rows(m, scale: float) -> np.ndarray:
    """m as a read-only float (3, 3) array, checked to be a proper
    orthochronous Lorentz matrix; every bound grows with max(1, |m|^2, scale),
    the float error allowed for the matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("Lorentz matrix must be 3x3")
    size = float(np.abs(m).max())
    if not math.isfinite(size * size):
        raise ValueError(f"matrix entries are not finite or too large (max |L| = {size:.3e})")
    scale = max(1.0, size ** 2, scale)
    # NaN fails each test; cofactor det = LAPACK's +- 1.2e-14 * scale to rapidity 6
    err = np.abs((m.T * ETA_SIGNS) @ m - ETA).max()
    if not err <= MAT_TOL * scale:
        raise ValueError(f"matrix does not preserve the metric (residual {err:.3e})")
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= DET_TOL * scale:
        raise ValueError("matrix is not proper (det != 1)")
    # a Lorentz matrix has L00 >= 1 or L00 <= -1, so the slack stops at L00 >= 0
    if not m[0, 0] >= 1.0 - min(1.0, ORTHOCHRONOUS_TOL * scale):
        raise ValueError("matrix is not orthochronous (L00 < 1)")
    m = m.copy()
    m.setflags(write=False)
    return m


def _rotation_rows(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _boost1_rows(t: float) -> np.ndarray:
    ch, sh = math.cosh(t), math.sinh(t)
    return np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix(theta: float) -> LorentzMatrix:
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle {theta} is not finite")
    return LorentzMatrix(_rotation_rows(theta))


def boost1_matrix(t: float) -> LorentzMatrix:
    try:
        rows = _boost1_rows(t)
    except OverflowError:
        raise ValueError(f"rapidity {t} overflows a float boost") from None
    return LorentzMatrix(rows)


def _polar_angle_raw(m: np.ndarray) -> float:
    # For L = R(theta) B with B symmetric positive: row 0 of L is row 0 of B,
    # column 0 is R applied to it, so theta is the angle between the two
    # spatial pairs.  Falls back to the rotation block for tiny boosts.
    r = math.hypot(m[0, 1], m[0, 2])
    if r > POLAR_BRANCH_BOOST:
        return wrap_angle(math.atan2(m[2, 0], m[1, 0]) - math.atan2(m[0, 2], m[0, 1]))
    return math.atan2(m[2, 1], m[1, 1])


def polar_rotation_angle(L: LorentzMatrix) -> float:
    """Angle in (-pi, pi] of the rotation factor in the polar decomposition."""
    return _polar_angle_raw(L.m)


def _block_angle(m: np.ndarray) -> float:
    """The polar angle of m read off its spatial block.  For L = R(theta) B
    that block is R(theta) times the spatial block of B, which is symmetric
    with trace 1 + L00 >= 2, so theta = atan2(L21 - L12, L11 + L22) with no
    branch and no division by the size of the boost: it errs by about the
    float error of the entries over 1 + L00.  `_polar_angle_raw`, which the
    continuation oracle and `polar_rotation_angle` keep, divides that error
    by the boost |(L01, L02)| down to POLAR_BRANCH_BOOST."""
    return math.atan2(m[2, 1] - m[1, 2], m[1, 1] + m[2, 2])


def _check_projection(m: np.ndarray, angle: float, scale: float) -> None:
    """Raise unless the lifted angle projects to the polar angle of m.  The
    entries of a float matrix, and with them its polar angle, carry a float
    error that grows with max(1, |m|^2, scale)."""
    base = _block_angle(m)
    scale = max(1.0, float(np.abs(m).max()) ** 2, scale)
    if not abs(wrap_angle(angle - base)) <= max(PROJECTION_ATOL, PROJECTION_RTOL * scale):
        raise ValueError(f"lifted angle {angle} does not project to the polar angle {base}")


@dataclass(frozen=True)
class CoveringLorentz:
    """Element of the universal cover: matrix plus lifted polar rotation angle."""

    matrix: LorentzMatrix
    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"lifted angle {self.angle} is not finite")
        _check_projection(self.matrix.m, self.angle, 1.0)

    @staticmethod
    def identity() -> "CoveringLorentz":
        return CoveringLorentz(LorentzMatrix.identity(), 0.0)

    def is_pure_rotation(self) -> bool:
        # row 0 of L = R(theta) B is row 0 of B, (cosh t, sinh t n)
        m = self.matrix.m
        return bool(max(abs(m[0, 1]), abs(m[0, 2])) <= PURE_ROTATION_BOOST)

    def is_close(self, other: "CoveringLorentz", tol: float = LIFT_TOL) -> bool:
        return self.matrix.is_close(other.matrix, max(tol, MAT_TOL)) and abs(
            self.angle - other.angle
        ) <= tol

    def __repr__(self) -> str:
        return f"CoveringLorentz(angle={self.angle:.6g}, {self.matrix!r})"


@dataclass(frozen=True)
class CoveringPoincare:
    """Translation plus covering Lorentz part, composed semidirectly.

    Validated on construction: the translation must be finite."""

    translation: MVec3
    lorentz: CoveringLorentz

    def __post_init__(self) -> None:
        _finite_vector(self.translation, "translation")

    @staticmethod
    def identity() -> "CoveringPoincare":
        return CoveringPoincare(ZERO_VEC, CoveringLorentz.identity())

    def is_close(self, other: "CoveringPoincare", tol: float = LIFT_TOL) -> bool:
        d = self.translation - other.translation
        return max(map(abs, d)) <= tol and self.lorentz.is_close(other.lorentz, tol)

    def apply(self, x: MVec3) -> MVec3:
        return self.translation + self.lorentz.matrix.apply(x)


def cover_rotation(angle: float) -> CoveringLorentz:
    """One-parameter rotation subgroup; cover_rotation(2*pi) is not the identity."""
    return CoveringLorentz(rotation_matrix(angle), angle)


def cover_boost1(t: float) -> CoveringLorentz:
    """Boost along the x1 axis; lifted angle 0."""
    return CoveringLorentz(boost1_matrix(t), 0.0)


def cover_translation(a: MVec3) -> CoveringPoincare:
    return CoveringPoincare(a, CoveringLorentz.identity())


def _renormalize(m: np.ndarray) -> np.ndarray:
    """One first-order Lorentz orthogonalisation step m (1 - eta E / 2), with
    E = m^T eta m - eta.  It keeps accumulated float drift out of long
    composition chains so products stay Lorentz to 1e-12.  Unlike Gram-Schmidt
    on the columns it does not push the row residual m eta m^T - eta up to
    eps |m|^4, so eta m^T eta stays an accurate inverse."""
    return m - (0.5 * m * ETA_SIGNS) @ ((m.T * ETA_SIGNS) @ m - ETA)


def _lift_product(theta1, r1, theta2, r2):
    """Lifted polar angle of the product of covering elements (theta1, L1)
    and (theta2, L2) from row 0 alone, r1 = L1[0] and r2 = L2[0]; vectorised.

    With gamma = (L01 + i L02) / (1 + L00), the ratio beta / alpha of the
    SU(1,1) element over L, the product law of the cover is

        theta_12 = theta_1 + theta_2 + 2 arg(1 + gamma_1 conj(gamma_2) e^{-i theta_2}).

    |gamma| < 1, so the argument stays in (-pi/2, pi/2) and needs no path.
    """
    g1 = (r1[..., 1] + 1j * r1[..., 2]) / (1.0 + r1[..., 0])
    g2 = (r2[..., 1] - 1j * r2[..., 2]) / (1.0 + r2[..., 0])
    return theta1 + theta2 + 2.0 * np.angle(1.0 + g1 * g2 * np.exp(-1j * theta2))


def _product(g1: CoveringLorentz, g2: CoveringLorentz) -> tuple[np.ndarray, float]:
    """The renormalised matrix and the lifted angle of g1 g2, unchecked.

    The closed form divides the float error of its factors, about
    eps L00_1 L00_2, by |1 + gamma_1 conj(gamma_2) e^{-i theta_2}|, which is
    about sqrt(2 L00 / (L00_1 L00_2)) for a product with m00 = L00; the
    spatial block of the product reads its angle to about eps L00_1 L00_2 L00.
    Where the first error is the larger, L00_1 L00_2 > L00^3 (strong boosts
    that nearly cancel, as in g g^-1), the lift keeps the closed form's sheet
    and takes the block's angle.
    """
    m = _renormalize(g1.matrix.m @ g2.matrix.m)
    theta = float(_lift_product(g1.angle, g1.matrix.m[0], g2.angle, g2.matrix.m[0]))
    if g1.matrix.m[0, 0] * g2.matrix.m[0, 0] > m[0, 0] ** 3:
        theta += wrap_angle(_block_angle(m) - theta)
    return m, theta


def _compose_lorentz(g1: CoveringLorentz, g2: CoveringLorentz) -> CoveringLorentz:
    m, theta = _product(g1, g2)
    # the entries of a product carry eps L00_1 L00_2 (L00 is the largest entry
    # of a proper orthochronous Lorentz matrix), so that is its allowance
    # beside its own |m|^2: g g^-1 of a strong boost is near the identity but
    # carries eps |g|^2 in its entries
    scale = float(g1.matrix.m[0, 0] * g2.matrix.m[0, 0])
    m = _lorentz_rows(m, scale)
    _check_projection(m, theta, scale)
    return _trusted(m, theta)


def _trusted(m: np.ndarray, angle: float) -> CoveringLorentz:
    """CoveringLorentz(LorentzMatrix(m), angle) without the checks, for a
    fresh float (3, 3) array that is Lorentz by construction."""
    m.setflags(write=False)
    matrix = object.__new__(LorentzMatrix)
    object.__setattr__(matrix, "m", m)
    g = object.__new__(CoveringLorentz)
    object.__setattr__(g, "matrix", matrix)
    object.__setattr__(g, "angle", angle)
    return g


def _poincare(translation: MVec3, lorentz: CoveringLorentz) -> CoveringPoincare:
    """CoveringPoincare(translation, lorentz) without the finiteness check,
    for the package's own products and images."""
    p = object.__new__(CoveringPoincare)
    object.__setattr__(p, "translation", translation)
    object.__setattr__(p, "lorentz", lorentz)
    return p


_TRUSTED_IDENTITY = _trusted(np.eye(3), 0.0)


def _sampled_element(alpha: float, t: float, beta: float, translation=None):
    """cover_compose(cover_rotation(alpha), cover_compose(cover_boost1(t),
    cover_rotation(beta))), after cover_translation(translation) unless that
    is None, bitwise as those calls give it but without their checks.  The
    arithmetic is theirs, so the factors and products are Lorentz and the
    lifts project for the finite angles and moderate rapidities that random
    sampling draws; public constructors and `cover_compose` still validate.
    """
    inner = _trusted(*_product(_trusted(_boost1_rows(t), 0.0),
                               _trusted(_rotation_rows(beta), beta)))
    g = _trusted(*_product(_trusted(_rotation_rows(alpha), alpha), inner))
    if translation is None:
        return g
    # + 0.0 is the identity's image of the zero vector added in `cover_compose`
    return _poincare(translation + ZERO_VEC, _trusted(*_product(_TRUSTED_IDENTITY, g)))


def cover_compose(g1, g2):
    """Product in the universal cover; the lift follows the closed-form
    product law of `_lift_product`.

    Accepts CoveringLorentz or CoveringPoincare arguments; the result is a
    CoveringPoincare unless both inputs are CoveringLorentz.
    """
    if isinstance(g1, CoveringLorentz) and isinstance(g2, CoveringLorentz):
        return _compose_lorentz(g1, g2)
    p1 = _as_poincare(g1)
    p2 = _as_poincare(g2)
    trans = p1.translation + p1.lorentz.matrix.apply(p2.translation)
    return _poincare(trans, _compose_lorentz(p1.lorentz, p2.lorentz))


def _as_poincare(g) -> CoveringPoincare:
    if isinstance(g, CoveringPoincare):
        return g
    if isinstance(g, CoveringLorentz):
        return _poincare(ZERO_VEC, g)
    raise TypeError(f"expected a covering group element, got {type(g).__name__}")


def cover_inverse(g):
    """Inverse in the universal cover; the lifted angle is negated."""
    if isinstance(g, CoveringPoincare):
        inv_l = cover_inverse(g.lorentz)
        return _poincare(inv_l.matrix.apply(-g.translation), inv_l)
    # u^-1 has alpha -> conj(alpha), so the lift is negated
    return CoveringLorentz(g.matrix.inverse(), -g.angle)


_J_MAT = np.diag([-1.0, -1.0, 1.0])
_J_MAT.setflags(write=False)


def reflect_vector(x: MVec3) -> MVec3:
    """Apply j = diag(-1,-1,1), the reflection at the edge of the standard wedge."""
    return MVec3(-x.x0, -x.x1, x.x2)


def reflect_conjugate(g):
    """The unique lift of Ad(j) to the universal cover: j g j.

    Rotations have their lifted angle negated, boosts along x1 are fixed; the
    map is a continuous involutive automorphism.
    """
    if isinstance(g, CoveringPoincare):
        return _poincare(reflect_vector(g.translation), reflect_conjugate(g.lorentz))
    m = LorentzMatrix(_J_MAT @ g.matrix.m @ _J_MAT)
    return CoveringLorentz(m, -g.angle)
