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
  factors.  Path continuation survives only as the independent oracle in
  ``plektonlab.continuation``.

Exact integers and phases never pass through the float matrices; only the
matrices themselves and the lifted angles are floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MVec3:
    """A vector in 2+1-dimensional Minkowski space, signature (+, -, -)."""

    x0: float
    x1: float
    x2: float

    @staticmethod
    def from_array(a) -> "MVec3":
        return MVec3(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2])

    def __add__(self, other: "MVec3") -> "MVec3":
        return MVec3(self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "MVec3") -> "MVec3":
        return MVec3(self.x0 - other.x0, self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "MVec3":
        return MVec3(-self.x0, -self.x1, -self.x2)

    def scaled(self, s: float) -> "MVec3":
        return MVec3(s * self.x0, s * self.x1, s * self.x2)


ZERO_VEC = MVec3(0.0, 0.0, 0.0)


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
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("Lorentz matrix must be 3x3")
        size = float(np.abs(m).max())
        if not math.isfinite(size * size):
            raise ValueError(f"matrix entries are not finite or too large (max |L| = {size:.3e})")
        scale = max(1.0, size ** 2)
        # NaN fails each test; cofactor det = LAPACK's +- 1.2e-14 * scale to rapidity 6
        err = np.abs((m.T * ETA_SIGNS) @ m - ETA).max()
        if not err <= MAT_TOL * scale:
            raise ValueError(f"matrix does not preserve the metric (residual {err:.3e})")
        (a, b, c), (d, e, f), (g, h, i) = m.tolist()
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if not abs(det - 1.0) <= DET_TOL * scale:
            raise ValueError("matrix is not proper (det != 1)")
        if not m[0, 0] >= 1.0 - ORTHOCHRONOUS_TOL:
            raise ValueError("matrix is not orthochronous (L00 < 1)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

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
        return MVec3.from_array(self.m @ v.as_array())

    def is_close(self, other: "LorentzMatrix", tol: float = MAT_TOL) -> bool:
        return bool(np.abs(self.m - other.m).max() <= tol)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(f"{x:.6g}" for x in row) for row in self.m)
        return f"LorentzMatrix([{rows}])"


def _checked_lorentz(ms: np.ndarray) -> np.ndarray:
    """A (T, 3, 3) stack after LorentzMatrix's checks, run once on the whole
    stack in the same arithmetic; the first failing matrix raises
    LorentzMatrix's error for it."""
    size = np.abs(ms).max(axis=(1, 2))
    with np.errstate(all="ignore"):  # NaN and overflow fail the tests below
        scale = np.maximum(1.0, size * size)
        err = np.abs((ms.transpose(0, 2, 1) * ETA_SIGNS) @ ms - ETA).max(axis=(1, 2))
        (a, b, c), (d, e, f), (g, h, i) = ms.transpose(1, 2, 0)
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        ok = (np.isfinite(size * size) & (err <= MAT_TOL * scale)
              & (np.abs(det - 1.0) <= DET_TOL * scale) & (a >= 1.0 - ORTHOCHRONOUS_TOL))
    if not ok.all():
        LorentzMatrix(ms[np.argmin(ok)])  # raises the first failing matrix's error
    return ms


def rotation_matrix(theta: float) -> LorentzMatrix:
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle {theta} is not finite")
    c, s = math.cos(theta), math.sin(theta)
    return LorentzMatrix([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def boost1_matrix(t: float) -> LorentzMatrix:
    try:
        ch, sh = math.cosh(t), math.sinh(t)
    except OverflowError:
        raise ValueError(f"rapidity {t} overflows a float boost") from None
    return LorentzMatrix([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


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


@dataclass(frozen=True)
class CoveringLorentz:
    """Element of the universal cover: matrix plus lifted polar rotation angle."""

    matrix: LorentzMatrix
    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"lifted angle {self.angle} is not finite")
        base = polar_rotation_angle(self.matrix)
        # the polar angle of a float matrix is determined only up to
        # eps * cond(boost)^2, so the check loosens for extreme boosts
        scale = max(1.0, float(np.abs(self.matrix.m).max()) ** 2)
        tol = max(PROJECTION_ATOL, PROJECTION_RTOL * scale)
        if not abs(wrap_angle(self.angle - base)) <= tol:
            raise ValueError(
                f"lifted angle {self.angle} does not project to the polar angle {base}"
            )

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
    """Translation plus covering Lorentz part, composed semidirectly."""

    translation: MVec3
    lorentz: CoveringLorentz

    @staticmethod
    def identity() -> "CoveringPoincare":
        return CoveringPoincare(ZERO_VEC, CoveringLorentz.identity())

    def is_close(self, other: "CoveringPoincare", tol: float = LIFT_TOL) -> bool:
        d = self.translation - other.translation
        return (
            max(abs(d.x0), abs(d.x1), abs(d.x2)) <= tol
            and self.lorentz.is_close(other.lorentz, tol)
        )

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


def _compose_lorentz(g1: CoveringLorentz, g2: CoveringLorentz) -> CoveringLorentz:
    m = LorentzMatrix(_renormalize(g1.matrix.m @ g2.matrix.m))
    theta = _lift_product(g1.angle, g1.matrix.m[0], g2.angle, g2.matrix.m[0])
    return CoveringLorentz(m, float(theta))


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
    return CoveringPoincare(trans, _compose_lorentz(p1.lorentz, p2.lorentz))


def _as_poincare(g) -> CoveringPoincare:
    if isinstance(g, CoveringPoincare):
        return g
    if isinstance(g, CoveringLorentz):
        return CoveringPoincare(ZERO_VEC, g)
    raise TypeError(f"expected a covering group element, got {type(g).__name__}")


def cover_inverse(g):
    """Inverse in the universal cover; the lifted angle is negated."""
    if isinstance(g, CoveringPoincare):
        inv_l = cover_inverse(g.lorentz)
        return CoveringPoincare(inv_l.matrix.apply(-g.translation), inv_l)
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
        return CoveringPoincare(reflect_vector(g.translation), reflect_conjugate(g.lorentz))
    m = LorentzMatrix(_J_MAT @ g.matrix.m @ _J_MAT)
    return CoveringLorentz(m, -g.angle)
