"""2+1-dimensional Minkowski algebra and the universal cover of the Lorentz group.

Conventions used throughout the package:

* metric signature (+, -, -);
* a proper orthochronous Lorentz matrix factors uniquely as ``R(theta) @ B``
  with ``R`` a spatial rotation and ``B`` a symmetric positive boost (the
  polar decomposition);
* an element of the universal covering group is held in the SU(1,1) polar
  chart (theta, chi, phi): the polar rotation angle lifted to the real line,
  so rotations by multiples of 2*pi stay distinct from the identity, the
  rapidity chi >= 0 and the direction phi of the boost B(chi, phi).  Every
  triple is a group element, so products need no renormalising and no
  re-validation.  Over SU(1,1) ~ SO(2,1)_0 the element is
  alpha = e^{i theta/2} cosh(chi/2), beta = e^{i theta/2} sinh(chi/2) e^{i phi},
  and the product law of the cover (V. Bargmann, Ann. Math. 48 (1947) 568)
  gives the lift of a product in closed form; ``plektonlab.wigner`` reads
  Wigner rotations off the same law, never off a matrix.  The matrix
  R(theta) B(chi, phi) is built from cos, sin, cosh and sinh when it is first
  read.  Path continuation survives only as the independent oracle in
  ``plektonlab.continuation``, which reads the matrix, never the chart.

Exact integers and phases never pass through the float matrices; only the
matrices, the chart coordinates and the lifted angles are floating point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tolerances import (DET_TOL, LIFT_TOL, MAT_TOL, ORTHOCHRONOUS_TOL, POLAR_BRANCH_BOOST,
                         PURE_ROTATION_BOOST)

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


class LorentzMatrix:
    """A proper orthochronous Lorentz matrix.

    Validated on construction: ``L^T eta L = eta`` within tolerance,
    ``det L = 1`` and ``L[0,0] >= 1``.
    """

    __slots__ = ("m",)

    def __init__(self, m) -> None:
        object.__setattr__(self, "m", _lorentz_rows(m))

    def apply(self, v: MVec3) -> MVec3:
        return MVec3._make((self.m @ v).tolist())

    def is_close(self, other: "LorentzMatrix", tol: float = MAT_TOL) -> bool:
        return bool(np.abs(self.m - other.m).max() <= tol)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(f"{x:.6g}" for x in row) for row in self.m)
        return f"LorentzMatrix([{rows}])"


def _lorentz_rows(m) -> np.ndarray:
    """m as a read-only float (3, 3) array, checked to be a proper
    orthochronous Lorentz matrix; the metric and orthochronous bounds grow
    with max(1, |m|^2), the float error allowed for the matrix, the
    determinant's with max(1, |m|)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("Lorentz matrix must be 3x3")
    size = float(np.abs(m).max())
    if not math.isfinite(size * size):
        raise ValueError(f"matrix entries are not finite or too large (max |L| = {size:.3e})")
    scale = max(1.0, size ** 2)
    # NaN fails each test
    err = np.abs((m.T * ETA_SIGNS) @ m - ETA).max()
    if not err <= MAT_TOL * scale:
        raise ValueError(f"matrix does not preserve the metric (residual {err:.3e})")
    # det L is the cofactor of L00 over L00 for a Lorentz matrix: that reads
    # det to eps |L|, where the full expansion rounds to eps |L|^3, past any
    # |L|^2 allowance from rapidity about 18.  The slack stops at 1, so
    # det = -1 is refused at every rapidity
    (a, _, _), (_, e, f), (_, h, i) = m.tolist()
    if not abs((e * i - f * h) - a) <= min(1.0, DET_TOL * max(1.0, size)) * abs(a):
        raise ValueError("matrix is not proper (det != 1)")
    # a Lorentz matrix has L00 >= 1 or L00 <= -1, so the slack stops at L00 >= 0
    if not a >= 1.0 - min(1.0, ORTHOCHRONOUS_TOL * scale):
        raise ValueError("matrix is not orthochronous (L00 < 1)")
    m = m.copy()
    m.setflags(write=False)
    return m


def rotation_matrix(theta: float) -> LorentzMatrix:
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle {theta} is not finite")
    c, s = math.cos(theta), math.sin(theta)
    return LorentzMatrix([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


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


@dataclass(frozen=True, init=False, repr=False)
class CoveringLorentz:
    """Element of the universal cover in the SU(1,1) polar chart: the lifted
    polar angle theta, the rapidity chi >= 0 and the boost direction phi (an
    angle mod 2 pi), with matrix R(theta) B(chi, phi).

    The public constructor takes a Lorentz matrix and a lifted angle of it,
    reads chi and phi off row 0 of the matrix (row 0 of B) and refuses an
    angle whose chart matrix misses the given one by more than
    MAT_TOL max(1, |L|): a lift moved by delta moves the entries by about
    delta |L|.  Products, inverses and j-conjugates are chart arithmetic and
    are never re-checked.
    """

    angle: float
    rapidity: float
    direction: float

    def __init__(self, matrix: LorentzMatrix, angle: float) -> None:
        if not math.isfinite(angle):
            raise ValueError(f"lifted angle {angle} is not finite")
        m = matrix.m
        _set_chart(self, angle, math.asinh(math.hypot(m[0, 1], m[0, 2])),
                   math.atan2(m[0, 2], m[0, 1]))
        err = float(np.abs(self.matrix.m - m).max())
        if not err <= MAT_TOL * max(1.0, float(np.abs(m).max())):
            raise ValueError(f"lifted angle {angle} does not project to the polar angle "
                             f"of the matrix (chart matrix off by {err:.3e})")

    @functools.cached_property
    def matrix(self) -> LorentzMatrix:
        """R(theta) B(chi, phi) from cos, sin, cosh and sinh; cosh chi - 1 is
        2 sinh(chi/2)^2, so weak boosts keep their digits."""
        c, s = math.cos(self.angle), math.sin(self.angle)
        u, v = math.cos(self.direction), math.sin(self.direction)
        half_c, half_s = math.cosh(0.5 * self.rapidity), math.sinh(0.5 * self.rapidity)
        k, sh = 2.0 * half_s * half_s, 2.0 * half_c * half_s
        b1 = (sh * u, 1.0 + k * u * u, k * u * v)
        b2 = (sh * v, k * u * v, 1.0 + k * v * v)
        rows = np.array([(1.0 + k, sh * u, sh * v),
                         [c * x - s * y for x, y in zip(b1, b2)],
                         [s * x + c * y for x, y in zip(b1, b2)]])
        rows.setflags(write=False)
        matrix = object.__new__(LorentzMatrix)
        object.__setattr__(matrix, "m", rows)
        return matrix

    @staticmethod
    def identity() -> "CoveringLorentz":
        return _chart(0.0, 0.0, 0.0)

    def is_pure_rotation(self) -> bool:
        return self.rapidity <= PURE_ROTATION_BOOST

    def is_close(self, other: "CoveringLorentz", tol: float = LIFT_TOL) -> bool:
        return self.matrix.is_close(other.matrix, max(tol, MAT_TOL)) and abs(
            self.angle - other.angle
        ) <= tol

    def __repr__(self) -> str:
        return (f"CoveringLorentz(angle={self.angle:.6g}, rapidity={self.rapidity:.6g}, "
                f"direction={self.direction:.6g})")


def _set_chart(g: CoveringLorentz, theta: float, chi: float, phi: float) -> None:
    object.__setattr__(g, "angle", theta)
    object.__setattr__(g, "rapidity", chi)
    object.__setattr__(g, "direction", phi)


def _chart(theta: float, chi: float, phi: float) -> CoveringLorentz:
    """The element with chart coordinates (theta, chi, phi), chi >= 0; every
    such triple is a group element."""
    g = object.__new__(CoveringLorentz)
    _set_chart(g, theta, chi, phi)
    return g


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


def cover_rotation(angle: float) -> CoveringLorentz:
    """One-parameter rotation subgroup, in the chart; cover_rotation(2*pi) is not the identity."""
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle {angle} is not finite")
    return _chart(angle, 0.0, 0.0)


def cover_boost1(t: float) -> CoveringLorentz:
    """Boost along the x1 axis with rapidity t, lifted angle 0, in the chart:
    (0, |t|, 0 or pi), the direction pi for a negative t (and for -0.0)."""
    if not math.isfinite(t):
        raise ValueError(f"rapidity {t} is not finite")
    try:
        math.cosh(t)
    except OverflowError:
        raise ValueError(f"rapidity {t} overflows a float boost") from None
    return _chart(0.0, abs(t), math.atan2(0.0, t))


def _chart_product(g1: CoveringLorentz, g2: CoveringLorentz) -> CoveringLorentz:
    """g1 g2 in the chart.  R(theta_1) B_1 R(theta_2) B_2 is
    R(theta_1 + theta_2) B(chi_1, phi_1 - theta_2) B_2, and the two boosts
    multiply in SU(1,1) to (alpha, beta) with alpha = c_1 c_2 + s_1 s_2 e^{i delta},
    c = cosh(chi/2), s = sinh(chi/2), delta = phi_1 - theta_2 - phi_2: the lift
    gains 2 arg alpha (Bargmann's law, in (-pi/2, pi/2) since |alpha| >= 1),
    and the product's boost is chi = 2 asinh|beta| along arg(beta / alpha).
    No half angle of a lift enters, and nothing can leave the group."""
    c1, s1 = math.cosh(0.5 * g1.rapidity), math.sinh(0.5 * g1.rapidity)
    c2, s2 = math.cosh(0.5 * g2.rapidity), math.sinh(0.5 * g2.rapidity)
    turned = g1.direction - g2.angle
    alpha = c1 * c2 + s1 * s2 * cmath.exp(1j * (turned - g2.direction))
    beta = c1 * s2 * cmath.exp(1j * g2.direction) + s1 * c2 * cmath.exp(1j * turned)
    return _chart(g1.angle + g2.angle + 2.0 * cmath.phase(alpha),
                  2.0 * math.asinh(abs(beta)), cmath.phase(beta * alpha.conjugate()))


def _poincare(translation: MVec3, lorentz: CoveringLorentz) -> CoveringPoincare:
    """CoveringPoincare(translation, lorentz) without the finiteness check,
    for the package's own products and images."""
    p = object.__new__(CoveringPoincare)
    object.__setattr__(p, "translation", translation)
    object.__setattr__(p, "lorentz", lorentz)
    return p


def cover_compose(g1, g2):
    """Product in the universal cover, in closed form in the chart.

    Accepts CoveringLorentz or CoveringPoincare arguments; the result is a
    CoveringPoincare unless both inputs are CoveringLorentz.
    """
    if isinstance(g1, CoveringLorentz) and isinstance(g2, CoveringLorentz):
        return _chart_product(g1, g2)
    p1 = _as_poincare(g1)
    p2 = _as_poincare(g2)
    trans = p1.translation + p1.lorentz.matrix.apply(p2.translation)
    return _poincare(trans, _chart_product(p1.lorentz, p2.lorentz))


def _as_poincare(g) -> CoveringPoincare:
    if isinstance(g, CoveringPoincare):
        return g
    if isinstance(g, CoveringLorentz):
        return _poincare(ZERO_VEC, g)
    raise TypeError(f"expected a covering group element, got {type(g).__name__}")


def cover_inverse(g):
    """Inverse in the universal cover.  (alpha, beta) -> (conj alpha, -beta)
    negates the lift and turns the boost to phi + theta + pi:
    (R(theta) B(chi, phi))^-1 = B(chi, phi + pi) R(-theta)."""
    if isinstance(g, CoveringPoincare):
        inv_l = cover_inverse(g.lorentz)
        return _poincare(inv_l.matrix.apply(-g.translation), inv_l)
    return _chart(-g.angle, g.rapidity, math.remainder(g.direction + g.angle + math.pi, TWO_PI))


def reflect_vector(x: MVec3) -> MVec3:
    """Apply j = diag(-1,-1,1), the reflection at the edge of the standard wedge."""
    return MVec3(-x.x0, -x.x1, x.x2)


def reflect_conjugate(g):
    """The unique lift of Ad(j) to the universal cover: j g j.

    j R(theta) B(chi, phi) j = R(-theta) B(chi, -phi), so rotations have
    their lifted angle negated and boosts along x1 are fixed; the map is a
    continuous involutive automorphism.
    """
    if isinstance(g, CoveringPoincare):
        return _poincare(reflect_vector(g.translation), reflect_conjugate(g.lorentz))
    return _chart(-g.angle, g.rapidity, -g.direction)
