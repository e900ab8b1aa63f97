"""Single-particle representations with arbitrary real spin in d = 2+1.

The representation acts on momentum-space wave functions over the mass shell
as (U(a, g) psi)(p) = exp(i s Omega(g, p)) exp(i a.p) psi(L^-1 p), where the
Wigner rotation Omega is the lifted angle of B_{Lp}^-1 g B_p in the universal
cover, computed in closed form by the product law of `minkowski` with the
standard boosts at lift 0.  The standard boost B_p is the pure (symmetric
positive) boost; the cocycle depends on this convention.

Wave functions are closed-form objects (finite Gaussian combinations with
lazily stacked group actions) evaluated pointwise on batches of shell
points; the invariant measure is fixed as d^2 p / (2 omega(p)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .minkowski import ETA_SIGNS, TWO_PI, CoveringLorentz, MVec3, _lift_product


@dataclass(frozen=True)
class MassShellPoint:
    """Point on the positive mass shell; the energy is derived."""

    mass: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")

    @property
    def energy(self) -> float:
        return math.sqrt(self.mass**2 + self.p1**2 + self.p2**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.energy, self.p1, self.p2])


def shell_points(mass: float, spatial: np.ndarray) -> np.ndarray:
    """Lift an (..., 2) array of spatial momenta onto the mass shell."""
    spatial = np.asarray(spatial, dtype=float)
    energy = np.sqrt(mass**2 + spatial[..., 0] ** 2 + spatial[..., 1] ** 2)
    return np.concatenate([energy[..., None], spatial], axis=-1)


def _as_points(p) -> np.ndarray:
    if isinstance(p, MassShellPoint):
        return p.as_array()
    return np.asarray(p, dtype=float)


def _unit(pts: np.ndarray) -> np.ndarray:
    m = np.sqrt(pts[..., 0] ** 2 - pts[..., 1] ** 2 - pts[..., 2] ** 2)
    return pts / m[..., None]


def standard_boost(p) -> np.ndarray:
    """Pure boost B_p with B_p (m, 0, 0) = p; batched over leading axes.

    B_p is symmetric positive (zero polar rotation angle), which fixes the
    Wigner cocycle convention used throughout.
    """
    pts = _as_points(p)
    u = _unit(pts)
    s = u[..., 1:]
    out = np.empty(pts.shape[:-1] + (3, 3))
    out[..., 0, :] = u
    out[..., 1:, 0] = s
    out[..., 1:, 1:] = np.eye(2) + s[..., :, None] * s[..., None, :] / (1.0 + u[..., 0, None, None])
    return out


def wigner_rotation(g: CoveringLorentz, p) -> np.ndarray:
    """Lifted angle Omega(g, p) of B_{Lp}^-1 g B_p, in closed form for all
    shell points at once: the lift of g B_p, then of B_{Lp}^-1 times it.

    The product law reads row 0 of each factor only, L[0] @ B_p of g B_p and
    (q / m(q)) eta of B_q^-1 = eta B_q eta with q = L p, so B_{Lp} is never built.

    Accepts a MassShellPoint or an (..., 3) array of shell points; returns
    the matching array of lifted angles (a scalar for a single point).
    """
    pts = _as_points(p)
    scalar = isinstance(p, MassShellPoint) or np.asarray(p).ndim == 1
    m = g.matrix.m
    bp = standard_boost(pts)
    theta_gbp = _lift_product(g.angle, m[0], 0.0, bp[..., 0, :])
    lifted = _lift_product(0.0, _unit(pts @ m.T) * ETA_SIGNS, theta_gbp, m[0] @ bp)
    return float(lifted) if scalar else lifted


# ---------------------------------------------------------------------------
# wave functions
# ---------------------------------------------------------------------------

class WaveFunction:
    """Pointwise-evaluable wave function on the mass shell (multiplicity 1)."""

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, p) -> complex | np.ndarray:
        pts = _as_points(p)
        scalar = isinstance(p, MassShellPoint) or np.asarray(p).ndim == 1
        vals = self.evaluate(pts if pts.ndim > 1 else pts[None, :])
        return complex(vals[0]) if scalar else vals

    def scaled(self, z: complex) -> "WaveFunction":
        return _Scaled(z, self)


@dataclass(frozen=True)
class GaussianSum(WaveFunction):
    """Finite combination sum_k w_k exp(-a_k |p_vec - c_k|^2)."""

    weights: tuple[complex, ...]
    centers: tuple[tuple[float, float], ...]
    widths: tuple[float, ...]

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for w, c, a in zip(self.weights, self.centers, self.widths):
            d2 = (pts[..., 1] - c[0]) ** 2 + (pts[..., 2] - c[1]) ** 2
            out += w * np.exp(-a * d2)
        return out


@dataclass(frozen=True)
class _Scaled(WaveFunction):
    factor: complex
    base: WaveFunction

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return self.factor * self.base.evaluate(pts)


@dataclass(frozen=True)
class _Transformed(WaveFunction):
    a: MVec3
    g: CoveringLorentz
    spin: float
    base: WaveFunction

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        omega = wigner_rotation(self.g, pts)
        phase = np.exp(1j * self.spin * omega)
        av = self.a.as_array()
        phase = phase * np.exp(
            1j * (av[0] * pts[..., 0] - av[1] * pts[..., 1] - av[2] * pts[..., 2])
        )
        linv = self.g.matrix.inverse().m
        return phase * self.base.evaluate(pts @ linv.T)


@dataclass(frozen=True)
class _Reflected(WaveFunction):
    base: WaveFunction

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        flipped = pts.copy()
        flipped[..., 2] = -flipped[..., 2]
        return np.conj(self.base.evaluate(flipped))


def apply_rep(a: MVec3, g: CoveringLorentz, spin: float, psi: WaveFunction) -> WaveFunction:
    """(U(a, g) psi)(p) = exp(i s Omega(g, p)) exp(i a.p) psi(L^-1 p)."""
    return _Transformed(a, g, spin, psi)


def apply_j(psi: WaveFunction) -> WaveFunction:
    """Anti-linear reflection: (U(j) psi)(p) = conj(psi(-j p))."""
    return _Reflected(psi)


# ---------------------------------------------------------------------------
# quadrature and verification sweeps
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _tensor_rule() -> tuple[np.ndarray, np.ndarray]:
    """Spatial nodes and weights of the 96 x 96 tensor Gauss-Legendre rule on
    [-8, 8]^2, read-only and computed once per process."""
    nodes, weights = np.polynomial.legendre.leggauss(96)
    x = nodes * 8.0
    w = weights * 8.0
    p1, p2 = np.meshgrid(x, x, indexing="ij")
    spatial = np.stack([p1.ravel(), p2.ravel()], axis=-1)
    w2 = np.outer(w, w).ravel()
    for a in (spatial, w2):
        a.setflags(write=False)
    return spatial, w2


def shell_norm2(psi: WaveFunction, mass: float) -> float:
    """Squared norm under d^2 p / (2 omega(p)) by tensor Gauss-Legendre."""
    spatial, w2 = _tensor_rule()
    pts = shell_points(mass, spatial)
    vals = np.abs(psi.evaluate(pts)) ** 2
    measure = 1.0 / (2.0 * pts[..., 0])
    return float(np.sum(vals * measure * w2))


def sample_shell(mass: float, rng: np.random.Generator, n: int) -> np.ndarray:
    spatial = rng.uniform(-2.5, 2.5, size=(n, 2))
    return shell_points(mass, spatial)


def verify_cocycle(g1: CoveringLorentz, g2: CoveringLorentz, pts: np.ndarray) -> float:
    """max_p |Omega(g1 g2, p) - Omega(g1, L2 p) - Omega(g2, p)|."""
    from .minkowski import cover_compose

    g12 = cover_compose(g1, g2)
    lhs = wigner_rotation(g12, pts)
    rhs = wigner_rotation(g1, pts @ g2.matrix.m.T) + wigner_rotation(g2, pts)
    return float(np.abs(lhs - rhs).max())


def verify_j_relations(g: CoveringLorentz, spin: float, psi: WaveFunction,
                       pts: np.ndarray) -> dict:
    """Residuals of the reflection relations on sampled shell points:

    (i)   U(j) U(g) U(j) = U(j g j)
    (ii)  U(j) U(x) U(j) = U(j x), for x = (0.4, -0.3, 0.2)
    (iii) U(r(2 pi)) psi = exp(2 pi i s) psi
    """
    from .minkowski import ZERO_VEC, cover_rotation, reflect_conjugate, reflect_vector

    x = MVec3(0.4, -0.3, 0.2)

    lhs = apply_j(apply_rep(ZERO_VEC, g, spin, apply_j(psi)))
    rhs = apply_rep(ZERO_VEC, reflect_conjugate(g), spin, psi)
    res_g = float(np.abs(lhs.evaluate(pts) - rhs.evaluate(pts)).max())

    ident = CoveringLorentz.identity()
    lhs_t = apply_j(apply_rep(x, ident, spin, apply_j(psi)))
    rhs_t = apply_rep(reflect_vector(x), ident, spin, psi)
    res_x = float(np.abs(lhs_t.evaluate(pts) - rhs_t.evaluate(pts)).max())

    rot = apply_rep(ZERO_VEC, cover_rotation(TWO_PI), spin, psi)
    expected = np.exp(2j * math.pi * spin) * psi.evaluate(pts)
    res_rot = float(np.abs(rot.evaluate(pts) - expected).max())

    return {"reflection": res_g, "translation": res_x, "rotation_2pi": res_rot}
