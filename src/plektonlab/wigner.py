"""Single-particle representations with arbitrary real spin in d = 2+1.

The representation acts on momentum-space wave functions over the mass shell
as (U(a, g) psi)(p) = exp(i s Omega(g, p)) exp(i a.p) psi(L^-1 p), where the
Wigner rotation Omega is the lifted angle of B_{Lp}^-1 g B_p in the universal
cover, read in closed form off the SU(1,1) chart of g by the product law of
the cover.  The standard boost B_p is the pure (symmetric positive) boost at
lift 0; the cocycle depends on this convention.

Shell points are (..., 3) float arrays (p0, p1, p2) with p0 > 0 and p.p the
squared mass; `shell_points` lifts spatial momenta onto the shell.  Wave
functions are closed-form objects (finite Gaussian combinations with lazily
stacked group actions) whose `evaluate` takes such an array; the invariant
measure is fixed as d^2 p / (2 omega(p)).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .minkowski import TWO_PI, CoveringLorentz, MVec3, cover_inverse


def shell_points(mass: float, spatial: np.ndarray) -> np.ndarray:
    """Lift an (..., 2) array of spatial momenta onto the mass shell."""
    spatial = np.asarray(spatial, dtype=float)
    energy = np.sqrt(mass**2 + spatial[..., 0] ** 2 + spatial[..., 1] ** 2)
    return np.concatenate([energy[..., None], spatial], axis=-1)


def standard_boost(p) -> np.ndarray:
    """Pure boost B_p with B_p (m, 0, 0) = p; batched over leading axes.

    B_p is symmetric positive (zero polar rotation angle), which fixes the
    Wigner cocycle convention used throughout.
    """
    pts = np.asarray(p, dtype=float)
    u = pts / np.sqrt(pts[..., 0] ** 2 - pts[..., 1] ** 2 - pts[..., 2] ** 2)[..., None]
    s = u[..., 1:]
    out = np.empty(pts.shape[:-1] + (3, 3))
    out[..., 0, :] = u
    out[..., 1:, 0] = s
    out[..., 1:, 1:] = np.eye(2) + s[..., :, None] * s[..., None, :] / (1.0 + u[..., 0, None, None])
    return out


def wigner_rotation(g: CoveringLorentz, p) -> np.ndarray:
    """Lifted angle Omega(g, p) of B_{Lp}^-1 g B_p, in closed form for all
    shell points at once.  With g B_p = R(theta') B', B_{Lp} is
    R(theta') B' R(-theta'), so Omega is the lift of g B_p; with B_p the chart
    element (0, chi_p, phi_p) and m = sqrt(p.p), the product law gives

        Omega = theta + 2 arg(cosh(chi/2) (m + p0) + sinh(chi/2) e^{i phi} (p1 - i p2)),

    an argument in (-pi/2, pi/2), as the first term outweighs the second.

    Takes an (..., 3) array of shell points and returns the (...) array of
    their lifted angles.
    """
    pts = np.asarray(p, dtype=float)
    p0, p1, p2 = pts[..., 0], pts[..., 1], pts[..., 2]
    m = np.sqrt(p0 ** 2 - p1 ** 2 - p2 ** 2)
    c, s = math.cosh(0.5 * g.rapidity), math.sinh(0.5 * g.rapidity)
    alpha = c * (m + p0) + s * cmath.exp(1j * g.direction) * (p1 - 1j * p2)
    return g.angle + 2.0 * np.angle(alpha)


# ---------------------------------------------------------------------------
# wave functions
# ---------------------------------------------------------------------------

class WaveFunction:
    """Pointwise-evaluable wave function on the mass shell (multiplicity 1)."""

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


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
class _Transformed(WaveFunction):
    a: MVec3
    g: CoveringLorentz
    spin: float
    base: WaveFunction

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        omega = wigner_rotation(self.g, pts)
        phase = np.exp(1j * self.spin * omega)
        a0, a1, a2 = self.a
        phase = phase * np.exp(1j * (a0 * pts[..., 0] - a1 * pts[..., 1] - a2 * pts[..., 2]))
        linv = cover_inverse(self.g).matrix.m
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
def _shell_rule() -> tuple[np.ndarray, np.ndarray]:
    """Spatial nodes and weights, at unit mass, of the invariant measure
    d^2 p / (2 omega) = (m/2) sinh chi dchi dphi on p = m sinh chi (cos phi, sin phi):
    96 Gauss-Legendre nodes in chi on [0, chi_max = 6] times a 96-point
    trapezoid rule in phi, which converges geometrically on the periodic
    integrand.  Read-only and computed once per process.

    Tail bound: a boost of rapidity eta moves shell points by at most eta in
    chi, so if |psi(p)|^2 <= W^2 exp(-2 a (|p| - r)^2) for |p| >= r, U(x, g) psi
    with g of rapidity at most eta carries about pi m W^2 e^chi_max
    exp(-2 a (m sinh(chi_max - eta) - r)^2) beyond chi_max: below 1e-16 W^2
    while m sinh(6 - eta) - r >= 4.8 / sqrt(a), and below e^-7000 for the
    wigner suite's state (a >= 1, r < 0.6, m = 1, eta <= 1.2).

    A boost of rapidity eta narrows a state in phi like 1 / sinh eta.  On the
    suite's state the rule keeps the norm to 3e-15 up to rapidity 1.2, 1e-10
    at 1.5 and 1.5e-7 at 1.8; at rapidity 3 it errs by 4e-2.
    """
    chi_max = 6.0
    nodes, weights = np.polynomial.legendre.leggauss(96)
    chi = 0.5 * chi_max * (nodes + 1.0)
    radial = 0.25 * chi_max * weights * np.sinh(chi) * (TWO_PI / 96)
    phi = TWO_PI * np.arange(96) / 96
    spatial = np.sinh(chi)[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    spatial = spatial.reshape(-1, 2)
    w2 = np.repeat(radial, 96)
    for a in (spatial, w2):
        a.setflags(write=False)
    return spatial, w2


def shell_norm2(psi: WaveFunction, mass: float) -> float:
    """Squared norm under d^2 p / (2 omega(p)) by the rapidity-angle rule
    of `_shell_rule`."""
    spatial, w2 = _shell_rule()
    vals = np.abs(psi.evaluate(shell_points(mass, mass * spatial))) ** 2
    return mass * float(np.sum(vals * w2))


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
    """
    from .minkowski import ZERO_VEC, reflect_conjugate, reflect_vector

    x = MVec3(0.4, -0.3, 0.2)

    lhs = apply_j(apply_rep(ZERO_VEC, g, spin, apply_j(psi)))
    rhs = apply_rep(ZERO_VEC, reflect_conjugate(g), spin, psi)
    res_g = float(np.abs(lhs.evaluate(pts) - rhs.evaluate(pts)).max())

    ident = CoveringLorentz.identity()
    lhs_t = apply_j(apply_rep(x, ident, spin, apply_j(psi)))
    rhs_t = apply_rep(reflect_vector(x), ident, spin, psi)
    res_x = float(np.abs(lhs_t.evaluate(pts) - rhs_t.evaluate(pts)).max())
    return {"reflection": res_g, "translation": res_x}
