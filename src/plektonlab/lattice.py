"""Finite-dimensional oracle for the symbolic field algebra.

For a Z_N model, builds N x N clock/shift matrices U, V with U V = omega V U
and represents a charge-c symbol at site j of an L-site chain as the string
operator (U_1 ... U_{j-1} V_j)^c.  Site order follows the angular order of
the localisations, so pairwise windings lie in {-1, 0} and the matrix
algebra reproduces every exchange and adjoint identity of the symbolic
layer to machine precision.  Products are taken site by site in N x N
factors, and each side of an identity is one Kronecker product of the site
products, compared as a dense N^L x N^L matrix (N^L <= 1024).  The oracle
writes the two sides into two arrays allocated once per call, so its memory
is the same for any charges and order of the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fields import FieldWord, FieldSymbol, adjoint, angular_order, exchange
from .sectors import AnyonModel
from .tolerances import LATTICE_TOL

# Z_4 with 5 sites; one more site would build 268 MB matrices
MAX_DIMENSION = 1024


class OracleError(ValueError):
    """The lattice oracle cannot represent the requested configuration."""


def _clock_shift(n: int) -> tuple[np.ndarray, np.ndarray]:
    zeta = np.exp(2j * np.pi / n)
    clock = np.diag(zeta ** np.arange(n))
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    return clock, shift


def _kron(factors: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """reduce(np.kron, factors), with the last product written into ``out``
    when it is given."""
    head = reduce(np.kron, factors[:-1], np.ones((1, 1), dtype=complex))
    m, n = len(head), len(factors[-1])
    if out is None:
        out = np.empty((m * n, m * n), dtype=complex)
    np.multiply(head[:, None, :, None], factors[-1][None, :, None, :],
                out=out.reshape(m, n, m, n))
    return out


def _max_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance |a - b|, computed in the storage of b, which it
    overwrites."""
    np.subtract(a, b, out=b)
    np.abs(b, out=b)
    return float(b.real.max())


def _charge(sym: FieldSymbol) -> int:
    if not sym.obs.is_identity():
        raise OracleError("lattice oracle models trivial observable labels only")
    return sym.charge


@dataclass
class ClockShiftLattice:
    """String-operator representation of charge symbols on a finite chain."""

    model: AnyonModel
    n_sites: int

    def __post_init__(self) -> None:
        if not self.model.is_finite:
            raise OracleError("lattice oracle requires a Z_N model")
        n = self.model.group_order
        if n > 5:
            raise OracleError("lattice oracle supports N <= 5")
        if n ** self.n_sites > MAX_DIMENSION:
            raise OracleError(
                f"dimension overflow: {n}^{self.n_sites} > {MAX_DIMENSION}"
            )
        turns = self.model.omega.turns
        # omega = zeta^a with zeta = exp(2 pi i / N); integrality is the
        # validator condition omega^N = 1
        if (turns * n).denominator != 1:
            raise OracleError("omega is not an N-th root of unity")
        clock, self._v = _clock_shift(n)
        self._u = np.linalg.matrix_power(clock, int(turns * n))

    @property
    def dimension(self) -> int:
        return self.model.group_order ** self.n_sites

    def _factors(self, site: int, charge: int) -> list[np.ndarray]:
        """Site factors of (U_1 ... U_{site-1} V_site)^charge: U^c before the
        site, V^c on it and the identity after it; U^dagger and V^dagger for
        a negative charge."""
        if not 0 <= site < self.n_sites:
            raise IndexError(f"site {site} is not on the {self.n_sites}-site chain")
        u, v = (self._u, self._v) if charge >= 0 else (self._u.conj().T, self._v.conj().T)
        u, v = (np.linalg.matrix_power(m, abs(charge)) for m in (u, v))
        return [u] * site + [v] + [np.eye(len(u), dtype=complex)] * (self.n_sites - site - 1)

    def site_operator(self, j: int) -> np.ndarray:
        return _kron(self._factors(j, 1))

    # ``out``, when given, is a complex d x d array that receives the matrix
    # and is returned, as for a numpy ufunc
    def symbol_matrix(self, sym: FieldSymbol, site: int, *,
                      out: np.ndarray | None = None) -> np.ndarray:
        return _kron(self._factors(site, _charge(sym)), out)

    def word_matrix(self, word: FieldWord, sites: list[int], *,
                    out: np.ndarray | None = None) -> np.ndarray:
        per_site = [np.eye(self.model.group_order, dtype=complex)] * self.n_sites
        for sym, site in zip(word.factors, sites):
            per_site = [p @ f for p, f in zip(per_site, self._factors(site, _charge(sym)))]
        out = _kron(per_site, out)
        out *= word.coeff.to_complex()
        return out


def _sites_by_angle(word: FieldWord) -> list[int]:
    order = angular_order(word)
    sites = [0] * len(order)
    for site, idx in enumerate(order):
        sites[idx] = site
    return sites


@dataclass(frozen=True)
class LatticeReport:
    dimension: int
    exchange_residual: float
    adjoint_residual: float
    checks: int

    @property
    def ok(self) -> bool:
        return self.exchange_residual < LATTICE_TOL and self.adjoint_residual < LATTICE_TOL


def lattice_oracle(model: AnyonModel, word: FieldWord,
                   sites: list[int] | None = None) -> LatticeReport:
    """Verify the symbolic exchange and adjoint identities as matrix
    identities for the given word.

    Sites default to the angular order of the factor localisations;
    pairwise windings must then lie in {-1, 0}.  Residuals are max-norm
    distances between the matrix sides.
    """
    if len(word.factors) > 6:
        raise OracleError("lattice oracle supports words of length <= 6")
    if sites is None:
        sites = _sites_by_angle(word)
    lat = ClockShiftLattice(model, max(len(word.factors), 1))

    d = lat.dimension
    lhs, rhs = np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)
    lat.word_matrix(word, sites, out=lhs)
    exch_res = 0.0
    checks = 0
    for i in range(len(word.factors) - 1):
        swapped = exchange(word, i, model)
        new_sites = list(sites)
        new_sites[i], new_sites[i + 1] = new_sites[i + 1], new_sites[i]
        lat.word_matrix(swapped, new_sites, out=rhs)
        exch_res = max(exch_res, _max_distance(lhs, rhs))
        checks += 1

    adj_res = 0.0
    # max |S(adjoint(sym)) - S(sym)^dagger| = max |conj(S(adjoint(sym)))^T - S(sym)|
    for sym, site in zip(word.factors, sites):
        lat.symbol_matrix(adjoint(sym), site, out=lhs)
        lat.symbol_matrix(sym, site, out=rhs)
        adj_res = max(adj_res, _max_distance(np.conjugate(lhs, out=lhs).T, rhs))
        checks += 1

    return LatticeReport(lat.dimension, exch_res, adj_res, checks)
