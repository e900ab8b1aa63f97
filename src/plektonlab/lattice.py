"""Finite-dimensional oracle for the symbolic field algebra.

For a Z_N model, builds clock/shift matrices U, V with U V = omega V U on an
L-site chain and represents a charge-c symbol at site j as the string
operator (U_1 ... U_{j-1} V_j)^c.  Site order follows the angular order of
the localisations, so pairwise windings lie in {-1, 0} and the matrix
algebra reproduces every exchange and adjoint identity of the symbolic
layer to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldWord, FieldSymbol, adjoint, angular_order, exchange
from .sectors import AnyonModel

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


def _site_embed(op: np.ndarray, site: int, n_sites: int, n: int) -> np.ndarray:
    mats = [np.eye(n, dtype=complex)] * n_sites
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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
        a = int(turns * n)
        clock, shift = _clock_shift(n)
        u = np.linalg.matrix_power(clock, a)
        self._site_ops = []
        for j in range(self.n_sites):
            m = _site_embed(shift, j, self.n_sites, n)
            for k in range(j):
                m = _site_embed(u, k, self.n_sites, n) @ m
            self._site_ops.append(m)

    @property
    def dimension(self) -> int:
        return self.model.group_order ** self.n_sites

    def site_operator(self, j: int) -> np.ndarray:
        return self._site_ops[j]

    def symbol_matrix(self, sym: FieldSymbol, site: int) -> np.ndarray:
        if not sym.obs.is_identity():
            raise OracleError("lattice oracle models trivial observable labels only")
        a = self._site_ops[site]
        c = sym.charge
        if c >= 0:
            return np.linalg.matrix_power(a, c)
        return np.linalg.matrix_power(a.conj().T, -c)

    def word_matrix(self, word: FieldWord, sites: list[int]) -> np.ndarray:
        out = word.coeff.to_complex() * np.eye(self.dimension, dtype=complex)
        for sym, site in zip(word.factors, sites):
            out = out @ self.symbol_matrix(sym, site)
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
        return self.exchange_residual < 1e-12 and self.adjoint_residual < 1e-12


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

    exch_res = 0.0
    checks = 0
    for i in range(len(word.factors) - 1):
        swapped = exchange(word, i, model)
        new_sites = list(sites)
        new_sites[i], new_sites[i + 1] = new_sites[i + 1], new_sites[i]
        lhs = lat.word_matrix(word, sites)
        rhs = lat.word_matrix(swapped, new_sites)
        exch_res = max(exch_res, float(np.abs(lhs - rhs).max()))
        checks += 1

    adj_res = 0.0
    for sym, site in zip(word.factors, sites):
        lhs = lat.symbol_matrix(adjoint(sym), site)
        rhs = lat.symbol_matrix(sym, site).conj().T
        adj_res = max(adj_res, float(np.abs(lhs - rhs).max()))
        checks += 1

    return LatticeReport(lat.dimension, exch_res, adj_res, checks)
