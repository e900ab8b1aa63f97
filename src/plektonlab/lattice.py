"""Finite-dimensional oracle for the symbolic field algebra.

For a Z_N model, builds N x N clock/shift matrices U, V with U V = omega V U
and represents a charge-c symbol at site j of an L-site chain as the string
operator (U_1 ... U_{j-1} V_j)^c.  Site order follows the angular order of
the localisations, so pairwise windings lie in {-1, 0} and the matrix
algebra reproduces every exchange and adjoint identity of the symbolic
layer to machine precision.  Products are taken site by site in N x N
factors, and each side of an identity is one Kronecker product of the site
products.  U and V are monomial (one nonzero per row and column), so that
product is held as a row index and a value per column, d = N^L of each
(N^L <= 1024), and the sides are compared in O(d) time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldWord, FieldSymbol, adjoint, angular_order, exchange
from .sectors import AnyonModel
from .tolerances import LATTICE_TOL

# Z_4 with 5 sites; one more site would make the dense public builders
# (site_operator, symbol_matrix, word_matrix) return 268 MB matrices
MAX_DIMENSION = 1024

# a matrix with one nonzero in each row and column, as (row index per column,
# value per column)
Monomial = tuple[np.ndarray, np.ndarray]


class OracleError(ValueError):
    """The lattice oracle cannot represent the requested configuration."""


def _clock_shift(n: int) -> tuple[np.ndarray, np.ndarray]:
    zeta = np.exp(2j * np.pi / n)
    clock = np.diag(zeta ** np.arange(n))
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    return clock, shift


def _monomial(factors: list[np.ndarray]) -> Monomial:
    """reduce(np.kron, factors) in monomial form; values are multiplied left to
    right from 1, as np.kron does, so each is bitwise the entry it gives."""
    rows, vals = np.zeros(1, dtype=np.intp), np.ones(1, dtype=complex)
    for f in factors:
        nonzero = f != 0
        if not ((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()):
            raise OracleError("site product is not monomial: it needs exactly one "
                              "nonzero in each row and column")
        r = nonzero.argmax(axis=0)
        rows = (rows[:, None] * len(f) + r).ravel()
        vals = (vals[:, None] * f[r, np.arange(len(f))]).ravel()
    return rows, vals


def _dense(mono: Monomial) -> np.ndarray:
    """The monomial matrix scattered into zeros."""
    rows, vals = mono
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    out[rows, np.arange(len(rows))] = vals
    return out


def _distance(a: Monomial, b: Monomial) -> float:
    """Max-norm distance |a - b|; a - b is 0 outside the nonzeros of a and b."""
    (ra, va), (rb, vb) = a, b
    apart = np.maximum(np.abs(va), np.abs(vb))
    return float(np.where(ra == rb, np.abs(va - vb), apart).max())


def _dagger(mono: Monomial) -> Monomial:
    """The conjugate transpose: the inverse row map with conjugated values."""
    rows, vals = mono
    inverse = np.argsort(rows)
    return inverse, vals[inverse].conj()


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

    def _symbol(self, sym: FieldSymbol, site: int) -> Monomial:
        return _monomial(self._factors(site, _charge(sym)))

    def _word(self, word: FieldWord, sites: list[int]) -> Monomial:
        per_site = [np.eye(self.model.group_order, dtype=complex)] * self.n_sites
        for sym, site in zip(word.factors, sites):
            per_site = [p @ f for p, f in zip(per_site, self._factors(site, _charge(sym)))]
        rows, vals = _monomial(per_site)
        return rows, vals * word.coeff.to_complex()

    def site_operator(self, j: int) -> np.ndarray:
        return _dense(_monomial(self._factors(j, 1)))

    def symbol_matrix(self, sym: FieldSymbol, site: int) -> np.ndarray:
        return _dense(self._symbol(sym, site))

    def word_matrix(self, word: FieldWord, sites: list[int]) -> np.ndarray:
        return _dense(self._word(word, sites))


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

    unswapped = lat._word(word, sites)
    exch_res = 0.0
    checks = 0
    for i in range(len(word.factors) - 1):
        swapped = exchange(word, i, model)
        new_sites = list(sites)
        new_sites[i], new_sites[i + 1] = new_sites[i + 1], new_sites[i]
        exch_res = max(exch_res, _distance(unswapped, lat._word(swapped, new_sites)))
        checks += 1

    adj_res = 0.0
    # max |S(adjoint(sym)) - S(sym)^dagger| = max |S(adjoint(sym))^dagger - S(sym)|
    for sym, site in zip(word.factors, sites):
        adj_res = max(adj_res, _distance(_dagger(lat._symbol(adjoint(sym), site)),
                                         lat._symbol(sym, site)))
        checks += 1

    return LatticeReport(lat.dimension, exch_res, adj_res, checks)
