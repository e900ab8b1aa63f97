"""Finite-dimensional oracle for the symbolic field algebra.

For a Z_N model, builds N x N clock/shift matrices U, V with U V = omega V U
and represents a charge-c symbol at site j of an L-site chain as the string
operator (U_1 ... U_{j-1} V_j)^c.  Site order follows the angular order of
the localisations, so pairwise windings lie in {-1, 0} and the matrix
algebra reproduces every exchange and adjoint identity of the symbolic layer
to machine precision.  Each side of an identity is the Kronecker product of
L site products of N x N factors (d = N^L <= 1024).  U and V are monomial
(one nonzero per row and column), so a site product is a row index and a
value per column; one identity family (the word and its L-1 exchanged words,
or the adjoints beside their symbols) is one (W, L, N, N) stack with one
batched product per factor position.  By the mixed-product rule two sides'
rows agree at a column iff every site's rows agree, so rows stay (L, N) and
an adjoint's dagger is taken per site; only the values are expanded to d,
one side at a time, so at most two O(d) sides are alive.  The word's
adjacent pairs are decided in one stack before any side is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldWord, FieldSymbol, _exchange, _exchange_refusals, adjoint, angular_order
from .sectors import AnyonModel
from .tolerances import LATTICE_TOL

# Z_4 with 5 sites; one more site would make the dense public builders
# (site_operator, symbol_matrix, word_matrix) return 268 MB matrices
MAX_DIMENSION = 1024

# a Kronecker product of monomial site products: (L, N) site rows, d values
Side = tuple[np.ndarray, np.ndarray]


class OracleError(ValueError):
    """The lattice oracle cannot represent the requested configuration."""


def _monomials(prods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index and value per column, each (..., N), of a stack of N x N
    site products, all checked monomial at once."""
    nonzero = prods != 0
    if not ((nonzero.sum(axis=-2) == 1).all() and (nonzero.sum(axis=-1) == 1).all()):
        raise OracleError("site product is not monomial: it needs exactly one "
                          "nonzero in each row and column")
    rows = nonzero.argmax(axis=-2)
    return rows, np.take_along_axis(prods, rows[..., None, :], axis=-2)[..., 0, :]


def _expand(ufunc, start, per_site: np.ndarray) -> np.ndarray:
    """The d entries of the Kronecker expansion of (L, N) site entries,
    combined by ufunc left to right from start; site values multiplied from
    1 are bitwise the entries np.kron gives."""
    out = np.array([start])
    for entries in per_site:
        out = ufunc.outer(out, entries).ravel()
    return out


def _side(rows: np.ndarray, vals: np.ndarray, coeff: complex = 1.0) -> Side:
    return rows, _expand(np.multiply, 1 + 0j, vals) * coeff


def _distance(a: Side, b: Side) -> float:
    """Max-norm distance |a - b|.  The rows agree at a column iff they agree
    at every site; there a - b is the difference of the values, elsewhere
    its nonzeros are the two values in their own rows."""
    (ra, va), (rb, vb) = a, b
    gap = np.abs(va - vb)
    same = ra == rb
    if not same.all():
        gap = np.where(_expand(np.logical_and, True, same), gap,
                       np.maximum(np.abs(va), np.abs(vb)))
    return float(gap.max())


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
        clock = np.diag(np.exp(2j * np.pi / n) ** np.arange(n))
        self._u = np.linalg.matrix_power(clock, int(turns * n))
        self._v = np.eye(n, k=-1, dtype=complex) + np.eye(n, k=n - 1, dtype=complex)
        self._eye = np.eye(n, dtype=complex)
        # charge -> (U^c, V^c), each power taken once
        self._powers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def dimension(self) -> int:
        return self.model.group_order ** self.n_sites

    def _factors(self, site: int, charge: int) -> list[np.ndarray]:
        """Site factors of (U_1 ... U_{site-1} V_site)^charge: U^c before the
        site, V^c on it and the identity after it; U^dagger and V^dagger for
        a negative charge."""
        if not 0 <= site < self.n_sites:
            raise IndexError(f"site {site} is not on the {self.n_sites}-site chain")
        if charge not in self._powers:
            u, v = (self._u, self._v) if charge >= 0 else (self._u.conj().T, self._v.conj().T)
            self._powers[charge] = tuple(np.linalg.matrix_power(m, abs(charge)) for m in (u, v))
        u, v = self._powers[charge]
        return [u] * site + [v] + [self._eye] * (self.n_sites - site - 1)

    def _site_products(self, words: list[list[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray]:
        """Rows and values, each (W, L, N), of the L site products of W words
        of one length, each word a list of (charge, site) from left to right.
        Factor position k multiplies all W x L site products by their k-th
        factors in one batched product."""
        n = self.model.group_order
        prods = np.broadcast_to(self._eye, (len(words), self.n_sites, n, n))
        for column in zip(*words, strict=True):
            prods = prods @ np.array([self._factors(site, charge) for charge, site in column])
        return _monomials(prods)

    def _matrix(self, factors: list[tuple[int, int]], coeff: complex = 1.0) -> np.ndarray:
        """One word's side scattered into a d x d matrix of zeros."""
        rows, vals = self._site_products([factors])
        rows, vals = _side(rows[0], vals[0], coeff)
        weights = self.model.group_order ** np.arange(self.n_sites - 1, -1, -1)
        out = np.zeros((len(vals), len(vals)), dtype=complex)
        out[_expand(np.add, 0, rows * weights[:, None]), np.arange(len(vals))] = vals
        return out

    def site_operator(self, j: int) -> np.ndarray:
        return self._matrix([(1, j)])

    def symbol_matrix(self, sym: FieldSymbol, site: int) -> np.ndarray:
        return self._matrix([(_charge(sym), site)])

    def word_matrix(self, word: FieldWord, sites: list[int]) -> np.ndarray:
        return self._matrix([(_charge(sym), s) for sym, s in zip(word.factors, sites)],
                            word.coeff.to_complex())


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


def _exchange_residual(lat: ClockShiftLattice, model: AnyonModel, word: FieldWord,
                       sites: list[int]) -> float:
    """max |S(word) - S(exchange(word, i))| over i, the exchanged word on the
    sites swapped at i; the word and its L-1 exchanged words are one stack."""
    stack = [[(_charge(sym), s) for sym, s in zip(word.factors, sites)]]
    coeffs = [word.coeff.to_complex()]
    for i, refusal in enumerate(_exchange_refusals(word.factors)):
        if refusal is not None:
            raise refusal
        swapped = _exchange(word, i, model)
        swapped_sites = [*sites[:i], sites[i + 1], sites[i], *sites[i + 2:]]
        stack.append([(_charge(sym), s) for sym, s in zip(swapped.factors, swapped_sites)])
        coeffs.append(swapped.coeff.to_complex())
    rows, vals = lat._site_products(stack)
    unswapped = _side(rows[0], vals[0], coeffs[0])
    return max((_distance(unswapped, _side(rows[k], vals[k], coeffs[k]))
                for k in range(1, len(stack))), default=0.0)


def _adjoint_residual(lat: ClockShiftLattice, word: FieldWord, sites: list[int]) -> float:
    """max |S(adjoint(sym)) - S(sym)^dagger| = max |S(adjoint(sym))^dagger - S(sym)|
    over the factors; each adjoint sits beside its symbol in one stack of 2L.
    The dagger is taken per site, as the inverse row map with conjugated
    values; the Kronecker product of the site daggers is exactly the dagger."""
    rows, vals = lat._site_products([[(_charge(s), site)]
                                     for sym, site in zip(word.factors, sites)
                                     for s in (adjoint(sym), sym)])
    dag_rows = np.argsort(rows[0::2], axis=-1)
    dag_vals = np.take_along_axis(vals[0::2], dag_rows, axis=-1).conj()
    return max((_distance(_side(*dagger), _side(*sym)) for dagger, sym
                in zip(zip(dag_rows, dag_vals), zip(rows[1::2], vals[1::2]))), default=0.0)


def lattice_oracle(model: AnyonModel, word: FieldWord,
                   sites: list[int] | None = None) -> LatticeReport:
    """Verify the symbolic exchange and adjoint identities as matrix
    identities for the given word.

    Sites default to the angular order of the factor localisations;
    pairwise windings must then lie in {-1, 0}.  Residuals are max-norm
    distances between the matrix sides.
    """
    length = len(word.factors)
    if length > 6:
        raise OracleError("lattice oracle supports words of length <= 6")
    if sites is None:
        sites = _sites_by_angle(word)
    lat = ClockShiftLattice(model, max(length, 1))
    return LatticeReport(lat.dimension, _exchange_residual(lat, model, word, sites),
                         _adjoint_residual(lat, word, sites), max(length - 1, 0) + length)
