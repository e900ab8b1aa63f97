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

The oracle builds the site products of one identity family as a single
(W, L, N, N) stack: the word with its L-1 exchanged words, or the L adjoints
beside their symbols.  Each factor position is one batched matrix product
over the stack, and one check finds the whole stack monomial.  The Kronecker
expansion then runs one side at a time, so at most two O(d) sides are alive.
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


def _monomials(prods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index and value per column, each (..., N), of a stack of N x N
    site products, all checked monomial at once."""
    nonzero = prods != 0
    if not ((nonzero.sum(axis=-2) == 1).all() and (nonzero.sum(axis=-1) == 1).all()):
        raise OracleError("site product is not monomial: it needs exactly one "
                          "nonzero in each row and column")
    rows = nonzero.argmax(axis=-2)
    return rows, np.take_along_axis(prods, rows[..., None, :], axis=-2)[..., 0, :]


def _kron(rows: np.ndarray, vals: np.ndarray) -> Monomial:
    """reduce(np.kron, site products) in monomial form, from one word's (L, N)
    rows and values; values are multiplied left to right from 1, as np.kron
    does, so each is bitwise the entry it gives."""
    out_rows, out_vals = np.zeros(1, dtype=np.intp), np.ones(1, dtype=complex)
    for r, v in zip(rows, vals):
        out_rows = np.add.outer(out_rows * len(r), r).ravel()
        out_vals = np.multiply.outer(out_vals, v).ravel()
    return out_rows, out_vals


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

    def _side(self, factors: list[tuple[int, int]]) -> Monomial:
        rows, vals = self._site_products([factors])
        return _kron(rows[0], vals[0])

    def site_operator(self, j: int) -> np.ndarray:
        return _dense(self._side([(1, j)]))

    def symbol_matrix(self, sym: FieldSymbol, site: int) -> np.ndarray:
        return _dense(self._side([(_charge(sym), site)]))

    def word_matrix(self, word: FieldWord, sites: list[int]) -> np.ndarray:
        rows, vals = self._side([(_charge(sym), s) for sym, s in zip(word.factors, sites)])
        return _dense((rows, vals * word.coeff.to_complex()))


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
    for i in range(len(word.factors) - 1):
        swapped = exchange(word, i, model)
        swapped_sites = list(sites)
        swapped_sites[i], swapped_sites[i + 1] = swapped_sites[i + 1], swapped_sites[i]
        stack.append([(_charge(sym), s) for sym, s in zip(swapped.factors, swapped_sites)])
        coeffs.append(swapped.coeff.to_complex())
    rows, vals = lat._site_products(stack)

    def side(k: int) -> Monomial:
        # one Kronecker expansion at a time, so at most two O(N^L) sides live
        r, v = _kron(rows[k], vals[k])
        v *= coeffs[k]
        return r, v

    unswapped = side(0)
    return max((_distance(unswapped, side(k)) for k in range(1, len(stack))), default=0.0)


def _adjoint_residual(lat: ClockShiftLattice, word: FieldWord, sites: list[int]) -> float:
    """max |S(adjoint(sym)) - S(sym)^dagger| = max |S(adjoint(sym))^dagger - S(sym)|
    over the factors; each adjoint sits beside its symbol in one stack of 2L."""
    rows, vals = lat._site_products([[(_charge(s), site)]
                                     for sym, site in zip(word.factors, sites)
                                     for s in (adjoint(sym), sym)])
    return max((_distance(_dagger(_kron(rows[k], vals[k])), _kron(rows[k + 1], vals[k + 1]))
                for k in range(0, len(rows), 2)), default=0.0)


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
