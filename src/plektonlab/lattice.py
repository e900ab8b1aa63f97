"""Finite-dimensional oracle for the symbolic field algebra.

For a Z_N model, the clock U and shift V (U V = omega V U) make a charge-c
symbol at site j of an L-site chain the string operator (U_1 ... U_{j-1} V_j)^c.
Site order follows the angular order of the localisations, so pairwise
windings lie in {-1, 0} and the string operators reproduce every exchange and
adjoint identity of the symbolic layer.  Each side of an identity is the
Kronecker product of L site products (d = N^L <= 1024).  U and V are monomial
with N-th roots of unity as values, so a site product is exactly a row and a
power of zeta = exp(2 pi i / N) per column, both ints, computed in closed form
for a whole identity family at once (the word and its L-1 exchanged words, or
the adjoints beside their symbols).  By the mixed-product rule two sides' rows
agree at a column iff every site's rows agree, so rows are compared and
daggers taken per site; only the exponent gaps are expanded to d, on ints, so
a correct identity reads a residual of exactly 0.  The word's adjacent pairs
are decided in one stack before any side is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldWord, FieldSymbol, _exchange, _exchange_refusals, adjoint, angular_order
from .sectors import AnyonModel, CyclotomicPhase
from .tolerances import LATTICE_TOL

# Z_4 with 5 sites; one more site would make the dense public builders
# (site_operator, symbol_matrix, word_matrix) return 268 MB matrices
MAX_DIMENSION = 1024

# a Kronecker product of monomial site products: (L, N) rows, (L, N) exponents of zeta
Side = tuple[np.ndarray, np.ndarray]


class OracleError(ValueError):
    """The lattice oracle cannot represent the requested configuration."""


def _expand(ufunc, start, per_site: np.ndarray) -> np.ndarray:
    """The d entries of the Kronecker expansion of (L, N) site entries,
    combined by ufunc left to right from start."""
    out = np.array([start])
    for entries in per_site:
        out = ufunc.outer(out, entries).ravel()
    return out


def _distance(a: Side, b: Side, n: int, ratio: CyclotomicPhase = CyclotomicPhase.one()) -> float:
    """Max-norm distance |A - r B| of two Kronecker sides of N-th roots of
    unity, r = ratio a root of unity.  Where the rows agree it is
    2 |sin(pi delta / k)|, delta the exponent gap in units of 1/k turn,
    k = lcm(N, denominator of r); elsewhere the two unit entries sit in
    different rows and it is 1."""
    (ra, ea), (rb, eb) = a, b
    k = math.lcm(n, ratio.denominator)
    # delta is a sum of L + 1 terms in [0, k), so int64 holds it
    if k > np.iinfo(np.int64).max // (len(ra) + 1):
        raise OracleError(f"coefficient ratio {ratio.turns} turns is too fine for int64")
    delta = _expand(np.add, ratio.numerator * (k // ratio.denominator),
                    (eb - ea) % n * (k // n)) % k
    gap = 2.0 * np.abs(np.sin(np.pi * delta / k))
    same = ra == rb
    if not same.all():
        gap = np.where(_expand(np.logical_and, True, same), gap, 1.0)
    return float(gap.max())


def _charge(sym: FieldSymbol) -> int:
    if not sym.obs.is_identity():
        raise OracleError("lattice oracle models trivial observable labels only")
    return sym.charge


def _charged(word: FieldWord, sites: list[int]) -> list[tuple[int, int]]:
    """(charge, site) of each factor of the word, from left to right."""
    if len(sites) != len(word.factors):
        raise OracleError(f"{len(sites)} sites given for a word of {len(word.factors)} factors")
    return [(_charge(sym), s) for sym, s in zip(word.factors, sites)]


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
        self._clock = int(turns * n)

    @property
    def dimension(self) -> int:
        return self.model.group_order ** self.n_sites

    def _site_products(self, words: list[list[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray]:
        """Rows and exponents of zeta, each (W, L, N) ints, of the L site
        products of W words of one length, each word a list of (charge,
        site) from left to right.  The factors of (U_1 ... U_{j-1} V_j)^c
        are U^c before site j, V^c on it and the identity after it, and
        they act on a column from the right: U^c multiplies basis state r
        by zeta^(a c r), V^c moves it to r + c.  Every public builder and
        the oracle pass through here, so a site off the chain is refused
        here."""
        n = self.model.group_order
        chain = np.arange(self.n_sites)[:, None]
        rows = np.broadcast_to(np.arange(n), (len(words), self.n_sites, n))
        exps = np.zeros_like(rows)
        for column in reversed(list(zip(*words, strict=True))):
            # U^N = V^N = 1, so charges mod N keep the products in int64
            charge, site = np.array([(c % n, s) for c, s in column]).T[..., None, None]
            if site.min() < 0 or site.max() >= self.n_sites:
                off = site[(site < 0) | (site >= self.n_sites)][0]
                raise OracleError(f"site {off} is off the {self.n_sites}-site chain "
                                  f"(sites 0 to {self.n_sites - 1})")
            exps = (exps + self._clock * charge * rows * (chain < site)) % n
            rows = (rows + charge * (chain == site)) % n
        return rows, exps

    def _matrix(self, factors: list[tuple[int, int]], coeff: complex = 1.0) -> np.ndarray:
        """One word's side scattered into a d x d matrix of zeros."""
        n, d = self.model.group_order, self.dimension
        rows, exps = self._site_products([factors])
        weights = n ** np.arange(self.n_sites - 1, -1, -1)
        out = np.zeros((d, d), dtype=complex)
        out[_expand(np.add, 0, rows[0] * weights[:, None]), np.arange(d)] = (
            coeff * np.exp(2j * np.pi / n * (_expand(np.add, 0, exps[0]) % n)))
        return out

    def site_operator(self, j: int) -> np.ndarray:
        return self._matrix([(1, j)])

    def symbol_matrix(self, sym: FieldSymbol, site: int) -> np.ndarray:
        return self._matrix([(_charge(sym), site)])

    def word_matrix(self, word: FieldWord, sites: list[int]) -> np.ndarray:
        return self._matrix(_charged(word, sites), word.coeff.to_complex())


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
    sites swapped at i; the word and its L-1 exchanged words are one stack,
    compared through the ratio of their coefficients."""
    stack = [_charged(word, sites)]
    ratios = []
    for i, refusal in enumerate(_exchange_refusals(word.factors)):
        if refusal is not None:
            raise refusal
        swapped = _exchange(word, i, model)
        stack.append(_charged(swapped, [*sites[:i], sites[i + 1], sites[i], *sites[i + 2:]]))
        ratios.append(swapped.coeff / word.coeff)
    rows, exps = lat._site_products(stack)
    return max((_distance((rows[0], exps[0]), (rows[k], exps[k]), model.group_order, ratio)
                for k, ratio in enumerate(ratios, 1)), default=0.0)


def _adjoint_residual(lat: ClockShiftLattice, word: FieldWord, sites: list[int]) -> float:
    """max |S(adjoint(sym)) - S(sym)^dagger| = max |S(adjoint(sym))^dagger - S(sym)|
    over the factors; each adjoint sits beside its symbol in one stack of 2L.
    The dagger is taken per site, as the inverse row map with negated
    exponents; the Kronecker product of the site daggers is the dagger."""
    rows, exps = lat._site_products([[(_charge(s), site)]
                                     for sym, site in zip(word.factors, sites)
                                     for s in (adjoint(sym), sym)])
    dag_rows = np.argsort(rows[0::2], axis=-1)
    dag_exps = -np.take_along_axis(exps[0::2], dag_rows, axis=-1)
    return max((_distance(dagger, sym, lat.model.group_order) for dagger, sym
                in zip(zip(dag_rows, dag_exps), zip(rows[1::2], exps[1::2]))), default=0.0)


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
