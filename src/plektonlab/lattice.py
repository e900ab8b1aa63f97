"""Finite-dimensional oracle for the symbolic field algebra.

For a Z_N model, the clock U and shift V (U V = omega V U) make a charge-c
symbol at site j of an L-site chain the string operator (U_1 ... U_{j-1} V_j)^c.
Site order follows the angular order of the localisations, so pairwise
windings lie in {-1, 0} and the string operators reproduce every exchange and
adjoint identity of the symbolic layer.  Each side of an identity is the
Kronecker product of L site products.  U and V are monomial
with N-th roots of unity as values, so a site product is exactly a row and a
power of zeta = exp(2 pi i / N) per column, both ints, computed in closed form
for every side of a word at once: the word, its L-1 exchanged words and the
adjoints beside their symbols, one stack.  By the mixed-product rule two
sides' rows agree at a column iff every site's rows agree, and the exponent
gap there is one gap per site summed, so the gaps that occur are the sumset,
mod q, of per-site gap sets: rows are compared and daggers taken per site, no
array has d entries, and a correct identity reads a residual of exactly 0.
The word's adjacent pairs are decided in one stack before any side is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fields import FieldWord, FieldSymbol, _exchange, _exchange_refusals, adjoint, angular_order
from .sectors import AnyonModel, CyclotomicPhase
from .tolerances import LATTICE_TOL

# Z_4 with 5 sites; one more site would make the dense public builders
# (site_operator, symbol_matrix, word_matrix) return 268 MB matrices
MAX_DIMENSION = 1024

_INT64_MAX = np.iinfo(np.int64).max

# K Kronecker products of monomial site products: (K, L, N) rows and exponents of zeta
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


def _residuals(a: Side, b: Side, n: int, ratios: list[CyclotomicPhase]) -> list[float]:
    """Max-norm distances |A - r B| of K pairs of Kronecker sides of N-th
    roots of unity, r the pair's ratio, a root of unity.  Where a column's
    rows agree (at every site) it is 2 |sin(pi delta / q)|, delta the
    exponent gap in units of 1/q turn, q = lcm(N, denominator of r), which
    is r's exponent plus one gap per site: the gaps are the sumset, mod q, of
    the sites' gaps over their agreeing columns.  Elsewhere it is 1."""
    (ra, ea), (rb, eb) = a, b
    qs = [math.lcm(n, r.denominator) for r in ratios]
    for q, r in zip(qs, ratios):
        if q > _INT64_MAX // (ra.shape[1] + 1):  # room for a column's L + 1 terms in [0, q)
            raise OracleError(f"coefficient ratio {r.turns} turns is too fine for int64")
    gaps = ((eb - ea) % n * np.reshape([q // n for q in qs], (-1, 1, 1))).tolist()
    agree = (ra == rb).tolist()
    deltas, spans, split = [], [], []
    for q, r, site_gaps, site_agree in zip(qs, ratios, gaps, agree):
        reached = {r.numerator * (q // r.denominator) % q}
        for gap, same in zip(site_gaps, site_agree):
            site = {g for g, s in zip(gap, same) if s}
            reached = {(x + g) % q for x in reached for g in site}
        spans.append(len(reached))
        deltas += reached
        split.append(not all(map(all, site_agree)))
    dist = iter((2.0 * np.abs(np.sin(np.pi * np.array(deltas) / np.repeat(qs, spans)))).tolist())
    # a column whose rows disagree at some site is 1 away; the sumset is
    # empty only when no column agrees at every site, and then that is all
    return [max([1.0] * apart + list(islice(dist, span))) for span, apart in zip(spans, split)]


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
        by zeta^(a c r), V^c moves it to r + c: in closed form, a column's
        row at a site moves by the charges there, and each U^c reads the row
        the factors to its right leave.  Every public builder and the oracle
        pass through here, so a site off the chain and an exponent that
        int64 cannot hold are refused here."""
        n, length = self.model.group_order, len(words[0])
        # U^N = V^N = 1, so charges lie in [0, N).  A column's exponent at a
        # site sums a c (c' + column) over the k factors on later sites, c'
        # the charge that the factors after each put on this site: at most
        # (N-1)^3 k (m + 1) with m factors on the site, and k + m <= F
        if (n - 1) ** 3 * ((length + 1) ** 2 // 4) > _INT64_MAX:
            raise OracleError(f"{length} factors of Z_{n} are too many for int64 exponents")
        factors = np.array([[(c % n, s) for c, s in word] for word in words],
                           dtype=np.int64).reshape(len(words), length, 2)
        charge, site = factors[..., 0, None], factors[..., 1, None]
        off = site[(site < 0) | (site >= self.n_sites)]
        if off.size:
            raise OracleError(f"site {off[0]} is off the {self.n_sites}-site chain "
                              f"(sites 0 to {self.n_sites - 1})")
        chain, column = np.arange(self.n_sites), np.arange(n)
        # (W, factors, L) powers of V and U per factor and site
        shift, clock = charge * (chain == site), charge * (chain < site)
        later = shift.sum(1, keepdims=True) - np.cumsum(shift, 1)
        rows = (shift.sum(1)[..., None] + column) % n
        # the column term apart: (W, L) sums and one (W, L, N) array, no (W, F, L, N)
        exps = self._clock * ((clock * later).sum(1)[..., None]
                              + clock.sum(1)[..., None] * column) % n
        return rows, exps

    def _matrix(self, factors: list[tuple[int, int]], coeff: complex = 1.0) -> np.ndarray:
        """One word's side scattered into a d x d matrix of zeros; refused
        beyond MAX_DIMENSION."""
        n, d = self.model.group_order, self.dimension
        if d > MAX_DIMENSION:
            raise OracleError(f"dimension overflow: {n}^{self.n_sites} > {MAX_DIMENSION}")
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


def lattice_oracle(model: AnyonModel, word: FieldWord,
                   sites: list[int] | None = None) -> LatticeReport:
    """Verify the symbolic exchange and adjoint identities as matrix
    identities for the given word.

    Sites default to the angular order of the factor localisations;
    pairwise windings must then lie in {-1, 0}.  Residuals are max-norm
    distances between the matrix sides, read off one stack of site products
    in one `_residuals` call without expanding a side to its d columns.

    For L factors of Z_N the stack is 3L words, held as (3L, L, N) int rows
    and exponents, so memory and the closed form grow like L^2 N, whatever
    d = N^L.  The sumsets take one set of gaps mod q per site and
    comparison, at most q = lcm(N, denominator of the ratio) gaps each (one
    gap per site for the word's own identities).  The one size refused is
    an exponent beyond int64: (N-1)^3 floor((L+1)^2 / 4) > 2^63 - 1.
    """
    length = len(word.factors)
    if sites is None:
        sites = _sites_by_angle(word)
    lat = ClockShiftLattice(model, max(length, 1))
    # one stack: the word, its L-1 exchanged words on the sites swapped at i,
    # and each factor's adjoint beside it, padded with U^0 = V^0 = I factors
    stack, ratios = [_charged(word, sites)], []
    for i, refusal in enumerate(_exchange_refusals(word.factors)):
        if refusal is not None:
            raise refusal
        swapped = _exchange(word, i, model)
        stack.append(_charged(swapped, [*sites[:i], sites[i + 1], sites[i], *sites[i + 2:]]))
        ratios.append(swapped.coeff / word.coeff)
    stack += [[(_charge(s), site)] + [(0, site)] * (length - 1)
              for sym, site in zip(word.factors, sites) for s in (adjoint(sym), sym)]
    rows, exps = lat._site_products(stack)
    # each exchanged side goes against the word through the ratio of their
    # coefficients, each symbol against its adjoint's dagger: per site, as the
    # inverse row map with negated exponents, the dagger of the Kronecker product
    m, a = len(ratios), [0] * len(ratios) + [*range(length, 3 * length, 2)]
    b = [*range(1, length), *range(length + 1, 3 * length, 2)]
    rows_a, exps_a = rows[a], exps[a]
    rows_a[m:] = np.argsort(rows_a[m:], axis=-1)
    exps_a[m:] = -np.take_along_axis(exps_a[m:], rows_a[m:], axis=-1)
    residuals = _residuals((rows_a, exps_a), (rows[b], exps[b]), model.group_order,
                           ratios + [CyclotomicPhase.one()] * length)
    return LatticeReport(lat.dimension, max(residuals[:m], default=0.0),
                         max(residuals[m:], default=0.0), m + length)
