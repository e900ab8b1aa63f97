"""Symbolic algebra of charged field symbols with exact phase coefficients.

Words of field symbols f(c, A) multiply by concatenation; adjacent factors
fuse to f(c1+c2, g^c2(A1) A2); exchanging causally separated factors picks up
the exact coefficient omega^(c1 c2 (2n+1)) where n is the relative winding
number of their localisations.  Twist and CPT conjugations act through
charge-graded operators whose phase exponent is a quadratic polynomial in
the background charge q, evaluated exactly.

Observable labels are formal words of atoms; the charge automorphism g^k,
the star and the reflection marker push through canonically and never merge
adjacent atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .cones import (
    ConePath,
    ReferenceFrame,
    DEFAULT_FRAME,
    _winding,
    causally_separated,
    path_within_wedge,
    reflect_path,
    relative_winding,
    standard_wedge_path,
)
from .sectors import (ONE, AnyonModel, CyclotomicPhase, _integer, _load_json, _mod1,
                      _phase_from_doc, r_phase, sector_phase)


# ---------------------------------------------------------------------------
# observable words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableAtom:
    """gamma^twist applied to (reflection-marked, possibly starred) symbol."""

    name: str
    star: bool = False
    reflected: bool = False
    twist: int = 0

    def starred(self) -> "ObservableAtom":
        # star commutes with gamma^k and with the reflection marker
        return replace(self, star=not self.star)

    def gamma(self, k: int) -> "ObservableAtom":
        return replace(self, twist=self.twist + k)

    def reflect(self) -> "ObservableAtom":
        # the reflection marker intertwines the charge automorphism:
        # aj . g^k = g^(-k) . aj
        return replace(self, reflected=not self.reflected, twist=-self.twist)

    def __str__(self) -> str:
        s = self.name + ("*" if self.star else "")
        if self.reflected:
            s = f"aj({s})"
        if self.twist:
            s = f"g^{self.twist}({s})"
        return s


@dataclass(frozen=True)
class ObservableWord:
    atoms: tuple[ObservableAtom, ...] = ()

    @staticmethod
    def symbol(name: str, star: bool = False) -> "ObservableWord":
        return ObservableWord((ObservableAtom(name, star=star),))

    @staticmethod
    def identity() -> "ObservableWord":
        return ObservableWord(())

    def __mul__(self, other: "ObservableWord") -> "ObservableWord":
        return ObservableWord(self.atoms + other.atoms)

    def gamma(self, k: int) -> "ObservableWord":
        if k == 0:
            return self
        return ObservableWord(tuple(a.gamma(k) for a in self.atoms))

    def star(self) -> "ObservableWord":
        return ObservableWord(tuple(a.starred() for a in reversed(self.atoms)))

    def reflect(self) -> "ObservableWord":
        return ObservableWord(tuple(a.reflect() for a in self.atoms))

    def is_identity(self) -> bool:
        return not self.atoms

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.atoms) if self.atoms else "1"


# ---------------------------------------------------------------------------
# field symbols and words
# ---------------------------------------------------------------------------

class _Delocalized:
    """Localisation marker for fused symbols with mismatched paths."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DELOCALIZED"


DELOCALIZED = _Delocalized()


@dataclass(frozen=True)
class FieldSymbol:
    """A charged field symbol f(charge, obs) localised along a path class."""

    charge: int
    obs: ObservableWord
    loc: object  # ConePath or DELOCALIZED

    def is_localized(self) -> bool:
        return isinstance(self.loc, ConePath)

    def __str__(self) -> str:
        return f"f({self.charge}, {self.obs})"


@dataclass(frozen=True)
class FieldWord:
    """coeff times a product of field symbols; leftmost factor acts last."""

    coeff: CyclotomicPhase
    factors: tuple[FieldSymbol, ...]

    @staticmethod
    def of(*factors: FieldSymbol, coeff: CyclotomicPhase = ONE) -> "FieldWord":
        return FieldWord(coeff, tuple(factors))

    @property
    def total_charge(self) -> int:
        return sum(f.charge for f in self.factors)

    def __str__(self) -> str:
        body = " ".join(str(f) for f in self.factors) if self.factors else "1"
        return f"({self.coeff}) {body}"


def multiply(w1: FieldWord, w2: FieldWord) -> FieldWord:
    return FieldWord(w1.coeff * w2.coeff, w1.factors + w2.factors)


def fuse_adjacent(w: FieldWord, i: int = 0) -> FieldWord:
    """Merge factors i and i+1 into f(c1+c2, g^c2(A1) A2).

    The fused symbol keeps the common path only when both localisations
    coincide; otherwise it is marked delocalized and exchange refuses to
    move it.
    """
    left, right = w.factors[i], w.factors[i + 1]
    obs = left.obs.gamma(right.charge) * right.obs
    if (
        left.is_localized()
        and right.is_localized()
        and left.loc.same_path(right.loc)
    ):
        loc = left.loc
    else:
        loc = DELOCALIZED
    fused = FieldSymbol(left.charge + right.charge, obs, loc)
    return FieldWord(w.coeff, w.factors[:i] + (fused,) + w.factors[i + 2:])


def adjoint(sym: FieldSymbol) -> FieldSymbol:
    """f(c, A)* = f(-c, g^(-c)(A*)); localisation preserved."""
    return FieldSymbol(-sym.charge, sym.obs.star().gamma(-sym.charge), sym.loc)


def exchange(w: FieldWord, i: int, model: AnyonModel) -> FieldWord:
    """Swap factors i (left, acting last) and i+1, multiplying the
    coefficient with omega^(c1 c2 (2n+1)), n the relative winding of the
    left factor's path with respect to the right one's."""
    left, right = w.factors[i], w.factors[i + 1]
    if not (left.is_localized() and right.is_localized()):
        raise ValueError("cannot exchange a delocalized symbol")
    if not causally_separated(left.loc, right.loc):
        raise ValueError("exchange requires causally separated localisations")
    return _exchange(w, i, model)


def _exchange(w: FieldWord, i: int, model: AnyonModel) -> FieldWord:
    """`exchange` for localised factors whose separation is already decided."""
    left, right = w.factors[i], w.factors[i + 1]
    phase = r_phase(model, right.charge, left.charge, _winding(left.loc, right.loc))
    return FieldWord(w.coeff * phase, w.factors[:i] + (right, left) + w.factors[i + 2:])


def normal_form(w: FieldWord, order: tuple[int, ...], model: AnyonModel) -> FieldWord:
    """Reorder the factors to ``order`` (a permutation of indices into the
    current word) by adjacent exchanges; the coefficient accumulates the
    exchange phases and is independent of the transposition route."""
    if sorted(order) != list(range(len(w.factors))):
        raise ValueError("order must be a permutation of the factor indices")
    # bubble the factors into place, tracking original indices
    current = list(range(len(w.factors)))
    target = list(order)
    out = w
    for pos in range(len(target)):
        src = current.index(target[pos])
        for k in range(src, pos, -1):
            out = exchange(out, k - 1, model)
            current[k - 1], current[k] = current[k], current[k - 1]
    return out


def angular_order(w: FieldWord) -> tuple[int, ...]:
    """Factor indices sorted by increasing arc midpoint of the localisation."""
    def mid(f: FieldSymbol) -> float:
        if not f.is_localized():
            raise ValueError("delocalized symbol has no angular position")
        return 0.5 * (f.loc.arc.alpha_minus + f.loc.arc.alpha_plus)

    return tuple(sorted(range(len(w.factors)), key=lambda i: mid(w.factors[i])))


# ---------------------------------------------------------------------------
# graded operators
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _canonical_poly(a: Fraction, b: Fraction, d: Fraction):
    """Canonical representative of the phase polynomial a q^2 + b q + d
    (in turns) modulo exponents that are integral at every integer q.

    The ambiguity lattice is generated by (1,0,0), (0,1,0), (0,0,1) and the
    half-integer pair (1/2, 1/2, 0), since q(q+1) is always even.
    """
    a, b, d = _mod1(a), _mod1(b), _mod1(d)
    if a >= _HALF:
        a -= _HALF
        b = _mod1(b - _HALF)
    return a, b, d


@dataclass(frozen=True)
class GradedOperator:
    """Charge shift with an exact phase polynomial over the grading.

    Acting on background charge q: multiplies by exp(2 pi i (a q^2 + b q + d))
    and raises the grade to q + shift, with the observable label ``obs``
    acting in the background representation.
    """

    shift: int
    a: Fraction
    b: Fraction
    d: Fraction
    obs: ObservableWord

    def __post_init__(self) -> None:
        a, b, d = _canonical_poly(self.a, self.b, self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def phase_at(self, q: int) -> CyclotomicPhase:
        return CyclotomicPhase(self.a * q * q + self.b * q + self.d)

    def is_phase_trivial(self) -> bool:
        return self.a == 0 and self.b == 0 and self.d == 0

    def __str__(self) -> str:
        return (
            f"GradedOperator(shift={self.shift}, "
            f"turns(q)={self.a} q^2 + {self.b} q + {self.d}, obs={self.obs})"
        )


def graded_form(sym: FieldSymbol) -> GradedOperator:
    """f(c, A) as a graded operator: shift by c with trivial phase."""
    zero = Fraction(0)
    return GradedOperator(sym.charge, zero, zero, zero, sym.obs)


def graded_compose(g1: GradedOperator, g2: GradedOperator) -> GradedOperator:
    """Operator product g1 g2 (g2 acts first): shifts add, exponents compose
    with the substitution q -> q + shift2."""
    c2 = g2.shift
    a = g1.a + g2.a
    b = 2 * g1.a * c2 + g1.b + g2.b
    d = g1.a * c2 * c2 + g1.b * c2 + g1.d + g2.d
    obs = g1.obs.gamma(c2) * g2.obs
    return GradedOperator(g1.shift + c2, a, b, d, obs)


def gauge_operator(t: Fraction) -> GradedOperator:
    """V(t): multiplies grade q by exp(2 pi i q t)."""
    zero = Fraction(0)
    return GradedOperator(0, zero, Fraction(t), zero, ObservableWord.identity())


def twist_conjugate(sym: FieldSymbol, pair: tuple[ConePath, ConePath],
                    model: AnyonModel) -> GradedOperator:
    """Z f Z* for the twist built on the path pair (C2, C1).

    At input grade q the phase is (omega^(1/2))^((2 q c + c^2)(2n+1)) with
    c the symbol's charge and n the relative winding of the pair.
    """
    c2path, c1path = pair
    if not causally_separated(c2path, c1path):
        raise ValueError("twist requires causally separated paths")
    n = _winding(c2path, c1path)
    h = model.omega_sqrt.turns
    c = sym.charge
    k = 2 * n + 1
    return GradedOperator(c, Fraction(0), h * 2 * c * k, h * c * c * k, sym.obs)


def twisted_commutator_defect(f2: FieldSymbol, f1: FieldSymbol,
                              pair: tuple[ConePath, ConePath],
                              model: AnyonModel):
    """Exponent polynomial of [f2, Z f1 Z*] relative to the exchange identity.

    Zero (as a polynomial in q) exactly when the twist pair's winding matches
    the winding of (loc f2, loc f1); the observable labels of the two
    orderings agree up to that same exchange rewriting.
    """
    w = twist_conjugate(f1, pair, model)
    g2 = graded_form(f2)
    left = graded_compose(g2, w)    # f2 . Z f1 Z*
    right = graded_compose(w, g2)   # Z f1 Z* . f2
    n_loc = relative_winding(f2.loc, f1.loc)
    r = r_phase(model, f1.charge, f2.charge, n_loc)
    return _canonical_poly(
        right.a - left.a, right.b - left.b, right.d - left.d - r.turns
    )


# ---------------------------------------------------------------------------
# state vectors and the pseudo-Tomita map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateVector:
    """coeff * f(charge, obs) applied to the vacuum, with the generating
    field's localisation kept as metadata."""

    charge: int
    obs: ObservableWord
    loc: object
    coeff: CyclotomicPhase = ONE


def vacuum_vector(sym: FieldSymbol, coeff: CyclotomicPhase = ONE) -> StateVector:
    return StateVector(sym.charge, sym.obs, sym.loc, coeff)


def tomita_S(v: StateVector, model: AnyonModel,
             frame: ReferenceFrame = DEFAULT_FRAME) -> StateVector:
    """Anti-linear map (q, A) -> (-q, g^(-q)(A*)) for vectors generated by
    fields localised along the standard wedge path.

    Squares to the identity; on charge zero it is the observable star map.
    """
    if not isinstance(v.loc, ConePath):
        raise ValueError("state vector has no localisation metadata")
    wedge = standard_wedge_path(frame)
    if not path_within_wedge(v.loc, wedge):
        raise ValueError("generating field is not localised along the standard wedge path")
    return StateVector(
        -v.charge,
        v.obs.star().gamma(-v.charge),
        v.loc,
        v.coeff.conjugate(),
    )


# ---------------------------------------------------------------------------
# vacuum overlaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalOverlap:
    """The formal pairing coeff * <bra Omega, ket Omega>."""

    coeff: CyclotomicPhase
    bra: FieldSymbol
    ket: FieldSymbol


def vacuum_swap(pair: tuple[FieldSymbol, FieldSymbol], model: AnyonModel,
                coeff: CyclotomicPhase = ONE) -> FormalOverlap:
    """Rewrite <F2 Omega, F1 Omega> as omega^(c^2) <F1* Omega, F2* Omega>.

    Requires equal charges and relative winding N(loc2, loc1) = -1; applying
    the rewrite to its own output therefore always fails the guard (the
    winding of the swapped pair is 0), which is what confines the symmetric
    use of the identity to omega = +-1.
    """
    f2, f1 = pair
    if f2.charge != f1.charge:
        raise ValueError("vacuum swap requires equal charges")
    if not (f2.is_localized() and f1.is_localized()):
        raise ValueError("vacuum swap requires localised symbols")
    n = relative_winding(f2.loc, f1.loc)
    if n != -1:
        raise ValueError(f"winding guard violated: N(loc2, loc1) = {n}, need -1")
    return FormalOverlap(
        coeff * sector_phase(model, f1.charge), adjoint(f1), adjoint(f2)
    )


# ---------------------------------------------------------------------------
# CPT conjugation
# ---------------------------------------------------------------------------

def _cpt_winding(frame: ReferenceFrame) -> int:
    we = standard_wedge_path(frame)
    jwe = reflect_path(we, frame)
    return _winding(we, jwe)


def cpt_conjugate_graded(g: GradedOperator, model: AnyonModel,
                         frame: ReferenceFrame = DEFAULT_FRAME) -> GradedOperator:
    """Conjugation by the anti-unitary Theta = Z* J.

    J flips the grade anti-linearly and conjugates the charge with unit
    gauge; Z is the twist built on the standard wedge path and its
    reflection.  Applying the map twice is the identity.
    """
    n = _cpt_winding(frame)
    h = model.omega_sqrt.turns
    c = g.shift
    k = 2 * n + 1
    # anti-linear grade flip of the phase polynomial, then the Z* ... Z layer
    a = -g.a
    b = g.b + h * 2 * c * k
    d = -g.d + h * c * c * k * (-1)
    return GradedOperator(-c, a, b, d, g.obs.reflect())


def cpt_conjugate(sym: FieldSymbol, model: AnyonModel,
                  frame: ReferenceFrame = DEFAULT_FRAME):
    """Theta f(c, A) Theta^{-1}: a graded operator of charge -c with the
    reflection-marked observable, together with the reflected localisation."""
    if not sym.is_localized():
        raise ValueError("cannot CPT-conjugate a delocalized symbol")
    op = cpt_conjugate_graded(graded_form(sym), model, frame)
    return op, reflect_path(sym.loc, frame)


# ---------------------------------------------------------------------------
# word files
# ---------------------------------------------------------------------------

def parse_obs_label(label: str) -> ObservableWord:
    label = label.strip()
    if label in ("", "1"):
        return ObservableWord.identity()
    if label.endswith("*"):
        return ObservableWord.symbol(label[:-1], star=True)
    return ObservableWord.symbol(label)


def load_word(filename, scene) -> FieldWord:
    """Word file: {"coeff": {"k","M"}?, "factors": [{"charge", "obs", "path"}]}
    with path ids resolved against a scene."""
    doc = _load_json(filename, ValueError)
    if not isinstance(doc, dict) or not isinstance(doc.get("factors"), list):
        raise ValueError(f"{filename}: word file must contain a 'factors' array")
    coeff = ONE
    if "coeff" in doc:
        coeff = _phase_from_doc(doc["coeff"], f"{filename}: coeff")
    factors = []
    for i, entry in enumerate(doc["factors"]):
        if not (isinstance(entry, dict) and "charge" in entry and "path" in entry):
            raise ValueError(f"{filename}: factors[{i}] needs 'charge' and 'path'")
        charge = _integer(entry["charge"], f"{filename}: factors[{i}].charge")
        path_id = entry["path"]
        if not isinstance(path_id, str):
            raise ValueError(f"{filename}: factors[{i}].path must be a string, got {path_id!r}")
        if path_id not in scene.paths:
            raise ValueError(f"{filename}: factors[{i}] references unknown path {path_id!r}")
        obs = parse_obs_label(str(entry.get("obs", "1")))
        factors.append(FieldSymbol(charge, obs, scene.paths[path_id]))
    return FieldWord(coeff, tuple(factors))
