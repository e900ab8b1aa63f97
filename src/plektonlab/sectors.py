"""Abelian charge models with exact cyclotomic phase arithmetic.

Charges live in Z (or Z_N with lifted-integer bookkeeping); every phase is a
root of unity stored as an exact fraction of a full turn, so products,
inverses and equality are decided without floating point.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction


def _mod1(x) -> Fraction:
    """``Fraction(x) % 1`` with the numerator reduced as an int: n % d over d
    is already in lowest terms, and a Fraction is not wrapped again."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


@dataclass(frozen=True)
class CyclotomicPhase:
    """The root of unity exp(2 pi i k / M), stored in lowest terms."""

    turns: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", _mod1(self.turns))

    @staticmethod
    def from_pair(k: int, m: int) -> "CyclotomicPhase":
        if m <= 0:
            raise ValueError("denominator must be positive")
        return CyclotomicPhase(Fraction(k, m))

    @staticmethod
    def one() -> "CyclotomicPhase":
        return CyclotomicPhase(Fraction(0))

    @property
    def numerator(self) -> int:
        return self.turns.numerator

    @property
    def denominator(self) -> int:
        return self.turns.denominator

    def __mul__(self, other: "CyclotomicPhase") -> "CyclotomicPhase":
        return CyclotomicPhase(self.turns + other.turns)

    def __truediv__(self, other: "CyclotomicPhase") -> "CyclotomicPhase":
        return CyclotomicPhase(self.turns - other.turns)

    def __pow__(self, n) -> "CyclotomicPhase":
        return CyclotomicPhase(self.turns * (n if type(n) is int else Fraction(n)))

    def inverse(self) -> "CyclotomicPhase":
        return CyclotomicPhase(-self.turns)

    def conjugate(self) -> "CyclotomicPhase":
        return self.inverse()

    def is_one(self) -> bool:
        return self.turns == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * math.pi * float(self.turns))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator} of 2pi"

    def __repr__(self) -> str:
        return f"CyclotomicPhase({self.numerator}/{self.denominator})"


ONE = CyclotomicPhase.one()


@dataclass(frozen=True)
class Channel:
    """Fusion channel (source, charge, range) with abelian additivity."""

    source: int
    charge: int
    range: int

    def __post_init__(self) -> None:
        if self.range != self.source + self.charge:
            raise ValueError(
                f"channel range {self.range} != source {self.source} + charge {self.charge}"
            )


@dataclass(frozen=True)
class AnyonModel:
    """Charge group Z or Z_N with statistics phase, spin and a chosen root.

    ``group_order`` is None for Z and the positive N for Z_N.  The square
    root of the statistics phase is explicit model data: both roots are
    admissible and lead to different twist conventions, so it is never
    computed implicitly.
    """

    group_order: int | None
    omega: CyclotomicPhase
    omega_sqrt: CyclotomicPhase
    spin: Fraction
    mass: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "spin", Fraction(self.spin))
        if self.group_order is not None and self.group_order <= 0:
            raise ValueError("group order must be positive")
        if self.omega_sqrt * self.omega_sqrt != self.omega:
            raise ValueError("omega_sqrt squared must equal omega")

    @property
    def is_finite(self) -> bool:
        return self.group_order is not None

    def reduced_charge(self, q: int) -> int:
        """Display projection of a lifted charge; arithmetic stays in Z."""
        return q % self.group_order if self.is_finite else q


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def validate_model(model: AnyonModel) -> ValidationReport:
    """Consistency rules: spin-statistics, and for Z_N the periodicity
    conditions making the sector and twist phases functions of q mod N."""
    failures: list[str] = []
    if CyclotomicPhase(model.spin) != model.omega:
        failures.append("spin-statistics: exp(2 pi i s) != omega")
    if model.is_finite:
        n = model.group_order
        if not (model.omega ** n).is_one():
            failures.append(f"omega^{n} != 1")
        if not (model.omega_sqrt ** (n * n)).is_one():
            failures.append(f"omega_sqrt^({n}^2) != 1")
    return ValidationReport(ok=not failures, failures=tuple(failures))


def sector_phase(model: AnyonModel, q: int) -> CyclotomicPhase:
    """Statistics phase of the charge-q sector: omega^(q^2)."""
    return model.omega ** (q * q)


def conjugate_sector(model: AnyonModel, q: int) -> int:
    """The conjugate charge -q; its statistics phase provably coincides."""
    if sector_phase(model, -q) != sector_phase(model, q):
        raise AssertionError("conjugate sector phase mismatch")  # (-q)^2 == q^2
    return -q


def r_phase(model: AnyonModel, c1: int, c2: int, n: int) -> CyclotomicPhase:
    """Exchange coefficient omega^(c1 c2 (2n+1)) for relative winding n."""
    return model.omega ** (c1 * c2 * (2 * n + 1))


def monodromy_prefactor(model: AnyonModel, alpha: int, beta: int, gamma: int,
                        delta: int, n: int) -> CyclotomicPhase:
    """(omega_alpha omega_gamma / omega_beta omega_delta)^n for abelian-
    compatible labels; equals omega^(2 c1 c2 n)."""
    c1 = beta - alpha
    c2 = delta - alpha
    if gamma != alpha + c1 + c2:
        raise ValueError(
            f"labels ({alpha},{beta},{gamma},{delta}) are not abelian-compatible"
        )
    num = sector_phase(model, alpha) * sector_phase(model, gamma)
    den = sector_phase(model, beta) * sector_phase(model, delta)
    return (num / den) ** n


def twist_phase(model: AnyonModel, q: int, n: int) -> CyclotomicPhase:
    """Grade-q eigenvalue of the twist: (omega^(1/2))^(q^2 (2n+1))."""
    return model.omega_sqrt ** (q * q * (2 * n + 1))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

class ModelError(ValueError):
    """Model file failed validation."""


def _integer(value, where: str) -> int:
    """The integer a JSON number field holds; ModelError naming the field for
    a boolean, a string, a non-finite number or a fractional part."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ModelError(f"{where} must be a finite number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ModelError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _finite(value, where: str, error: type[ValueError], positive: bool = False) -> float:
    """A finite number field (above zero if ``positive``) as a float, else ``error``."""
    try:
        if not isinstance(value, bool) and math.isfinite(value) and (value > 0 or not positive):
            return float(value)
    except (TypeError, OverflowError):  # a string, array or object; an int beyond float
        pass
    raise error(f"{where} must be a finite{' positive' if positive else ''} number, got {value!r}")


def _phase_from_doc(doc, where: str) -> CyclotomicPhase:
    if not (isinstance(doc, dict) and "k" in doc and "M" in doc):
        raise ModelError(f"{where}: expected an object with fields 'k' and 'M'")
    return CyclotomicPhase.from_pair(_integer(doc["k"], f"{where}.k"),
                                     _integer(doc["M"], f"{where}.M"))


def parse_model(doc: dict) -> AnyonModel:
    if not isinstance(doc, dict):
        raise ModelError("model document must be an object")
    group = doc.get("group")
    if group == "Z":
        order = None
    elif isinstance(group, dict) and "ZN" in group:
        order = _integer(group["ZN"], "group.ZN")
        if order <= 0:
            raise ModelError("ZN order must be positive")
    else:
        raise ModelError("group must be \"Z\" or {\"ZN\": N}")
    omega = _phase_from_doc(doc.get("omega"), "omega")
    omega_sqrt = _phase_from_doc(doc.get("omega_sqrt"), "omega_sqrt")
    spin_doc = doc.get("spin")
    if not (isinstance(spin_doc, dict) and "p" in spin_doc and "q" in spin_doc):
        raise ModelError("spin: expected an object with fields 'p' and 'q'")
    spin = Fraction(_integer(spin_doc["p"], "spin.p"), _integer(spin_doc["q"], "spin.q"))
    mass = doc.get("mass")
    if mass is not None:
        mass = _finite(mass, "mass", ModelError, positive=True)
    try:
        return AnyonModel(order, omega, omega_sqrt, spin, mass)
    except ValueError as exc:
        raise ModelError(str(exc)) from None


def _load_json(filename, error: type[ValueError]):
    """The JSON document in a file; a syntax error raises ``error`` naming its line."""
    with open(filename, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{filename}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}") from None


def load_model(filename) -> AnyonModel:
    doc = _load_json(filename, ModelError)
    try:
        return parse_model(doc)
    except ModelError as exc:
        raise ModelError(f"{filename}: {exc}") from None
