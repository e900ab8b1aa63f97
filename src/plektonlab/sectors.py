"""Abelian charge models with exact cyclotomic phase arithmetic.

Charges live in Z (or Z_N with lifted-integer bookkeeping); every phase is a
root of unity exp(2 pi i k / M) stored as the reduced int pair (k mod M, M),
so products, quotients, powers, inverses and equality are decided in int
arithmetic, without floating point or a ``Fraction`` per operation.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction


class CyclotomicPhase:
    """The root of unity exp(2 pi i k / M), stored as the reduced int pair
    (k mod M, M): 0 <= k < M, gcd(k, M) = 1, and 1 is stored as 0/1.

    The constructor takes the phase in turns, as anything ``Fraction()``
    accepts; products, quotients, integer powers and inverses stay on the
    ints.  Instances are immutable, compare and hash by the pair, and
    pickle as it.
    """

    __slots__ = ("_k", "_m")

    def __init__(self, turns) -> None:
        x = turns if type(turns) is Fraction else Fraction(turns)
        # n % d over d is already in lowest terms
        _set_k(self, x.numerator % x.denominator)
        _set_m(self, x.denominator)

    @staticmethod
    def from_pair(k: int, m: int) -> "CyclotomicPhase":
        if m <= 0:
            raise ValueError("denominator must be positive")
        return CyclotomicPhase(Fraction(k, m))

    @staticmethod
    def one() -> "CyclotomicPhase":
        return _phase(0, 1)

    @property
    def turns(self) -> Fraction:
        return Fraction(self._k, self._m)

    @property
    def numerator(self) -> int:
        return self._k

    @property
    def denominator(self) -> int:
        return self._m

    def __mul__(self, other: "CyclotomicPhase") -> "CyclotomicPhase":
        return _phase(self._k * other._m + other._k * self._m, self._m * other._m)

    def __truediv__(self, other: "CyclotomicPhase") -> "CyclotomicPhase":
        return _phase(self._k * other._m - other._k * self._m, self._m * other._m)

    def __pow__(self, n) -> "CyclotomicPhase":
        # integers only: a root of a phase is model data (omega_sqrt), never picked here
        return _phase(self._k * operator.index(n), self._m)

    def inverse(self) -> "CyclotomicPhase":
        return _phase(-self._k, self._m)

    def is_one(self) -> bool:
        return self._k == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * math.pi * (self._k / self._m))

    def __eq__(self, other) -> bool:
        if other.__class__ is not CyclotomicPhase:
            return NotImplemented
        return self._k == other._k and self._m == other._m

    def __hash__(self) -> int:
        return hash((self._k, self._m))

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return _phase, (self._k, self._m)

    def __str__(self) -> str:
        return f"{self._k}/{self._m} of 2pi"

    def __repr__(self) -> str:
        return f"CyclotomicPhase({self._k}/{self._m})"


_set_k, _set_m = CyclotomicPhase._k.__set__, CyclotomicPhase._m.__set__


def _phase(k: int, m: int) -> CyclotomicPhase:
    """exp(2 pi i k / m) for ints k and m > 0, reduced to lowest terms."""
    k %= m
    g = math.gcd(k, m)  # gcd(0, m) = m, so 1 is 0/1
    p = object.__new__(CyclotomicPhase)
    _set_k(p, k // g)  # the slots' own setters, past __setattr__
    _set_m(p, m // g)
    return p


ONE = CyclotomicPhase.one()


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
    k, m = _integer(doc["k"], f"{where}.k"), _integer(doc["M"], f"{where}.M")
    if m <= 0:
        raise ModelError(f"{where}.M must be positive, got {m}")
    return CyclotomicPhase.from_pair(k, m)


def parse_model(doc: dict) -> AnyonModel:
    if not isinstance(doc, dict):
        raise ModelError("model document must be an object")
    group = doc.get("group")
    if group == "Z":
        order = None
    elif isinstance(group, dict) and "ZN" in group:
        order = _integer(group["ZN"], "group.ZN")
        if order <= 0:
            raise ModelError(f"group.ZN must be positive, got {order}")
    else:
        raise ModelError("group must be \"Z\" or {\"ZN\": N}")
    omega = _phase_from_doc(doc.get("omega"), "omega")
    omega_sqrt = _phase_from_doc(doc.get("omega_sqrt"), "omega_sqrt")
    spin_doc = doc.get("spin")
    if not (isinstance(spin_doc, dict) and "p" in spin_doc and "q" in spin_doc):
        raise ModelError("spin: expected an object with fields 'p' and 'q'")
    p, q = _integer(spin_doc["p"], "spin.p"), _integer(spin_doc["q"], "spin.q")
    if q == 0:
        raise ModelError("spin.q must be nonzero, got 0")
    spin = Fraction(p, q)
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
