"""Correctness checks for the benchmark workloads.

Every check compares the program's output with a value computed here from the
generated inputs, or with a property the method must have; none compares with
a stored copy of an earlier output.  Each check returns a list of problems;
an empty list means the output passed.

The lifted-angle checks use the closed-form product law of the universal
cover of SU(1,1) ~ SO(2,1)_0 (V. Bargmann, Ann. Math. 48 (1947) 568).  An
element is written with alpha = e^{i omega} cosh(t/2) and gamma = beta/alpha,
and the package's lifted polar angle is theta = 2 omega.  Then

    theta_12 = theta_1 + theta_2 + 2 arg(1 + gamma_1 conj(gamma_2) e^{-i theta_2}),

where gamma is read off the 3x3 matrix as (L01 + i L02) / (1 + L00).  No
continuation is involved, so these checks are independent of the package's
path-continuation code.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
ETA = np.diag([1.0, -1.0, -1.0])

# Same values as the package's LIFT_TOL and MAT_TOL and the lattice oracle's
# residual limit, fixed here so that a change to the package cannot loosen
# the benchmark's checks.
LIFT_TOL = 1e-9
MAT_RTOL = 1e-12
LATTICE_TOL = 1e-12

SCHEMA = "plektonlab/1"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _report_problems(exit_code: int, text: str, command: str) -> tuple[list[str], dict | None]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"], None
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    if doc.get("command") != command:
        problems.append(f"command {doc.get('command')!r}, expected {command!r}")
    checks = doc.get("checks", [])
    if not checks:
        problems.append("report has no checks")
    for c in checks:
        if c.get("status") != "pass":
            problems.append(f"check {c.get('name')!r} has status {c.get('status')!r}")
    if doc.get("passed") is not True:
        problems.append("report does not say passed")
    return problems, doc


def verify_report_problems(exit_code: int, text: str, first_text: str | None) -> list[str]:
    """`verify --suite all --format json`: exit 0, schema, every check passes,
    and the report is byte-identical to the first call with the same seed."""
    problems, doc = _report_problems(exit_code, text, "verify")
    if doc is not None and doc.get("suite") != "all":
        problems.append(f"suite {doc.get('suite')!r}, expected 'all'")
    if first_text is not None and text != first_text:
        problems.append("report differs from the first call with the same seed")
    return problems


def expected_winding(second: dict, first: dict) -> int:
    """floor((alpha_minus(second) - alpha_plus(first)) / 2 pi) from the
    generated centre angle, half-opening and sheet of each cone."""
    lo2 = second["center_angle"] + TWO_PI * second["sheet"] - second["half_opening"]
    hi1 = first["center_angle"] + TWO_PI * first["sheet"] + first["half_opening"]
    return math.floor((lo2 - hi1) / TWO_PI)


def winding_table_problems(exit_code: int, text: str, cones: list[dict]) -> list[str]:
    """`winding --format json` over every ordered pair of the generated cones:
    each N equals the floor formula, and N(i, j) + N(j, i) = -1."""
    problems, doc = _report_problems(exit_code, text, "winding")
    if doc is None:
        return problems
    by_id = {c["id"]: c for c in cones}
    expected_pairs = {(a, b) for a in by_id for b in by_id if a != b}
    seen = set()
    table: dict[tuple[str, str], int] = {}
    for row in doc.get("rows", []):
        key = (row.get("second"), row.get("first"))
        if key not in expected_pairs:
            problems.append(f"unexpected row {key}")
            continue
        if key in seen:
            problems.append(f"duplicate row {key}")
            continue
        seen.add(key)
        if row.get("status") != "pass" or not isinstance(row.get("N"), int):
            problems.append(f"row {key} has status {row.get('status')!r}")
            continue
        table[key] = row["N"]
        want = expected_winding(by_id[key[0]], by_id[key[1]])
        if row["N"] != want:
            problems.append(f"N{key} = {row['N']}, expected {want}")
    missing = expected_pairs - seen
    if missing:
        problems.append(f"{len(missing)} ordered pairs missing from the table")
    for (a, b), n in table.items():
        if (b, a) in table and n + table[(b, a)] != -1:
            problems.append(f"N({a},{b}) + N({b},{a}) = {n + table[(b, a)]}, expected -1")
    return problems


# ---------------------------------------------------------------------------
# covering group
# ---------------------------------------------------------------------------

def su11_gamma(m: np.ndarray) -> complex:
    """gamma = beta / alpha of the SU(1,1) element over the Lorentz matrix m."""
    return complex(m[0, 1], m[0, 2]) / (1.0 + m[0, 0])


def lifted_product(theta1: float, m1: np.ndarray, theta2: float, m2: np.ndarray) -> float:
    """Lifted polar angle of the product of two covering elements."""
    z = 1.0 + su11_gamma(m1) * su11_gamma(m2).conjugate() * cmath.exp(-1j * theta2)
    return theta1 + theta2 + 2.0 * cmath.phase(z)


def _matrix_problem(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    err = float(np.abs(got - want).max())
    scale = max(1.0, float(np.abs(want).max()))
    if not err <= MAT_RTOL * scale:
        return [f"{what}: matrix differs from numpy by {err:.3e} (scale {scale:.3g})"]
    return []


def _angle_problem(what: str, got: float, want: float) -> list[str]:
    if not abs(got - want) <= LIFT_TOL:
        return [f"{what}: lifted angle {got!r}, closed form {want!r}"]
    return []


def compose_problems(m1, theta1, m2, theta2, m12, theta12) -> list[str]:
    """cover_compose: matrix is the numpy product, lift is the closed form."""
    return (_matrix_problem("compose", m12, m1 @ m2)
            + _angle_problem("compose", theta12, lifted_product(theta1, m1, theta2, m2)))


def inverse_problems(m, theta, m_inv, theta_inv) -> list[str]:
    """cover_inverse: matrix is numpy's inverse, and g . g^-1 lifts to 0."""
    return (_matrix_problem("inverse", m_inv, np.linalg.inv(m))
            + _angle_problem("inverse", lifted_product(theta, m, theta_inv, m_inv), 0.0))


def standard_boost(p: np.ndarray) -> np.ndarray:
    """Symmetric positive boost taking (mass, 0, 0) to the shell point p."""
    u = p / math.sqrt(p[0] ** 2 - p[1] ** 2 - p[2] ** 2)
    g = 1.0 + u[0]
    return np.array([
        [u[0], u[1], u[2]],
        [u[1], 1.0 + u[1] * u[1] / g, u[1] * u[2] / g],
        [u[2], u[1] * u[2] / g, 1.0 + u[2] * u[2] / g],
    ])


def wigner_closed_form(m: np.ndarray, theta: float, p: np.ndarray) -> float:
    """Omega(g, p) = lift of B_{Lp}^-1 g B_p, the boosts having lift 0."""
    bp = standard_boost(p)
    b_inv = ETA @ standard_boost(m @ p) @ ETA
    theta_a = lifted_product(theta, m, 0.0, bp)
    return lifted_product(0.0, b_inv, theta_a, m @ bp)


def wigner_problems(m, theta, points, omegas) -> list[str]:
    """wigner_rotation at each shell point against the closed form."""
    problems = []
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if omegas.shape != (len(points),):
        return [f"wigner: {omegas.shape} angles for {len(points)} points"]
    for k, (p, got) in enumerate(zip(points, omegas)):
        problems += _angle_problem(f"wigner point {k}", float(got), wigner_closed_form(m, theta, p))
    return problems


def transported_endpoint(m: np.ndarray, theta: float, alpha: float, ray: np.ndarray) -> float:
    """Lifted angle of the ray at lifted angle alpha moved by (m, theta).

    The lift of g r(alpha) is theta + alpha (gamma of a rotation is 0), and
    g r(alpha) = R(theta + alpha) B' with B' symmetric positive, whose image
    of e1 has its angle in (-pi/2, pi/2).
    """
    v = m @ ray
    base = theta + alpha
    return base + math.remainder(math.atan2(v[2], v[1]) - base, TWO_PI)


def act_problems(m, theta, before: dict, after: dict) -> list[str]:
    """act(g, C): apex, normals and corners are numpy products; arc ends are
    the closed-form transports of the two endpoint rays.

    ``before``/``after`` hold ``apex`` (3,), ``normals`` (k, 3), ``corners``
    (4, 3) and ``arc`` (alpha_minus, alpha_plus).
    """
    problems = _matrix_problem("act apex", np.asarray(after["apex"]), m @ np.asarray(before["apex"]))
    for part in ("normals", "corners"):
        problems += _matrix_problem(f"act {part}", np.asarray(after[part]),
                                    np.asarray(before[part]) @ m.T)
    corners = np.asarray(before["corners"])
    for end, ray in enumerate(corners[:2]):
        want = transported_endpoint(m, theta, before["arc"][end], ray)
        problems += _angle_problem(f"act arc end {end}", after["arc"][end], want)
    return problems


def rotation_shift_problems(arc_before, arc_after, turns: int) -> list[str]:
    """act(r(2 pi m), C) shifts both arc ends by exactly 2 pi m."""
    want = (arc_before[0] + TWO_PI * turns, arc_before[1] + TWO_PI * turns)
    if tuple(arc_after) != want:
        return [f"r(2pi*{turns}) moved arc {tuple(arc_before)} to {tuple(arc_after)}, "
                f"expected {want}"]
    return []


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def lattice_problems(n_group: int, charges: list[int], arcs: list[tuple[float, float]],
                     dimension: int, exchange_residual: float, adjoint_residual: float,
                     checks: int, exchange_turns: list[Fraction]) -> list[str]:
    """lattice_oracle on a word of len(charges) factors of Z_N with statistics
    phase omega = 1/N turns.

    ``arcs`` are the generated (alpha_minus, alpha_plus) of the factors and
    ``exchange_turns[i]`` is the coefficient, in turns, that exchanging
    factors i and i+1 multiplies the word by.  It must equal
    omega^(c_i c_{i+1} (2n+1)) with n the winding of factor i's arc over
    factor i+1's.
    """
    length = len(charges)
    problems = []
    if dimension != n_group ** length:
        problems.append(f"dimension {dimension}, expected {n_group}^{length}")
    if checks != 2 * length - 1:
        problems.append(f"{checks} identities checked, expected {2 * length - 1}")
    for what, res in (("exchange", exchange_residual), ("adjoint", adjoint_residual)):
        if not res < LATTICE_TOL:
            problems.append(f"{what} residual {res:.3e} not below {LATTICE_TOL}")
    if len(exchange_turns) != length - 1:
        return problems + [f"{len(exchange_turns)} exchange coefficients, expected {length - 1}"]
    for i, got in enumerate(exchange_turns):
        n = math.floor((arcs[i][0] - arcs[i + 1][1]) / TWO_PI)
        want = Fraction(charges[i] * charges[i + 1] * (2 * n + 1), n_group) % 1
        if Fraction(got) % 1 != want:
            problems.append(f"exchange {i}: coefficient {got} turns, expected {want}")
    return problems
