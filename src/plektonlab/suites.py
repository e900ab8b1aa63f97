"""Property sweeps behind `plektonlab verify`.

Each suite draws its configurations from two streams of its own, seeded by
(seed, suite index, use): one for its separated pairs and fans, one for
everything else.  It runs the module invariants at the package tolerances
and reports one line per check.  Each loop draws its separated pairs with
one call: candidates come in arrays, one stacked certificate decides a
batch, and only accepted candidates become paths.  The geometry suite also
decides each check's transported, reflected or random pairs with one call,
then meets their verdicts pair by pair as its loop did.  Sweep sizes scale
with the PLEKTONLAB_SWEEP environment variable.

Since the suites share no stream, "all" runs them side by side in forked
worker processes, longest first, and gathers their reports and tracebacks
in SUITES order, so its report is byte for byte that of running them one
after another.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import traceback
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from . import cones, continuation, fields, minkowski, wigner
from .cones import (
    ConePath,
    ReferenceFrame,
    SeparationError,
    WindingError,
    cone_path,
    reflect_path,
    relative_winding,
    relative_winding_scan,
    standard_wedge_path,
)
from .minkowski import MVec3, cover_boost1, cover_compose, cover_rotation, cover_translation
from .report import ERROR, FAIL, Report
from .sectors import (
    AnyonModel,
    CyclotomicPhase,
    monodromy_prefactor,
    r_phase,
    sector_phase,
    twist_phase,
    validate_model,
)
from .tolerances import (LIFT_TOL, ORIENTATION_TOL, REFLECTION_RELATION_TOL,
                         ROTATION_EIGENVALUE_TOL, STEP_INDEPENDENCE_TOL, UNITARITY_TOL)

SUITES = ("geometry", "braid", "twist", "cpt", "tomita", "wigner", "all")
# The suites by descending CPU time, the order in which "all" hands them to its
# workers so that the longest start first (R. L. Graham, SIAM J. Appl. Math.
# 17 (1969) 416).  Seed 7, best of 3 in each of 8 runs, 2-core machine:
# geometry 201-322, cpt 89-124, braid 70-110, twist 47-67, wigner 34-53,
# tomita 27-35 ms.
_LONGEST_FIRST = ("geometry", "cpt", "braid", "twist", "wigner", "tomita")


def sweep_scale() -> float:
    """The PLEKTONLAB_SWEEP factor, at least 0.05 (default 1.0); raises
    ValueError unless it is a finite number."""
    raw = os.environ.get("PLEKTONLAB_SWEEP", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not math.isfinite(scale):
        raise ValueError(f"PLEKTONLAB_SWEEP must be a finite number, got {raw!r}")
    return max(0.05, scale)


def _n(base: int) -> int:
    return max(3, int(round(base * sweep_scale())))


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def _streams(seed: int, suite: str) -> tuple[np.random.Generator, np.random.Generator]:
    """The suite's own generators: one for its separated pairs and fans, one
    for everything else.  No two suites, and no two uses, share a stream."""
    k = SUITES.index(suite)
    return np.random.default_rng([seed, k, 0]), np.random.default_rng([seed, k, 1])


def random_separated_pairs(rng: np.random.Generator,
                           count: int) -> Iterator[tuple[ConePath, ConePath]]:
    """``count`` causally separated (C2, C1) pairs with generic arcs and apexes.

    Candidates are drawn in batches, about three per missing pair and at
    most 64, and one stacked certificate decides each batch; only accepted
    lanes become paths.  A lane whose margin is in the ambiguity band is
    rejected, like one that is not separated.  Pairs are yielded batch by
    batch, so at most one batch of paths is alive (a list of 300 pairs
    raised verify-all's peak RSS by about 1 MB).
    """
    margin = 0.15
    done = 0
    for _ in range(64 * count + 1):  # give up after 64 rounds per pair
        if done == count:
            return
        k = min(64, 3 * (count - done))
        d1 = rng.uniform(0.08, 0.45, k)
        d2 = rng.uniform(0.08, 0.45, k)
        base = rng.uniform(-math.pi, math.pi, k)
        rel = d1 + d2 + margin + rng.uniform(0.0, 2.0 * math.pi - 2.0 * (d1 + d2 + margin))
        apex1 = rng.normal(0.0, 0.05, (k, 3))
        apex2 = rng.normal(0.0, 0.05, (k, 3))
        sheet1 = rng.integers(-2, 3, k)
        sheet2 = rng.integers(-2, 3, k)
        center2 = base + rel
        ok = cones._cones_separated(apex1, base, d1, apex2, center2, d2)
        for i in np.flatnonzero(ok)[:count - done].tolist():
            c1 = cone_path(MVec3(*apex1[i].tolist()), float(base[i]), float(d1[i]),
                           sheet=int(sheet1[i]))
            c2 = cone_path(MVec3(*apex2[i].tolist()), float(center2[i]), float(d2[i]),
                           sheet=int(sheet2[i]))
            done += 1
            yield c2, c1
    raise RuntimeError("failed to generate separated pairs")


def random_separated_pair(rng: np.random.Generator):
    """One causally separated (C2, C1) pair with generic arcs and apexes."""
    return next(random_separated_pairs(rng, 1))


def _drawn(items: Iterator) -> tuple[list, Exception | None]:
    """What ``items`` yields before it raises, and what it raised (None if
    it ran out): a check decides the drawn pairs in one stack, then meets
    the exception where its loop would have met it."""
    out = []
    try:
        for item in items:
            out.append(item)
    except Exception as exc:
        return out, exc
    return out, None


def random_cover_element(rng: np.random.Generator, *, translations: bool = True):
    g = cover_compose(
        cover_rotation(rng.uniform(-7.0, 7.0)),
        cover_compose(cover_boost1(rng.uniform(-1.2, 1.2)),
                      cover_rotation(rng.uniform(-3.0, 3.0))),
    )
    if translations:
        return cover_compose(cover_translation(MVec3(*rng.normal(0.0, 0.5, 3))), g)
    return g


_OBS_NAMES = ("A", "B", "C", "D")


def random_symbol(rng: np.random.Generator, loc: ConePath,
                  model: AnyonModel) -> fields.FieldSymbol:
    name = _OBS_NAMES[int(rng.integers(0, len(_OBS_NAMES)))]
    obs = fields.ObservableWord.symbol(name, star=bool(rng.integers(0, 2)))
    obs = obs.gamma(int(rng.integers(-2, 3)))
    charge = int(rng.integers(-4, 5))
    return fields.FieldSymbol(charge, obs, loc)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def geometry_suite(model: AnyonModel | None, scene, seed: int) -> Report:
    rep = Report(command="verify", suite="geometry", seed=seed)
    pair_rng, rng = _streams(seed, "geometry")

    if scene is not None and len(scene.paths) >= 2:
        ids = scene.ids()
        note = "scene pairs against the definition scan"
        bad = 0
        for a, b in itertools.permutations(ids, 2):
            try:
                n1 = relative_winding(scene[a], scene[b])
                n2 = relative_winding_scan(scene[a], scene[b])
                if n1 != n2:
                    bad += 1
            except (SeparationError, WindingError):
                continue
        rep.add_outcome("scene-winding-definition-agreement", bad == 0,
                        exact=f"{bad} disagreements", note=note)

    n_pairs = _n(300)
    bad = 0
    for c2, c1 in random_separated_pairs(pair_rng, n_pairs):
        if cones._winding(c2, c1) != relative_winding_scan(c2, c1):
            bad += 1
    rep.add_outcome("winding-closed-form-vs-definition", bad == 0,
                    exact=f"{bad}/{n_pairs} disagreements",
                    note="oracle scans n in [-5, 5] against both inequalities")

    bad = 0
    for c2, c1 in random_separated_pairs(pair_rng, n_pairs):
        if cones._winding(c2, c1) + cones._winding(c1, c2) != -1:
            bad += 1
    rep.add_outcome("winding-antisymmetry", bad == 0,
                    exact=f"{bad}/{n_pairs} violations", note="N12 + N21 = -1 exactly")

    n_cov = _n(100)

    def moved_pairs():
        for c2, c1 in random_separated_pairs(pair_rng, n_cov):
            g = random_cover_element(rng)
            yield c2, c1, cones.act(g, c2), cones.act(g, c1)

    drawn, late = _drawn(moved_pairs())
    verdicts = cones._separated_many([(m1, m2) for _, _, m2, m1 in drawn])
    bad = 0
    for (c2, c1, m2, m1), verdict in zip(drawn, verdicts):
        if cones._winding_given(m2, m1, verdict) != cones._winding(c2, c1):
            bad += 1
    if late is not None:
        raise late
    rep.add_outcome("winding-covariance", bad == 0,
                    exact=f"{bad}/{n_cov} violations",
                    note="N invariant under random covering elements")

    bad = 0
    for c2, c1 in random_separated_pairs(pair_rng, _n(100)):
        m = int(rng.integers(-3, 4))
        shifted = cones.act(cover_rotation(2.0 * math.pi * m), c2)
        if cones._winding(shifted, c1) != cones._winding(c2, c1) + m:
            bad += 1
    rep.add_outcome("winding-rotation-shift", bad == 0,
                    exact=f"{bad} violations", note="N(r(2 pi m) C2, C1) = N + m")

    bad = 0
    frame_a = ReferenceFrame(math.pi / 2.0)
    for c2, c1 in random_separated_pairs(pair_rng, _n(100)):
        frame_b = ReferenceFrame(rng.uniform(-6.0, 6.0))
        r2 = cones.rebase(c2, frame_a, frame_b)
        r1 = cones.rebase(c1, frame_a, frame_b)
        if cones._winding(r2, r1) != cones._winding(c2, c1):
            bad += 1
    rep.add_outcome("winding-rebase-invariance", bad == 0,
                    exact=f"{bad} violations", note="recomputed over a shifted base")

    drawn, late = _drawn((c2, c1, reflect_path(c2), reflect_path(c1))
                         for c2, c1 in random_separated_pairs(pair_rng, _n(100)))
    verdicts = cones._separated_many([(r1, r2) for _, _, r2, r1 in drawn])
    bad = 0
    for (c2, c1, r2, r1), verdict in zip(drawn, verdicts):
        if cones._winding_given(r2, r1, verdict) != cones._winding(c1, c2):
            bad += 1
    if late is not None:
        raise late
    rep.add_outcome("winding-reflection-transposition", bad == 0,
                    exact=f"{bad} violations",
                    note="N(jC2, jC1) = N(C1, C2), checked against the definition")

    n_sep = _n(150)
    pairs = []
    for _ in range(n_sep):
        a1 = MVec3(*rng.normal(0.0, 0.4, 3))
        a2 = MVec3(*rng.normal(0.0, 0.4, 3))
        cA = cone_path(a1, rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 0.6))
        cB = cone_path(a2, rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 0.6))
        pairs.append((cA, cB))
    decided = [(pair, sep) for pair, sep in zip(pairs, cones._separated_many(pairs))
               if not isinstance(sep, SeparationError)]  # the rest graze
    witnesses = cones._causal_pairs([pair for pair, _ in decided])
    bad = sum(sep != (w is None) for (_, sep), w in zip(decided, witnesses))
    rep.add_outcome("separation-oracle-agreement", bad == 0,
                    exact=f"{bad}/{len(decided)} disagreements",
                    note="exact primal oracle over the hull of rays and apex gap")

    triples = []
    for _ in range(_n(100)):
        mid = rng.uniform(-math.pi, math.pi)
        arcs = sorted(rng.uniform(0.0, 1.8, 3))
        triples.append([cone_path(MVec3(0, 0, 0), mid + a, 0.06) for a in arcs])
    orders = ((0, 1), (1, 2), (0, 2), (1, 0))
    verdicts = cones._separated_many([(paths[i], paths[j]) for paths in triples
                                      for i, j in orders])
    bad = 0
    for t, paths in enumerate(triples):
        v01, v12, v02, v10 = verdicts[4 * t:4 * t + 4]
        try:
            p01 = cones._precedes_given(paths[0], paths[1], v01)
            p12 = cones._precedes_given(paths[1], paths[2], v12)
            p02 = cones._precedes_given(paths[0], paths[2], v02)
        except (SeparationError, WindingError):
            continue
        if p01 and p12 and not p02:
            bad += 1
        if p01 and cones._precedes_given(paths[1], paths[0], v10):
            bad += 1
    rep.add_outcome("precedes-transitive-antisymmetric", bad == 0,
                    exact=f"{bad} violations", note="ordered triples of disjoint arcs")

    worst = 0.0
    for _ in range(_n(40)):
        start = rng.uniform(-math.pi, math.pi)
        sweep = rng.uniform(-2.5, 2.5)
        rap = rng.uniform(-1.0, 1.0)
        ts = np.linspace(0.0, 1.0, 200)
        pts = [MVec3(math.sinh(rap * t), math.cosh(rap * t) * math.cos(start + sweep * t),
                     math.cosh(rap * t) * math.sin(start + sweep * t)) for t in ts]
        fwd = cones.accumulated_angle(pts)
        bwd = cones.accumulated_angle([minkowski.reflect_vector(p) for p in pts])
        worst = max(worst, abs(fwd + bwd))
    rep.add_outcome("reflection-reverses-orientation", worst <= ORIENTATION_TOL, residual=worst,
                    note="accumulated angle of j-image negates")

    worst = 0.0
    for c2, c1 in random_separated_pairs(pair_rng, _n(40)):
        g = random_cover_element(rng, translations=False)
        moved = cones.act(g, c1)
        dense = continuation.ray_angles(
            g, [c1.corners[0].as_array(), c1.corners[1].as_array()],
            [c1.arc.alpha_minus, c1.arc.alpha_plus],
        )
        worst = max(worst, abs(moved.arc.alpha_minus - dense[0]),
                    abs(moved.arc.alpha_plus - dense[1]))
    rep.add_outcome("arc-transport-continuation", worst <= LIFT_TOL, residual=worst,
                    note="closed-form endpoint transport against path continuation")
    return rep


# ---------------------------------------------------------------------------
# braid
# ---------------------------------------------------------------------------

def _separated_fan(rng: np.random.Generator, count: int) -> list[ConePath]:
    """Pairwise separated cones spread over one angular turn.

    Apex jitter is purely spatial so the regions stay space-like near the
    apexes.  One stacked certificate decides every pair, and the fan is
    regenerated if a pair is not separated or its margin is in the
    ambiguity band.
    """
    base = rng.uniform(-math.pi, math.pi)
    step = 2.0 * math.pi / count
    centers = base + np.arange(count) * step
    a, b = np.triu_indices(count, k=1)  # the pairs in itertools.combinations order
    for _ in range(32):
        apexes = np.zeros((count, 3))
        apexes[:, 1:] = rng.normal(0.0, 0.02, (count, 2))
        halves = rng.uniform(0.08, 0.3 * step, count)
        if cones._cones_separated(apexes[a], centers[a], halves[a],
                                  apexes[b], centers[b], halves[b]).all():
            return [cone_path(MVec3(*apex), center, half) for apex, center, half
                    in zip(apexes.tolist(), centers.tolist(), halves.tolist())]
    raise RuntimeError("failed to generate a separated fan")


def _all_reduced_routes(perm: tuple[int, ...]):
    """All shortest adjacent-transposition routes sorting ``perm`` to identity."""
    if all(perm[i] < perm[i + 1] for i in range(len(perm) - 1)):
        yield ()
        return
    for i in range(len(perm) - 1):
        if perm[i] > perm[i + 1]:
            nxt = list(perm)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            for route in _all_reduced_routes(tuple(nxt)):
                yield (i,) + route


def braid_suite(model: AnyonModel, scene, seed: int) -> Report:
    rep = Report(command="verify", suite="braid", seed=seed)
    pair_rng, rng = _streams(seed, "braid")

    n_inv = _n(200)
    bad = 0
    for c2, c1 in random_separated_pairs(pair_rng, n_inv):
        w = fields.FieldWord.of(random_symbol(rng, c2, model), random_symbol(rng, c1, model))
        if fields._exchange(fields._exchange(w, 0, model), 0, model) != w:
            bad += 1
    rep.add_outcome("exchange-involution", bad == 0, exact=f"{bad}/{n_inv} violations",
                    note="double exchange restores word and coefficient")

    bad = routes = 0
    for _ in range(_n(6)):
        locs = _separated_fan(pair_rng, 4)
        syms = [random_symbol(rng, loc, model) for loc in locs]
        for perm in itertools.permutations(range(4)):
            word = fields.FieldWord.of(*(syms[i] for i in perm))
            coeffs = set()
            for route in _all_reduced_routes(perm):
                out = word
                for i in route:
                    out = fields._exchange(out, i, model)
                coeffs.add(out.coeff)
                routes += 1
            if len(coeffs) != 1:
                bad += 1
    rep.add_outcome("exchange-confluence-4-factors", bad == 0,
                    exact=f"{bad} divergent words over {routes} reduced routes",
                    note="exhaustive adjacent-transposition routes")

    ferm = AnyonModel(2, CyclotomicPhase.from_pair(1, 2),
                      CyclotomicPhase.from_pair(1, 4), Fraction(1, 2))
    c2, c1 = random_separated_pair(pair_rng)
    while cones._winding(c2, c1) != 0:
        c2, c1 = random_separated_pair(pair_rng)
    w = fields.FieldWord.of(
        fields.FieldSymbol(1, fields.ObservableWord.symbol("A"), c2),
        fields.FieldSymbol(1, fields.ObservableWord.symbol("B"), c1),
    )
    got = fields._exchange(w, 0, ferm).coeff
    rep.add_outcome("fermion-anticommutation", got == CyclotomicPhase.from_pair(1, 2),
                    exact=str(got), note="omega = -1, winding 0")

    n_mono = _n(300)
    bad = 0
    for _ in range(n_mono):
        alpha = int(rng.integers(-6, 7))
        cc1 = int(rng.integers(-5, 6))
        cc2 = int(rng.integers(-5, 6))
        n = int(rng.integers(-4, 5))
        pre = monodromy_prefactor(model, alpha, alpha + cc1, alpha + cc1 + cc2,
                                  alpha + cc2, n)
        if pre != model.omega ** (2 * cc1 * cc2 * n):
            bad += 1
        if pre * r_phase(model, cc1, cc2, 0) != r_phase(model, cc1, cc2, n):
            bad += 1
    rep.add_outcome("monodromy-prefactor-identity", bad == 0,
                    exact=f"{bad}/{n_mono} violations",
                    note="prefactor = omega^(2 c1 c2 n), exact")

    bad = 0
    for _ in range(_n(200)):
        cc1 = int(rng.integers(-5, 6))
        cc2 = int(rng.integers(-5, 6))
        n = int(rng.integers(-4, 5))
        if not (r_phase(model, cc1, cc2, n) * r_phase(model, cc1, cc2, -1 - n)).is_one():
            bad += 1
    rep.add_outcome("exchange-phase-pairing", bad == 0, exact=f"{bad} violations",
                    note="phases at n and -1-n cancel")
    return rep


# ---------------------------------------------------------------------------
# twist
# ---------------------------------------------------------------------------

def twist_suite(model: AnyonModel, scene, seed: int) -> Report:
    rep = Report(command="verify", suite="twist", seed=seed)
    pair_rng, rng = _streams(seed, "twist")

    n_cfg = _n(100)
    bad = 0
    for c2, c1 in random_separated_pairs(pair_rng, n_cfg):
        f2 = random_symbol(rng, c2, model)
        f1 = random_symbol(rng, c1, model)
        defect = fields.twisted_commutator_defect(f2, f1, (c2, c1), model)
        if defect != (0, 0, 0):
            bad += 1
    rep.add_outcome("twisted-locality-commutator", bad == 0,
                    exact=f"{bad}/{n_cfg} nonzero defects",
                    note="graded commutator vanishes as a polynomial in q")

    # a twist whose winding is off by one shifts the defect by omega^(2 c1 c2),
    # so the control is only meaningful when omega^2 != 1
    if not (model.omega ** 2).is_one():
        c2, c1 = random_separated_pair(pair_rng)
        mismatched = cones.act(cover_rotation(2.0 * math.pi), c2)
        f2 = fields.FieldSymbol(1, fields.ObservableWord.symbol("A"), c2)
        f1 = fields.FieldSymbol(1, fields.ObservableWord.symbol("B"), c1)
        defect = fields.twisted_commutator_defect(f2, f1, (mismatched, c1), model)
        rep.add_outcome("twisted-locality-negative-control", defect != (0, 0, 0),
                        note="mismatched twist winding must not commute")

    ok = True
    for mu, expected_n in ((math.pi / 2.0, -1), (-math.pi / 2.0, 0)):
        frame = ReferenceFrame(mu)
        we = standard_wedge_path(frame)
        jwe = reflect_path(we, frame)
        n = relative_winding(we, jwe)
        if n != expected_n:
            ok = False
        sgn = -1 if n == -1 else 1
        for q in range(-5, 6):
            if twist_phase(model, q, n) != model.omega_sqrt ** (sgn * q * q):
                ok = False
    rep.add_outcome("twist-wedge-eigenvalues", ok,
                    exact="Z E_q = omega^(-+ q^2/2) for both reference cones",
                    note="winding of the standard wedge pair is -1 or 0")

    if model.is_finite:
        n_per = _n(200)
        bad = 0
        N = model.group_order
        for _ in range(n_per):
            q = int(rng.integers(-8, 9))
            n = int(rng.integers(-3, 4))
            if sector_phase(model, q + N) != sector_phase(model, q):
                bad += 1
            if twist_phase(model, q + N, n) != twist_phase(model, q, n):
                bad += 1
        rep.add_outcome("charge-periodicity", bad == 0, exact=f"{bad} violations",
                        note="sector and twist phases are Z_N functions")
    return rep


# ---------------------------------------------------------------------------
# tomita
# ---------------------------------------------------------------------------

def _reflection_frame(scene, rep: Report) -> ReferenceFrame | None:
    """Reference frame for reflection-dependent suites.

    Uses the scene's frame when one is supplied; the reflection action is
    canonical only for a j-invariant reference cone, so anything else is an
    error naming that precondition.
    """
    frame = scene.frame if scene is not None else ReferenceFrame(math.pi / 2.0)
    if not frame.is_reflection_invariant():
        rep.add("reference-cone", ERROR,
                note="precondition violated: reference cone is not invariant "
                     "under the wedge-edge reflection (reference angle must be "
                     "pi/2 mod pi)")
        return None
    return frame


def tomita_suite(model: AnyonModel, scene, seed: int) -> Report:
    rep = Report(command="verify", suite="tomita", seed=seed)
    _, rng = _streams(seed, "tomita")
    frame = _reflection_frame(scene, rep)
    if frame is None:
        return rep

    wedge = standard_wedge_path(frame)
    sheet = round((wedge.arc.alpha_minus + wedge.arc.alpha_plus) / (4.0 * math.pi))

    def wedge_interior_symbol():
        center = rng.uniform(-1.0, 1.0)
        half = rng.uniform(0.05, min(0.4, (math.pi / 2.0 - abs(center)) * 0.8))
        apex = MVec3(0.0, abs(rng.normal(1.0, 0.3)) + 0.5, rng.normal(0.0, 0.2))
        loc = cone_path(apex, center, half, sheet=sheet)
        return random_symbol(rng, loc, model)

    n_inv = _n(300)
    bad = 0
    for _ in range(n_inv):
        sym = wedge_interior_symbol()
        coeff = CyclotomicPhase.from_pair(int(rng.integers(0, 12)), 12)
        v = fields.vacuum_vector(sym, coeff)
        if fields.tomita_S(fields.tomita_S(v, model, frame), model, frame) != v:
            bad += 1
    rep.add_outcome("pseudo-tomita-involution", bad == 0,
                    exact=f"{bad}/{n_inv} violations", note="S^2 = 1 exactly")

    sym = wedge_interior_symbol()
    v0 = fields.StateVector(0, sym.obs, sym.loc)
    sv = fields.tomita_S(v0, model, frame)
    ok = sv.charge == 0 and sv.obs == v0.obs.star()
    rep.add_outcome("charge-zero-star-map", ok,
                    note="S restricted to the vacuum sector is A -> A*")

    v = fields.vacuum_vector(wedge_interior_symbol(), CyclotomicPhase.from_pair(1, 3))
    lhs = fields.tomita_S(v, model, frame)
    ok = lhs.coeff == CyclotomicPhase.from_pair(2, 3)
    rep.add_outcome("anti-linearity", ok, exact=str(lhs.coeff),
                    note="coefficients conjugate")

    outside = cone_path(MVec3(0.0, -2.0, 0.0), math.pi, 0.2)
    try:
        fields.tomita_S(fields.vacuum_vector(random_symbol(rng, outside, model)), model, frame)
        rep.add("wedge-localisation-guard", FAIL, note="missing rejection")
    except ValueError:
        rep.add_pass("wedge-localisation-guard",
                     note="field outside the wedge path rejected")
    return rep


# ---------------------------------------------------------------------------
# cpt
# ---------------------------------------------------------------------------

def cpt_suite(model: AnyonModel, scene, seed: int) -> Report:
    rep = Report(command="verify", suite="cpt", seed=seed)
    pair_rng, rng = _streams(seed, "cpt")
    frame = _reflection_frame(scene, rep)
    if frame is None:
        return rep

    n_inv = _n(200)
    bad = 0
    for _ in range(n_inv):
        g = fields.GradedOperator(
            int(rng.integers(-4, 5)),
            Fraction(int(rng.integers(-6, 7)), 12),
            Fraction(int(rng.integers(-6, 7)), 12),
            Fraction(int(rng.integers(-6, 7)), 12),
            fields.ObservableWord.symbol("A"),
        )
        if fields.cpt_conjugate_graded(
            fields.cpt_conjugate_graded(g, model, frame), model, frame
        ) != g:
            bad += 1
    rep.add_outcome("cpt-involution", bad == 0, exact=f"{bad}/{n_inv} violations",
                    note="Theta^2 = 1 on graded operators, exact")

    n_geo = _n(150)
    bad = 0
    for c2, c1 in random_separated_pairs(pair_rng, n_geo):
        sym = random_symbol(rng, c1, model)
        op, loc = fields.cpt_conjugate(sym, model, frame)
        if op.shift != -sym.charge:
            bad += 1
        if not loc.same_path(reflect_path(sym.loc, frame)):
            bad += 1
    rep.add_outcome("cpt-charge-and-localisation", bad == 0,
                    exact=f"{bad} violations",
                    note="charge conjugated, localisation reflected")

    n_guard = _n(100)
    rejected = 0
    for c2, c1 in random_separated_pairs(pair_rng, n_guard):
        if cones._winding(c2, c1) != -1:
            c2 = cones.act(cover_rotation(2.0 * math.pi * (-1 - cones._winding(c2, c1))), c2)
        charge = int(rng.integers(-4, 5))
        f2 = fields.FieldSymbol(charge, fields.ObservableWord.symbol("A"), c2)
        f1 = fields.FieldSymbol(charge, fields.ObservableWord.symbol("B"), c1)
        overlap = fields.vacuum_swap((f2, f1), model)
        try:
            fields.vacuum_swap((overlap.bra, overlap.ket), model)
        except ValueError:
            rejected += 1
    rep.add_outcome("vacuum-swap-double-application-guard", rejected == n_guard,
                    exact=f"{rejected}/{n_guard} rejected",
                    note="winding of the swapped pair is 0, not -1")

    t = Fraction(1, 5)
    v = fields.gauge_operator(t)
    ok = fields.cpt_conjugate_graded(v, model, frame) == v
    rep.add_outcome("cpt-gauge-phase", ok,
                    note="anti-linear grade flip fixes the gauge phases")
    return rep


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------

def wigner_suite(model: AnyonModel, scene, seed: int) -> Report:
    rep = Report(command="verify", suite="wigner", seed=seed)
    _, rng = _streams(seed, "wigner")
    if model.mass is None:
        rep.add("wigner-mass", ERROR, note="model file does not specify a mass")
        return rep
    mass = model.mass

    n_coc = _n(30)
    pts = wigner.sample_shell(mass, rng, 12)
    worst = 0.0
    for _ in range(n_coc):
        g1 = random_cover_element(rng, translations=False)
        g2 = random_cover_element(rng, translations=False)
        worst = max(worst, wigner.verify_cocycle(g1, g2, pts))
    rep.add_outcome("wigner-cocycle", worst < LIFT_TOL, residual=worst,
                    note=f"{n_coc} random pairs, 12 shell points each")

    psi = wigner.GaussianSum((1.0, 0.4 - 0.3j), ((0.4, -0.2), (-0.3, 0.5)), (1.0, 1.6))
    spins = [float(model.spin), 0.0, 0.5, 1.0 / 3.0]
    worst = 0.0
    for s in spins:
        rot = wigner.apply_rep(minkowski.ZERO_VEC, cover_rotation(2.0 * math.pi), s, psi)
        expected = np.exp(2j * math.pi * s) * psi.evaluate(pts)
        worst = max(worst, float(np.abs(rot.evaluate(pts) - expected).max()))
    rep.add_outcome("rotation-2pi-eigenvalue", worst < ROTATION_EIGENVALUE_TOL, residual=worst,
                    exact=f"spins {spins}", note="U(r(2 pi)) psi = exp(2 pi i s) psi")

    worst = 0.0
    for _ in range(_n(10)):
        g = random_cover_element(rng, translations=False)
        res = wigner.verify_j_relations(g, float(model.spin), psi, pts)
        worst = max(worst, *res.values())
    rep.add_outcome("reflection-relations", worst < REFLECTION_RELATION_TOL, residual=worst,
                    note="U(j)U(g)U(j) = U(jgj) and translation covariance")

    n0 = wigner.shell_norm2(psi, mass)
    worst = 0.0
    for _ in range(2):
        g = random_cover_element(rng, translations=False)
        a = MVec3(*rng.normal(0.0, 0.3, 3))
        n1 = wigner.shell_norm2(wigner.apply_rep(a, g, float(model.spin), psi), mass)
        worst = max(worst, abs(n1 - n0) / n0)
    rep.add_outcome("unitarity", worst < UNITARITY_TOL, residual=worst,
                    note="invariant-measure quadrature norm")

    g = random_cover_element(rng, translations=False)
    coarse = continuation.wigner_angles(g, pts, initial_steps=64)
    fine = continuation.wigner_angles(g, pts, initial_steps=128)
    worst = float(np.abs(coarse - fine).max())
    rep.add_outcome("continuation-step-independence", worst < STEP_INDEPENDENCE_TOL,
                    residual=worst, note="halving the step changes the lift below 1e-10")

    n_orc = _n(4)
    worst = 0.0
    for _ in range(n_orc):
        g = random_cover_element(rng, translations=False)
        dense = continuation.wigner_angles(g, pts)
        worst = max(worst, float(np.abs(wigner.wigner_rotation(g, pts) - dense).max()))
    rep.add_outcome("wigner-continuation-oracle", worst < LIFT_TOL, residual=worst,
                    note=f"closed form against path continuation, {n_orc} random elements")

    eig = sector_phase(model, 1).to_complex()
    rot = wigner.apply_rep(minkowski.ZERO_VEC, cover_rotation(2.0 * math.pi),
                           float(model.spin), psi)
    worst = float(np.abs(rot.evaluate(pts) - eig * psi.evaluate(pts)).max())
    rep.add_outcome("spin-statistics-cross-check", worst < ROTATION_EIGENVALUE_TOL,
                    residual=worst, exact=str(sector_phase(model, 1)),
                    note="sector phase equals the 2 pi rotation eigenvalue")
    return rep


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def model_suite_guard(model: AnyonModel | None, rep: Report) -> bool:
    if model is None:
        rep.add("model", ERROR, note="this suite requires --model")
        return False
    result = validate_model(model)
    if not result.ok:
        rep.add("model-validation", FAIL, note="; ".join(result.failures))
        return False
    return True


_SUITE_FUNCS = {
    "geometry": geometry_suite,
    "braid": braid_suite,
    "twist": twist_suite,
    "cpt": cpt_suite,
    "tomita": tomita_suite,
    "wigner": wigner_suite,
}


def _run_one(name: str, model: AnyonModel | None, scene, seed: int) -> tuple[Report, str]:
    """One suite's report and the traceback text of its abort ("" if none).

    The text is returned, not printed: what a forked worker writes to an
    in-memory sys.stderr stays in the worker.  Module level, so that the
    pool can send it by name."""
    rep = Report(command="verify", suite=name, seed=seed)
    if name != "geometry" and not model_suite_guard(model, rep):
        return rep, ""
    try:
        rep.extend(_SUITE_FUNCS[name](model, scene, seed))
    except Exception as exc:
        # one failing suite is an error row, not the end of the run
        rep.add(f"{name}-aborted", ERROR, note=f"{type(exc).__name__}: {exc}")
        return rep, traceback.format_exc()
    return rep, ""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _run_all(model: AnyonModel | None, scene, seed: int) -> list[tuple[Report, str]]:
    """`_run_one` of every suite, in SUITES order.

    The suites run side by side in a pool of forked workers that lives for
    this call, longest first.  spawn and forkserver would re-import numpy in each worker
    (about 100 ms), so the suites run in this process where there is no
    fork or only one usable CPU.  The pool forks its workers before it
    starts its own threads.  A suite whose worker died becomes an
    "<suite>-aborted" error row.
    """
    names = SUITES[:-1]
    workers = min(len(names), _usable_cpus())
    if workers > 1:
        import multiprocessing  # not at module level: every import would pay for it

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            results = []
            with ProcessPoolExecutor(workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                futures = {n: pool.submit(_run_one, n, model, scene, seed)
                           for n in _LONGEST_FIRST}
                for n in names:
                    try:
                        results.append(futures[n].result())
                    except BrokenProcessPool as exc:
                        rep = Report(command="verify", suite=n, seed=seed)
                        rep.add(f"{n}-aborted", ERROR, note=f"{type(exc).__name__}: {exc}")
                        results.append((rep, ""))
            return results
    return [_run_one(n, model, scene, seed) for n in names]


def run_suite(name: str, model: AnyonModel | None, scene, seed: int) -> Report:
    """Run one suite, or every suite for "all".

    An exception raised inside a suite becomes an error row named
    "<suite>-aborted" (its traceback goes to stderr, in SUITES order for
    "all") and the remaining suites still run; an unknown suite name raises
    ValueError.
    """
    if name != "all" and name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    results = _run_all(model, scene, seed) if name == "all" else [_run_one(name, model, scene, seed)]
    rep = Report(command="verify", suite=name, seed=seed)
    for part, trace in results:
        sys.stderr.write(trace)
        rep.extend(part)
    return rep
