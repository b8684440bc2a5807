"""Closure and reduction operations on module presentations.

Saturation, Ratliff-Rush closure, Fitting ideal, Newton-polyhedron integral
closure of monomial modules, the relative integral closure, reduction
checking and randomized minimal reductions, and the analytic spread.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CoeffmodError,
    GenericityFailureError,
    InfiniteLengthError,
    RankDeficientError,
    RegimeError,
    StructuralError,
    UndecidedColengthError,
    UndecidedSpreadError,
    UnstableFitError,
    UnstableUnionError,
)
from .graded import (
    ModulePresentation,
    colength_exponent,
    colon_into_frame,
    memo,
    module_contains,
    module_multiply,
    module_power,
    module_sum,
    modules_equal,
)
from .hilbert import NumericalFunction, capture_fiber, capture_rees_amao, fit
from .linalg import PrimeField
from .poly import Monomial, PolyElement, RingDescriptor, compositions


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationResult:
    module: ModulePresentation
    index: int  # least k with (M : m^k) = (M : m^(k+1))


def saturate(mod: ModulePresentation, step_cap: int = 256) -> SaturationResult:
    """Union of the colon chain (M : m^k), stabilized by Noetherian ascent.

    Monomial modules are saturated combinatorially whatever their colength;
    a general module must have finite colength, in which case the saturation
    is the whole degree piece.  The result is memoised on the presentation.
    """
    return memo(mod, ("saturation", step_cap), lambda: _saturate(mod, step_cap))


def _saturate(mod: ModulePresentation, step_cap: int) -> SaturationResult:
    ring = mod.ring
    if mod.monomial:
        mm = ModulePresentation.maximal_ideal(ring).mono
        current = mod
        for k in range(step_cap):
            nxt = current.mono.colon(mm)
            if nxt == current.mono:
                return SaturationResult(current, k)
            current = ModulePresentation(ring, nxt)
        raise UnstableUnionError(f"saturation chain still moving after {step_cap} steps", partial=current)
    witness = colength_exponent(mod)
    if not witness.finite:
        raise RegimeError("general-regime saturation needs finite colength")
    return SaturationResult(ModulePresentation.free(ring, mod.tdeg), witness.exponent)


# ---------------------------------------------------------------------------
# Ratliff-Rush closure
# ---------------------------------------------------------------------------


@dataclass
class RatliffRushResult:
    module: ModulePresentation
    index: int  # first n at which the union reached its final value
    steps: int  # how many colons were inspected


def _one_step_colon(mod: ModulePresentation, n: int) -> ModulePresentation:
    """(M^(n+1) : M^n) inside the degree piece of M itself."""
    power_hi = module_power(mod, n + 1)
    power_lo = module_power(mod, n)
    if mod.monomial:
        return ModulePresentation(mod.ring, power_hi.mono.colon(power_lo.mono))
    frame = ModulePresentation.free(mod.ring, mod.tdeg)
    return colon_into_frame(power_hi, list(power_lo.gens), frame, mod)


def ratliff_rush(mod: ModulePresentation, n_max: int = 16, window: int = 2) -> RatliffRushResult:
    """Union of the colons (M^(n+1) : M^n), declared stable only after it
    stops moving for `window` further steps."""
    union = mod
    reached_at = 0
    stable = 0
    for n in range(1, n_max + 1):
        step = _one_step_colon(mod, n)
        enlarged = module_sum(union, step)
        if modules_equal(enlarged, union):
            stable += 1
            if stable >= window:
                return RatliffRushResult(union, reached_at, n)
        else:
            union = enlarged
            reached_at = n
            stable = 0
    raise UnstableUnionError(
        f"Ratliff-Rush union still moving after {n_max} colon steps", partial=union
    )


# ---------------------------------------------------------------------------
# Fitting ideal
# ---------------------------------------------------------------------------


def _poly_determinant(ring: RingDescriptor, rows) -> PolyElement:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = PolyElement.zero(ring)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = entry.mul(_poly_determinant(ring, minor))
        out = out.add(term) if j % 2 == 0 else out.sub(term)
    return out


def fitting_ideal(mod: ModulePresentation) -> ModulePresentation:
    """Ideal of p x p minors of the generator matrix of a degree-1 module.

    Generators are written in the free basis t_1..t_p; the result is a
    t-degree-0 presentation.  Requires at least p generators.
    """
    ring = mod.ring
    if mod.tdeg == 0:
        # an ideal is its own zeroth Fitting ideal (1 x g generator matrix)
        return mod
    if mod.tdeg != 1:
        raise RegimeError("Fitting ideal defined for submodules of the free module itself")
    g = len(mod.gens)
    if g < ring.p:
        raise RankDeficientError(f"{g} generators cannot span rank {ring.p}")
    zero_t = (0,) * ring.p
    columns = []
    for gen in mod.gens:
        col = [PolyElement.zero(ring) for _ in range(ring.p)]
        for m, c in gen.coeffs.items():
            j = m.texp.index(1)
            col[j] = col[j].add(PolyElement(ring, {Monomial(m.xexp, zero_t): c}))
        columns.append(col)
    minors = []
    for subset in itertools.combinations(range(g), ring.p):
        rows = [[columns[c][r] for c in subset] for r in range(ring.p)]
        det = _poly_determinant(ring, rows)
        if not det.is_zero():
            minors.append(det)
    if not minors:
        raise RankDeficientError("all maximal minors vanish; generator matrix has rank < p")
    return ModulePresentation(ring, minors, tdeg=0)


# ---------------------------------------------------------------------------
# Newton polyhedron membership: exact LP plus a bounded power test
# ---------------------------------------------------------------------------


def _simplex_feasible(a_ub, b_ub, a_eq, b_eq):
    """Phase-1 simplex over Fractions with Bland's rule.

    Decides existence of x >= 0 with a_ub x <= b_ub and a_eq x = b_eq;
    all right-hand sides must be nonnegative.  Returns a solution or None.
    """
    m_ub, m_eq = len(a_ub), len(a_eq)
    nvars = len(a_ub[0]) if a_ub else len(a_eq[0])
    total = nvars + m_ub + m_eq
    rows = []
    basis = []
    for i, (arow, b) in enumerate(zip(a_ub, b_ub)):
        assert b >= 0
        row = [Fraction(v) for v in arow] + [Fraction(0)] * (m_ub + m_eq) + [Fraction(b)]
        row[nvars + i] = Fraction(1)
        rows.append(row)
        basis.append(nvars + i)
    for i, (arow, b) in enumerate(zip(a_eq, b_eq)):
        assert b >= 0
        row = [Fraction(v) for v in arow] + [Fraction(0)] * (m_ub + m_eq) + [Fraction(b)]
        row[nvars + m_ub + i] = Fraction(1)
        rows.append(row)
        basis.append(nvars + m_ub + i)
    # phase-1 objective: minimize the artificial variables
    obj = [Fraction(0)] * (total + 1)
    for i in range(m_ub, m_ub + m_eq):
        for j in range(total + 1):
            obj[j] += rows[i][j]
    artificial = set(range(nvars + m_ub, total))
    while True:
        enter = next(
            (j for j in range(total) if j not in artificial and obj[j] > 0),
            None,
        )
        if enter is None:
            break
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[total] / row[enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break  # unbounded entering direction cannot reduce artificials
        _, leave = best
        pivot = rows[leave][enter]
        rows[leave] = [v / pivot for v in rows[leave]]
        for i in range(len(rows)):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, rows[leave])]
        basis[leave] = enter
    if obj[total] != 0:
        return None
    solution = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            solution[b] = rows[i][total]
    return solution


def _exponent_vector(m: Monomial):
    return tuple(m.xexp) + tuple(m.texp)


def newton_member_lp(candidate: Monomial, gens) -> bool:
    """candidate in conv(gen exponents) + nonnegative orthant, decided by
    exact rational feasibility."""
    u = _exponent_vector(candidate)
    vs = [_exponent_vector(g) for g in gens]
    dims = len(u)
    a_ub = [[Fraction(v[c]) for v in vs] for c in range(dims)]
    b_ub = [Fraction(u[c]) for c in range(dims)]
    a_eq = [[Fraction(1)] * len(vs)]
    b_eq = [Fraction(1)]
    return _simplex_feasible(a_ub, b_ub, a_eq, b_eq) is not None


def newton_member_power_test(candidate: Monomial, gens, r_max: int) -> bool:
    """Sound but bounded cross-check: search a multiset of r generators with
    exponent sum below r * candidate, for r <= r_max."""
    u = _exponent_vector(candidate)
    vs = [_exponent_vector(g) for g in gens]
    dims = len(u)

    def search(i, left, acc, target):
        if left == 0:
            return all(acc[c] <= target[c] for c in range(dims))
        if i >= len(vs):
            return False
        for take in range(left, -1, -1):
            nxt = tuple(acc[c] + take * vs[i][c] for c in range(dims))
            if all(nxt[c] <= target[c] for c in range(dims)):
                if search(i + 1, left - take, nxt, target):
                    return True
            # taking fewer of this generator can only lower the sum
        return False

    for r in range(1, r_max + 1):
        target = tuple(r * u[c] for c in range(dims))
        if search(0, r, (0,) * dims, target):
            return True
    return False


def monomial_integral_closure(mod: ModulePresentation, cross_check: bool = False) -> ModulePresentation:
    """Integral closure of a monomial module: the lattice points of the
    Newton polyhedron of its generators, in the same t-degree.

    A minimal closure generator never exceeds the componentwise maximum of
    the generator x-exponents, so candidates range over that finite box.
    With cross_check the bounded power test must confirm every LP answer.
    """
    if not mod.monomial:
        raise RegimeError("integral closure implemented for monomial modules only")
    ring = mod.ring
    gens = list(mod.mono_gens)
    if not gens:
        return mod
    xmax = [max(g.xexp[i] for g in gens) for i in range(ring.d)]
    members = []
    r_bound = ring.d + ring.p
    for beta in compositions(mod.tdeg, ring.p):
        for xexp in itertools.product(*(range(b + 1) for b in xmax)):
            cand = Monomial(xexp, beta)
            inside = newton_member_lp(cand, gens)
            if cross_check:
                power = newton_member_power_test(cand, gens, r_bound)
                if power and not inside:
                    raise StructuralError(
                        f"power test admits {cand.text()} but the polyhedron test refuses it"
                    )
            if inside:
                members.append(cand)
    return ModulePresentation.from_monomials(ring, members)


def relative_closure(mod: ModulePresentation) -> ModulePresentation:
    """Integral closure intersected with the saturation (monomial regime),
    memoised on the presentation."""
    if not mod.monomial:
        raise RegimeError("relative integral closure needs the monomial regime")
    return memo(
        mod,
        ("relative closure",),
        lambda: ModulePresentation(mod.ring, monomial_integral_closure(mod).mono.intersect(saturate(mod).module.mono)),
    )


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


@dataclass
class ReductionWitness:
    elems: list  # the (ordered) elements generating the reduction
    n0: int  # the power of the module the elements were drawn from
    r: int  # least r with N * M^r = M^(r+1)
    seed: Optional[int] = None


@dataclass
class ReductionRefutation:
    r_max: int
    note: str = ""
    fit_degree: Optional[int] = None


def is_reduction(sub: ModulePresentation, mod: ModulePresentation, r_max: int = 8):
    """Search for the least r with sub * M^r = M^(r+1); verify r+1 as well.

    Returns a ReductionWitness on success and a ReductionRefutation after
    r_max failures.  The refutation carries the Rees-Amao degree evidence
    when the pair has finite relative colength.
    """
    if not module_contains(mod, sub):
        raise StructuralError("candidate reduction is not contained in the module")

    def step_holds(r: int) -> bool:
        target = module_power(mod, r + 1)
        if r == 0:
            return modules_equal(sub, mod)
        product = module_multiply(sub, module_power(mod, r))
        return module_contains(product, target)

    for r in range(r_max + 1):
        if step_holds(r):
            if r + 1 <= r_max + 1 and not step_holds(r + 1):
                raise StructuralError(
                    "reduction equality held at one power but failed at the next; "
                    "this contradicts persistence and signals a truncation bug"
                )
            return ReductionWitness(list(sub.gens), 1, r)
    note = "no stabilization up to r_max"
    fit_degree = None
    try:
        table = capture_rees_amao(mod, sub, max(6, r_max))
        fit_degree = fit(table, window=2).degree
        note += f"; relative length growth has degree {fit_degree}"
    except CoeffmodError:
        note += "; relative degree evidence unavailable"
    return ReductionRefutation(r_max, note, fit_degree)


def minimal_reduction(
    mod: ModulePresentation,
    n0: int,
    count: int,
    rng,
    r_max: int = 8,
    attempts: int = 24,
    spread: Optional[int] = None,
) -> ReductionWitness:
    """Draw `count` random combinations of the generators of M^n0 until they
    form a verified reduction of M^n0.

    Coefficients come from the whole field (a bounded integer box over Q),
    emulating the infinite-residue-field genericity assumption; failures
    exhaust the attempt budget and raise.
    """
    ring = mod.ring
    if spread is not None and count < spread:
        raise StructuralError(
            f"{count} elements can never reduce a module of analytic spread {spread}"
        )
    if isinstance(ring.field, PrimeField) and ring.field.q < 10**4:
        warnings.warn(
            f"residue field of size {ring.field.q} is small for genericity arguments",
            stacklevel=2,
        )
    base = module_power(mod, n0)
    gens = list(base.gens)
    for _ in range(attempts):
        elems = []
        for _ in range(count):
            combo = PolyElement.zero(ring)
            for g in gens:
                combo = combo.add(g.scale(ring.field.random(rng)))
            elems.append(combo)
        if any(e.is_zero() for e in elems):
            continue
        candidate = ModulePresentation(ring, elems, tdeg=base.tdeg)
        try:
            outcome = is_reduction(candidate, base, r_max)
        except (UndecidedColengthError, InfiniteLengthError):
            if colength_exponent(base).finite:
                continue  # degenerate draw; spend another attempt
            raise  # M^n0 has infinite colength, so every draw would end here
        if isinstance(outcome, ReductionWitness):
            return ReductionWitness(elems, n0, outcome.r)
    raise GenericityFailureError(
        f"no reduction found in {attempts} attempts; try a larger field or a larger power"
    )


# ---------------------------------------------------------------------------
# analytic spread
# ---------------------------------------------------------------------------


@dataclass
class SpreadReport:
    spread: int
    table: NumericalFunction
    fitted: object


def analytic_spread(mod: ModulePresentation, n_max: int = 8, window: int = 3) -> SpreadReport:
    """Dimension of the fiber cone: one more than the degree of the minimal
    generator count of M^n as a polynomial in n."""
    if mod.is_zero():
        raise RegimeError("the zero module has no analytic spread")
    table = capture_fiber(mod, n_max)
    try:
        fitted = fit(table, window=window)
    except UnstableFitError:
        table = capture_fiber(mod, 2 * n_max)
        try:
            fitted = fit(table, window=window)
        except UnstableFitError as exc:
            raise UndecidedSpreadError(
                f"fiber table did not stabilize by n = {2 * n_max}", table=table.values
            ) from exc
    return SpreadReport(fitted.degree + 1, table, fitted)
