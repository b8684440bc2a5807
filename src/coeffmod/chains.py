"""Coefficient-module chains and their certificates.

Two chains are computed for a submodule M of analytic spread s:

* the relative chain M = floor of M_s <= ... <= M_1 inside the relative
  integral closure, where M_k is the largest module whose relative length
  polynomial against M has degree < s - k.  It is reached as the colon of
  M^(n0+1) by the first k elements of a verified minimal reduction of
  M^(n0), intersected with the saturation frame.

* the graded chain I(M)M <= M_[s] <= ... <= M_[1] <= M for the Fitting
  ideal I(M), where the degree condition reads on the lengths of
  M_[k] M^(n-1) / I(M) M^n and the colon target is I(M) M^(n0+1).

Maximality of a returned module cannot be decided by finite computation, so
every certificate separates what is proved (membership in the degree class,
all inclusions, a verified reduction witness) from what is sampled (the
join over random draws stabilized; a probe shows adjoined complement
elements break the degree bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import CoeffmodError, RegimeError, StructuralError, UnstableFitError
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
    mono_intersect,
    mono_quotient_monomials,
    poly_member_monomial,
    quotient_lifts,
    relative_quotient_dim,
    try_monomialize,
)
from .hilbert import (
    FittedPolynomial,
    capture_buchsbaum_rim,
    capture_graded,
    capture_rees_amao,
    fit,
    graded_floors,
)
from .modops import (
    ReductionWitness,
    analytic_spread,
    fitting_ideal,
    minimal_reduction,
    ratliff_rush,
    relative_closure,
    saturate,
)
from .poly import PolyElement


@dataclass
class CoefficientCertificate:
    """What was computed and what was verified for one chain link."""

    k: int
    n0: int
    reduction: ReductionWitness
    result: ModulePresentation
    degree_fit: FittedPolynomial
    threshold: int
    inclusive: bool  # degree <= threshold instead of <
    checks_passed: list
    complete: bool  # the randomized join stabilized
    joins: int

    def degree_ok(self) -> bool:
        d = self.degree_fit.degree
        return d <= self.threshold if self.inclusive else d < self.threshold


@dataclass
class ChainResult:
    spread: int
    certificates: list  # k = s down to 1
    nesting_verified: bool
    closure_link: Optional[CoefficientCertificate] = None  # the k = 0 top


@dataclass
class ProbeReport:
    k: int
    complement_size: int
    samples_tested: int
    violations: list
    vacuous: bool


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _contains_over(base: ModulePresentation, big: ModulePresentation, small: ModulePresentation) -> bool:
    """small <= big for modules both containing the monomial `base`, robust
    to infinite colength: compare lengths relative to the base."""
    try:
        return module_contains(big, small)
    except CoeffmodError:
        joined = module_sum(big, small)
        return relative_quotient_dim(joined, base) == relative_quotient_dim(big, base)


def _equal_over(base: ModulePresentation, a: ModulePresentation, b: ModulePresentation) -> bool:
    if a is b:
        return True
    try:
        return modules_equal(a, b)
    except CoeffmodError:
        da = relative_quotient_dim(a, base)
        db = relative_quotient_dim(b, base)
        ds = relative_quotient_dim(module_sum(a, b), base)
        return da == db == ds


def _fit_with_extension(capture_fn, nmax: int, window: int) -> FittedPolynomial:
    """Fit a table; when the tail has not stabilized, extend it once."""
    try:
        return fit(capture_fn(nmax), window=window)
    except UnstableFitError:
        return fit(capture_fn(nmax + max(4, nmax // 2)), window=window)


def _monomial_hint(mod: ModulePresentation) -> Optional[int]:
    try:
        witness = colength_exponent(mod)
    except CoeffmodError:
        return None
    return witness.exponent if witness.finite else None


def _n0_schedule(attempt: int, per_level: int = 2) -> int:
    return 1 + attempt // per_level


# ---------------------------------------------------------------------------
# the relative chain (between M and its relative integral closure)
# ---------------------------------------------------------------------------


def _relative_candidate(
    mod: ModulePresentation,
    k: int,
    witness: ReductionWitness,
    sat_module: ModulePresentation,
    hint: Optional[int],
) -> ModulePresentation:
    target = module_power(mod, witness.n0 + 1)
    candidate = colon_into_frame(target, witness.elems[:k], sat_module, mod)
    return try_monomialize(candidate, colength_hint=hint)


def _relative_degree_fit(candidate, mod, nmax, window) -> FittedPolynomial:
    """Fit of n -> length(candidate^n / M^n), memoised on M per candidate.

    Joins, absorption trials and probe picks often reach the same module;
    presentations are canonical, so the generators identify it.
    """
    return memo(
        mod,
        ("relative fit", candidate.tdeg, tuple(candidate.gens), nmax, window),
        lambda: _fit_with_extension(
            lambda n: capture_rees_amao(candidate, mod, n, verify_inclusion=False),
            nmax,
            window,
        ),
    )


def _absorb_complement(
    result: ModulePresentation,
    frame: ModulePresentation,
    degree_ok,
    join_with,
):
    """Grow a verified class member by complement elements of the frame.

    Adjoining y keeps the module inside the degree class only when y lies in
    the unique maximal member, so each absorbed element is provably part of
    the answer; on a monomial chain the fixpoint is the maximal member
    itself, because its quotient by the result is spanned by monomials.
    Returns (module, number of absorbed elements).
    """
    absorbed = result
    added = 0
    changed = True
    while changed:
        changed = False
        for y in _complement_elements(frame, absorbed):
            trial = join_with(absorbed, y)
            if degree_ok(trial):
                absorbed = trial
                added += 1
                changed = True
                break  # complement shifted; re-enumerate
    return absorbed, added


def _absorb_relative(mod, s, k, result, sat_res, hint, nmax, window):
    frame = relative_closure(mod) if mod.monomial else sat_res

    def degree_ok(trial):
        return _relative_degree_fit(trial, mod, nmax, window).degree < s - k

    def join_with(current, y):
        return try_monomialize(
            module_sum(current, ModulePresentation(mod.ring, [y], tdeg=mod.tdeg)),
            colength_hint=hint,
        )

    return _absorb_complement(result, frame, degree_ok, join_with)


def coefficient_module(
    mod: ModulePresentation,
    k: int,
    rng,
    budget: int = 8,
    nmax: int = 8,
    window: int = 3,
    spread: Optional[int] = None,
    sat_module: Optional[ModulePresentation] = None,
    reduction: Optional[ReductionWitness] = None,
) -> CoefficientCertificate:
    """Largest-module candidate for the k-th link of the relative chain.

    Draws minimal reductions of M^n0 for n0 = 1, 2, ... within the budget,
    colons the next power by the first k reduction elements inside the
    saturation frame, joins the candidates, and certifies the degree bound
    on the join.  The returned module is always a proved member of the
    degree class containing M; `complete` records whether the join
    stabilized across consecutive draws.
    """
    if budget < 1:
        raise StructuralError("budget must allow at least one draw")
    s = spread if spread is not None else analytic_spread(mod).spread
    if not 1 <= k <= s:
        raise StructuralError(f"k = {k} outside 1..{s}")
    sat_res = sat_module if sat_module is not None else saturate(mod).module
    hint = _monomial_hint(mod)
    join = None
    joins = 0
    best = None
    witness = None
    for attempt in range(budget):
        if reduction is not None and attempt == 0:
            witness = reduction
        else:
            n0 = _n0_schedule(attempt)
            witness = minimal_reduction(mod, n0, s, rng, spread=s)
        candidate = _relative_candidate(mod, k, witness, sat_res, hint)
        if join is None:
            new_join = candidate
        else:
            new_join = try_monomialize(module_sum(join, candidate), colength_hint=hint)
        stable = join is not None and _equal_over(mod, new_join, join)
        join = new_join
        joins += 1
        fitted = _relative_degree_fit(join, mod, nmax, window)
        if fitted.degree < s - k:
            best = (join, fitted, witness)
            if stable:
                return _finish_relative(
                    mod, k, s, sat_res, _absorbed_best(mod, s, k, best, sat_res, hint, nmax, window),
                    joins, complete=True,
                )
    if best is None:
        # fall back to the floor itself, a trivially valid member
        trivial = _relative_degree_fit(mod, mod, nmax, window)
        best = (mod, trivial, witness)
    best = _absorbed_best(mod, s, k, best, sat_res, hint, nmax, window)
    return _finish_relative(mod, k, s, sat_res, best, joins, complete=False)


def _absorbed_best(mod, s, k, best, sat_res, hint, nmax, window):
    """Run complement absorption on a passing candidate; refresh its fit."""
    result, fitted, witness = best
    absorbed, added = _absorb_relative(mod, s, k, result, sat_res, hint, nmax, window)
    if added:
        fitted = _relative_degree_fit(absorbed, mod, nmax, window)
    return absorbed, fitted, witness, added


def _finish_relative(mod, k, s, sat_res, best, joins, complete) -> CoefficientCertificate:
    result, fitted, witness, added = best
    checks = ["reduction verified (s elements, stabilized powers)"]
    checks.append(f"complement absorption reached a fixpoint ({added} elements added)")
    if _contains_over(mod, result, mod):
        checks.append("contains the base module")
    if all(poly_member_monomial(g, sat_res.mono_gens) for g in result.gens):
        checks.append("inside the saturation frame")
    if mod.monomial:
        closure = relative_closure(mod)
        if all(poly_member_monomial(g, closure.mono_gens) for g in result.gens):
            checks.append("inside the relative integral closure")
    cert = CoefficientCertificate(
        k=k,
        n0=witness.n0,
        reduction=witness,
        result=result,
        degree_fit=fitted,
        threshold=s - k,
        inclusive=False,
        checks_passed=checks,
        complete=complete,
        joins=joins,
    )
    if cert.degree_ok():
        cert.checks_passed.append(f"relative degree {fitted.degree} < {s - k}")
    return cert


def coefficient_chain(
    mod: ModulePresentation,
    rng,
    budget: int = 6,
    nmax: int = 8,
    window: int = 3,
) -> ChainResult:
    """The whole relative chain, reusing one reduction across all k.

    A single (n0, reduction) serves every link; fresh draws happen only on
    verification failure.  Inclusions along the chain are verified exactly.
    """
    s = analytic_spread(mod).spread
    sat_res = saturate(mod).module
    hint = _monomial_hint(mod)
    joins = {k: None for k in range(1, s + 1)}
    fits = {}
    witness_used = {}
    witness = None
    all_pass = False
    draws = 0
    for attempt in range(budget):
        n0 = _n0_schedule(attempt)
        witness = minimal_reduction(mod, n0, s, rng, spread=s)
        draws += 1
        stable_all = True
        for k in range(s, 0, -1):
            candidate = _relative_candidate(mod, k, witness, sat_res, hint)
            if joins[k] is None:
                new_join = candidate
            else:
                new_join = try_monomialize(module_sum(joins[k], candidate), colength_hint=hint)
            if joins[k] is None or not _equal_over(mod, new_join, joins[k]):
                stable_all = False
                witness_used[k] = witness
            elif k not in witness_used:
                witness_used[k] = witness
            joins[k] = new_join
        if stable_all:
            fits = {}
            all_pass = True
            for k in range(s, 0, -1):
                fitted = _relative_degree_fit(joins[k], mod, nmax, window)
                fits[k] = fitted
                if not fitted.degree < s - k:
                    all_pass = False
                    break
            if all_pass:
                break
    complete = all_pass and len(fits) == s
    certificates = []
    for k in range(s, 0, -1):
        fitted = fits.get(k) or _relative_degree_fit(joins[k], mod, nmax, window)
        best = _absorbed_best(
            mod, s, k, (joins[k], fitted, witness_used.get(k, witness)), sat_res, hint, nmax, window
        )
        certificates.append(_finish_relative(mod, k, s, sat_res, best, draws, complete))
    nesting = _verify_relative_nesting(mod, certificates, sat_res)
    closure_link = None
    if mod.monomial:
        qmod = relative_closure(mod)
        q_fit = _relative_degree_fit(qmod, mod, nmax, window)
        closure_link = CoefficientCertificate(
            k=0,
            n0=0,
            reduction=ReductionWitness([], 0, 0),
            result=qmod,
            degree_fit=q_fit,
            threshold=s,
            inclusive=False,
            checks_passed=["relative integral closure computed from the exponent polyhedron"],
            complete=True,
            joins=0,
        )
        nesting = nesting and _contains_over(mod, qmod, certificates[-1].result)
    return ChainResult(s, certificates, nesting, closure_link)


def _verify_relative_nesting(mod, certificates, sat_res) -> bool:
    previous = mod
    for cert in certificates:  # k = s down to 1: ascending modules
        if not _contains_over(mod, cert.result, previous):
            return False
        previous = cert.result
    if sat_res.monomial:
        return all(poly_member_monomial(g, sat_res.mono_gens) for g in previous.gens)
    return module_contains(sat_res, previous)


# ---------------------------------------------------------------------------
# maximality probe
# ---------------------------------------------------------------------------


def _complement_elements(top: ModulePresentation, result: ModulePresentation):
    """Representatives of nonzero cosets of top/result to probe with."""
    if top.monomial and result.monomial:
        return [
            PolyElement.from_monomial(top.ring, m)
            for m in mono_quotient_monomials(top, result)
        ]
    return quotient_lifts(top, result)


def maximality_probe(
    mod: ModulePresentation,
    cert: CoefficientCertificate,
    rng,
    sample_budget: int = 50,
    nmax: int = 8,
    window: int = 3,
    combo_samples: int = 2,
) -> ProbeReport:
    """Adjoin sampled complement elements and verify each breaks the bound.

    Evidence, not proof: the certificate's module is maximal only if no
    complement element keeps the degree low, and this samples from the
    complement of the result inside the top of the chain (the relative
    closure when monomial, the saturation frame otherwise).  Only
    relative-chain certificates are accepted: a graded certificate bounds a
    different length function, with threshold s - k - 1.
    """
    if cert.inclusive:
        raise StructuralError("maximality_probe takes relative-chain certificates, not graded ones")
    s = cert.threshold + cert.k
    if mod.monomial:
        top = relative_closure(mod)
    else:
        top = saturate(mod).module
    complement = _complement_elements(top, cert.result)
    if not complement:
        return ProbeReport(cert.k, 0, 0, [], vacuous=True)
    picks = [complement[rng.randrange(len(complement))] for _ in range(sample_budget)]
    for _ in range(combo_samples):
        a = complement[rng.randrange(len(complement))]
        b = complement[rng.randrange(len(complement))]
        combo = a.scale(mod.ring.field.random(rng)).add(b.scale(mod.ring.field.random(rng)))
        if not combo.is_zero():
            picks.append(combo)
    hint = _monomial_hint(mod)
    violations = []
    tested = 0
    for y in picks:
        enlarged = try_monomialize(
            module_sum(cert.result, ModulePresentation(mod.ring, [y], tdeg=mod.tdeg)),
            colength_hint=hint,
        )
        if _equal_over(mod, enlarged, cert.result):
            continue  # the pick was inside after all; not a complement point
        tested += 1
        fitted = _relative_degree_fit(enlarged, mod, nmax, window)
        if fitted.degree < s - cert.k:
            violations.append(y.text())
    return ProbeReport(cert.k, len(complement), tested, violations, vacuous=False)


# ---------------------------------------------------------------------------
# the graded chain (between I(M)M and M)
# ---------------------------------------------------------------------------


def _graded_candidate(mod, k, witness, floor, ideal, hint):
    target = module_multiply(ideal, module_power(mod, witness.n0 + 1))
    candidate = colon_into_frame(target, witness.elems[:k], mod, floor)
    return try_monomialize(candidate, colength_hint=hint)


def _graded_degree_fit(candidate, mod, ideal, nmax, window) -> FittedPolynomial:
    """Fit of n -> length(candidate M^(n-1) / ideal M^n), memoised on M per
    candidate and ideal."""
    return memo(
        mod,
        (
            "graded fit",
            candidate.tdeg,
            tuple(candidate.gens),
            ideal.tdeg,
            tuple(ideal.gens),
            nmax,
            window,
        ),
        lambda: _fit_with_extension(
            lambda n: capture_graded(candidate, mod, ideal, n),
            nmax,
            window,
        ),
    )


def _absorbed_graded_best(mod, s, k, best, ideal, hint, nmax, window):
    """Complement absorption inside the base module for the graded chain."""
    result, fitted, witness = best

    def degree_ok(trial):
        return _graded_degree_fit(trial, mod, ideal, nmax, window).degree <= s - (k + 1)

    def join_with(current, y):
        return try_monomialize(
            module_sum(current, ModulePresentation(mod.ring, [y], tdeg=mod.tdeg)),
            colength_hint=hint,
        )

    absorbed, added = _absorb_complement(result, mod, degree_ok, join_with)
    if added:
        fitted = _graded_degree_fit(absorbed, mod, ideal, nmax, window)
    return absorbed, fitted, witness, added


def graded_coefficient_module(
    mod: ModulePresentation,
    k: int,
    rng,
    budget: int = 8,
    nmax: int = 8,
    window: int = 3,
    ideal: Optional[ModulePresentation] = None,
    spread: Optional[int] = None,
) -> CoefficientCertificate:
    """Largest-module candidate between I(M)M and M at graded level k.

    The colon target is ideal * M^(n0+1) and the certified bound is
    degree <= s - (k+1) for the lengths of result * M^(n-1) / ideal * M^n.
    The ideal defaults to the Fitting ideal of M and must be supplied when
    M is itself a power of a smaller module.
    """
    if budget < 1:
        raise StructuralError("budget must allow at least one draw")
    witness0 = colength_exponent(mod)
    if not witness0.finite:
        raise RegimeError("the graded chain needs finite colength")
    s = spread if spread is not None else analytic_spread(mod).spread
    if not 1 <= k <= s:
        raise StructuralError(f"k = {k} outside 1..{s}")
    ideal = ideal if ideal is not None else fitting_ideal(mod)
    floor = graded_floors(mod, ideal, 1)[0]
    hint = _monomial_hint(floor)
    join = None
    joins = 0
    best = None
    witness = None
    for attempt in range(budget):
        n0 = _n0_schedule(attempt)
        witness = minimal_reduction(mod, n0, s, rng, spread=s)
        candidate = _graded_candidate(mod, k, witness, floor, ideal, hint)
        if join is None:
            new_join = candidate
        else:
            new_join = try_monomialize(module_sum(join, candidate), colength_hint=hint)
        stable = join is not None and _equal_over(floor, new_join, join)
        join = new_join
        joins += 1
        fitted = _graded_degree_fit(join, mod, ideal, nmax, window)
        if fitted.degree <= s - (k + 1):
            best = (join, fitted, witness)
            if stable:
                return _finish_graded(
                    mod, k, s, floor,
                    _absorbed_graded_best(mod, s, k, best, ideal, hint, nmax, window),
                    joins, complete=True,
                )
    if best is None:
        trivial = _graded_degree_fit(floor, mod, ideal, nmax, window)
        best = (floor, trivial, witness)
    best = _absorbed_graded_best(mod, s, k, best, ideal, hint, nmax, window)
    return _finish_graded(mod, k, s, floor, best, joins, complete=False)


def _finish_graded(mod, k, s, floor, best, joins, complete) -> CoefficientCertificate:
    result, fitted, witness, added = best
    checks = ["reduction verified (s elements, stabilized powers)"]
    checks.append(f"complement absorption reached a fixpoint ({added} elements added)")
    if _contains_over(floor, result, floor):
        checks.append("contains ideal * M")
    if module_contains(mod, result):
        checks.append("inside the base module")
    cert = CoefficientCertificate(
        k=k,
        n0=witness.n0,
        reduction=witness,
        result=result,
        degree_fit=fitted,
        threshold=s - (k + 1),
        inclusive=True,
        checks_passed=checks,
        complete=complete,
        joins=joins,
    )
    if cert.degree_ok():
        cert.checks_passed.append(f"graded degree {fitted.degree} <= {s - (k + 1)}")
    return cert


def graded_chain(
    mod: ModulePresentation,
    rng,
    budget: int = 6,
    nmax: int = 8,
    window: int = 3,
    ideal: Optional[ModulePresentation] = None,
) -> ChainResult:
    """The whole graded chain with one reduction shared across k."""
    witness0 = colength_exponent(mod)
    if not witness0.finite:
        raise RegimeError("the graded chain needs finite colength")
    s = analytic_spread(mod).spread
    ideal = ideal if ideal is not None else fitting_ideal(mod)
    floor = graded_floors(mod, ideal, 1)[0]
    hint = _monomial_hint(floor)
    joins = {k: None for k in range(1, s + 1)}
    fits = {}
    witness_used = {}
    witness = None
    all_pass = False
    draws = 0
    for attempt in range(budget):
        n0 = _n0_schedule(attempt)
        witness = minimal_reduction(mod, n0, s, rng, spread=s)
        draws += 1
        stable_all = True
        for k in range(s, 0, -1):
            candidate = _graded_candidate(mod, k, witness, floor, ideal, hint)
            if joins[k] is None:
                new_join = candidate
            else:
                new_join = try_monomialize(module_sum(joins[k], candidate), colength_hint=hint)
            if joins[k] is None or not _equal_over(floor, new_join, joins[k]):
                stable_all = False
                witness_used[k] = witness
            elif k not in witness_used:
                witness_used[k] = witness
            joins[k] = new_join
        if stable_all:
            fits = {}
            all_pass = True
            for k in range(s, 0, -1):
                fitted = _graded_degree_fit(joins[k], mod, ideal, nmax, window)
                fits[k] = fitted
                if not fitted.degree <= s - (k + 1):
                    all_pass = False
                    break
            if all_pass:
                break
    complete = all_pass and len(fits) == s
    certificates = []
    for k in range(s, 0, -1):
        fitted = fits.get(k) or _graded_degree_fit(joins[k], mod, ideal, nmax, window)
        best = _absorbed_graded_best(
            mod, s, k, (joins[k], fitted, witness_used.get(k, witness)), ideal, hint, nmax, window
        )
        certificates.append(_finish_graded(mod, k, s, floor, best, draws, complete))
    nesting = _verify_graded_nesting(mod, floor, certificates)
    return ChainResult(s, certificates, nesting)


def _verify_graded_nesting(mod, floor, certificates) -> bool:
    previous = floor
    for cert in certificates:  # k = s down to 1: ascending modules
        if not _contains_over(floor, cert.result, previous):
            return False
        previous = cert.result
    if mod.monomial:
        return all(poly_member_monomial(g, mod.mono_gens) for g in previous.gens)
    return module_contains(mod, previous)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def check_top_link_meets_ratliff_rush(
    mod: ModulePresentation, rng, budget: int = 8, nmax: int = 8
) -> CheckReport:
    """The k = s link must equal the Ratliff-Rush closure meet saturation."""
    s = analytic_spread(mod).spread
    cert = coefficient_module(mod, s, rng, budget=budget, nmax=nmax, spread=s)
    rr = ratliff_rush(mod).module
    sat_res = saturate(mod).module
    if mod.monomial:
        # the colon chain of a monomial module is monomial, so the meet is
        # plain lattice combinatorics
        meet = mono_intersect(rr, sat_res)
    else:
        meet = rr  # finite colength: the saturation is everything
    equal = _equal_over(mod, cert.result, meet)
    return CheckReport(
        "top link equals Ratliff-Rush meet saturation",
        equal,
        {
            "k": s,
            "chain link": cert.result.text(),
            "closure meet": meet.text(),
            "complete": cert.complete,
        },
    )


def check_coefficient_preservation(
    mod: ModulePresentation, k: int, rng, budget: int = 8, nmax: int = 8
) -> CheckReport:
    """The first k+1 length-polynomial coefficients of M survive in M_k.

    k = 0 compares against the closure top of the chain (the multiplicity
    preservation statement); k >= 1 against the computed k-th link.
    """
    ring = mod.ring
    top = ring.d + ring.p - 1
    witness = colength_exponent(mod)
    if not witness.finite:
        return CheckReport("coefficient preservation", False, {"note": "hypothesis not met: infinite colength"})
    s = analytic_spread(mod).spread
    if s != top:
        return CheckReport(
            "coefficient preservation",
            False,
            {"note": f"hypothesis not met: spread {s} != {top}"},
        )
    if k == 0:
        if not mod.monomial:
            return CheckReport(
                "coefficient preservation",
                False,
                {"note": "k = 0 needs the closure, available in the monomial regime only"},
            )
        link = relative_closure(mod)
        complete = True
    else:
        cert = coefficient_module(mod, k, rng, budget=budget, nmax=nmax, spread=s)
        link = cert.result
        complete = cert.complete
    base_fit = fit(capture_buchsbaum_rim(mod, nmax))
    link_fit = fit(capture_buchsbaum_rim(link, nmax))
    base_coeffs = base_fit.binomial_coefficients(top)
    link_coeffs = link_fit.binomial_coefficients(top)
    agree = base_coeffs[: k + 1] == link_coeffs[: k + 1]
    return CheckReport(
        "coefficient preservation",
        agree,
        {
            "k": k,
            "base coefficients": base_coeffs,
            "link coefficients": link_coeffs,
            "complete": complete,
        },
    )


def check_power_collapse(
    mod: ModulePresentation,
    k: int,
    rng,
    n_range: int = 4,
    budget: int = 6,
    nmax: int = 8,
) -> CheckReport:
    """For n = 1..n_range, test whether the graded link of M^n collapses to
    I(M) M^n; for rank one also evaluate the relative-chain analogue
    M^n = (M^n)_k and report whether the two predicates agree."""
    ring = mod.ring
    witness = colength_exponent(mod)
    if not witness.finite:
        return CheckReport("power collapse", False, {"note": "hypothesis not met: infinite colength"})
    s = analytic_spread(mod).spread
    ideal = fitting_ideal(mod)
    collapse = []
    second = []
    for n in range(1, n_range + 1):
        power = module_power(mod, n)
        gcert = graded_coefficient_module(
            power, k, rng, budget=budget, nmax=nmax, ideal=ideal, spread=s
        )
        floor_n = module_multiply(ideal, power)
        collapse.append((n, _equal_over(floor_n, gcert.result, floor_n)))
        if ring.p == 1:
            rcert = coefficient_module(power, k, rng, budget=budget, nmax=nmax, spread=s)
            second.append((n, _equal_over(power, rcert.result, power)))
    details = {"k": k, "graded collapse by n": collapse}
    passed = True
    if ring.p == 1:
        details["relative collapse by n"] = second
        pred1 = all(v for _, v in collapse)
        pred2 = all(v for _, v in second)
        details["predicates agree"] = pred1 == pred2
        passed = pred1 == pred2
    return CheckReport("power collapse", passed, details)
