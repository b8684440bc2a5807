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

One link search, one chain loop and one complement absorption build both;
a ChainKind, made per call, holds what separates them.

Maximality of a returned module cannot be decided by finite computation, so
every certificate separates what is proved (membership in the degree class,
all inclusions, a verified reduction witness) from what is sampled (the
join over random draws stabilized; a probe shows adjoined complement
elements break the degree bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    quotient_length,
    quotient_lifts,
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
        return _within(self.degree_fit.degree, self.threshold, self.inclusive)


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


def _within(degree: int, threshold: int, inclusive: bool) -> bool:
    return degree <= threshold if inclusive else degree < threshold


def _contains_over(base: ModulePresentation, big: ModulePresentation, small: ModulePresentation) -> bool:
    """small <= big for modules both containing the monomial `base`, robust
    to infinite colength: compare lengths relative to the base."""
    try:
        return module_contains(big, small)
    except CoeffmodError:
        joined = module_sum(big, small)
        return quotient_length(joined, base, verify_inclusion=False) == quotient_length(
            big, base, verify_inclusion=False
        )


def _equal_over(base: ModulePresentation, a: ModulePresentation, b: ModulePresentation) -> bool:
    if a is b:
        return True
    try:
        return modules_equal(a, b)
    except CoeffmodError:
        da = quotient_length(a, base, verify_inclusion=False)
        db = quotient_length(b, base, verify_inclusion=False)
        ds = quotient_length(module_sum(a, b), base, verify_inclusion=False)
        return da == db == ds


def _join(a: ModulePresentation, b: ModulePresentation, hint: Optional[int]) -> ModulePresentation:
    return try_monomialize(module_sum(a, b), colength_hint=hint)


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


# ---------------------------------------------------------------------------
# the two chains as kinds of one construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainKind:
    """Everything that separates the relative chain from the graded one.

    Both chains are built by one link search and one chain loop: the link
    at level k is the largest module above `floor` whose degree fit stays
    within s - k - shift, reached as the colon of target(n0) by the first k
    elements of a reduction of M^(n0) inside `frame`, and grown inside `top`
    by complement absorption.  A kind is built per call, for one base.
    """

    name: str  # "relative" or "graded", as the degree check reads
    mod: ModulePresentation  # the base M
    spread: int
    floor: ModulePresentation  # M, or I(M) M
    frame: ModulePresentation  # the colon frame: sat(M), or M
    top: ModulePresentation  # absorption and probe top: q(M) or sat(M), or M
    target: Callable  # n0 -> M^(n0+1), or I(M) M^(n0+1)
    degree_fit: Callable  # candidate -> its memoised FittedPolynomial
    shift: int  # the threshold is s - k - shift
    inclusive: bool  # degree <= threshold instead of <
    finish: Callable  # the check builder: _finish_relative or _finish_graded
    hint: Optional[int]  # colength of the floor, for monomialising joins

    def threshold(self, k: int) -> int:
        return self.spread - k - self.shift

    def passes(self, fitted: FittedPolynomial, k: int) -> bool:
        return _within(fitted.degree, self.threshold(k), self.inclusive)


def _relative_kind(mod: ModulePresentation, nmax: int, window: int, spread: Optional[int] = None) -> ChainKind:
    """The relative chain M <= M_s <= ... <= M_1 <= q(M): degree < s - k for
    the lengths of M_k^n / M^n, colons of M^(n0+1) inside sat(M)."""
    s = spread if spread is not None else analytic_spread(mod).spread
    sat_res = saturate(mod).module
    return ChainKind(
        name="relative",
        mod=mod,
        spread=s,
        floor=mod,
        frame=sat_res,
        top=relative_closure(mod) if mod.monomial else sat_res,
        target=lambda n0: module_power(mod, n0 + 1),
        degree_fit=lambda candidate: _relative_degree_fit(candidate, mod, nmax, window),
        shift=0,
        inclusive=False,
        finish=_finish_relative,
        hint=_monomial_hint(mod),
    )


def _graded_kind(
    mod: ModulePresentation,
    ideal: Optional[ModulePresentation],
    nmax: int,
    window: int,
    spread: Optional[int] = None,
) -> ChainKind:
    """The graded chain I(M)M <= M_[s] <= ... <= M_[1] <= M: degree <= s - (k+1)
    for the lengths of M_[k] M^(n-1) / I(M) M^n, colons of I(M) M^(n0+1)
    inside M.  The ideal defaults to the Fitting ideal of M."""
    if not colength_exponent(mod).finite:
        raise RegimeError("the graded chain needs finite colength")
    s = spread if spread is not None else analytic_spread(mod).spread
    ideal = ideal if ideal is not None else fitting_ideal(mod)
    floor = graded_floors(mod, ideal, 1)[0]
    return ChainKind(
        name="graded",
        mod=mod,
        spread=s,
        floor=floor,
        frame=mod,
        top=mod,
        target=lambda n0: module_multiply(ideal, module_power(mod, n0 + 1)),
        degree_fit=lambda candidate: _graded_degree_fit(candidate, mod, ideal, nmax, window),
        shift=1,
        inclusive=True,
        finish=_finish_graded,
        hint=_monomial_hint(floor),
    )


def _draws(kind: ChainKind, rng, budget: int):
    """Verified minimal reductions of M^(n0), one per attempt of the budget."""
    if budget < 1:
        raise StructuralError("budget must allow at least one draw")
    s = kind.spread
    return (minimal_reduction(kind.mod, _n0_schedule(attempt), s, rng, spread=s) for attempt in range(budget))


def _candidate(kind: ChainKind, k: int, witness: ReductionWitness) -> ModulePresentation:
    candidate = colon_into_frame(kind.target(witness.n0), witness.elems[:k], kind.frame, kind.floor)
    return try_monomialize(candidate, colength_hint=kind.hint)


def _link(kind: ChainKind, k: int, rng, budget: int) -> CoefficientCertificate:
    """Largest-module candidate for the k-th link of the kind's chain.

    Draws minimal reductions of M^n0 for n0 = 1, 2, ... within the budget,
    colons the target by the first k reduction elements inside the frame,
    joins the candidates, and certifies the degree bound on the join.  The
    returned module is always a proved member of the degree class containing
    the floor; `complete` records whether the join stabilized across
    consecutive draws.
    """
    if not 1 <= k <= kind.spread:
        raise StructuralError(f"k = {k} outside 1..{kind.spread}")
    join = None
    joins = 0
    best = None
    for witness in _draws(kind, rng, budget):
        candidate = _candidate(kind, k, witness)
        new_join = candidate if join is None else _join(join, candidate, kind.hint)
        stable = join is not None and _equal_over(kind.floor, new_join, join)
        join = new_join
        joins += 1
        fitted = kind.degree_fit(join)
        if kind.passes(fitted, k):
            best = (join, fitted, witness)
            if stable:
                return kind.finish(kind, k, _absorb_complement(kind, k, best), joins, complete=True)
    if best is None:
        # fall back to the floor itself, a trivially valid member
        best = (kind.floor, kind.degree_fit(kind.floor), witness)
    return kind.finish(kind, k, _absorb_complement(kind, k, best), joins, complete=False)


def _chain(kind: ChainKind, rng, budget: int) -> ChainResult:
    """The whole chain of the kind, reusing one reduction across all k.

    A single (n0, reduction) serves every link; fresh draws happen until
    every join is stable and passes its bound.  Inclusions along the chain
    are verified exactly.
    """
    s = kind.spread
    joins = {k: None for k in range(1, s + 1)}
    witness_used = {}
    complete = False
    draws = 0
    for witness in _draws(kind, rng, budget):
        draws += 1
        stable_all = True
        for k in range(s, 0, -1):
            candidate = _candidate(kind, k, witness)
            new_join = candidate if joins[k] is None else _join(joins[k], candidate, kind.hint)
            if joins[k] is None or not _equal_over(kind.floor, new_join, joins[k]):
                stable_all = False
                witness_used[k] = witness
            joins[k] = new_join
        if stable_all and all(kind.passes(kind.degree_fit(joins[k]), k) for k in range(s, 0, -1)):
            complete = True
            break
    certificates = []
    for k in range(s, 0, -1):
        best = _absorb_complement(kind, k, (joins[k], kind.degree_fit(joins[k]), witness_used[k]))
        certificates.append(kind.finish(kind, k, best, draws, complete))
    return ChainResult(s, certificates, _verify_nesting(kind, certificates))


def _verify_nesting(kind: ChainKind, certificates) -> bool:
    previous = kind.floor
    for cert in certificates:  # k = s down to 1: ascending modules
        if not _contains_over(kind.floor, cert.result, previous):
            return False
        previous = cert.result
    return module_contains(kind.frame, previous)


def _absorb_complement(kind: ChainKind, k: int, best):
    """Grow a passing candidate by complement elements of the kind's top.

    Adjoining y keeps the module inside the degree class only when y lies in
    the unique maximal member, so each absorbed element is provably part of
    the answer; on a monomial chain the fixpoint is the maximal member
    itself, because its quotient by the result is spanned by monomials.
    Returns (module, its fit, witness, number of absorbed elements).
    """
    absorbed, fitted, witness = best
    mod = kind.mod
    added = 0
    changed = True
    while changed:
        changed = False
        for y in quotient_lifts(kind.top, absorbed):
            trial = _join(absorbed, ModulePresentation(mod.ring, [y], tdeg=mod.tdeg), kind.hint)
            trial_fit = kind.degree_fit(trial)
            if kind.passes(trial_fit, k):
                absorbed, fitted = trial, trial_fit
                added += 1
                changed = True
                break  # complement shifted; re-enumerate
    return absorbed, fitted, witness, added


def _certificate(kind: ChainKind, k: int, best, joins: int, complete: bool, checks) -> CoefficientCertificate:
    """The certificate of one link, with the kind's verified inclusions
    `checks` between the reduction and absorption records and the bound."""
    result, fitted, witness, added = best
    cert = CoefficientCertificate(
        k=k,
        n0=witness.n0,
        reduction=witness,
        result=result,
        degree_fit=fitted,
        threshold=kind.threshold(k),
        inclusive=kind.inclusive,
        checks_passed=[
            "reduction verified (s elements, stabilized powers)",
            f"complement absorption reached a fixpoint ({added} elements added)",
            *checks,
        ],
        complete=complete,
        joins=joins,
    )
    if cert.degree_ok():
        rel = "<=" if cert.inclusive else "<"
        cert.checks_passed.append(f"{kind.name} degree {fitted.degree} {rel} {cert.threshold}")
    return cert


def _finish_relative(kind: ChainKind, k: int, best, joins: int, complete: bool) -> CoefficientCertificate:
    result = best[0]
    checks = []
    if _contains_over(kind.floor, result, kind.floor):
        checks.append("contains the base module")
    if module_contains(kind.frame, result):
        checks.append("inside the saturation frame")
    if kind.mod.monomial and module_contains(kind.top, result):
        checks.append("inside the relative integral closure")
    return _certificate(kind, k, best, joins, complete, checks)


def _finish_graded(kind: ChainKind, k: int, best, joins: int, complete: bool) -> CoefficientCertificate:
    result = best[0]
    checks = []
    if _contains_over(kind.floor, result, kind.floor):
        checks.append("contains ideal * M")
    if module_contains(kind.frame, result):
        checks.append("inside the base module")
    return _certificate(kind, k, best, joins, complete, checks)


# ---------------------------------------------------------------------------
# the public entry points
# ---------------------------------------------------------------------------


def coefficient_module(
    mod: ModulePresentation,
    k: int,
    rng,
    budget: int = 8,
    nmax: int = 8,
    window: int = 3,
    spread: Optional[int] = None,
) -> CoefficientCertificate:
    """Largest-module candidate for the k-th link of the relative chain.

    The colon target is M^(n0+1) inside the saturation frame, and the
    certified bound is degree < s - k for the lengths of result^n / M^n.
    """
    return _link(_relative_kind(mod, nmax, window, spread), k, rng, budget)


def coefficient_chain(
    mod: ModulePresentation,
    rng,
    budget: int = 6,
    nmax: int = 8,
    window: int = 3,
) -> ChainResult:
    """The whole relative chain; a monomial M also gets its k = 0 link q(M)."""
    kind = _relative_kind(mod, nmax, window)
    chain = _chain(kind, rng, budget)
    if mod.monomial:
        qmod = kind.top
        chain.closure_link = CoefficientCertificate(
            k=0,
            n0=0,
            reduction=ReductionWitness([], 0, 0),
            result=qmod,
            degree_fit=kind.degree_fit(qmod),
            threshold=kind.spread,
            inclusive=False,
            checks_passed=["relative integral closure computed from the exponent polyhedron"],
            complete=True,
            joins=0,
        )
        chain.nesting_verified = chain.nesting_verified and _contains_over(mod, qmod, chain.certificates[-1].result)
    return chain


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
    return _link(_graded_kind(mod, ideal, nmax, window, spread), k, rng, budget)


def graded_chain(
    mod: ModulePresentation,
    rng,
    budget: int = 6,
    nmax: int = 8,
    window: int = 3,
    ideal: Optional[ModulePresentation] = None,
) -> ChainResult:
    """The whole graded chain with one reduction shared across k."""
    return _chain(_graded_kind(mod, ideal, nmax, window), rng, budget)


# ---------------------------------------------------------------------------
# maximality probe
# ---------------------------------------------------------------------------


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
    kind = _relative_kind(mod, nmax, window, spread=cert.threshold + cert.k)
    complement = quotient_lifts(kind.top, cert.result)
    if not complement:
        return ProbeReport(cert.k, 0, 0, [], vacuous=True)
    picks = [complement[rng.randrange(len(complement))] for _ in range(sample_budget)]
    for _ in range(combo_samples):
        a = complement[rng.randrange(len(complement))]
        b = complement[rng.randrange(len(complement))]
        combo = a.scale(mod.ring.field.random(rng)).add(b.scale(mod.ring.field.random(rng)))
        if not combo.is_zero():
            picks.append(combo)
    violations = []
    tested = 0
    for y in picks:
        enlarged = _join(cert.result, ModulePresentation(mod.ring, [y], tdeg=mod.tdeg), kind.hint)
        if _equal_over(mod, enlarged, cert.result):
            continue  # the pick was inside after all; not a complement point
        tested += 1
        if kind.passes(kind.degree_fit(enlarged), cert.k):
            violations.append(y.text())
    return ProbeReport(cert.k, len(complement), tested, violations, vacuous=False)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def check_top_link_meets_ratliff_rush(
    mod: ModulePresentation, rng, budget: int = 8, nmax: int = 8, window: int = 3
) -> CheckReport:
    """The k = s link must equal the Ratliff-Rush closure meet saturation."""
    s = analytic_spread(mod).spread
    cert = coefficient_module(mod, s, rng, budget=budget, nmax=nmax, window=window, spread=s)
    rr = ratliff_rush(mod).module
    sat_res = saturate(mod).module
    if mod.monomial:
        # the colon chain of a monomial module is monomial, so the meet is
        # plain lattice combinatorics
        meet = ModulePresentation(mod.ring, rr.mono.intersect(sat_res.mono))
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
    mod: ModulePresentation, k: int, rng, budget: int = 8, nmax: int = 8, window: int = 3
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
        cert = coefficient_module(mod, k, rng, budget=budget, nmax=nmax, window=window, spread=s)
        link = cert.result
        complete = cert.complete
    base_fit = fit(capture_buchsbaum_rim(mod, nmax), window=window)
    link_fit = fit(capture_buchsbaum_rim(link, nmax), window=window)
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
    window: int = 3,
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
            power, k, rng, budget=budget, nmax=nmax, window=window, ideal=ideal, spread=s
        )
        floor_n = module_multiply(ideal, power)
        collapse.append((n, _equal_over(floor_n, gcert.result, floor_n)))
        if ring.p == 1:
            rcert = coefficient_module(power, k, rng, budget=budget, nmax=nmax, window=window, spread=s)
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
