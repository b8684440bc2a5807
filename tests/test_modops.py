"""Closures, Fitting ideals, reductions, analytic spread."""

import random
from itertools import product

import pytest

from coeffmod.errors import RankDeficientError, RegimeError, StructuralError, UndecidedColengthError
from coeffmod.graded import (
    ModulePresentation,
    colength_exponent,
    module_contains,
    module_membership,
    module_power,
    modules_equal,
)
from coeffmod.linalg import QQ, PrimeField
from coeffmod.modops import (
    ReductionRefutation,
    ReductionWitness,
    analytic_spread,
    fitting_ideal,
    is_reduction,
    minimal_reduction,
    monomial_integral_closure,
    newton_member_lp,
    newton_member_power_test,
    ratliff_rush,
    relative_closure,
    saturate,
)
from coeffmod.poly import Monomial, RingDescriptor, parse_poly

F = PrimeField(10007)
R21 = RingDescriptor(F, 2, 1)
R22 = RingDescriptor(F, 2, 2)
R11 = RingDescriptor(F, 1, 1)


def mk(ring, *texts):
    return ModulePresentation(ring, [parse_poly(t, ring) for t in texts])


QUARTIC = ("x1^4", "x1^3*x2", "x1*x2^3", "x2^4")


# -- saturation -------------------------------------------------------------


def test_saturate_m_primary_gives_everything():
    res = saturate(mk(R21, "x1^2", "x2^2"))
    assert modules_equal(res.module, ModulePresentation.free(R21, 0))
    assert res.index == 3  # first k with m^k inside (x^2, y^2)


def test_saturate_principal_module_is_saturated():
    m = mk(R22, "x1*t1")
    res = saturate(m)
    assert modules_equal(res.module, m)
    assert res.index == 0


def test_saturate_free_module():
    free = ModulePresentation.free(R22, 1)
    assert modules_equal(saturate(free).module, free)


def test_saturate_general_regime_uses_finite_colength():
    m = ModulePresentation(R21, [parse_poly("x1 + x2", R21), parse_poly("x2^2", R21)])
    res = saturate(m)
    assert modules_equal(res.module, ModulePresentation.free(R21, 0))


# -- Ratliff-Rush -----------------------------------------------------------


def _brute_force_ratliff_rush(gens, d, box_bound, n_cap=7):
    """Independent oracle: raw-tuple monomial arithmetic only.

    Collects the exponents u with u * I^n inside I^(n+1) for some n, where
    power generators are recomputed from scratch as n-fold sums.
    """

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def member(u, gens_):
        return any(divides(g, u) for g in gens_)

    def minimal(gens_):
        out = []
        for g in sorted(set(gens_)):
            if not any(divides(h, g) for h in out):
                out = [h for h in out if not divides(g, h)] + [g]
        return out

    powers = [[(0,) * d]]
    for _ in range(n_cap + 1):
        powers.append(
            minimal([tuple(a + b for a, b in zip(g, h)) for g in powers[-1] for h in gens])
        )
    box = [u for u in product(*(range(box_bound + 1) for _ in range(d)))]
    collected = set()
    for u in box:
        for n in range(0, n_cap):
            if all(
                member(tuple(a + b for a, b in zip(u, g)), powers[n + 1])
                for g in powers[n]
            ):
                collected.add(u)
                break
    return set(minimal(collected))


def test_ratliff_rush_quartic_matches_brute_force():
    ideal = mk(R21, *QUARTIC)
    res = ratliff_rush(ideal)
    got = {g.leading_monomial().xexp for g in res.module.gens}
    oracle = _brute_force_ratliff_rush([(4, 0), (3, 1), (1, 3), (0, 4)], 2, 4)
    assert got == oracle
    assert (2, 2) in got  # strictly bigger than the input
    expected = mk(R21, "x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3", "x2^4")
    assert modules_equal(res.module, expected)


def test_ratliff_rush_principal_is_closed():
    m = mk(R11, "x1^2")
    res = ratliff_rush(m)
    assert modules_equal(res.module, m)


def test_ratliff_rush_free_module():
    free = ModulePresentation.free(R22, 1)
    assert modules_equal(ratliff_rush(free).module, free)


def test_ratliff_rush_power_stability():
    ideal = mk(R21, *QUARTIC)
    res = ratliff_rush(ideal)
    for n in range(max(res.index, 2), max(res.index, 2) + 3):
        assert modules_equal(module_power(res.module, n), module_power(ideal, n))


# -- Fitting ideal ----------------------------------------------------------


def test_fitting_ideal_of_m_times_free():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    out = fitting_ideal(mf)
    expected = mk(R22, "x1^2", "x1*x2", "x2^2")
    assert modules_equal(out, expected)


def test_fitting_ideal_rank_one_is_the_ideal_itself():
    ideal = mk(R21, "x1^2*t1", "x2^3*t1")
    out = fitting_ideal(ideal)
    expected = mk(R21, "x1^2", "x2^3")
    assert modules_equal(out, expected)


def test_fitting_ideal_of_free_module_is_unit():
    free = ModulePresentation.free(R22, 1)
    out = fitting_ideal(free)
    assert modules_equal(out, ModulePresentation.free(R22, 0))


def test_fitting_ideal_rejects_rank_deficiency():
    narrow = mk(R22, "x1*t1")
    with pytest.raises(RankDeficientError):
        fitting_ideal(narrow)


def test_fitting_ideal_m_primary_when_colength_finite():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    witness = colength_exponent(fitting_ideal(mf))
    assert witness.finite and witness.exponent == 2


def test_fitting_ideal_general_entries():
    # columns (x1, x2) and (x2, x1): determinant x1^2 - x2^2
    m = ModulePresentation(
        R22,
        [parse_poly("x1*t1 + x2*t2", R22), parse_poly("x2*t1 + x1*t2", R22)],
    )
    out = fitting_ideal(m)
    assert len(out.gens) == 1
    det = out.gens[0]
    assert det == parse_poly("x1^2 - x2^2", R22) or det == parse_poly("x2^2 - x1^2", R22)


# -- integral closure -------------------------------------------------------


def test_closure_of_squares_adds_mixed_term():
    out = monomial_integral_closure(mk(R21, "x1^2", "x2^2"), cross_check=True)
    assert modules_equal(out, mk(R21, "x1^2", "x1*x2", "x2^2"))


def test_closure_principal_is_itself():
    m = mk(R21, "x1^3*x2*t1")
    assert modules_equal(monomial_integral_closure(m), m)


def test_closure_of_cubes():
    out = monomial_integral_closure(mk(R21, "x1^3", "x2^3"))
    assert modules_equal(out, mk(R21, "x1^3", "x1^2*x2", "x1*x2^2", "x2^3"))


def test_closure_oracles_agree_on_box():
    gens = mk(R21, "x1^2", "x2^2").mono_gens
    for a in range(3):
        for b in range(3):
            cand = Monomial((a, b), (0,))
            lp = newton_member_lp(cand, gens)
            power = newton_member_power_test(cand, gens, 3)
            assert lp == power


def test_closure_rejects_general_input():
    m = ModulePresentation(R21, [parse_poly("x1^2 + x2^2", R21), parse_poly("x1^3", R21)])
    with pytest.raises(RegimeError):
        monomial_integral_closure(m)


def test_lp_membership_matches_segment_formula():
    # for two generators (a,0), (0,b) the exponent polyhedron is the
    # half-plane b*i + a*j >= a*b; the LP must reproduce it exactly
    for a in range(1, 6):
        for b in range(1, 6):
            gens = (Monomial((a, 0), (1,)), Monomial((0, b), (1,)))
            for i in range(7):
                for j in range(7):
                    expected = b * i + a * j >= a * b
                    assert newton_member_lp(Monomial((i, j), (1,)), gens) == expected


def test_lp_membership_matches_simplex_hull_dimension_three():
    ring3 = RingDescriptor(F, 3, 1)
    gens = (
        Monomial((3, 0, 0), (1,)),
        Monomial((0, 3, 0), (1,)),
        Monomial((0, 0, 3), (1,)),
    )
    for i in range(5):
        for j in range(5):
            for k in range(5):
                expected = i + j + k >= 3
                assert newton_member_lp(Monomial((i, j, k), (1,)), gens) == expected
    assert ring3.d == 3


def test_power_test_is_sound_but_bounded():
    # (k-1, 1) enters the closure of (x^k, y^k) only with denominators k
    gens = mk(R21, "x1^6", "x2^6").mono_gens
    cand = Monomial((5, 1), (0,))
    assert newton_member_lp(cand, gens)
    assert not newton_member_power_test(cand, gens, 3)
    assert newton_member_power_test(cand, gens, 6)


# -- relative closure and its laws -----------------------------------------


def _random_monomial_module(rng, ring, max_deg=3, extra=2, m_primary=True):
    monos = []
    for beta_index in range(ring.p):
        t = tuple(int(i == beta_index) for i in range(ring.p))
        if m_primary:
            for i in range(ring.d):
                e = [0] * ring.d
                e[i] = rng.randint(1, max_deg)
                monos.append(Monomial(tuple(e), t))
        for _ in range(extra):
            e = [rng.randint(0, max_deg) for _ in range(ring.d)]
            monos.append(Monomial(tuple(e), t))
    monos = [m for m in monos if m.xdeg > 0]
    if not monos:
        monos = [Monomial((1,) + (0,) * (ring.d - 1), (1,) + (0,) * (ring.p - 1))]
    return ModulePresentation.from_monomials(ring, monos)


def test_relative_closure_m_primary_is_integral_closure():
    m = mk(R21, "x1^2", "x2^2")
    assert modules_equal(relative_closure(m), monomial_integral_closure(m))


def test_relative_closure_laws_on_random_samples():
    rng = random.Random(99)
    for _ in range(10):
        ring = random.Random(rng.random()).choice([R21, R22])
        m = _random_monomial_module(rng, ring)
        q1 = relative_closure(m)
        # contains the base and is idempotent
        assert module_contains(q1, m)
        assert modules_equal(relative_closure(q1), q1)
        # the base is a reduction of it
        outcome = is_reduction(m, q1, r_max=10)
        assert isinstance(outcome, ReductionWitness)


def test_relative_closure_monotone_on_nested_pairs():
    rng = random.Random(5)
    for _ in range(6):
        m = _random_monomial_module(rng, R21)
        bigger = ModulePresentation.from_monomials(
            R21, list(m.mono_gens) + [Monomial((rng.randint(0, 2), rng.randint(0, 2)), (1,))]
        )
        q_small = relative_closure(m)
        q_big = relative_closure(bigger)
        assert module_contains(q_big, q_small)


# -- reductions -------------------------------------------------------------


def test_is_reduction_squares_inside_m_squared():
    sub = mk(R21, "x1^2", "x2^2")
    big = mk(R21, "x1^2", "x1*x2", "x2^2")
    w = is_reduction(sub, big)
    assert isinstance(w, ReductionWitness)
    assert w.r == 1


def test_is_reduction_reflexive():
    m = mk(R21, "x1^2", "x2^3")
    w = is_reduction(m, m)
    assert isinstance(w, ReductionWitness) and w.r == 0


def test_is_reduction_refutes_principal_degree_drop():
    sub = mk(R11, "x1^2")
    big = mk(R11, "x1")
    out = is_reduction(sub, big, r_max=4)
    assert isinstance(out, ReductionRefutation)
    assert out.fit_degree == 1  # lengths x^(r+2)..x^(2r+2) grow linearly


def test_is_reduction_requires_containment():
    with pytest.raises(StructuralError):
        is_reduction(mk(R11, "x1"), mk(R11, "x1^2"))


def test_minimal_reduction_principal():
    m = mk(R11, "x1^3")
    w = minimal_reduction(m, 1, 1, random.Random(1), spread=1)
    assert w.r == 0 and w.n0 == 1 and len(w.elems) == 1


def test_minimal_reduction_over_rationals():
    ring = RingDescriptor(QQ, 2, 1)
    m = ModulePresentation(ring, [parse_poly(t, ring) for t in ("x1^2", "x1*x2", "x2^2")])
    w = minimal_reduction(m, 1, 2, random.Random(2), spread=2)
    assert w.r <= 2
    from fractions import Fraction

    for e in w.elems:
        assert all(Fraction(c).denominator == 1 for c in e.coeffs.values())


def test_minimal_reduction_two_generic_quadrics():
    m = mk(R21, "x1^2", "x1*x2", "x2^2")
    w = minimal_reduction(m, 1, 2, random.Random(3), spread=2)
    assert w.r <= 2
    sub = ModulePresentation(R21, w.elems)
    assert module_contains(m, sub)


def test_minimal_reduction_refuses_a_base_of_infinite_colength_at_once():
    # (x1^3, x1^2 x2^2, x1 x2^3) is not m-primary: no draw can decide its
    # products, so the first undecided colength is the answer, not a
    # genericity failure after every attempt
    m = mk(R21, "x1^3", "x1^2*x2^2", "x1*x2^3")
    with pytest.raises(UndecidedColengthError):
        minimal_reduction(m, 1, 2, random.Random(1), attempts=2)


def test_minimal_reduction_rejects_too_few_elements():
    m = mk(R21, "x1^2", "x1*x2", "x2^2")
    with pytest.raises(StructuralError):
        minimal_reduction(m, 1, 1, random.Random(3), spread=2)


def test_small_field_warns():
    ring = RingDescriptor(PrimeField(101), 1, 1)
    m = ModulePresentation(ring, [parse_poly("x1^2", ring)])
    with pytest.warns(UserWarning):
        minimal_reduction(m, 1, 1, random.Random(1), spread=1)


# -- analytic spread --------------------------------------------------------


def test_spread_principal_is_one():
    assert analytic_spread(mk(R11, "x1^2")).spread == 1


def test_spread_of_m_squared_is_two():
    rep = analytic_spread(mk(R21, "x1^2", "x1*x2", "x2^2"))
    assert rep.spread == 2
    assert rep.table.entries() == [2 * n + 1 for n in range(1, 9)]


def test_spread_of_m_times_free_is_three():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    assert analytic_spread(mf).spread == 3


def test_spread_bound_for_finite_colength():
    rng = random.Random(13)
    for _ in range(5):
        m = _random_monomial_module(rng, R21)
        s = analytic_spread(m).spread
        assert 1 <= s <= R21.d + R21.p - 1


# -- single-element colon lands in the closure (reduction corollary) --------


def test_colon_by_one_reduction_element_stays_integral():
    from coeffmod.graded import colon_into_frame

    ideal = mk(R21, *QUARTIC)
    rng = random.Random(11)
    w = minimal_reduction(ideal, 1, 2, rng, spread=2)
    closure = monomial_integral_closure(ideal)
    sat_res = saturate(ideal).module
    for i in range(2):
        cand = colon_into_frame(module_power(ideal, 2), [w.elems[i]], sat_res, ideal)
        for g in cand.gens:
            assert module_membership(g, closure)
