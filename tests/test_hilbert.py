"""Length tables, finite-difference fits, binomial-basis coefficients."""

import random

import pytest

from coeffmod.errors import BasisSizeError, UnstableFitError
from coeffmod.graded import ModulePresentation
from coeffmod.hilbert import (
    NumericalFunction,
    capture,
    capture_buchsbaum_rim,
    capture_fiber,
    capture_graded,
    capture_rees_amao,
    degree_test,
    fit,
)
from coeffmod.linalg import PrimeField
from coeffmod.modops import fitting_ideal
from coeffmod.poly import RingDescriptor, parse_poly

F = PrimeField(10007)
R21 = RingDescriptor(F, 2, 1)
R22 = RingDescriptor(F, 2, 2)


def mk(ring, *texts):
    return ModulePresentation(ring, [parse_poly(t, ring) for t in texts])


def table(*values):
    return NumericalFunction("test", [(n + 1, v) for n, v in enumerate(values)])


def test_br_table_of_m_times_free_closed_form():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    func = capture_buchsbaum_rim(mf, 8)
    assert func.entries() == [n * (n + 1) ** 2 // 2 for n in range(1, 9)]
    assert func.entries() == [2, 9, 24, 50, 90, 147, 224, 324]


def test_br_fit_signed_binomial_basis():
    func = table(2, 9, 24, 50, 90, 147, 224, 324)
    fitted = fit(func)
    assert fitted.degree == 3
    assert fitted.binomial_coefficients(3) == (3, 1, 0, 0)


def test_rees_amao_staircase_table():
    big = mk(R21, "x1^2", "x1*x2", "x2^2")
    small = mk(R21, "x1^2", "x2^2")
    func = capture_rees_amao(big, small, 8)
    assert func.entries() == list(range(1, 9))


def test_identical_pair_gives_zero_table_and_polynomial():
    m = mk(R21, "x1^2", "x2^2")
    func = capture_rees_amao(m, m, 6)
    assert func.entries() == [0] * 6
    fitted = fit(func)
    assert fitted.degree == -1
    assert fitted.evaluate(100) == 0


def test_linear_function_in_top_three_basis():
    func = table(1, 2, 3, 4, 5, 6, 7, 8)
    fitted = fit(func)
    assert fitted.degree == 1
    assert fitted.binomial_coefficients(3) == (0, 0, 1, 0)


def test_degree_test_thresholds():
    func = table(1, 2, 3, 4, 5, 6)
    ok, _ = degree_test(func, 2)
    assert ok
    ok, _ = degree_test(func, 1)
    assert not ok
    zero = table(0, 0, 0, 0, 0)
    assert degree_test(zero, 0)[0]


def test_degree_test_inclusive_variant():
    func = table(1, 2, 3, 4, 5, 6)
    assert degree_test(func, 1, inclusive=True)[0]
    assert not degree_test(func, 0, inclusive=True)[0]


def test_fit_reproduces_all_entries_past_stabilization():
    rng = random.Random(4)
    for _ in range(12):
        degree = rng.randint(0, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 4)]
        noise = rng.randint(0, 2)

        def poly(n):
            return sum(c * n**i for i, c in enumerate(coeffs))

        shift = max(0, -min(poly(n) for n in range(1, 12)))
        values = [poly(n) + shift for n in range(1, 12)]
        for i in range(noise):
            values[i] = values[i] + rng.randint(1, 5)  # early non-polynomial junk
        func = NumericalFunction("test", list(enumerate(values, start=1)))
        fitted = fit(func)
        for n, v in func.values:
            if n >= fitted.stabilization_index:
                assert fitted.evaluate(n) == v


def test_binomial_round_trip_reconstructs_values():
    func = table(2, 9, 24, 50, 90, 147, 224, 324)
    fitted = fit(func)
    es = fitted.binomial_coefficients(3)
    from math import comb

    for n in range(1, 9):
        value = sum(
            (-1) ** i * es[i] * comb(n + 3 - i - 1, 3 - i) for i in range(4)
        )
        assert value == fitted.evaluate(n)


def test_fit_rejects_short_or_chaotic_tables():
    with pytest.raises(UnstableFitError):
        fit(table(1, 2, 4, 8, 16, 32, 64))
    with pytest.raises(UnstableFitError):
        fit(table(5, 1), window=3)


def test_basis_too_small_raises():
    func = table(2, 9, 24, 50, 90, 147, 224, 324)
    fitted = fit(func)
    with pytest.raises(BasisSizeError):
        fitted.binomial_coefficients(2)


def test_capture_fiber_counts_minimal_generators():
    m2 = mk(R21, "x1^2", "x1*x2", "x2^2")
    func = capture_fiber(m2, 6)
    assert func.entries() == [2 * n + 1 for n in range(1, 7)]


def test_capture_graded_collapse_is_zero():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    ideal = fitting_ideal(mf)
    from coeffmod.graded import module_multiply

    floor = module_multiply(ideal, mf)
    func = capture_graded(floor, mf, ideal, 5)
    assert func.entries() == [0] * 5


@pytest.mark.parametrize(
    "gens",
    [("x1*t1", "x2*t1", "x1*t2", "x2*t2"), ("x1*t1", "x2*t1", "x1*t2", "x2^2*t2")],
)
def test_memoised_graded_tables_match_fresh_presentations(gens):
    from coeffmod.graded import module_multiply, module_power, quotient_length

    def fresh_length(big_gens, n):
        mod = mk(R22, *gens)
        ideal = fitting_ideal(mod)
        big = ModulePresentation(R22, big_gens)
        floor = module_multiply(ideal, mod)
        if n == 1:
            return quotient_length(big, floor)
        prev = module_power(mod, n - 1)
        return quotient_length(module_multiply(big, prev), module_multiply(floor, prev))

    mod = mk(R22, *gens)
    ideal = fitting_ideal(mod)
    m = ModulePresentation.maximal_ideal(R22)
    for big in (mod, module_multiply(m, mod), module_multiply(ideal, mod)):
        expected = [fresh_length(big.gens, n) for n in range(1, 6)]
        assert capture_graded(big, mod, ideal, 5).entries() == expected
        assert capture_graded(big, mod, ideal, 5).entries() == expected  # warmed


def test_capture_dispatcher_kinds():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    assert capture("br", 3, mod=mf).kind == "buchsbaum-rim"
    assert capture("fiber", 3, mod=mf).kind == "fiber"
    with pytest.raises(ValueError):
        capture("nope", 3, mod=mf)


def test_reduction_pairs_stay_below_top_degree():
    """For verified reduction pairs the relative growth degree is at most
    d + p - 2 (one below the top dimension)."""
    from coeffmod.modops import ReductionWitness, is_reduction, minimal_reduction
    import random as random_mod

    rng = random_mod.Random(31)
    top = R21.d + R21.p - 1
    for _ in range(6):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        big = mk(R21, f"x1^{a}", f"x2^{b}", "x1*x2" if a == b == 2 else f"x1^{a - 1}*x2")
        sub_w = minimal_reduction(big, 1, 2, rng, spread=2)
        sub = ModulePresentation(R21, sub_w.elems)
        table = capture_rees_amao(big, sub, 8, verify_inclusion=False)
        fitted = fit(table)
        assert fitted.degree <= top - 1


def test_matching_coefficients_force_degree_drop():
    """If the first k+1 signed coefficients of the pair agree, the relative
    growth degree falls to at most d + p - 2 - k."""
    from coeffmod.modops import monomial_integral_closure

    top = R21.d + R21.p - 1
    for texts in (("x1^2", "x2^2"), ("x1^3", "x2^3"), ("x1^2", "x1*x2", "x2^2")):
        base = mk(R21, *texts)
        bigger = monomial_integral_closure(base)
        e_base = fit(capture_buchsbaum_rim(base, 8)).binomial_coefficients(top)
        e_big = fit(capture_buchsbaum_rim(bigger, 8)).binomial_coefficients(top)
        agree = 0
        while agree <= top and e_base[agree] == e_big[agree]:
            agree += 1
        k = agree - 1  # e_i match for i <= k
        assert k >= 0
        table = capture_rees_amao(bigger, base, 8, verify_inclusion=False)
        fitted = fit(table)
        assert fitted.degree <= top - 1 - k


def test_reduction_degree_criterion_consistency():
    """Reduction pairs drop below top degree, non-reductions reach it."""
    from coeffmod.modops import ReductionWitness, is_reduction

    rng = random.Random(21)
    top = R21.d + R21.p - 1
    checked_true = checked_false = 0
    for _ in range(12):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        base = [(a, 0), (0, b)]
        if rng.random() < 0.5:
            # stay on the hull segment: a reduction
            extra = []
            if a == b and a == 2:
                extra = [(1, 1)]
            elif a == b:
                extra = [(1, a - 1)] if rng.random() < 0.5 else [(a - 1, 1)]
            texts = [f"x1^{a}", f"x2^{b}"] + [f"x1^{u}*x2^{v}" for u, v in extra]
        else:
            # a strictly interior monomial: never a reduction
            texts = [f"x1^{a}", f"x2^{b}", "x1*x2" if (a, b) != (2, 2) else "x1"]
        big = mk(R21, *texts)
        small = mk(R21, f"x1^{a}", f"x2^{b}")
        outcome = is_reduction(small, big, r_max=8)
        func = capture_rees_amao(big, small, 9)
        low, _ = degree_test(func, top)
        assert low == isinstance(outcome, ReductionWitness)
        checked_true += int(low)
        checked_false += int(not low)
    assert checked_true and checked_false  # both directions exercised
