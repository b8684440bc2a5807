"""Coefficient-module chains, certificates, probes, verification checks."""

import random

import pytest

from coeffmod.chains import (
    check_coefficient_preservation,
    check_power_collapse,
    check_top_link_meets_ratliff_rush,
    coefficient_chain,
    coefficient_module,
    graded_chain,
    graded_coefficient_module,
    maximality_probe,
)
from coeffmod.errors import RegimeError, StructuralError
from coeffmod.graded import (
    ModulePresentation,
    module_contains,
    module_multiply,
    modules_equal,
    truncation_margin,
)
from coeffmod.linalg import PrimeField
from coeffmod.modops import fitting_ideal, ratliff_rush, relative_closure
from coeffmod.poly import RingDescriptor, parse_poly

F = PrimeField(10007)
R21 = RingDescriptor(F, 2, 1)
R22 = RingDescriptor(F, 2, 2)
R11 = RingDescriptor(F, 1, 1)


def mk(ring, *texts):
    return ModulePresentation(ring, [parse_poly(t, ring) for t in texts])


QUARTIC = ("x1^4", "x1^3*x2", "x1*x2^3", "x2^4")


def test_top_link_of_quartic_is_ratliff_rush():
    ideal = mk(R21, *QUARTIC)
    cert = coefficient_module(ideal, 2, random.Random(7))
    expected = mk(R21, "x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3", "x2^4")
    assert modules_equal(cert.result, expected)
    assert cert.complete
    assert cert.degree_fit.degree < cert.threshold


def test_chain_of_quartic_collapses_to_closure():
    ideal = mk(R21, *QUARTIC)
    chain = coefficient_chain(ideal, random.Random(7))
    assert chain.spread == 2
    assert chain.nesting_verified
    closure = relative_closure(ideal)
    for cert in chain.certificates:
        assert cert.degree_ok()
        assert modules_equal(cert.result, closure)
    assert modules_equal(chain.closure_link.result, closure)


def test_chain_on_saturated_closed_module_is_constant():
    principal = mk(R22, "x1*t1")
    chain = coefficient_chain(principal, random.Random(3))
    assert chain.spread == 1
    assert chain.nesting_verified
    for cert in chain.certificates:
        assert modules_equal(cert.result, principal)
    assert modules_equal(chain.closure_link.result, principal)


def test_chain_nesting_on_random_m_primary_samples():
    rng = random.Random(50)
    for _ in range(3):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        extra = f"x1^{rng.randint(1, 2)}*x2^{rng.randint(1, 2)}"
        ideal = mk(R21, f"x1^{a}", f"x2^{b}", extra)
        chain = coefficient_chain(ideal, rng)
        assert chain.nesting_verified
        previous = ideal
        for cert in chain.certificates:
            assert module_contains(cert.result, previous)
            assert cert.degree_ok()
            previous = cert.result


def test_coefficient_module_rejects_bad_k():
    ideal = mk(R21, "x1^2", "x2^2")
    with pytest.raises(StructuralError):
        coefficient_module(ideal, 0, random.Random(1))
    with pytest.raises(StructuralError):
        coefficient_module(ideal, 5, random.Random(1))


def test_maximality_probe_vacuous_on_collapse():
    ideal = mk(R21, *QUARTIC)
    cert = coefficient_module(ideal, 2, random.Random(7))
    probe = maximality_probe(ideal, cert, random.Random(8), sample_budget=10)
    assert probe.vacuous
    assert not probe.violations


def test_maximality_probe_rejects_complement_of_squares():
    # M_2 of (x^2, y^2) is the module itself; the complement monomial x*y
    # must break the degree bound
    ideal = mk(R21, "x1^2", "x2^2")
    cert = coefficient_module(ideal, 2, random.Random(9))
    assert modules_equal(cert.result, ideal)
    probe = maximality_probe(ideal, cert, random.Random(10), sample_budget=20)
    assert not probe.vacuous
    assert probe.complement_size >= 1
    assert probe.samples_tested >= 20
    assert probe.violations == []


def test_maximality_probe_rejects_graded_certificate():
    # a graded certificate's threshold is s - k - 1 on another length
    # function; reading s off it as threshold + k would be wrong
    ideal = mk(R21, "x1^2", "x2^2")
    cert = graded_coefficient_module(ideal, 1, random.Random(5))
    assert cert.inclusive
    with pytest.raises(StructuralError):
        maximality_probe(ideal, cert, random.Random(6), sample_budget=5)


def _count_rees_amao(monkeypatch):
    """Record (generators of big, nmax) for every Rees-Amao table a fit takes."""
    import coeffmod.chains as chains

    captured = []
    real = chains.capture_rees_amao

    def counting(big, small, nmax, **kwargs):
        captured.append((tuple(big.gens), nmax))
        return real(big, small, nmax, **kwargs)

    monkeypatch.setattr(chains, "capture_rees_amao", counting)
    return captured


def test_relative_fit_memo_reruns_at_another_truncation_margin(monkeypatch):
    from coeffmod.chains import _relative_degree_fit

    captured = _count_rees_amao(monkeypatch)
    pencil = mk(R21, "x1^2+3*x2^2", "x1*x2")
    assert not pencil.monomial  # its lengths come from truncated spans
    square = mk(R21, "x1^2", "x1*x2", "x2^2")
    base = _relative_degree_fit(square, pencil, 8, 3)
    first = len(captured)
    assert first >= 1
    # the same module from another presentation object hits the memo
    assert _relative_degree_fit(mk(R21, "x2^2", "x1^2", "x1*x2"), pencil, 8, 3) == base
    assert len(captured) == first
    with truncation_margin(1):
        probed = _relative_degree_fit(square, pencil, 8, 3)
    assert len(captured) > first
    assert probed == base


def test_maximality_probe_on_a_warmed_presentation(monkeypatch):
    def probe(mod):
        cert = coefficient_module(mod, 2, random.Random(5))
        return maximality_probe(mod, cert, random.Random(11), sample_budget=50), cert

    fresh_report, cert = probe(mk(R21, "x1^3", "x2^2"))
    warm = mk(R21, "x1^3", "x2^2")
    probe(warm)
    captured = _count_rees_amao(monkeypatch)
    assert probe(warm)[0] == fresh_report
    assert captured == []  # every fit was memoised on the warmed presentation
    # on a presentation with an empty memo each enlarged module is fit once
    report = maximality_probe(mk(R21, "x1^3", "x2^2"), cert, random.Random(11), sample_budget=50)
    assert report == fresh_report
    assert report.complement_size == 1 and report.samples_tested >= 50
    assert len(captured) == len(set(captured)) == 1


@pytest.mark.parametrize("driver", [coefficient_chain, graded_chain])
def test_chain_joins_count_the_reduction_draws(monkeypatch, driver):
    import coeffmod.chains as chains

    draws = []
    real = chains.minimal_reduction

    def counting(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, "minimal_reduction", counting)
    ideal = mk(R21, "x1^2", "x2^2")
    chain = driver(ideal, random.Random(7), budget=6)
    assert 1 <= len(draws) < 6
    assert all(cert.joins == len(draws) for cert in chain.certificates)



@pytest.mark.parametrize("driver", [coefficient_chain, graded_chain])
def test_chain_rejects_a_budget_without_draws(driver):
    ideal = mk(R21, "x1^2", "x2^2")
    with pytest.raises(StructuralError):
        driver(ideal, random.Random(7), budget=0)

def test_graded_chain_of_m_times_free():
    mf = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    chain = graded_chain(mf, random.Random(11))
    assert chain.spread == 3
    assert chain.nesting_verified
    floor = module_multiply(fitting_ideal(mf), mf)
    for cert in chain.certificates:
        assert cert.degree_ok()
        assert module_contains(cert.result, floor)
        assert module_contains(mf, cert.result)


def test_graded_module_rejects_infinite_colength():
    skew = mk(R22, "x1*t1")
    with pytest.raises(RegimeError):
        graded_coefficient_module(skew, 1, random.Random(1))


def test_graded_chain_on_rank_one_power():
    # for an ideal, the graded link of I^n sits between I * I^n and I^n
    ideal = mk(R21, "x1^2", "x2^2")
    from coeffmod.graded import module_power

    square = module_power(ideal, 2)
    cert = graded_coefficient_module(
        square, 1, random.Random(13), ideal=fitting_ideal(ideal), spread=2
    )
    floor = module_multiply(ideal, square)
    assert module_contains(cert.result, floor)
    assert module_contains(square, cert.result)
    assert cert.degree_ok()


def test_check_top_link_meets_ratliff_rush_samples():
    rng = random.Random(17)
    ideal = mk(R21, *QUARTIC)
    assert check_top_link_meets_ratliff_rush(ideal, rng).passed
    closed = mk(R22, "x1*t1")
    assert check_top_link_meets_ratliff_rush(closed, random.Random(2)).passed


def test_check_preservation_multiplicity_of_squares():
    ideal = mk(R21, "x1^2", "x2^2")
    rep = check_coefficient_preservation(ideal, 0, random.Random(5))
    assert rep.passed
    assert rep.details["base coefficients"][0] == 4
    assert rep.details["link coefficients"][0] == 4


def test_check_preservation_all_coefficients_at_top_k():
    ideal = mk(R21, "x1^2", "x2^2")
    rep = check_coefficient_preservation(ideal, 2, random.Random(5))
    assert rep.passed
    assert rep.details["base coefficients"] == rep.details["link coefficients"][: 3]


def test_check_preservation_reports_unmet_hypothesis():
    skew = mk(R22, "x1*t1")
    rep = check_coefficient_preservation(skew, 1, random.Random(5))
    assert not rep.passed
    assert "hypothesis" in rep.details["note"]


def test_check_power_collapse_agreement_rank_one():
    ideal = mk(R21, "x1^2", "x2^2")
    for k in (1, 2):
        rep = check_power_collapse(ideal, k, random.Random(5), n_range=2)
        assert rep.passed
        assert rep.details["predicates agree"]


def test_certificate_reduction_is_reused_along_chain():
    ideal = mk(R21, *QUARTIC)
    chain = coefficient_chain(ideal, random.Random(19))
    witnesses = {id(c.reduction) for c in chain.certificates}
    assert len(witnesses) == 1  # one draw served every link


def test_ratliff_rush_sits_inside_every_link():
    # the closure with identical high powers is contained in each computed
    # link, since its relative length table is eventually zero
    rng = random.Random(23)
    for texts in (QUARTIC, ("x1^2", "x2^2"), ("x1^3", "x1*x2^2", "x2^3")):
        ideal = mk(R21, *texts)
        rr = ratliff_rush(ideal).module
        chain = coefficient_chain(ideal, rng)
        for cert in chain.certificates:
            assert module_contains(cert.result, rr)


def test_join_is_monotone_under_more_draws():
    ideal = mk(R21, "x1^3", "x1*x2^2", "x2^3")
    small_budget = coefficient_module(ideal, 2, random.Random(4), budget=1)
    big_budget = coefficient_module(ideal, 2, random.Random(4), budget=6)
    assert module_contains(big_budget.result, small_budget.result)


def test_rational_field_chain_matches_prime_field():
    from coeffmod.linalg import QQ

    RQ = RingDescriptor(QQ, 2, 1)
    over_q = ModulePresentation(RQ, [parse_poly(t, RQ) for t in ("x1^2", "x2^2")])
    cert = coefficient_module(over_q, 2, random.Random(6), budget=2, nmax=6)
    assert modules_equal(cert.result, over_q)  # already Ratliff-Rush closed
    assert cert.degree_ok()
