"""Acceptance suite: one test per criterion, each with an independent oracle.

Every expected value below is either a closed form computed in the test, a
hand-derived constant, or the output of a brute-force path that shares no
code with the computation it checks.  Random samples are drawn from fixed
seeds, so the suite is deterministic end to end.
"""

import io
import json
import random
import time
from itertools import product as iproduct
from math import comb

import pytest

from coeffmod.chains import (
    check_power_collapse,
    coefficient_chain,
    coefficient_module,
    graded_chain,
    maximality_probe,
)
from coeffmod.cli import _render_text, build_parser, run_command
from coeffmod.graded import (
    ModulePresentation,
    module_contains,
    module_multiply,
    modules_equal,
)
from coeffmod.hilbert import capture_buchsbaum_rim, capture_rees_amao, degree_test, fit
from coeffmod.linalg import PrimeField
from coeffmod.modops import (
    ReductionWitness,
    analytic_spread,
    fitting_ideal,
    is_reduction,
    monomial_integral_closure,
    newton_member_lp,
    newton_member_power_test,
    ratliff_rush,
    relative_closure,
    saturate,
)
from coeffmod.poly import Monomial, RingDescriptor, parse_poly

F10007 = PrimeField(10007)
R21 = RingDescriptor(F10007, 2, 1)
R22 = RingDescriptor(F10007, 2, 2)
R31 = RingDescriptor(F10007, 3, 1)

QUARTIC = ("x1^4", "x1^3*x2", "x1*x2^3", "x2^4")


def mk(ring, *texts):
    return ModulePresentation(ring, [parse_poly(t, ring) for t in texts])


def report(criterion, message):
    print(f"acceptance criterion {criterion}: PASS ({message})")


# -- sample generators (fixed seeds; deterministic) --------------------------


def random_m_primary_ideal(rng, ring, max_deg=4, extra=2):
    monos = []
    for i in range(ring.d):
        e = [0] * ring.d
        e[i] = rng.randint(2, max_deg)
        monos.append(Monomial(tuple(e), (1,)))
    for _ in range(extra):
        e = [rng.randint(0, max_deg - 1) for _ in range(ring.d)]
        if sum(e) == 0:
            continue
        monos.append(Monomial(tuple(e), (1,)))
    return ModulePresentation.from_monomials(ring, monos)


def random_p2_module(rng, max_deg=3, extra=1):
    monos = []
    for j in range(2):
        t = (1, 0) if j == 0 else (0, 1)
        for i in range(2):
            e = [0, 0]
            e[i] = rng.randint(1, max_deg)
            monos.append(Monomial(tuple(e), t))
        for _ in range(extra):
            e = [rng.randint(0, max_deg - 1) for _ in range(2)]
            monos.append(Monomial(tuple(e), t))
    monos = [m for m in monos if m.xdeg > 0]
    return ModulePresentation.from_monomials(R22, monos)


MF22 = mk(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")


@pytest.fixture(scope="module")
def criterion4_chains():
    """All chains needed by criteria 4 and 10, computed once."""
    rng = random.Random(424242)
    samples = []
    for _ in range(10):
        samples.append(random_m_primary_ideal(rng, R21))
    for _ in range(5):
        samples.append(random_p2_module(rng))
    start = time.time()
    chains = [(mod, coefficient_chain(mod, rng)) for mod in samples]
    return chains, time.time() - start, rng


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_buchsbaum_rim_golden():
    start = time.time()
    table = capture_buchsbaum_rim(MF22, 8)
    # oracle: rank(Sym_n F) * length(R / m^n) = (n+1) * C(n+1, 2)
    expected = [(n + 1) * comb(n + 1, 2) for n in range(1, 9)]
    assert table.entries() == expected
    assert table.entries() == [n * (n + 1) ** 2 // 2 for n in range(1, 9)]
    fitted = fit(table)
    assert fitted.degree == 3
    assert fitted.binomial_coefficients(3) == (3, 1, 0, 0)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"table and (3,1,0,0) basis in {elapsed:.2f}s")


# -- criterion 2 -------------------------------------------------------------


def _brute_ratliff_rush(gens, d, box_bound, n_cap=7):
    """Raw-tuple brute force, independent of the library colon path."""

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def member(u, gs):
        return any(divides(g, u) for g in gs)

    def minimal(gs):
        out = []
        for g in sorted(set(gs)):
            if not any(divides(h, g) for h in out):
                out = [h for h in out if not divides(g, h)] + [g]
        return out

    powers = [[(0,) * d]]
    for _ in range(n_cap + 1):
        powers.append(
            minimal([tuple(a + b for a, b in zip(g, h)) for g in powers[-1] for h in gens])
        )
    collected = set()
    for u in iproduct(*(range(box_bound + 1) for _ in range(d))):
        for n in range(n_cap):
            if all(
                member(tuple(a + b for a, b in zip(u, g)), powers[n + 1])
                for g in powers[n]
            ):
                collected.add(u)
                break
    return set(minimal(collected))


def test_criterion_2_ratliff_rush_oracle():
    start = time.time()
    ideal = mk(R21, *QUARTIC)
    result = ratliff_rush(ideal)
    got = {g.leading_monomial().xexp for g in result.module.gens}
    oracle = _brute_ratliff_rush([(4, 0), (3, 1), (1, 3), (0, 4)], 2, 4)
    assert got == oracle == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}
    expected = mk(R21, "x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3", "x2^4")
    assert modules_equal(result.module, expected)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"closure matches brute force in {elapsed:.2f}s")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_top_link_equals_ratliff_rush_meet():
    rng = random.Random(333)
    samples = [mk(R21, *QUARTIC)]
    for _ in range(6):
        samples.append(random_m_primary_ideal(rng, R21))
    for _ in range(4):
        samples.append(random_m_primary_ideal(rng, R31, max_deg=3, extra=1))
    for mod in samples:
        s = analytic_spread(mod).spread
        cert = coefficient_module(mod, s, rng, spread=s)
        meet = ModulePresentation(mod.ring, ratliff_rush(mod).module.mono.intersect(saturate(mod).module.mono))
        assert modules_equal(cert.result, meet)
    report(3, f"{len(samples)} samples, exact equality at k = s")


# -- criteria 4 and 10 -------------------------------------------------------


def test_criterion_4_chain_properties(criterion4_chains):
    chains, elapsed, _ = criterion4_chains
    assert len(chains) == 15
    for mod, chain in chains:
        s = chain.spread
        previous = mod
        for cert in chain.certificates:  # k = s down to 1
            assert module_contains(cert.result, previous)
            assert cert.degree_fit.degree < s - cert.k
            previous = cert.result
        closure = relative_closure(mod)
        assert all(
            module_contains(closure, cert.result) for cert in chain.certificates
        )
        assert chain.nesting_verified
    assert elapsed < 300.0
    report(4, f"15 chains nested with degree bounds in {elapsed:.1f}s")


def test_criterion_10_maximality_probe(criterion4_chains):
    chains, _, rng = criterion4_chains
    start = time.time()
    tested = 0
    for mod, chain in chains:
        for cert in chain.certificates:
            probe = maximality_probe(mod, cert, rng, sample_budget=50)
            assert probe.violations == []
            tested += probe.samples_tested
    report(10, f"{tested} probe samples, zero counterexamples in {time.time() - start:.1f}s")


# -- criterion 5 -------------------------------------------------------------


def _nested_monomial_pair(rng, want_reduction):
    a, b = rng.randint(2, 4), rng.randint(2, 4)
    small = mk(R21, f"x1^{a}", f"x2^{b}")
    if want_reduction:
        # add lattice points on or above the hull segment of (a,0)-(0,b)
        extras = []
        for _ in range(2):
            u = rng.randint(0, a)
            # smallest v keeping (u, v) inside the exponent polyhedron
            v = -(-b * (a - u) // a)  # ceil(b (a-u) / a)
            extras.append((u, v))
        texts = [f"x1^{a}", f"x2^{b}"] + [
            (f"x1^{u}*x2^{v}" if u and v else (f"x1^{u}" if u else f"x2^{v}"))
            for u, v in extras
            if (u, v) != (0, 0)
        ]
    else:
        # one strictly interior monomial breaks integral dependence
        u = rng.randint(1, max(a - 1, 1))
        v = max(((b * (a - u)) // a) - 1, 0)
        if (u + 1) * b + (v) * a >= a * b:  # ensure strictly below the segment
            v = max(v - 1, 0)
        texts = [f"x1^{a}", f"x2^{b}", f"x1^{u}*x2^{v}" if v else f"x1^{u}"]
    big = mk(R21, *texts)
    return small, big


def test_criterion_5_reduction_degree_round_trip():
    rng = random.Random(555)
    top = R21.d + R21.p - 1  # = 2
    seen_true = seen_false = 0
    pairs = 0
    while pairs < 20:
        want = pairs % 2 == 0
        small, big = _nested_monomial_pair(rng, want)
        if modules_equal(small, big):
            continue
        pairs += 1
        outcome = is_reduction(small, big, r_max=10)
        is_red = isinstance(outcome, ReductionWitness)
        table = capture_rees_amao(big, small, 9)
        low_degree, _ = degree_test(table, top)
        assert is_red == low_degree
        seen_true += int(is_red)
        seen_false += int(not is_red)
    assert seen_true >= 5 and seen_false >= 5
    report(5, f"20 pairs agree in both directions ({seen_true} reductions, {seen_false} refutations)")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_closure_laws():
    rng = random.Random(666)
    for i in range(10):
        ring = R21 if i % 2 == 0 else R22
        mod = (
            random_m_primary_ideal(rng, ring)
            if ring.p == 1
            else random_p2_module(rng)
        )
        q1 = relative_closure(mod)
        assert modules_equal(relative_closure(q1), q1)
        outcome = is_reduction(mod, q1, r_max=10)
        assert isinstance(outcome, ReductionWitness)
    squares = mk(R21, "x1^2", "x2^2")
    closed = monomial_integral_closure(squares, cross_check=True)
    assert modules_equal(closed, mk(R21, "x1^2", "x1*x2", "x2^2"))
    gens = squares.mono_gens
    for a in range(0, 3):
        for b in range(0, 3):
            cand = Monomial((a, b), (1,))
            assert newton_member_lp(cand, gens) == newton_member_power_test(cand, gens, 3)
    report(6, "closure laws on 10 samples; both membership oracles agree")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_graded_chain():
    rng = random.Random(777)
    samples = [random_m_primary_ideal(rng, R21, max_deg=3, extra=1) for _ in range(5)]
    samples.append(MF22)
    for mod in samples:
        chain = graded_chain(mod, rng)
        s = chain.spread
        floor = module_multiply(fitting_ideal(mod), mod)
        previous = floor
        for cert in chain.certificates:  # k = s down to 1
            assert module_contains(cert.result, previous)
            assert cert.degree_fit.degree <= s - (cert.k + 1)
            previous = cert.result
        assert module_contains(mod, previous)
        assert chain.nesting_verified
    fitted_ideal = fitting_ideal(MF22)
    assert modules_equal(fitted_ideal, mk(R22, "x1^2", "x1*x2", "x2^2"))
    report(7, "6 graded chains nested with inclusive degree bounds; I(mF) = m^2")


# -- criterion 8 -------------------------------------------------------------


def _staircase_colength(gens, n, bound=64):
    """Brute count of monomials outside the n-th power, raw tuples only."""

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    power = [(0, 0)]
    step = [g for g in gens]
    powers = power
    for _ in range(n):
        powers = [
            (a[0] + b[0], a[1] + b[1]) for a in powers for b in step
        ]
    powers = list(set(powers))
    count = 0
    for u in iproduct(range(bound), range(bound)):
        if sum(u) >= bound:
            continue
        if not any(divides(g, u) for g in powers):
            count += 1
    return count


def test_criterion_8_multiplicity_preservation():
    rng = random.Random(888)
    squares = mk(R21, "x1^2", "x2^2")
    closure = monomial_integral_closure(squares)
    base_fit = fit(capture_buchsbaum_rim(squares, 8))
    closure_fit = fit(capture_buchsbaum_rim(closure, 8))
    top = 2
    e_base = base_fit.binomial_coefficients(top)
    e_closure = closure_fit.binomial_coefficients(top)
    assert e_base[0] == e_closure[0] == 4
    # staircase oracle for the leading value at a few points
    for n in (3, 4):
        assert base_fit.evaluate(n) == _staircase_colength([(2, 0), (0, 2)], n, 24)
        assert closure_fit.evaluate(n) == _staircase_colength(
            [(2, 0), (1, 1), (0, 2)], n, 24
        )
    # k = s: every coefficient survives into the top link on 5 samples
    checked = 0
    while checked < 5:
        mod = random_m_primary_ideal(rng, R21, max_deg=3, extra=1)
        s = analytic_spread(mod).spread
        if s != top:
            continue
        cert = coefficient_module(mod, s, rng, spread=s)
        base = fit(capture_buchsbaum_rim(mod, 8)).binomial_coefficients(top)
        link = fit(capture_buchsbaum_rim(cert.result, 8)).binomial_coefficients(top)
        assert base == link
        checked += 1
    report(8, "e_0 = 4 on both sides of the closure; top link keeps all coefficients on 5 samples")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_rank_one_collapse_consistency():
    rng = random.Random(999)
    samples = []
    while len(samples) < 5:
        mod = random_m_primary_ideal(rng, R21, max_deg=3, extra=1)
        if analytic_spread(mod).spread == 2:
            samples.append(mod)
    for mod in samples:
        for k in (1, 2):
            rep = check_power_collapse(mod, k, rng, n_range=4)
            assert rep.passed, rep.details
            assert rep.details["predicates agree"]
    report(9, "5 rank-one samples, k = 1..2, predicates agree over n <= 4")


# -- criterion 11 ------------------------------------------------------------


def _render(report_dict) -> str:
    buffer = io.StringIO()
    _render_text(report_dict, buffer)
    return buffer.getvalue()


def _spec_file(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_criterion_11_determinism_and_truncation(tmp_path):
    quartic = _spec_file(
        tmp_path,
        "quartic.spec",
        "field = Fp:10007\nxvars = 2\nrank = 1\n"
        "gens = [(x1^4); (x1^3*x2); (x1*x2^3); (x2^4)]\n",
    )
    mf = _spec_file(
        tmp_path,
        "mf.spec",
        "field = Fp:10007\nxvars = 2\nrank = 2\n"
        "gens = [(x1, 0); (x2, 0); (0, x1); (0, x2)]\n",
    )
    squares = _spec_file(
        tmp_path,
        "squares.spec",
        "field = Fp:10007\nxvars = 2\nrank = 1\ngens = [(x1^2); (x2^2)]\n",
    )
    parser = build_parser()
    commands = [
        ["lengths", mf, "--kind", "br", "--nmax", "8"],
        ["fit", mf, "--kind", "br"],
        ["rr", quartic],
        ["coeff", quartic, "--k", "2", "--seed", "7"],
        ["coeff-chain", squares, "--seed", "7"],
        ["gcoeff", mf, "--k", "3", "--seed", "3"],
        ["verify", "prop52", quartic, "--seed", "7"],
    ]
    for argv in commands:
        first, code1 = run_command(parser.parse_args(argv))
        second, code2 = run_command(parser.parse_args(argv))
        assert code1 == code2
        assert json.dumps(first, sort_keys=True, default=str) == json.dumps(
            second, sort_keys=True, default=str
        )
        assert _render(first) == _render(second)
        probed, code3 = run_command(parser.parse_args(argv + ["--trunc-probe"]))
        probe_verdicts = [v for v in probed["verdicts"] if v["name"] == "truncation probe"]
        assert probe_verdicts and probe_verdicts[0]["pass"]
        assert probed["results"] == first["results"]
    report(11, f"{len(commands)} commands byte-stable and truncation-stable")
