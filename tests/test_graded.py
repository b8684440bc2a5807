"""Graded pieces, colength witnesses, quotient lengths, the frame colon."""

import random
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from coeffmod.chains import graded_coefficient_module
from coeffmod.errors import (
    InfiniteLengthError,
    NotASubpairError,
    RingMismatchError,
    StructuralError,
    UndecidedColengthError,
)
from coeffmod.graded import (
    COLENGTH_CEILING,
    ModulePresentation,
    _colength_search,
    product_quotient_dim,
    _chart,
    colength_exponent,
    colon_into_frame,
    module_contains,
    module_membership,
    module_multiply,
    module_power,
    module_span,
    module_sum,
    modules_equal,
    mono_quotient_monomials,
    quotient_length,
    truncation_margin,
    try_monomialize,
)
from coeffmod.linalg import QQ, PrimeField
from coeffmod.poly import Monomial, PolyElement, RingDescriptor, parse_poly

F = PrimeField(10007)
R21 = RingDescriptor(QQ, 2, 1)
R22 = RingDescriptor(QQ, 2, 2)
R11 = RingDescriptor(QQ, 1, 1)


def module(ring, *texts):
    return ModulePresentation(ring, [parse_poly(t, ring) for t in texts])


def test_monomial_presentation_minimalizes():
    m = module(R21, "x1^2*t1", "x1^3*t1", "x2*t1")
    assert [g.text() for g in m.gens] == ["x1^2*t1", "x2*t1"]
    assert m.monomial


def test_compression_reveals_hidden_monomial_module():
    m = ModulePresentation(
        R21,
        [parse_poly("x1*t1 + x2*t1", R21), parse_poly("2*x1*t1 + 2*x2*t1", R21), parse_poly("x1*t1", R21)],
    )
    assert m.monomial
    assert sorted(g.text() for g in m.gens) == ["x1*t1", "x2*t1"]


def test_irreducibly_general_presentation_stays_general():
    m = ModulePresentation(R21, [parse_poly("x1*t1 + x2*t1", R21)])
    assert not m.monomial
    assert len(m.gens) == 1


def test_colength_free_module_is_zero():
    assert colength_exponent(ModulePresentation.free(R22, 1)).exponent == 0


def test_colength_principal_square():
    m = module(R11, "x1^2*t1")
    assert colength_exponent(m).exponent == 2


def test_colength_m_times_free():
    mf = module(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    assert colength_exponent(mf).exponent == 1


def test_colength_infinite_detected_in_monomial_regime():
    m = module(R22, "x1*t1")
    w = colength_exponent(m)
    assert not w.finite


def test_colength_general_regime_hand_derived():
    # R/(x1+x2, x2^b) is k[x2]/(x2^b), so the colength exponent is exactly b
    ring = RingDescriptor(F, 2, 1)
    for b in (2, 3, 4):
        m = ModulePresentation(
            ring, [parse_poly("x1 + x2", ring), parse_poly(f"x2^{b}", ring)]
        )
        assert not m.monomial
        assert colength_exponent(m).exponent == b


def test_piece_principal_cube():
    m = module(R11, "x1^2*t1")
    assert module_span(module_power(m, 3), 7).dim == 1  # only x^6 t^3 below the cutoff


def test_piece_mf_dimension_four():
    mf = module(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    assert module_span(mf, 2).dim == 4


def test_piece_contains_cross_monomial_in_square():
    m = module(R21, "x1^2*t1", "x2^2*t1")
    sq = module_power(m, 2)
    assert module_membership(parse_poly("x1^2*x2^2*t1^2", R21), sq)


def test_piece_monomial_and_span_paths_agree():
    # the truncated span of a power misses exactly the staircase monomials,
    # all of which lie below the bound
    from coeffmod.poly import MonomialIndex

    m = module(R21, "x1^2*t1", "x2^2*t1")
    for n, bound in ((1, 4), (2, 6), (3, 8)):
        power = module_power(m, n)
        index = MonomialIndex(R21, power.tdeg, bound)
        outside = quotient_length(ModulePresentation.free(R21, n), power)
        assert module_span(power, bound, index).dim == index.dim - outside


def test_length_free_over_mf_closed_form():
    mf = module(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    free = ModulePresentation.free(R22, 1)
    for n in (1, 2, 3, 4):
        assert quotient_length(module_power(free, n), module_power(mf, n)) == n * (n + 1) ** 2 // 2
    assert quotient_length(module_power(free, 2), module_power(mf, 2)) == 9


def test_length_equal_modules_is_zero():
    m = module(R21, "x1^2*t1", "x2^2*t1")
    assert quotient_length(module_power(m, 3), module_power(m, 3)) == 0


def test_length_square_of_max_ideal_over_pure_squares():
    big = module(R21, "x1^2*t1", "x1*x2*t1", "x2^2*t1")
    small = module(R21, "x1^2*t1", "x2^2*t1")
    assert quotient_length(module_power(big, 3), module_power(small, 3)) == 3
    for n in (1, 2, 3, 4, 5):
        assert quotient_length(module_power(big, n), module_power(small, n)) == n


def test_length_rejects_non_nested_pair():
    a = module(R21, "x1^2*t1")
    b = module(R21, "x2^2*t1")
    with pytest.raises(NotASubpairError):
        quotient_length(a, b)


def test_general_and_monomial_lengths_agree():
    # oracle equivalence: the truncated chart, run on a monomial modulus,
    # reproduces the lattice count on random nested monomial pairs
    from coeffmod.graded import _Chart

    rng = random.Random(23)
    ring = RingDescriptor(F, 2, 1)
    for _ in range(6):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        extra = f"x1^{rng.randint(0, 1)}*x2*t1"
        small = module(ring, f"x1^{a}*t1", f"x2^{b}*t1")
        big = module(ring, f"x1^{a}*t1", f"x2^{b}*t1", extra)
        n = rng.randint(1, 2)
        bn, sn = module_power(big, n), module_power(small, n)
        chart = _Chart(sn, colength_exponent(sn).exponent)
        assert chart.length([g.terms() for g in bn.gens]) == len(mono_quotient_monomials(bn, sn))


def test_term_wise_lengths_of_general_elements_by_hand():
    # x2^k never enters small = (x1^2, x1 x2^3), yet (big + small)/small is
    # spanned by g = x1 x2 + x1 x2^2 and x2 g = x1 x2^2 modulo small
    ring = RingDescriptor(F, 2, 1)
    small = module(ring, "x1^2", "x1*x2^3")
    big = module_sum(small, module(ring, "x1*x2 + x1*x2^2"))
    assert not big.monomial and not colength_exponent(small).finite
    assert quotient_length(big, small, verify_inclusion=False) == 2
    # modulo (x1^3, x2^3) the shifts of g = x1^2 - x2^2 leave g, x1 x2^2,
    # x1^2 x2 and x1^2 x2^2, the last one twice up to sign (from x1^2 g and
    # x2^2 g), yet the walk keeps one residue per line
    cubes = module(ring, "x1^3", "x2^3")
    g = module(ring, "x1^2 - x2^2")
    assert quotient_length(g, cubes, verify_inclusion=False) == 4
    residues = cubes.mono.residues([g.gens[0].terms()])
    lines = set()
    for res in residues:
        coeffs = {(t, x): c for t, x, c in res}
        lead = coeffs[min(coeffs)]
        lines.add(frozenset((m, F.div(c, lead)) for m, c in coeffs.items()))
    assert len(lines) == len(residues) == 4


def test_truncation_probe_stability():
    mf = module(R22, "x1*t1", "x2*t1", "x1*t2", "x2*t2")
    free = ModulePresentation.free(R22, 1)
    base = quotient_length(module_power(free, 3), module_power(mf, 3))
    for extra in (1, 2):
        with truncation_margin(extra):
            assert quotient_length(module_power(free, 3), module_power(mf, 3)) == base


PENCIL = ("x1^2 + 3*x2^2", "x1*x2")


def test_truncation_probe_stability_general_regime():
    # the pencil is general (no monomial presentation); m^3 lies inside it
    ring = RingDescriptor(F, 2, 1)
    pencil = module(ring, *PENCIL)
    assert not pencil.monomial
    bigger = module(ring, *PENCIL, "x2^2")
    free = ModulePresentation.free(ring, 0)

    def answers():
        square = module_power(pencil, 2)
        return (
            colength_exponent(pencil).exponent,
            colength_exponent(square).exponent,
            quotient_length(free, pencil),
            quotient_length(bigger, pencil),
            quotient_length(module_power(free, 2), square),
            quotient_length(module_power(bigger, 2), square),
        )

    base = answers()
    assert base[0] == 3 and base[2] == 4 and base[3] == 1
    for extra in (1, 2):
        with truncation_margin(extra):
            assert answers() == base
    assert answers() == base


def test_span_memo_is_never_returned_for_another_bound():
    from coeffmod.poly import MonomialIndex

    ring = RingDescriptor(F, 2, 1)
    pencil = module(ring, *PENCIL)

    def fresh(bound):
        return module_span(module(ring, *PENCIL), bound)

    for bound in (4, 5, 4, 6, 6, 3):
        span = module_span(pencil, bound)
        assert span.ambient == MonomialIndex(ring, 0, bound).dim
        assert span == fresh(bound)
        assert pencil._span[0] == bound  # one span per presentation
    # every bound a margin run asks for already carries the margin
    for extra in (1, 2):
        with truncation_margin(extra):
            witness = colength_exponent(pencil)
            held, span = pencil._span
            assert held == witness.exponent + 1 + extra
            assert span.ambient == MonomialIndex(ring, 0, held).dim


def test_subadditivity_of_lengths():
    rng = random.Random(31)
    for _ in range(8):
        e = [rng.randint(1, 3) for _ in range(4)]
        low = module(R21, f"x1^{e[0] + e[1]}*t1", f"x2^{e[2] + e[3]}*t1", "x1*x2^2*t1")
        a = module_sum(low, module(R21, f"x1^{e[0]}*x2*t1"))
        b = module_sum(low, module(R21, f"x2^{e[2]}*x1*t1"))
        both = module_sum(a, b)
        la = quotient_length(a, low)
        lb = quotient_length(b, low)
        lsum = quotient_length(both, low)
        assert lsum <= la + lb


def test_colon_floor_equals_frame_returns_floor():
    m = module(R21, "x1^2*t1", "x2^2*t1")
    target = module_power(m, 2)
    out = colon_into_frame(target, [g for g in m.gens], m, m)
    assert modules_equal(out, m)


def test_colon_whole_frame_when_products_land_in_target():
    # frame/floor lifts all multiply into the target: answer is the frame
    floor = module(R21, "x1^2*t1", "x1*x2*t1", "x2^2*t1")
    frame = module(R21, "x1*t1", "x2*t1")
    target = module(R21, "x1^2*t1", "x1*x2*t1", "x2^2*t1")
    unit = parse_poly("x1", R21)
    out = colon_into_frame(target, [unit], frame, floor)
    assert modules_equal(out, frame)


def test_colon_precondition_violation_raises():
    ideal = module(R21, "x1^4*t1")
    frame = ModulePresentation.free(R21, 1)
    with pytest.raises(StructuralError):
        colon_into_frame(ideal, [parse_poly("1", R21)], frame, frame)


def test_colon_quartic_ideal_recovers_center_monomial():
    # the colon of the square by a generic pair, inside the saturation frame,
    # picks up x^2 y^2; oracle: x^2 y^2 * I lies in I^2 since I^2 = m^8
    ring = RingDescriptor(F, 2, 1)
    rng = random.Random(41)
    ideal = ModulePresentation(
        ring, [parse_poly(t, ring) for t in ("x1^4", "x1^3*x2", "x1*x2^3", "x2^4")]
    )
    target = module_power(ideal, 2)
    elems = []
    for _ in range(2):
        combo = None
        for g in ideal.gens:
            part = g.scale(ring.field.random(rng))
            combo = part if combo is None else combo.add(part)
        elems.append(combo)
    frame = ModulePresentation.free(ring, 0)
    out = colon_into_frame(target, elems, frame, ideal)
    assert module_membership(parse_poly("x1^2*x2^2", ring), out)
    expected = ModulePresentation(
        ring,
        [parse_poly(t, ring) for t in ("x1^4", "x1^3*x2", "x1*x2^3", "x2^4", "x1^2*x2^2")],
    )
    assert modules_equal(out, expected)
    # every returned generator multiplies each elem into the target
    for g in out.gens:
        for e in elems:
            assert module_membership(g.mul(e), target)
    assert module_contains(out, ideal)


@st.composite
def integer_generators(draw):
    """Two or three rank-1, d = 2 generators with integer coefficients in [-3, 3]."""
    xexp = st.sampled_from([(a, b) for a in range(4) for b in range(4) if 1 <= a + b <= 3])
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    return draw(st.lists(st.dictionaries(xexp, coeff, min_size=1, max_size=3), min_size=2, max_size=3))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(gens=integer_generators())
# (x2^2, x1^2 - 3 x2) : (x1 - x2) has kernel vectors of mixed signs, which
# the derandomized draws need not reach
@example(gens=[{(0, 2): -3}, {(2, 0): 1, (0, 1): -3}])
def test_rationals_and_a_large_prime_field_agree(gens):
    """General-regime modules with small integer coefficients have the same
    colength, lengths F^n/M^n and colons over Q and over F_p with p far
    above every minor of their Macaulay matrices; the F_p image of each Q
    colon equals the F_p colon."""
    fp = PrimeField(3037000493)
    answers, colons = [], []
    for field in (QQ, fp):
        ring = RingDescriptor(field, 2, 1)
        polys = [PolyElement(ring, {Monomial(x, (1,)): field.of(c) for x, c in g.items()}) for g in gens]
        mod = ModulePresentation(ring, polys)
        assume(not mod.monomial)
        try:
            colength = colength_exponent(mod, ceiling=6).exponent
        except UndecidedColengthError:
            assume(False)
        free = ModulePresentation.free(ring, 1)
        lengths = [quotient_length(module_power(free, n), module_power(mod, n)) for n in (1, 2)]
        colon = colon_into_frame(module_power(mod, 2), [polys[0]], free, mod)
        # (M : x1 - x2) over the floor m^c F: its kernel vectors mix signs
        floor = module_multiply(module_power(ModulePresentation.maximal_ideal(ring), colength), free)
        difference = colon_into_frame(mod, [parse_poly("x1 - x2", ring)], free, floor)
        answers.append((colength, lengths, quotient_length(colon, mod), quotient_length(difference, mod)))
        colons.append((colon, difference))
    assert answers[0] == answers[1]
    for over_q, over_p in zip(*colons):
        image = [PolyElement(over_p.ring, {m: fp.of(c) for m, c in g.coeffs.items()}) for g in over_q.gens]
        assert modules_equal(ModulePresentation(over_p.ring, image, tdeg=over_q.tdeg), over_p)


def test_try_monomialize_promotes_unit_shifted_principal():
    # (x^2 + x^3) = x^2 * (1 + x) is the monomial module (x^2) locally
    ring = RingDescriptor(F, 1, 1)
    m = ModulePresentation(ring, [parse_poly("x1^2*t1 + x1^3*t1", ring)])
    assert not m.monomial
    promoted = try_monomialize(m)
    assert promoted.monomial
    assert modules_equal(promoted, module(ring, "x1^2*t1"))


def test_try_monomialize_leaves_genuinely_mixed_module():
    # (x1+x2, x2^3) has finite colength but only contains monomials of
    # degree >= 3, so its monomial span is strictly smaller
    ring = RingDescriptor(F, 2, 1)
    m = ModulePresentation(ring, [parse_poly("x1 + x2", ring), parse_poly("x2^3", ring)])
    out = try_monomialize(m)
    assert not out.monomial
    # and an infinite-colength mixed module is left alone without erroring
    odd = ModulePresentation(ring, [parse_poly("x1*t1 + x2*t1", ring)])
    assert not try_monomialize(odd).monomial


def test_truncation_margin_stays_in_its_thread():
    # a margin entered in one thread must not move the bounds another thread
    # asks for at the same time
    ring = RingDescriptor(F, 2, 1)
    pencil = module(ring, *PENCIL)
    entered, read = threading.Event(), threading.Event()
    bounds = {}

    def probing():
        with truncation_margin(2):
            bounds["probing"] = _chart(pencil, 3)[0].bound
            entered.set()
            read.wait(timeout=30)

    def plain():
        entered.wait(timeout=30)
        bounds["plain"] = _chart(module(ring, *PENCIL), 3)[0].bound
        read.set()

    threads = [threading.Thread(target=probing), threading.Thread(target=plain)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert bounds == {"probing": 6, "plain": 4}


# -- the monomial regime against brute force on raw exponent tuples ----------


def _t_basis(p, tdeg):
    return [t for t in product(range(tdeg + 1), repeat=p) if sum(t) == tdeg]


def _in(gens, t, x):
    """(t, x) lies in the module generated by the (t, x) pairs `gens`."""
    return any(gt == t and all(a <= b for a, b in zip(gx, x)) for gt, gx in gens)


def _points(d, p, tdeg, top):
    """Every (t, x) of t-degree tdeg with all x-exponents at most top."""
    return [(t, x) for t in _t_basis(p, tdeg) for x in product(range(top + 1), repeat=d)]


def _brute_colength(gens, d, p, tdeg, top):
    """Least c with every monomial of x-degree c inside, None if infinite.

    Generator exponents are at most top, so a module of finite colength holds
    x_i^a with a <= top for every i and t-part, and then every monomial of
    x-degree d * top; no c up to there means infinite colength."""
    for c in range(d * top + 1):
        shifts = [x for x in product(range(c + 1), repeat=d) if sum(x) == c]
        if all(_in(gens, t, x) for t in _t_basis(p, tdeg) for x in shifts):
            return c
    return None


def _brute_quotient(frame, floor, d, p, tdeg, top):
    """Monomials of frame outside floor, or None when there are infinitely
    many.  Membership depends only on the exponents capped at top, so the
    set is infinite iff the box [0, top]^d holds one with an exponent top."""
    outside = [
        (t, x) for t, x in _points(d, p, tdeg, top) if _in(frame, t, x) and not _in(floor, t, x)
    ]
    if any(max(x) == top for _, x in outside):
        return None
    return sorted(outside)


@st.composite
def monomial_gens(draw, d, p, tdeg, min_size=0):
    """(t, x) generators in t-degree tdeg; about half the draws hold a pure
    power of every variable in every t-part, so finite colength is common."""
    basis = _t_basis(p, tdeg)
    gens = []
    if draw(st.booleans()):
        for t in basis:
            for i in range(d):
                a = draw(st.integers(1, 4))
                gens.append((t, tuple(a if j == i else 0 for j in range(d))))
    gens += draw(
        st.lists(
            st.tuples(st.sampled_from(basis), st.tuples(*[st.integers(0, 3)] * d)),
            min_size=min_size,
            max_size=4,
        )
    )
    return gens


@st.composite
def monomial_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([1, 2]))
    tdeg = draw(st.integers(0, 2))
    wdeg = draw(st.integers(0, tdeg))
    return (
        d,
        p,
        tdeg,
        wdeg,
        draw(monomial_gens(d, p, tdeg)),
        draw(monomial_gens(d, p, tdeg)),
        draw(monomial_gens(d, p, wdeg, min_size=1)),
    )


def _presentation(ring, tdeg, gens):
    polys = [PolyElement.from_monomial(ring, Monomial(x, t)) for t, x in gens]
    return ModulePresentation(ring, polys, tdeg=tdeg)


def _brute_escapes(gens, t, x, top):
    """Some power of one variable never pushes (t, x) into the module.  No
    generator exponent exceeds top, so raising x_i to top decides it."""
    return any(not _in(gens, t, x[:i] + (max(x[i], top),) + x[i + 1 :]) for i in range(len(x)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=monomial_cases())
# p = 2, module (x1 t1, x1^2 t2, x2 t2): x1 t1 lies in it and x1 t2 does not,
# and x2^k t1 escapes while x2^k t2 enters, so tables keyed on the x-part
# alone would mix the two t-buckets; the frame (t2) has a finite quotient
@example(
    case=(
        2,
        2,
        1,
        0,
        [((1, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 1), (0, 1))],
        [((0, 1), (0, 0))],
        [((0, 0), (0, 0))],
    )
)
# x2^k t1 never enters (x1^2 t1): the quotient is infinite at every asking
@example(case=(2, 1, 1, 0, [((1,), (2, 0))], [((1,), (0, 0))], [((0,), (0, 0))]))
def test_monomial_module_matches_brute_force(case):
    d, p, tdeg, wdeg, a_gens, b_gens, w_gens = case
    ring = RingDescriptor(F, d, p)
    a, b, w = (_presentation(ring, g, gens) for g, gens in ((tdeg, a_gens), (tdeg, b_gens), (wdeg, w_gens)))
    top = max([1] + [e for _, x in a_gens + b_gens + w_gens for e in x])

    # one engine is asked the colength and the quotient of the frame b over
    # the floor a before and after its answers fill in over a whole box
    engine = a.mono
    frame = [((t, x, 1),) for t, x in b_gens]
    colength = _brute_colength(a_gens, d, p, tdeg, top)
    outside = _brute_quotient(b_gens, a_gens, d, p, tdeg, top)

    def ask(colength_of):
        assert colength_of(a).exponent == colength
        if outside is None:
            with pytest.raises(InfiniteLengthError):
                mono_quotient_monomials(b, a)
            with pytest.raises(InfiniteLengthError):
                engine.length(frame)
        else:
            assert sorted((m.texp, m.xexp) for m in mono_quotient_monomials(b, a)) == outside
            assert engine.length(frame) == len(outside)

    ask(colength_exponent)
    for t, x in _points(d, p, tdeg, top + 1):
        assert engine.contains(Monomial(x, t)) == _in(a_gens, t, x)
        assert engine.escapes(t, x) == _brute_escapes(a_gens, t, x, top)
    # the colength again past the presentation's memo, so the engine answers
    ask(lambda mod: _colength_search(mod, COLENGTH_CEILING))
    assert a.mono is engine
    units = [Monomial((0,) * d, t) for t in _t_basis(p, tdeg)]
    assert any(engine.escapes(u.texp, u.xexp) for u in units) == (colength is None)

    meet = a.mono.intersect(b.mono)
    for t, x in _points(d, p, tdeg, top):
        assert meet.contains(Monomial(x, t)) == (_in(a_gens, t, x) and _in(b_gens, t, x))

    colon = a.mono.colon(w.mono)
    assert colon.tdeg == tdeg - wdeg
    for t, x in _points(d, p, tdeg - wdeg, top):
        inside = all(
            _in(a_gens, tuple(u + v for u, v in zip(t, wt)), tuple(u + v for u, v in zip(x, wx)))
            for wt, wx in w_gens
        )
        assert colon.contains(Monomial(x, t)) == inside


def test_intersection_across_degrees_raises_the_typed_error():
    a = module(R22, "x1*t1", "x2*t2")
    b = module(R22, "x1*t1^2")
    with pytest.raises(RingMismatchError):
        a.mono.intersect(b.mono)


def test_quartic_power_and_graded_links_by_hand():
    # M = (x1^4, x1^3 x2, x1 x2^3, x2^4) t1 has M^2 = m^8 t1^2 by hand, and the
    # Fitting ideal of a rank-1 module is its ideal, so I(M) M = m^8 t1; for
    # n >= 3 bounded lengths of N M^(n-1) / M^(n+1) force N inside
    # M^(n+1) : M^(n-1) = m^8, so both graded links k = 1, 2 are I(M) M
    ring = RingDescriptor(F, 2, 1)
    quartic = module(ring, "x1^4*t1", "x1^3*x2*t1", "x1*x2^3*t1", "x2^4*t1")
    m8 = [f"x1^{8 - i}*x2^{i}" for i in range(9)]
    assert modules_equal(module_power(quartic, 2), module(ring, *(f"{g}*t1^2" for g in m8)))
    floor = module(ring, *(f"{g}*t1" for g in m8))
    for k in (1, 2):
        cert = graded_coefficient_module(quartic, k, random.Random(3))
        assert modules_equal(cert.result, floor)


# -- monomial products and powers: exponent sums on raw tuples ----------------


def _brute_minimal(gens):
    """The (t, x) pairs of `gens` that no other one divides, sorted."""
    gens = set(gens)
    return sorted(g for g in gens if not _in(gens - {g}, *g))


def _brute_product(a_gens, b_gens):
    return _brute_minimal(
        (tuple(u + v for u, v in zip(at, bt)), tuple(u + v for u, v in zip(ax, bx)))
        for at, ax in a_gens
        for bt, bx in b_gens
    )


def _brute_text(gens):
    """The text of a monomial presentation: generators sorted by descending
    (t-degree, negated t-exponents, x-degree, negated x-exponents)."""

    def word(t, x):
        exps = [(f"x{i + 1}", e) for i, e in enumerate(x)] + [(f"t{i + 1}", e) for i, e in enumerate(t)]
        parts = [v + (f"^{e}" if e > 1 else "") for v, e in exps if e]
        return "*".join(parts) or "1"

    order = sorted(gens, key=lambda g: (sum(g[0]), [-e for e in g[0]], sum(g[1]), [-e for e in g[1]]), reverse=True)
    return "[" + "; ".join(word(t, x) for t, x in order) + "]"


def _brute_buckets(gens):
    out = {}
    for t, x in gens:
        out.setdefault(t, []).append(x)
    return {t: sorted(xs) for t, xs in out.items()}


@st.composite
def scaled_monomial_products(draw):
    d = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([1, 2]))
    ta, tb = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    a_gens = draw(monomial_gens(d, p, ta, min_size=1))
    scalars = st.sampled_from([Fraction(3), Fraction(-2, 3), Fraction(1), Fraction(-1)])
    coeffs = draw(st.lists(scalars, min_size=len(a_gens), max_size=len(a_gens)))
    field = draw(st.sampled_from(["Fp", "Q"]))
    return field, d, p, ta, tb, a_gens, coeffs, draw(monomial_gens(d, p, tb, min_size=1)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=scaled_monomial_products())
# p = 2, d = 3, t-degree 2: a non-minimal generator (x1^2 t1 t2 under x1 t1 t2),
# sums landing in four t-buckets, and a cube of a rank-2 module
@example(
    case=(
        "Fp",
        3,
        2,
        2,
        1,
        [((1, 1), (1, 0, 0)), ((2, 0), (0, 1, 0)), ((1, 1), (2, 0, 0)), ((0, 2), (0, 0, 2))],
        [Fraction(3), Fraction(-2, 3), Fraction(1), Fraction(-1)],
        [((0, 1), (0, 0, 1)), ((1, 0), (1, 0, 0)), ((1, 0), (0, 1, 1))],
        3,
    )
)
# the spec 3*x1^2 over Fp:10007, times (x2, x1^2 x2): the sum x1^4 x2 is not minimal
@example(case=("Fp", 2, 1, 1, 1, [((1,), (2, 0))], [Fraction(3)], [((1,), (0, 1)), ((1,), (2, 1))], 2))
# the spec -2/3*x1*x2 over Q, with (x1, x1^2 x2): x1^2 x2 divides x1^3 x2^2
@example(case=("Q", 2, 1, 1, 1, [((1,), (1, 1))], [Fraction(-2, 3)], [((1,), (1, 0)), ((1,), (2, 1))], 3))
def test_monomial_products_are_minimal_exponent_sums(case):
    name, d, p, ta, tb, a_gens, coeffs, b_gens, n = case
    ring = RingDescriptor(F if name == "Fp" else QQ, d, p)
    scaled = [PolyElement.from_monomial(ring, Monomial(x, t), ring.field.of(c)) for (t, x), c in zip(a_gens, coeffs)]
    a = ModulePresentation(ring, scaled, tdeg=ta)
    b = _presentation(ring, tb, b_gens)
    # written with any nonzero coefficients, a monomial module presents with 1
    assert all(c == ring.field.one() for g in a.gens for c in g.coeffs.values())
    assert a.text() == _brute_text(_brute_minimal(a_gens))
    rebuilt = ModulePresentation(ring, a.mono)
    assert rebuilt.text() == a.text() and rebuilt.mono == a.mono
    expected = {"a*b": _brute_product(a_gens, b_gens), "a^n": _brute_minimal(a_gens)}
    for _ in range(n - 1):
        expected["a^n"] = _brute_product(expected["a^n"], a_gens)
    for key, got in (("a*b", module_multiply(a, b)), ("a^n", module_power(a, n))):
        assert got.monomial and got.tdeg == (ta + tb if key == "a*b" else n * ta)
        assert {t: sorted(xs) for t, xs in got.mono.buckets.items()} == _brute_buckets(expected[key]), key
        assert got.text() == _brute_text(expected[key]), key


# -- product_quotient_dim: brute force and the compressed product -------------


@st.composite
def monomial_products(draw):
    d = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([1, 2]))
    ta, tb = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    basis = _t_basis(p, ta + tb)
    floor = draw(st.lists(st.tuples(st.sampled_from(basis), st.tuples(*[st.integers(1, 5)] * d)), max_size=3))
    if draw(st.integers(0, 2)) > 0:
        # pure powers in every t-part: finite colength
        for t in basis:
            floor += [(t, tuple(draw(st.integers(2, 6)) if j == i else 0 for j in range(d))) for i in range(d)]
    a_gens = draw(monomial_gens(d, p, ta, min_size=1))
    b_gens = draw(monomial_gens(d, p, tb, min_size=1))
    return d, p, ta, tb, a_gens, b_gens, floor


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=monomial_products())
# t1 * t2 products over the bucket t1 t2: t-parts must be added too
@example(case=(2, 2, 1, 1, [((1, 0), (1, 0))], [((0, 1), (0, 1))], [((1, 1), (3, 0)), ((1, 1), (0, 2))]))
# the staircase reaches x2^2 * x1^2 only through shifts in the last variable
@example(case=(2, 1, 1, 0, [((1,), (1, 0))], [((0,), (0, 0))], [((1,), (3, 0)), ((1,), (0, 3))]))
# (x1 x2) modulo (x1^2): x1 x2^k escapes
@example(case=(2, 1, 1, 1, [((1,), (1, 0))], [((1,), (0, 1))], [((2,), (2, 0))]))
def test_product_lengths_match_brute_force(case):
    d, p, ta, tb, a_gens, b_gens, s_gens = case
    ring = RingDescriptor(F, d, p)
    a, b, small = (_presentation(ring, g, gens) for g, gens in ((ta, a_gens), (tb, b_gens), (ta + tb, s_gens)))
    frame = [
        (tuple(u + v for u, v in zip(at, bt)), tuple(u + v for u, v in zip(ax, bx)))
        for at, ax in a_gens
        for bt, bx in b_gens
    ]
    top = max([1] + [e for _, x in frame + s_gens for e in x])
    outside = _brute_quotient(frame, s_gens, d, p, ta + tb, top)
    if outside is None:
        with pytest.raises(InfiniteLengthError):
            product_quotient_dim(a, b, small)
    else:
        assert product_quotient_dim(a, b, small) == len(outside)


@st.composite
def general_products(draw):
    """Rank-1, d = 2 factors of t-degree 1 with coefficients in [-2, 2] over
    F_10007, and a modulus of t-degree 2: monomials of x-degree at least 3,
    plus one general generator when it holds pure powers of both variables
    (finite colength)."""
    term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.sampled_from([-2, -1, 1, 2]))
    factor = st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=2)
    cubic_and_up = [(a, b) for a in range(5) for b in range(5) if a + b >= 3]
    modulus = st.lists(st.sampled_from(cubic_and_up), min_size=1, max_size=3)
    powers = draw(st.integers(0, 2)) > 0
    extra = draw(st.lists(term, max_size=3)) if powers else []
    return draw(factor), draw(factor), draw(modulus) + ([(4, 0), (0, 3)] if powers else []), extra


def _element(ring, tdeg, terms):
    return PolyElement(ring, {Monomial(x, (tdeg,)): ring.field.of(c) for x, c in dict(terms).items()})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=general_products())
# (x1 + x2)(x1 - x2) = x1^2 - x2^2: the x1 x2 terms of the product cancel,
# and what is left lies in (x1^2, x2^2)
@example(case=([[((1, 0), 1), ((0, 1), 1)]], [[((1, 0), 1), ((0, 1), -1)]], [(2, 0), (0, 2)], []))
# the same product inside the general modulus (x1^4, x2^3, x1^2 - x2^2)
@example(
    case=([[((1, 0), 1), ((0, 1), 1)]], [[((1, 0), 1), ((0, 1), -1)]], [(4, 0), (0, 3)], [((2, 0), 1), ((0, 2), -1)])
)
def test_product_lengths_match_the_compressed_product(case):
    a_terms, b_terms, s_xexps, extra = case
    ring = RingDescriptor(F, 2, 1)
    a = ModulePresentation(ring, [_element(ring, 1, t) for t in a_terms], tdeg=1)
    b = ModulePresentation(ring, [_element(ring, 1, t) for t in b_terms], tdeg=1)
    gens = [_element(ring, 2, [(x, 1)]) for x in s_xexps] + ([_element(ring, 2, extra)] if extra else [])
    small = ModulePresentation(ring, gens, tdeg=2)
    try:
        expected = quotient_length(module_multiply(a, b), small, verify_inclusion=False)
    except InfiniteLengthError:
        with pytest.raises(InfiniteLengthError):
            product_quotient_dim(a, b, small)
        return
    assert product_quotient_dim(a, b, small) == expected
