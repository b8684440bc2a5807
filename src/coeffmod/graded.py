"""The finite-dimensional engine for graded pieces of submodules.

A module is presented by t-homogeneous generators of one common t-degree g
inside the degree-g piece of R[t_1..t_p]; semantically it is the submodule
generated over the local ring R_m (m the irrelevant maximal ideal), so every
membership and length computed here agrees with the local one.

Two regimes coexist:

* monomial: every generator is a single monomial.  Powers, colons,
  saturations and lengths are lattice combinatorics; no truncation is needed
  and infinite colength is allowed.
* general: computations run inside the truncated quotient F^g / m^D F^g.
  A membership or equality test against a module B is exact as soon as
  m^(D-1) F^g lies inside B: the test decides equality with B + m^D F^g and
  Nakayama (over the local ring) upgrades that to equality with B.  Every
  such D is taken from a ColengthWitness and recorded, and
  `truncation_margin` lets a verification run re-ask every question with an
  enlarged bound.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from .errors import (
    InfiniteLengthError,
    NotASubpairError,
    RegimeError,
    RingMismatchError,
    StructuralError,
    UndecidedColengthError,
)
from .linalg import ExactMatrix, PrimeField, SpanBuilder, Subspace, coefficient_array, kernel_basis
from .poly import (
    Monomial,
    MonomialIndex,
    PolyElement,
    RingDescriptor,
    compositions,
    exponents_below,
    t_basis,
)

# additional slack added to every truncation bound; raised temporarily by
# the --trunc-probe soundness re-run.  Held per context, so a margin entered
# in one thread is invisible to every other thread.
_MARGIN = ContextVar("truncation_margin", default=0)

# default ceiling for colength searches
COLENGTH_CEILING = 64


@contextmanager
def truncation_margin(extra: int):
    """Context manager bumping every truncation bound by `extra`."""
    token = _MARGIN.set(_MARGIN.get() + extra)
    try:
        yield
    finally:
        _MARGIN.reset(token)


@dataclass
class ColengthWitness:
    """Least exponent c with m^c F^g inside the module, or infinite."""

    exponent: Optional[int]  # None encodes infinite colength
    method: str

    @property
    def finite(self) -> bool:
        return self.exponent is not None


def _canonical_scale(poly: PolyElement) -> PolyElement:
    """Scale to a canonical generator: leading coefficient 1 over a prime
    field, primitive integer coefficients with positive leading term over Q."""
    if poly.is_zero():
        return poly
    field = poly.ring.field
    lead = poly.coeffs[poly.leading_monomial()]
    if isinstance(field, PrimeField):
        return poly.scale(field.inv(lead))
    denom = 1
    for c in poly.coeffs.values():
        denom = denom * Fraction(c).denominator // gcd(denom, Fraction(c).denominator)
    g = 0
    for c in poly.coeffs.values():
        g = gcd(g, abs(int(Fraction(c) * denom)))
    scale = Fraction(denom, g)
    if Fraction(lead) < 0:
        scale = -scale
    return poly.scale(scale)


class ModulePresentation:
    """A submodule of the t-degree-g piece, given by finitely many
    generators of that degree.  Immutable; caches derive from it."""

    def __init__(self, ring: RingDescriptor, gens, tdeg: Optional[int] = None):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator over a different ring")
            if g.is_zero():
                continue
            if not g.is_t_homogeneous():
                raise RingMismatchError("generators must be t-homogeneous")
            cleaned.append(_canonical_scale(g))
        degs = {g.tdeg() for g in cleaned}
        if len(degs) > 1:
            raise RingMismatchError("generators of mixed t-degree")
        if cleaned:
            self.tdeg = degs.pop()
        elif tdeg is not None:
            self.tdeg = tdeg
        else:
            raise ValueError("zero module needs an explicit t-degree")
        if not all(g.is_monomial() for g in cleaned):
            # k-linear compression can reveal a hidden monomial generating set
            cleaned = _compress_generators(ring, cleaned)
        self.monomial = all(g.is_monomial() for g in cleaned)
        self._mono = None
        if self.monomial:
            self._mono = MonomialModule(ring, self.tdeg, ((m.texp, m.xexp) for g in cleaned for m in g.coeffs))
            cleaned = [PolyElement.from_monomial(ring, m) for m in self._mono.monomials()]
        self.gens = sorted(cleaned, key=lambda g: g.leading_monomial().key, reverse=True)
        self._powers = {1: self}
        self._span = None  # (absolute bound, Subspace): the last truncated span built
        self._memo = {}  # colength, and base-side results of chains, fits and closures; see memo()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_monomials(cls, ring: RingDescriptor, monomials) -> "ModulePresentation":
        return cls(ring, [PolyElement.from_monomial(ring, m) for m in monomials])

    @classmethod
    def zero(cls, ring: RingDescriptor, tdeg: int) -> "ModulePresentation":
        return cls(ring, [], tdeg=tdeg)

    @classmethod
    def free(cls, ring: RingDescriptor, tdeg: int = 1) -> "ModulePresentation":
        """The full degree-tdeg piece of the free module."""
        return cls.from_monomials(ring, t_basis(ring, tdeg))

    @classmethod
    def maximal_ideal(cls, ring: RingDescriptor) -> "ModulePresentation":
        gens = []
        for i in range(ring.d):
            x = [0] * ring.d
            x[i] = 1
            gens.append(Monomial(x, (0,) * ring.p))
        return cls.from_monomials(ring, gens)

    @property
    def mono(self) -> "MonomialModule":
        if not self.monomial:
            raise RegimeError("monomial form requested for a general module")
        return self._mono

    @property
    def mono_gens(self):
        """The generators as monomials, in the order of `gens`."""
        if not self.monomial:
            raise RegimeError("monomial generators requested for a general module")
        return tuple(g.leading_monomial() for g in self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def __repr__(self):
        tag = "monomial" if self.monomial else "general"
        return f"Module(tdeg={self.tdeg}, {len(self.gens)} gens, {tag})"

    def text(self) -> str:
        return "[" + "; ".join(g.text() for g in self.gens) + "]"


def _compress_generators(ring, gens):
    """Replace the generator list by an equivalent k-independent one (RREF
    over the joint monomial support).  Invertible k-linear moves preserve
    the generated module."""
    if len(gens) <= 1:
        return list(gens)
    support = sorted({m for g in gens for m in g.coeffs}, reverse=True)
    pos = {m: i for i, m in enumerate(support)}
    field = ring.field
    rows = []
    for g in gens:
        v = np.zeros(len(support), dtype=field.dtype)
        for m, c in g.coeffs.items():
            v[pos[m]] = c
        rows.append(v)
    sub = Subspace.from_rows(field, len(support), rows)
    out = []
    for i in range(sub.dim):
        row = sub.matrix.row(i)
        coeffs = {}
        for j, m in enumerate(support):
            c = field.of(row[j])
            if not field.is_zero(c):
                coeffs[m] = c
        out.append(_canonical_scale(PolyElement(ring, coeffs)))
    return out


# ---------------------------------------------------------------------------
# monomial-regime combinatorics
# ---------------------------------------------------------------------------


def _divided(bucket, x) -> bool:
    """Some exponent tuple of the bucket divides x."""
    return any(all(a <= b for a, b in zip(g, x)) for g in bucket)


class MonomialModule:
    """A monomial module of one t-degree: the minimal x-exponent tuples of
    each t-bucket.

    Two monomials of equal t-degree divide one another only when their
    t-parts coincide, so every divisibility test reads one bucket.  Minimal
    monomial generators are unique, so equal modules hold equal buckets.
    """

    def __init__(self, ring: RingDescriptor, tdeg: int, pairs):
        """The module generated by the (texp, xexp) pairs, minimalised."""
        self.ring = ring
        self.tdeg = tdeg
        grouped = {}
        for t, x in pairs:
            grouped.setdefault(t, set()).add(x)
        self.buckets = {}
        for t, xs in grouped.items():
            kept = []
            # a proper divisor has smaller total degree, so it comes first
            for x in sorted(xs, key=lambda x: (sum(x), x)):
                if not _divided(kept, x):
                    kept.append(x)
            self.buckets[t] = tuple(kept)

    def __eq__(self, other):
        return self.tdeg == other.tdeg and self.buckets == other.buckets

    def monomials(self):
        return [Monomial(x, t) for t, xs in self.buckets.items() for x in xs]

    def presentation(self) -> "ModulePresentation":
        gens = [PolyElement.from_monomial(self.ring, m) for m in self.monomials()]
        return ModulePresentation(self.ring, gens, tdeg=self.tdeg)

    def contains(self, m: Monomial) -> bool:
        return _divided(self.buckets.get(m.texp, ()), m.xexp)

    def reduce(self, poly: PolyElement) -> PolyElement:
        """Canonical reduction modulo the module: drop the member terms."""
        return PolyElement(poly.ring, {m: c for m, c in poly.coeffs.items() if not self.contains(m)})

    def escapes(self, m: Monomial) -> bool:
        """True when the powers of some variable never push m into the module.

        x_i^k * m enters the module for large k iff some generator divides m
        away from the i-th exponent, so the answer needs no search.  The
        module has finite colength iff no unit monomial t^beta escapes.
        """
        bucket = self.buckets.get(m.texp, ())
        return any(
            not any(all(a <= b for j, (a, b) in enumerate(zip(g, m.xexp)) if j != i) for g in bucket)
            for i in range(self.ring.d)
        )

    def sweep(self, frame, ceiling: int = COLENGTH_CEILING) -> int:
        """Least K with m^K * frame inside the module, for a list of frame
        monomials.  Finiteness is decided exactly first, by `escapes`."""
        for f in frame:
            if self.escapes(f):
                raise InfiniteLengthError(f"monomial quotient is infinite: {f.text()} escapes the floor")
        for K in range(ceiling + 1):
            shifts = list(compositions(K, self.ring.d))
            if all(
                _divided(self.buckets[f.texp], tuple(a + b for a, b in zip(alpha, f.xexp)))
                for f in frame
                for alpha in shifts
            ):
                return K
        raise UndecidedColengthError(f"no K <= {ceiling} with m^K * frame inside floor despite finite length")

    def intersect(self, other: "MonomialModule") -> "MonomialModule":
        """Pairwise lcm of the generators in each common t-bucket."""
        if self.ring != other.ring or self.tdeg != other.tdeg:
            raise RingMismatchError("intersection of modules in different degrees")
        return MonomialModule(
            self.ring,
            self.tdeg,
            (
                (t, tuple(map(max, x, y)))
                for t, xs in self.buckets.items()
                for x in xs
                for y in other.buckets.get(t, ())
            ),
        )

    def colon(self, elems: "MonomialModule") -> "MonomialModule":
        """(self : elems), in t-degree self.tdeg - elems.tdeg.

        u * w lies in the module iff a generator g of the bucket of u * w
        divides it, i.e. u's bucket is g's minus w's and u's x-part is at
        least (g - w)^+; the colon intersects these over the generators w.
        """
        tdeg = self.tdeg - elems.tdeg
        if self.ring != elems.ring or tdeg < 0:
            raise RingMismatchError("degree mismatch in colon")
        out = None
        for wt, wxs in elems.buckets.items():
            for wx in wxs:
                piece = MonomialModule(
                    self.ring,
                    tdeg,
                    (
                        (tuple(a - b for a, b in zip(t, wt)), tuple(max(a - b, 0) for a, b in zip(x, wx)))
                        for t, xs in self.buckets.items()
                        if all(a >= b for a, b in zip(t, wt))
                        for x in xs
                    ),
                )
                out = piece if out is None else out.intersect(piece)
                if not out.buckets:
                    return out
        if out is None:
            raise RegimeError("colon by the zero module")
        return out


def mono_quotient_monomials(frame: ModulePresentation, floor: ModulePresentation, ceiling: int = COLENGTH_CEILING):
    """Monomials of frame not in floor: a k-basis of frame/floor.

    Every monomial of frame is x^gamma * (a generator), and for |gamma| >= K
    it falls into floor, so the enumeration below is exhaustive.
    """
    gens, inside = frame.mono_gens, floor.mono
    K = inside.sweep(gens, ceiling)
    seen = set()
    for f in gens:
        for gamma in exponents_below(K, frame.ring.d):
            m = Monomial(tuple(a + b for a, b in zip(gamma, f.xexp)), f.texp)
            if m not in seen and not inside.contains(m):
                seen.add(m)
    return sorted(seen)


# ---------------------------------------------------------------------------
# presentation-level algebra
# ---------------------------------------------------------------------------


def module_sum(a: ModulePresentation, b: ModulePresentation) -> ModulePresentation:
    if a.tdeg != b.tdeg:
        raise RingMismatchError("sum of modules in different degrees")
    return ModulePresentation(a.ring, list(a.gens) + list(b.gens), tdeg=a.tdeg)


def module_multiply(a: ModulePresentation, b: ModulePresentation) -> ModulePresentation:
    if a.is_zero() or b.is_zero():
        return ModulePresentation.zero(a.ring, a.tdeg + b.tdeg)
    gens = [ga.mul(gb) for ga in a.gens for gb in b.gens]
    return ModulePresentation(a.ring, gens, tdeg=a.tdeg + b.tdeg)


def module_power(mod: ModulePresentation, n: int) -> ModulePresentation:
    """n-th power inside the symmetric algebra, by iterated multiplication
    with per-step compression of the spanning set."""
    if n < 1:
        raise ValueError("power must be >= 1")
    cache = mod._powers
    if n in cache:
        return cache[n]
    best = max(k for k in cache if k <= n)
    current = cache[best]
    for k in range(best + 1, n + 1):
        current = module_multiply(current, mod)
        cache[k] = current
    return cache[n]


def memo(mod: ModulePresentation, key: tuple, compute):
    """compute(), evaluated once per key and kept on the presentation.

    The result lives in `mod._memo` as long as the presentation does.  Every
    key is extended by the current truncation margin, so a truncation-probe
    re-run recomputes whatever may reach a truncated span instead of reading
    a result of the unprobed bounds.  A raised error is not kept.
    """
    key = key + (_MARGIN.get(),)
    if key not in mod._memo:
        mod._memo[key] = compute()
    return mod._memo[key]


# ---------------------------------------------------------------------------
# truncated spans and colength
# ---------------------------------------------------------------------------


def module_span(mod: ModulePresentation, bound: int, index: Optional[MonomialIndex] = None) -> Subspace:
    """RREF span of the image of the module in the truncated quotient at
    the absolute `bound`: the rows x^gamma * gen, |gamma| < bound (higher
    gamma project to zero, so this is the whole image of the module and of
    its localization).

    The result is memoised on the presentation for one bound only, the last
    one asked; a call with another bound rebuilds it and takes the slot.
    Bounds already include the truncation margin, so a truncation-probe
    re-run never sees a span built for the unprobed bound.
    """
    if mod._span is not None and mod._span[0] == bound:
        return mod._span[1]
    if index is None:
        index = MonomialIndex(mod.ring, mod.tdeg, bound)
    builder = SpanBuilder(mod.ring.field, index.dim)
    builder.add_rows(*index.shifted_rows(mod.gens))
    span = builder.subspace()
    mod._span = (bound, span)
    return span


def _chart(mod: ModulePresentation, c: int):
    """(chart, span of `mod`) at the bound that decides questions modulo a
    module containing m^c F^g: c + 1 by Nakayama over the local ring, plus
    the truncation margin."""
    index = MonomialIndex(mod.ring, mod.tdeg, c + 1 + _MARGIN.get())
    return index, module_span(mod, index.bound, index)


def colength_exponent(mod: ModulePresentation, ceiling: int = COLENGTH_CEILING) -> ColengthWitness:
    """Least c >= 0 with m^c F^g inside the module, memoised on it.

    The monomial path decides infinite colength exactly; the general path
    searches upward and reports an undecided error at the ceiling.  Each
    candidate c is checked through the truncated quotient at bound c+1,
    which is exact by Nakayama over the local ring.
    """
    return memo(mod, ("colength",), lambda: _colength_search(mod, ceiling))


def _colength_search(mod: ModulePresentation, ceiling: int) -> ColengthWitness:
    ring = mod.ring
    if mod.is_zero():
        return ColengthWitness(None, "zero module")
    if mod.monomial:
        # the colength is the K-sweep with the t-basis as frame
        try:
            return ColengthWitness(mod.mono.sweep(t_basis(ring, mod.tdeg), ceiling), "monomial divisibility sweep")
        except InfiniteLengthError:
            return ColengthWitness(None, "monomial staircase is infinite")
    for c in range(ceiling + 1):
        index, span = _chart(mod, c)
        if span.contains_unit_vectors(index.degree_columns(c)):
            return ColengthWitness(c, f"truncated sweep at bound {index.bound}")
    raise UndecidedColengthError(
        f"colength undecided up to ceiling {ceiling}; enlarge it or use a monomial presentation"
    )


# ---------------------------------------------------------------------------
# membership / inclusion / equality
# ---------------------------------------------------------------------------


def module_membership(elem: PolyElement, mod: ModulePresentation, witness: Optional[ColengthWitness] = None) -> bool:
    """Exact membership of a t-homogeneous element (in the localized sense)."""
    if elem.is_zero():
        return True
    if elem.tdeg() != mod.tdeg:
        raise RingMismatchError("element degree does not match the module")
    if mod.monomial:
        return all(mod.mono.contains(m) for m in elem.coeffs)
    if witness is None:
        witness = colength_exponent(mod)
    if not witness.finite:
        raise RegimeError("general-regime membership needs finite colength")
    index, span = _chart(mod, witness.exponent)
    return span.contains_vector(index.vector(elem))


def module_contains(big: ModulePresentation, small: ModulePresentation) -> bool:
    if big.tdeg != small.tdeg:
        raise RingMismatchError("containment across different degrees")
    if big.monomial:
        return all(big.mono.contains(m) for g in small.gens for m in g.coeffs)
    witness = colength_exponent(big)
    if not witness.finite:
        raise RegimeError("containment in a general module needs finite colength")
    index, span = _chart(big, witness.exponent)
    return all(span.contains_vector(index.vector(g)) for g in small.gens)


def modules_equal(a: ModulePresentation, b: ModulePresentation) -> bool:
    return module_contains(a, b) and module_contains(b, a)


# ---------------------------------------------------------------------------
# quotient lengths
# ---------------------------------------------------------------------------


def _general_pair_length(big: ModulePresentation, small: ModulePresentation) -> int:
    """dim big/small via truncated spans; small must have finite colength."""
    witness = colength_exponent(small)
    if not witness.finite:
        raise InfiniteLengthError("smaller module has infinite colength")
    index, span_small = _chart(small, witness.exponent)
    builder = SpanBuilder(big.ring.field, index.dim, seed=span_small)
    builder.add_rows(*index.shifted_rows(big.gens))
    return builder.dim - span_small.dim


def quotient_length(big: ModulePresentation, small: ModulePresentation, verify_inclusion: bool = True) -> int:
    """Exact length of big/small (same t-degree, small of finite relative
    colength)."""
    if big.tdeg != small.tdeg:
        raise RingMismatchError("quotient across different degrees")
    if verify_inclusion and not module_contains(big, small):
        raise NotASubpairError("smaller module is not contained in the larger one")
    if big.monomial and small.monomial:
        return len(mono_quotient_monomials(big, small))
    if small.monomial:
        return relative_quotient_dim(big, small)
    return _general_pair_length(big, small)


# ---------------------------------------------------------------------------
# relative quotient against a monomial modulus
# ---------------------------------------------------------------------------


def relative_quotient_dim(big: ModulePresentation, small: ModulePresentation, ceiling: int = COLENGTH_CEILING) -> int:
    """Exact length of (big + small)/small for a monomial `small`.

    Sweeps x^gamma * gen reductions by ascending |gamma|; once a whole level
    reduces to zero, every higher level does too (small is a module), so the
    collected rows span the quotient.  Works whatever the colength of small,
    as long as the quotient itself has finite length.
    """
    if not small.monomial:
        raise RegimeError("relative quotient chart needs a monomial modulus")
    if big.tdeg != small.tdeg:
        raise RingMismatchError("quotient across different degrees")
    return _spanned_quotient_dim(list(big.gens), small.mono, ceiling)


def product_quotient_dim(
    a: ModulePresentation,
    b: ModulePresentation,
    small: ModulePresentation,
    ceiling: int = COLENGTH_CEILING,
) -> int:
    """Length of (a*b + small)/small for a monomial `small`.

    Streams the products of the two generator lists straight into the chart
    sweep; a compressed presentation of a*b over the full joint support is
    never built, which matters at high t-degrees."""
    if not small.monomial:
        raise RegimeError("relative quotient chart needs a monomial modulus")
    if a.tdeg + b.tdeg != small.tdeg:
        raise RingMismatchError("quotient across different degrees")
    products = [ga.mul(gb) for ga in a.gens for gb in b.gens]
    return _spanned_quotient_dim(products, small.mono, ceiling)


def _spanned_quotient_dim(elems, small: MonomialModule, ceiling: int) -> int:
    ring = small.ring
    alive = []
    for g in elems:
        reduced = small.reduce(g)
        if reduced.is_zero():
            continue
        for m in reduced.coeffs:
            if small.escapes(m):
                raise InfiniteLengthError(
                    f"quotient is infinite: the term {m.text()} escapes the modulus"
                )
        alive.append(reduced)
    reduced_rows = []
    level = 0
    while alive:
        survivors = []
        for g in alive:
            hit = False
            for gamma in compositions(level, ring.d):
                red = small.reduce(g.mul_monomial(Monomial(gamma, (0,) * ring.p)))
                if not red.is_zero():
                    reduced_rows.append(red)
                    hit = True
            if hit:
                # an element whose level is all zero stays zero at every
                # higher level, so it can be retired
                survivors.append(g)
        alive = survivors
        level += 1
        if level > ceiling:
            raise UndecidedColengthError(
                f"relative quotient still has new rows at x-shift level {ceiling}; enlarge the ceiling"
            )
    if not reduced_rows:
        return 0
    chart = sorted({m for row in reduced_rows for m in row.coeffs})
    pos = {m: i for i, m in enumerate(chart)}
    rows, cols, vals = [], [], []
    for i, row in enumerate(reduced_rows):
        for m, c in row.coeffs.items():
            rows.append(i)
            cols.append(pos[m])
            vals.append(c)
    builder = SpanBuilder(ring.field, len(chart))
    builder.add_rows(
        len(reduced_rows),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        coefficient_array(ring.field, vals),
    )
    return builder.dim


# ---------------------------------------------------------------------------
# the frame colon
# ---------------------------------------------------------------------------


def quotient_lifts(frame: ModulePresentation, floor: ModulePresentation):
    """Polynomial representatives of a k-basis of frame/floor.

    Monomial pairs enumerate the set difference directly.  Otherwise the
    floor span inside the truncated chart is extended by the frame rows
    x^gamma * gen in order; the rows that enlarge it are the lifts.
    Representatives are unique only up to floor, which is all the colon
    computation needs.
    """
    ring = frame.ring
    if frame.monomial and floor.monomial:
        return [PolyElement.from_monomial(ring, m) for m in mono_quotient_monomials(frame, floor)]
    witness = colength_exponent(floor)
    if not witness.finite:
        raise RegimeError("frame/floor lift needs floor of finite colength")
    index, span = _chart(floor, witness.exponent)
    builder = SpanBuilder(ring.field, index.dim, seed=span)
    nrows, rows, cols, vals = index.shifted_rows(frame.gens)
    accepted = builder.add_rows(nrows, rows, cols, vals)
    starts = np.searchsorted(rows, accepted)
    ends = np.searchsorted(rows, accepted, side="right")
    return [index.poly(cols[lo:hi], vals[lo:hi]) for lo, hi in zip(starts, ends)]


def _residual_coordinates(products, target: ModulePresentation):
    """Canonical coset coordinates of each product modulo the target.

    Monomial targets reduce term-by-term on an ad-hoc chart of the residual
    monomials that actually occur; general targets reduce against the
    truncated RREF span, whose residuals live on the non-pivot columns.
    """
    ring = target.ring
    field = ring.field
    if target.monomial:
        residual_monos = sorted(
            {m for poly in products for m in poly.coeffs if not target.mono.contains(m)}
        )
        pos = {m: i for i, m in enumerate(residual_monos)}
        width = len(residual_monos)
        rows = []
        for poly in products:
            v = np.zeros(width, dtype=field.dtype)
            for m, c in poly.coeffs.items():
                if m in pos:
                    v[pos[m]] = c
            rows.append(v)
        return rows, width
    witness = colength_exponent(target)
    if not witness.finite:
        raise RegimeError("colon target needs finite colength in the general regime")
    index, span = _chart(target, witness.exponent)
    rows = [span.reduce_vector(index.vector(p)) for p in products]
    return rows, index.dim


def colon_into_frame(
    target: ModulePresentation,
    elems,
    frame: ModulePresentation,
    floor: ModulePresentation,
) -> ModulePresentation:
    """(target : elems) intersected with the frame, as floor + kernel.

    Preconditions (verified): floor inside frame, floor * elem inside target
    for every elem, and frame/floor of finite length.  The answer is then
    floor plus the kernel of the k-linear map sending a coset of frame/floor
    to the tuple of its products with the elems, taken modulo target.
    """
    ring = target.ring
    if not module_contains(frame, floor):
        raise StructuralError("floor is not contained in the frame")
    for e in elems:
        for g in floor.gens:
            if not module_membership(g.mul(e), target):
                raise StructuralError(
                    "floor * elem escapes the target: wrong power or not a reduction"
                )
    lifts = quotient_lifts(frame, floor)
    if not lifts:
        return floor
    blocks = []
    width_total = 0
    for e in elems:
        products = [w.mul(e) for w in lifts]
        block, width = _residual_coordinates(products, target)
        blocks.append((block, width))
        width_total += width
    if width_total == 0:
        # every product already lies in the target: the colon is the frame
        return ModulePresentation(ring, list(floor.gens) + list(lifts), tdeg=floor.tdeg)
    # solve for coefficient vectors over the lifts: one matrix row per
    # residual coordinate, one column per lift, right kernel = the colon
    field = ring.field
    mat = np.zeros((width_total, len(lifts)), dtype=field.dtype)
    off = 0
    for block, width in blocks:
        for j, row in enumerate(block):
            mat[off : off + width, j] = row
        off += width
    kernel = kernel_basis(ExactMatrix(field, mat, copy=False))
    extra = []
    for lam in kernel:
        poly = PolyElement.zero(ring)
        for j, w in enumerate(lifts):
            c = field.of(lam[j])
            if not field.is_zero(c):
                poly = poly.add(w.scale(c))
        if not poly.is_zero():
            extra.append(poly)
    return ModulePresentation(ring, list(floor.gens) + extra, tdeg=floor.tdeg)


# ---------------------------------------------------------------------------
# monomial promotion
# ---------------------------------------------------------------------------


def try_monomialize(
    mod: ModulePresentation,
    colength_hint: Optional[int] = None,
    ceiling: int = 16,
) -> ModulePresentation:
    """Return an equal monomial presentation when the module happens to be
    spanned by the monomials it contains; otherwise return the input.

    Torus symmetry makes this the common case for modules derived from
    monomial inputs, and the monomial form unlocks the combinatorial fast
    paths.  Equality with the input is verified, never assumed.  Any c with
    m^c F^g inside the module is a valid `colength_hint`; without one a
    bounded search runs and an undecided search just skips the promotion.
    """
    if mod.monomial or mod.is_zero():
        return mod
    try:
        if colength_hint is not None:
            witness = ColengthWitness(colength_hint, "caller hint")
        else:
            witness = colength_exponent(mod, ceiling=ceiling)
        if not witness.finite:
            return mod
        candidates = set()
        for g in mod.gens:
            for m in g.coeffs:
                if module_membership(PolyElement.from_monomial(mod.ring, m), mod, witness):
                    candidates.add(m)
        if not candidates:
            return mod
        candidate = ModulePresentation.from_monomials(mod.ring, candidates)
        if module_contains(candidate, mod):
            return candidate
    except (RegimeError, UndecidedColengthError, InfiniteLengthError):
        pass
    return mod
