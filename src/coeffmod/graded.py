"""The finite-dimensional engine for graded pieces of submodules.

A module is presented by t-homogeneous generators of one common t-degree g
inside the degree-g piece of R[t_1..t_p]; semantically it is the submodule
generated over the local ring R_m (m the irrelevant maximal ideal), so every
membership and length computed here agrees with the local one.

Two regimes coexist, and a question asked modulo a module goes to the
engine its modulus chooses (`_modulo`):

* monomial: every generator is a single monomial.  Powers, colons,
  saturations and lengths are lattice combinatorics; no truncation is needed
  and infinite colength is allowed.  Quotients are taken term by term: drop
  the terms the module contains and walk the x-shifts level by level.
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
from operator import add
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
    generators of that degree or by a `MonomialModule` (whose t-degree it
    takes).  Immutable; caches derive from it."""

    def __init__(self, ring: RingDescriptor, gens, tdeg: Optional[int] = None):
        self.ring = ring
        mono = gens if isinstance(gens, MonomialModule) else None
        if mono is None:
            cleaned = []
            for g in gens:
                if g.ring != ring:
                    raise RingMismatchError("generator over a different ring")
                if g.is_zero():
                    continue
                if not g.is_t_homogeneous():
                    raise RingMismatchError("generators must be t-homogeneous")
                cleaned.append(g)
            degs = {g.tdeg() for g in cleaned}
            if len(degs) > 1:
                raise RingMismatchError("generators of mixed t-degree")
            if cleaned:
                tdeg = degs.pop()
            elif tdeg is None:
                raise ValueError("zero module needs an explicit t-degree")
            if not all(g.is_monomial() for g in cleaned):
                # k-linear compression can reveal a hidden monomial generating set
                cleaned = _compress_generators(ring, cleaned)
            if all(g.is_monomial() for g in cleaned):
                mono = MonomialModule(ring, tdeg, ((m.texp, m.xexp) for g in cleaned for m in g.coeffs))
        self.monomial = mono is not None
        self._mono = mono
        if self.monomial:
            # the one monomial path: the minimal tuples, each with coefficient 1
            self.tdeg = mono.tdeg
            monomials = sorted((Monomial(x, t) for t, x in mono.pairs()), reverse=True)
            self.gens = [PolyElement.from_monomial(ring, m) for m in monomials]
        else:
            self.tdeg = tdeg
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
        units = (tuple(int(i == j) for j in range(ring.d)) for i in range(ring.d))
        return cls(ring, MonomialModule(ring, 0, (((0,) * ring.p, x) for x in units)))

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
    over the joint monomial support), each canonically scaled.  Invertible
    k-linear moves preserve the generated module."""
    if len(gens) <= 1:
        return [_canonical_scale(g) for g in gens]
    support = sorted({m for g in gens for m in g.coeffs}, reverse=True)
    field = ring.field
    sub = Subspace.from_rows(field, len(support), [[g.coeffs.get(m, 0) for m in support] for g in gens])
    return [
        _canonical_scale(PolyElement(ring, dict(zip(support, map(field.of, sub.matrix.row(i))))))
        for i in range(sub.dim)
    ]


# ---------------------------------------------------------------------------
# rows: elements as term tuples
# ---------------------------------------------------------------------------


def _rows(polys):
    return [g.terms() for g in polys]


def _exponent_sum(f, g):
    """The exponents (t, x) of the product of (t, x) pairs or terms f, g."""
    return tuple(map(add, f[0], g[0])), tuple(map(add, f[1], g[1]))


def _product(f, g, field):
    """The row of f * g for rows f, g: exponent sums, coefficients collected."""
    if len(f) == 1 and len(g) == 1:
        # two nonzero scalars have a nonzero product: nothing to collect
        return ((*_exponent_sum(f[0], g[0]), field.mul(f[0][2], g[0][2])),)
    out = {}
    for s in f:
        for r in g:
            key = _exponent_sum(s, r)
            c = field.mul(s[2], r[2])
            out[key] = field.add(out[key], c) if key in out else c
    return tuple((t, x, c) for (t, x), c in out.items() if not field.is_zero(c))


def _residual_chart(field, residues):
    """(width, rows, columns, values): the residues as sparse rows on the
    chart of the monomials that occur in them."""
    chart = {}
    cols = [chart.setdefault((t, x), len(chart)) for r in residues for t, x, _ in r]
    rows = [i for i, r in enumerate(residues) for _ in r]
    vals = [c for r in residues for _, _, c in r]
    return len(chart), np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), coefficient_array(field, vals)


# ---------------------------------------------------------------------------
# monomial-regime combinatorics: the term-wise quotient engine
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

    As a modulus it answers quotient questions term by term: a row is
    reduced by dropping the terms the module contains, which is exact at any
    colength.
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
        # the module is immutable, so what it answers about a monomial (t, x)
        # is kept: membership and escape, each decided once per instance
        self._held = {}
        self._escaping = {}

    def __eq__(self, other):
        return self.tdeg == other.tdeg and self.buckets == other.buckets

    def pairs(self):
        """The minimal generators as (texp, xexp) pairs."""
        return [(t, x) for t, xs in self.buckets.items() for x in xs]

    def _has(self, t, x) -> bool:
        """The module holds the monomial of exponents (t, x)."""
        held = self._held.get((t, x))
        if held is None:
            held = self._held[t, x] = _divided(self.buckets.get(t, ()), x)
        return held

    def contains(self, m: Monomial) -> bool:
        return self._has(m.texp, m.xexp)

    def escapes(self, t, x) -> bool:
        """True when the powers of some variable never push the monomial of
        exponents (t, x) into the module.

        x_i^k * m enters the module for large k iff some generator divides m
        away from the i-th exponent, so the answer needs no search.  The
        module has finite colength iff no unit monomial t^beta escapes.
        """
        out = self._escaping.get((t, x))
        if out is None:
            bucket = self.buckets.get(t, ())
            out = self._escaping[t, x] = any(
                not any(all(a <= b for j, (a, b) in enumerate(zip(g, x)) if j != i) for g in bucket)
                for i in range(self.ring.d)
            )
        return out

    def _residue(self, row):
        return tuple(term for term in row if not self._has(term[0], term[1]))

    def _line(self, row):
        """The residue of the row scaled to a first coefficient of 1: one
        representative for all nonzero scalar multiples."""
        res = self._residue(row)
        lead = res[0][2] if res else 1
        if lead != 1:
            div = self.ring.field.div
            res = tuple((t, x, div(c, lead)) for t, x, c in res)
        return res

    def holds(self, row) -> bool:
        return all(self._has(t, x) for t, x, _ in row)

    def residues(self, rows, ceiling: int = COLENGTH_CEILING):
        """The distinct nonzero residues of x^gamma * row, over every row and
        every gamma, each scaled to a first coefficient of 1, so that no two
        are scalar multiples of one another.

        The walk goes level by level; the successors of a residue are its
        products with x_1..x_d, reduced.  A row that is zero modulo the module
        stays zero under every shift, so the walk ends at its first empty
        level.  It reaches one iff no residual term of a row escapes, which is
        decided first.  Rows of x-degree 0 leave level K empty exactly when
        m^K * rows lies in the module.
        """
        seen = set()
        level = []
        for row in dict.fromkeys(rows):
            res = self._line(row)
            if res and res not in seen:
                seen.add(res)
                level.append(res)
        for t, x, _ in {term for res in level for term in res}:
            if self.escapes(t, x):
                raise InfiniteLengthError(f"quotient is infinite: {Monomial(x, t).text()} escapes the modulus")
        out = list(level)
        depth = 0
        while level:
            depth += 1
            if depth > ceiling:
                raise UndecidedColengthError(f"residues still appear at x-shift level {ceiling}; enlarge the ceiling")
            following = []
            for res in level:
                for i in range(self.ring.d):
                    shifted = tuple((t, x[:i] + (x[i] + 1,) + x[i + 1 :], c) for t, x, c in res)
                    if shifted in seen:
                        continue
                    succ = self._line(shifted)
                    if succ and succ not in seen:
                        seen.add(succ)
                        following.append(succ)
            out += following
            level = following
        return out

    def length(self, rows) -> int:
        res = self.residues(rows)
        if all(len(r) == 1 for r in res):
            # distinct one-term residues are distinct staircase monomials
            return len(res)
        return len(self._independent(res))

    def lifts(self, rows):
        res = self.residues(rows)
        if all(len(r) == 1 for r in res):
            stairs = sorted(Monomial(x, t) for ((t, x, _),) in res)
            return [PolyElement.from_monomial(self.ring, m) for m in stairs]
        return [PolyElement(self.ring, {Monomial(x, t): c for t, x, c in res[i]}) for i in self._independent(res)]

    def _independent(self, residues):
        """Indices of the residues independent of the ones before them."""
        width, rows, cols, vals = _residual_chart(self.ring.field, residues)
        return SpanBuilder(self.ring.field, width).add_rows(len(residues), rows, cols, vals)

    def coordinates(self, rows):
        """Coset coordinates of the rows, one matrix row each, on the chart
        of the residual monomials that occur."""
        field = self.ring.field
        width, r, c, v = _residual_chart(field, [self._residue(row) for row in rows])
        out = np.zeros((len(rows), width), dtype=field.dtype)
        out[r, c] = v
        return out

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


def mono_quotient_monomials(frame: ModulePresentation, floor: ModulePresentation):
    """Monomials of frame not in floor, sorted: a k-basis of frame/floor."""
    rows = [((m.texp, m.xexp, 1),) for m in frame.mono_gens]
    return [g.leading_monomial() for g in floor.mono.lifts(rows)]


# ---------------------------------------------------------------------------
# presentation-level algebra
# ---------------------------------------------------------------------------


def module_sum(a: ModulePresentation, b: ModulePresentation) -> ModulePresentation:
    if a.tdeg != b.tdeg:
        raise RingMismatchError("sum of modules in different degrees")
    return ModulePresentation(a.ring, list(a.gens) + list(b.gens), tdeg=a.tdeg)


def module_multiply(a: ModulePresentation, b: ModulePresentation) -> ModulePresentation:
    """a * b; two monomial modules multiply as the minimalised exponent sums
    of their generators."""
    if a.ring != b.ring:
        raise RingMismatchError("product of modules over different rings")
    tdeg = a.tdeg + b.tdeg
    if a.monomial and b.monomial:
        right = b.mono.pairs()
        sums = (_exponent_sum(f, g) for f in a.mono.pairs() for g in right)
        return ModulePresentation(a.ring, MonomialModule(a.ring, tdeg, sums))
    return ModulePresentation(a.ring, [ga.mul(gb) for ga in a.gens for gb in b.gens], tdeg=tdeg)


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
# truncated spans and colength: the chart quotient engine
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
    builder.add_rows(*index.shifted_rows(_rows(mod.gens)))
    span = builder.subspace()
    mod._span = (bound, span)
    return span


def _chart(mod: ModulePresentation, c: int):
    """(chart, span of `mod`) at the bound that decides questions modulo a
    module containing m^c F^g: c + 1 by Nakayama over the local ring, plus
    the truncation margin."""
    index = MonomialIndex(mod.ring, mod.tdeg, c + 1 + _MARGIN.get())
    return index, module_span(mod, index.bound, index)


class _Chart:
    """Quotients modulo a general module containing m^c F^g, asked inside
    the truncated chart of `_chart` and seeded with the module's span."""

    def __init__(self, mod: ModulePresentation, c: int):
        self.field = mod.ring.field
        self.index, self.span = _chart(mod, c)

    def holds(self, row) -> bool:
        return self.span.contains_vector(self.index.vector(row))

    def _extend(self, rows):
        """(builder, sparse shifted rows, accepted rows) after adding the
        rows x^gamma * row to the module's span."""
        builder = SpanBuilder(self.field, self.index.dim, seed=self.span)
        entries = self.index.shifted_rows(rows)
        return builder, entries, builder.add_rows(*entries)

    def length(self, rows) -> int:
        builder, _, _ = self._extend(rows)
        return builder.dim - self.span.dim

    def lifts(self, rows):
        _, (_, owners, cols, vals), accepted = self._extend(rows)
        starts = np.searchsorted(owners, accepted)
        ends = np.searchsorted(owners, accepted, side="right")
        return [self.index.poly(cols[lo:hi], vals[lo:hi]) for lo, hi in zip(starts, ends)]

    def coordinates(self, rows):
        """Coset coordinates of the rows: their residuals on the non-pivot
        columns of the RREF span."""
        out = np.zeros((len(rows), self.index.dim), dtype=self.field.dtype)
        for i, row in enumerate(rows):
            out[i] = self.span.reduce_vector(self.index.vector(row))
        return out


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
        # one more than the top x-degree of the staircase of the unit monomials
        units = [((t.texp, t.xexp, 1),) for t in t_basis(ring, mod.tdeg)]
        try:
            stairs = mod.mono.residues(units, ceiling)
        except InfiniteLengthError:
            return ColengthWitness(None, "monomial staircase is infinite")
        return ColengthWitness(max((sum(r[0][1]) + 1 for r in stairs), default=0), "monomial staircase walk")
    for c in range(ceiling + 1):
        index, span = _chart(mod, c)
        if span.contains_unit_vectors(index.degree_columns(c)):
            return ColengthWitness(c, f"truncated sweep at bound {index.bound}")
    raise UndecidedColengthError(
        f"colength undecided up to ceiling {ceiling}; enlarge it or use a monomial presentation"
    )


# ---------------------------------------------------------------------------
# questions modulo a module
# ---------------------------------------------------------------------------


def _modulo(mod: ModulePresentation, witness: Optional[ColengthWitness] = None):
    """The quotient engine of a modulus, chosen once by the modulus itself.

    A monomial module answers term by term at any colength; a general one
    through the truncated chart at its colength c, taken from `witness` when
    the caller holds one and from the memoised colength search otherwise.
    Either engine offers `holds(row)`, `length(rows)` (of (rows + mod)/mod,
    the rows' x-shifts included), `lifts(rows)` (a k-basis of that quotient
    as elements) and `coordinates(rows)` (coset coordinates, no shifts).
    """
    if mod.monomial:
        return mod.mono
    if witness is None:
        witness = colength_exponent(mod)
    return _Chart(mod, witness.exponent)


def module_membership(elem: PolyElement, mod: ModulePresentation) -> bool:
    """Exact membership of a t-homogeneous element (in the localized sense)."""
    if elem.is_zero():
        return True
    if elem.tdeg() != mod.tdeg:
        raise RingMismatchError("element degree does not match the module")
    return _modulo(mod).holds(elem.terms())


def module_contains(big: ModulePresentation, small: ModulePresentation) -> bool:
    if big.tdeg != small.tdeg:
        raise RingMismatchError("containment across different degrees")
    modulo = _modulo(big)
    return all(modulo.holds(g.terms()) for g in small.gens)


def modules_equal(a: ModulePresentation, b: ModulePresentation) -> bool:
    return module_contains(a, b) and module_contains(b, a)


def quotient_length(big: ModulePresentation, small: ModulePresentation, verify_inclusion: bool = True) -> int:
    """Exact length of big/small, or of (big + small)/small without
    `verify_inclusion` (same t-degree, finite quotient)."""
    if big.tdeg != small.tdeg:
        raise RingMismatchError("quotient across different degrees")
    if verify_inclusion and not module_contains(big, small):
        raise NotASubpairError("smaller module is not contained in the larger one")
    return _modulo(small).length(_rows(big.gens))


def product_quotient_dim(a: ModulePresentation, b: ModulePresentation, small: ModulePresentation) -> int:
    """Length of (a*b + small)/small.

    The products of the two generator lists are streamed straight into the
    modulus's engine; a compressed presentation of a*b over the full joint
    support is never built, which matters at high t-degrees."""
    if a.tdeg + b.tdeg != small.tdeg:
        raise RingMismatchError("quotient across different degrees")
    field = small.ring.field
    b_rows = _rows(b.gens)
    return _modulo(small).length([_product(f, g, field) for f in _rows(a.gens) for g in b_rows])


# ---------------------------------------------------------------------------
# the frame colon
# ---------------------------------------------------------------------------


def quotient_lifts(frame: ModulePresentation, floor: ModulePresentation):
    """Polynomial representatives of a k-basis of frame/floor.

    Over a monomial floor these are the staircase monomials of the frame
    (sorted) or the independent term-wise residues; otherwise the rows
    x^gamma * gen of the frame that enlarge the floor's truncated span.
    Representatives are unique only up to floor, which is all the colon
    computation needs.
    """
    return _modulo(floor).lifts(_rows(frame.gens))


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
    field = ring.field
    if not module_contains(frame, floor):
        raise StructuralError("floor is not contained in the frame")
    modulo = _modulo(target)
    elem_rows = _rows(elems)
    for e in elem_rows:
        for g in _rows(floor.gens):
            if not modulo.holds(_product(g, e, field)):
                raise StructuralError(
                    "floor * elem escapes the target: wrong power or not a reduction"
                )
    lifts = quotient_lifts(frame, floor)
    if not lifts:
        return floor
    lift_rows = _rows(lifts)
    blocks = [modulo.coordinates([_product(w, e, field) for w in lift_rows]) for e in elem_rows]
    if sum(block.shape[1] for block in blocks) == 0:
        # every product already lies in the target: the colon is the frame
        return ModulePresentation(ring, list(floor.gens) + list(lifts), tdeg=floor.tdeg)
    # solve for coefficient vectors over the lifts: one matrix row per
    # residual coordinate, one column per lift, right kernel = the colon
    kernel = kernel_basis(ExactMatrix(field, np.hstack(blocks).T))
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
        modulo = _modulo(mod, witness)
        candidates = {m for g in mod.gens for m, c in g.coeffs.items() if modulo.holds(((m.texp, m.xexp, c),))}
        if not candidates:
            return mod
        candidate = ModulePresentation.from_monomials(mod.ring, candidates)
        if module_contains(candidate, mod):
            return candidate
    except (RegimeError, UndecidedColengthError, InfiniteLengthError):
        pass
    return mod
