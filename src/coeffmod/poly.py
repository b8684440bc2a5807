"""Bigraded monomials and polynomials in x-variables (the base ring) and
t-variables (coordinates of the rank-p free module), plus the text grammar.

All stored algorithms operate on t-homogeneous elements: an element of
t-degree n is a vector in the degree-n piece of the polynomial ring
R[t_1..t_p] over R = k[x_1..x_d].  The monomial order is fixed globally
(degree-lex on the t-part, then degree-lex on the x-part, with t_1 > t_2 >
... and x_1 > x_2 > ...), so bases produced anywhere in the package share
one coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ParseError, RingMismatchError
from .linalg import Field, coefficient_array

# exponents are machine-word integers; anything past this is a bug, not data
EXPONENT_LIMIT = 10**6


@dataclass(frozen=True)
class RingDescriptor:
    field: Field
    d: int  # number of x-variables
    p: int  # rank of the free module = number of t-variables

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ValueError("need d >= 1 and p >= 1")

    def __repr__(self):
        return f"Ring({self.field}, d={self.d}, p={self.p})"


class Monomial:
    """An exponent-vector pair (xexp, texp); immutable and hashable."""

    __slots__ = ("xexp", "texp", "_key", "_hash")

    def __init__(self, xexp, texp):
        object.__setattr__(self, "xexp", tuple(xexp))
        object.__setattr__(self, "texp", tuple(texp))
        if any(e < 0 for e in self.xexp) or any(e < 0 for e in self.texp):
            raise ValueError("negative exponent")
        if max(self.xexp, default=0) > EXPONENT_LIMIT or max(self.texp, default=0) > EXPONENT_LIMIT:
            raise OverflowError("exponent exceeds the checked limit")
        key = (
            sum(self.texp),
            tuple(-e for e in self.texp),
            sum(self.xexp),
            tuple(-e for e in self.xexp),
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def xdeg(self) -> int:
        return self._key[2]

    @property
    def tdeg(self) -> int:
        return self._key[0]

    @property
    def key(self):
        return self._key

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a + b for a, b in zip(self.xexp, other.xexp)),
            tuple(a + b for a, b in zip(self.texp, other.texp)),
        )

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.xexp, other.xexp)) and all(
            a <= b for a, b in zip(self.texp, other.texp)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.xexp == other.xexp
            and self.texp == other.texp
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"Monomial({self.xexp}, {self.texp})"

    def text(self) -> str:
        parts = []
        for i, e in enumerate(self.xexp):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        for j, e in enumerate(self.texp):
            if e == 1:
                parts.append(f"t{j + 1}")
            elif e > 1:
                parts.append(f"t{j + 1}^{e}")
        return "*".join(parts) if parts else "1"


def unit_monomial(ring: RingDescriptor) -> Monomial:
    return Monomial((0,) * ring.d, (0,) * ring.p)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, in the
    order matching the global monomial key (first variable dominant)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def exponents_below(bound: int, parts: int):
    """All exponent tuples with total degree strictly below `bound`."""
    for degree in range(bound):
        yield from compositions(degree, parts)


class PolyElement:
    """Sparse polynomial: map Monomial -> nonzero field scalar."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingDescriptor, coeffs=None):
        self.ring = ring
        self.coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                if not ring.field.is_zero(c):
                    self.coeffs[m] = c

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "PolyElement":
        return cls(ring)

    @classmethod
    def from_monomial(cls, ring: RingDescriptor, m: Monomial, c=None) -> "PolyElement":
        return cls(ring, {m: ring.field.one() if c is None else c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "PolyElement"):
        if self.ring != other.ring:
            raise RingMismatchError(f"rings differ: {self.ring} vs {other.ring}")

    def add(self, other: "PolyElement") -> "PolyElement":
        self._check(other)
        f = self.ring.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = f.add(out.get(m, f.zero()), c)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return PolyElement(self.ring, out)

    def neg(self) -> "PolyElement":
        f = self.ring.field
        return PolyElement(self.ring, {m: f.neg(c) for m, c in self.coeffs.items()})

    def sub(self, other: "PolyElement") -> "PolyElement":
        return self.add(other.neg())

    def scale(self, c) -> "PolyElement":
        f = self.ring.field
        if f.is_zero(c):
            return PolyElement.zero(self.ring)
        return PolyElement(self.ring, {m: f.mul(c, v) for m, v in self.coeffs.items()})

    def mul(self, other: "PolyElement") -> "PolyElement":
        self._check(other)
        f = self.ring.field
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1.mul(m2)
                s = f.add(out.get(m, f.zero()), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return PolyElement(self.ring, out)

    def terms(self):
        """The terms as (texp, xexp, coefficient) triples: the row form the
        quotient engines and the truncated charts read."""
        return tuple((m.texp, m.xexp, c) for m, c in self.coeffs.items())

    def mul_monomial(self, m: Monomial) -> "PolyElement":
        return PolyElement(self.ring, {mm.mul(m): c for mm, c in self.coeffs.items()})

    def tdeg(self):
        """Common t-degree of all terms, or None for zero / inhomogeneous."""
        degs = {m.tdeg for m in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_t_homogeneous(self) -> bool:
        return len({m.tdeg for m in self.coeffs}) <= 1

    def monomials(self):
        """Support in ascending key order (degree first, x1 before x2)."""
        return sorted(self.coeffs)

    def leading_monomial(self) -> Monomial:
        return max(self.coeffs)

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def __eq__(self, other):
        return (
            isinstance(other, PolyElement)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted((m.key, str(c)) for m, c in self.coeffs.items()))))

    def text(self) -> str:
        """Canonical serialization; parses back to an equal element."""
        if self.is_zero():
            return "0"
        parts = []
        for m in self.monomials():
            c = self.coeffs[m]
            frac = Fraction(c) if not isinstance(c, Fraction) else c
            neg = frac < 0
            mag = -frac if neg else frac
            if m == unit_monomial(self.ring):
                body = _coeff_text(mag)
            elif mag == 1:
                body = m.text()
            else:
                body = f"{_coeff_text(mag)}*{m.text()}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self.text()}>"


def _coeff_text(c) -> str:
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# grammar:
#   poly   := term (('+'|'-') term)*
#   term   := coeff ('*' factor)* | factor ('*' factor)*
#   factor := var ('^' uint)?
#   var    := 'x'uint | 't'uint
#   coeff  := int
# whitespace insignificant; variables 1-indexed, bounded by d and p.
# A leading sign is accepted so serialized elements round-trip.
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch

    def take_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", position=start)
        value = int(self.text[start : self.pos])
        if value > EXPONENT_LIMIT:
            raise ParseError("integer exceeds the checked exponent limit", position=start)
        return value


def parse_poly(text: str, ring: RingDescriptor) -> PolyElement:
    """Parse the grammar above into a canonical PolyElement."""
    toks = _Tokens(text)
    result = PolyElement.zero(ring)
    sign = 1
    first = True
    while True:
        ch = toks.peek()
        if ch is None:
            if first:
                raise ParseError("empty polynomial", position=toks.pos)
            break
        if ch in "+-":
            toks.take()
            sign = 1 if ch == "+" else -1
        elif not first:
            raise ParseError(f"expected '+' or '-', found {ch!r}", position=toks.pos)
        result = result.add(_parse_term(toks, ring, sign))
        sign = 1
        first = False
    return result


def _parse_term(toks: _Tokens, ring: RingDescriptor, sign: int) -> PolyElement:
    field = ring.field
    coeff = Fraction(sign)
    xexp = [0] * ring.d
    texp = [0] * ring.p
    ch = toks.peek()
    if ch is None:
        raise ParseError("expected a term", position=toks.pos)
    if ch.isdigit():
        coeff *= toks.take_uint()
        if toks.peek() == "*":
            toks.take()
            _parse_factor(toks, ring, xexp, texp)
    elif ch in "xt":
        _parse_factor(toks, ring, xexp, texp)
    else:
        raise ParseError(f"unexpected character {ch!r}", position=toks.pos)
    while toks.peek() == "*":
        toks.take()
        _parse_factor(toks, ring, xexp, texp)
    m = Monomial(xexp, texp)
    return PolyElement(ring, {m: field.of(coeff)})


def _parse_factor(toks: _Tokens, ring: RingDescriptor, xexp, texp):
    pos = toks.pos
    ch = toks.take()
    if ch not in ("x", "t"):
        raise ParseError(f"expected a variable, found {ch!r}", position=pos)
    idx = toks.take_uint()
    power = 1
    if toks.peek() == "^":
        toks.take()
        power = toks.take_uint()
    if ch == "x":
        if not 1 <= idx <= ring.d:
            raise ParseError(f"unknown variable x{idx} (d={ring.d})", position=pos)
        xexp[idx - 1] += power
        if xexp[idx - 1] > EXPONENT_LIMIT:
            raise ParseError("exponent overflow", position=pos)
    else:
        if not 1 <= idx <= ring.p:
            raise ParseError(f"unknown variable t{idx} (p={ring.p})", position=pos)
        texp[idx - 1] += power
        if texp[idx - 1] > EXPONENT_LIMIT:
            raise ParseError("exponent overflow", position=pos)


# ---------------------------------------------------------------------------
# canonical truncated bases
# ---------------------------------------------------------------------------


def t_basis(ring: RingDescriptor, n: int):
    """The t-monomials of degree n: the free-module basis of the degree-n
    piece, in canonical order."""
    zero_x = (0,) * ring.d
    return [Monomial(zero_x, t) for t in compositions(n, ring.p)]


def _comb(a, k: int):
    """C(a, k) elementwise for an int64 array a >= 0; each partial product of
    k consecutive integers is divisible by the factorial so far, so every
    step is exact."""
    out = np.ones_like(a)
    for i in range(k):
        out = out * (a - i) // (i + 1)
    return out


def x_ranks(xexps) -> np.ndarray:
    """Positions of the rows of `xexps` (an m x d exponent array) in the
    canonical x-order of exponents_below: total degree first, then x1
    dominant.

    An exponent of degree D is preceded by the C(D-1+d, d) exponents of lower
    degree and, for each i, by the compositions of what is left after
    x1..x(i-1) whose i-th part is larger; no truncation bound enters.
    """
    xexps = np.asarray(xexps, dtype=np.int64)
    d = xexps.shape[1]
    rest = xexps.sum(axis=1)
    rank = _comb(rest - 1 + d, d)
    for i in range(d - 1):
        part = xexps[:, i]
        rank += _comb(rest - part - 1 + d - 1 - i, d - 1 - i)
        rest = rest - part
    return rank


class MonomialIndex:
    """Coordinate chart for the truncated degree-n piece: monomial <-> column.

    The column of x^a t^b is (position of b among the degree-n t-monomials)
    times the number of x-monomials below the bound, plus x_ranks(a).  That
    is the order of the global key, which places lower x-degrees first inside
    each t-block; the x-rank, and hence every pivot position in the shared
    prefix of a block, does not depend on the truncation bound.
    """

    def __init__(self, ring: RingDescriptor, n: int, bound: int):
        self.ring = ring
        self.tdeg = n
        self.bound = bound
        self.texps = list(compositions(n, ring.p))
        self.tblock = {t: i for i, t in enumerate(self.texps)}
        self.xsize = comb(bound - 1 + ring.d, ring.d)
        self._xexps = None

    @property
    def dim(self) -> int:
        return len(self.texps) * self.xsize

    @property
    def xexps(self) -> np.ndarray:
        """The x-exponents below the bound, one row per x-rank."""
        if self._xexps is None:
            self._xexps = np.array(list(exponents_below(self.bound, self.ring.d)), dtype=np.int64)
            self._xexps = self._xexps.reshape(self.xsize, self.ring.d)
        return self._xexps

    def degree_columns(self, c: int):
        """Columns of the monomials of x-degree c (below the bound)."""
        d = self.ring.d
        low, high = comb(c - 1 + d, d), comb(c + d, d)
        return [tb * self.xsize + r for tb in range(len(self.texps)) for r in range(low, high)]

    def _terms(self, row):
        """(t-blocks, x-exponents, coefficients) of a row of terms
        (`PolyElement.terms`) of the chart's t-degree."""
        blocks, xexps, coeffs = [], [], []
        for t, x, c in row:
            if sum(t) != self.tdeg:
                raise RingMismatchError("t-degree does not match the chart")
            blocks.append(self.tblock[t])
            xexps.append(x)
            coeffs.append(c)
        return (
            np.array(blocks, dtype=np.int64),
            np.array(xexps, dtype=np.int64).reshape(len(xexps), self.ring.d),
            coeffs,
        )

    def vector(self, row):
        """Coordinates of a row of terms; terms with xdeg >= bound are
        projected away (they lie inside the truncation ideal)."""
        field = self.ring.field
        blocks, xexps, coeffs = self._terms(row)
        keep = np.nonzero(xexps.sum(axis=1) < self.bound)[0]
        v = np.zeros(self.dim, dtype=field.dtype)
        v[blocks[keep] * self.xsize + x_ranks(xexps[keep])] = coefficient_array(field, coeffs)[keep]
        return v

    def shifted_rows(self, gens):
        """The truncated products x^gamma * g, |gamma| < bound, of each
        generator (a row of terms), as sparse entries for SpanBuilder.add_rows.

        Row i * X + rank(gamma) holds x^gamma times the i-th generator (X the
        number of x-monomials below the bound); terms pushed to x-degree >=
        bound lie in the truncation ideal and are dropped.  Returns (number
        of rows, rows ascending, columns, values).
        """
        nrows = len(gens) * self.xsize
        owners, blocks, xexps, coeffs = [], [], [], []
        for i, g in enumerate(gens):
            b, x, c = self._terms(g)
            owners.append(np.full(len(c), i, dtype=np.int64))
            blocks.append(b)
            xexps.append(x)
            coeffs.extend(c)
        if not coeffs:
            empty = np.zeros(0, dtype=np.int64)
            return nrows, empty, empty, coefficient_array(self.ring.field, [])
        owners, blocks, xexps = np.concatenate(owners), np.concatenate(blocks), np.concatenate(xexps)
        gammas = self.xexps
        room = self.bound - xexps.sum(axis=1)  # a shift must have degree below this
        term, gamma = np.nonzero(gammas.sum(axis=1)[None, :] < room[:, None])
        rows = owners[term] * self.xsize + gamma
        cols = blocks[term] * self.xsize + x_ranks(gammas[gamma] + xexps[term])
        vals = coefficient_array(self.ring.field, coeffs)[term]
        order = np.argsort(rows, kind="stable")
        return nrows, rows[order], cols[order], vals[order]

    def poly(self, cols, vals) -> PolyElement:
        """The element with coefficient vals[i] at column cols[i]."""
        field = self.ring.field
        xexps = self.xexps
        coeffs = {}
        for col, c in sorted(zip(np.asarray(cols).tolist(), list(vals))):
            c = field.of(c)
            if not field.is_zero(c):
                block, rank = divmod(col, self.xsize)
                coeffs[Monomial(tuple(xexps[rank].tolist()), self.texps[block])] = c
        return PolyElement(self.ring, coeffs)
