"""Numerical length functions and exact finite-difference polynomial fits.

Tables are exact integer sequences n -> length.  A fit is declared only
when a polynomial tail reproduces `window` table entries beyond the points
needed to determine it, and the certificate records where the table and the
polynomial start to agree.  Coefficients are reported both in the monomial
basis and in the signed binomial basis

    P(n) = sum_{i=0}^{T} (-1)^i e_i C(n + T - i - 1, T - i)

whose top degree T is declared by the caller (d+p-1 for the length of
F^n / M^n, one less than the relevant dimension for relative pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from .errors import BasisSizeError, UnstableFitError
from .graded import (
    ModulePresentation,
    memo,
    module_multiply,
    module_power,
    product_quotient_dim,
    quotient_length,
)


@dataclass
class NumericalFunction:
    """An exact length table n -> value for consecutive n starting at 1."""

    kind: str
    values: list  # list of (n, value)

    def __post_init__(self):
        if self.values:
            ns = [n for n, _ in self.values]
            if ns != list(range(ns[0], ns[0] + len(ns))):
                raise ValueError("table must cover consecutive n")
        if any(v < 0 for _, v in self.values):
            raise ValueError("lengths must be nonnegative")

    def entries(self):
        return [v for _, v in self.values]

    def start(self) -> int:
        return self.values[0][0]

    def __len__(self):
        return len(self.values)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _poly_eval(coeffs, n):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def binomial_basis_polynomial(j: int):
    """Monomial coefficients of C(n + j - 1, j) as a polynomial in n."""
    coeffs = [Fraction(1)]
    for i in range(j):
        coeffs = _poly_mul(coeffs, [Fraction(i), Fraction(1)])  # (n + i)
    return [c / factorial(j) for c in coeffs]


@dataclass(frozen=True)
class FittedPolynomial:
    """Exact polynomial agreeing with a table from stabilization_index on.

    degree -1 encodes the zero polynomial.  `confirmed` counts the table
    entries reproduced beyond the degree+1 points that pin the polynomial
    down.
    """

    degree: int
    coeffs: tuple  # monomial-basis Fractions, low degree first
    stabilization_index: int
    confirmed: int
    kind: str = ""

    def evaluate(self, n: int):
        if self.degree < 0:
            return 0
        v = _poly_eval(self.coeffs, n)
        return int(v) if v.denominator == 1 else v

    def binomial_coefficients(self, top: int):
        """Signed coefficients (e_0, ..., e_top) in the declared basis."""
        if self.degree > top:
            raise BasisSizeError(
                f"polynomial of degree {self.degree} does not fit in a top-{top} basis"
            )
        residual = [Fraction(c) for c in self.coeffs] + [Fraction(0)] * (
            top + 1 - len(self.coeffs)
        )
        out = []
        for i in range(top + 1):
            deg = top - i
            basis = binomial_basis_polynomial(deg)
            lead = basis[deg]
            c = residual[deg] / lead
            e = c if i % 2 == 0 else -c
            out.append(e)
            signed = c
            for k in range(deg + 1):
                residual[k] -= signed * basis[k]
        assert all(r == 0 for r in residual)
        return tuple(int(e) if e.denominator == 1 else e for e in out)

    def coefficients_exact(self):
        """Monomial-basis coefficients, ints when integral."""
        return tuple(int(c) if Fraction(c).denominator == 1 else c for c in self.coeffs)


def _difference_rows(ys):
    rows = [list(ys)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return rows


def fit(func: NumericalFunction, window: int = 3) -> FittedPolynomial:
    """Exact interpolation of the polynomial tail of a length table.

    Scans candidate start points from the left; at each one the finite
    difference triangle of the remaining entries must terminate in zero rows
    with at least `window` entries beyond those fixing the polynomial.
    """
    ns = [n for n, _ in func.values]
    ys = [v for _, v in func.values]
    for a in range(len(ys)):
        tail = ys[a:]
        if all(v == 0 for v in tail):
            if len(tail) < window:
                break  # later starts only get shorter
            poly = FittedPolynomial(-1, (), ns[a], len(tail), kind=func.kind)
            return _extend_stabilization(poly, ns, ys)
        rows = _difference_rows(tail)
        degree = max((j for j, row in enumerate(rows) if any(v != 0 for v in row)), default=-1)
        if degree + 1 >= len(rows):
            continue  # not enough points to certify the degree
        if any(v != 0 for row in rows[degree + 1 :] for v in row):
            continue  # tail is not polynomial from this start
        confirmed = len(tail) - (degree + 1)
        if confirmed < window:
            continue
        coeffs = [Fraction(0)]
        base = ns[a]
        falling = [Fraction(1)]
        for j in range(degree + 1):
            delta = rows[j][0]
            if delta:
                scaled = [c * delta / factorial(j) for c in falling]
                coeffs = [
                    (coeffs[i] if i < len(coeffs) else Fraction(0))
                    + (scaled[i] if i < len(scaled) else Fraction(0))
                    for i in range(max(len(coeffs), len(scaled)))
                ]
            falling = _poly_mul(falling, [Fraction(-(base + j)), Fraction(1)])
        poly = FittedPolynomial(degree, tuple(coeffs), ns[a], confirmed, kind=func.kind)
        return _extend_stabilization(poly, ns, ys)
    raise UnstableFitError(
        f"no polynomial tail with {window} confirming points in a table of length {len(ys)}",
        values=func.values,
    )


def _extend_stabilization(poly: FittedPolynomial, ns, ys) -> FittedPolynomial:
    """Move the stabilization index left while the polynomial keeps matching."""
    idx = ns.index(poly.stabilization_index)
    while idx > 0 and poly.evaluate(ns[idx - 1]) == ys[idx - 1]:
        idx -= 1
    matched = len(ns) - idx
    return FittedPolynomial(
        poly.degree,
        poly.coeffs,
        ns[idx],
        matched - (poly.degree + 1 if poly.degree >= 0 else 0),
        kind=poly.kind,
    )


def degree_test(
    func: NumericalFunction,
    threshold: int,
    inclusive: bool = False,
    window: int = 3,
):
    """True iff the fitted degree is < threshold (or <= with the flag)."""
    fitted = fit(func, window=window)
    ok = fitted.degree <= threshold if inclusive else fitted.degree < threshold
    return ok, fitted


# ---------------------------------------------------------------------------
# capture: building the tables
# ---------------------------------------------------------------------------


def capture_buchsbaum_rim(mod: ModulePresentation, nmax: int) -> NumericalFunction:
    """lengths of F^n / M^n for n = 1..nmax."""
    free = ModulePresentation.free(mod.ring, mod.tdeg)
    values = [(n, quotient_length(module_power(free, n), module_power(mod, n), verify_inclusion=False)) for n in range(1, nmax + 1)]
    return NumericalFunction("buchsbaum-rim", values)


def capture_rees_amao(
    big: ModulePresentation,
    small: ModulePresentation,
    nmax: int,
    verify_inclusion: bool = True,
) -> NumericalFunction:
    """lengths of big^n / small^n for nested modules with finite quotient.

    Inclusion is checked at n = 1 only (powers of nested modules nest);
    callers that built big on top of small may skip even that.
    """
    values = []
    for n in range(1, nmax + 1):
        values.append(
            (
                n,
                quotient_length(
                    module_power(big, n),
                    module_power(small, n),
                    verify_inclusion=(n == 1 and verify_inclusion),
                ),
            )
        )
    return NumericalFunction("rees-amao", values)


def capture_fiber(mod: ModulePresentation, nmax: int) -> NumericalFunction:
    """Minimal generator counts of the powers (the fiber-cone dimensions)."""
    values = []
    if mod.monomial:
        for n in range(1, nmax + 1):
            values.append((n, len(module_power(mod, n).gens)))
    else:
        mm = ModulePresentation.maximal_ideal(mod.ring)
        for n in range(1, nmax + 1):
            power = module_power(mod, n)
            values.append((n, quotient_length(power, module_multiply(mm, power), verify_inclusion=False)))
    return NumericalFunction("fiber", values)


def graded_floors(mod: ModulePresentation, ideal: ModulePresentation, nmax: int) -> list:
    """The floors ideal * M * M^(n-1) for n = 1..nmax (entry n-1).

    They depend on M and the ideal only, so the table is memoised on M per
    ideal and grown on demand; every candidate of a graded chain reads it.
    """
    floors = memo(mod, ("graded floors", ideal.tdeg, tuple(ideal.gens)), list)
    if not floors:
        floors.append(module_multiply(ideal, mod))
    while len(floors) < nmax:
        floors.append(module_multiply(floors[0], module_power(mod, len(floors))))
    return floors


def capture_graded(
    big: ModulePresentation,
    mod: ModulePresentation,
    ideal: ModulePresentation,
    nmax: int,
) -> NumericalFunction:
    """lengths of big * M^(n-1) / ideal * M^n for n = 1..nmax.

    The products of big with the powers are streamed into the floor's
    quotient engine instead of being compressed into a presentation first;
    at high powers that avoids the dominant cost.
    """
    values = []
    for n in range(1, nmax + 1):
        bottom = graded_floors(mod, ideal, n)[n - 1]
        if n == 1:
            values.append((n, quotient_length(big, bottom, verify_inclusion=True)))
            continue
        values.append((n, product_quotient_dim(big, module_power(mod, n - 1), bottom)))
    return NumericalFunction("graded", values)


def capture(kind: str, nmax: int, **kwargs) -> NumericalFunction:
    """Dispatch on the table kind; see the specific capture_* helpers."""
    if kind in ("br", "buchsbaum-rim"):
        return capture_buchsbaum_rim(kwargs["mod"], nmax)
    if kind in ("ra", "rees-amao"):
        return capture_rees_amao(kwargs["big"], kwargs["small"], nmax)
    if kind == "fiber":
        return capture_fiber(kwargs["mod"], nmax)
    if kind == "graded":
        return capture_graded(kwargs["big"], kwargs["mod"], kwargs["ideal"], nmax)
    raise ValueError(f"unknown table kind {kind!r}")
