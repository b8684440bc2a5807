"""Brute-force Ratliff-Rush closure of a monomial ideal, on raw exponent tuples.

This file shares no code with coeffmod: it reads generator exponents from the
workload definitions and parses the library's monomial texts itself, so a
defect in the library's monomial layer cannot hide in both sides of the check.

For a monomial ideal M the colons (M^(n+1) : M^n) increase with n and their
union is the Ratliff-Rush closure, so one colon at a large n (N_CAP) gives the
closure for the small ideals the benchmark uses.  An exponent outside the box
spanned by the pure powers in M cannot be a minimal generator, because the
closure contains M.
"""

from itertools import product

N_CAP = 8


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _minimal(exps):
    out = []
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        if not any(_divides(h, e) for h in out):
            out.append(e)
    return out


def _power(gens, n, d):
    layer = [(0,) * d]
    for _ in range(n):
        layer = _minimal(tuple(a + b for a, b in zip(g, h)) for g in layer for h in gens)
    return layer


def ratliff_rush_monomial(gens):
    """Minimal generators of the Ratliff-Rush closure of the m-primary
    monomial ideal generated by the exponent tuples `gens`."""
    d = len(gens[0])
    box = [min(g[i] for g in gens if all(g[j] == 0 for j in range(d) if j != i)) for i in range(d)]
    low = _power(gens, N_CAP, d)
    high = _power(gens, N_CAP + 1, d)

    def in_high(u):
        return any(_divides(h, u) for h in high)

    inside = [
        u
        for u in product(*(range(b + 1) for b in box))
        if all(in_high(tuple(a + b for a, b in zip(u, g))) for g in low)
    ]
    return sorted(_minimal(inside))


def parse_monomial_text(text, d):
    """Exponent tuple of a rank-1 monomial text such as 'x1^2*x3*t1'."""
    exps = [0] * d
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        if name.startswith("x"):
            exps[int(name[1:]) - 1] += int(power or 1)
        elif not name.startswith("t"):
            raise ValueError(f"not a monomial text: {text!r}")
    return tuple(exps)
