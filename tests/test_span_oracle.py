"""Truncated spans against an independent oracle.

The oracle builds the truncated Macaulay matrix of a module from raw
exponent dicts, with its own column order, and asks sympy for its rank and
reduced row-echelon form over Q or GF(q); the same sympy RREF judges
`rref` and `kernel_basis` on dense matrices.  It shares no code with
coeffmod.poly or coeffmod.graded; sympy is a test-only dependency.  The
fields include the largest prime the int64 kernels accept, where a single
product of two residues nearly fills an int64.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy import QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

from coeffmod import linalg
from coeffmod.graded import ModulePresentation, module_span
from coeffmod.linalg import QQ, PrimeField, SpanBuilder, Subspace, coefficient_array
from coeffmod.poly import Monomial, PolyElement, RingDescriptor

LARGEST_PRIME = 3037000493
FIELDS = [QQ, PrimeField(10007), PrimeField(LARGEST_PRIME)]
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _sympy_domain(field):
    return SYMPY_QQ if field == QQ else GF(field.q, symmetric=False)


def _domain_matrix(field, rows, width):
    domain = _sympy_domain(field)
    if field == QQ:
        entries = [[domain(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows]
    else:
        entries = [[domain(int(x)) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), width), domain)


def _oracle_rref(field, rows, width):
    """(rank, pivots, RREF rows as ints or Fractions) of dense integer rows."""
    if not rows:
        return 0, [], []
    reduced, pivots = _domain_matrix(field, rows, width).rref()
    out = []
    for row in reduced.to_list()[: len(pivots)]:
        if field == QQ:
            out.append([Fraction(int(x.numerator), int(x.denominator)) for x in row])
        else:
            out.append([int(x) % field.q for x in row])
    return len(pivots), list(pivots), out


def _oracle_columns(d, p, bound):
    """(x, t) with |t| = 1 and |x| < bound in the canonical order: t1 block
    first, then ascending x-degree, x1 dominant within a degree."""
    ts = sorted((tuple(int(i == j) for i in range(p)) for j in range(p)), key=lambda t: [-e for e in t])
    xs = sorted(
        (x for x in itertools.product(range(bound), repeat=d) if sum(x) < bound),
        key=lambda x: (sum(x), [-e for e in x]),
    )
    return [(x, t) for t in ts for x in xs], xs


def _oracle_macaulay(gens, d, p, bound):
    """Rows x^gamma * g, |gamma| < bound, of raw {(x, t): int} generators,
    truncated below x-degree bound."""
    columns, shifts = _oracle_columns(d, p, bound)
    where = {c: i for i, c in enumerate(columns)}
    rows = []
    for g in gens:
        for gamma in shifts:
            row = [0] * len(columns)
            for (x, t), c in g.items():
                moved = tuple(a + b for a, b in zip(x, gamma))
                if sum(moved) < bound:
                    row[where[(moved, t)]] = c
            rows.append(row)
    return rows, len(columns)


def _matrix_rows(matrix, field):
    data = matrix.data
    if field == QQ:
        return [list(row) for row in data]
    return [[int(x) for x in row] for row in data]


@st.composite
def raw_modules(draw):
    d = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([1, 2]))
    exponent = st.tuples(*[st.integers(0, 2)] * d)
    term = st.tuples(exponent, st.integers(0, p - 1))
    coeff = st.integers(-(10**10), 10**10).filter(lambda c: c != 0)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(term, coeff, min_size=1, max_size=4))
        gens.append({(x, tuple(int(i == j) for i in range(p))): c for (x, j), c in terms.items()})
    return d, p, gens


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(raw=raw_modules(), bounds=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_module_span_matches_sympy_macaulay_rref(field, raw, bounds):
    d, p, gens = raw
    ring = RingDescriptor(field, d, p)
    polys = [
        PolyElement(ring, {Monomial(x, t): field.of(c) for (x, t), c in g.items()}) for g in gens
    ]
    mod = ModulePresentation(ring, polys, tdeg=1)
    for bound in bounds:
        rows, width = _oracle_macaulay(gens, d, p, bound)
        rank, pivots, reduced = _oracle_rref(field, rows, width)
        span = module_span(mod, bound)
        assert span.ambient == width
        assert span.dim == rank
        assert span.pivots == pivots
        assert _matrix_rows(span.matrix, field) == reduced


@st.composite
def sparse_rows(draw):
    width = draw(st.integers(1, 9))
    nrows = draw(st.integers(0, 14))
    entry = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, width - 1))
    cells = draw(st.dictionaries(entry, st.integers(1, LARGEST_PRIME - 1), max_size=3 * nrows)) if nrows else {}
    residue = st.integers(0, LARGEST_PRIME - 1)
    seed_rows = draw(st.lists(st.lists(residue, min_size=width, max_size=width), max_size=4))
    return width, nrows, cells, seed_rows


class _SmallBlocks(SpanBuilder):
    BLOCK_ROWS = 3


# two pivot entries of one row meet two basis rows with residues near q: at
# the largest prime the sum of the two products does not fit in an int64
NEAR_Q = [[1, 0, LARGEST_PRIME - 2, LARGEST_PRIME - 11], [0, 1, LARGEST_PRIME - 3, LARGEST_PRIME - 13]]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(case=sparse_rows())
@example(case=(4, 1, {(0, 0): LARGEST_PRIME - 5, (0, 1): LARGEST_PRIME - 7}, NEAR_Q))
def test_span_builder_accepts_the_greedy_rows(field, case):
    """Blocks of three rows, with whole and with one-product chunks,
    exercise every path of the blocked reduction; the accepted rows must be
    exactly those a one-at-a-time insertion keeps, and the span its sympy
    RREF."""
    width, nrows, cells, seed_rows = case
    dense = [[0] * width for _ in range(nrows)]
    for (i, j), c in cells.items():
        dense[i][j] = c
    seed = Subspace.from_rows(field, width, seed_rows)
    ordered = sorted(cells.items())
    rows = [i for (i, _), _ in ordered]
    cols = [j for (_, j), _ in ordered]
    vals = [c for _, c in ordered]
    runs = []
    saved = linalg.PRODUCT_CHUNK
    for chunk in (saved, 2):  # whole products, then one product per chunk
        linalg.PRODUCT_CHUNK = chunk
        try:
            builder = _SmallBlocks(field, width, seed=seed)
            accepted = builder.add_rows(
                nrows,
                np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64),
                coefficient_array(field, vals),
            )
            runs.append((accepted, builder.subspace()))
        finally:
            linalg.PRODUCT_CHUNK = saved
    basis = _matrix_rows(seed.matrix, field)
    reference = [[int(x) for x in row] if field != QQ else row for row in basis]
    expected, rank = [], _oracle_rref(field, reference, width)[0]
    for i, row in enumerate(dense):
        grown = _oracle_rref(field, reference + [row], width)[0]
        if grown > rank:
            expected.append(i)
            reference.append(row)
            rank = grown
    total, pivots, reduced = _oracle_rref(field, reference, width)
    for accepted, span in runs:
        assert accepted == expected
        assert span.dim == total
        assert span.pivots == pivots
        assert _matrix_rows(span.matrix, field) == reduced


@st.composite
def dense_matrices(draw):
    """Integer rows, some of them combinations of the others."""
    cols = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**10), 10**10))
    basis = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=4))
    weights = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    combos = [
        [sum(w * row[j] for w, row in zip(ws, basis)) for j in range(cols)]
        for ws in draw(st.lists(weights, max_size=3))
    ]
    rows = basis + combos
    return [rows[i] for i in draw(st.permutations(range(len(rows))))], cols


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(case=dense_matrices())
def test_rref_and_kernel_basis_match_sympy(field, case):
    rows, cols = case
    m = linalg.ExactMatrix(field, rows)
    rank, pivots, reduced = _oracle_rref(field, rows, cols)
    red, piv = linalg.rref(m)
    assert piv == pivots
    assert _matrix_rows(red, field) == reduced
    kernel = linalg.kernel_basis(m)
    assert len(kernel) == cols - rank
    if kernel:
        vectors = _matrix_rows(linalg.ExactMatrix(field, kernel), field)
        assert _oracle_rref(field, vectors, cols)[0] == len(kernel)  # independent
        product = _domain_matrix(field, rows, cols).matmul(_domain_matrix(field, vectors, cols).transpose())
        assert product.is_zero_matrix
