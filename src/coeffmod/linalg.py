"""Exact scalar arithmetic and dense exact linear algebra.

Two coefficient fields are supported: the rationals (arbitrary-precision
``Fraction`` entries) and prime fields F_q with canonical representatives in
``[0, q)``.  Vectors and matrices over either field are numpy arrays of the
field's ``dtype`` (int64 over F_q, Fraction objects over Q), and every
operation ends with the field's ``reduce``, so one elimination serves both;
over F_q q*q must fit in int64, which holds for every prime below 3*10^9.
No floating point exists anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError

# int64 entries of the temporary products one sparse product forms at a time
PRODUCT_CHUNK = 1 << 21


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond the int64 matrix limit
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Descriptor plus arithmetic for an exact coefficient field.

    `dtype` is the numpy dtype of its arrays and `reduce(arr)` maps the
    result of array arithmetic back to canonical field elements.
    """

    name: str
    dtype: type

    def reduce(self, arr):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, n):
        """Embed a Python int (or Fraction over Q) into the field."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def random(self, rng):
        """Draw a coefficient for genericity arguments."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class RationalField(Field):
    name = "Q"
    dtype = object  # Fractions, and exact ints (np.zeros, integer input) until `inv` divides

    def reduce(self, arr):
        return arr

    # coefficients for random combinations are drawn from a bounded integer
    # box, emulating an infinite residue field
    RANDOM_BOUND = 100

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def random(self, rng):
        return Fraction(rng.randint(-self.RANDOM_BOUND, self.RANDOM_BOUND))


class PrimeField(Field):
    dtype = np.int64

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        if q * q > np.iinfo(np.int64).max:
            raise ValueError(f"modulus {q} too large for int64 kernels")
        self.q = q
        self.name = f"Fp:{q}"

    def reduce(self, arr):
        return arr % self.q

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n):
        if isinstance(n, Fraction):
            if n.denominator == 1:
                return n.numerator % self.q
            return self.div(n.numerator % self.q, n.denominator % self.q)
        return int(n) % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(int(a), -1, self.q)

    def is_zero(self, a):
        return a % self.q == 0

    def random(self, rng):
        return rng.randrange(self.q)


QQ = RationalField()


def field_from_name(name: str) -> Field:
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field descriptor {name!r}")


def _check_same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatchError(f"fields differ: {a} vs {b}")


class ExactMatrix:
    """Dense exact matrix over Q or F_q: a 2-D numpy array of the field's
    dtype whose entries are field elements.  Instances are treated as
    immutable after construction; with ``copy=False`` the caller hands over
    such an array, already reduced.
    """

    def __init__(self, field: Field, data, copy: bool = True):
        self.field = field
        if copy:
            data = np.array(data, dtype=field.dtype)
            if data.ndim != 2:
                data = data.reshape(len(data), -1) if len(data) else data.reshape(0, 0)
            data = field.reduce(data)
        self.data = data

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        return cls(field, np.zeros((rows, cols), dtype=field.dtype), copy=False)

    @property
    def nrows(self) -> int:
        return int(self.data.shape[0])

    @property
    def ncols(self) -> int:
        return int(self.data.shape[1])

    def row(self, i: int):
        return self.data[i]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix) or self.field != other.field:
            return False
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"


def rref(m: ExactMatrix):
    """Reduced row-echelon form and pivot columns.  Row space is preserved."""
    field = m.field
    a = m.data.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = field.reduce(a[r] * field.inv(a[r, c]))
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = field.reduce(a[mask] - np.outer(col[mask], a[r]))
        pivots.append(c)
        r += 1
    return ExactMatrix(field, a[:r], copy=False), pivots


def kernel_basis(m: ExactMatrix):
    """Basis of the right null space, as a list of length-ncols vectors.

    Empty list iff the matrix has full column rank.
    """
    red, pivots = rref(m)
    field = m.field
    basis = []
    for fc in sorted(set(range(m.ncols)) - set(pivots)):
        v = np.zeros(m.ncols, dtype=field.dtype)
        v[fc] = field.one()
        v[pivots] = field.reduce(-red.data[:, fc])
        basis.append(v)
    return basis


class Subspace:
    """A subspace of k^n held as an RREF basis; supports membership,
    containment and dimension."""

    def __init__(self, field: Field, ambient: int, matrix: ExactMatrix, pivots):
        self.field = field
        self.ambient = ambient
        self.matrix = matrix
        self.pivots = list(pivots)

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows) -> "Subspace":
        rows = list(rows)
        if not rows:
            m = ExactMatrix.zeros(field, 0, ambient)
            return cls(field, ambient, m, [])
        m = ExactMatrix(field, rows)
        if m.ncols != ambient:
            raise DimensionMismatchError(
                f"rows of width {m.ncols} in ambient dimension {ambient}"
            )
        red, piv = rref(m)
        return cls(field, ambient, red, piv)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check(self, other: "Subspace"):
        _check_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )

    def reduce_vector(self, v):
        """Residual of v after elimination against the basis rows.

        The residual is the canonical coset representative supported on the
        non-pivot coordinates; it is zero iff v lies in the subspace.
        """
        # the basis is reduced, so each row is subtracted v[pivot] times
        w = self.field.reduce(np.array(v, dtype=self.field.dtype))
        coeffs = w[self.pivots]
        hit = np.nonzero(coeffs)[0]
        _subtract_products(w[None, :], np.zeros_like(hit), hit, coeffs[hit], self.matrix.data, self.field)
        return w

    def contains_vector(self, v) -> bool:
        return np.count_nonzero(self.reduce_vector(v)) == 0

    def contains_unit_vectors(self, columns) -> bool:
        """Whether every standard basis vector e_c, c in `columns`, lies in
        the subspace: c must be a pivot whose RREF row is e_c itself."""
        row_of = {pc: i for i, pc in enumerate(self.pivots)}
        for c in columns:
            i = row_of.get(c)
            if i is None:
                return False
            if np.count_nonzero(self.matrix.row(i)) != 1:
                return False
        return True

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(other.matrix.row(i)) for i in range(other.dim))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return False
        self._check(other)
        return self.matrix == other.matrix

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, {self.field})"


def coefficient_array(field: Field, values) -> np.ndarray:
    """Field elements as a 1-D numpy array of the field's dtype."""
    return field.reduce(np.array(values, dtype=field.dtype))


def _subtract_products(target, rows, cols, vals, dense, field: Field):
    """target[r] -= sum of vals[i] * dense[cols[i]] over the i with rows[i] == r,
    in place, for arrays of field elements; `rows` is ascending.

    This is the product of a sparse matrix with a dense one.  Each product
    is reduced once and the reduction of the sums is delayed: over F_q a sum
    of k reduced products stays below k * q, so no int64 sum can overflow
    for any supported q.  Products are formed PRODUCT_CHUNK entries at a time.
    """
    step = max(1, PRODUCT_CHUNK // max(1, dense.shape[1]))
    for s in range(0, len(rows), step):
        products = field.reduce(vals[s : s + step, None] * dense[cols[s : s + step]])
        targets, starts = np.unique(rows[s : s + step], return_index=True)
        target[targets] = field.reduce(target[targets] - np.add.reduceat(products, starts, axis=0))


class SpanBuilder:
    """A row space in reduced row-echelon form, grown by blocks of sparse rows.

    The state is the pivot columns and, for each pivot, its RREF row on the
    free (non-pivot) columns: the row is 1 at its own pivot and 0 at every
    other pivot, so nothing else needs storing.

    Over F_q each block of BLOCK_ROWS rows is reduced against the basis with
    one sparse-times-dense product, ``block[:, free] - block[:, pivots] @
    rows`` (mod q, see _subtract_products).  Only the nonzero residual rows
    are row-reduced, and the new pivots are then eliminated from the old
    rows by one more such product.
    Over Q rows are reduced one at a time as sparse dicts, which is the same
    elimination without a vectorized exact kernel.
    """

    BLOCK_ROWS = 128

    def __init__(self, field: Field, ambient: int, seed: Optional[Subspace] = None):
        self.field = field
        self.ambient = ambient
        # Q keeps sparse one-row insertion: blocked, a general-q pass took 0.34 s -> 0.66-0.72 s (2 cores)
        self.modular = isinstance(field, PrimeField)
        if self.modular:
            self.pivots = np.zeros(0, dtype=np.int64)
            self.free = np.arange(ambient, dtype=np.int64)
            self.rows = np.zeros((0, ambient), dtype=np.int64)
            self._index_columns()
        else:
            self.reduced = {}  # pivot column -> {free column: nonzero Fraction}
        if seed is not None:
            self._seed(seed)

    def _seed(self, seed: Subspace):
        """Start from an RREF basis without re-reducing its rows."""
        _check_same_field(self.field, seed.field)
        if seed.ambient != self.ambient:
            raise DimensionMismatchError(
                f"seed of ambient dimension {seed.ambient} in a builder of dimension {self.ambient}"
            )
        if self.modular:
            self.pivots = np.array(seed.pivots, dtype=np.int64)
            mask = np.ones(self.ambient, dtype=bool)
            mask[self.pivots] = False
            self.free = np.nonzero(mask)[0]
            self.rows = seed.matrix.data[:, self.free]
            self._index_columns()
            return
        for row, pc in zip(seed.matrix.data, seed.pivots):
            self.reduced[pc] = {j: x for j, x in enumerate(row) if x != 0 and j != pc}

    @property
    def dim(self) -> int:
        return len(self.pivots) if self.modular else len(self.reduced)

    def add_rows(self, nrows: int, rows, cols, vals) -> list:
        """Add the rows 0..nrows-1 given as sparse entries (rows[i], cols[i]) =
        vals[i], with `rows` ascending and at most one entry per position.

        Returns, in order, the rows that were independent of the span
        together with the rows before them, i.e. the rows a one-at-a-time
        insertion would have accepted.
        """
        if self.modular:
            return self._add_mod(nrows, rows, cols, vals)
        accepted = []
        starts = np.searchsorted(rows, np.arange(nrows + 1))
        cols, vals = cols.tolist(), list(vals)
        for i in range(nrows):
            lo, hi = starts[i], starts[i + 1]
            if lo < hi and self._insert_fraction_row(dict(zip(cols[lo:hi], vals[lo:hi]))):
                accepted.append(i)
        return accepted

    def _add_mod(self, nrows, rows, cols, vals) -> list:
        accepted = []
        bounds = np.searchsorted(rows, np.arange(0, nrows + self.BLOCK_ROWS, self.BLOCK_ROWS))
        for b, first in enumerate(range(0, nrows, self.BLOCK_ROWS)):
            if self.free.size == 0:
                break  # the span is everything; no row can add to it
            lo, hi = bounds[b], bounds[b + 1]
            if lo == hi:
                continue
            residual = self._residual(
                min(self.BLOCK_ROWS, nrows - first), rows[lo:hi] - first, cols[lo:hi], vals[lo:hi]
            )
            live = np.nonzero(residual.any(axis=1))[0]
            if live.size == 0:
                continue
            residual = residual[live]
            reduced, new = rref(ExactMatrix(self.field, residual, copy=False))
            if len(new) < live.size:
                # dependent rows among the residuals: the greedy choice is the
                # set of pivot columns of the residuals taken as columns
                _, chosen = rref(ExactMatrix(self.field, residual.T, copy=False))
                live = live[chosen]
            accepted.extend((first + live).tolist())
            self._absorb(reduced.data, np.array(new, dtype=np.int64))
        return accepted

    def _residual(self, height, rows, cols, vals):
        """Sparse rows minus their pivot entries times the basis rows, on the
        free columns: block[:, free] - block[:, pivots] @ self.rows (mod q).

        The product only touches the entries of the block that sit on pivot
        columns.  Each product is reduced before the sums, so a row's sum
        stays below (entries per row) * q and cannot overflow int64 for any
        supported q.
        """
        where = self._where[cols]
        residual = np.zeros((height, self.free.size), dtype=np.int64)
        on_free = where >= 0
        residual[rows[on_free], where[on_free]] = vals[on_free]
        on_pivot = ~on_free
        _subtract_products(
            residual, rows[on_pivot], -1 - where[on_pivot], vals[on_pivot], self.rows, self.field
        )
        return residual

    def _absorb(self, reduced, new):
        """Merge RREF rows on the free columns, pivots `new` (indices into
        the free columns), into the basis."""
        hits = self.rows[:, new]
        i, j = np.nonzero(hits)
        _subtract_products(self.rows, i, j, hits[i, j], reduced, self.field)
        keep = np.ones(self.free.size, dtype=bool)
        keep[new] = False
        pivots = np.concatenate([self.pivots, self.free[new]])
        order = np.argsort(pivots, kind="stable")
        self.pivots = pivots[order]
        self.rows = np.vstack([self.rows[:, keep], reduced[:, keep]])[order]
        self.free = self.free[keep]
        self._index_columns()

    def _index_columns(self):
        """_where[c]: the position of column c among the free columns, or
        -1 - (its row) for a pivot column."""
        self._where = np.empty(self.ambient, dtype=np.int64)
        self._where[self.free] = np.arange(self.free.size)
        self._where[self.pivots] = -1 - np.arange(self.pivots.size)

    def _insert_fraction_row(self, v: dict) -> bool:
        w = {}
        for c, x in v.items():
            row = self.reduced.get(c)
            if row is None:
                w[c] = w.get(c, 0) + x
            else:
                for j, y in row.items():
                    w[j] = w.get(j, 0) - x * y
        w = {j: x for j, x in w.items() if x != 0}
        if not w:
            return False
        pc = min(w)
        inv = self.field.inv(w.pop(pc))
        w = {j: x * inv for j, x in w.items()}
        for row in self.reduced.values():
            x = row.pop(pc, None)
            if x is not None:
                for j, y in w.items():
                    value = row.get(j, 0) - x * y
                    if value != 0:
                        row[j] = value
                    else:
                        row.pop(j, None)
        self.reduced[pc] = w
        return True

    def subspace(self) -> Subspace:
        """The canonical RREF basis of the span."""
        pivots = self.pivots.tolist() if self.modular else sorted(self.reduced)
        data = np.zeros((len(pivots), self.ambient), dtype=self.field.dtype)
        data[np.arange(len(pivots)), pivots] = self.field.one()
        if self.modular:
            data[:, self.free] = self.rows
        else:
            for i, pc in enumerate(pivots):
                for j, x in self.reduced[pc].items():
                    data[i, j] = x
        return Subspace(self.field, self.ambient, ExactMatrix(self.field, data, copy=False), pivots)
