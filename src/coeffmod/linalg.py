"""Exact scalar arithmetic and dense exact linear algebra.

Two coefficient fields are supported: the rationals (arbitrary-precision
``Fraction`` entries) and prime fields F_q with canonical representatives in
``[0, q)``.  Prime-field matrices are stored as int64 numpy arrays so that
row reduction is vectorized; q*q must fit in int64, which holds for every
prime below 3*10^9.  No floating point exists anywhere in this module.
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
    """Descriptor plus arithmetic for an exact coefficient field."""

    name: str

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
    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        if q * q > np.iinfo(np.int64).max:
            raise ValueError(f"modulus {q} too large for int64 kernels")
        self.q = q
        self.name = f"Fp:{q}"

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
        return pow(a, -1, self.q)

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
    """Dense exact matrix over Q or F_q.

    Prime-field data is a 2-D int64 numpy array with entries in [0, q);
    rational data is a list of lists of Fractions.  Instances are treated
    as immutable after construction; with ``copy=False`` the caller hands
    over data already in that form.
    """

    def __init__(self, field: Field, data, copy: bool = True):
        self.field = field
        if isinstance(field, PrimeField):
            arr = np.asarray(data, dtype=np.int64)
            if arr.ndim != 2:
                arr = arr.reshape(len(data), -1) if len(data) else arr.reshape(0, 0)
            self.data = (arr % field.q).copy() if copy else arr % field.q
        elif copy:
            self.data = [[Fraction(x) for x in row] for row in data]
        else:
            # rows of Fractions handed over by their builder; entries may share
            # one zero object, which is safe because Fractions are immutable
            self.data = data

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        if isinstance(field, PrimeField):
            return cls(field, np.zeros((rows, cols), dtype=np.int64), copy=False)
        return cls(field, [[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        if isinstance(field, PrimeField):
            return cls(field, np.eye(n, dtype=np.int64), copy=False)
        return cls(field, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        if isinstance(self.field, PrimeField):
            return int(self.data.shape[0])
        return len(self.data)

    @property
    def ncols(self) -> int:
        if isinstance(self.field, PrimeField):
            return int(self.data.shape[1])
        return len(self.data[0]) if self.data else 0

    def row(self, i: int):
        if isinstance(self.field, PrimeField):
            return self.data[i]
        return self.data[i]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix) or self.field != other.field:
            return False
        if isinstance(self.field, PrimeField):
            return self.data.shape == other.data.shape and bool(
                np.array_equal(self.data, other.data)
            )
        return self.data == other.data

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"


def rref(m: ExactMatrix):
    """Reduced row-echelon form and pivot columns.  Row space is preserved."""
    if isinstance(m.field, PrimeField):
        return _rref_mod(m)
    return _rref_frac(m)


def _rref_mod(m: ExactMatrix):
    q = m.field.q
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
        a[r] = a[r] * pow(int(a[r, c]), -1, q) % q
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % q
        pivots.append(c)
        r += 1
    out = ExactMatrix(m.field, a[:r] if r else np.zeros((0, cols), dtype=np.int64), copy=False)
    return out, pivots


def _rref_frac(m: ExactMatrix):
    a = [row[:] for row in m.data]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(m.field, a[:r]), pivots


def kernel_basis(m: ExactMatrix):
    """Basis of the right null space, as a list of length-ncols vectors.

    Empty list iff the matrix has full column rank.
    """
    red, pivots = rref(m)
    cols = m.ncols
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    field = m.field
    for fc in free:
        if isinstance(field, PrimeField):
            v = np.zeros(cols, dtype=np.int64)
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = (-int(red.data[i, fc])) % field.q
            basis.append(v)
        else:
            v = [Fraction(0)] * cols
            v[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                v[pc] = -red.data[i][fc]
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
        if isinstance(self.field, PrimeField):
            # the basis is reduced, so each row is subtracted v[pivot] times
            w = np.asarray(v, dtype=np.int64) % self.field.q
            coeffs = w[self.pivots]
            hit = np.nonzero(coeffs)[0]
            _subtract_products(w[None, :], np.zeros_like(hit), hit, coeffs[hit], self.matrix.data, self.field.q)
            return w
        w = [Fraction(x) for x in v]
        for i, pc in enumerate(self.pivots):
            c = w[pc]
            if c != 0:
                row = self.matrix.data[i]
                w = [x - c * y for x, y in zip(w, row)]
        return w

    def contains_vector(self, v) -> bool:
        w = self.reduce_vector(v)
        if isinstance(self.field, PrimeField):
            return not w.any()
        return all(x == 0 for x in w)

    def contains_unit_vectors(self, columns) -> bool:
        """Whether every standard basis vector e_c, c in `columns`, lies in
        the subspace: c must be a pivot whose RREF row is e_c itself."""
        row_of = {pc: i for i, pc in enumerate(self.pivots)}
        for c in columns:
            i = row_of.get(c)
            if i is None:
                return False
            row = self.matrix.row(i)
            if isinstance(self.field, PrimeField):
                if np.count_nonzero(row) != 1:
                    return False
            elif any(x != 0 for j, x in enumerate(row) if j != c):
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
    """Field elements as a numpy array: int64 over F_q, Fraction objects over Q."""
    if isinstance(field, PrimeField):
        return np.asarray(values, dtype=np.int64) % field.q
    out = np.empty(len(values), dtype=object)
    out[:] = [Fraction(x) for x in values]
    return out


def _subtract_products(target, rows, cols, vals, dense, q: int):
    """target[r] -= sum of vals[i] * dense[cols[i]] over the i with rows[i] == r,
    mod q, in place; `rows` is ascending and entries lie in [0, q).

    This is the product of a sparse matrix with a dense one.  Each product
    is reduced once and the reduction of the sums is delayed: a sum of k
    reduced products stays below k * q, so no int64 sum can overflow for any
    supported q.  Products are formed PRODUCT_CHUNK entries at a time.
    """
    step = max(1, PRODUCT_CHUNK // max(1, dense.shape[1]))
    for s in range(0, len(rows), step):
        products = (vals[s : s + step, None] * dense[cols[s : s + step]]) % q
        targets, starts = np.unique(rows[s : s + step], return_index=True)
        target[targets] = (target[targets] - np.add.reduceat(products, starts, axis=0)) % q


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
            residual, rows[on_pivot], -1 - where[on_pivot], vals[on_pivot], self.rows, self.field.q
        )
        return residual

    def _absorb(self, reduced, new):
        """Merge RREF rows on the free columns, pivots `new` (indices into
        the free columns), into the basis."""
        hits = self.rows[:, new]
        i, j = np.nonzero(hits)
        _subtract_products(self.rows, i, j, hits[i, j], reduced, self.field.q)
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
        inv = 1 / w.pop(pc)
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
        if self.modular:
            r = len(self.pivots)
            data = np.zeros((r, self.ambient), dtype=np.int64)
            data[np.arange(r), self.pivots] = 1
            data[:, self.free] = self.rows
            matrix = ExactMatrix(self.field, data, copy=False)
            return Subspace(self.field, self.ambient, matrix, self.pivots.tolist())
        pivots = sorted(self.reduced)
        if not pivots:
            return Subspace(self.field, self.ambient, ExactMatrix.zeros(self.field, 0, self.ambient), [])
        zero, one = Fraction(0), Fraction(1)
        data = []
        for pc in pivots:
            row = [zero] * self.ambient
            row[pc] = one
            for j, x in self.reduced[pc].items():
                row[j] = x
            data.append(row)
        return Subspace(self.field, self.ambient, ExactMatrix(self.field, data, copy=False), pivots)
