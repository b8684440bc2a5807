"""Exact linear algebra: row reduction, kernels, subspace laws."""

import random
from fractions import Fraction

import pytest

from coeffmod.errors import DimensionMismatchError, FieldMismatchError
from coeffmod.linalg import (
    QQ,
    ExactMatrix,
    PrimeField,
    Subspace,
    field_from_name,
    kernel_basis,
    rref,
)

F101 = PrimeField(101)
F10007 = PrimeField(10007)


def test_field_descriptors():
    assert field_from_name("Q") == QQ
    assert field_from_name("Fp:101") == F101
    with pytest.raises(ValueError):
        field_from_name("Fp:100")
    with pytest.raises(ValueError):
        field_from_name("R")


def test_prime_field_arithmetic():
    f = F101
    assert f.add(100, 2) == 1
    assert f.mul(50, 50) == 2500 % 101
    assert f.mul(f.inv(7), 7) == 1
    assert f.of(-1) == 100
    assert f.of(Fraction(1, 2)) == f.inv(2)


def test_rref_identity():
    m = ExactMatrix(QQ, [[1, 0], [0, 1]])
    red, piv = rref(m)
    assert red == m
    assert piv == [0, 1]


def test_rref_rank_one():
    m = ExactMatrix(QQ, [[1, 2], [2, 4]])
    red, piv = rref(m)
    assert piv == [0]
    assert red.nrows == 1
    assert list(red.row(0)) == [1, 2]


def test_rref_f101_hand_elimination():
    # [[1,1],[1,2]] reduces to the identity
    m = ExactMatrix(F101, [[1, 1], [1, 2]])
    red, piv = rref(m)
    assert piv == [0, 1]
    assert red == ExactMatrix(F101, [[1, 0], [0, 1]])


def test_kernel_identity_and_zero():
    assert kernel_basis(ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []
    basis = kernel_basis(ExactMatrix.zeros(QQ, 1, 3))
    assert len(basis) == 3


def test_kernel_single_row_rational():
    m = ExactMatrix(QQ, [[1, 2, 3]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_kernel_single_row_modular():
    m = ExactMatrix(F10007, [[1, 2, 3]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert (int(v[0]) + 2 * int(v[1]) + 3 * int(v[2])) % 10007 == 0


def test_subspace_idempotence():
    rows = [[1, 2, 0], [0, 0, 1]]
    a = Subspace.from_rows(QQ, 3, rows)
    assert Subspace.from_rows(QQ, 3, rows + rows) == a
    assert a.contains(a)


def test_membership_via_rank():
    a = Subspace.from_rows(QQ, 3, [[1, 0, 1], [0, 1, 1]])
    assert a.contains_vector([1, 1, 2])
    assert not a.contains_vector([1, 1, 1])


def test_field_mismatch_raises():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    b = Subspace.from_rows(F101, 2, [[1, 0]])
    with pytest.raises(FieldMismatchError):
        a.contains(b)


def test_ambient_mismatch_raises():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    b = Subspace.from_rows(QQ, 3, [[1, 0, 0]])
    with pytest.raises(DimensionMismatchError):
        a.contains(b)


def _random_matrix(rng, field, rows, cols):
    if isinstance(field, PrimeField):
        return ExactMatrix(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])
    return ExactMatrix(field, [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", [QQ, F10007])
def test_rref_idempotent_and_rank_stable(field):
    rng = random.Random(7)
    for _ in range(10):
        m = _random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red2 == red
        assert piv2 == piv


def test_kernel_vectors_annihilated():
    rng = random.Random(3)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _random_matrix(rng, QQ, rows, cols)
        for v in kernel_basis(m):
            for i in range(rows):
                assert sum(m.row(i)[j] * v[j] for j in range(cols)) == 0
