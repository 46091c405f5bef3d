"""Exact-core constructors that only the tests use: the zero vector and the zero matrix."""

from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, Vector


def zero_vec(field: FieldSpec, n: int) -> Vector:
    return (field.zero,) * n


def zero_matrix(field: FieldSpec, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, tuple(zero_vec(field, ncols) for _ in range(nrows)))
