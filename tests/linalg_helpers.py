"""Exact-core constructors that only the tests use: the zero vector, the zero matrix and the identity map."""

from coclass_lab.algebra import LieAlgebra
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, Vector
from coclass_lab.maps import LinearMap


def zero_vec(field: FieldSpec, n: int) -> Vector:
    return (field.zero,) * n


def zero_matrix(field: FieldSpec, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, tuple(zero_vec(field, ncols) for _ in range(nrows)))


def identity_map(algebra: LieAlgebra) -> LinearMap:
    return LinearMap(Matrix.identity(algebra.field, algebra.dim))
