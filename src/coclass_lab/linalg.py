"""Small dense exact linear algebra over a :class:`FieldSpec`.

Everything is immutable: matrices are tuples of row tuples, subspaces are
represented by their reduced row-echelon basis, which is the unique
canonical representative.  That makes subspace equality plain value
equality and lets closure/equality verdicts compare sets of subspaces
without quotienting logic.

Sizes here are desk scale (n <= 10 or so); clarity and exactness beat
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fields import FieldSpec, Scalar

Vector = tuple


def vec(field: FieldSpec, entries: Iterable) -> Vector:
    return tuple(field.canon(x) for x in entries)


def zero_vec(field: FieldSpec, n: int) -> Vector:
    return (field.zero,) * n


def basis_vec(field: FieldSpec, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))


def add_vec(field: FieldSpec, a: Vector, b: Vector) -> Vector:
    return tuple(field.add(x, y) for x, y in zip(a, b))


def sub_vec(field: FieldSpec, a: Vector, b: Vector) -> Vector:
    return tuple(field.sub(x, y) for x, y in zip(a, b))


def is_zero_vec(a: Vector) -> bool:
    return not any(a)


@dataclass(frozen=True)
class Matrix:
    """Dense matrix with canonical scalar entries."""

    field: FieldSpec
    rows: tuple

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, tuple(basis_vec(field, n, i) for i in range(n)))

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, tuple(zero_vec(field, ncols) for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        f = self.field
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = f.zero
            for a, x in zip(row, v):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        f = self.field
        cols = other.transpose().rows
        return Matrix(f, tuple(tuple(_dot(f, r, c) for c in cols) for r in self.rows))


def _dot(field: FieldSpec, a: Sequence, b: Sequence) -> Scalar:
    acc = field.zero
    for x, y in zip(a, b):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def _rref_rows(field: FieldSpec, rows: list) -> tuple[list, list]:
    """In-place Gauss-Jordan; returns (reduced rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    _, pivots = _rref_rows(m.field, list(m.rows))
    return len(pivots)


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and rank(m) == m.nrows


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse matrix, or None when singular (never raises)."""
    if m.nrows != m.ncols:
        return None
    n = m.nrows
    aug = [list(row) + list(basis_vec(m.field, n, i)) for i, row in enumerate(m.rows)]
    rows, pivots = _rref_rows(m.field, aug)
    if pivots != list(range(n)):
        return None
    return Matrix(m.field, tuple(tuple(r[n:]) for r in rows))


@dataclass(frozen=True)
class Subspace:
    """Subspace of F^n, canonically represented by its rref basis matrix.

    Equality of subspaces is value equality of the canonical basis.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Iterable) -> "Subspace":
        vs = [vec(field, v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if not vs:
            return Subspace(ambient_dim, Matrix(field, ()))
        rows, pivots = _rref_rows(field, vs)
        keep = tuple(tuple(rows[i]) for i in range(len(pivots)))
        return Subspace(ambient_dim, Matrix(field, keep))

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(field, ()))

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Vector) -> bool:
        """Membership via residual after elimination against the rref basis."""
        f = self.field
        v = vec(f, v)
        residual = list(v)
        for row in self.basis.rows:
            c = next(i for i, x in enumerate(row) if x)  # pivot column
            if residual[c]:
                factor = residual[c]
                residual = [f.sub(x, f.mul(factor, y)) for x, y in zip(residual, row)]
        return not any(residual)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.rows)

    def annihilator(self) -> Matrix:
        """Matrix C with this subspace = {x : C x = 0}.

        Rows of C are a basis of the kernel of the basis matrix, so
        C has full row rank and C . basis^T = 0, which pins the kernel
        of C to exactly this subspace by dimension count.
        """
        if self.dim == 0:
            return Matrix.identity(self.field, self.ambient_dim)
        return kernel(self.basis).basis


def kernel(m: Matrix) -> Subspace:
    """Solution space {x : m x = 0}, canonical basis."""
    f = m.field
    n = m.ncols
    rows, pivots = _rref_rows(f, list(m.rows))
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [f.zero] * n
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(tuple(v))
    return Subspace.from_vectors(f, n, basis)
