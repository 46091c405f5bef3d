"""Small dense exact linear algebra over a :class:`FieldSpec`.

Everything is immutable: matrices are tuples of row tuples, subspaces are
represented by their reduced row-echelon basis, which is the unique
canonical representative.  That makes subspace equality plain value
equality and lets closure/equality verdicts compare sets of subspaces
without quotienting logic.

Sizes here are desk scale (n <= 10 or so); clarity and exactness beat
asymptotics.  Arithmetic works per row (the :class:`FieldSpec` row
operations) in one Gauss-Jordan for both field kinds.  Vectors the package
makes are canonical and are not checked again (``kernel`` and ``_span`` take
them as they are); outside input is canonicalised, through ``vec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fields import FieldSpec

Vector = tuple


def vec(field: FieldSpec, entries: Iterable) -> Vector:
    return tuple([field.canon(x) for x in entries])


def basis_vec(field: FieldSpec, n: int, i: int) -> Vector:
    return (field.zero,) * i + (field.one,) + (field.zero,) * (n - i - 1)


def add_vec(field: FieldSpec, a: Vector, b: Vector) -> Vector:
    return tuple(field.sub_multiple(a, -1, b))


def sub_vec(field: FieldSpec, a: Vector, b: Vector) -> Vector:
    return tuple(field.sub_multiple(a, 1, b))


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
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        dot = self.field.dot
        return tuple(dot(row, v) for row in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        dot = self.field.dot
        cols = other.transpose().rows
        return Matrix(self.field, tuple(tuple(dot(r, c) for c in cols) for r in self.rows))


def _rref_rows(field: FieldSpec, rows: Sequence) -> tuple[list, list]:
    """Gauss-Jordan on a copy of canonical rows; returns (reduced rows, pivot column list).

    The rows from column c's pivot row down are zero left of c, so row operations start at c.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    scale, sub_multiple = field.scale, field.sub_multiple
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        head = rows[r]
        if head[c] != 1:
            head[c:] = scale(field.inv(head[c]), head[c:])
        tail = head[c:]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                row[c:] = sub_multiple(row[c:], row[c], tail)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    _, pivots = _rref_rows(m.field, m.rows)
    return len(pivots)


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and rank(m) == m.nrows


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse matrix, or None when singular (never raises)."""
    if m.nrows != m.ncols:
        return None
    n = m.nrows
    aug = [[*row, *basis_vec(m.field, n, i)] for i, row in enumerate(m.rows)]
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
        if any(len(v) != ambient_dim for v in vs):
            raise ValueError("vector length != ambient dimension")
        return _span(field, ambient_dim, vs)

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(field, ambient_dim, ())

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
        sub_multiple = self.field.sub_multiple
        residual = vec(self.field, v)
        for row in self.basis.rows:
            c = next(i for i, x in enumerate(row) if x)  # pivot column
            if residual[c]:
                residual = sub_multiple(residual, residual[c], row)
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


def _span(field: FieldSpec, ambient_dim: int, rows: Sequence) -> Subspace:
    """Span of canonical rows of length ambient_dim, as they are (no check, no canonicalisation)."""
    reduced, pivots = _rref_rows(field, rows)
    return Subspace(ambient_dim, Matrix(field, tuple(map(tuple, reduced[: len(pivots)]))))


def kernel(m: Matrix) -> Subspace:
    """Solution space {x : m x = 0}, canonical basis."""
    f, n = m.field, m.ncols
    rows, pivots = _rref_rows(f, m.rows)
    negated = [f.scale(-1, row) for row in rows[: len(pivots)]]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [f.zero] * n
        v[fc] = f.one
        for row, pc in zip(negated, pivots):
            v[pc] = row[fc]
        basis.append(v)
    return _span(f, n, basis)
