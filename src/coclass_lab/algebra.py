"""Lie algebras given by structure constants: brackets, series, invariants.

A :class:`LieAlgebra` stores the sparse structure-constant table only for
index pairs i < j; the (j, i) value is derived by sign and [e_i, e_i] = 0,
so antisymmetry cannot be violated by construction.  The Jacobi identity
is the one axiom that needs checking, and :meth:`LieAlgebra.validate`
reports each failing triple together with its residual vector.

A :class:`LieAlgebra` must not be mutated after construction: it caches a
per-index bracket table and its lower and upper central series on first
use.  ``derived``, ``center``, ``second_center``, ``is_nilpotent``,
``nilpotency_class``, ``coclass``, ``generator_indices`` and both
``*_central_series`` methods read the cached series, so every invariant of
one algebra shares one computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .fields import FieldSpec, Scalar
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    add_vec,
    basis_vec,
    is_zero_vec,
    kernel,
    scale_vec,
    vec,
    zero_vec,
)


class NonNilpotentError(ValueError):
    """Raised by operations that only make sense for nilpotent algebras."""


class NotSubalgebraError(ValueError):
    """Raised when a subspace is not closed under the bracket."""


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple
    residual: Vector

    def __str__(self) -> str:
        i, j, k = self.triple
        return f"Jacobi fails on (e{i+1}, e{j+1}, e{k+1}): residual {self.residual}"


def _normalize_sc(field: FieldSpec, dim: int, sc) -> dict:
    table = {}
    for (i, j), terms in sc.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"structure constants need 0 <= i < j < dim, got ({i}, {j})")
        if (i, j) in table:
            raise ValueError(f"duplicate bracket entry ({i}, {j})")
        acc: dict = {}
        for k, c in terms:
            if not 0 <= k < dim:
                raise ValueError(f"bracket target index {k} out of range")
            acc[k] = field.add(acc.get(k, field.zero), field.canon(c))
        cleaned = tuple((k, c) for k, c in sorted(acc.items()) if c)
        if cleaned:
            table[(i, j)] = cleaned
    return table


class LieAlgebra:
    """Finite-dimensional Lie algebra over F_p (p odd) or Q."""

    def __init__(self, field: FieldSpec, dim: int, sc, labels: Optional[Sequence[str]] = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.field = field
        self.dim = dim
        self.sc = _normalize_sc(field, dim, dict(sc))
        if labels is not None and len(labels) != dim:
            raise ValueError("label count != dimension")
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i+1}" for i in range(dim))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.sc == other.sc
        )

    def __hash__(self):
        return hash((self.field, self.dim, tuple(sorted(self.sc.items()))))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, field={self.field}, brackets={len(self.sc)})"

    # -- bracket ----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        f = self.field
        if i == j:
            return zero_vec(f, self.dim)
        sign = f.one
        if i > j:
            i, j = j, i
            sign = f.neg(f.one)
        out = [f.zero] * self.dim
        for k, c in self.sc.get((i, j), ()):
            out[k] = f.mul(sign, c)
        return tuple(out)

    def bracket(self, x: Iterable, y: Iterable) -> Vector:
        """Bilinear extension of the structure constants."""
        f = self.field
        x = vec(f, x)
        y = vec(f, y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length != algebra dimension")
        return self._bracket(x, y)

    @cached_property
    def _adjacency(self) -> tuple:
        """For each i, the pairs (j, signed terms of [e_i, e_j]) with a nonzero bracket."""
        f = self.field
        adj = [[] for _ in range(self.dim)]
        for (i, j), terms in self.sc.items():
            adj[i].append((j, terms))
            adj[j].append((i, tuple((k, f.neg(c)) for k, c in terms)))
        return tuple(map(tuple, adj))

    def _bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] for canonical vectors of length dim.

        Walks only x's nonzero coordinates and their nonzero brackets,
        accumulating exactly and reducing once at the end.
        """
        out = [self.field.zero] * self.dim
        adj = self._adjacency
        for i, xi in enumerate(x):
            if xi:
                for j, terms in adj[i]:
                    yj = y[j]
                    if yj:
                        c = xi * yj
                        for k, t in terms:
                            out[k] += c * t
        p = self.field.p
        return tuple(v % p for v in out) if p else tuple(out)

    def ad_matrix(self, j: int) -> Matrix:
        """Matrix of x -> [x, e_j] acting on coordinates."""
        cols = [self.bracket_basis(i, j) for i in range(self.dim)]
        return Matrix(self.field, tuple(zip(*cols)))

    # -- validation -------------------------------------------------------

    def validate(self) -> list:
        """Jacobi residuals [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples.

        Antisymmetry holds by the storage convention, so an empty list
        means the table is a genuine Lie algebra.
        """
        violations = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    r = self._bracket(self.bracket_basis(i, j), basis_vec(self.field, self.dim, k))
                    r = add_vec(self.field, r, self._bracket(self.bracket_basis(j, k), basis_vec(self.field, self.dim, i)))
                    r = add_vec(self.field, r, self._bracket(self.bracket_basis(k, i), basis_vec(self.field, self.dim, j)))
                    if not is_zero_vec(r):
                        violations.append(JacobiViolation((i, j, k), r))
        return violations

    # -- subspace machinery -------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [x, y] over basis pairs of a x b."""
        if a.ambient_dim != self.dim or b.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        vecs = [self._bracket(x, y) for x in a.basis.rows for y in b.basis.rows]
        return Subspace.from_vectors(self.field, self.dim, vecs)

    def derived(self) -> Subspace:
        """[L, L]; the lower series stops at L itself when [L, L] = L."""
        lower = self._lower_series
        return lower[1] if len(lower) > 1 else lower[0]

    def centralizer(self, s: Union[Subspace, Iterable]) -> Subspace:
        """{x : [x, v] = 0 for every v in (a basis of) s}."""
        if isinstance(s, Subspace):
            targets = list(s.basis.rows)
        else:
            targets = [vec(self.field, s)]
        rows = []
        for t in targets:
            # [x, t]_k = sum_i x_i [e_i, t]_k
            cols = [self._bracket(basis_vec(self.field, self.dim, i), t) for i in range(self.dim)]
            rows.extend(zip(*cols))
        if not rows:
            return self.full_space()
        return kernel(Matrix(self.field, tuple(rows)))

    def center(self) -> Subspace:
        upper = self._upper_series
        return upper[min(1, len(upper) - 1)]

    def second_center(self) -> Subspace:
        upper = self._upper_series
        return upper[min(2, len(upper) - 1)]

    def _center_preimage(self, z: Subspace) -> Subspace:
        """{x : [x, e_j] in z for all j}: the kernel of c . [e_i, e_j] over constraints c of z."""
        if z.is_full():
            return self.full_space()
        f = self.field
        constraints = z.annihilator().rows
        # row (c, j), column i holds c . [e_i, e_j]; only nonzero brackets contribute
        rows = {}
        for i, pairs in enumerate(self._adjacency):
            for j, terms in pairs:
                for ci, c in enumerate(constraints):
                    value = f.canon(sum(c[k] * t for k, t in terms))
                    if value:
                        rows.setdefault((ci, j), [f.zero] * self.dim)[i] = value
        if not rows:
            return self.full_space()
        return kernel(Matrix(self.field, tuple(map(tuple, rows.values()))))

    @cached_property
    def _lower_series(self) -> tuple:
        series = [self.full_space()]
        while True:
            nxt = self.bracket_subspaces(self.full_space(), series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.is_zero:
                break
        return tuple(series)

    @cached_property
    def _upper_series(self) -> tuple:
        series = [self.zero_space()]
        while True:
            nxt = self._center_preimage(series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.is_full():
                break
        return tuple(series)

    def lower_central_series(self) -> list:
        """[L, L', L^2, ...] down to the first repeated term."""
        return list(self._lower_series)

    def upper_central_series(self) -> list:
        """[0, Z(L), Z_2(L), ...] up to the first repeated term."""
        return list(self._upper_series)

    @property
    def is_nilpotent(self) -> bool:
        return self._lower_series[-1].is_zero

    @property
    def is_abelian(self) -> bool:
        return not self.sc

    def nilpotency_class(self) -> int:
        """Least c with L^c = 0 under the convention L^1 = [L, L]."""
        series = self._lower_series
        if not series[-1].is_zero:
            raise NonNilpotentError("lower central series does not reach 0")
        return len(series) - 1

    def coclass(self) -> int:
        return self.dim - self.nilpotency_class()

    # -- subalgebras ---------------------------------------------------------

    def check_subalgebra(self, s: Subspace) -> None:
        for x in s.basis.rows:
            for y in s.basis.rows:
                if not s.contains(self._bracket(x, y)):
                    raise NotSubalgebraError(f"[{x}, {y}] leaves the subspace")

    def restrict(self, s: Subspace) -> "LieAlgebra":
        """The bracket of s in its own basis coordinates (s must be closed)."""
        self.check_subalgebra(s)
        f = self.field
        rows = s.basis.rows
        if not rows:
            return LieAlgebra(f, 1, {})
        # coordinates w.r.t. the rref basis: read off pivot positions
        pivots = [next(c for c, xv in enumerate(row) if xv) for row in rows]
        sc = {}
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                w = self._bracket(rows[i], rows[j])
                terms = [(k, w[pc]) for k, pc in enumerate(pivots) if w[pc]]
                if terms:
                    sc[(i, j)] = tuple(terms)
        return LieAlgebra(f, len(rows), sc)

    def subalgebra_class(self, s: Subspace) -> int:
        if s.is_zero:
            return 0
        return self.restrict(s).nilpotency_class()

    def is_abelian_subspace(self, s: Subspace) -> bool:
        return self.subalgebra_class(s) <= 1

    # -- generator presentation ----------------------------------------------

    def generator_indices(self) -> list:
        """Lexicographically first basis indices independent modulo L'.

        Their basis vectors lift a basis of L/L'.
        """
        f = self.field
        span = self.derived()
        out = []
        for i in range(self.dim):
            if span.is_full():
                break
            grown = Subspace.from_vectors(f, self.dim, span.basis.rows + (basis_vec(f, self.dim, i),))
            if grown.dim > span.dim:
                out.append(i)
                span = grown
        return out

    def generator_presentation(self) -> "GeneratorPresentation":
        """Express a basis of L as bracket words in lifts of a basis of L/L'.

        Generators are the lexicographically first basis vectors that are
        independent modulo L'; the rest of the basis is filled in greedily
        by bracketing already-expressed values with generators.  Each new
        value is rescaled to make its leading coordinate 1, so on tables
        whose brackets hit single basis vectors every expression evaluates
        to a standard basis vector exactly.
        """
        if not self.is_nilpotent:
            raise NonNilpotentError("presentations require a nilpotent algebra")
        f = self.field
        generators = self.generator_indices()
        steps = [PresentationStep("gen", g, None, f.one) for g in generators]
        values = [basis_vec(f, self.dim, g) for g in generators]
        span = Subspace.from_vectors(f, self.dim, values)
        while span.dim < self.dim:
            added = False
            for s in range(len(values)):
                for gi, g in enumerate(generators):
                    w = self._bracket(basis_vec(f, self.dim, g), values[s])
                    if is_zero_vec(w) or span.contains(w):
                        continue
                    lead = next(x for x in w if x)
                    scale = f.inv(lead)
                    steps.append(PresentationStep("bracket", gi, s, scale))
                    values.append(scale_vec(f, scale, w))
                    span = Subspace.from_vectors(f, self.dim, values)
                    added = True
                    break
                if added:
                    break
            if not added:
                raise AssertionError("generator extension stalled before spanning L")
        basis_matrix = Matrix(f, tuple(zip(*values)))  # columns = derived basis
        return GeneratorPresentation(self, tuple(generators), tuple(steps), tuple(values), basis_matrix)


@dataclass(frozen=True)
class PresentationStep:
    """Either the t-th generator, or scale * [generator, earlier value]."""

    kind: str  # "gen" | "bracket"
    gen_index: int
    operand: Optional[int]
    scale: Scalar


@dataclass(frozen=True)
class GeneratorPresentation:
    algebra: LieAlgebra
    generators: tuple
    steps: tuple
    values: tuple
    basis_matrix: Matrix  # columns are the step values; invertible

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def evaluate(self) -> tuple:
        """Re-evaluate every step in L (round-trip check helper)."""
        f = self.algebra.field
        out = []
        for step in self.steps:
            if step.kind == "gen":
                out.append(basis_vec(f, self.algebra.dim, step.gen_index))
            else:
                g = basis_vec(f, self.algebra.dim, self.generators[step.gen_index])
                w = self.algebra.bracket(g, out[step.operand])
                out.append(scale_vec(f, step.scale, w))
        return tuple(out)
