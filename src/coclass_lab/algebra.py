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

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _span,
    basis_vec,
    invert,
    kernel,
    vec,
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


def _normalize_sc(field: FieldSpec, dim: int, pairs) -> dict:
    table, seen = {}, set()  # seen, not table: a bracket whose terms are all zero is not stored
    for (i, j), terms in pairs:
        if not (type(i) is type(j) is int and 0 <= i < j < dim):
            raise ValueError(f"structure constants need ints 0 <= i < j < dim, got ({i!r}, {j!r})")
        if (i, j) in seen:
            raise ValueError(f"duplicate bracket entry ({i}, {j})")
        seen.add((i, j))
        acc: dict = {}
        for k, c in terms:
            if not (type(k) is int and 0 <= k < dim):
                raise ValueError(f"bracket target index needs an int 0 <= k < dim, got {k!r}")
            if k in acc:
                raise ValueError(f"repeated target {k} in bracket entry ({i}, {j})")
            acc[k] = field.canon(c)
        cleaned = tuple((k, c) for k, c in sorted(acc.items()) if c)
        if cleaned:
            table[(i, j)] = cleaned
    return table


class LieAlgebra:
    """Finite-dimensional Lie algebra over F_p (p odd) or Q.

    ``sc`` is a mapping or an iterable of ((i, j), ((k, c), ...)) pairs
    with 0 <= i < j < dim and 0 <= k < dim; a repeated (i, j), or a k
    repeated within one entry, is an error.  dim, i, j and k must be ints
    (no bool or float) and each c an int or a Fraction: a catalog file's
    rules, so every accepted algebra saves to a file that loads back equal.
    """

    def __init__(self, field: FieldSpec, dim: int, sc):
        if type(dim) is not int:
            raise ValueError(f"dimension must be an int, not {type(dim).__name__}")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.field = field
        self.dim = dim
        self.sc = _normalize_sc(field, dim, sc.items() if isinstance(sc, Mapping) else sc)
        self._zeros = (field.zero,) * dim

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
        out = list(self._zeros)
        for k, c in self.sc.get((min(i, j), max(i, j)), ()):
            out[k] = c
        return tuple(self.field.scale(-1, out)) if i > j else tuple(out)

    def bracket(self, x: Iterable, y: Iterable) -> Vector:
        """Bilinear extension of the structure constants."""
        x, y = vec(self.field, x), vec(self.field, y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length != algebra dimension")
        return self._bracket(x, y)

    @cached_property
    def _adjacency(self) -> tuple:
        """For each i, the pairs (j, signed terms of [e_i, e_j]) with a nonzero bracket."""
        scale = self.field.scale
        adj = [[] for _ in range(self.dim)]
        for (i, j), terms in self.sc.items():
            adj[i].append((j, terms))
            ks, cs = zip(*terms)
            adj[j].append((i, tuple(zip(ks, scale(-1, cs)))))
        return tuple(map(tuple, adj))

    def _bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] for canonical vectors of length dim.

        Walks only x's nonzero coordinates and their nonzero brackets,
        accumulating exactly and reducing once at the end.
        """
        out = list(self._zeros)
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
        return tuple([v % p for v in out]) if p else tuple(out)

    def ad_matrix(self, j: int) -> Matrix:
        """Matrix of x -> [x, e_j] acting on coordinates."""
        cols = [self.bracket_basis(i, j) for i in range(self.dim)]
        return Matrix(self.field, tuple(zip(*cols)))

    # -- validation -------------------------------------------------------

    def validate(self) -> list:
        """Jacobi residuals [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples.

        Antisymmetry holds by the storage convention, so an empty list
        means the table is a genuine Lie algebra.  Each residual walks the
        nonzero brackets of the per-index table, sums the three terms and
        reduces once.
        """
        table = [dict(pairs) for pairs in self._adjacency]
        p = self.field.p
        violations = []
        for i, j, k in combinations(range(self.dim), 3):
            out = list(self._zeros)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in table[a].get(b, ()):
                    for l, y in table[m].get(c, ()):
                        out[l] += x * y
            r = tuple([v % p for v in out]) if p else tuple(out)
            if any(r):
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
        return _span(self.field, self.dim, vecs)

    def derived(self) -> Subspace:
        """[L, L]; the lower series stops at L itself when [L, L] = L."""
        lower = self._lower_series
        return lower[1] if len(lower) > 1 else lower[0]

    def center(self) -> Subspace:
        upper = self._upper_series
        return upper[min(1, len(upper) - 1)]

    def second_center(self) -> Subspace:
        upper = self._upper_series
        return upper[min(2, len(upper) - 1)]

    def _center_preimage(self, z: Subspace) -> Subspace:
        """{x : [x, e_j] in z for all j}: the kernel of c . [e_i, e_j] over constraints c of z."""
        f = self.field
        columns = tuple(zip(*z.annihilator().rows))  # columns[k][ci] is constraint ci's entry k
        # row (c, j), column i holds c . [e_i, e_j]; only nonzero brackets contribute
        rows = defaultdict(list(self._zeros).copy)
        for i, pairs in enumerate(self._adjacency):
            for j, terms in pairs:
                (k, t), *rest = terms
                values = f.scale(t, columns[k])  # c . [e_i, e_j] for every constraint c at once
                for k, t in rest:
                    values = f.sub_multiple(values, -t, columns[k])
                for ci, value in enumerate(values):
                    if value:
                        rows[ci, j][i] = value
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

    def subalgebra_class(self, s: Subspace) -> int:
        """Nilpotency class of the subalgebra s, from s, [s, s], [s, [s, s]], ... in L."""
        if s.is_full():
            return self.nilpotency_class()
        term, steps = s, 0
        while not term.is_zero:
            nxt = self.bracket_subspaces(s, term)
            if steps == 0 and not s.contains_subspace(nxt):
                raise NotSubalgebraError("[s, s] leaves the subspace")
            if nxt == term:
                raise NonNilpotentError("lower central series of the subalgebra does not reach 0")
            term, steps = nxt, steps + 1
        return steps

    # -- generator presentation ----------------------------------------------

    def generator_indices(self) -> list:
        """Lexicographically first basis indices independent modulo L'.

        They are the pivot columns of the reduced annihilator
        Λ = ``derived().annihilator()``, whose kernel is L'.  Column i of Λ
        is Λ e_i, and it is a combination of the columns before it exactly
        when e_i lies in L' + span(e_0, ..., e_{i-1}); so the pivots are
        the greedy picks, and their basis vectors lift a basis of L/L'.
        Λ is the identity on these columns and kills L', so its rows are
        the L/L' coordinates with respect to the generators.
        """
        return [next(i for i, x in enumerate(row) if x) for row in self.derived().annihilator().rows]

    def generator_presentation(self) -> "GeneratorPresentation":
        """Express a basis of L as bracket words in lifts of a basis of L/L'.

        The values start as the generators g_0, ..., g_{r-1}, the basis
        vectors of ``generator_indices``.  One forward pass over the
        growing value list then tries [g_t, values[s]] for each s in turn
        and each t, and appends it as the step (t, s) when it leaves the
        span of the values so far, until they span L.  ``basis_inverse``
        inverts the matrix whose columns are the values, so a map with
        those value images is (images as columns) @ basis_inverse.
        """
        if not self.is_nilpotent:
            raise NonNilpotentError("presentations require a nilpotent algebra")
        f = self.field
        n = self.dim
        generators = tuple(self.generator_indices())
        values = [basis_vec(f, n, g) for g in generators]
        span = _span(f, n, values)
        steps = []
        s = 0
        while not span.is_full():
            if s == len(values):
                raise AssertionError("generator extension stalled before spanning L")
            for t in range(len(generators)):
                w = self._bracket(values[t], values[s])
                if not span.contains(w):
                    steps.append((t, s))
                    values.append(w)
                    span = _span(f, n, span.basis.rows + (w,))
            s += 1
        return GeneratorPresentation(generators, tuple(steps), invert(Matrix(f, tuple(zip(*values)))))


@dataclass(frozen=True)
class GeneratorPresentation:
    """Generators, bracket steps (t, s): the next value is [g_t, values[s]], and the
    inverse of the matrix whose columns are the values (generators first)."""

    generators: tuple
    steps: tuple
    basis_inverse: Matrix
